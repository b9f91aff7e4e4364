//! The props-file configuration format.
//!
//! CloudyBench is driven by a properties file (the paper's extensibility
//! story: "modify the length of `elastic_testTime` (e.g., 4) and add
//! corresponding concurrency in the props file (e.g., `fourth_con`)").
//! [`Props`] parses `key=value` lines; [`ElasticScheduleConfig`] turns the
//! `*_con` keys into a concurrency schedule without touching driver code.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// A parse or lookup failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Malformed line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// Required key missing.
    Missing(String),
    /// Value failed to parse as the requested type.
    Invalid {
        /// Key name.
        key: String,
        /// Raw value.
        value: String,
        /// Expected type.
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Syntax { line, message } => write!(f, "props line {line}: {message}"),
            ConfigError::Missing(k) => write!(f, "missing required key {k}"),
            ConfigError::Invalid {
                key,
                value,
                expected,
            } => write!(f, "key {key}: {value:?} is not a valid {expected}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A parsed properties file.
#[derive(Clone, Debug, Default)]
pub struct Props {
    values: HashMap<String, String>,
}

impl Props {
    /// Parse `key=value` lines. `#` and `!` start comments; blank lines are
    /// ignored; whitespace around keys and values is trimmed.
    pub fn parse(text: &str) -> Result<Props, ConfigError> {
        let mut values = HashMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('!') {
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(ConfigError::Syntax {
                    line: i + 1,
                    message: "expected key=value".into(),
                });
            };
            let key = line[..eq].trim();
            if key.is_empty() {
                return Err(ConfigError::Syntax {
                    line: i + 1,
                    message: "empty key".into(),
                });
            }
            values.insert(key.to_string(), line[eq + 1..].trim().to_string());
        }
        Ok(Props { values })
    }

    /// Raw string lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string.
    pub(crate) fn require(&self, key: &str) -> Result<&str, ConfigError> {
        self.get(key)
            .ok_or_else(|| ConfigError::Missing(key.into()))
    }

    /// `key` parsed as `T`, or `default` when absent; a value that does not
    /// parse (including one out of `T`'s range) is `Invalid { expected }`.
    fn get_parsed<T: FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ConfigError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ConfigError::Invalid {
                key: key.into(),
                value: v.into(),
                expected,
            }),
        }
    }

    /// Typed lookup with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ConfigError> {
        self.get_parsed(key, default, "u64")
    }

    /// Typed u32 lookup with a default: a value past `u32::MAX` is an
    /// error, never a silent wrap.
    pub fn get_u32(&self, key: &str, default: u32) -> Result<u32, ConfigError> {
        self.get_parsed(key, default, "u32")
    }

    /// Typed f64 lookup with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ConfigError> {
        self.get_parsed(key, default, "f64")
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no keys were parsed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Ordinal key names for the `*_con` convention.
const ORDINALS: [&str; 12] = [
    "first", "second", "third", "fourth", "fifth", "sixth", "seventh", "eighth", "ninth", "tenth",
    "eleventh", "twelfth",
];

/// The elastic schedule configured in a props file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElasticScheduleConfig {
    /// Concurrency per slot (from `first_con`, `second_con`, …).
    pub slots: Vec<u32>,
    /// Slot length in seconds (`slot_seconds`, default 60).
    pub slot_seconds: u64,
}

impl ElasticScheduleConfig {
    /// Read `elastic_testTime` slots from `first_con`.. keys — the paper's
    /// extension mechanism.
    pub fn from_props(props: &Props) -> Result<Self, ConfigError> {
        let n = props.get_u64("elastic_testTime", 3)? as usize;
        if n > ORDINALS.len() {
            return Err(ConfigError::Invalid {
                key: "elastic_testTime".into(),
                value: n.to_string(),
                expected: "at most 12 slots",
            });
        }
        let mut slots = Vec::with_capacity(n);
        for ordinal in ORDINALS.iter().take(n) {
            let key = format!("{ordinal}_con");
            let raw = props.require(&key)?;
            let v: u32 = raw.parse().map_err(|_| ConfigError::Invalid {
                key: key.clone(),
                value: raw.into(),
                expected: "u32",
            })?;
            slots.push(v);
        }
        Ok(ElasticScheduleConfig {
            slots,
            slot_seconds: props.get_u64("slot_seconds", 60)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# CloudyBench elasticity configuration
elastic_testTime = 4
first_con  = 11
second_con = 88
third_con  = 11
fourth_con = 0
slot_seconds = 60
scale_factor = 1
tenants = 3
"#;

    #[test]
    fn parses_props_and_schedule() {
        let p = Props::parse(SAMPLE).unwrap();
        assert_eq!(p.get("first_con"), Some("11"));
        assert_eq!(p.get_u64("scale_factor", 0).unwrap(), 1);
        let sched = ElasticScheduleConfig::from_props(&p).unwrap();
        assert_eq!(sched.slots, vec![11, 88, 11, 0]);
        assert_eq!(sched.slot_seconds, 60);
    }

    #[test]
    fn extending_test_time_needs_matching_con() {
        let p =
            Props::parse("elastic_testTime = 4\nfirst_con=1\nsecond_con=2\nthird_con=3").unwrap();
        let e = ElasticScheduleConfig::from_props(&p).unwrap_err();
        assert_eq!(e, ConfigError::Missing("fourth_con".into()));
    }

    #[test]
    fn defaults_apply() {
        let p = Props::parse("first_con=5\nsecond_con=6\nthird_con=7").unwrap();
        let sched = ElasticScheduleConfig::from_props(&p).unwrap();
        assert_eq!(sched.slots.len(), 3, "elastic_testTime defaults to 3");
        assert_eq!(sched.slot_seconds, 60);
        assert_eq!(p.get_f64("missing", 2.5).unwrap(), 2.5);
    }

    #[test]
    fn error_reporting() {
        assert!(matches!(
            Props::parse("not a pair").unwrap_err(),
            ConfigError::Syntax { line: 1, .. }
        ));
        let p = Props::parse("x = notanumber").unwrap();
        assert!(matches!(
            p.get_u64("x", 0).unwrap_err(),
            ConfigError::Invalid { .. }
        ));
        assert!(matches!(
            p.require("absent").unwrap_err(),
            ConfigError::Missing(_)
        ));
    }

    #[test]
    fn comments_and_whitespace() {
        let p = Props::parse("  # comment\n! also comment\n\n key = value with spaces  ").unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.get("key"), Some("value with spaces"));
    }
}
