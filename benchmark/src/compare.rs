//! `compare A/results.json B/results.json`: one row per (workload,
//! end-to-end metric) with both medians, their quartiles, B as a ratio of A
//! and a verdict against the bound `BENCHMARK.json` fixes.
//!
//! * `ok` — B is no worse than A by more than the bound.
//! * `regressed` — it is.
//! * `unresolved` — the quartiles of either side span more than the bound,
//!   so the medians cannot settle it either way.

use crate::json::Json;
use crate::report::FAILED_OPS_SHARE;
use crate::spec::{MetricSpec, Spec};

/// What `compare` concluded for one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the median and, when several samples stand behind it,
/// its quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    /// The reported value.
    pub value: f64,
    /// First and third quartile.
    pub quartiles: Option<(f64, f64)>,
}

impl Side {
    fn from_json(metric: &Json) -> Option<Side> {
        let num = |key: &str| metric.get(key).and_then(Json::as_f64);
        Some(Side {
            value: num("value")?,
            quartiles: num("q1").zip(num("q3")),
        })
    }

    /// Interquartile range as a share of the value.
    fn spread(&self) -> f64 {
        match self.quartiles {
            Some((q1, q3)) if self.value != 0.0 => (q3 - q1) / self.value.abs(),
            _ => 0.0,
        }
    }

    fn show(&self) -> String {
        match self.quartiles {
            Some((q1, q3)) => format!("{:.4} [{:.4}, {:.4}]", self.value, q1, q3),
            None => format!("{:.4}", self.value),
        }
    }
}

/// Judge `b` against the base `a` under `spec`'s direction and bound.
pub fn verdict(spec: &MetricSpec, a: Side, b: Side) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    if a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if spec.lower_is_better {
        b.value - a.value
    } else {
        a.value - b.value
    };
    // A share of the base; a zero base (failed_ops_share) allows no increase.
    let limit = bound * a.value.abs();
    if worse_by > limit {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison table. `Ok(true)` when no row regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let spec = Spec::load()?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (side, doc) in [("A", &a), ("B", &b)] {
        let p = doc.get("provenance");
        let field = |k: &str| {
            p.and_then(|p| p.get(k))
                .map_or("?".to_string(), Json::compact)
        };
        println!(
            "# {side}: commit {} dirty {} seed {} seconds {}",
            field("commit"),
            field("dirty"),
            field("seed"),
            field("seconds")
        );
    }
    let mut specs = spec.end_to_end.clone();
    specs.push(MetricSpec {
        name: FAILED_OPS_SHARE.to_string(),
        unit: "ratio".to_string(),
        lower_is_better: true,
        bound: Some(0.0),
    });
    println!("workload metric unit A[q1,q3] B[q1,q3] B/A bound verdict");
    let mut clean = true;
    let mut rows = 0;
    for workload in &spec.workloads {
        let metrics = |doc: &Json| {
            doc.get("workloads")
                .and_then(|ws| ws.get(workload))
                .and_then(|w| w.get("metrics"))
                .cloned()
        };
        let (Some(ma), Some(mb)) = (metrics(&a), metrics(&b)) else {
            continue;
        };
        for m in &specs {
            let side = |ms: &Json| ms.get(&m.name).and_then(Side::from_json);
            let (Some(sa), Some(sb)) = (side(&ma), side(&mb)) else {
                continue;
            };
            let v = verdict(m, sa, sb);
            clean &= v != Verdict::Regressed;
            rows += 1;
            let ratio = if sa.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}x of {:.4}", sb.value / sa.value, sa.value)
            };
            println!(
                "{workload} {} {} {} {} {ratio} {} {}",
                m.name,
                m.unit,
                sa.show(),
                sb.show(),
                m.bound.unwrap_or(0.0),
                v.label()
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, end-to-end metric)".to_string());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "host_s".to_string(),
            unit: "s".to_string(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    fn tight(value: f64) -> Side {
        Side {
            value,
            quartiles: Some((value * 0.99, value * 1.01)),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let m = lower(0.10);
        assert_eq!(verdict(&m, tight(2.0), tight(2.1)), Verdict::Ok);
        assert_eq!(
            verdict(&m, tight(2.0), tight(1.0)),
            Verdict::Ok,
            "better is fine"
        );
        assert_eq!(verdict(&m, tight(2.0), tight(2.3)), Verdict::Regressed);
        let wide = Side {
            value: 2.0,
            quartiles: Some((1.8, 2.2)),
        };
        assert_eq!(verdict(&m, wide, tight(2.3)), Verdict::Unresolved);
        assert_eq!(verdict(&m, tight(2.0), wide), Verdict::Unresolved);

        let higher = MetricSpec {
            lower_is_better: false,
            ..lower(0.10)
        };
        assert_eq!(
            verdict(&higher, tight(100.0), tight(85.0)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&higher, tight(100.0), tight(130.0)), Verdict::Ok);
    }

    #[test]
    fn a_zero_base_allows_no_increase() {
        let m = lower(0.0);
        let single = |value| Side {
            value,
            quartiles: None,
        };
        assert_eq!(verdict(&m, single(0.0), single(0.0)), Verdict::Ok);
        assert_eq!(verdict(&m, single(0.0), single(0.01)), Verdict::Regressed);
    }
}
