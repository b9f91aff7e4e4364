//! The statement registry — CloudyBench's `stmt_db.toml` mechanism.
//!
//! The paper's extensibility story decouples SQL text from the driver: new
//! workloads are added by listing named statements in a `stmt_db.toml` file.
//! [`StmtRegistry::load`] parses that format (a `[section]`-and-`name =
//! "SQL"` subset of TOML) and binds each statement against the catalog once.
//! A caller resolves a name to a [`StmtId`] when it is set up
//! ([`StmtRegistry::id`]) and indexes the registry with it per execution;
//! [`StmtRegistry::get`] looks a statement up by name for set-up code and
//! one-off callers.

use std::collections::HashMap;
use std::fmt;

use crate::db::Database;

use super::bind::{bind, BindError, BoundStmt};
use super::parser::{parse, ParseError};

/// A failure while loading statement definitions.
#[derive(Clone, Debug, PartialEq)]
pub enum RegistryError {
    /// Malformed definition line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// SQL failed to parse.
    Parse {
        /// Statement name.
        name: String,
        /// Underlying error.
        error: ParseError,
    },
    /// SQL failed to bind against the catalog.
    Bind {
        /// Statement name.
        name: String,
        /// Underlying error.
        error: BindError,
    },
    /// Duplicate statement name.
    Duplicate(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Syntax { line, message } => {
                write!(f, "statement file line {line}: {message}")
            }
            RegistryError::Parse { name, error } => write!(f, "statement {name}: {error}"),
            RegistryError::Bind { name, error } => write!(f, "statement {name}: {error}"),
            RegistryError::Duplicate(name) => write!(f, "duplicate statement name {name}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Handle to a registered statement: its position in the registry that
/// issued it. Indexing with it (`registry[id]`) is a bounds-checked array
/// access — no name is hashed on the execution path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StmtId(u32);

/// Named, prepared statements.
#[derive(Default)]
pub struct StmtRegistry {
    /// Bound statements in registration order; a [`StmtId`] indexes this.
    stmts: Vec<BoundStmt>,
    by_name: HashMap<String, StmtId>,
}

impl StmtRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        StmtRegistry::default()
    }

    /// Register one named statement.
    pub fn register(&mut self, name: &str, sql: &str, db: &Database) -> Result<(), RegistryError> {
        if self.by_name.contains_key(name) {
            return Err(RegistryError::Duplicate(name.to_string()));
        }
        let ast = parse(sql).map_err(|error| RegistryError::Parse {
            name: name.to_string(),
            error,
        })?;
        let stmt = bind(&ast, db).map_err(|error| RegistryError::Bind {
            name: name.to_string(),
            error,
        })?;
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(stmt);
        self.by_name.insert(name.to_string(), id);
        Ok(())
    }

    /// Load a `stmt_db.toml`-style document: `#` comments, `[sections]`
    /// (ignored), and `name = "SQL"` entries.
    pub fn load(&mut self, text: &str, db: &Database) -> Result<usize, RegistryError> {
        let mut loaded = 0usize;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(RegistryError::Syntax {
                    line: i + 1,
                    message: "expected `name = \"SQL\"`".into(),
                });
            };
            let name = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            if name.is_empty() {
                return Err(RegistryError::Syntax {
                    line: i + 1,
                    message: "empty statement name".into(),
                });
            }
            if rhs.len() < 2 || !rhs.starts_with('"') || !rhs.ends_with('"') {
                return Err(RegistryError::Syntax {
                    line: i + 1,
                    message: "statement text must be double-quoted".into(),
                });
            }
            let sql = &rhs[1..rhs.len() - 1];
            self.register(name, sql, db)?;
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Resolve a name to its handle, once, at set-up.
    pub fn id(&self, name: &str) -> Option<StmtId> {
        self.by_name.get(name).copied()
    }

    /// Fetch a prepared statement by name.
    pub fn get(&self, name: &str) -> Option<&BoundStmt> {
        self.id(name).map(|id| &self[id])
    }

    /// Registered statement names (sorted, for reports).
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.by_name.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Number of registered statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

impl std::ops::Index<StmtId> for StmtRegistry {
    type Output = BoundStmt;

    /// The statement behind a handle this registry issued.
    fn index(&self, id: StmtId) -> &BoundStmt {
        &self.stmts[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColumnDef, DataType, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "orders",
            Schema::new(vec![
                ColumnDef::new("O_ID", DataType::Int),
                ColumnDef::new("O_STATUS", DataType::Text),
            ]),
        );
        db
    }

    const DOC: &str = r#"
# CloudyBench statement registry
[statements]
t3_order_status = "SELECT O_ID, O_STATUS FROM orders WHERE O_ID = ?"
t_pay = "UPDATE orders SET O_STATUS='PAID' WHERE O_ID=?"
"#;

    #[test]
    fn loads_toml_like_document() {
        let db = db();
        let mut reg = StmtRegistry::new();
        let n = reg.load(DOC, &db).unwrap();
        assert_eq!(n, 2);
        assert_eq!(reg.names(), vec!["t3_order_status", "t_pay"]);
        assert!(reg.get("t3_order_status").is_some());
        // A handle and a name reach the same statement; unknown names
        // resolve to nothing.
        for name in reg.names() {
            let id = reg.id(name).expect("listed name resolves");
            assert_eq!(Some(&reg[id]), reg.get(name));
        }
        assert_ne!(reg.id("t3_order_status"), reg.id("t_pay"));
        assert_eq!(reg.id("nope"), None);
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let db = db();
        let mut reg = StmtRegistry::new();
        reg.register("a", "SELECT O_ID FROM orders WHERE O_ID=?", &db)
            .unwrap();
        let e = reg
            .register("a", "DELETE FROM orders WHERE O_ID=?", &db)
            .unwrap_err();
        assert_eq!(e, RegistryError::Duplicate("a".into()));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let db = db();
        let mut reg = StmtRegistry::new();
        let e = reg.load("x = unquoted", &db).unwrap_err();
        assert!(matches!(e, RegistryError::Syntax { line: 1, .. }));
        let e = reg.load("\n\nnot a definition", &db).unwrap_err();
        assert!(matches!(e, RegistryError::Syntax { line: 3, .. }));
    }

    #[test]
    fn bad_sql_is_reported_with_name() {
        let db = db();
        let mut reg = StmtRegistry::new();
        let e = reg
            .register("broken", "DROP TABLE orders", &db)
            .unwrap_err();
        assert!(matches!(e, RegistryError::Parse { .. }));
        let e = reg
            .register("unbound", "SELECT X FROM missing WHERE X=?", &db)
            .unwrap_err();
        assert!(matches!(e, RegistryError::Bind { .. }));
    }
}
