//! Binder and executor: from parsed AST to engine operations.

use std::fmt;

use cb_store::TableId;

use crate::db::{Database, EngineError, TxnHandle};
use crate::exec::ExecCtx;
use crate::value::{DataType, RowRef, Schema, Value, ValueRef};

use super::parser::{Assign, Ast, Expr};

/// A bind-time failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BindError {
    /// Table does not exist.
    UnknownTable(String),
    /// Column does not exist in the table.
    UnknownColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// The WHERE column is not the primary key — the only point predicate
    /// the engine can serve.
    NotPrimaryKey(String),
    /// INSERT value count does not match the schema.
    Arity {
        /// Schema columns.
        expected: usize,
        /// Provided values.
        found: usize,
    },
    /// `DEFAULT` used anywhere but the key position of an INSERT.
    MisplacedDefault,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::UnknownTable(t) => write!(f, "unknown table {t}"),
            BindError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column} in table {table}")
            }
            BindError::NotPrimaryKey(c) => {
                write!(f, "WHERE column {c} is not the primary key")
            }
            BindError::Arity { expected, found } => {
                write!(
                    f,
                    "INSERT has {found} values but the table has {expected} columns"
                )
            }
            BindError::MisplacedDefault => {
                write!(f, "DEFAULT is only allowed in the key position of INSERT")
            }
        }
    }
}

impl std::error::Error for BindError {}

/// A bound scalar expression (columns resolved to indices).
#[derive(Clone, Debug, PartialEq)]
pub enum BoundExpr {
    /// Positional parameter.
    Param(usize),
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// Column of the current row.
    Col(usize),
    /// Addition.
    Add(Box<BoundExpr>, Box<BoundExpr>),
}

/// A statement bound against a catalog, ready to execute repeatedly.
#[derive(Clone, Debug, PartialEq)]
pub enum BoundStmt {
    /// INSERT.
    Insert {
        /// Target table.
        table: TableId,
        /// True if the key column is `DEFAULT` (auto-assigned).
        auto_key: bool,
        /// Expressions for all non-auto columns, schema-ordered. When
        /// `auto_key`, this excludes the key column.
        values: Vec<BoundExpr>,
    },
    /// Point SELECT on the primary key.
    Select {
        /// Target table.
        table: TableId,
        /// Projected column indices (`None` = all).
        columns: Option<Vec<usize>>,
        /// Key expression.
        key: BoundExpr,
    },
    /// Point UPDATE on the primary key.
    Update {
        /// Target table.
        table: TableId,
        /// `(column index, column type, value expression)` assignments.
        sets: Vec<(usize, DataType, BoundExpr)>,
        /// Key expression.
        key: BoundExpr,
    },
    /// Point DELETE on the primary key.
    Delete {
        /// Target table.
        table: TableId,
        /// Key expression.
        key: BoundExpr,
    },
}

fn bind_expr(
    expr: &Expr,
    db: &Database,
    table: TableId,
    table_name: &str,
) -> Result<BoundExpr, BindError> {
    match expr {
        Expr::Param(n) => Ok(BoundExpr::Param(*n)),
        Expr::Int(v) => Ok(BoundExpr::Int(*v)),
        Expr::Str(s) => Ok(BoundExpr::Str(s.clone())),
        Expr::Default => Err(BindError::MisplacedDefault),
        Expr::Column(name) => {
            let idx = db.table(table).schema().column_index(name).ok_or_else(|| {
                BindError::UnknownColumn {
                    table: table_name.to_string(),
                    column: name.clone(),
                }
            })?;
            Ok(BoundExpr::Col(idx))
        }
        Expr::Add(a, b) => Ok(BoundExpr::Add(
            Box::new(bind_expr(a, db, table, table_name)?),
            Box::new(bind_expr(b, db, table, table_name)?),
        )),
    }
}

fn resolve_table(db: &Database, name: &str) -> Result<TableId, BindError> {
    db.table_id(name)
        .ok_or_else(|| BindError::UnknownTable(name.to_string()))
}

/// Bind a point predicate: `key_column` must be the table's primary key.
fn bind_key(
    db: &Database,
    table: TableId,
    table_name: &str,
    key_column: &str,
    key: &Expr,
) -> Result<BoundExpr, BindError> {
    let idx = db
        .table(table)
        .schema()
        .column_index(key_column)
        .ok_or_else(|| BindError::UnknownColumn {
            table: table_name.to_string(),
            column: key_column.to_string(),
        })?;
    if idx != 0 {
        return Err(BindError::NotPrimaryKey(key_column.to_string()));
    }
    bind_expr(key, db, table, table_name)
}

/// Bind a parsed statement against the catalog.
pub fn bind(ast: &Ast, db: &Database) -> Result<BoundStmt, BindError> {
    match ast {
        Ast::Insert { table, values } => {
            let tid = resolve_table(db, table)?;
            let arity = db.table(tid).schema().len();
            if values.len() != arity {
                return Err(BindError::Arity {
                    expected: arity,
                    found: values.len(),
                });
            }
            let auto_key = matches!(values[0], Expr::Default);
            let start = usize::from(auto_key);
            let bound: Result<Vec<_>, _> = values[start..]
                .iter()
                .map(|e| bind_expr(e, db, tid, table))
                .collect();
            Ok(BoundStmt::Insert {
                table: tid,
                auto_key,
                values: bound?,
            })
        }
        Ast::Select {
            table,
            columns,
            key_column,
            key,
        } => {
            let tid = resolve_table(db, table)?;
            let key = bind_key(db, tid, table, key_column, key)?;
            let columns = match columns {
                None => None,
                Some(names) => {
                    let schema = db.table(tid).schema();
                    let mut idxs = Vec::with_capacity(names.len());
                    for n in names {
                        idxs.push(schema.column_index(n).ok_or_else(|| {
                            BindError::UnknownColumn {
                                table: table.clone(),
                                column: n.clone(),
                            }
                        })?);
                    }
                    Some(idxs)
                }
            };
            Ok(BoundStmt::Select {
                table: tid,
                columns,
                key,
            })
        }
        Ast::Update {
            table,
            sets,
            key_column,
            key,
        } => {
            let tid = resolve_table(db, table)?;
            let key = bind_key(db, tid, table, key_column, key)?;
            let schema = db.table(tid).schema();
            let mut bound_sets = Vec::with_capacity(sets.len());
            for Assign { column, value } in sets {
                let idx = schema
                    .column_index(column)
                    .ok_or_else(|| BindError::UnknownColumn {
                        table: table.clone(),
                        column: column.clone(),
                    })?;
                let ty = schema.columns()[idx].ty;
                bound_sets.push((idx, ty, bind_expr(value, db, tid, table)?));
            }
            Ok(BoundStmt::Update {
                table: tid,
                sets: bound_sets,
                key,
            })
        }
        Ast::Delete {
            table,
            key_column,
            key,
        } => {
            let tid = resolve_table(db, table)?;
            let key = bind_key(db, tid, table, key_column, key)?;
            Ok(BoundStmt::Delete { table: tid, key })
        }
    }
}

/// An execution-time failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// Engine rejected the operation.
    Engine(EngineError),
    /// Parameter index beyond the supplied parameters.
    MissingParam(usize),
    /// Type error during expression evaluation.
    Type(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Engine(e) => write!(f, "{e}"),
            ExecError::MissingParam(n) => write!(f, "statement needs parameter ${n}"),
            ExecError::Type(m) => write!(f, "type error: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EngineError> for ExecError {
    fn from(e: EngineError) -> Self {
        ExecError::Engine(e)
    }
}

/// Evaluate to a value borrowed from where it lives — a parameter, a
/// literal of the statement, a column of `row` — so nothing is cloned.
fn eval<'a>(
    expr: &'a BoundExpr,
    params: &'a [Value],
    row: Option<RowRef<'a>>,
) -> Result<ValueRef<'a>, ExecError> {
    match expr {
        BoundExpr::Param(n) => params
            .get(*n)
            .map(Value::as_ref)
            .ok_or(ExecError::MissingParam(*n)),
        BoundExpr::Int(v) => Ok(ValueRef::Int(*v)),
        BoundExpr::Str(s) => Ok(ValueRef::Text(s)),
        BoundExpr::Col(i) => {
            let row =
                row.ok_or_else(|| ExecError::Type("column reference outside row context".into()))?;
            Ok(row.get(*i))
        }
        BoundExpr::Add(a, b) => {
            let (a, b) = (eval(a, params, row)?, eval(b, params, row)?);
            match (a, b) {
                (ValueRef::Int(x), ValueRef::Int(y)) => Ok(ValueRef::Int(x + y)),
                (ValueRef::Timestamp(x), ValueRef::Int(y)) => Ok(ValueRef::Timestamp(x + y)),
                (a, b) => Err(ExecError::Type(format!(
                    "cannot add {} and {}",
                    a.to_value(),
                    b.to_value()
                ))),
            }
        }
    }
}

fn eval_key(expr: &BoundExpr, params: &[Value]) -> Result<i64, ExecError> {
    match eval(expr, params, None)? {
        ValueRef::Int(k) => Ok(k),
        other => Err(ExecError::Type(format!(
            "key must be an integer, got {}",
            other.to_value()
        ))),
    }
}

/// The row a primary-key SELECT found, seen through the statement's
/// projection: column `i` here is the `i`-th selected column. It is a view
/// of the page (or version-chain) image the engine holds; a field is
/// decoded when an accessor asks for it and a text field is borrowed, so
/// reading a result allocates nothing.
#[derive(Clone, Copy)]
pub struct ProjectedRow<'a> {
    row: RowRef<'a>,
    /// Selected column indices (`None` = all, in schema order).
    columns: Option<&'a [usize]>,
}

impl<'a> ProjectedRow<'a> {
    fn column(self, i: usize) -> usize {
        self.columns.map_or(i, |c| c[i])
    }

    /// Number of selected columns.
    pub(crate) fn len(self) -> usize {
        self.columns.map_or(self.row.len(), <[usize]>::len)
    }

    /// The integer in selected column `i`; panics on any other type.
    pub fn int(self, i: usize) -> i64 {
        self.row.int(self.column(i))
    }

    /// The timestamp in selected column `i`; panics on any other type.
    pub fn timestamp(self, i: usize) -> i64 {
        self.row.timestamp(self.column(i))
    }

    /// The string in selected column `i`, borrowed from the image.
    pub fn text(self, i: usize) -> &'a str {
        self.row.text(self.column(i))
    }

    /// Selected column `i`, borrowed.
    pub(crate) fn get(self, i: usize) -> ValueRef<'a> {
        self.row.get(self.column(i))
    }
}

impl fmt::Debug for ProjectedRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.get(i)))
            .finish()
    }
}

/// Result of executing a statement. It borrows the database for as long as
/// a selected row is looked at; copy out what must outlive the next
/// statement.
#[derive(Debug)]
pub struct StmtOutput<'a> {
    /// The row a SELECT found.
    pub row: Option<ProjectedRow<'a>>,
    /// Rows affected (writes), or matched (reads).
    pub affected: u64,
}

impl StmtOutput<'_> {
    fn affected(n: u64) -> Self {
        StmtOutput {
            row: None,
            affected: n,
        }
    }
}

/// Coerce an evaluated value to the type of column `column` where
/// unambiguous (Int params feeding Timestamp columns are the common case in
/// the workload) and hold it to the schema.
fn typed<'v>(schema: &Schema, column: usize, v: ValueRef<'v>) -> Result<ValueRef<'v>, ExecError> {
    let v = match (v, schema.columns()[column].ty) {
        (ValueRef::Int(x), DataType::Timestamp) => ValueRef::Timestamp(x),
        (ValueRef::Timestamp(x), DataType::Int) => ValueRef::Int(x),
        (v, _) => v,
    };
    schema
        .check_column(column, v.data_type())
        .map_err(EngineError::Schema)?;
    Ok(v)
}

/// Execute a bound statement with `params`.
pub fn execute<'a>(
    db: &'a mut Database,
    ctx: &mut ExecCtx<'_>,
    txn: &mut TxnHandle,
    stmt: &'a BoundStmt,
    params: &[Value],
) -> Result<StmtOutput<'a>, ExecError> {
    match stmt {
        BoundStmt::Insert {
            table,
            auto_key,
            values,
        } => {
            // Parameters are encoded straight into the image the WAL record
            // will own; no `Value`, `Row` or second copy in between.
            let t = db.table(*table);
            let schema = t.schema();
            let mut image = Vec::with_capacity(8 + schema.len() * 9);
            image.push(schema.len() as u8);
            if *auto_key {
                ValueRef::Int(t.next_auto_key()).encode_into(&mut image);
            }
            for (column, e) in (usize::from(*auto_key)..).zip(values) {
                typed(schema, column, eval(e, params, None)?)?.encode_into(&mut image);
            }
            let key = RowRef::new(&image).int(0);
            db.insert_image(ctx, txn, *table, key, image)?;
            Ok(StmtOutput::affected(1))
        }
        BoundStmt::Select {
            table,
            columns,
            key,
        } => {
            let k = eval_key(key, params)?;
            let db: &'a Database = db;
            let row = db.get(ctx, *table, k).map(|row| ProjectedRow {
                row,
                columns: columns.as_deref(),
            });
            Ok(StmtOutput {
                row,
                affected: u64::from(row.is_some()),
            })
        }
        BoundStmt::Update { table, sets, key } => {
            let k = eval_key(key, params)?;
            // The after-image is the before-image with the assigned columns
            // re-encoded in place; every expression sees the row as it was.
            let hit =
                db.update_image::<ExecError>(ctx, txn, *table, k, |schema, before, after| {
                    before.rewrite(after, |col| {
                        let Some((.., e)) = sets.iter().rfind(|(i, ..)| *i == col) else {
                            return Ok(None);
                        };
                        let v = typed(schema, col, eval(e, params, Some(before))?)?;
                        assert!(
                            col != 0 || v == ValueRef::Int(k),
                            "updates must not change the primary key"
                        );
                        Ok(Some(v))
                    })
                })?;
            Ok(StmtOutput::affected(u64::from(hit)))
        }
        BoundStmt::Delete { table, key } => {
            let k = eval_key(key, params)?;
            let hit = db.delete(ctx, txn, *table, k);
            Ok(StmtOutput::affected(u64::from(hit)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::BufferPool;
    use crate::exec::CostModel;
    use crate::sql::parser::parse;
    use crate::value::{ColumnDef, Row, Schema};
    use cb_sim::{Device, SimDuration, SimTime};
    use cb_store::{StorageArch, StorageService};

    fn storage() -> StorageService {
        StorageService::new(
            StorageArch::Coupled,
            Device::new(SimDuration::from_micros(90), None),
            Device::new(SimDuration::from_micros(90), None),
            None,
            1,
            SimDuration::ZERO,
        )
    }

    fn test_db() -> Database {
        let mut db = Database::new();
        let orders = db.create_table(
            "orders",
            Schema::new(vec![
                ColumnDef::new("O_ID", DataType::Int),
                ColumnDef::new("O_C_ID", DataType::Int),
                ColumnDef::new("O_STATUS", DataType::Text),
                ColumnDef::new("O_TOTALAMOUNT", DataType::Int),
                ColumnDef::new("O_UPDATEDDATE", DataType::Timestamp),
            ]),
        );
        let customer = db.create_table(
            "customer",
            Schema::new(vec![
                ColumnDef::new("C_ID", DataType::Int),
                ColumnDef::new("C_CREDIT", DataType::Int),
                ColumnDef::new("C_UPDATEDDATE", DataType::Timestamp),
            ]),
        );
        db.load_bulk(
            orders,
            (1..=10).map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(i),
                    Value::Text("NEW".into()),
                    Value::Int(i * 100),
                    Value::Timestamp(0),
                ])
            }),
        );
        db.load_bulk(
            customer,
            (1..=10).map(|i| Row::new(vec![Value::Int(i), Value::Int(1000), Value::Timestamp(0)])),
        );
        db
    }

    struct Env {
        pool: BufferPool,
        storage: StorageService,
        model: CostModel,
    }

    impl Env {
        fn new() -> Self {
            Env {
                pool: BufferPool::new(1024),
                storage: storage(),
                model: CostModel::default(),
            }
        }
        fn ctx(&mut self) -> ExecCtx<'_> {
            ExecCtx::new(
                SimTime::ZERO,
                &mut self.pool,
                None,
                &mut self.storage,
                &self.model,
            )
        }
    }

    fn prep(db: &Database, sql: &str) -> BoundStmt {
        bind(&parse(sql).unwrap(), db).unwrap()
    }

    #[test]
    fn select_projects_columns() {
        let mut db = test_db();
        let stmt = prep(&db, "SELECT O_ID, O_STATUS FROM orders WHERE O_ID = ?");
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        let out = execute(&mut db, &mut ctx, &mut txn, &stmt, &[Value::Int(3)]).unwrap();
        assert_eq!(out.affected, 1);
        let row = out.row.expect("order 3 exists");
        assert_eq!((row.len(), row.int(0), row.text(1)), (2, 3, "NEW"));
        // Missing key: zero rows.
        let out = execute(&mut db, &mut ctx, &mut txn, &stmt, &[Value::Int(99)]).unwrap();
        assert_eq!(out.affected, 0);
        assert!(out.row.is_none());
        db.commit(&mut ctx, txn);
    }

    #[test]
    fn update_with_arithmetic_and_literal() {
        let mut db = test_db();
        let pay = prep(
            &db,
            "UPDATE orders SET O_UPDATEDDATE=?, O_STATUS='PAID' WHERE O_ID=?",
        );
        let credit = prep(
            &db,
            "UPDATE customer SET C_CREDIT=C_CREDIT+?, C_UPDATEDDATE=? WHERE C_ID=?",
        );
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        execute(
            &mut db,
            &mut ctx,
            &mut txn,
            &pay,
            &[Value::Timestamp(777), Value::Int(2)],
        )
        .unwrap();
        execute(
            &mut db,
            &mut ctx,
            &mut txn,
            &credit,
            &[Value::Int(50), Value::Timestamp(778), Value::Int(2)],
        )
        .unwrap();
        db.commit(&mut ctx, txn);
        let orders = db.table_id("orders").unwrap();
        let customer = db.table_id("customer").unwrap();
        let o = db.get(&mut ctx, orders, 2).unwrap();
        assert_eq!(o.text(2), "PAID");
        assert_eq!(o.timestamp(4), 777);
        let c = db.get(&mut ctx, customer, 2).unwrap();
        assert_eq!(c.int(1), 1050);
    }

    #[test]
    fn insert_default_auto_assigns_key() {
        let mut db = test_db();
        let orders = db.table_id("orders").unwrap();
        let stmt = prep(&db, "INSERT INTO orders VALUES (DEFAULT, ?, 'NEW', ?, ?)");
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        let out = execute(
            &mut db,
            &mut ctx,
            &mut txn,
            &stmt,
            &[Value::Int(7), Value::Int(500), Value::Int(123)],
        )
        .unwrap();
        assert_eq!(out.affected, 1);
        db.commit(&mut ctx, txn);
        let row = db.get(&mut ctx, orders, 11).expect("auto key = 11");
        assert_eq!(row.value(3), Value::Int(500));
        assert_eq!(
            row.value(4),
            Value::Timestamp(123),
            "Int coerced to Timestamp column"
        );
    }

    #[test]
    fn delete_reports_affected() {
        let mut db = test_db();
        let stmt = prep(&db, "DELETE FROM orders WHERE O_ID=?");
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        let out = execute(&mut db, &mut ctx, &mut txn, &stmt, &[Value::Int(5)]).unwrap();
        assert_eq!(out.affected, 1);
        let out = execute(&mut db, &mut ctx, &mut txn, &stmt, &[Value::Int(5)]).unwrap();
        assert_eq!(out.affected, 0);
        db.commit(&mut ctx, txn);
    }

    #[test]
    fn bind_errors() {
        let db = test_db();
        let e = bind(&parse("SELECT X FROM nope WHERE X=?").unwrap(), &db).unwrap_err();
        assert_eq!(e, BindError::UnknownTable("nope".into()));
        let e = bind(&parse("SELECT NOPE FROM orders WHERE O_ID=?").unwrap(), &db).unwrap_err();
        assert!(matches!(e, BindError::UnknownColumn { .. }));
        let e = bind(
            &parse("UPDATE orders SET O_STATUS='X' WHERE O_STATUS='Y'").unwrap(),
            &db,
        )
        .unwrap_err();
        assert_eq!(e, BindError::NotPrimaryKey("O_STATUS".into()));
        let e = bind(&parse("INSERT INTO customer VALUES (1, 2)").unwrap(), &db).unwrap_err();
        assert_eq!(
            e,
            BindError::Arity {
                expected: 3,
                found: 2
            }
        );
        let e = bind(
            &parse("UPDATE customer SET C_CREDIT=DEFAULT WHERE C_ID=?").unwrap(),
            &db,
        )
        .unwrap_err();
        assert_eq!(e, BindError::MisplacedDefault);
    }

    #[test]
    fn exec_errors() {
        let mut db = test_db();
        let stmt = prep(&db, "SELECT O_ID FROM orders WHERE O_ID = ?");
        let mut env = Env::new();
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        let e = execute(&mut db, &mut ctx, &mut txn, &stmt, &[]).unwrap_err();
        assert_eq!(e, ExecError::MissingParam(0));
        let e = execute(
            &mut db,
            &mut ctx,
            &mut txn,
            &stmt,
            &[Value::Text("x".into())],
        )
        .unwrap_err();
        assert!(matches!(e, ExecError::Type(_)));
        db.commit(&mut ctx, txn);
    }
}
