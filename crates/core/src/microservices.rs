//! The manufacturing and inventory microservices (paper Fig. 2).
//!
//! The paper's SaaS application has three microservices — sales,
//! inventory, manufacturing — of which the paper evaluates sales and lists
//! the other two as future work. This module implements them as an
//! *extension* exactly the way the paper says extensions should work: new
//! tables in the shared schema, new named statements in the registry
//! (`stmt_db.toml` style), and transactions composed from those statements
//! — no driver changes.
//!
//! Inventory service: `PRODUCT`, `STOCKITEM` — check availability, restock,
//! reserve stock for an order.
//! Manufacturing service: `WORKORDER` — open a work order when stock runs
//! low, complete it (which restocks).

use cb_engine::sql::{execute, ExecError, StmtId, StmtRegistry};
use cb_engine::{ColumnDef, DataType, Database, ExecCtx, Row, Schema, Value};
use cb_sim::DetRng;
use cb_store::TableId;

/// Table ids of the extension services.
#[derive(Clone, Copy, Debug)]
pub struct ExtensionTables {
    /// PRODUCT (inventory).
    pub product: TableId,
    /// STOCKITEM (inventory).
    pub stockitem: TableId,
    /// WORKORDER (manufacturing).
    pub workorder: TableId,
}

/// Handles to the six `EXT_STMT_TOML` statements, resolved by
/// [`install`] so a transaction indexes the registry instead of looking
/// names up.
#[derive(Clone, Copy, Debug)]
pub struct ExtensionStmts {
    /// `SELECT … FROM stockitem`.
    pub inv_check_stock: StmtId,
    /// `UPDATE stockitem SET S_RESERVED = …`.
    pub inv_reserve: StmtId,
    /// `UPDATE stockitem SET S_QTY = …`.
    pub inv_restock: StmtId,
    /// `SELECT … FROM product`.
    pub inv_product: StmtId,
    /// `INSERT INTO workorder`.
    pub mfg_open_workorder: StmtId,
    /// `UPDATE workorder SET W_STATUS = 'DONE'`.
    pub mfg_complete: StmtId,
}

/// What [`install`] added to a database and its registry.
#[derive(Clone, Copy, Debug)]
pub struct Extension {
    /// The three new tables.
    pub tables: ExtensionTables,
    /// The six new statements.
    pub stmts: ExtensionStmts,
}

/// PRODUCT schema: P_ID, P_NAME, P_PRICE.
pub(crate) fn product_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("P_ID", DataType::Int),
        ColumnDef::new("P_NAME", DataType::Text),
        ColumnDef::new("P_PRICE", DataType::Int),
    ])
}

/// STOCKITEM schema: S_P_ID (key = product id), S_QTY, S_RESERVED,
/// S_UPDATEDDATE.
pub(crate) fn stockitem_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("S_P_ID", DataType::Int),
        ColumnDef::new("S_QTY", DataType::Int),
        ColumnDef::new("S_RESERVED", DataType::Int),
        ColumnDef::new("S_UPDATEDDATE", DataType::Timestamp),
    ])
}

/// WORKORDER schema: W_ID, W_P_ID, W_QTY, W_STATUS, W_CREATED.
pub(crate) fn workorder_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("W_ID", DataType::Int),
        ColumnDef::new("W_P_ID", DataType::Int),
        ColumnDef::new("W_QTY", DataType::Int),
        ColumnDef::new("W_STATUS", DataType::Text),
        ColumnDef::new("W_CREATED", DataType::Timestamp),
    ])
}

/// The extension's statement registry document.
pub(crate) const EXT_STMT_TOML: &str = r#"
# Inventory + manufacturing extension statements
[statements]
inv_check_stock = "SELECT S_P_ID, S_QTY, S_RESERVED FROM stockitem WHERE S_P_ID = ?"
inv_reserve = "UPDATE stockitem SET S_RESERVED = S_RESERVED + ?, S_UPDATEDDATE = ? WHERE S_P_ID = ?"
inv_restock = "UPDATE stockitem SET S_QTY = S_QTY + ?, S_UPDATEDDATE = ? WHERE S_P_ID = ?"
inv_product = "SELECT P_ID, P_NAME, P_PRICE FROM product WHERE P_ID = ?"
mfg_open_workorder = "INSERT INTO workorder VALUES (DEFAULT, ?, ?, 'OPEN', ?)"
mfg_complete = "UPDATE workorder SET W_STATUS = 'DONE' WHERE W_ID = ?"
"#;

/// Create the extension tables and register their statements.
pub fn install(db: &mut Database, registry: &mut StmtRegistry) -> Extension {
    let tables = ExtensionTables {
        product: db.create_table("product", product_schema()),
        stockitem: db.create_table("stockitem", stockitem_schema()),
        workorder: db.create_table("workorder", workorder_schema()),
    };
    registry
        .load(EXT_STMT_TOML, db)
        .expect("extension statements must bind");
    let id = |name: &str| registry.id(name).expect("just loaded");
    let stmts = ExtensionStmts {
        inv_check_stock: id("inv_check_stock"),
        inv_reserve: id("inv_reserve"),
        inv_restock: id("inv_restock"),
        inv_product: id("inv_product"),
        mfg_open_workorder: id("mfg_open_workorder"),
        mfg_complete: id("mfg_complete"),
    };
    Extension { tables, stmts }
}

/// Load `products` products with initial stock.
pub fn load_extension_data(
    db: &mut Database,
    tables: ExtensionTables,
    products: u64,
    rng: &mut DetRng,
) {
    db.load_bulk(
        tables.product,
        (1..=products as i64).map(|p| {
            Row::new(vec![
                Value::Int(p),
                Value::Text(format!("Product#{p:06}")),
                Value::Int(rng.range_inclusive(100, 100_000)),
            ])
        }),
    );
    let rows: Vec<Row> = (1..=products as i64)
        .map(|p| {
            Row::new(vec![
                Value::Int(p),
                Value::Int(rng.range_inclusive(30, 150)),
                Value::Int(0),
                Value::Timestamp(0),
            ])
        })
        .collect();
    db.load_bulk(tables.stockitem, rows);
}

/// The extension's transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtTxn {
    /// Inventory: read product + stock (read-only).
    CheckAvailability,
    /// Inventory: reserve stock for an order (read-write); opens a work
    /// order when free stock drops low — the cross-service flow of Fig 2.
    ReserveStock,
    /// Manufacturing: complete a work order and restock (read-write).
    CompleteWorkOrder,
}

/// Outcome of one extension transaction.
pub struct ExtOutcome {
    /// Statements executed.
    pub statements: u64,
    /// True if a work order was opened as a side effect.
    pub opened_workorder: bool,
}

/// Execute one extension transaction against `db`.
///
/// `product` selects the product; `now_us` stamps updates.
#[allow(clippy::too_many_arguments)]
pub fn run_ext_txn(
    db: &mut Database,
    ctx: &mut ExecCtx<'_>,
    registry: &StmtRegistry,
    ext: &Extension,
    kind: ExtTxn,
    product: i64,
    now_us: i64,
    rng: &mut DetRng,
) -> Result<ExtOutcome, ExecError> {
    let Extension { tables, stmts } = ext;
    let mut txn = db.begin();
    let mut opened = false;
    match kind {
        ExtTxn::CheckAvailability => {
            execute(
                db,
                ctx,
                &mut txn,
                &registry[stmts.inv_product],
                &[Value::Int(product)],
            )?;
            execute(
                db,
                ctx,
                &mut txn,
                &registry[stmts.inv_check_stock],
                &[Value::Int(product)],
            )?;
        }
        ExtTxn::ReserveStock => {
            let out = execute(
                db,
                ctx,
                &mut txn,
                &registry[stmts.inv_check_stock],
                &[Value::Int(product)],
            )?;
            if let Some(row) = out.row {
                let qty = row.int(1);
                let reserved = row.int(2);
                let want = rng.range_inclusive(1, 5);
                execute(
                    db,
                    ctx,
                    &mut txn,
                    &registry[stmts.inv_reserve],
                    &[
                        Value::Int(want),
                        Value::Timestamp(now_us),
                        Value::Int(product),
                    ],
                )?;
                // Cross-service logic: low free stock opens a work order.
                if qty - reserved - want < 20 {
                    execute(
                        db,
                        ctx,
                        &mut txn,
                        &registry[stmts.mfg_open_workorder],
                        &[
                            Value::Int(product),
                            Value::Int(100),
                            Value::Timestamp(now_us),
                        ],
                    )?;
                    opened = true;
                }
            }
        }
        ExtTxn::CompleteWorkOrder => {
            // Pick a recent work order, mark done, restock its product.
            let hwm = db.table(tables.workorder).next_auto_key() - 1;
            if hwm >= 1 {
                let w_id = rng.range_inclusive(1, hwm);
                let mut target: Option<(i64, i64)> = None;
                // Point-read the work order via a scan of exactly one key.
                db.scan_range(ctx, tables.workorder, w_id, w_id, |_, row| {
                    if row.text(3) == "OPEN" {
                        target = Some((row.int(1), row.int(2)));
                    }
                    false
                });
                if let Some((p, qty)) = target {
                    let complete = &registry[stmts.mfg_complete];
                    execute(db, ctx, &mut txn, complete, &[Value::Int(w_id)])?;
                    execute(
                        db,
                        ctx,
                        &mut txn,
                        &registry[stmts.inv_restock],
                        &[Value::Int(qty), Value::Timestamp(now_us), Value::Int(p)],
                    )?;
                }
            }
        }
    }
    let statements = ctx.stats.statements;
    db.commit(ctx, txn);
    Ok(ExtOutcome {
        statements,
        opened_workorder: opened,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_engine::{BufferPool, CostModel};
    use cb_sim::SimTime;
    use cb_sut::SutProfile;

    struct Env {
        db: Database,
        registry: StmtRegistry,
        ext: Extension,
        tables: ExtensionTables,
        pool: BufferPool,
        storage: cb_store::StorageService,
        model: CostModel,
        rng: DetRng,
    }

    fn env() -> Env {
        let mut db = Database::new();
        let mut registry = StmtRegistry::new();
        let ext = install(&mut db, &mut registry);
        let tables = ext.tables;
        let mut rng = DetRng::seeded(5);
        load_extension_data(&mut db, tables, 100, &mut rng);
        Env {
            db,
            registry,
            ext,
            tables,
            pool: BufferPool::new(1024),
            storage: SutProfile::aws_rds().storage_service(),
            model: CostModel::default(),
            rng,
        }
    }

    fn run(env: &mut Env, kind: ExtTxn, product: i64) -> ExtOutcome {
        let mut ctx = ExecCtx::new(
            SimTime::ZERO,
            &mut env.pool,
            None,
            &mut env.storage,
            &env.model,
        );
        run_ext_txn(
            &mut env.db,
            &mut ctx,
            &env.registry,
            &env.ext,
            kind,
            product,
            12345,
            &mut env.rng,
        )
        .expect("extension txn executes")
    }

    #[test]
    fn install_registers_six_statements() {
        let e = env();
        for name in [
            "inv_check_stock",
            "inv_reserve",
            "inv_restock",
            "inv_product",
            "mfg_open_workorder",
            "mfg_complete",
        ] {
            assert!(e.registry.get(name).is_some(), "missing {name}");
        }
        assert_eq!(e.db.table(e.tables.product).rows(), 100);
        assert_eq!(e.db.table(e.tables.stockitem).rows(), 100);
    }

    #[test]
    fn check_availability_reads_two_tables() {
        let mut e = env();
        let out = run(&mut e, ExtTxn::CheckAvailability, 7);
        assert_eq!(out.statements, 2);
        assert!(!out.opened_workorder);
    }

    #[test]
    fn reservations_accumulate_and_trigger_workorders() {
        let mut e = env();
        let mut opened = 0;
        for _ in 0..500 {
            let p = e.rng.range_inclusive(1, 20);
            if run(&mut e, ExtTxn::ReserveStock, p).opened_workorder {
                opened += 1;
            }
        }
        assert!(opened > 0, "draining stock must open work orders");
        assert!(e.db.table(e.tables.workorder).rows() >= opened);
        // Reserved counters actually moved.
        let dump = e.db.dump_table(e.tables.stockitem);
        let total_reserved: i64 = dump.iter().map(|r| r.values[2].expect_int()).sum();
        assert!(total_reserved > 500, "reserved {total_reserved}");
    }

    #[test]
    fn completing_workorders_restocks() {
        let mut e = env();
        // Drain one product to force work orders.
        for _ in 0..60 {
            run(&mut e, ExtTxn::ReserveStock, 1);
        }
        let before: i64 =
            e.db.dump_table(e.tables.stockitem)
                .iter()
                .map(|r| r.values[1].expect_int())
                .sum();
        let mut done = 0;
        for _ in 0..50 {
            run(&mut e, ExtTxn::CompleteWorkOrder, 1);
            done += 1;
        }
        assert!(done > 0);
        let after: i64 =
            e.db.dump_table(e.tables.stockitem)
                .iter()
                .map(|r| r.values[1].expect_int())
                .sum();
        assert!(after > before, "restock raised stock: {before} -> {after}");
        // Completed orders flipped to DONE.
        let orders = e.db.dump_table(e.tables.workorder);
        assert!(orders.iter().any(|r| r.values[3].expect_text() == "DONE"));
    }

    #[test]
    fn order_detail_runs_through_the_index() {
        use cb_engine::sql::execute;
        let mut db = Database::new();
        let tables = crate::schema::create_tables(&mut db);
        crate::schema::load_dataset(
            &mut db,
            tables,
            crate::schema::DatasetShape::new(1, 3000),
            11,
        );
        let mut registry = StmtRegistry::new();
        registry.load(crate::schema::STMT_DB_TOML, &db).unwrap();
        // T5 cannot bind before the index exists.
        assert!(registry
            .register(
                "premature",
                "SELECT OL_ID FROM orderline WHERE OL_O_ID = ?",
                &db
            )
            .is_err());
        // A new access path on an existing table: an Order Detail query
        // (all orderlines of an order) over an `OL_O_ID` secondary index.
        let orderline = db.table_id("orderline").unwrap();
        db.create_index(orderline, "OL_O_ID");
        registry
            .load(
                r#"t5_order_detail = "SELECT OL_ID, OL_PRODUCT, OL_QTY, OL_AMOUNT FROM orderline WHERE OL_O_ID = ?""#,
                &db,
            )
            .expect("T5 binds once the index exists");
        let stmt = registry.get("t5_order_detail").expect("registered");
        let mut pool = cb_engine::BufferPool::new(1024);
        let mut storage = cb_sut::SutProfile::aws_rds().storage_service();
        let model = cb_engine::CostModel::default();
        let mut ctx = ExecCtx::new(cb_sim::SimTime::ZERO, &mut pool, None, &mut storage, &model);
        let mut txn = db.begin();
        let found = execute(&mut db, &mut ctx, &mut txn, stmt, &[Value::Int(5)])
            .unwrap()
            .affected;
        db.commit(&mut ctx, txn);
        assert!(found > 0, "order 5 has orderlines");
        // Every returned orderline belongs to... the projection dropped
        // OL_O_ID, so verify via a direct index lookup instead.
        let mut ctx = ExecCtx::new(cb_sim::SimTime::ZERO, &mut pool, None, &mut storage, &model);
        let rows = db.index_lookup(&mut ctx, orderline, 1, 5);
        assert_eq!(rows.len() as u64, found);
        assert!(rows.iter().all(|r| r.values[1].expect_int() == 5));
    }

    #[test]
    fn extension_coexists_with_sales_schema() {
        let mut db = Database::new();
        let sales = crate::schema::create_tables(&mut db);
        let mut registry = StmtRegistry::new();
        registry.load(crate::schema::STMT_DB_TOML, &db).unwrap();
        let ext = install(&mut db, &mut registry);
        // All nine tables visible, twelve statements registered.
        assert_eq!(db.tables().len(), 6);
        assert_eq!(registry.len(), 12);
        assert_ne!(sales.orders, ext.tables.product);
    }
}
