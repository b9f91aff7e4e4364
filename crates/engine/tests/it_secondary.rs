//! Integration: secondary indexes through the full stack — DML maintenance,
//! SQL access path, abort undo, and recovery replay.

use cb_engine::recovery::rebuild;
use cb_engine::sql::{bind, execute, parse, Access, BoundStmt};
use cb_engine::{
    BufferPool, ColumnDef, CostModel, DataType, Database, ExecCtx, Row, Schema, Value,
};
use cb_sim::SimTime;
use cb_store::StorageService;

fn orderline_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("OL_ID", DataType::Int),
        ColumnDef::new("OL_O_ID", DataType::Int),
        ColumnDef::new("OL_AMOUNT", DataType::Int),
    ])
}

fn unindexed_db() -> Database {
    let mut db = Database::new();
    let t = db.create_table("orderline", orderline_schema());
    db.load_bulk(
        t,
        (1..=100).map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(1 + (i - 1) / 10), // 10 orderlines per order
                Value::Int(i * 100),
            ])
        }),
    );
    db
}

fn base_db() -> Database {
    let mut db = unindexed_db();
    let t = db.table_id("orderline").unwrap();
    db.create_index(t, "OL_O_ID");
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
            storage: cb_sut::SutProfile::aws_rds().storage_service(),
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

#[test]
fn sql_select_uses_the_index() {
    let mut db = base_db();
    let stmt = bind(
        &parse("SELECT OL_ID, OL_AMOUNT FROM orderline WHERE OL_O_ID = ?").unwrap(),
        &db,
    )
    .unwrap();
    assert!(matches!(
        stmt,
        BoundStmt::Select {
            via: Access::SecondaryIndex(1),
            ..
        }
    ));
    let mut env = Env::new();
    let mut ctx = env.ctx();
    let mut txn = db.begin();
    let out = execute(&mut db, &mut ctx, &mut txn, &stmt, &[Value::Int(3)]).unwrap();
    assert_eq!(out.affected, 10, "order 3 has orderlines 21..=30");
    assert!(out.row.is_none(), "index rows come back owned");
    let ids: Vec<i64> = out.index_rows.iter().map(|r| r[0].expect_int()).collect();
    assert_eq!(ids, (21..=30).collect::<Vec<_>>());
    db.commit(&mut ctx, txn);
}

#[test]
fn unindexed_column_still_rejected() {
    let db = base_db();
    let err = bind(
        &parse("SELECT OL_ID FROM orderline WHERE OL_AMOUNT = ?").unwrap(),
        &db,
    )
    .unwrap_err();
    assert!(err.to_string().contains("OL_AMOUNT"));
}

#[test]
fn dml_maintains_the_index() {
    let mut db = base_db();
    let t = db.table_id("orderline").unwrap();
    let mut env = Env::new();
    let mut ctx = env.ctx();
    let mut txn = db.begin();
    // Insert into order 3, delete one of its lines, move one line to order 4.
    db.insert(
        &mut ctx,
        &mut txn,
        t,
        Row::new(vec![Value::Int(500), Value::Int(3), Value::Int(1)]),
    )
    .unwrap();
    db.delete(&mut ctx, &mut txn, t, 21);
    db.update(&mut ctx, &mut txn, t, 22, |row| {
        row.values[1] = Value::Int(4);
    })
    .unwrap();
    db.commit(&mut ctx, txn);
    let order3: Vec<i64> = db
        .index_lookup(&mut ctx, t, 1, 3)
        .iter()
        .map(Row::key)
        .collect();
    assert_eq!(order3, vec![23, 24, 25, 26, 27, 28, 29, 30, 500]);
    let order4: Vec<i64> = db
        .index_lookup(&mut ctx, t, 1, 4)
        .iter()
        .map(Row::key)
        .collect();
    assert_eq!(order4[0], 22, "moved row appears under its new order");
    assert_eq!(order4.len(), 11);
}

/// Page touches charged for inserting orderline 500 into order 3 and for
/// deleting it again, each statement on a fresh context.
fn insert_then_delete_touches(mut db: Database) -> (u64, u64) {
    let t = db.table_id("orderline").unwrap();
    let mut env = Env::new();
    let mut txn = db.begin();
    let touches =
        |ctx: &ExecCtx<'_>| ctx.stats.local_hits + ctx.stats.remote_hits + ctx.stats.storage_reads;
    let mut ctx = env.ctx();
    let row = Row::new(vec![Value::Int(500), Value::Int(3), Value::Int(1)]);
    db.insert(&mut ctx, &mut txn, t, row).unwrap();
    let inserted = touches(&ctx);
    let mut ctx = env.ctx();
    assert!(db.delete(&mut ctx, &mut txn, t, 500));
    let deleted = touches(&ctx);
    db.commit(&mut ctx, txn);
    (inserted, deleted)
}

#[test]
fn delete_charges_the_index_pages_it_touches() {
    // Regression: `delete` used to charge its access log before the index
    // maintenance ran, so the index pages a delete reads and rewrites were
    // free while insert and update paid for theirs.
    let (plain_insert, plain_delete) = insert_then_delete_touches(unindexed_db());
    let (indexed_insert, indexed_delete) = insert_then_delete_touches(base_db());
    assert!(
        indexed_delete > plain_delete,
        "the index costs a delete something: {indexed_delete} vs {plain_delete} touches"
    );
    // Taking a key off a posting list touches what putting it there did:
    // read the list, find its leaf again, rewrite it.
    assert_eq!(
        indexed_delete - plain_delete,
        indexed_insert - plain_insert,
        "delete and insert pay the same for the index"
    );
}

#[test]
fn abort_restores_the_index() {
    let mut db = base_db();
    let t = db.table_id("orderline").unwrap();
    let mut env = Env::new();
    let mut ctx = env.ctx();
    let before: Vec<i64> = db
        .index_lookup(&mut ctx, t, 1, 5)
        .iter()
        .map(Row::key)
        .collect();
    let mut txn = db.begin();
    db.insert(
        &mut ctx,
        &mut txn,
        t,
        Row::new(vec![Value::Int(777), Value::Int(5), Value::Int(9)]),
    )
    .unwrap();
    db.delete(&mut ctx, &mut txn, t, 41);
    db.update(&mut ctx, &mut txn, t, 42, |row| {
        row.values[1] = Value::Int(999)
    })
    .unwrap();
    db.abort(&mut ctx, txn);
    let after: Vec<i64> = db
        .index_lookup(&mut ctx, t, 1, 5)
        .iter()
        .map(Row::key)
        .collect();
    assert_eq!(before, after, "abort must fully restore index state");
    assert!(db.index_lookup(&mut ctx, t, 1, 999).is_empty());
}

#[test]
fn recovery_replay_maintains_indexes() {
    let mut db = base_db();
    let t = db.table_id("orderline").unwrap();
    let mut env = Env::new();
    {
        let mut ctx = env.ctx();
        let mut txn = db.begin();
        db.insert(
            &mut ctx,
            &mut txn,
            t,
            Row::new(vec![Value::Int(900), Value::Int(7), Value::Int(5)]),
        )
        .unwrap();
        db.update(&mut ctx, &mut txn, t, 61, |row| {
            row.values[1] = Value::Int(8)
        })
        .unwrap();
        db.delete(&mut ctx, &mut txn, t, 62);
        db.commit(&mut ctx, txn);
    }
    let rebuilt = rebuild(base_db, db.log());
    let rt = rebuilt.table_id("orderline").unwrap();
    let mut env2 = Env::new();
    let mut ctx2 = ExecCtx::new(
        SimTime::ZERO,
        &mut env2.pool,
        None,
        &mut env2.storage,
        &env2.model,
    );
    let mut ctx = env.ctx();
    for order in [6, 7, 8, 9] {
        let live: Vec<i64> = db
            .index_lookup(&mut ctx, t, 1, order)
            .iter()
            .map(Row::key)
            .collect();
        let rec: Vec<i64> = rebuilt
            .index_lookup(&mut ctx2, rt, 1, order)
            .iter()
            .map(Row::key)
            .collect();
        assert_eq!(live, rec, "order {order} index state after replay");
    }
}
