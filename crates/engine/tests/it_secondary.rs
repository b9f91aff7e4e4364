//! Integration: secondary indexes through the full stack — DML maintenance,
//! SQL access path, abort undo, and recovery replay.

use std::collections::HashSet;

use cb_engine::recovery::{rebuild, redo_net_effects, undo_losers};
use cb_engine::sql::{bind, execute, parse, Access, BoundStmt};
use cb_engine::{
    BufferPool, ColumnDef, CostModel, DataType, Database, ExecCtx, Row, Schema, Value,
};
use cb_sim::{DetRng, SimDuration, SimTime};
use cb_store::{Lsn, PageId, StorageService, WalRecord};

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

/// FNV-1a-64 over every live page, in 8-byte little-endian words, with the
/// live page count: the digest `schema::tests::page_digest` pins the loader
/// with.
fn page_digest(db: &Database) -> (usize, u64) {
    let pages = db.pages();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut seen = 0;
    let mut id = 0u64;
    while seen < pages.live_pages() {
        let page = PageId(id);
        id += 1;
        if !pages.contains(page) {
            continue;
        }
        seen += 1;
        for word in pages.read(page).as_bytes().chunks_exact(8) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (seen, h)
}

/// Page digest, live rows and the next auto key of the orderline table.
fn image(db: &Database) -> ((usize, u64), u64, i64) {
    let t = db.table(db.table_id("orderline").unwrap());
    (page_digest(db), t.rows(), t.next_auto_key())
}

/// Every path that changes a row of an indexed table, pinned byte for byte.
/// A seeded mix of inserts, updates that move `OL_O_ID` and deletes runs on
/// a pool far smaller than the table, so the charge depends on the order
/// pages are touched in; about one transaction in eight aborts and the last
/// one is left unfinished by a crash. The live image, the crashed image
/// after in-place undo, sequential redo and net-effect redo from the base
/// each pin their pages, row count and auto key, and the run pins the CPU
/// and I/O it was charged.
#[test]
fn row_paths_on_an_indexed_table_are_pinned() {
    let mut db = base_db();
    let t = db.table_id("orderline").unwrap();
    let mut rng = DetRng::seeded(2025);
    let mut pool = BufferPool::new(4);
    let mut storage = cb_sut::SutProfile::aws_rds().storage_service();
    let model = CostModel::default();
    let (mut cpu, mut io) = (SimDuration::ZERO, SimDuration::ZERO);
    let (mut aborted, mut next_key) = (0, 101i64);
    const TXNS: usize = 1500;
    for n in 0..TXNS {
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);
        let mut txn = db.begin();
        let crashes = n == TXNS - 1;
        for _ in 0..if crashes { 8 } else { 1 + rng.below(4) } {
            // About ten rows an order, well inside a posting list's bound.
            let order = 1 + rng.below(next_key as u64 / 10) as i64;
            let key = 1 + rng.below(next_key as u64 - 1) as i64;
            match rng.below(4) {
                0 | 1 => {
                    let row = Row::new(vec![
                        Value::Int(next_key),
                        Value::Int(order),
                        Value::Int(next_key * 7),
                    ]);
                    db.insert(&mut ctx, &mut txn, t, row).unwrap();
                    next_key += 1;
                }
                2 => {
                    db.update(&mut ctx, &mut txn, t, key, |row| {
                        row.values[1] = Value::Int(order)
                    })
                    .unwrap();
                }
                _ => {
                    db.delete(&mut ctx, &mut txn, t, key);
                }
            }
        }
        if crashes {
            std::mem::forget(txn); // crash: no commit, no abort
        } else if rng.below(8) == 0 {
            db.abort(&mut ctx, txn);
            aborted += 1;
        } else {
            db.commit(&mut ctx, txn);
        }
        cpu += ctx.cpu;
        io += ctx.io;
    }
    db.simulate_crash();
    let live = image(&db);

    let records: Vec<WalRecord> = db.log().records_after(Lsn::ZERO).cloned().collect();
    let undone = undo_losers(&mut db, &records, records.len(), &HashSet::new());
    let replayed = rebuild(base_db, db.log());
    let mut net = base_db();
    let refs: Vec<&WalRecord> = records.iter().collect();
    redo_net_effects(&mut net, &refs, &HashSet::new());

    // The three recovered images hold the same rows and index entries.
    let mut env = Env::new();
    let mut ctx = env.ctx();
    for other in [&replayed, &net] {
        assert_eq!(other.dump_table(t), db.dump_table(t));
        for order in 1..next_key / 10 {
            let keys = |d: &Database, ctx: &mut ExecCtx<'_>| -> Vec<i64> {
                d.index_lookup(ctx, t, 1, order)
                    .iter()
                    .map(Row::key)
                    .collect()
            };
            assert_eq!(keys(other, &mut ctx), keys(&db, &mut ctx), "order {order}");
        }
    }

    assert_eq!((aborted, undone), (196, 4));
    assert_eq!(
        (cpu.as_nanos(), io.as_nanos()),
        (154_682_000, 131_972_637_046)
    );
    assert_eq!(live, ((19, 0x1d76_e744_cfc1_768e), 1223, 1968));
    assert_eq!(image(&db), ((19, 0x10b6_327b_3031_6947), 1224, 1968));
    assert_eq!(image(&replayed), ((19, 0xed69_0e6b_74d2_d21a), 1224, 1967));
    assert_eq!(image(&net), ((15, 0xed69_4901_a736_5973), 1224, 1967));
}
