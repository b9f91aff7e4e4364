//! Integration: the three row primitives (`put_row`, `set_row`, `take_row`)
//! through DML, abort, crash undo and both redo paths, pinned byte for byte,
//! and the binder's point-predicate rule.

use std::collections::HashSet;

use cb_engine::recovery::{rebuild, redo_net_effects, undo_losers};
use cb_engine::sql::{bind, parse, BindError};
use cb_engine::{
    BufferPool, ColumnDef, CostModel, DataType, Database, ExecCtx, Row, Schema, Value,
};
use cb_sim::{DetRng, SimDuration, SimTime};
use cb_store::{Lsn, PageId, WalRecord};

fn orderline_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("OL_ID", DataType::Int),
        ColumnDef::new("OL_O_ID", DataType::Int),
        ColumnDef::new("OL_AMOUNT", DataType::Int),
    ])
}

fn base_db() -> Database {
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

#[test]
fn unindexed_column_still_rejected() {
    let db = base_db();
    for column in ["OL_O_ID", "OL_AMOUNT"] {
        let sql = format!("SELECT OL_ID FROM orderline WHERE {column} = ?");
        let err = bind(&parse(&sql).unwrap(), &db).unwrap_err();
        assert_eq!(err, BindError::NotPrimaryKey(column.to_string()));
        assert!(err.to_string().contains(column), "{err}");
    }
}

/// FNV-1a-64 over every page, in 8-byte little-endian words, with the page
/// count: the digest `schema::tests::page_digest` pins the loader with.
fn page_digest(db: &Database) -> (usize, u64) {
    let pages = db.pages();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in 0..pages.live_pages() as u64 {
        for word in pages.read(PageId(id)).as_bytes().chunks_exact(8) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (pages.live_pages(), h)
}

/// Page digest, live rows and the next auto key of the orderline table.
fn image(db: &Database) -> ((usize, u64), u64, i64) {
    let t = db.table(db.table_id("orderline").unwrap());
    (page_digest(db), t.rows(), t.next_auto_key())
}

/// Every path that changes a row, pinned byte for byte. A seeded mix of
/// inserts, updates of `OL_O_ID` and deletes runs on a pool far smaller
/// than the table, so the charge depends on the order pages are touched
/// in; about one transaction in eight aborts and the last one is left
/// unfinished by a crash. The live image, the crashed image after in-place
/// undo, sequential redo and net-effect redo from the base each pin their
/// pages, row count and auto key, and the run pins the CPU and I/O it was
/// charged.
#[test]
fn row_paths_on_a_plain_table_are_pinned() {
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

    // The three recovered images hold the same rows.
    for other in [&replayed, &net] {
        assert_eq!(other.dump_table(t), db.dump_table(t));
    }

    assert_eq!((aborted, undone), (196, 4));
    assert_eq!(
        (cpu.as_nanos(), io.as_nanos()),
        (91_115_500, 61_351_632_166)
    );
    assert_eq!(live, ((16, 0x818b_9923_8860_cae7), 1223, 1968));
    assert_eq!(image(&db), ((16, 0xbca0_57b9_3a21_20c2), 1224, 1968));
    assert_eq!(image(&replayed), ((16, 0xde68_4258_2ca5_ff21), 1224, 1967));
    assert_eq!(image(&net), ((12, 0xdc8f_c05d_c5c8_9ba8), 1224, 1967));
}
