//! Restore-and-roll-forward through the engine's net-effect redo.
//!
//! [`cb_engine::recovery::redo_net_effects`] folds the committed log into at
//! most one physical op per row and applies the `(table, key)`-sorted plan
//! through the B-tree's batched-ingest cursor. The plan is a pure function
//! of the log, so every rebuild of the same log is byte-identical; the chaos
//! harness leans on that for its recovery-equivalence oracle.

use std::collections::HashSet;

use cb_engine::db::Database;
use cb_engine::recovery::redo_net_effects;
use cb_store::{LogStore, Lsn, WalRecord};

/// Net-effect equivalent of [`cb_engine::recovery::rebuild`]: restore from a
/// base snapshot and roll the whole log forward.
///
/// `jobs` is ignored: redo once scanned the log on that many threads, which
/// lost to one thread on every measured cell. The parameter survives only
/// because the frozen `benchmark/` calls this with 1 and 2 for its
/// `core.replay.rebuild_j2_speedup` probe; parameter and probe leave
/// together in the next `benchmark`-archetype PR.
pub fn rebuild_parallel(base: impl FnOnce() -> Database, log: &LogStore, jobs: usize) -> Database {
    let _ = jobs;
    let mut db = base();
    let records: Vec<&WalRecord> = log.records_after(Lsn::ZERO).collect();
    redo_net_effects(&mut db, &records, &HashSet::new());
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_engine::bufferpool::BufferPool;
    use cb_engine::exec::{CostModel, ExecCtx};
    use cb_engine::recovery::{rebuild, redo_committed};
    use cb_engine::value::{ColumnDef, DataType, Row, Schema, Value};
    use cb_sim::{Device, DeviceKind, SimDuration, SimTime};
    use cb_store::{StorageArch, StorageService};

    fn storage() -> StorageService {
        StorageService::new(
            StorageArch::Coupled,
            Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
            Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
            None,
            1,
            SimDuration::ZERO,
        )
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("ID", DataType::Int),
            ColumnDef::new("V", DataType::Int),
        ])
    }

    fn row(id: i64, v: i64) -> Row {
        Row::new(vec![Value::Int(id), Value::Int(v)])
    }

    fn base() -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", schema());
        db.load_bulk(t, (1..=50).map(|i| row(i, i * 10)));
        db
    }

    /// A few hundred committed transactions of mixed DML plus losers.
    fn crashed() -> Database {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
        for i in 0..200i64 {
            let mut txn = db.begin();
            let k = 100 + i;
            db.insert(&mut ctx, &mut txn, t, row(k, k)).unwrap();
            db.update(&mut ctx, &mut txn, t, 1 + (i % 50), |r| {
                r.values[1] = Value::Int(i)
            })
            .unwrap();
            if i % 7 == 0 {
                db.delete(&mut ctx, &mut txn, t, k); // net no-op rows
            }
            if i % 11 == 0 {
                db.abort(&mut ctx, txn);
            } else {
                db.commit(&mut ctx, txn);
            }
        }
        let mut loser = db.begin();
        db.insert(&mut ctx, &mut loser, t, row(9_999, 1)).unwrap();
        std::mem::forget(loser);
        db
    }

    #[test]
    fn parallel_redo_matches_sequential_for_every_job_count() {
        let db = crashed();
        let t = db.table_id("t").unwrap();
        let seq = rebuild(base, db.log());
        let seq_applied = {
            let mut fresh = base();
            redo_committed(&mut fresh, db.log().records_after(Lsn::ZERO))
        };
        let records: Vec<&WalRecord> = db.log().records_after(Lsn::ZERO).collect();
        let mut net = base();
        let applied = redo_net_effects(&mut net, &records, &HashSet::new());
        assert_eq!(applied, seq_applied);
        assert_eq!(net.dump_table(t), seq.dump_table(t));
    }

    #[test]
    fn parallel_rebuild_is_jobs_invariant_bytewise() {
        let db = crashed();
        let t = db.table_id("t").unwrap();
        let one = rebuild_parallel(base, db.log(), 1);
        for jobs in [2usize, 4] {
            let n = rebuild_parallel(base, db.log(), jobs);
            assert_eq!(n.dump_table(t), one.dump_table(t));
            // `jobs` is ignored: same plan, same construction order, same
            // page image.
            assert_eq!(
                format!("{:?}", n.dump_table(t)),
                format!("{:?}", one.dump_table(t))
            );
        }
    }
}
