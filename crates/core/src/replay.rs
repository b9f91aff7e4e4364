//! Checkpoint-partitioned parallel ARIES redo.
//!
//! Sequential redo ([`cb_engine::recovery::redo_committed`]) walks the
//! post-checkpoint log once and applies every committed DML record in LSN
//! order. For large tails that scan dominates recovery time, so this module
//! splits it across worker threads the same way the rest of the testbed
//! parallelizes experiment cells — [`crate::parallel::par_map`] over row
//! partitions:
//!
//! 1. **Scan** (parallel): one lane per worker (capped at
//!    [`REDO_PARTITIONS`]) makes a single pass over the shared borrowed
//!    record slice and folds the committed DML whose `(table, key)` hashes
//!    to it into net row effects ([`partition_net_effects`]). Every lane
//!    scans once, so total scan work stays `lanes x O(log)` with all lanes
//!    running concurrently — wall-clock one pass.
//! 2. **Merge** (sequential, cheap): partition slabs concatenate and sort
//!    into one globally `(table, key)`-ordered plan
//!    ([`merge_net_effects`]). Keys are disjoint across partitions and the
//!    per-key fold is the same whichever lane owns the key, so the merged
//!    plan is a pure function of the log — independent of both the
//!    partition count and the worker count.
//! 3. **Apply** (sequential): the sorted plan replays through the B-tree's
//!    batched-ingest cursor ([`apply_redo_plan`]).
//!
//! Because only step 1 is parallel and its outputs merge into a canonical
//! order, `--jobs 1` and `--jobs N` produce byte-identical databases; the
//! chaos harness leans on that for its recovery-equivalence oracle.

use std::collections::HashSet;

use cb_engine::db::Database;
use cb_engine::recovery::{
    apply_redo_plan, committed_txns, merge_net_effects, partition_net_effects,
};
use cb_store::{LogStore, Lsn, TxnId, WalRecord};

use crate::parallel::par_map;

/// Cap on scan-lane count for the parallel redo scan. The canonical merge
/// makes the plan identical for any lane count, so lanes simply track
/// `jobs` up to this bound; 16 comfortably out-scales the simulated hosts
/// while keeping per-lane slabs large enough to be worth a thread.
pub const REDO_PARTITIONS: usize = 16;

/// Parallel equivalent of [`cb_engine::recovery::redo_committed`]: redo
/// every committed transaction's DML from `records` onto `db` using `jobs`
/// worker threads for the log scan. Returns the committed-DML record count
/// (the same number the sequential pass reports).
///
/// `resolved` carries two-phase-commit decision resolution: in-doubt
/// participant transactions (a durable `Prepare`, no durable decision record
/// — see [`cb_engine::recovery::in_doubt_txns`]) whose coordinator decided
/// commit. They join the committed set before the partition scan, so the
/// net-effect planner folds their DML exactly as if their own `Commit`
/// record had survived; undecided prepared transactions stay excluded —
/// presumed-abort. Empty outside sharded recovery.
///
/// With `jobs <= 1` the scan runs inline on the calling thread through the
/// exact same per-partition code, so the sequential and parallel paths
/// cannot diverge; the plan is a pure function of `(records, resolved)`,
/// byte-identical across lane and worker counts.
pub fn redo_committed_parallel(
    db: &mut Database,
    records: &[&WalRecord],
    resolved: &HashSet<TxnId>,
    jobs: usize,
) -> u64 {
    let mut committed = committed_txns(records.iter().copied());
    committed.extend(resolved.iter().copied());
    let lane_count = jobs.clamp(1, REDO_PARTITIONS);
    let lanes: Vec<usize> = (0..lane_count).collect();
    let effects = par_map(&lanes, jobs, |_, &lane| {
        partition_net_effects(records, &committed, lane, lane_count)
    });
    let plan = merge_net_effects(effects);
    apply_redo_plan(db, &plan)
}

/// Parallel equivalent of [`cb_engine::recovery::rebuild`]: restore from a
/// base snapshot and roll the whole log forward on `jobs` threads.
pub fn rebuild_parallel(base: impl FnOnce() -> Database, log: &LogStore, jobs: usize) -> Database {
    let mut db = base();
    let records: Vec<&WalRecord> = log.records_after(Lsn::ZERO).collect();
    redo_committed_parallel(&mut db, &records, &HashSet::new(), jobs);
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
        for jobs in [1usize, 2, 4, 8] {
            let mut par = base();
            let applied = redo_committed_parallel(&mut par, &records, &HashSet::new(), jobs);
            assert_eq!(applied, seq_applied, "jobs={jobs}");
            assert_eq!(par.dump_table(t), seq.dump_table(t), "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_rebuild_is_jobs_invariant_bytewise() {
        let db = crashed();
        let t = db.table_id("t").unwrap();
        let one = rebuild_parallel(base, db.log(), 1);
        for jobs in [2usize, 4] {
            let n = rebuild_parallel(base, db.log(), jobs);
            assert_eq!(n.dump_table(t), one.dump_table(t));
            // Same physical construction order -> same page image.
            assert_eq!(
                format!("{:?}", n.dump_table(t)),
                format!("{:?}", one.dump_table(t))
            );
        }
    }
}
