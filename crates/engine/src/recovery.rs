//! Crash recovery: ARIES-style analysis/redo/undo and log replay.
//!
//! Two recovery families exist in the paper's systems:
//!
//! * **ARIES** (AWS RDS, and CDB4 with its remote buffer pool): scan the WAL
//!   from the last checkpoint, redo history, undo losers. [`analyze`]
//!   produces the record counts that the cluster layer converts into a
//!   recovery *time*; [`redo_committed`] / [`rebuild`] perform the logical
//!   replay for real so tests can assert state equivalence.
//! * **Replay-from-storage** (redo-pushdown architectures): the storage tier
//!   already materialized the pages, so compute recovery is (nearly)
//!   instant; only the service restart and cache warm-up cost remain. That
//!   path needs no log work here.

use std::collections::HashSet;

use cb_store::{LogStore, Lsn, TableId, TxnId, WalOp, WalRecord};

use crate::btree::Uncharged;
use crate::db::Database;

/// Record counts from the ARIES analysis pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AriesAnalysis {
    /// Records scanned since the checkpoint.
    pub scanned: u64,
    /// DML records belonging to committed transactions (to redo).
    pub redo_records: u64,
    /// DML records belonging to loser transactions (to undo).
    pub undo_records: u64,
    /// Distinct loser transactions.
    pub loser_txns: u64,
    /// Distinct *in-doubt* transactions: a durable `Prepare` vote but no
    /// `Commit`/`Abort` decision record. Counted inside `loser_txns` too —
    /// with no surviving coordinator decision they roll back
    /// (presumed-abort) — but callers holding a decision log resolve them
    /// through the `resolved` set of [`undo_losers`] / [`redo_net_effects`]
    /// instead.
    pub in_doubt_txns: u64,
}

/// Scan `log` from just after `checkpoint`, classifying work. `in_flight`
/// lists transactions that had begun before the crash and must be treated
/// as losers unless a commit record is found. The scan borrows records out
/// of the segmented log — nothing is copied.
pub fn analyze(log: &LogStore, checkpoint: Lsn) -> AriesAnalysis {
    let records = log.records_after(checkpoint);
    let committed: HashSet<TxnId> = records
        .clone()
        .filter(|r| matches!(r.op, WalOp::Commit))
        .map(|r| r.txn)
        .collect();
    let aborted: HashSet<TxnId> = records
        .clone()
        .filter(|r| matches!(r.op, WalOp::Abort))
        .map(|r| r.txn)
        .collect();
    let mut a = AriesAnalysis {
        scanned: records.len() as u64,
        ..Default::default()
    };
    let mut losers: HashSet<TxnId> = HashSet::new();
    let mut in_doubt: HashSet<TxnId> = HashSet::new();
    for r in records.clone() {
        if let WalOp::Prepare { .. } = r.op {
            if !committed.contains(&r.txn) && !aborted.contains(&r.txn) {
                in_doubt.insert(r.txn);
            }
        }
    }
    for r in records {
        if !r.op.is_dml() {
            continue;
        }
        if committed.contains(&r.txn) {
            a.redo_records += 1;
        } else if !aborted.contains(&r.txn) {
            // Neither committed nor cleanly aborted: a loser to undo.
            a.undo_records += 1;
            losers.insert(r.txn);
        }
        // Cleanly aborted transactions already applied their undo images.
    }
    a.loser_txns = losers.len() as u64;
    a.in_doubt_txns = in_doubt.len() as u64;
    a
}

/// The in-doubt transactions of a record stream: a durable `Prepare` vote
/// with no `Commit`/`Abort` decision record. Returns `(txn, gid)` pairs in
/// first-prepare order — the coordinator's decision log is keyed by the
/// global id, so this is the recovery-time join between a participant's WAL
/// and the decisions that outlived the crash.
pub fn in_doubt_txns<'a>(records: impl IntoIterator<Item = &'a WalRecord>) -> Vec<(TxnId, u64)> {
    let mut prepared: Vec<(TxnId, u64)> = Vec::new();
    let mut decided: HashSet<TxnId> = HashSet::new();
    for r in records {
        match r.op {
            WalOp::Prepare { gid } if !prepared.iter().any(|(t, _)| *t == r.txn) => {
                prepared.push((r.txn, gid));
            }
            WalOp::Commit | WalOp::Abort => {
                decided.insert(r.txn);
            }
            _ => {}
        }
    }
    prepared.retain(|(t, _)| !decided.contains(t));
    prepared
}

/// Apply one DML record's redo image directly to `db` (no WAL, no cost —
/// timing is modelled by the caller). Idempotent per record when applied in
/// LSN order from a consistent base.
pub fn apply_redo(db: &mut Database, rec: &WalRecord) {
    match &rec.op {
        WalOp::Insert { table, key, row } => {
            let t = *table;
            // Split borrows: tree ops need &mut pages and &mut tree.
            db.apply_insert_raw(t, *key, row, &mut Uncharged);
        }
        WalOp::Update {
            table, key, after, ..
        } => {
            db.apply_update_raw(*table, *key, after, &mut Uncharged);
        }
        WalOp::Delete { table, key, .. } => {
            db.apply_delete_raw(*table, *key, &mut Uncharged);
        }
        _ => {}
    }
}

/// Redo every committed transaction's DML from `records` (in order) onto
/// `db`. Returns the number of records applied.
///
/// Generic over any re-iterable source of borrowed records — a `&Vec` /
/// slice of an owned tail, or [`LogStore::records_after`]'s borrowing
/// iterator — so replay never copies the WAL first.
pub fn redo_committed<'a, I>(db: &mut Database, records: I) -> u64
where
    I: IntoIterator<Item = &'a WalRecord>,
    I::IntoIter: Clone,
{
    let records = records.into_iter();
    let committed = committed_txns(records.clone());
    let mut applied = 0u64;
    for r in records {
        if r.op.is_dml() && committed.contains(&r.txn) {
            apply_redo(db, r);
            applied += 1;
        }
    }
    applied
}

/// The committed-transaction set of a record stream (the first pass of
/// redo).
pub fn committed_txns<'a>(records: impl IntoIterator<Item = &'a WalRecord>) -> HashSet<TxnId> {
    records
        .into_iter()
        .filter(|r| matches!(r.op, WalOp::Commit))
        .map(|r| r.txn)
        .collect()
}

// --- Net-effect redo --------------------------------------------------------

/// The net effect of the committed post-checkpoint log on one row.
///
/// Under strict two-phase locking the committed projection of the log is
/// well-formed against the checkpoint image: the *first* committed op on a
/// key tells whether the row existed at the checkpoint (`Insert` ⇒ absent,
/// `Update`/`Delete` ⇒ present) and the *last* op gives its final state.
/// Everything in between cancels out, so redo applies at most one physical
/// op per row instead of the whole history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetAction<'a> {
    /// Absent at the checkpoint, present at the crash: insert final image.
    Insert(&'a [u8]),
    /// Present at the checkpoint, still present: overwrite with final image.
    Update(&'a [u8]),
    /// Present at the checkpoint, gone at the crash.
    Delete,
}

/// A `(table, key)`-sorted redo plan of net row effects, borrowed from the
/// log records. A pure function of the log and the committed set: nothing
/// about the host decides what gets applied or in which order.
#[derive(Clone, Debug, Default)]
pub struct RedoPlan<'a> {
    /// `(table, key, action)` triples in ascending `(table, key)` order.
    pub ops: Vec<(TableId, i64, NetAction<'a>)>,
    /// Per-table maximum committed-`Insert` key (even if the row was later
    /// deleted): sequential redo bumps the auto-key watermark on every
    /// insert it applies, so net-effect replay must reproduce the bump for
    /// inserts it elides.
    pub max_insert_keys: Vec<(TableId, i64)>,
    /// Committed DML records scanned — the records sequential
    /// [`redo_committed`] would have applied one by one.
    pub dml_records: u64,
}

/// Scan `records` (one checkpoint's log tail, in LSN order) once and fold
/// the DML of the `committed` transactions into net row effects.
pub fn net_effects<'a>(records: &[&'a WalRecord], committed: &HashSet<TxnId>) -> RedoPlan<'a> {
    use std::collections::HashMap;
    // Per row: (first committed op was an insert, final image or deleted).
    type RowNet<'a> = HashMap<(TableId, i64), (bool, Option<&'a [u8]>)>;
    let mut net: RowNet<'a> = HashMap::new();
    let mut max_ins: HashMap<TableId, i64> = HashMap::new();
    let mut dml = 0u64;
    for r in records {
        let (table, key, image, is_insert) = match &r.op {
            WalOp::Insert { table, key, row } => (*table, *key, Some(row.as_slice()), true),
            WalOp::Update {
                table, key, after, ..
            } => (*table, *key, Some(after.as_slice()), false),
            WalOp::Delete { table, key, .. } => (*table, *key, None, false),
            _ => continue,
        };
        if !committed.contains(&r.txn) {
            continue;
        }
        dml += 1;
        if is_insert {
            let m = max_ins.entry(table).or_insert(key);
            *m = (*m).max(key);
        }
        net.entry((table, key))
            .and_modify(|slot| slot.1 = image)
            .or_insert((is_insert, image));
    }
    let mut ops: Vec<(TableId, i64, NetAction<'a>)> = net
        .into_iter()
        .filter_map(|((table, key), (born, image))| {
            let action = match (born, image) {
                (true, Some(img)) => NetAction::Insert(img),
                (false, Some(img)) => NetAction::Update(img),
                (false, None) => NetAction::Delete,
                // Inserted after the checkpoint and deleted again before the
                // crash: the checkpoint image is already correct.
                (true, None) => return None,
            };
            Some((table, key, action))
        })
        .collect();
    ops.sort_unstable_by_key(|&(t, k, _)| (t, k));
    let mut max_insert_keys: Vec<(TableId, i64)> = max_ins.into_iter().collect();
    max_insert_keys.sort_unstable();
    RedoPlan {
        ops,
        max_insert_keys,
        dml_records: dml,
    }
}

/// Apply a redo plan to `db` (base = the checkpoint image the plan was
/// computed against). Ascending-key inserts ride the B-tree's
/// [`BatchIngest`](crate::btree::BatchIngest) right-edge cursor; updates and
/// deletes invalidate it (they can restructure the leaf under the cursor).
/// Returns the plan's committed-DML count, matching [`redo_committed`]'s
/// return value for the same log tail.
pub fn apply_redo_plan(db: &mut Database, plan: &RedoPlan<'_>) -> u64 {
    use crate::btree::BatchIngest;
    let mut cur = BatchIngest::new();
    let mut cur_table: Option<TableId> = None;
    for &(table, key, ref action) in &plan.ops {
        if cur_table != Some(table) {
            cur.invalidate();
            cur_table = Some(table);
        }
        match *action {
            NetAction::Insert(img) => {
                db.apply_insert_raw_batched(table, key, img, &mut cur, &mut Uncharged)
            }
            NetAction::Update(img) => {
                cur.invalidate();
                db.apply_update_raw(table, key, img, &mut Uncharged);
            }
            NetAction::Delete => {
                cur.invalidate();
                db.apply_delete_raw(table, key, &mut Uncharged);
            }
        }
    }
    for &(table, key) in &plan.max_insert_keys {
        db.bump_auto_key(table, key);
    }
    plan.dml_records
}

/// Net-effect equivalent of [`redo_committed`]: fold the committed DML of
/// `records` into one op per row ([`net_effects`]) and apply the plan onto
/// `db`. Returns the committed-DML record count (the same number the
/// record-by-record pass reports).
///
/// `resolved` carries two-phase-commit decision resolution: in-doubt
/// participant transactions (a durable `Prepare`, no durable decision record
/// — see [`in_doubt_txns`]) whose coordinator decided commit. They join the
/// committed set before the scan, so the planner folds their DML exactly as
/// if their own `Commit` record had survived; undecided prepared
/// transactions stay excluded — presumed-abort. Empty outside sharded
/// recovery.
pub fn redo_net_effects(
    db: &mut Database,
    records: &[&WalRecord],
    resolved: &HashSet<TxnId>,
) -> u64 {
    let mut committed = committed_txns(records.iter().copied());
    committed.extend(resolved.iter().copied());
    apply_redo_plan(db, &net_effects(records, &committed))
}

/// ARIES undo pass, applied *in place* to a database that still carries the
/// effects of transactions in flight at a crash (this engine applies DML
/// eagerly, so a crashed image contains loser effects). Walks `records` in
/// reverse LSN order and applies the before-image of every DML record whose
/// transaction is a loser — the same definition [`analyze`] uses, refined by
/// the two inputs a crash site can supply. Returns the number of records
/// undone.
///
/// * `durable_len` — only the first `durable_len` records reached stable
///   storage (pass `records.len()` or more when the whole tail did). A
///   `Commit` record *beyond* that horizon never became durable, so its
///   transaction is a loser: it was acked to nobody (group commit holds the
///   ack until the batch flush lands). `Abort` records count wherever they
///   appear: an aborting transaction applied its undo images eagerly before
///   the crash, so it needs no further undo even if the abort record itself
///   was torn away.
/// * `resolved` — in-doubt two-phase-commit participants whose coordinator
///   decided commit, joined via [`in_doubt_txns`] against the surviving
///   decision log. They keep their effects even though their own `Commit`
///   record never became durable; every other undecided prepared transaction
///   rolls back (presumed-abort). Empty outside sharded recovery.
///
/// The caller must pass the complete log tail of the crash epoch (every
/// record since the last consistent state): losers are by construction the
/// last writers of their rows, so reverse application of before-images is
/// exact. If part of a loser's tail was torn away, in-place undo is not
/// possible and recovery must replay from a base instead ([`rebuild`]).
pub fn undo_losers(
    db: &mut Database,
    records: &[WalRecord],
    durable_len: usize,
    resolved: &HashSet<TxnId>,
) -> u64 {
    let durable_len = durable_len.min(records.len());
    let finished: HashSet<TxnId> = records[..durable_len]
        .iter()
        .filter(|r| matches!(r.op, WalOp::Commit))
        .chain(records.iter().filter(|r| matches!(r.op, WalOp::Abort)))
        .map(|r| r.txn)
        .chain(resolved.iter().copied())
        .collect();
    let mut undone = 0u64;
    for r in records.iter().rev() {
        if finished.contains(&r.txn) {
            continue;
        }
        match &r.op {
            WalOp::Insert { table, key, .. } => db.apply_delete_raw(*table, *key, &mut Uncharged),
            WalOp::Update {
                table, key, before, ..
            } => db.apply_update_raw(*table, *key, before, &mut Uncharged),
            WalOp::Delete { table, key, before } => {
                db.apply_insert_raw(*table, *key, before, &mut Uncharged)
            }
            _ => continue,
        }
        undone += 1;
    }
    undone
}

/// Rebuild a database from a base snapshot constructor plus the full WAL —
/// the "restore from backup and roll forward" story. The `base` closure must
/// recreate the same tables (and any bulk-loaded data) that existed when the
/// log began.
pub fn rebuild(base: impl FnOnce() -> Database, log: &LogStore) -> Database {
    let mut db = base();
    redo_committed(&mut db, log.records_after(Lsn::ZERO));
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::BufferPool;
    use crate::exec::{CostModel, ExecCtx};
    use crate::value::{ColumnDef, DataType, Row, Schema, Value};
    use cb_sim::{Device, DeviceKind, SimDuration, SimTime};
    use cb_store::{decode_record, encode_segment_into, StorageArch, StorageService};

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
        db.load_bulk(t, (1..=10).map(|i| row(i, i * 10)));
        db
    }

    /// Undo `db`'s losers over its own log tail after `after`, of which the
    /// first `durable_len` records are durable.
    fn undo_own_tail(db: &mut Database, after: Lsn, durable_len: usize) -> u64 {
        let tail: Vec<WalRecord> = db.log().records_after(after).cloned().collect();
        undo_losers(db, &tail, durable_len, &HashSet::new())
    }

    #[test]
    fn rebuild_reproduces_committed_state() {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
            // Committed txn.
            let mut txn = db.begin();
            db.insert(&mut ctx, &mut txn, t, row(11, 110)).unwrap();
            db.update(&mut ctx, &mut txn, t, 1, |r| r.values[1] = Value::Int(999))
                .unwrap();
            db.delete(&mut ctx, &mut txn, t, 2);
            db.commit(&mut ctx, txn);
            // Uncommitted txn (in flight at "crash") — simulated by never
            // committing it.
            let mut loser = db.begin();
            db.insert(&mut ctx, &mut loser, t, row(12, 120)).unwrap();
            db.update(&mut ctx, &mut loser, t, 3, |r| r.values[1] = Value::Int(-1))
                .unwrap();
            std::mem::forget(loser); // crash: no commit, no abort
        }
        let rebuilt = rebuild(base, db.log());
        let rt = rebuilt.table_id("t").unwrap();
        let mut expected = base();
        // Expected = base + committed changes only.
        {
            let mut pool2 = BufferPool::new(256);
            let mut st2 = storage();
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool2, None, &mut st2, &model);
            let et = expected.table_id("t").unwrap();
            let mut txn = expected.begin();
            expected
                .insert(&mut ctx, &mut txn, et, row(11, 110))
                .unwrap();
            expected
                .update(&mut ctx, &mut txn, et, 1, |r| r.values[1] = Value::Int(999))
                .unwrap();
            expected.delete(&mut ctx, &mut txn, et, 2);
            expected.commit(&mut ctx, txn);
        }
        assert_eq!(
            rebuilt.dump_table(rt),
            expected.dump_table(expected.table_id("t").unwrap())
        );
    }

    #[test]
    fn aborted_txn_is_not_a_loser() {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
        let mut txn = db.begin();
        db.insert(&mut ctx, &mut txn, t, row(50, 500)).unwrap();
        db.abort(&mut ctx, txn);
        let a = analyze(db.log(), Lsn::ZERO);
        assert_eq!(a.loser_txns, 0);
        assert_eq!(a.undo_records, 0);
        assert_eq!(a.redo_records, 0);
        // Rebuild matches base exactly.
        let rebuilt = rebuild(base, db.log());
        assert_eq!(rebuilt.dump_table(t), base().dump_table(t));
    }

    #[test]
    fn undo_losers_repairs_a_crashed_image_in_place() {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
            let mut txn = db.begin();
            db.insert(&mut ctx, &mut txn, t, row(11, 110)).unwrap();
            db.commit(&mut ctx, txn);
            // In flight at the crash: insert + update + delete, never finished.
            let mut loser = db.begin();
            db.insert(&mut ctx, &mut loser, t, row(12, 120)).unwrap();
            db.update(&mut ctx, &mut loser, t, 3, |r| r.values[1] = Value::Int(-1))
                .unwrap();
            db.delete(&mut ctx, &mut loser, t, 4);
            std::mem::forget(loser);
        }
        let undone = undo_own_tail(&mut db, Lsn::ZERO, usize::MAX);
        assert_eq!(undone, 3);
        // The repaired image equals base + committed work only.
        let expected = rebuild(base, db.log());
        assert_eq!(db.dump_table(t), expected.dump_table(t));
    }

    #[test]
    fn commit_beyond_the_durable_horizon_is_a_loser() {
        // A group-commit batch was open at the crash: the transaction wrote
        // its DML and even its Commit record, but the batch flush never
        // landed, so the commit is not durable and must be undone.
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
            let mut txn = db.begin();
            db.insert(&mut ctx, &mut txn, t, row(21, 210)).unwrap();
            db.update(&mut ctx, &mut txn, t, 5, |r| r.values[1] = Value::Int(-7))
                .unwrap();
            db.commit(&mut ctx, txn);
        }
        let n = db.log().records_after(Lsn::ZERO).len();
        assert!(matches!(
            db.log().records_after(Lsn::ZERO).last().unwrap().op,
            WalOp::Commit
        ));
        // Full-tail undo sees the commit and keeps the changes...
        let committed_image = db.dump_table(t);
        assert_eq!(undo_own_tail(&mut db, Lsn::ZERO, n), 0);
        assert_eq!(db.dump_table(t), committed_image);
        // ...but with the commit record past the durable horizon, both DML
        // records roll back and the image returns to base.
        let undone = undo_own_tail(&mut db, Lsn::ZERO, n - 1);
        assert_eq!(undone, 2);
        assert_eq!(db.dump_table(t), base().dump_table(t));
    }

    #[test]
    fn undo_losers_skips_cleanly_aborted_txns() {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
        let mut txn = db.begin();
        db.insert(&mut ctx, &mut txn, t, row(30, 300)).unwrap();
        db.abort(&mut ctx, txn);
        let before = db.dump_table(t);
        assert_eq!(undo_own_tail(&mut db, Lsn::ZERO, usize::MAX), 0);
        assert_eq!(db.dump_table(t), before);
    }

    // --- Recovery edge cases -------------------------------------------------

    #[test]
    fn empty_wal_recovers_to_base() {
        let db = base();
        let a = analyze(db.log(), Lsn::ZERO);
        assert_eq!(a, AriesAnalysis::default());
        let rebuilt = rebuild(base, db.log());
        let t = db.table_id("t").unwrap();
        assert_eq!(rebuilt.dump_table(t), db.dump_table(t));
    }

    #[test]
    fn checkpoint_at_log_tip_leaves_no_work() {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
            let mut txn = db.begin();
            db.insert(&mut ctx, &mut txn, t, row(40, 400)).unwrap();
            db.commit(&mut ctx, txn);
        }
        let (ckpt, _, _) = db.checkpoint(&mut pool, &mut st, SimTime::ZERO);
        assert_eq!(ckpt, db.log().head(), "checkpoint sits at the log tip");
        let a = analyze(db.log(), ckpt);
        assert_eq!(a, AriesAnalysis::default(), "nothing to redo or undo");
    }

    #[test]
    fn abort_after_last_checkpoint_is_not_redone_or_undone() {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        let (ckpt, _, _) = db.checkpoint(&mut pool, &mut st, SimTime::ZERO);
        {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
            let mut txn = db.begin();
            db.insert(&mut ctx, &mut txn, t, row(50, 500)).unwrap();
            db.update(&mut ctx, &mut txn, t, 1, |r| r.values[1] = Value::Int(-7))
                .unwrap();
            db.abort(&mut ctx, txn);
        }
        let a = analyze(db.log(), ckpt);
        assert_eq!(a.redo_records, 0);
        assert_eq!(a.undo_records, 0);
        assert_eq!(a.loser_txns, 0);
        assert!(a.scanned >= 4, "begin + 2 DML + abort are still scanned");
        // In-place undo finds nothing either, and replay matches the live db.
        let records: Vec<WalRecord> = db.log().records_after(Lsn::ZERO).cloned().collect();
        let mut crashed = base();
        assert_eq!(
            undo_losers(&mut crashed, &records, records.len(), &HashSet::new()),
            0
        );
        let rebuilt = rebuild(base, db.log());
        assert_eq!(rebuilt.dump_table(t), db.dump_table(t));
    }

    #[test]
    fn crash_with_zero_in_flight_txns_is_pure_redo() {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
            for i in 0..3 {
                let mut txn = db.begin();
                db.insert(&mut ctx, &mut txn, t, row(60 + i, 600)).unwrap();
                db.commit(&mut ctx, txn);
            }
        }
        let a = analyze(db.log(), Lsn::ZERO);
        assert_eq!(a.redo_records, 3);
        assert_eq!(a.undo_records, 0);
        assert_eq!(a.loser_txns, 0);
        assert_eq!(
            undo_own_tail(&mut db, Lsn::ZERO, usize::MAX),
            0,
            "nothing to undo"
        );
        let rebuilt = rebuild(base, db.log());
        assert_eq!(rebuilt.dump_table(t), db.dump_table(t));
    }

    #[test]
    fn analysis_counts_work_since_checkpoint() {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        // Committed work before the checkpoint.
        {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
            let mut txn = db.begin();
            db.insert(&mut ctx, &mut txn, t, row(20, 1)).unwrap();
            db.commit(&mut ctx, txn);
        }
        let (ckpt, _, _) = db.checkpoint(&mut pool, &mut st, SimTime::ZERO);
        // Work after the checkpoint: one committed, one loser.
        {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
            let mut txn = db.begin();
            db.insert(&mut ctx, &mut txn, t, row(21, 2)).unwrap();
            db.insert(&mut ctx, &mut txn, t, row(22, 3)).unwrap();
            db.commit(&mut ctx, txn);
            let mut loser = db.begin();
            db.insert(&mut ctx, &mut loser, t, row(23, 4)).unwrap();
            std::mem::forget(loser);
        }
        let a = analyze(db.log(), ckpt);
        assert_eq!(a.redo_records, 2);
        assert_eq!(a.undo_records, 1);
        assert_eq!(a.loser_txns, 1);
        // Analysis from LSN 0 sees strictly more.
        let full = analyze(db.log(), Lsn::ZERO);
        assert!(full.scanned > a.scanned);
        assert_eq!(full.redo_records, 3);
    }

    // --- Partitioned net-effect redo -----------------------------------------

    /// Mixed workload: committed insert/update/delete chains (including
    /// insert-then-delete and insert-then-update on the same key), a clean
    /// abort, and a loser in flight at the crash.
    fn mixed_log() -> Database {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
        let mut txn = db.begin();
        for i in 11..=30 {
            db.insert(&mut ctx, &mut txn, t, row(i, i)).unwrap();
        }
        db.update(&mut ctx, &mut txn, t, 1, |r| r.values[1] = Value::Int(111))
            .unwrap();
        db.update(&mut ctx, &mut txn, t, 15, |r| r.values[1] = Value::Int(222))
            .unwrap();
        db.delete(&mut ctx, &mut txn, t, 2); // present at base -> net delete
        db.delete(&mut ctx, &mut txn, t, 30); // inserted above -> net no-op
        db.commit(&mut ctx, txn);
        let mut ab = db.begin();
        db.insert(&mut ctx, &mut ab, t, row(90, 900)).unwrap();
        db.abort(&mut ctx, ab);
        let mut loser = db.begin();
        db.insert(&mut ctx, &mut loser, t, row(91, 910)).unwrap();
        db.update(&mut ctx, &mut loser, t, 3, |r| r.values[1] = Value::Int(-3))
            .unwrap();
        std::mem::forget(loser);
        db
    }

    #[test]
    fn net_effect_replay_matches_sequential_redo() {
        let db = mixed_log();
        let t = db.table_id("t").unwrap();
        let refs: Vec<&WalRecord> = db.log().records_after(Lsn::ZERO).collect();
        let committed = committed_txns(refs.iter().copied());
        let seq = rebuild(base, db.log());
        let seq_applied = {
            let mut fresh = base();
            redo_committed(&mut fresh, db.log().records_after(Lsn::ZERO))
        };
        let plan = net_effects(&refs, &committed);
        let mut net = base();
        let applied = apply_redo_plan(&mut net, &plan);
        assert_eq!(
            applied, seq_applied,
            "committed-DML count matches sequential redo"
        );
        assert_eq!(
            net.dump_table(t),
            seq.dump_table(t),
            "net-effect replay reproduces sequential state"
        );
    }

    #[test]
    fn net_effect_plan_collapses_per_row_histories() {
        let db = mixed_log();
        let t = db.table_id("t").unwrap();
        let refs: Vec<&WalRecord> = db.log().records_after(Lsn::ZERO).collect();
        let committed = committed_txns(refs.iter().copied());
        let plan = net_effects(&refs, &committed);
        // Inserted-then-deleted key 30 vanishes from the plan entirely;
        // inserted-then-updated key 15 nets to a single Insert of the final
        // image; base-resident key 1 nets to an Update; key 2 to a Delete.
        let find = |k: i64| plan.ops.iter().find(|&&(pt, pk, _)| pt == t && pk == k);
        assert!(find(30).is_none(), "insert+delete cancels");
        assert!(matches!(find(15), Some((_, _, NetAction::Insert(_)))));
        assert!(matches!(find(1), Some((_, _, NetAction::Update(_)))));
        assert!(matches!(find(2), Some((_, _, NetAction::Delete))));
        // Loser txn 91 and cleanly aborted 90 are absent.
        assert!(find(90).is_none());
        assert!(find(91).is_none());
        // The plan is strictly sorted by (table, key).
        assert!(plan
            .ops
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        // Auto-key watermark still covers the deleted key 30.
        assert_eq!(plan.max_insert_keys, vec![(t, 30)]);
    }

    /// One single-insert committed txn: exactly three records
    /// (Begin, Insert, Commit).
    fn commit_one(db: &mut Database, ctx: &mut ExecCtx, t: TableId, k: i64) {
        let mut txn = db.begin();
        db.insert(ctx, &mut txn, t, row(k, k * 10)).unwrap();
        db.commit(ctx, txn);
    }

    #[test]
    fn crash_exactly_at_a_segment_seal_loses_whole_young_segment() {
        // Segment capacity 3 = one single-insert txn per segment, so every
        // commit lands flush against a segment boundary.
        let mut db = base();
        *db.log_mut() = LogStore::with_segment_capacity(3);
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
        for k in 11..=14 {
            commit_one(&mut db, &mut ctx, t, k);
        }
        assert_eq!(db.log().head(), Lsn(12), "4 txns x 3 records");
        assert_eq!(db.log().segment_count(), 4, "tail is full but unsealed");

        // A fifth txn seals the full tail and opens a young segment...
        commit_one(&mut db, &mut ctx, t, 15);
        assert_eq!(db.log().segment_count(), 5);
        // ...and the crash hits with the durable horizon exactly at the
        // seal: nothing in the young segment reached storage.
        assert_eq!(db.log_mut().discard_after(Lsn(12)), 3);
        assert_eq!(db.log().head(), Lsn(12));
        assert_eq!(db.log().segment_count(), 4, "young segment popped whole");
        assert_eq!(db.log().recycled_segments(), 1, "its buffer is recycled");

        // Recovery from the durable log: the sealed history replays, the
        // lost txn does not.
        let rebuilt = rebuild(base, db.log());
        let mut expected = base();
        {
            let mut pool2 = BufferPool::new(256);
            let mut st2 = storage();
            let mut ctx2 = ExecCtx::new(SimTime::ZERO, &mut pool2, None, &mut st2, &model);
            let et = expected.table_id("t").unwrap();
            for k in 11..=14 {
                commit_one(&mut expected, &mut ctx2, et, k);
            }
        }
        assert_eq!(rebuilt.dump_table(t), expected.dump_table(t));

        // The resurrected log resumes the LSN sequence in a fresh segment
        // cut from the recycle pool.
        assert_eq!(db.log_mut().append(TxnId(99), WalOp::Begin), Lsn(13));
        assert_eq!(db.log().segment_count(), 5);
        assert_eq!(db.log().recycled_segments(), 0, "recycled buffer reused");
    }

    /// PR 8 seal-boundary variant: a crash with the durable horizon exactly
    /// at a segment seal, taken while a hot row carries a long version
    /// chain. The version store is volatile — recovery (replay and in-place
    /// undo alike) collapses every chain to the latest durable image, so a
    /// post-recovery snapshot read at any timestamp sees the tree.
    #[test]
    fn seal_boundary_crash_collapses_version_chains() {
        let mut db = base();
        *db.log_mut() = LogStore::with_segment_capacity(3);
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
        // Five committed updates of the same row, each published the way
        // the driver does at a versioned isolation level: pre-image stamped
        // with the (future) commit instant.
        for i in 1..=5u64 {
            let mut txn = db.begin();
            db.update(&mut ctx, &mut txn, t, 1, |r| {
                r.values[1] = Value::Int(1000 + i as i64);
            })
            .unwrap();
            let c = db.commit(&mut ctx, txn);
            db.publish_versions(&c, SimTime::from_millis(i * 10));
        }
        assert_eq!(db.versions().chain_len((t, 1)), 5, "a long chain built up");
        // A snapshot between the 2nd and 3rd commit sees the 2nd image.
        let mid = db.get_at(t, 1, SimTime::from_millis(25)).unwrap();
        assert_eq!(mid.values[1], Value::Int(1002));

        // The crash horizon lands exactly on the seal after the 4th txn
        // (segment capacity 3 = one update txn per segment): the 5th txn's
        // young segment vanishes whole, and the version store dies with the
        // node. The epoch tail is captured before the loss — in-place undo
        // needs the before-images of records the crash destroyed.
        let tail: Vec<WalRecord> = db.log().records_after(Lsn::ZERO).cloned().collect();
        assert_eq!(db.log_mut().discard_after(Lsn(12)), 3);
        db.simulate_crash();
        assert_eq!(db.versions().tracked_rows(), 0, "chains are volatile");

        // Replay path: four updates survive; the rebuilt store has no
        // chains, so a read at *any* timestamp resolves to the tree.
        let rebuilt = rebuild(base, db.log());
        let latest = rebuilt.get_at(t, 1, SimTime::MAX).unwrap();
        assert_eq!(latest.values[1], Value::Int(1004));
        assert_eq!(rebuilt.get_at(t, 1, SimTime::ZERO).unwrap(), latest);
        assert_eq!(
            rebuilt.get_at(t, 1, SimTime::from_millis(25)).unwrap(),
            latest
        );

        // In-place path: the crashed image already holds all five updates;
        // undoing losers against the durable horizon rolls back the fifth.
        undo_losers(&mut db, &tail, 12, &HashSet::new());
        assert_eq!(db.dump_table(t), rebuilt.dump_table(t));
        assert_eq!(db.get_at(t, 1, SimTime::ZERO).unwrap(), latest);
    }

    #[test]
    fn torn_tail_in_a_recycled_segment_recovers_to_the_durable_prefix() {
        let mut db = base();
        *db.log_mut() = LogStore::with_segment_capacity(3);
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
        for k in 11..=13 {
            commit_one(&mut db, &mut ctx, t, k);
        }
        // Replica provisioned from the LSN-9 snapshot, then the primary
        // truncates its whole history (all replicas acked), recycling the
        // dead segments.
        let replica_base = rebuild(base, db.log());
        db.log_mut().truncate_through(Lsn(9));
        assert_eq!(db.log().recycled_segments(), 2);

        // New traffic reopens the log; the second txn's records spill into
        // a segment carved from the recycle pool.
        commit_one(&mut db, &mut ctx, t, 14);
        commit_one(&mut db, &mut ctx, t, 15);
        assert_eq!(
            db.log().recycled_segments(),
            1,
            "active tail is a recycled buffer"
        );

        // The crash tears the last byte of the wire image mid-frame: txn
        // 15's Commit never fully lands.
        let mut wire = Vec::new();
        encode_segment_into(db.log().records_after(Lsn(9)), &mut wire);
        let torn = &wire[..wire.len() - 1];
        let mut survivors = Vec::new();
        let mut pos = 0usize;
        while let Ok((rec, next)) = decode_record(torn, pos) {
            survivors.push(rec);
            pos = next;
        }
        assert_eq!(survivors.len(), 5, "final Commit frame torn away");

        // Replica-side recovery: redo the committed prefix of the torn
        // tail. Txn 15 has no durable Commit, so it is simply not redone.
        let mut replica = replica_base;
        redo_committed(&mut replica, &survivors);

        // Primary-side recovery: drop the torn record, then undo the loser
        // in place against the durable horizon.
        db.log_mut().discard_after(Lsn(14));
        undo_own_tail(&mut db, Lsn(9), usize::MAX);

        assert_eq!(db.dump_table(t), replica.dump_table(t));
        let keys: Vec<Value> = db
            .dump_table(t)
            .iter()
            .map(|r| r.values[0].clone())
            .collect();
        assert!(
            keys.contains(&Value::Int(14)),
            "durably committed txn survives"
        );
        assert!(
            !keys.contains(&Value::Int(15)),
            "torn-commit txn rolled back"
        );
    }

    #[test]
    fn checkpoint_mid_segment_bounds_the_recovery_window() {
        let mut db = base();
        *db.log_mut() = LogStore::with_segment_capacity(5);
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        {
            let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
            commit_one(&mut db, &mut ctx, t, 11);
            commit_one(&mut db, &mut ctx, t, 12);
        }
        let (ckpt, _, _) = db.checkpoint(&mut pool, &mut st, SimTime::ZERO);
        assert_eq!(ckpt, Lsn(7));
        assert_ne!(ckpt.0 % 5, 0, "checkpoint lands mid-segment");
        // The replica a restore would bootstrap from: state as of the
        // checkpoint.
        let replica_base = rebuild(base, db.log());

        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
        commit_one(&mut db, &mut ctx, t, 13);
        // Checkpoint truncation drops only whole dead segments; the one
        // straddling the checkpoint keeps its live suffix in place.
        db.log_mut().truncate_through(ckpt);
        assert_eq!(db.log().segment_count(), 1);
        assert_eq!(db.log().oldest_retained(), Some(Lsn(8)));
        assert_eq!(db.log().retained(), 3);

        // An in-flight txn at the crash; its records reopen a recycled
        // segment past the straddler.
        let mut loser = db.begin();
        db.insert(&mut ctx, &mut loser, t, row(14, 140)).unwrap();
        std::mem::forget(loser);
        assert_eq!(db.log().segment_count(), 2);

        // Analysis scans only the post-checkpoint window.
        let a = analyze(db.log(), db.last_checkpoint());
        assert_eq!(a.scanned, 5);
        assert_eq!(a.redo_records, 1);
        assert_eq!(a.undo_records, 1);
        assert_eq!(a.loser_txns, 1);

        // Replica redo from the checkpoint + in-place undo on the primary
        // converge on the same state.
        let mut replica = replica_base;
        redo_committed(&mut replica, db.log().records_after(ckpt));
        undo_own_tail(&mut db, ckpt, usize::MAX);
        assert_eq!(db.dump_table(t), replica.dump_table(t));
        let keys: Vec<Value> = db
            .dump_table(t)
            .iter()
            .map(|r| r.values[0].clone())
            .collect();
        assert!(keys.contains(&Value::Int(13)) && !keys.contains(&Value::Int(14)));
    }

    // --- Two-phase-commit recovery edges -------------------------------------

    /// One transaction that updates row 1 and votes yes (durable Prepare),
    /// then dies without ever hearing a decision.
    fn prepared_in_doubt(gid: u64) -> (Database, Vec<WalRecord>) {
        let mut db = base();
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
        let mut txn = db.begin();
        db.update(&mut ctx, &mut txn, t, 1, |r| r.values[1] = Value::Int(777))
            .unwrap();
        db.prepare(&mut ctx, &mut txn, gid);
        std::mem::forget(txn); // crash: the decision never arrives
        let tail: Vec<WalRecord> = db.log().records_after(Lsn::ZERO).cloned().collect();
        (db, tail)
    }

    #[test]
    fn coordinator_crash_before_the_decision_presumes_abort() {
        let (mut db, tail) = prepared_in_doubt(77);
        let refs: Vec<&WalRecord> = tail.iter().collect();
        let in_doubt = in_doubt_txns(refs.iter().copied());
        assert_eq!(in_doubt.len(), 1);
        assert_eq!(in_doubt[0].1, 77, "the vote carries its global id");

        // No surviving decision log: both recovery paths must roll the
        // prepared transaction back.
        let replayed = rebuild(base, db.log());
        undo_losers(&mut db, &tail, tail.len(), &HashSet::new());
        assert_eq!(db.dump_table(db.table_id("t").unwrap()), {
            let t = replayed.table_id("t").unwrap();
            replayed.dump_table(t)
        });
        let t = db.table_id("t").unwrap();
        assert_eq!(
            db.dump_table(t)[0].values[1],
            Value::Int(10),
            "presumed abort restored the pre-image"
        );
    }

    #[test]
    fn participant_crash_after_prepare_resolves_forward_with_the_decision() {
        let (mut db, tail) = prepared_in_doubt(78);
        let refs: Vec<&WalRecord> = tail.iter().collect();
        let in_doubt = in_doubt_txns(refs.iter().copied());
        // The coordinator's decision log says gid 78 committed: resolution
        // joins the vote with the decision and rolls it *forward*.
        let resolved: HashSet<TxnId> = in_doubt
            .iter()
            .filter(|(_, gid)| *gid == 78)
            .map(|&(txn, _)| txn)
            .collect();
        assert_eq!(resolved.len(), 1);

        // Replay path: the resolved commit joins the committed set before
        // the net-effect scan, exactly as if its Commit record survived.
        let mut replayed = base();
        redo_net_effects(&mut replayed, &refs, &resolved);

        // In-place path: the resolved transaction is not a loser.
        undo_losers(&mut db, &tail, tail.len(), &resolved);

        let t = db.table_id("t").unwrap();
        assert_eq!(db.dump_table(t)[0].values[1], Value::Int(777));
        let rt = replayed.table_id("t").unwrap();
        assert_eq!(db.dump_table(t), replayed.dump_table(rt));
    }

    #[test]
    fn torn_prepare_in_a_recycled_segment_is_a_plain_loser() {
        let mut db = base();
        *db.log_mut() = LogStore::with_segment_capacity(3);
        let t = db.table_id("t").unwrap();
        let mut pool = BufferPool::new(256);
        let mut st = storage();
        let model = CostModel::default();
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);
        for k in 11..=13 {
            commit_one(&mut db, &mut ctx, t, k);
        }
        let mut replica = rebuild(base, db.log());
        // History truncated (all replicas acked), segments recycled.
        db.log_mut().truncate_through(Lsn(9));
        assert_eq!(db.log().recycled_segments(), 2, "sealed history recycled");

        // A participant updates and votes; its records land in a segment
        // carved from the recycle pool — and the crash tears the last byte
        // of the wire image, so the Prepare frame never becomes durable.
        let mut txn = db.begin();
        db.update(&mut ctx, &mut txn, t, 1, |r| r.values[1] = Value::Int(777))
            .unwrap();
        db.prepare(&mut ctx, &mut txn, 79);
        std::mem::forget(txn);
        let mut wire = Vec::new();
        encode_segment_into(db.log().records_after(Lsn(9)), &mut wire);
        let torn = &wire[..wire.len() - 1];
        let mut survivors = Vec::new();
        let mut pos = 0usize;
        while let Ok((rec, next)) = decode_record(torn, pos) {
            survivors.push(rec);
            pos = next;
        }
        assert!(
            !survivors
                .iter()
                .any(|r| matches!(r.op, WalOp::Prepare { .. })),
            "the vote was torn away"
        );

        // A torn vote is not in doubt — the participant never promised
        // anything durable, so even a commit decision for gid 79 must not
        // resurrect it: the transaction is a plain loser on both paths.
        let refs: Vec<&WalRecord> = survivors.iter().collect();
        assert!(in_doubt_txns(refs.iter().copied()).is_empty());
        redo_committed(&mut replica, &survivors);
        undo_losers(&mut db, &survivors, survivors.len(), &HashSet::new());
        assert_eq!(db.dump_table(t), {
            let rt = replica.table_id("t").unwrap();
            replica.dump_table(rt)
        });
        assert_eq!(db.dump_table(t)[0].values[1], Value::Int(10));
    }
}
