//! Property tests for the storage engine: the B+tree against a model, the
//! slotted page under random churn, the row codec, net-effect redo against
//! record-by-record redo, and the SQL parser's total behaviour.

use std::collections::{BTreeMap, HashSet};
use std::panic::catch_unwind;

use cb_engine::btree::{AccessLog, BTree, PageSink};
use cb_engine::recovery::{redo_committed, redo_net_effects};
use cb_engine::secondary::SecondaryIndex;
use cb_engine::slotted::Slotted;
use cb_engine::sql::parse;
use cb_engine::{
    BufferPool, ColumnDef, CostModel, DataType, Database, ExecCtx, Row, RowRef, Schema, Value,
};
use cb_sim::{Device, DeviceKind, SimDuration, SimTime};
use cb_store::{Lsn, PageBuf, PageStore, StorageArch, StorageService, TableId, WalRecord};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum MvccOp {
    /// Commit a new image of the key at the current instant.
    Write(i64, u8),
    /// Commit a delete of the key (no-op when absent).
    Delete(i64),
    /// Snapshot-read the key at a fraction of the live `[watermark, now]`
    /// window.
    Read(i64, u8),
    /// Advance the GC watermark to a fraction of the same window and prune.
    Gc(u8),
}

#[derive(Clone, Debug)]
enum Op {
    Insert(i64, Vec<u8>),
    Update(i64, Vec<u8>),
    Delete(i64),
    Get(i64),
    Scan(i64, i64),
}

fn op_strategy(key_space: i64) -> impl Strategy<Value = Op> {
    let key = 0..key_space;
    let payload = prop::collection::vec(any::<u8>(), 1..64);
    prop_oneof![
        (key.clone(), payload.clone()).prop_map(|(k, p)| Op::Insert(k, p)),
        (key.clone(), payload).prop_map(|(k, p)| Op::Update(k, p)),
        key.clone().prop_map(Op::Delete),
        key.clone().prop_map(Op::Get),
        (key, 0i64..60).prop_map(|(lo, span)| Op::Scan(lo, span)),
    ]
}

/// A clustered tree plus a secondary index over the payload's first byte:
/// the page traffic of a table with one indexed column.
struct IndexedTree {
    store: PageStore,
    tree: BTree,
    index: SecondaryIndex,
}

impl IndexedTree {
    fn new() -> Self {
        let mut store = PageStore::new();
        let tree = BTree::create(&mut store);
        let index = SecondaryIndex::create(&mut store, 1);
        IndexedTree { store, tree, index }
    }

    /// Apply `op` the way `Database` does its DML — tree first, then index
    /// maintenance — reporting every page to `sink`. Returns rows processed.
    fn apply(&mut self, op: &Op, sink: &mut impl PageSink) -> u64 {
        let IndexedTree { store, tree, index } = self;
        // Payloads are stretched so a few hundred keys span dozens of leaves.
        let image = |p: &[u8]| p.repeat(8);
        match op {
            Op::Insert(k, p) => {
                if tree.insert(store, *k, &image(p), sink).is_err() {
                    return 0;
                }
                index.add(store, i64::from(p[0]), *k, sink);
                1
            }
            Op::Update(k, p) => {
                let Some(old) = tree.get(store, *k, sink).map(|img| img[0]) else {
                    return 0;
                };
                tree.update(store, *k, &image(p), sink);
                if old != p[0] {
                    index.remove(store, i64::from(old), *k, sink);
                    index.add(store, i64::from(p[0]), *k, sink);
                }
                1
            }
            Op::Delete(k) => {
                let Some(old) = tree.delete(store, *k, sink) else {
                    return 0;
                };
                index.remove(store, i64::from(old[0]), *k, sink);
                1
            }
            Op::Get(k) => u64::from(tree.get(store, *k, sink).is_some()),
            Op::Scan(lo, span) => {
                let mut rows = 0;
                tree.scan_range(store, *lo, lo + span, sink, |_, _| {
                    rows += 1;
                    true
                });
                rows
            }
        }
    }
}

/// A node small enough that the workload evicts, and writes back, as soon
/// as the trees outgrow a leaf each: two pool frames over a throttled
/// device, so every charge moves the device queue the next one is timed
/// against.
struct TinyNode {
    pool: BufferPool,
    storage: StorageService,
    model: CostModel,
}

impl TinyNode {
    fn new() -> Self {
        let device = || {
            Device::new(
                DeviceKind::NetworkSsd,
                SimDuration::from_micros(450),
                Some(20_000),
            )
        };
        TinyNode {
            pool: BufferPool::new(2),
            storage: StorageService::new(
                StorageArch::Coupled,
                device(),
                device(),
                None,
                1,
                SimDuration::ZERO,
            ),
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

/// Two tables, keys `0..8` bulk-loaded into each — the checkpoint image
/// both redo paths start from.
fn redo_base() -> Database {
    let schema = || {
        Schema::new(vec![
            ColumnDef::new("ID", DataType::Int),
            ColumnDef::new("V", DataType::Int),
        ])
    };
    let mut db = Database::new();
    for name in ["a", "b"] {
        let t = db.create_table(name, schema());
        db.load_bulk(
            t,
            (0..8).map(|k| Row::new(vec![Value::Int(k), Value::Int(-k)])),
        );
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Net-effect redo (`redo_net_effects`, one op per row, sorted) and
    /// record-by-record redo (`redo_committed`, LSN order) rebuild the same
    /// database from the same base and log, whatever mix of committed,
    /// aborted and still-open transactions the log holds. A statement is
    /// `(second table?, key, kind, value)` with kind 0 insert, 1 update,
    /// 2 delete; a transaction is its statements plus its fate: 0 commits,
    /// 1 aborts, 2 is still open at the "crash".
    #[test]
    fn net_effect_redo_equals_record_by_record_redo(
        txns in prop::collection::vec(
            (
                prop::collection::vec((prop::bool::ANY, 0i64..24, 0u8..3, any::<i64>()), 1..6),
                0u8..3,
            ),
            1..40,
        ),
    ) {
        let mut live = redo_base();
        let tables: Vec<TableId> = live.tables().iter().map(|t| t.id()).collect();
        let mut node = TinyNode::new();
        let mut ctx = node.ctx();
        // Rows an open transaction wrote stay locked until the crash: under
        // strict 2PL nobody else touches them, which is what makes the
        // committed projection of the log well-formed.
        let mut locked: HashSet<(bool, i64)> = HashSet::new();
        for (ops, fate) in &txns {
            let mut txn = live.begin();
            for &(second, key, kind, v) in ops {
                if locked.contains(&(second, key)) {
                    continue;
                }
                let t = tables[usize::from(second)];
                let wrote = match kind {
                    0 => live
                        .insert(&mut ctx, &mut txn, t, Row::new(vec![Value::Int(key), Value::Int(v)]))
                        .is_ok(),
                    1 => live
                        .update(&mut ctx, &mut txn, t, key, |r| r.values[1] = Value::Int(v))
                        .unwrap(),
                    _ => live.delete(&mut ctx, &mut txn, t, key),
                };
                if wrote && *fate == 2 {
                    locked.insert((second, key));
                }
            }
            match fate {
                0 => {
                    live.commit(&mut ctx, txn);
                }
                1 => live.abort(&mut ctx, txn),
                _ => std::mem::forget(txn),
            }
        }

        let records: Vec<&WalRecord> = live.log().records_after(Lsn::ZERO).collect();
        let (mut by_record, mut by_row) = (redo_base(), redo_base());
        let applied = redo_committed(&mut by_record, records.iter().copied());
        let planned = redo_net_effects(&mut by_row, &records, &HashSet::new());
        prop_assert_eq!(planned, applied);
        for &t in &tables {
            prop_assert_eq!(by_row.dump_table(t), by_record.dump_table(t));
            prop_assert_eq!(by_row.table(t).rows(), by_record.table(t).rows());
            prop_assert_eq!(
                by_row.table(t).next_auto_key(),
                by_record.table(t).next_auto_key()
            );
        }
    }

    /// Charging pages as the tree walks equals recording them and charging
    /// the record afterwards: the property that let `Database` drop its
    /// per-statement access log. One side hands the trees the context
    /// itself; the other hands them a `Vec` and replays it through
    /// `charge_page` in recorded order. Everything the cost model produces
    /// must agree at the end.
    #[test]
    fn charging_while_walking_equals_replaying_the_log(
        ops in prop::collection::vec(op_strategy(300), 1..400),
    ) {
        let (mut walked, mut logged) = (IndexedTree::new(), IndexedTree::new());
        let (mut node_a, mut node_b) = (TinyNode::new(), TinyNode::new());
        let (mut ctx_a, mut ctx_b) = (node_a.ctx(), node_b.ctx());
        let mut alog = AccessLog::new();
        for op in &ops {
            ctx_a.charge_stmt();
            let rows = walked.apply(op, &mut ctx_a);
            ctx_a.charge_rows(rows);

            ctx_b.charge_stmt();
            let rows_b = logged.apply(op, &mut alog);
            for (page, write) in alog.drain(..) {
                ctx_b.charge_page(page, write);
            }
            ctx_b.charge_rows(rows_b);
            prop_assert_eq!(rows, rows_b);
        }
        prop_assert_eq!(ctx_a.cpu, ctx_b.cpu);
        prop_assert_eq!(ctx_a.io, ctx_b.io);
        prop_assert_eq!(ctx_a.stats, ctx_b.stats);
        prop_assert_eq!(node_a.pool.hits(), node_b.pool.hits());
        prop_assert_eq!(node_a.pool.misses(), node_b.pool.misses());
        prop_assert_eq!(node_a.pool.dirty_evictions(), node_b.pool.dirty_evictions());
        prop_assert_eq!(node_a.storage.page_ops(), node_b.storage.page_ops());
        prop_assert_eq!(node_a.storage.log_ops(), node_b.storage.log_ops());
    }

    /// The B+tree agrees with a BTreeMap under arbitrary operation mixes,
    /// including the final full-scan content.
    #[test]
    fn btree_matches_model(ops in prop::collection::vec(op_strategy(300), 1..400)) {
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        let mut alog = AccessLog::new();
        for op in ops {
            match op {
                Op::Insert(k, p) => {
                    let r = tree.insert(&mut store, k, &p, &mut alog);
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        prop_assert!(r.is_ok());
                        e.insert(p);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                Op::Update(k, p) => {
                    let r = tree.update(&mut store, k, &p, &mut alog);
                    prop_assert_eq!(r, model.contains_key(&k));
                    if r { model.insert(k, p); }
                }
                Op::Delete(k) => {
                    let r = tree.delete(&mut store, k, &mut alog);
                    prop_assert_eq!(r, model.remove(&k));
                }
                Op::Get(k) => {
                    // The borrowed read path must return byte-identical
                    // payloads straight off the page — compared as slices,
                    // no copy on either side.
                    prop_assert_eq!(tree.get(&store, k, &mut alog), model.get(&k).map(Vec::as_slice));
                    prop_assert_eq!(tree.contains(&store, k, &mut alog), model.contains_key(&k));
                }
                Op::Scan(lo, span) => {
                    let hi = lo + span;
                    let mut got: Vec<(i64, Vec<u8>)> = Vec::new();
                    tree.scan_range(&store, lo, hi, &mut alog, |k, p| {
                        got.push((k, p.to_vec()));
                        true
                    });
                    let want: Vec<(i64, Vec<u8>)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, v.clone())).collect();
                    prop_assert_eq!(got, want);
                }
            }
            alog.clear();
        }
        let mut scanned = Vec::new();
        tree.scan_range(&store, i64::MIN, i64::MAX, &mut alog, |k, p| {
            scanned.push((k, p.to_vec()));
            true
        });
        prop_assert_eq!(scanned, model.into_iter().collect::<Vec<_>>());
    }

    /// Secondary-index maintenance agrees with a model of posting sets:
    /// lookups return exactly the model's primary keys, ascending, through
    /// the borrowed tree read path.
    #[test]
    fn secondary_index_matches_model(
        ops in prop::collection::vec((0i64..40, 0i64..200, prop::bool::ANY), 1..300),
    ) {
        use cb_engine::secondary::SecondaryIndex;
        use std::collections::BTreeSet;
        let mut store = PageStore::new();
        let mut idx = SecondaryIndex::create(&mut store, 1);
        let mut model: BTreeMap<i64, BTreeSet<i64>> = BTreeMap::new();
        let mut alog = AccessLog::new();
        for (value, pk, remove) in ops {
            let present = model.get(&value).is_some_and(|s| s.contains(&pk));
            if remove {
                if present {
                    idx.remove(&mut store, value, pk, &mut alog);
                    let set = model.get_mut(&value).expect("present implies entry");
                    set.remove(&pk);
                    if set.is_empty() { model.remove(&value); }
                }
            } else if !present {
                idx.add(&mut store, value, pk, &mut alog);
                model.entry(value).or_default().insert(pk);
            }
            prop_assert_eq!(
                idx.lookup(&store, value, &mut alog),
                model.get(&value).map(|s| s.iter().copied().collect::<Vec<_>>()).unwrap_or_default()
            );
            alog.clear();
        }
        for (value, set) in &model {
            prop_assert_eq!(
                idx.lookup(&store, *value, &mut alog),
                set.iter().copied().collect::<Vec<_>>()
            );
        }
        prop_assert_eq!(idx.distinct_values(&store), model.len() as u64);
        prop_assert_eq!(idx.lookup(&store, 1_000_000, &mut alog), Vec::<i64>::new());
    }

    /// Slotted pages keep keys sorted and payloads intact under churn.
    #[test]
    fn slotted_page_churn(ops in prop::collection::vec((0i64..64, 1usize..120, prop::bool::ANY), 1..200)) {
        let mut page = PageBuf::zeroed();
        let mut s = Slotted::init(&mut page, 16);
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for (k, len, delete) in ops {
            if delete {
                if let Ok(idx) = s.find(k) {
                    s.remove(idx);
                    model.remove(&k);
                }
            } else {
                let payload = vec![(k as u8).wrapping_mul(31); len];
                match s.find(k) {
                    Ok(idx) => {
                        if s.update(idx, &payload).is_ok() {
                            model.insert(k, payload);
                        }
                    }
                    Err(_) => {
                        if s.insert(k, &payload).is_ok() {
                            model.insert(k, payload);
                        }
                    }
                }
            }
            // Invariants after every step.
            prop_assert_eq!(s.len(), model.len());
            for i in 1..s.len() {
                prop_assert!(s.key_at(i - 1) < s.key_at(i), "keys sorted");
            }
        }
        for (i, (k, v)) in model.iter().enumerate() {
            prop_assert_eq!(s.key_at(i), *k);
            prop_assert_eq!(s.payload_at(i), v.as_slice());
        }
    }

    /// Compaction reclaims every garbage byte while preserving the exact
    /// set of live records (keys, payloads, and sorted order).
    #[test]
    fn slotted_compact_preserves_live_records(
        ops in prop::collection::vec((0i64..64, 1usize..120, prop::bool::ANY), 1..200),
    ) {
        let mut page = PageBuf::zeroed();
        let mut s = Slotted::init(&mut page, 16);
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for (k, len, delete) in ops {
            if delete {
                if let Ok(idx) = s.find(k) {
                    s.remove(idx);
                    model.remove(&k);
                }
            } else {
                let payload = vec![(k as u8).wrapping_mul(17); len];
                match s.find(k) {
                    Ok(idx) => {
                        if s.update(idx, &payload).is_ok() {
                            model.insert(k, payload);
                        }
                    }
                    Err(_) => {
                        if s.insert(k, &payload).is_ok() {
                            model.insert(k, payload);
                        }
                    }
                }
            }
        }
        let free_before = s.total_free();
        s.compact();
        // Compaction reclaims all garbage into the contiguous region and
        // never loses (or invents) free space.
        prop_assert_eq!(s.total_free(), free_before);
        prop_assert_eq!(s.contiguous_free(), free_before);
        // Every live record survives, in key order, bytes intact.
        prop_assert_eq!(s.len(), model.len());
        for (i, (k, v)) in model.iter().enumerate() {
            prop_assert_eq!(s.key_at(i), *k);
            prop_assert_eq!(s.payload_at(i), v.as_slice());
        }
        // Compacting an already-compact page is a no-op.
        s.compact();
        for (i, (k, v)) in model.iter().enumerate() {
            prop_assert_eq!(s.key_at(i), *k);
            prop_assert_eq!(s.payload_at(i), v.as_slice());
        }
    }

    /// The multi-version read path agrees with a full-history model. The
    /// model is `BTreeMap<(key, commit_ts), Option<image>>` — every image a
    /// key ever had, stamped with the instant it became current (`None` =
    /// deleted). A snapshot read of `k` at `ts` must equal the model's
    /// newest entry at or before `(k, ts)`; the implementation resolves it
    /// through `VersionStore::visible` backed by the live B+tree. GC to a
    /// watermark `g` prunes dead versions, after which every read at
    /// `ts >= g` must *still* match the unpruned model — the direct
    /// statement of GC-watermark correctness.
    #[test]
    fn mvcc_reads_match_history_model(
        ops in prop::collection::vec(
            prop_oneof![
                (0i64..24, 1u8..255).prop_map(|(k, b)| MvccOp::Write(k, b)),
                (0i64..24).prop_map(MvccOp::Delete),
                (0i64..24, 0u8..101).prop_map(|(k, f)| MvccOp::Read(k, f)),
                (0u8..101).prop_map(MvccOp::Gc),
            ],
            1..300,
        ),
    ) {
        use cb_engine::{VersionStore, Visibility};
        use cb_sim::SimTime;

        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut alog = AccessLog::new();
        let mut versions = VersionStore::new();
        // Full, never-pruned history: (key, commit_ts) -> image after it.
        let mut model: BTreeMap<(i64, u64), Option<Vec<u8>>> = BTreeMap::new();
        // Base data exists "since forever" (commit_ts 0), unpublished —
        // exactly how a seeded Database starts.
        for k in 0..8i64 {
            let img = vec![k as u8; 4];
            tree.insert(&mut store, k, &img, &mut alog).unwrap();
            model.insert((k, 0), Some(img));
        }
        let mut now: u64 = 0;
        let mut wm: u64 = 0;

        let read_check = |tree: &BTree,
                          store: &PageStore,
                          versions: &VersionStore,
                          model: &BTreeMap<(i64, u64), Option<Vec<u8>>>,
                          alog: &mut AccessLog,
                          k: i64,
                          ts: u64|
         -> (Option<Vec<u8>>, Option<Vec<u8>>) {
            let got = match versions.visible((cb_store::TableId(0), k), SimTime::from_nanos(ts)) {
                Visibility::Latest => tree.get(store, k, alog).map(|p| p.to_vec()),
                Visibility::Image(img) => Some(img.to_vec()),
                Visibility::Absent => None,
            };
            let want = model
                .range((k, 0)..=(k, ts))
                .next_back()
                .and_then(|(_, img)| img.clone());
            (got, want)
        };

        for op in ops {
            now += 1;
            match op {
                MvccOp::Write(k, b) => {
                    let img = vec![b; 6];
                    let pre = tree.get(&store, k, &mut alog).map(|p| p.to_vec());
                    if pre.is_some() {
                        tree.update(&mut store, k, &img, &mut alog);
                    } else {
                        tree.insert(&mut store, k, &img, &mut alog).unwrap();
                    }
                    versions.publish(
                        (cb_store::TableId(0), k),
                        pre.as_deref(),
                        SimTime::from_nanos(now),
                    );
                    model.insert((k, now), Some(img));
                }
                MvccOp::Delete(k) => {
                    if let Some(pre) = tree.delete(&mut store, k, &mut alog) {
                        versions.publish(
                            (cb_store::TableId(0), k),
                            Some(&pre),
                            SimTime::from_nanos(now),
                        );
                        model.insert((k, now), None);
                    }
                }
                MvccOp::Read(k, frac) => {
                    // A snapshot anywhere in the live window [wm, now].
                    let ts = wm + (now - wm) * frac as u64 / 100;
                    let (got, want) =
                        read_check(&tree, &store, &versions, &model, &mut alog, k, ts);
                    prop_assert_eq!(got, want, "key {} at ts {} (now {})", k, ts, now);
                }
                MvccOp::Gc(frac) => {
                    let g = wm + (now - wm) * frac as u64 / 100;
                    versions.gc(SimTime::from_nanos(g));
                    wm = wm.max(g);
                    // GC must never disturb any read at or above the
                    // watermark: check the whole key space at both edges
                    // of the surviving window.
                    for k in 0..24i64 {
                        for ts in [wm, now] {
                            let (got, want) =
                                read_check(&tree, &store, &versions, &model, &mut alog, k, ts);
                            prop_assert_eq!(
                                got, want,
                                "post-GC(g={}) key {} at ts {} (now {})", g, k, ts, now
                            );
                        }
                    }
                }
            }
            alog.clear();
        }
        // Closing sweep: reads at `now` see exactly the tree's live state.
        for k in 0..24i64 {
            let (got, want) = read_check(&tree, &store, &versions, &model, &mut alog, k, now);
            prop_assert_eq!(got.as_deref(), want.as_deref(), "final key {}", k);
            prop_assert_eq!(got.as_deref(), tree.get(&store, k, &mut alog), "tree is latest {}", k);
        }
    }

    /// `Value`'s total order is consistent with equality and with the
    /// natural order of the underlying data: comparison of two values
    /// agrees with comparison of what they contain.
    #[test]
    fn value_ordering_matches_comparison(
        a in any::<i64>(),
        b in any::<i64>(),
        sa in "[a-z]{0,8}",
        sb in "[a-z]{0,8}",
    ) {
        use std::cmp::Ordering;
        // Same-type ordering delegates to the payload's order.
        prop_assert_eq!(Value::Int(a).cmp(&Value::Int(b)), a.cmp(&b));
        prop_assert_eq!(Value::Timestamp(a).cmp(&Value::Timestamp(b)), a.cmp(&b));
        prop_assert_eq!(
            Value::Text(sa.clone()).cmp(&Value::Text(sb.clone())),
            sa.as_str().cmp(sb.as_str())
        );
        // Consistency with equality and antisymmetry.
        let vals = [
            Value::Int(a),
            Value::Int(b),
            Value::Text(sa),
            Value::Text(sb),
            Value::Timestamp(a),
            Value::Timestamp(b),
        ];
        for x in &vals {
            for y in &vals {
                prop_assert_eq!(x.cmp(y) == Ordering::Equal, x == y);
                prop_assert_eq!(x.cmp(y).reverse(), y.cmp(x));
            }
        }
        // Sorting is deterministic (a total order admits exactly one sorted
        // arrangement of distinct values; ties are resolved by equality).
        let mut once = vals.to_vec();
        once.sort();
        let mut twice = once.clone();
        twice.sort();
        prop_assert_eq!(&once, &twice);
        for w in once.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// Row images round-trip for arbitrary value mixes, the borrowed view
    /// reads every column exactly as the decoder does, and it equals the
    /// row it encodes and no row one value, one type or one column away.
    #[test]
    fn row_codec_round_trip(
        key in any::<i64>(),
        texts in prop::collection::vec("[a-zA-Z0-9 ]{0,40}", 0..5),
        ints in prop::collection::vec(any::<i64>(), 0..5),
        cut in any::<u16>(),
    ) {
        let mut values = vec![Value::Int(key)];
        for t in texts { values.push(Value::Text(t)); }
        for i in ints { values.push(Value::Timestamp(i)); }
        let row = Row::new(values);
        let img = row.encode();
        prop_assert_eq!(&Row::decode(&img), &row);

        let view = RowRef::new(&img);
        prop_assert_eq!(view.len(), row.values.len());
        prop_assert_eq!(&view.to_row(), &row);
        prop_assert!(view == row);
        let at = cut as usize % row.values.len();
        let (mut value, mut ty) = (row.clone(), row.clone());
        (value.values[at], ty.values[at]) = match &row.values[at] {
            Value::Int(x) => (Value::Int(x ^ 1), Value::Timestamp(*x)),
            Value::Timestamp(x) => (Value::Timestamp(x ^ 1), Value::Int(*x)),
            Value::Text(s) => (Value::Text(format!("{s}.")), Value::Int(0)),
        };
        let (mut longer, mut shorter) = (row.clone(), row.clone());
        longer.values.push(Value::Int(0));
        shorter.values.pop();
        for other in [&value, &ty, &longer, &shorter] {
            prop_assert!(view != *other, "{view:?} vs {other:?}");
        }
        for (i, v) in row.values.iter().enumerate() {
            prop_assert_eq!(&view.value(i), v);
            // The accessor of the column's own type agrees; another type's
            // accessor panics.
            let (int, text, ts) = (
                catch_unwind(|| view.int(i)),
                catch_unwind(|| view.text(i)),
                catch_unwind(|| view.timestamp(i)),
            );
            match v {
                Value::Int(x) => {
                    prop_assert_eq!(int.ok(), Some(*x));
                    prop_assert!(text.is_err() && ts.is_err());
                }
                Value::Text(s) => {
                    prop_assert_eq!(text.ok(), Some(s.as_str()));
                    prop_assert!(int.is_err() && ts.is_err());
                }
                Value::Timestamp(x) => {
                    prop_assert_eq!(ts.ok(), Some(*x));
                    prop_assert!(int.is_err() && text.is_err());
                }
            }
        }

        // Truncate inside column `j`. A test build's `RowRef::new` walks the
        // image under `debug_assert!` and rejects it on entry; a release
        // build serves the columns before the cut and panics on `j` (the
        // walker's own unit test reaches that path in every build).
        let cut = 1 + cut as usize % (img.len() - 1);
        let mut ends = row.values.iter().scan(1usize, |end, v| {
            let mut one = Vec::new();
            v.encode_into(&mut one);
            *end += one.len();
            Some(*end)
        });
        let j = ends.position(|end| cut < end).expect("cut < img.len()");
        if cfg!(debug_assertions) {
            prop_assert!(catch_unwind(|| RowRef::new(&img[..cut])).is_err());
        } else {
            let short = RowRef::new(&img[..cut]);
            for (i, v) in row.values[..j].iter().enumerate() {
                prop_assert_eq!(&short.value(i), v);
            }
            prop_assert!(catch_unwind(|| short.value(j)).is_err());
            prop_assert!(catch_unwind(|| short.to_row()).is_err());
        }
    }

    /// The SQL parser is total: arbitrary input never panics, and either
    /// parses or reports a positioned error.
    #[test]
    fn parser_never_panics(input in "[ -~]{0,80}") {
        match parse(&input) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.pos <= input.len()),
        }
    }
}
