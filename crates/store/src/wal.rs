//! Write-ahead log records and the segmented log store.
//!
//! WAL records carry *logical* before/after images, which serves three
//! masters at once: ARIES-style recovery can redo and undo them, replicas
//! can replay them (and the lag-time evaluator can watch a specific change
//! become visible), and storage services that push redo processing down
//! (Aurora-style) can count exactly how much replay work moved off the
//! compute tier.
//!
//! The store keeps records in fixed-capacity *segments* rather than one
//! monolithic `Vec`: appends always land in the preallocated active tail
//! (no growth reallocation ever copies old records), checkpoint truncation
//! drops whole sealed segments from the front instead of shifting every
//! survivor left, and freed segment buffers are recycled for future tails.
//! This mirrors how production WALs manage preallocated segment files.

use std::collections::VecDeque;
use std::fmt;

/// Transaction identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxnId(pub u64);

/// Table identifier (assigned by the engine catalog).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TableId(pub u16);

/// Log sequence number. LSN 0 means "before any record".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The LSN before the first record.
    pub const ZERO: Lsn = Lsn(0);

    /// The next LSN.
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LSN({})", self.0)
    }
}

/// The logical operation a WAL record describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// Transaction start.
    Begin,
    /// Row inserted.
    Insert {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: i64,
        /// Serialized row image.
        row: Vec<u8>,
    },
    /// Row updated in place.
    Update {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: i64,
        /// Row image before the update (undo).
        before: Vec<u8>,
        /// Row image after the update (redo).
        after: Vec<u8>,
    },
    /// Row deleted.
    Delete {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: i64,
        /// Row image before deletion (undo).
        before: Vec<u8>,
    },
    /// Two-phase commit vote: the transaction's writes are durable on this
    /// participant and it will commit iff the coordinator decides commit.
    /// A transaction whose last durable record is a `Prepare` is *in doubt*
    /// at recovery — neither redone nor undone until the coordinator's
    /// decision resolves it (presumed-abort when no decision survives).
    Prepare {
        /// Global (cross-shard) transaction id assigned by the coordinator,
        /// used to look the decision up at recovery.
        gid: u64,
    },
    /// Transaction committed.
    Commit,
    /// Transaction rolled back.
    Abort,
    /// Fuzzy checkpoint: records how many dirty pages were flushed.
    Checkpoint {
        /// Dirty pages written back as part of this checkpoint.
        dirty_pages: u64,
    },
}

impl WalOp {
    /// True for the data-modifying variants (what replicas must replay).
    pub fn is_dml(&self) -> bool {
        matches!(
            self,
            WalOp::Insert { .. } | WalOp::Update { .. } | WalOp::Delete { .. }
        )
    }
}

/// One WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number (unique, dense, ascending).
    pub lsn: Lsn,
    /// Owning transaction.
    pub txn: TxnId,
    /// Logical operation.
    pub op: WalOp,
}

impl WalRecord {
    /// Approximate on-wire size in bytes (header + payload images), used for
    /// log-shipping bandwidth costs. Segment framing adds no per-record
    /// bytes on top of the codec frame (frames concatenate directly), so
    /// these values track the wire format within a fixed per-variant delta —
    /// pinned exactly by the `wire_size_tracks_approx_bytes` codec test.
    pub fn approx_bytes(&self) -> u64 {
        let header = 24u64;
        let payload = match &self.op {
            WalOp::Insert { row, .. } => 10 + row.len() as u64,
            WalOp::Update { before, after, .. } => 10 + (before.len() + after.len()) as u64,
            WalOp::Delete { before, .. } => 10 + before.len() as u64,
            WalOp::Begin | WalOp::Commit | WalOp::Abort => 0,
            WalOp::Prepare { .. } | WalOp::Checkpoint { .. } => 8,
        };
        header + payload
    }
}

/// Records per segment. Large enough that segment crossings are rare on the
/// append path, small enough that checkpoint truncation frees memory promptly.
pub const DEFAULT_SEGMENT_RECORDS: usize = 1024;

/// How many freed segment buffers the store keeps around for reuse.
const RECYCLE_POOL_CAP: usize = 4;

/// One log segment: a run of dense-LSN records.
///
/// `records[i].lsn == base + 1 + i`. Only the last segment (the active
/// tail) accepts appends; earlier segments are sealed.
#[derive(Clone)]
struct Segment {
    /// LSN immediately before this segment's first record.
    base: Lsn,
    records: Vec<WalRecord>,
}

impl Segment {
    /// LSN of the last record in this segment (== `base` when empty).
    fn last_lsn(&self) -> Lsn {
        Lsn(self.base.0 + self.records.len() as u64)
    }
}

/// An append-only segmented log with truncation at checkpoints.
///
/// Records before `truncated_through` have been truncated (their effects are
/// durable in the page store); all LSN arithmetic accounts for the offset.
/// Truncation is lazy within a segment: a partially-truncated front segment
/// keeps its dead prefix in place (accessors skip it via LSN arithmetic) and
/// is dropped wholesale once fully covered — no record is ever shifted.
#[derive(Clone)]
pub struct LogStore {
    /// Ordered segments; the last one is the active tail. Never empty.
    segments: VecDeque<Segment>,
    /// LSN of the first *live* record minus one.
    truncated_through: Lsn,
    /// LSN of the most recent record (== `truncated_through` when empty).
    head: Lsn,
    appended_bytes: u64,
    /// Freed segment buffers kept for reuse (cleared, capacity preserved).
    recycled: Vec<Vec<WalRecord>>,
    segment_cap: usize,
}

impl Default for LogStore {
    fn default() -> Self {
        LogStore::new()
    }
}

impl LogStore {
    /// An empty log with the default segment capacity.
    pub fn new() -> Self {
        LogStore::with_segment_capacity(DEFAULT_SEGMENT_RECORDS)
    }

    /// An empty log whose segments hold `cap` records each (tests use tiny
    /// capacities to exercise segment-edge behavior).
    pub fn with_segment_capacity(cap: usize) -> Self {
        assert!(cap > 0, "segment capacity must be positive");
        let mut segments = VecDeque::with_capacity(4);
        segments.push_back(Segment {
            base: Lsn::ZERO,
            records: Vec::with_capacity(cap),
        });
        LogStore {
            segments,
            truncated_through: Lsn::ZERO,
            head: Lsn::ZERO,
            appended_bytes: 0,
            recycled: Vec::new(),
            segment_cap: cap,
        }
    }

    /// Number of segments currently held (including the active tail).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Freed segment buffers waiting for reuse.
    pub fn recycled_segments(&self) -> usize {
        self.recycled.len()
    }

    /// Append an operation for `txn`; returns the assigned LSN.
    ///
    /// Always lands in the preallocated active tail; when the tail is full
    /// it is sealed and a fresh tail is opened from the recycle pool.
    pub fn append(&mut self, txn: TxnId, op: WalOp) -> Lsn {
        let lsn = self.head.next();
        let rec = WalRecord { lsn, txn, op };
        self.appended_bytes += rec.approx_bytes();
        let tail = self.segments.back_mut().expect("log has a tail segment");
        if tail.records.len() < self.segment_cap {
            tail.records.push(rec);
        } else {
            let mut records = self.recycled.pop().unwrap_or_default();
            records.reserve_exact(self.segment_cap.saturating_sub(records.capacity()));
            records.push(rec);
            self.segments.push_back(Segment {
                base: self.head,
                records,
            });
        }
        self.head = lsn;
        lsn
    }

    /// The LSN of the most recent record (ZERO if empty since birth).
    pub fn head(&self) -> Lsn {
        self.head
    }

    /// All retained records with `lsn > after`, in order, as a borrowing
    /// iterator (exact-size, cloneable — no records are copied).
    pub fn records_after(&self, after: Lsn) -> RecordsAfter<'_> {
        if after < self.truncated_through {
            panic!(
                "records before {:?} were truncated (requested after {:?})",
                self.truncated_through, after
            );
        }
        let mut slabs = self.slabs_after(after);
        let current = slabs.next().unwrap_or(&[]);
        RecordsAfter {
            remaining: self.head.0.saturating_sub(after.0) as usize,
            current: current.iter(),
            slabs,
        }
    }

    /// The retained records with `lsn > after` as contiguous per-segment
    /// slices, in order. Partitioned replay iterates these slabs directly.
    pub fn slabs_after(&self, after: Lsn) -> Slabs<'_> {
        if after < self.truncated_through {
            panic!(
                "records before {:?} were truncated (requested after {:?})",
                self.truncated_through, after
            );
        }
        // First segment whose last record is past `after`; everything before
        // it is entirely at or below `after`.
        let start = self.segments.partition_point(|seg| seg.last_lsn() <= after);
        Slabs {
            segments: self.segments.range(start..),
            after,
        }
    }

    /// Fetch one record by LSN if retained.
    pub fn get(&self, lsn: Lsn) -> Option<&WalRecord> {
        if lsn <= self.truncated_through || lsn > self.head {
            return None;
        }
        // Fast path: the hot caller fetches the record it just appended,
        // which lives in the active tail.
        let tail = self.segments.back().expect("log has a tail segment");
        let seg = if lsn > tail.base {
            tail
        } else {
            let idx = self.segments.partition_point(|seg| seg.last_lsn() < lsn);
            &self.segments[idx]
        };
        Some(&seg.records[(lsn.0 - seg.base.0 - 1) as usize])
    }

    /// Drop all records with `lsn <= through` (checkpoint truncation).
    ///
    /// Whole dead segments are dropped from the front and their buffers
    /// recycled; a segment straddling `through` stays put with its dead
    /// prefix skipped lazily. O(segments dropped), never shifts records.
    pub fn truncate_through(&mut self, through: Lsn) {
        if through <= self.truncated_through {
            return;
        }
        self.truncated_through = through;
        if through >= self.head {
            // Everything is dead: reset to a single empty tail based at
            // `through` so the next append continues the sequence from there.
            self.head = through;
            while self.segments.len() > 1 {
                let seg = self.segments.pop_front().expect("len checked");
                self.recycle(seg.records);
            }
            let tail = self.segments.back_mut().expect("log has a tail segment");
            tail.base = through;
            tail.records.clear();
            return;
        }
        while self.segments.len() > 1
            && self.segments.front().expect("len checked").last_lsn() <= through
        {
            let seg = self.segments.pop_front().expect("len checked");
            self.recycle(seg.records);
        }
    }

    /// Crash simulation: drop every record with `lsn > after` — the
    /// un-flushed (or torn) log tail that never reached durable storage.
    /// Returns the number of records lost. The next append reuses the freed
    /// LSNs, exactly as a restarted engine continuing from the durable head
    /// would. `appended_bytes` is *not* rewound: it counts bytes ever
    /// submitted, which is what bandwidth statistics want.
    pub fn discard_after(&mut self, after: Lsn) -> u64 {
        if after >= self.head {
            return 0;
        }
        assert!(
            after >= self.truncated_through,
            "cannot discard into the truncated prefix ({:?} < {:?})",
            after,
            self.truncated_through
        );
        let dropped = self.head.0 - after.0;
        // Pop whole dead tail segments, then cut within the survivor. The
        // surviving segment re-opens as the (possibly short) active tail.
        while self.segments.len() > 1 && self.segments.back().expect("len checked").base >= after {
            let seg = self.segments.pop_back().expect("len checked");
            self.recycle(seg.records);
        }
        let tail = self.segments.back_mut().expect("log has a tail segment");
        tail.records
            .truncate(after.0.saturating_sub(tail.base.0) as usize);
        self.head = after;
        dropped
    }

    /// Number of retained (live) records.
    pub fn retained(&self) -> usize {
        (self.head.0 - self.truncated_through.0) as usize
    }

    /// Total bytes ever appended (for log-volume statistics).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// First LSN still retained, if any.
    pub fn oldest_retained(&self) -> Option<Lsn> {
        (self.head > self.truncated_through).then(|| self.truncated_through.next())
    }

    fn recycle(&mut self, mut records: Vec<WalRecord>) {
        if self.recycled.len() < RECYCLE_POOL_CAP {
            records.clear();
            self.recycled.push(records);
        }
    }
}

/// Borrowing iterator over retained records past a given LSN.
///
/// Exact-size (LSNs are dense) and cloneable, so redo passes can walk the
/// log twice without materializing an owned `Vec`.
#[derive(Clone)]
pub struct RecordsAfter<'a> {
    remaining: usize,
    current: std::slice::Iter<'a, WalRecord>,
    slabs: Slabs<'a>,
}

impl<'a> Iterator for RecordsAfter<'a> {
    type Item = &'a WalRecord;

    fn next(&mut self) -> Option<&'a WalRecord> {
        loop {
            if let Some(rec) = self.current.next() {
                self.remaining -= 1;
                return Some(rec);
            }
            self.current = self.slabs.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RecordsAfter<'_> {}

/// Iterator over contiguous per-segment record slices past a given LSN.
#[derive(Clone)]
pub struct Slabs<'a> {
    segments: std::collections::vec_deque::Iter<'a, Segment>,
    after: Lsn,
}

impl<'a> Iterator for Slabs<'a> {
    type Item = &'a [WalRecord];

    fn next(&mut self) -> Option<&'a [WalRecord]> {
        for seg in self.segments.by_ref() {
            // Only the first yielded segment can straddle `after`; later
            // segments start past it and the skip computes to zero.
            let skip = self.after.0.saturating_sub(seg.base.0) as usize;
            let slab = &seg.records[skip.min(seg.records.len())..];
            if !slab.is_empty() {
                return Some(slab);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert_op(key: i64) -> WalOp {
        WalOp::Insert {
            table: TableId(1),
            key,
            row: vec![0u8; 32],
        }
    }

    fn collect(log: &LogStore, after: Lsn) -> Vec<WalRecord> {
        log.records_after(after).cloned().collect()
    }

    #[test]
    fn lsns_are_dense_and_ascending() {
        let mut log = LogStore::new();
        let a = log.append(TxnId(1), WalOp::Begin);
        let b = log.append(TxnId(1), insert_op(1));
        let c = log.append(TxnId(1), WalOp::Commit);
        assert_eq!(a, Lsn(1));
        assert_eq!(b, Lsn(2));
        assert_eq!(c, Lsn(3));
        assert_eq!(log.head(), Lsn(3));
    }

    #[test]
    fn records_after_filters_correctly() {
        let mut log = LogStore::new();
        for k in 0..5 {
            log.append(TxnId(1), insert_op(k));
        }
        assert_eq!(log.records_after(Lsn(2)).len(), 3);
        assert_eq!(log.records_after(Lsn(2)).next().unwrap().lsn, Lsn(3));
        assert_eq!(log.records_after(Lsn(5)).len(), 0);
        assert_eq!(log.records_after(Lsn::ZERO).len(), 5);
    }

    #[test]
    fn records_after_iterator_is_exact_size_across_segments() {
        let mut log = LogStore::with_segment_capacity(3);
        for k in 0..10 {
            log.append(TxnId(1), insert_op(k));
        }
        for after in 0..=10u64 {
            let iter = log.records_after(Lsn(after));
            assert_eq!(iter.len(), (10 - after) as usize);
            let lsns: Vec<u64> = iter.map(|r| r.lsn.0).collect();
            let want: Vec<u64> = (after + 1..=10).collect();
            assert_eq!(lsns, want, "after {after}");
        }
    }

    #[test]
    fn truncation_preserves_lsn_arithmetic() {
        let mut log = LogStore::new();
        for k in 0..10 {
            log.append(TxnId(1), insert_op(k));
        }
        log.truncate_through(Lsn(4));
        assert_eq!(log.retained(), 6);
        assert_eq!(log.oldest_retained(), Some(Lsn(5)));
        assert_eq!(log.head(), Lsn(10));
        // Appends continue from the same sequence.
        assert_eq!(log.append(TxnId(2), WalOp::Commit), Lsn(11));
        assert_eq!(log.records_after(Lsn(9)).len(), 2);
        // Re-truncating earlier is a no-op.
        log.truncate_through(Lsn(2));
        assert_eq!(log.retained(), 7);
    }

    #[test]
    fn truncation_drops_and_recycles_whole_segments() {
        let mut log = LogStore::with_segment_capacity(4);
        for k in 0..17 {
            log.append(TxnId(1), insert_op(k));
        }
        assert_eq!(log.segment_count(), 5);
        // LSN 6 lands mid-segment: segment 1 (LSNs 1-4) drops, segment 2
        // (LSNs 5-8) stays with a dead prefix.
        log.truncate_through(Lsn(6));
        assert_eq!(log.segment_count(), 4);
        assert_eq!(log.recycled_segments(), 1);
        assert_eq!(log.retained(), 11);
        assert_eq!(log.oldest_retained(), Some(Lsn(7)));
        assert_eq!(collect(&log, Lsn(6)).first().unwrap().lsn, Lsn(7));
        // Truncating everything resets to one empty tail, recycling the rest.
        log.truncate_through(Lsn(17));
        assert_eq!(log.segment_count(), 1);
        assert_eq!(log.retained(), 0);
        assert_eq!(log.head(), Lsn(17));
        assert_eq!(log.append(TxnId(2), WalOp::Commit), Lsn(18));
    }

    #[test]
    fn sealed_tail_reuses_recycled_buffers() {
        let mut log = LogStore::with_segment_capacity(2);
        for k in 0..8 {
            log.append(TxnId(1), insert_op(k));
        }
        log.truncate_through(Lsn(6));
        let pool = log.recycled_segments();
        assert!(pool >= 1);
        // Filling the tail seals it and pulls a recycled buffer.
        for k in 8..12 {
            log.append(TxnId(1), insert_op(k));
        }
        assert!(log.recycled_segments() < pool);
        assert_eq!(collect(&log, Lsn(6)).len(), 6);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn reading_truncated_range_panics() {
        let mut log = LogStore::new();
        for k in 0..5 {
            log.append(TxnId(1), insert_op(k));
        }
        log.truncate_through(Lsn(3));
        let _ = log.records_after(Lsn(1));
    }

    #[test]
    fn get_by_lsn() {
        let mut log = LogStore::new();
        log.append(TxnId(1), WalOp::Begin);
        log.append(TxnId(1), insert_op(7));
        assert!(matches!(
            log.get(Lsn(2)).map(|r| &r.op),
            Some(WalOp::Insert { key: 7, .. })
        ));
        assert!(log.get(Lsn(3)).is_none());
        log.truncate_through(Lsn(1));
        assert!(log.get(Lsn(1)).is_none());
        assert!(log.get(Lsn(2)).is_some());
    }

    #[test]
    fn get_by_lsn_across_segments() {
        let mut log = LogStore::with_segment_capacity(3);
        for k in 0..11 {
            log.append(TxnId(1), insert_op(k));
        }
        for lsn in 1..=11u64 {
            let rec = log.get(Lsn(lsn)).expect("retained");
            assert_eq!(rec.lsn, Lsn(lsn));
        }
        log.truncate_through(Lsn(4));
        assert!(log.get(Lsn(4)).is_none());
        assert_eq!(log.get(Lsn(5)).unwrap().lsn, Lsn(5));
        assert_eq!(log.get(Lsn(11)).unwrap().lsn, Lsn(11));
    }

    #[test]
    fn discard_after_drops_the_unflushed_tail() {
        let mut log = LogStore::new();
        for k in 0..8 {
            log.append(TxnId(1), insert_op(k));
        }
        assert_eq!(log.discard_after(Lsn(5)), 3);
        assert_eq!(log.head(), Lsn(5));
        assert_eq!(log.retained(), 5);
        // LSNs continue densely from the surviving head.
        assert_eq!(log.append(TxnId(2), WalOp::Commit), Lsn(6));
        // Discarding at or past the head is a no-op.
        assert_eq!(log.discard_after(Lsn(6)), 0);
        assert_eq!(log.discard_after(Lsn(99)), 0);
    }

    #[test]
    fn discard_after_pops_whole_tail_segments() {
        let mut log = LogStore::with_segment_capacity(3);
        for k in 0..11 {
            log.append(TxnId(1), insert_op(k));
        }
        assert_eq!(log.segment_count(), 4);
        // Cut back into the second segment: two full segments + the short
        // tail die, and the survivor re-opens as the active tail.
        assert_eq!(log.discard_after(Lsn(4)), 7);
        assert_eq!(log.segment_count(), 2);
        assert_eq!(log.head(), Lsn(4));
        assert_eq!(log.append(TxnId(2), WalOp::Commit), Lsn(5));
        let lsns: Vec<u64> = log.records_after(Lsn::ZERO).map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn discard_after_composes_with_truncation() {
        let mut log = LogStore::new();
        for k in 0..10 {
            log.append(TxnId(1), insert_op(k));
        }
        log.truncate_through(Lsn(4));
        assert_eq!(log.discard_after(Lsn(7)), 3);
        assert_eq!(log.head(), Lsn(7));
        assert_eq!(log.oldest_retained(), Some(Lsn(5)));
        assert_eq!(log.records_after(Lsn(4)).len(), 3);
    }

    #[test]
    #[should_panic(expected = "truncated prefix")]
    fn discard_into_truncated_prefix_panics() {
        let mut log = LogStore::new();
        for k in 0..6 {
            log.append(TxnId(1), insert_op(k));
        }
        log.truncate_through(Lsn(4));
        let _ = log.discard_after(Lsn(2));
    }

    #[test]
    fn slabs_are_contiguous_and_cover_the_range() {
        let mut log = LogStore::with_segment_capacity(4);
        for k in 0..14 {
            log.append(TxnId(1), insert_op(k));
        }
        log.truncate_through(Lsn(2));
        let slabs: Vec<&[WalRecord]> = log.slabs_after(Lsn(3)).collect();
        assert!(slabs.len() >= 3, "expected multiple segment slabs");
        let flat: Vec<u64> = slabs
            .iter()
            .flat_map(|s| s.iter().map(|r| r.lsn.0))
            .collect();
        let want: Vec<u64> = (4..=14).collect();
        assert_eq!(flat, want);
    }

    #[test]
    fn approx_bytes_scales_with_images() {
        let small = WalRecord {
            lsn: Lsn(1),
            txn: TxnId(1),
            op: WalOp::Commit,
        };
        let big = WalRecord {
            lsn: Lsn(2),
            txn: TxnId(1),
            op: WalOp::Update {
                table: TableId(1),
                key: 1,
                before: vec![0; 100],
                after: vec![0; 100],
            },
        };
        assert!(big.approx_bytes() > small.approx_bytes() + 150);
    }

    #[test]
    fn dml_classification() {
        assert!(insert_op(1).is_dml());
        assert!(!WalOp::Commit.is_dml());
        assert!(!WalOp::Checkpoint { dirty_pages: 0 }.is_dml());
    }
}
