//! A clustered B+tree over fixed-size pages.
//!
//! Keys are `i64` primary keys; payloads are encoded row images stored in
//! slotted leaf pages. Internal nodes hold fixed-width `(key, child)`
//! separators. Every page the tree touches is reported, as it is touched, to
//! the caller's [`PageSink`] so the buffer pool can charge cache hits and
//! misses — the tree itself is oblivious to caching.
//!
//! Deletion is lazy (no rebalancing), the same pragmatic choice PostgreSQL
//! makes: pages may become sparse but never invalid. The CloudyBench
//! workloads insert and delete orderlines at similar rates, so occupancy
//! stays healthy.

use std::ops::Range;

use cb_store::{PageBuf, PageId, PageStore};

use crate::inline::InlineVec;
use crate::search::search;
use crate::slotted::{Slotted, SlottedRef};

const TYPE_LEAF: u8 = 0;
const TYPE_INTERNAL: u8 = 1;

const OFF_TYPE: usize = 0;
const OFF_NKEYS: usize = 2; // internal only
const OFF_NEXT_LEAF: usize = 8; // leaf only
const OFF_LEFT_CHILD: usize = 8; // internal only
const ENTRIES_BASE: usize = 16;
const ENTRY_BYTES: usize = 16; // key i64 + child u64

/// Maximum separator entries in an internal node.
pub const INTERNAL_CAPACITY: usize = (cb_store::PAGE_SIZE - ENTRIES_BASE) / ENTRY_BYTES;

/// Where a tree reports each page it touches, in the order it touches them.
/// Three sinks exist: [`crate::ExecCtx`] charges the access to its buffer
/// pool on the spot (served statements), an [`AccessLog`] records it (tests
/// and probes that inspect the pattern), and `Uncharged` drops it (bulk
/// load, recovery, oracles — work nobody is billed for).
pub trait PageSink {
    /// `page` was read, or modified when `write` is set.
    fn touch(&mut self, page: PageId, write: bool);
}

/// Records every page access the tree performs, in order, with a write flag.
pub type AccessLog = Vec<(PageId, bool)>;

impl PageSink for AccessLog {
    fn touch(&mut self, page: PageId, write: bool) {
        self.push((page, write));
    }
}

/// The sink for page accesses that carry no cost.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Uncharged;

impl PageSink for Uncharged {
    #[inline]
    fn touch(&mut self, _page: PageId, _write: bool) {}
}

/// Attempted insert of an existing key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DuplicateKey(pub i64);

fn is_leaf(page: &PageBuf) -> bool {
    page.as_bytes()[OFF_TYPE] == TYPE_LEAF
}

fn init_leaf(page: &mut PageBuf) {
    page.as_bytes_mut()[OFF_TYPE] = TYPE_LEAF;
    page.put_u64(OFF_NEXT_LEAF, PageId::INVALID.0);
    Slotted::init(page, ENTRIES_BASE);
}

/// Add `key -> payload` to a leaf: an append when `key` is above every key
/// present (no search, no slot shift), search and insert otherwise.
/// `Ok(false)` when the leaf has no room.
fn leaf_add(page: &mut PageBuf, key: i64, payload: &[u8]) -> Result<bool, DuplicateKey> {
    let mut s = Slotted::new(page, ENTRIES_BASE);
    let n = s.len();
    if n == 0 || s.key_at(n - 1) < key {
        return Ok(s.append(key, payload).is_ok());
    }
    leaf_insert(s, key, payload)
}

/// [`leaf_add`] of a key at or below the leaf's last key. Out of line, so
/// the append that bulk load runs once per row compiles to the same few
/// instructions whatever the node search inlines to.
#[inline(never)]
fn leaf_insert(mut s: Slotted<'_>, key: i64, payload: &[u8]) -> Result<bool, DuplicateKey> {
    match s.find(key) {
        Ok(_) => Err(DuplicateKey(key)),
        Err(pos) => Ok(s.insert_at(pos, key, payload).is_ok()),
    }
}

fn leaf_next(page: &PageBuf) -> PageId {
    PageId(page.get_u64(OFF_NEXT_LEAF))
}

fn set_leaf_next(page: &mut PageBuf, next: PageId) {
    page.put_u64(OFF_NEXT_LEAF, next.0);
}

fn init_internal(page: &mut PageBuf, left_child: PageId) {
    page.as_bytes_mut()[OFF_TYPE] = TYPE_INTERNAL;
    page.put_u16(OFF_NKEYS, 0);
    page.put_u64(OFF_LEFT_CHILD, left_child.0);
}

fn internal_nkeys(page: &PageBuf) -> usize {
    page.get_u16(OFF_NKEYS) as usize
}

fn internal_key(page: &PageBuf, i: usize) -> i64 {
    page.get_i64(ENTRIES_BASE + i * ENTRY_BYTES)
}

/// Child pointer `i` where 0 is the leftmost child and `i` in `1..=nkeys`
/// follows separator `i-1`.
fn internal_child(page: &PageBuf, i: usize) -> PageId {
    if i == 0 {
        PageId(page.get_u64(OFF_LEFT_CHILD))
    } else {
        PageId(page.get_u64(ENTRIES_BASE + (i - 1) * ENTRY_BYTES + 8))
    }
}

/// Index of the child to descend into for `key`: the number of separators
/// `<= key`.
fn internal_find_child(page: &PageBuf, key: i64) -> usize {
    let n = internal_nkeys(page);
    match search(page.as_bytes(), ENTRIES_BASE, ENTRY_BYTES, n, key) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

/// Insert separator `key` (with right child `child`) at position `idx`.
fn internal_insert_at(page: &mut PageBuf, idx: usize, key: i64, child: PageId) {
    let n = internal_nkeys(page);
    assert!(n < INTERNAL_CAPACITY, "internal node overflow");
    let src = ENTRIES_BASE + idx * ENTRY_BYTES;
    page.as_bytes_mut()
        .copy_within(src..ENTRIES_BASE + n * ENTRY_BYTES, src + ENTRY_BYTES);
    page.put_i64(src, key);
    page.put_u64(src + 8, child.0);
    page.put_u16(OFF_NKEYS, (n + 1) as u16);
}

/// A clustered B+tree rooted at a page.
#[derive(Clone)]
pub struct BTree {
    root: PageId,
}

/// Trees over 8 KiB pages stay under eight levels for any data that fits in
/// memory, so the path lives inline.
type DescentPath = InlineVec<(PageId, usize), 8>;

/// Result of a structural descent: the leaf holding (or that would hold) a
/// key, plus the internal path to it.
struct Descent {
    /// `(internal page, child index taken)` from root to the leaf's parent.
    path: DescentPath,
    leaf: PageId,
}

/// Leaf cursor for batched sorted ingest ([`BTree::insert_sorted`]).
///
/// Caches the leaf the previous insert landed in together with that leaf's
/// exclusive key upper bound (taken from the internal separators during the
/// descent). While keys arrive in ascending order and stay below the bound,
/// inserts go straight into the cached leaf — the root-to-leaf descent is
/// skipped entirely, which is the right-edge fast path when the cached leaf
/// is the rightmost one (bound `None` = +inf, so every monotone append
/// hits it until the page fills).
///
/// The cursor is only valid across consecutive `insert_sorted` calls on the
/// same tree: any other mutation of the tree (plain insert/update/delete)
/// can split or reshape the cached leaf, so callers must [`invalidate`]
/// (or drop) the cursor before interleaving other writes.
///
/// [`invalidate`]: BatchIngest::invalidate
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BatchIngest {
    cached: Option<IngestLeaf>,
}

#[derive(Clone, Copy, Debug)]
struct IngestLeaf {
    leaf: PageId,
    /// Exclusive upper bound of the leaf's key range (`None` = +inf).
    upper: Option<i64>,
    /// Last key inserted through the cursor (ascending-order gate).
    last_key: i64,
}

impl BatchIngest {
    /// A fresh (empty) cursor.
    pub(crate) fn new() -> Self {
        BatchIngest::default()
    }

    /// Forget the cached leaf. Must be called before any non-cursor
    /// mutation of the tree while the cursor stays live.
    pub(crate) fn invalidate(&mut self) {
        self.cached = None;
    }

    fn hits(&self, key: i64) -> Option<PageId> {
        let c = self.cached?;
        (key > c.last_key && c.upper.is_none_or(|u| key < u)).then_some(c.leaf)
    }
}

/// The walk of a range's leaf chain ([`BTree::leaf_ranges`]): each leaf's
/// view and the slots `start..end` of its records inside `[lo, hi]`.
/// `start` is searched in the first leaf only: every later leaf sits
/// entirely above `lo`. `end` is searched only in the leaf whose last key
/// exceeds `hi`, which ends the walk. A leaf is touched as the walk enters
/// it, so a caller that stops early touches no further leaf, and a range
/// that ends on a leaf's last key also enters the next non-empty leaf,
/// whose first key is what proves the range over.
struct LeafRanges<'s, 'l, L> {
    store: &'s PageStore,
    log: &'l mut L,
    /// The key to search `start` for, until the first leaf is entered.
    lo: Option<i64>,
    hi: i64,
    /// The leaf the walk enters next; invalid once it is over.
    next: PageId,
}

impl<'s, L: PageSink> Iterator for LeafRanges<'s, '_, L> {
    type Item = (SlottedRef<'s>, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if !self.next.is_valid() {
            return None;
        }
        let page = self.store.read(self.next);
        let s = SlottedRef::new(page, ENTRIES_BASE);
        let start = match self.lo.take() {
            // The descent touched the first leaf.
            Some(lo) => s.find(lo).unwrap_or_else(|i| i),
            None => {
                self.log.touch(self.next, false);
                0
            }
        };
        let len = s.len();
        if len > 0 && s.key_at(len - 1) > self.hi {
            self.next = PageId::INVALID;
            let end = s.find(self.hi).map_or_else(|i| i, |i| i + 1);
            return Some((s, start..end));
        }
        self.next = leaf_next(page);
        Some((s, start..len))
    }
}

impl BTree {
    /// Create an empty tree (one leaf page).
    pub fn create(store: &mut PageStore) -> BTree {
        let root = store.allocate();
        init_leaf(store.write(root));
        BTree { root }
    }

    /// Walk from the root to the leaf that holds (or would hold) `key`,
    /// reporting every page read. `step` sees each internal page and the
    /// child index taken in it; readers pass a no-op.
    fn walk(
        &self,
        store: &PageStore,
        key: i64,
        log: &mut impl PageSink,
        mut step: impl FnMut(PageId, &PageBuf, usize),
    ) -> PageId {
        let mut page_id = self.root;
        loop {
            let page = store.read(page_id);
            log.touch(page_id, false);
            if is_leaf(page) {
                return page_id;
            }
            let idx = internal_find_child(page, key);
            step(page_id, page, idx);
            page_id = internal_child(page, idx);
        }
    }

    fn find_leaf(&self, store: &PageStore, key: i64, log: &mut impl PageSink) -> PageId {
        self.walk(store, key, log, |_, _, _| {})
    }

    /// The leaf plus the path to it, for an insert that may have to split.
    fn descend(&self, store: &PageStore, key: i64, log: &mut impl PageSink) -> Descent {
        let mut path = DescentPath::new();
        let leaf = self.walk(store, key, log, |id, _, idx| path.push((id, idx)));
        Descent { path, leaf }
    }

    /// Look up `key`, returning its payload borrowed straight from the
    /// store's page — no page clone, no payload copy. Callers that need
    /// owned bytes (WAL images, caches) copy at their own boundary.
    pub fn get<'s>(
        &self,
        store: &'s PageStore,
        key: i64,
        log: &mut impl PageSink,
    ) -> Option<&'s [u8]> {
        let leaf = self.find_leaf(store, key, log);
        let s = SlottedRef::new(store.read(leaf), ENTRIES_BASE);
        s.find(key).ok().map(|i| s.payload_at(i))
    }

    /// True if `key` exists (no payload access at all).
    pub fn contains(&self, store: &PageStore, key: i64, log: &mut impl PageSink) -> bool {
        let leaf = self.find_leaf(store, key, log);
        SlottedRef::new(store.read(leaf), ENTRIES_BASE)
            .find(key)
            .is_ok()
    }

    /// Insert `key -> payload`. Splits as needed.
    pub fn insert(
        &mut self,
        store: &mut PageStore,
        key: i64,
        payload: &[u8],
        log: &mut impl PageSink,
    ) -> Result<(), DuplicateKey> {
        let d = self.descend(store, key, log);
        if leaf_add(store.write(d.leaf), key, payload)? {
            log.touch(d.leaf, true);
        } else {
            self.split_insert(store, &d, key, payload, log);
        }
        Ok(())
    }

    /// Split the full leaf `d.leaf`, place `key -> payload` in the half it
    /// belongs to and post the separator up `d.path`. Returns the leaf the
    /// record landed in and the separator.
    fn split_insert(
        &mut self,
        store: &mut PageStore,
        d: &Descent,
        key: i64,
        payload: &[u8],
        log: &mut impl PageSink,
    ) -> (PageId, i64) {
        let (sep, right_id) = self.split_leaf(store, d.leaf, log);
        let target = if key < sep { d.leaf } else { right_id };
        let placed = leaf_add(store.write(target), key, payload);
        assert_eq!(placed, Ok(true), "post-split leaf has room for one record");
        log.touch(target, true);
        self.propagate_split(store, &d.path, sep, right_id, log);
        (target, sep)
    }

    /// Like [`descend`](Self::descend), but also computes the exclusive key
    /// upper bound of the reached leaf from the separators along the path
    /// (`None` = the leaf is on the right edge, so +inf).
    fn descend_bounded(
        &self,
        store: &PageStore,
        key: i64,
        log: &mut impl PageSink,
    ) -> (Descent, Option<i64>) {
        let mut path = DescentPath::new();
        let mut upper = None;
        let leaf = self.walk(store, key, log, |id, page, idx| {
            // Child `idx` holds keys strictly below separator `idx`; the
            // rightmost child inherits the bound from above.
            if idx < internal_nkeys(page) {
                upper = Some(internal_key(page, idx));
            }
            path.push((id, idx));
        });
        (Descent { path, leaf }, upper)
    }

    /// Insert `key -> payload` through a [`BatchIngest`] cursor.
    ///
    /// For ascending key runs this amortizes the root-to-leaf descent: the
    /// first key of a run descends normally (caching the leaf and its upper
    /// bound); every following key that still belongs to the cached leaf is
    /// placed directly, logging only the single leaf write. Keys that leave
    /// the cached leaf's range, arrive out of order, or land on a full page
    /// fall back to the regular descent/split path and re-prime the cursor.
    ///
    /// Semantics are identical to [`insert`](Self::insert) for any input
    /// order; only the page-access pattern (and therefore speed) differs.
    pub(crate) fn insert_sorted(
        &mut self,
        store: &mut PageStore,
        cur: &mut BatchIngest,
        key: i64,
        payload: &[u8],
        log: &mut impl PageSink,
    ) -> Result<(), DuplicateKey> {
        if let Some(leaf) = cur.hits(key) {
            if leaf_add(store.write(leaf), key, payload)? {
                log.touch(leaf, true);
                cur.cached.as_mut().expect("cursor hit").last_key = key;
                return Ok(());
            }
            // Cached leaf is full: fall through to the descent/split path.
            cur.invalidate();
        }
        let (d, upper) = self.descend_bounded(store, key, log);
        let (leaf, upper) = if leaf_add(store.write(d.leaf), key, payload)? {
            log.touch(d.leaf, true);
            (d.leaf, upper)
        } else {
            let (leaf, sep) = self.split_insert(store, &d, key, payload, log);
            (leaf, if leaf == d.leaf { Some(sep) } else { upper })
        };
        cur.cached = Some(IngestLeaf {
            leaf,
            upper,
            last_key: key,
        });
        Ok(())
    }

    /// Replace the payload of `key`. Returns `false` if absent. May split if
    /// the new payload no longer fits.
    pub fn update(
        &mut self,
        store: &mut PageStore,
        key: i64,
        payload: &[u8],
        log: &mut impl PageSink,
    ) -> bool {
        let leaf = self.find_leaf(store, key, log);
        {
            let page = store.write(leaf);
            let mut s = Slotted::new(page, ENTRIES_BASE);
            match s.find(key) {
                Err(_) => return false,
                Ok(idx) => {
                    if s.update(idx, payload).is_ok() {
                        log.touch(leaf, true);
                        return true;
                    }
                }
            }
        }
        // Grow-in-full-page: delete + reinsert through the split path.
        let removed = self.delete(store, key, log);
        debug_assert!(removed.is_some());
        self.insert(store, key, payload, log)
            .expect("key was just deleted");
        true
    }

    /// Delete `key`, returning its old payload.
    pub fn delete(
        &mut self,
        store: &mut PageStore,
        key: i64,
        log: &mut impl PageSink,
    ) -> Option<Vec<u8>> {
        let leaf = self.find_leaf(store, key, log);
        let page = store.write(leaf);
        let mut s = Slotted::new(page, ENTRIES_BASE);
        match s.find(key) {
            Err(_) => None,
            Ok(idx) => {
                let old = s.payload_at(idx).to_vec();
                s.remove(idx);
                log.touch(leaf, true);
                Some(old)
            }
        }
    }

    /// The leaves that hold `[lo, hi]`, in key order, each with the slots
    /// of its records inside the range ([`LeafRanges`]). Descends to `lo`
    /// now, touching the path; nothing is touched when `lo > hi`.
    fn leaf_ranges<'s, 'l, L: PageSink>(
        &self,
        store: &'s PageStore,
        lo: i64,
        hi: i64,
        log: &'l mut L,
    ) -> LeafRanges<'s, 'l, L> {
        let next = if lo > hi {
            PageId::INVALID
        } else {
            self.find_leaf(store, lo, log)
        };
        LeafRanges {
            store,
            log,
            lo: Some(lo),
            hi,
            next,
        }
    }

    /// Visit `(key, payload)` for every record with `lo <= key <= hi`, in
    /// key order. Stops early if `f` returns `false`.
    pub fn scan_range(
        &self,
        store: &PageStore,
        lo: i64,
        hi: i64,
        log: &mut impl PageSink,
        mut f: impl FnMut(i64, &[u8]) -> bool,
    ) {
        // A closure, not `&mut f`: through the `&mut F` shim a large
        // visitor (the snapshot merge, the chaos diff) was left out of
        // line in the row loop, a call per row.
        #[allow(clippy::redundant_closure)]
        for (s, slots) in self.leaf_ranges(store, lo, hi, log) {
            if !s.for_each_in(slots, |k, p| f(k, p)) {
                return;
            }
        }
    }

    /// The number of records with `lo <= key <= hi`: the pages
    /// [`scan_range`](Self::scan_range) touches, without visiting a record.
    pub fn count_range(&self, store: &PageStore, lo: i64, hi: i64, log: &mut impl PageSink) -> u64 {
        self.leaf_ranges(store, lo, hi, log)
            .map(|(_, slots)| slots.len() as u64)
            .sum()
    }

    fn split_leaf(
        &mut self,
        store: &mut PageStore,
        leaf: PageId,
        log: &mut impl PageSink,
    ) -> (i64, PageId) {
        // The right sibling is built in place in its freshly allocated page:
        // no staging page, no second zeroed 8 KB.
        let right_id = store.allocate();
        let (left_page, right_page) = store.write_pair(leaf, right_id);
        init_leaf(right_page);
        let sep = Slotted::new(&mut *left_page, ENTRIES_BASE)
            .split_into(&mut Slotted::new(&mut *right_page, ENTRIES_BASE));
        set_leaf_next(right_page, leaf_next(left_page));
        set_leaf_next(left_page, right_id);
        log.touch(leaf, true);
        log.touch(right_id, true);
        (sep, right_id)
    }

    /// Walk back up `path` inserting the separator; splits internal nodes
    /// (and grows a new root) as needed.
    fn propagate_split(
        &mut self,
        store: &mut PageStore,
        path: &[(PageId, usize)],
        mut sep: i64,
        mut right: PageId,
        log: &mut impl PageSink,
    ) {
        for &(node, idx) in path.iter().rev() {
            let nkeys = internal_nkeys(store.read(node));
            if nkeys < INTERNAL_CAPACITY {
                internal_insert_at(store.write(node), idx, sep, right);
                log.touch(node, true);
                return;
            }
            // Split the internal node: middle key moves up, the entries
            // after it move as one block into a fresh right sibling.
            let new_right = store.allocate();
            let mid_key = {
                let (left, right_page) = store.write_pair(node, new_right);
                let mid = nkeys / 2;
                init_internal(right_page, internal_child(left, mid + 1));
                let moved =
                    ENTRIES_BASE + (mid + 1) * ENTRY_BYTES..ENTRIES_BASE + nkeys * ENTRY_BYTES;
                right_page.put_slice(ENTRIES_BASE, &left.as_bytes()[moved]);
                right_page.put_u16(OFF_NKEYS, (nkeys - mid - 1) as u16);
                left.put_u16(OFF_NKEYS, mid as u16);
                internal_key(left, mid)
            };
            // Insert the pending separator into the proper half.
            let (target, tgt_idx) = if sep < mid_key {
                (node, idx)
            } else {
                let mid = internal_nkeys(store.read(node));
                (new_right, idx - mid - 1)
            };
            internal_insert_at(store.write(target), tgt_idx, sep, right);
            log.touch(node, true);
            log.touch(new_right, true);
            sep = mid_key;
            right = new_right;
        }
        // Root split: grow the tree by one level.
        let new_root = store.allocate();
        let old_root = self.root;
        let page = store.write(new_root);
        init_internal(page, old_root);
        internal_insert_at(page, 0, sep, right);
        log.touch(new_root, true);
        self.root = new_root;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Height of the tree (1 = just a root leaf).
    fn height(tree: &BTree, store: &PageStore) -> usize {
        let mut h = 1;
        let mut page_id = tree.root;
        loop {
            let page = store.read(page_id);
            if is_leaf(page) {
                return h;
            }
            page_id = internal_child(page, 0);
            h += 1;
        }
    }

    /// Records with `lo <= key <= hi`, counted by
    /// [`count_range`](BTree::count_range) and held to a visitor sweep:
    /// the same number over the same page accesses.
    fn counted(tree: &BTree, store: &PageStore, lo: i64, hi: i64) -> u64 {
        let (mut count_log, mut visit_log) = (AccessLog::new(), AccessLog::new());
        let n = tree.count_range(store, lo, hi, &mut count_log);
        assert_eq!(
            visit_all(tree, store)(lo, hi, &mut visit_log),
            n,
            "[{lo}, {hi}]"
        );
        assert_eq!(count_log, visit_log, "[{lo}, {hi}]");
        n
    }

    /// Total number of records.
    fn count(tree: &BTree, store: &PageStore) -> u64 {
        counted(tree, store, i64::MIN, i64::MAX)
    }

    fn payload(k: i64) -> Vec<u8> {
        format!("payload-{k}").into_bytes()
    }

    fn build(keys: impl IntoIterator<Item = i64>) -> (PageStore, BTree) {
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut log = AccessLog::new();
        for k in keys {
            tree.insert(&mut store, k, &payload(k), &mut log).unwrap();
        }
        (store, tree)
    }

    #[test]
    fn empty_tree_lookups() {
        let (store, tree) = build([]);
        let mut log = AccessLog::new();
        assert_eq!(tree.get(&store, 1, &mut log), None);
        assert_eq!(count(&tree, &store), 0);
        assert_eq!(height(&tree, &store), 1);
    }

    #[test]
    fn insert_get_thousands_with_splits() {
        let n = 20_000i64;
        let (store, tree) = build(0..n);
        assert!(height(&tree, &store) >= 2, "tree should have split");
        let mut log = AccessLog::new();
        for k in [0, 1, n / 2, n - 1] {
            assert_eq!(tree.get(&store, k, &mut log), Some(payload(k).as_slice()));
        }
        assert_eq!(tree.get(&store, n, &mut log), None);
        assert_eq!(count(&tree, &store), n as u64);
    }

    #[test]
    fn reverse_and_shuffled_insert_orders() {
        let mut log = AccessLog::new();
        let (store, tree) = build((0..5000).rev());
        assert_eq!(count(&tree, &store), 5000);
        for k in [0i64, 4999, 2500] {
            assert_eq!(tree.get(&store, k, &mut log), Some(payload(k).as_slice()));
        }
        // Strided order exercises mid-page inserts.
        let keys: Vec<i64> = (0..5000)
            .map(|i| (i * 2654435761u64 % 5000) as i64)
            .collect();
        let mut seen = std::collections::HashSet::new();
        let uniq: Vec<i64> = keys.into_iter().filter(|k| seen.insert(*k)).collect();
        let (store2, tree2) = build(uniq.iter().copied());
        assert_eq!(count(&tree2, &store2), uniq.len() as u64);
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let (mut store, mut tree) = build([1, 2, 3]);
        let mut log = AccessLog::new();
        assert_eq!(
            tree.insert(&mut store, 2, b"x", &mut log),
            Err(DuplicateKey(2))
        );
        assert_eq!(tree.get(&store, 2, &mut log), Some(payload(2).as_slice()));
    }

    #[test]
    fn update_existing_and_missing() {
        let (mut store, mut tree) = build(0..100);
        let mut log = AccessLog::new();
        assert!(tree.update(&mut store, 50, b"new-value", &mut log));
        assert_eq!(
            tree.get(&store, 50, &mut log),
            Some(b"new-value".as_slice())
        );
        assert!(!tree.update(&mut store, 1000, b"nope", &mut log));
    }

    #[test]
    fn update_that_grows_payload_on_full_page() {
        // Fill leaves with chunky payloads, then grow one record so the page
        // must split through the delete+reinsert path.
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut log = AccessLog::new();
        let chunky = vec![7u8; 400];
        for k in 0..500 {
            tree.insert(&mut store, k, &chunky, &mut log).unwrap();
        }
        let grown = vec![9u8; 900];
        assert!(tree.update(&mut store, 250, &grown, &mut log));
        assert_eq!(tree.get(&store, 250, &mut log), Some(grown.as_slice()));
        assert_eq!(count(&tree, &store), 500);
    }

    #[test]
    fn delete_and_reinsert() {
        let (mut store, mut tree) = build(0..1000);
        let mut log = AccessLog::new();
        for k in (0..1000).step_by(3) {
            assert_eq!(tree.delete(&mut store, k, &mut log), Some(payload(k)));
        }
        assert_eq!(tree.delete(&mut store, 0, &mut log), None);
        assert_eq!(count(&tree, &store), 1000 - 334);
        for k in (0..1000).step_by(3) {
            tree.insert(&mut store, k, &payload(k), &mut log).unwrap();
        }
        assert_eq!(count(&tree, &store), 1000);
    }

    #[test]
    fn range_scan_in_order() {
        let (store, tree) = build((0..2000).map(|k| k * 2)); // even keys
        let mut log = AccessLog::new();
        let mut seen = Vec::new();
        tree.scan_range(&store, 100, 120, &mut log, |k, p| {
            assert_eq!(p, payload(k).as_slice());
            seen.push(k);
            true
        });
        assert_eq!(
            seen,
            vec![100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120]
        );
        // Early stop.
        let mut first = None;
        tree.scan_range(&store, 0, i64::MAX, &mut log, |k, _| {
            first = Some(k);
            false
        });
        assert_eq!(first, Some(0));
        // Empty range.
        let mut any = false;
        tree.scan_range(&store, 7, 7, &mut log, |_, _| {
            any = true;
            true
        });
        assert!(!any, "no odd keys present");
    }

    #[test]
    fn access_log_records_descent() {
        let (store, tree) = build(0..20_000);
        let mut log = AccessLog::new();
        tree.get(&store, 12345, &mut log);
        assert_eq!(log.len(), height(&tree, &store));
        assert!(log.iter().all(|(_, w)| !w));
        log.clear();
    }

    fn build_sorted(keys: impl IntoIterator<Item = i64>) -> (PageStore, BTree) {
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut cur = BatchIngest::new();
        let mut log = AccessLog::new();
        for k in keys {
            tree.insert_sorted(&mut store, &mut cur, k, &payload(k), &mut log)
                .unwrap();
        }
        (store, tree)
    }

    fn dump(store: &PageStore, tree: &BTree) -> Vec<(i64, Vec<u8>)> {
        let mut log = AccessLog::new();
        let mut out = Vec::new();
        tree.scan_range(store, i64::MIN, i64::MAX, &mut log, |k, p| {
            out.push((k, p.to_vec()));
            true
        });
        out
    }

    #[test]
    fn sorted_ingest_matches_plain_insert_for_any_order() {
        let n = 8000u64;
        let ascending: Vec<i64> = (0..n as i64).collect();
        let descending: Vec<i64> = (0..n as i64).rev().collect();
        // 2654435761 is odd and coprime to 5, hence to 8000: a bijection.
        let strided: Vec<i64> = (0..n).map(|i| (i * 2654435761 % n) as i64).collect();
        for keys in [ascending, descending, strided] {
            let (ps, pt) = build(keys.iter().copied());
            let (ss, st) = build_sorted(keys.iter().copied());
            assert_eq!(dump(&ps, &pt), dump(&ss, &st));
            assert_eq!(height(&pt, &ps), height(&st, &ss));
            // Same bytes, not only the same rows: every page image, in id
            // order, and the same page count.
            assert_eq!(ps.live_pages(), ss.live_pages());
            for id in (0..ps.live_pages() as u64).map(PageId) {
                assert!(
                    ps.read(id).as_bytes()[..] == ss.read(id).as_bytes()[..],
                    "page {id:?} differs"
                );
            }
        }
    }

    #[test]
    fn right_edge_append_amortizes_the_descent() {
        let n = 20_000i64;
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut cur = BatchIngest::new();
        let mut log = AccessLog::new();
        for k in 0..n {
            tree.insert_sorted(&mut store, &mut cur, k, &payload(k), &mut log)
                .unwrap();
        }
        assert!(height(&tree, &store) >= 2);
        // Plain inserts touch height+1 pages each (descent + leaf write);
        // the cursor collapses almost every append to one leaf write.
        assert!(
            (log.len() as i64) < n + n / 4,
            "fast path should skip most descents: {} accesses for {} keys",
            log.len(),
            n
        );
        // A cursor hit is exactly one page access, and it is a write.
        let mut k = n;
        loop {
            log.clear();
            tree.insert_sorted(&mut store, &mut cur, k, &payload(k), &mut log)
                .unwrap();
            if log.len() == 1 {
                break;
            }
            k += 1;
            assert!(k < n + 10, "a cursor hit must occur within one leaf fill");
        }
        assert!(log.iter().all(|(_, w)| *w));
    }

    #[test]
    fn cursor_respects_leaf_upper_bounds_mid_tree() {
        // Even keys build a multi-leaf tree; an ascending odd-key run then
        // starts in a middle leaf and must leave the cached leaf every time
        // it crosses a separator instead of appending past the bound.
        let (mut store, mut tree) = build((0..2000).map(|k| k * 2));
        assert!(height(&tree, &store) >= 2);
        let mut cur = BatchIngest::new();
        let mut log = AccessLog::new();
        for k in 0..2000 {
            tree.insert_sorted(
                &mut store,
                &mut cur,
                k * 2 + 1,
                &payload(k * 2 + 1),
                &mut log,
            )
            .unwrap();
        }
        assert_eq!(count(&tree, &store), 4000);
        // Every key remains reachable through a fresh descent.
        for k in 0..4000 {
            assert_eq!(
                tree.get(&store, k, &mut log),
                Some(payload(k).as_slice()),
                "key {k} misplaced"
            );
        }
    }

    #[test]
    fn sorted_ingest_rejects_duplicates_on_both_paths() {
        let (mut store, mut tree) = build([10, 12, 14]);
        let mut cur = BatchIngest::new();
        let mut log = AccessLog::new();
        // Descent path: key already present.
        assert_eq!(
            tree.insert_sorted(&mut store, &mut cur, 10, b"x", &mut log),
            Err(DuplicateKey(10))
        );
        // Prime the cursor, then collide through the cursor-hit path.
        tree.insert_sorted(&mut store, &mut cur, 11, &payload(11), &mut log)
            .unwrap();
        assert_eq!(
            tree.insert_sorted(&mut store, &mut cur, 12, b"x", &mut log),
            Err(DuplicateKey(12))
        );
        // The cursor stays usable afterwards.
        tree.insert_sorted(&mut store, &mut cur, 13, &payload(13), &mut log)
            .unwrap();
        assert_eq!(tree.get(&store, 12, &mut log), Some(payload(12).as_slice()));
        assert_eq!(tree.get(&store, 13, &mut log), Some(payload(13).as_slice()));
    }

    #[test]
    fn invalidated_cursor_survives_interleaved_mutations() {
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut cur = BatchIngest::new();
        let mut log = AccessLog::new();
        for k in 0..1000 {
            tree.insert_sorted(&mut store, &mut cur, k, &payload(k), &mut log)
                .unwrap();
        }
        // External mutation: per the contract, invalidate before touching
        // the tree outside the cursor.
        cur.invalidate();
        assert_eq!(tree.delete(&mut store, 500, &mut log), Some(payload(500)));
        for k in 1000..1100 {
            tree.insert_sorted(&mut store, &mut cur, k, &payload(k), &mut log)
                .unwrap();
        }
        // Out-of-order key after the run re-primes through the descent.
        tree.insert_sorted(&mut store, &mut cur, 500, &payload(500), &mut log)
            .unwrap();
        assert_eq!(count(&tree, &store), 1100);
        assert_eq!(
            tree.get(&store, 500, &mut log),
            Some(payload(500).as_slice())
        );
    }

    proptest::proptest! {
        /// The internal form of the node search, on a real separator array
        /// up to a full node: the child index is the number of separators
        /// at or below the key, as a binary search over them counts.
        #[test]
        fn internal_find_child_equals_binary_search(keys in crate::search::tests::any_key_set()) {
            let mut page = PageBuf::zeroed();
            init_internal(&mut page, PageId(0));
            let keys = &keys[..keys.len().min(INTERNAL_CAPACITY)];
            for (i, &k) in keys.iter().enumerate() {
                internal_insert_at(&mut page, i, k, PageId(i as u64 + 1));
            }
            for key in crate::search::tests::probes(keys) {
                let want = keys.partition_point(|&k| k <= key);
                proptest::prop_assert_eq!(internal_find_child(&page, key), want, "key {}", key);
            }
        }
    }

    /// The last key of every non-empty leaf, in chain order.
    fn leaf_last_keys(tree: &BTree, store: &PageStore) -> Vec<i64> {
        let mut leaf = tree.find_leaf(store, i64::MIN, &mut Uncharged);
        let mut last = Vec::new();
        while leaf.is_valid() {
            let s = SlottedRef::new(store.read(leaf), ENTRIES_BASE);
            last.extend((s.len() > 0).then(|| s.key_at(s.len() - 1)));
            leaf = leaf_next(store.read(leaf));
        }
        last
    }

    proptest::proptest! {
        /// On random trees, some with leaves emptied by a deleted run of
        /// keys, `count_range` counts what a visitor sweep visits, over the
        /// same page accesses and as many rows as the model holds: for
        /// inverted ranges, one-key ranges, ranges that end on each leaf's
        /// last key, ranges past the last key, the whole key space and
        /// random ranges.
        #[test]
        fn count_range_equals_the_visitor_sweep(
            keys in proptest::collection::vec(-5_000i64..5_000, 0..3_000),
            gap in -5_000i64..5_000,
            span in 0i64..2_000,
            ranges in proptest::collection::vec((-6_000i64..6_000, -10i64..3_000), 0..20),
        ) {
            let mut model: std::collections::BTreeSet<i64> = keys.into_iter().collect();
            let (mut store, mut tree) = build(model.iter().copied());
            for k in gap..gap + span {
                tree.delete(&mut store, k, &mut Uncharged);
                model.remove(&k);
            }
            let top = model.last().copied().unwrap_or(0);
            let mut probes = vec![
                (i64::MIN, i64::MAX),
                (1, 0),
                (i64::MAX, i64::MIN),
                (top, top),
                (top + 1, top + 100),
                (top - 100, i64::MAX),
            ];
            for k in leaf_last_keys(&tree, &store) {
                probes.extend([(k, k), (k - 50, k), (k + 1, k + 1)]);
            }
            probes.extend(ranges.iter().map(|&(lo, n)| (lo, lo + n)));
            for (lo, hi) in probes {
                let want = if lo > hi { 0 } else { model.range(lo..=hi).count() as u64 };
                proptest::prop_assert_eq!(counted(&tree, &store, lo, hi), want, "[{}, {}]", lo, hi);
            }
        }
    }

    /// FNV-1a-64 step over one 64-bit word.
    fn fnv(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    }

    /// The leaf a lookup of `key` lands on and the slot search's answer
    /// there (`Ok(slot)` or `Err(insert position)`).
    fn locate(
        tree: &BTree,
        store: &PageStore,
        key: i64,
        log: &mut AccessLog,
    ) -> (PageId, Result<usize, usize>) {
        let leaf = tree.find_leaf(store, key, log);
        (
            leaf,
            SlottedRef::new(store.read(leaf), ENTRIES_BASE).find(key),
        )
    }

    /// `(hits, digest)` of `keys` looked up in order: FNV-1a-64 over each
    /// lookup's access log `(page, write)` and the `(leaf, slot)` it lands
    /// on. `get` must agree with the slot found.
    fn lookup_digest(tree: &BTree, store: &PageStore, keys: &[i64]) -> (usize, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut hits = 0;
        let mut log = AccessLog::new();
        for &key in keys {
            log.clear();
            let (leaf, slot) = locate(tree, store, key, &mut log);
            for &(page, write) in &log {
                h = fnv(fnv(h, page.0), write as u64);
            }
            let slot = match slot {
                Ok(i) => {
                    hits += 1;
                    i as u64
                }
                Err(pos) => (1 << 32) | pos as u64,
            };
            h = fnv(fnv(h, leaf.0), slot);
            let mut get_log = AccessLog::new();
            let got = tree.get(store, key, &mut get_log);
            assert_eq!(got.is_some(), slot >> 32 == 0, "key {key}");
            assert_eq!(get_log, log, "key {key}: get walks the same pages");
        }
        (hits, h)
    }

    /// An ORDERS image shaped as the SF 1 generator writes it: six values,
    /// the status text one of three words.
    fn orders_image(rng: &mut cb_sim::DetRng, o_id: i64) -> Vec<u8> {
        use crate::value::{Row, Value};
        let status = ["NEW", "PAID", "SHIPPED"][rng.below(3) as usize];
        Row::new(vec![
            Value::Int(o_id),
            Value::Int(rng.range_inclusive(1, 300_000)),
            Value::Text(status.to_string()),
            Value::Int(rng.range_inclusive(100, 100_000)),
            Value::Timestamp(o_id * 1_000),
            Value::Timestamp(o_id * 1_000),
        ])
        .encode()
    }

    /// The point path, pinned: 10 000 seeded lookups (hits, misses on both
    /// sides and the `i64` extremes) on an SF 1 ORDERS tree loaded through
    /// the sorted-ingest cursor, then the same lookups after seeded inserts
    /// and deletes have split leaves mid-tree and left gaps. Each lookup's
    /// page accesses and the `(leaf, slot)` it lands on feed the digest, so
    /// a node search that answers differently anywhere fails here.
    #[test]
    fn point_lookups_are_pinned() {
        const ORDERS: i64 = 300_000;
        let mut rng = cb_sim::DetRng::seeded(2025);
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut cur = BatchIngest::new();
        for o_id in 1..=ORDERS {
            let image = orders_image(&mut rng, o_id);
            tree.insert_sorted(&mut store, &mut cur, o_id, &image, &mut Uncharged)
                .unwrap();
        }
        assert_eq!(height(&tree, &store), 3);
        let mut keys: Vec<i64> = (0..10_000)
            .map(|_| rng.range_inclusive(-50, ORDERS + 50))
            .collect();
        keys.extend([i64::MIN, i64::MIN + 1, 0, i64::MAX - 1, i64::MAX]);
        assert_eq!(
            (store.live_pages(), lookup_digest(&tree, &store, &keys)),
            (4_863, (9_994, 0xb8ef_1c24_1d09_f5c8))
        );
        for _ in 0..40_000 {
            let key = rng.range_inclusive(1, ORDERS + 100_000);
            if rng.chance(0.5) {
                tree.delete(&mut store, key, &mut Uncharged);
            } else if !tree.contains(&store, key, &mut Uncharged) {
                let image = orders_image(&mut rng, key);
                tree.insert(&mut store, key, &image, &mut Uncharged)
                    .unwrap();
            }
        }
        assert_eq!(
            (store.live_pages(), lookup_digest(&tree, &store, &keys)),
            (4_918, (9_508, 0xfe74_eaa2_81c3_0427))
        );
    }

    /// Leaves in the chain with no record left in them.
    fn empty_leaves(tree: &BTree, store: &PageStore) -> usize {
        let mut leaf = tree.find_leaf(store, i64::MIN, &mut Uncharged);
        let mut empty = 0;
        while leaf.is_valid() {
            let page = store.read(leaf);
            empty += usize::from(SlottedRef::new(page, ENTRIES_BASE).len() == 0);
            leaf = leaf_next(page);
        }
        empty
    }

    /// `(rows, digest)` of `sweeps` run in order through `sweep`, which
    /// returns the rows it counted: FNV-1a-64 over each sweep's access log
    /// `(page, write)` and its row count.
    fn sweep_digest(
        sweeps: &[(i64, i64)],
        mut sweep: impl FnMut(i64, i64, &mut AccessLog) -> u64,
    ) -> (u64, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut total = 0;
        let mut log = AccessLog::new();
        for &(lo, hi) in sweeps {
            log.clear();
            let rows = sweep(lo, hi, &mut log);
            for &(page, write) in &log {
                h = fnv(fnv(h, page.0), write as u64);
            }
            h = fnv(h, rows);
            total += rows;
        }
        (total, h)
    }

    /// A visitor sweep that reads nothing, as T5 runs it.
    fn visit_all<'a>(
        tree: &'a BTree,
        store: &'a PageStore,
    ) -> impl FnMut(i64, i64, &mut AccessLog) -> u64 + 'a {
        move |lo, hi, log| {
            let mut rows = 0;
            tree.scan_range(store, lo, hi, log, |_, _| {
                rows += 1;
                true
            });
            rows
        }
    }

    /// A [`BTree::count_range`] sweep.
    fn count_all<'a>(
        tree: &'a BTree,
        store: &'a PageStore,
    ) -> impl FnMut(i64, i64, &mut AccessLog) -> u64 + 'a {
        move |lo, hi, log| tree.count_range(store, lo, hi, log)
    }

    /// The range path, pinned: 2 000 seeded sweeps of 1–5 000 keys on an
    /// SF 1 ORDERS tree, as loaded and again after 40 000 seeded inserts
    /// and deletes, a quarter of them one contiguous run of deletes that
    /// empties leaves mid-chain. Each sweep's page accesses and row count
    /// feed the digest, so a walk that touches one page more or less, or
    /// counts one row differently, fails here.
    #[test]
    fn range_sweeps_are_pinned() {
        const ORDERS: i64 = 300_000;
        let mut rng = cb_sim::DetRng::seeded(4711);
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut cur = BatchIngest::new();
        for o_id in 1..=ORDERS {
            let image = orders_image(&mut rng, o_id);
            tree.insert_sorted(&mut store, &mut cur, o_id, &image, &mut Uncharged)
                .unwrap();
        }
        let sweeps = |rng: &mut cb_sim::DetRng, top: i64| -> Vec<(i64, i64)> {
            (0..2_000)
                .map(|_| {
                    let lo = rng.range_inclusive(-100, top + 100);
                    (lo, lo + rng.range_inclusive(1, 5_000) - 1)
                })
                .collect()
        };
        let loaded = sweeps(&mut rng, ORDERS);
        let pinned = (4_954_147, 0x0dbb_9817_1ab0_6608);
        assert_eq!(sweep_digest(&loaded, visit_all(&tree, &store)), pinned);
        assert_eq!(sweep_digest(&loaded, count_all(&tree, &store)), pinned);
        for i in 0..40_000 {
            if i % 4 == 0 {
                tree.delete(&mut store, 150_000 + i / 4, &mut Uncharged);
                continue;
            }
            let key = rng.range_inclusive(1, ORDERS + 100_000);
            if rng.chance(0.5) {
                tree.delete(&mut store, key, &mut Uncharged);
            } else if !tree.contains(&store, key, &mut Uncharged) {
                let image = orders_image(&mut rng, key);
                tree.insert(&mut store, key, &image, &mut Uncharged)
                    .unwrap();
            }
        }
        let churned = sweeps(&mut rng, ORDERS + 100_000);
        let pinned = (3_528_308, 0x2cc2_af4d_07f9_f9cf);
        assert_eq!(empty_leaves(&tree, &store), 61);
        assert_eq!(sweep_digest(&churned, visit_all(&tree, &store)), pinned);
        assert_eq!(sweep_digest(&churned, count_all(&tree, &store)), pinned);
    }

    #[test]
    fn model_check_against_btreemap() {
        use std::collections::BTreeMap;
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store);
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        let mut log = AccessLog::new();
        // Deterministic pseudo-random op mix.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..30_000 {
            let op = next() % 10;
            let key = (next() % 2000) as i64;
            match op {
                0..=4 => {
                    let val = format!("v{}", next()).into_bytes();
                    let r = tree.insert(&mut store, key, &val, &mut log);
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                        assert!(r.is_ok());
                        e.insert(val);
                    } else {
                        assert_eq!(r, Err(DuplicateKey(key)));
                    }
                }
                5..=6 => {
                    let val = format!("u{}", next()).into_bytes();
                    let r = tree.update(&mut store, key, &val, &mut log);
                    assert_eq!(r, model.contains_key(&key));
                    if r {
                        model.insert(key, val);
                    }
                }
                7..=8 => {
                    let r = tree.delete(&mut store, key, &mut log);
                    assert_eq!(r, model.remove(&key));
                }
                _ => {
                    assert_eq!(
                        tree.get(&store, key, &mut log),
                        model.get(&key).map(Vec::as_slice)
                    );
                }
            }
        }
        // Full-content comparison at the end.
        let mut scanned = Vec::new();
        tree.scan_range(&store, i64::MIN, i64::MAX, &mut log, |k, p| {
            scanned.push((k, p.to_vec()));
            true
        });
        let expected: Vec<(i64, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(scanned, expected);
    }
}
