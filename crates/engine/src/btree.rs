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

use cb_store::{PageBuf, PageId, PageStore};

use crate::inline::InlineVec;
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
/// and probes that inspect the pattern), and [`Uncharged`] drops it (bulk
/// load, index back-fill, recovery, oracles — work nobody is billed for).
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
pub struct Uncharged;

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
    let placed = if n == 0 || s.key_at(n - 1) < key {
        s.append(key, payload)
    } else if s.find(key).is_ok() {
        return Err(DuplicateKey(key));
    } else {
        s.insert(key, payload)
    };
    Ok(placed.is_ok())
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
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if internal_key(page, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
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
pub struct BatchIngest {
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
    pub fn new() -> Self {
        BatchIngest::default()
    }

    /// Forget the cached leaf. Must be called before any non-cursor
    /// mutation of the tree while the cursor stays live.
    pub fn invalidate(&mut self) {
        self.cached = None;
    }

    fn hits(&self, key: i64) -> Option<PageId> {
        let c = self.cached?;
        (key > c.last_key && c.upper.is_none_or(|u| key < u)).then_some(c.leaf)
    }
}

impl BTree {
    /// Create an empty tree (one leaf page).
    pub fn create(store: &mut PageStore) -> BTree {
        let root = store.allocate();
        init_leaf(store.write(root));
        BTree { root }
    }

    /// The current root page.
    pub fn root(&self) -> PageId {
        self.root
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
    pub fn insert_sorted(
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
        if lo > hi {
            return;
        }
        let mut leaf_id = self.find_leaf(store, lo, log);
        let mut first = true;
        while leaf_id.is_valid() {
            let page = store.read(leaf_id);
            if !first {
                log.touch(leaf_id, false);
            }
            let s = SlottedRef::new(page, ENTRIES_BASE);
            // Only the first leaf can hold keys below `lo`; every later
            // leaf in the chain sits entirely above it, so the binary
            // search is skipped there.
            let start = if first {
                s.find(lo).unwrap_or_else(|i| i)
            } else {
                0
            };
            first = false;
            if !s.for_each_from(start, |k, p| k <= hi && f(k, p)) {
                return;
            }
            leaf_id = leaf_next(page);
        }
    }

    /// Total number of records (full scan; O(n)).
    pub fn count(&self, store: &PageStore, log: &mut impl PageSink) -> u64 {
        let mut n = 0u64;
        self.scan_range(store, i64::MIN, i64::MAX, log, |_, _| {
            n += 1;
            true
        });
        n
    }

    /// Largest key in the tree, if any.
    pub fn max_key(&self, store: &PageStore, log: &mut impl PageSink) -> Option<i64> {
        // Descend along the rightmost spine.
        let mut page_id = self.root;
        let mut best = None;
        loop {
            let page = store.read(page_id);
            log.touch(page_id, false);
            if is_leaf(page) {
                let s = SlottedRef::new(page, ENTRIES_BASE);
                if !s.is_empty() {
                    best = Some(s.key_at(s.len() - 1));
                }
                // A rightmost leaf can be empty after deletions; walking back
                // is impossible without parent pointers, so scan as fallback.
                if best.is_none() {
                    let mut last = None;
                    self.scan_range(store, i64::MIN, i64::MAX, log, |k, _| {
                        last = Some(k);
                        true
                    });
                    best = last;
                }
                return best;
            }
            let n = internal_nkeys(page);
            page_id = internal_child(page, n);
        }
    }

    /// Height of the tree (1 = just a root leaf).
    pub fn height(&self, store: &PageStore) -> usize {
        let mut h = 1;
        let mut page_id = self.root;
        loop {
            let page = store.read(page_id);
            if is_leaf(page) {
                return h;
            }
            page_id = internal_child(page, 0);
            h += 1;
        }
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
        assert_eq!(tree.count(&store, &mut log), 0);
        assert_eq!(tree.max_key(&store, &mut log), None);
        assert_eq!(tree.height(&store), 1);
    }

    #[test]
    fn insert_get_thousands_with_splits() {
        let n = 20_000i64;
        let (store, tree) = build(0..n);
        assert!(tree.height(&store) >= 2, "tree should have split");
        let mut log = AccessLog::new();
        for k in [0, 1, n / 2, n - 1] {
            assert_eq!(tree.get(&store, k, &mut log), Some(payload(k).as_slice()));
        }
        assert_eq!(tree.get(&store, n, &mut log), None);
        assert_eq!(tree.count(&store, &mut log), n as u64);
        assert_eq!(tree.max_key(&store, &mut log), Some(n - 1));
    }

    #[test]
    fn reverse_and_shuffled_insert_orders() {
        let mut log = AccessLog::new();
        let (store, tree) = build((0..5000).rev());
        assert_eq!(tree.count(&store, &mut log), 5000);
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
        assert_eq!(tree2.count(&store2, &mut log), uniq.len() as u64);
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
        assert_eq!(tree.count(&store, &mut log), 500);
    }

    #[test]
    fn delete_and_reinsert() {
        let (mut store, mut tree) = build(0..1000);
        let mut log = AccessLog::new();
        for k in (0..1000).step_by(3) {
            assert_eq!(tree.delete(&mut store, k, &mut log), Some(payload(k)));
        }
        assert_eq!(tree.delete(&mut store, 0, &mut log), None);
        assert_eq!(tree.count(&store, &mut log), 1000 - 334);
        for k in (0..1000).step_by(3) {
            tree.insert(&mut store, k, &payload(k), &mut log).unwrap();
        }
        assert_eq!(tree.count(&store, &mut log), 1000);
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
        assert_eq!(log.len(), tree.height(&store));
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
            assert_eq!(pt.height(&ps), st.height(&ss));
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
        assert!(tree.height(&store) >= 2);
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
        assert!(tree.height(&store) >= 2);
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
        assert_eq!(tree.count(&store, &mut log), 4000);
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
        assert_eq!(tree.count(&store, &mut log), 1100);
        assert_eq!(
            tree.get(&store, 500, &mut log),
            Some(payload(500).as_slice())
        );
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
