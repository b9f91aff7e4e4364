//! A per-node buffer pool with a selectable page-replacement policy.
//!
//! Page content lives once in the cluster-wide [`cb_store::PageStore`]; what
//! differs per compute node is which pages are resident in its cache. The
//! pool tracks residency, recency, and dirtiness, and reports hits, misses
//! and dirty evictions so the execution layer can charge the right simulated
//! I/O costs. This is exactly the information the paper's buffer-size sweep
//! (Fig. 8) and the RDS dirty-page-flushing story depend on.
//!
//! Storage is a slab of intrusive-list nodes: every touch is O(1) pointer
//! surgery instead of the O(log n) remove+insert a stamp-ordered map would
//! pay. *Which* page gets evicted is a closed [`EvictionPolicyKind`] the
//! pool matches on — LRU (the default; eviction order and all counters
//! identical to the original stamp-based index), SIEVE and LRU-K(2) all run
//! over the same slab + free-list + two intrusive lists, so switching the
//! policy changes eviction decisions and nothing else. See DESIGN.md §16
//! for the per-policy victim rules and the determinism argument.

use cb_store::{IntMap, PageId};

/// Result of touching one page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// True if the page was already resident.
    pub hit: bool,
    /// If a dirty page had to be evicted to make room, its id — the caller
    /// owes a write-back I/O (on architectures that write pages at all).
    pub evicted_dirty: Option<PageId>,
}

/// Sentinel for "no neighbour" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// The main recency list (all policies) / the LRU-K probation segment.
const MAIN: usize = 0;
/// The LRU-K protected segment (pages touched at least twice).
const PROTECTED: usize = 1;

/// The selectable replacement policies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvictionPolicyKind {
    /// Least-recently-used: move-to-front on hit, evict the tail. The
    /// default, bit-identical to the pool before policies were selectable.
    #[default]
    Lru,
    /// SIEVE: hits only set a visited bit (no list movement); a persistent
    /// hand sweeps tail→head evicting the first unvisited page, clearing
    /// visited bits as it passes. New pages enter at the head unvisited.
    Sieve,
    /// LRU-K with K=2, in its O(1) segmented form: pages touched once sit
    /// in a probation FIFO, a second touch promotes to a protected LRU
    /// list; victims drain probation before protected.
    LruK,
}

impl EvictionPolicyKind {
    /// All selectable policies, in canonical order.
    pub fn all() -> [EvictionPolicyKind; 3] {
        [
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Sieve,
            EvictionPolicyKind::LruK,
        ]
    }

    /// Parse a CLI/props spelling ("lru", "sieve", "lru-k").
    pub fn parse(s: &str) -> Option<EvictionPolicyKind> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Some(EvictionPolicyKind::Lru),
            "sieve" => Some(EvictionPolicyKind::Sieve),
            "lru-k" | "lruk" | "lru2" => Some(EvictionPolicyKind::LruK),
            _ => None,
        }
    }

    /// Canonical lower-case label (also the obs counter suffix).
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicyKind::Lru => "lru",
            EvictionPolicyKind::Sieve => "sieve",
            EvictionPolicyKind::LruK => "lru-k",
        }
    }
}

#[derive(Clone, Copy)]
struct Node {
    id: PageId,
    prev: u32,
    next: u32,
    dirty: bool,
    /// SIEVE visited bit. Unused by LRU and LRU-K.
    visited: bool,
    /// Which intrusive list the node is on ([`MAIN`] or [`PROTECTED`]).
    list: u8,
}

#[derive(Clone, Copy)]
struct ListHead {
    head: u32,
    tail: u32,
}

impl ListHead {
    const EMPTY: ListHead = ListHead {
        head: NIL,
        tail: NIL,
    };
}

/// A buffer pool over page ids with a selectable [`EvictionPolicyKind`]
/// (default LRU): a node slab, its free-list, the residency map, and two
/// intrusive doubly-linked lists that every policy shares.
pub struct BufferPool {
    capacity: usize,
    policy: EvictionPolicyKind,
    /// SIEVE's persistent hand: the slot the next sweep starts from, or
    /// [`NIL`] to start at the tail. Always [`NIL`] under LRU and LRU-K.
    hand: u32,
    nodes: Vec<Node>,
    free: Vec<u32>,
    map: IntMap<PageId, u32>,
    lists: [ListHead; 2],
    hits: u64,
    misses: u64,
    dirty_evictions: u64,
}

impl BufferPool {
    /// An LRU pool holding at most `capacity` pages (min 1).
    pub fn new(capacity: usize) -> Self {
        BufferPool::with_policy(capacity, EvictionPolicyKind::Lru)
    }

    /// A pool with an explicit replacement policy.
    pub fn with_policy(capacity: usize, kind: EvictionPolicyKind) -> Self {
        BufferPool {
            capacity: capacity.max(1),
            policy: kind,
            hand: NIL,
            nodes: Vec::new(),
            free: Vec::new(),
            map: IntMap::default(),
            lists: [ListHead::EMPTY; 2],
            hits: 0,
            misses: 0,
            dirty_evictions: 0,
        }
    }

    /// The active replacement policy.
    pub fn policy_kind(&self) -> EvictionPolicyKind {
        self.policy
    }

    /// Switch the replacement policy. A no-op if `kind` is already active
    /// (so selecting the default never perturbs an LRU pool). Resident
    /// pages survive: they are re-linked into the main list in recency
    /// order (protected segment first) with visited bits cleared and the
    /// hand parked, which is deterministic — same pool state in, same pool
    /// state out.
    pub fn set_policy(&mut self, kind: EvictionPolicyKind) {
        if kind == self.policy {
            return;
        }
        let mut order: Vec<u32> = Vec::with_capacity(self.map.len());
        for l in [PROTECTED, MAIN] {
            let mut cur = self.lists[l].head;
            while cur != NIL {
                order.push(cur);
                cur = self.nodes[cur as usize].next;
            }
        }
        self.lists = [ListHead::EMPTY; 2];
        for &idx in order.iter().rev() {
            self.nodes[idx as usize].visited = false;
            self.push_front(MAIN, idx);
        }
        self.policy = kind;
        self.reset();
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if `id` is resident.
    pub fn contains(&self, id: PageId) -> bool {
        self.map.contains_key(&id)
    }

    /// Detach node `idx` from its list without freeing its slot.
    fn unlink(&mut self, idx: u32) {
        let Node {
            prev, next, list, ..
        } = self.nodes[idx as usize];
        let l = &mut self.lists[list as usize];
        if prev == NIL {
            l.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            l.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Make node `idx` the head of list `l`.
    fn push_front(&mut self, l: usize, idx: u32) {
        self.nodes[idx as usize].list = l as u8;
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.lists[l].head;
        if self.lists[l].head != NIL {
            self.nodes[self.lists[l].head as usize].prev = idx;
        }
        self.lists[l].head = idx;
        if self.lists[l].tail == NIL {
            self.lists[l].tail = idx;
        }
    }

    /// Allocate a slot for a new resident page (recycling freed slots).
    fn alloc(&mut self, id: PageId, dirty: bool) -> u32 {
        let node = Node {
            id,
            prev: NIL,
            next: NIL,
            dirty,
            visited: false,
            list: MAIN as u8,
        };
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// A resident page was touched.
    fn on_hit(&mut self, idx: u32) {
        match self.policy {
            EvictionPolicyKind::Lru => {
                if self.lists[MAIN].head != idx {
                    self.unlink(idx);
                    self.push_front(MAIN, idx);
                }
            }
            // Lazy promotion: a hit only sets the bit the hand will clear.
            EvictionPolicyKind::Sieve => self.nodes[idx as usize].visited = true,
            // A second touch promotes out of probation; protected hits
            // move to the front of the protected list.
            EvictionPolicyKind::LruK => {
                if self.nodes[idx as usize].list == MAIN as u8 || self.lists[PROTECTED].head != idx
                {
                    self.unlink(idx);
                    self.push_front(PROTECTED, idx);
                }
            }
        }
    }

    /// A freshly-allocated page (already in the map) joins the lists: every
    /// policy admits it at the head of the main list (SIEVE: unvisited, so
    /// it is among the first candidates the hand reaches).
    fn on_insert(&mut self, idx: u32) {
        self.push_front(MAIN, idx);
    }

    /// Choose the eviction victim (the pool is non-empty).
    fn victim(&mut self) -> u32 {
        match self.policy {
            EvictionPolicyKind::Lru => self.lists[MAIN].tail,
            EvictionPolicyKind::Sieve => self.sweep(),
            // Probation tail (the once-touched page whose single access is
            // oldest), else protected tail (the oldest last access among
            // twice-touched pages) — the backward-K-distance rule for K=2
            // with an LRU tie-break.
            EvictionPolicyKind::LruK => match self.lists[MAIN].tail {
                NIL => self.lists[PROTECTED].tail,
                t => t,
            },
        }
    }

    /// SIEVE's sweep: walk from the hand (or the tail when the hand is
    /// parked) toward the head, clearing visited bits, wrapping at the head,
    /// until an unvisited page is found. Leaves the hand on the victim's
    /// head-side neighbour so the next sweep resumes where this one stopped.
    /// Amortized O(1): each step clears a bit a hit set.
    fn sweep(&mut self) -> u32 {
        let mut h = self.hand;
        loop {
            if h == NIL {
                h = self.lists[MAIN].tail;
            }
            let node = &mut self.nodes[h as usize];
            if node.visited {
                node.visited = false;
                h = node.prev;
            } else {
                self.hand = node.prev;
                return h;
            }
        }
    }

    /// `idx` is about to leave the pool (eviction or invalidation) and is
    /// still linked: if SIEVE's hand points at it, advance the hand toward
    /// the head. The hand is [`NIL`] under LRU and LRU-K, so this never
    /// fires there.
    fn on_remove(&mut self, idx: u32) {
        if self.hand == idx {
            self.hand = self.nodes[idx as usize].prev;
        }
    }

    /// Forget all policy state: park SIEVE's hand (the only state any
    /// policy keeps outside the lists).
    fn reset(&mut self) {
        self.hand = NIL;
    }

    /// Unlink slot `idx` (already out of the map) and return it to the
    /// free-list.
    fn release(&mut self, idx: u32) {
        self.on_remove(idx);
        self.unlink(idx);
        self.free.push(idx);
    }

    /// Evict the policy's victim, returning its id if it was dirty.
    fn evict_one(&mut self) -> Option<PageId> {
        let victim_idx = self.victim();
        debug_assert_ne!(victim_idx, NIL, "pool non-empty");
        let victim = self.nodes[victim_idx as usize];
        self.map.remove(&victim.id);
        self.release(victim_idx);
        if victim.dirty {
            self.dirty_evictions += 1;
            Some(victim.id)
        } else {
            None
        }
    }

    /// Touch `id`, making it resident. `mark_dirty` flags the page as
    /// modified (only meaningful on architectures where the compute tier
    /// writes pages back).
    pub fn touch(&mut self, id: PageId, mark_dirty: bool) -> Access {
        if let Some(&idx) = self.map.get(&id) {
            self.nodes[idx as usize].dirty |= mark_dirty;
            self.on_hit(idx);
            self.hits += 1;
            return Access {
                hit: true,
                evicted_dirty: None,
            };
        }
        self.misses += 1;
        let mut evicted_dirty = None;
        if self.map.len() >= self.capacity {
            evicted_dirty = self.evict_one();
        }
        let idx = self.alloc(id, mark_dirty);
        self.map.insert(id, idx);
        self.on_insert(idx);
        Access {
            hit: false,
            evicted_dirty,
        }
    }

    /// Drop `id` from the cache without write-back (cache invalidation, used
    /// by the memory-disaggregated remote pool coherency protocol).
    pub fn invalidate(&mut self, id: PageId) {
        if let Some(idx) = self.map.remove(&id) {
            self.release(idx);
        }
    }

    /// Clear dirty flags and return the pages that were dirty (a checkpoint
    /// or clean shutdown; the caller charges the write-back I/O).
    pub fn flush_dirty(&mut self) -> Vec<PageId> {
        let mut flushed: Vec<PageId> = Vec::new();
        for (&id, &idx) in &self.map {
            let node = &mut self.nodes[idx as usize];
            if node.dirty {
                node.dirty = false;
                flushed.push(id);
            }
        }
        flushed.sort_unstable();
        flushed
    }

    /// Number of dirty resident pages.
    pub fn dirty_count(&self) -> usize {
        self.map
            .values()
            .filter(|&&idx| self.nodes[idx as usize].dirty)
            .count()
    }

    /// Change the capacity; shrinking evicts pages in policy order (dirty
    /// ones are returned for write-back — route them through
    /// [`crate::ExecCtx::resize_pool`] so the I/O is charged).
    pub fn resize(&mut self, capacity: usize) -> Vec<PageId> {
        self.capacity = capacity.max(1);
        let mut dirty_out = Vec::new();
        while self.map.len() > self.capacity {
            if let Some(dirty) = self.evict_one() {
                dirty_out.push(dirty);
            }
        }
        dirty_out
    }

    /// Drop everything (a node restart loses its cache — the cold-cache
    /// penalty after fail-over comes from here). The policy selection
    /// survives; SIEVE's hand is parked.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.map.clear();
        self.lists = [ListHead::EMPTY; 2];
        self.reset();
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty pages evicted so far (each cost a write-back).
    pub fn dirty_evictions(&self) -> u64 {
        self.dirty_evictions
    }

    /// Hit ratio in [0, 1]; 0 if never touched.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Walk both intrusive lists and cross-check them against the map,
    /// slab, and free-list: every resident page on exactly one list, all
    /// pointers coherent, every non-resident slot on the free-list. Test
    /// support for the policy proptests.
    #[doc(hidden)]
    pub fn check_integrity(&self) {
        let mut seen = 0usize;
        for l in [MAIN, PROTECTED] {
            let mut cur = self.lists[l].head;
            let mut prev = NIL;
            while cur != NIL {
                let n = &self.nodes[cur as usize];
                assert_eq!(n.prev, prev, "prev pointer coherent");
                assert_eq!(n.list as usize, l, "list tag matches");
                assert_eq!(self.map.get(&n.id), Some(&cur), "listed node is mapped");
                seen += 1;
                prev = cur;
                cur = n.next;
            }
            assert_eq!(self.lists[l].tail, prev, "tail pointer coherent");
        }
        assert_eq!(seen, self.map.len(), "every resident page listed");
        assert!(self.map.len() <= self.capacity, "capacity respected");
        assert_eq!(
            self.free.len() + self.map.len(),
            self.nodes.len(),
            "free-list accounts for every unmapped slot"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hit_and_miss_accounting() {
        let mut pool = BufferPool::new(4);
        assert!(!pool.touch(PageId(1), false).hit);
        assert!(pool.touch(PageId(1), false).hit);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 1);
        assert!((pool.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut pool = BufferPool::new(2);
        pool.touch(PageId(1), false);
        pool.touch(PageId(2), false);
        pool.touch(PageId(1), false); // 2 is now LRU
        pool.touch(PageId(3), false); // evicts 2
        assert!(pool.contains(PageId(1)));
        assert!(!pool.contains(PageId(2)));
        assert!(pool.contains(PageId(3)));
    }

    #[test]
    fn dirty_eviction_is_reported() {
        let mut pool = BufferPool::new(1);
        pool.touch(PageId(1), true);
        let a = pool.touch(PageId(2), false);
        assert_eq!(a.evicted_dirty, Some(PageId(1)));
        assert_eq!(pool.dirty_evictions(), 1);
        // Clean eviction reports nothing.
        let b = pool.touch(PageId(3), false);
        assert_eq!(b.evicted_dirty, None);
    }

    #[test]
    fn dirty_flag_is_sticky_until_flush() {
        let mut pool = BufferPool::new(4);
        pool.touch(PageId(1), true);
        pool.touch(PageId(1), false); // read does not clean it
        assert_eq!(pool.dirty_count(), 1);
        assert_eq!(pool.flush_dirty(), vec![PageId(1)]);
        assert_eq!(pool.dirty_count(), 0);
        assert!(pool.contains(PageId(1)), "flush keeps pages resident");
    }

    #[test]
    fn invalidate_removes_without_writeback() {
        let mut pool = BufferPool::new(4);
        pool.touch(PageId(1), true);
        pool.invalidate(PageId(1));
        assert!(!pool.contains(PageId(1)));
        assert_eq!(pool.dirty_evictions(), 0);
        // Invalidating a non-resident page is a no-op.
        pool.invalidate(PageId(99));
    }

    #[test]
    fn resize_shrink_evicts_and_returns_dirty() {
        let mut pool = BufferPool::new(4);
        pool.touch(PageId(1), true);
        pool.touch(PageId(2), false);
        pool.touch(PageId(3), true);
        let dirty = pool.resize(1);
        assert_eq!(pool.len(), 1);
        assert!(pool.contains(PageId(3)));
        assert_eq!(dirty, vec![PageId(1)]);
    }

    #[test]
    fn clear_simulates_restart() {
        let mut pool = BufferPool::new(4);
        pool.touch(PageId(1), false);
        pool.touch(PageId(2), true);
        pool.clear();
        assert!(pool.is_empty());
        assert!(!pool.touch(PageId(1), false).hit, "cold after restart");
    }

    #[test]
    fn working_set_larger_than_pool_thrashes() {
        let mut pool = BufferPool::new(10);
        for round in 0..3 {
            for k in 0..20u64 {
                let a = pool.touch(PageId(k), false);
                assert!(
                    !a.hit,
                    "round {round}: sequential working set of 2x capacity never hits"
                );
            }
        }
    }

    #[test]
    fn policy_kind_parse_label_roundtrip() {
        for kind in EvictionPolicyKind::all() {
            assert_eq!(EvictionPolicyKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(
            EvictionPolicyKind::parse("LRUK"),
            Some(EvictionPolicyKind::LruK)
        );
        assert_eq!(EvictionPolicyKind::parse("fifo"), None);
    }

    #[test]
    fn sieve_protects_visited_pages() {
        // Capacity 3: touch 1,2,3, re-touch 1 (visited), then insert 4.
        // The hand starts at the tail (page 1), sees it visited, clears the
        // bit, moves on to page 2 (unvisited) — the victim. Pure LRU would
        // have kept 2 and evicted... also 2; distinguish with a second
        // round: re-touch 1 again, insert 5 — SIEVE's hand resumes at 3 and
        // evicts it, while LRU would evict 3 too; the real divergence is
        // that 1 never moved, yet survives both rounds from tail position.
        let mut pool = BufferPool::with_policy(3, EvictionPolicyKind::Sieve);
        pool.touch(PageId(1), false);
        pool.touch(PageId(2), false);
        pool.touch(PageId(3), false);
        pool.touch(PageId(1), false); // sets visited, no movement
        let a = pool.touch(PageId(4), false);
        assert!(!a.hit);
        assert!(pool.contains(PageId(1)), "visited tail page survives");
        assert!(!pool.contains(PageId(2)), "first unvisited page evicted");
        pool.check_integrity();
    }

    #[test]
    fn sieve_hand_persists_across_evictions() {
        let mut pool = BufferPool::with_policy(3, EvictionPolicyKind::Sieve);
        for k in 1..=3u64 {
            pool.touch(PageId(k), false);
        }
        for k in 1..=3u64 {
            pool.touch(PageId(k), false); // all visited
        }
        // First eviction sweeps from the tail, clearing 1's bit, then 2's,
        // then 3's, wraps, and evicts 1 (oldest, now unvisited).
        pool.touch(PageId(4), false);
        assert!(!pool.contains(PageId(1)));
        // Hand now parks on 2's slot side; next eviction takes 2 directly.
        pool.touch(PageId(5), false);
        assert!(!pool.contains(PageId(2)));
        assert!(pool.contains(PageId(3)));
        pool.check_integrity();
    }

    #[test]
    fn lruk_scan_pages_never_displace_protected() {
        let mut pool = BufferPool::with_policy(4, EvictionPolicyKind::LruK);
        // 1 and 2 get promoted to the protected list.
        pool.touch(PageId(1), false);
        pool.touch(PageId(2), false);
        pool.touch(PageId(1), false);
        pool.touch(PageId(2), false);
        // A one-touch scan streams through; victims all come from probation.
        for k in 10..30u64 {
            pool.touch(PageId(k), false);
        }
        assert!(pool.contains(PageId(1)), "protected survives the scan");
        assert!(pool.contains(PageId(2)), "protected survives the scan");
        pool.check_integrity();
    }

    #[test]
    fn lruk_drains_protected_when_probation_empty() {
        let mut pool = BufferPool::with_policy(2, EvictionPolicyKind::LruK);
        pool.touch(PageId(1), false);
        pool.touch(PageId(2), false);
        pool.touch(PageId(1), false);
        pool.touch(PageId(2), false); // both protected, probation empty
        pool.touch(PageId(3), false); // must evict protected LRU = 1
        assert!(!pool.contains(PageId(1)));
        assert!(pool.contains(PageId(2)));
        pool.check_integrity();
    }

    #[test]
    fn set_policy_is_noop_for_same_kind_and_migrates_residents() {
        let mut pool = BufferPool::new(4);
        pool.touch(PageId(1), true);
        pool.touch(PageId(2), false);
        pool.set_policy(EvictionPolicyKind::Lru); // no-op
        assert_eq!(pool.policy_kind(), EvictionPolicyKind::Lru);
        pool.set_policy(EvictionPolicyKind::Sieve);
        assert_eq!(pool.policy_kind(), EvictionPolicyKind::Sieve);
        assert!(pool.contains(PageId(1)) && pool.contains(PageId(2)));
        assert_eq!(pool.dirty_count(), 1, "dirty flags survive the switch");
        pool.check_integrity();
        // And back, with LRU-K's two lists in between.
        pool.touch(PageId(3), false);
        pool.set_policy(EvictionPolicyKind::LruK);
        pool.touch(PageId(3), false); // promote 3
        pool.set_policy(EvictionPolicyKind::Lru);
        assert_eq!(pool.len(), 3);
        pool.check_integrity();
    }

    #[test]
    fn clear_preserves_policy_selection() {
        let mut pool = BufferPool::with_policy(2, EvictionPolicyKind::Sieve);
        pool.touch(PageId(1), false);
        pool.clear();
        assert_eq!(pool.policy_kind(), EvictionPolicyKind::Sieve);
        assert!(pool.is_empty());
        pool.touch(PageId(2), false);
        pool.check_integrity();
    }

    /// The intrusive list agrees with a reference stamp-based LRU (the old
    /// `BTreeMap<stamp, PageId>` index) on hits, eviction identity, and
    /// residency under mixed traffic, including slot recycling after
    /// invalidations — the counters the evaluators report are bit-identical.
    #[test]
    fn intrusive_lru_matches_stamp_model() {
        use std::collections::BTreeMap;
        struct Model {
            cap: usize,
            frames: HashMap<PageId, (u64, bool)>,
            lru: BTreeMap<u64, PageId>,
            next: u64,
        }
        impl Model {
            fn touch(&mut self, id: PageId, dirty: bool) -> (bool, Option<PageId>) {
                let stamp = self.next;
                self.next += 1;
                if let Some(f) = self.frames.get_mut(&id) {
                    self.lru.remove(&f.0);
                    f.0 = stamp;
                    f.1 |= dirty;
                    self.lru.insert(stamp, id);
                    return (true, None);
                }
                let mut ev = None;
                if self.frames.len() >= self.cap {
                    let (&vs, &v) = self.lru.iter().next().unwrap();
                    self.lru.remove(&vs);
                    let f = self.frames.remove(&v).unwrap();
                    if f.1 {
                        ev = Some(v);
                    }
                }
                self.frames.insert(id, (stamp, dirty));
                self.lru.insert(stamp, id);
                (false, ev)
            }
        }
        let mut pool = BufferPool::new(7);
        let mut model = Model {
            cap: 7,
            frames: HashMap::new(),
            lru: BTreeMap::new(),
            next: 0,
        };
        // Deterministic pseudo-random traffic over a working set ~5x capacity.
        let mut x = 0x243f_6a88u64;
        for step in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = PageId((x >> 33) & 0x1f);
            let dirty = x & 1 == 0;
            if step % 97 == 96 {
                pool.invalidate(id);
                if let Some(f) = model.frames.remove(&id) {
                    model.lru.remove(&f.0);
                }
                continue;
            }
            let a = pool.touch(id, dirty);
            let (hit, ev) = model.touch(id, dirty);
            assert_eq!(a.hit, hit, "step {step}");
            assert_eq!(a.evicted_dirty, ev, "step {step}");
        }
        assert_eq!(pool.len(), model.frames.len());
        for id in model.frames.keys() {
            assert!(pool.contains(*id));
        }
    }
}
