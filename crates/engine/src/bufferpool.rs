//! A per-node buffer pool with pluggable page-replacement policies.
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
//! pay. *Which* page gets evicted is delegated to an [`EvictionPolicy`] —
//! LRU (the default; eviction order and all counters identical to the
//! original stamp-based index), SIEVE, CLOCK, and LRU-K(2) all run over the
//! same slab + free-list + intrusive-list core, so swapping the policy
//! changes eviction decisions and nothing else. See DESIGN.md §16 for the
//! per-policy victim rules and the determinism argument.

use cb_store::{IntMap, PageId, PAGE_SIZE};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvictionPolicyKind {
    /// Least-recently-used: move-to-front on hit, evict the tail. The
    /// default, bit-identical to the pool before policies were pluggable.
    Lru,
    /// SIEVE: hits only set a visited bit (no list movement); a persistent
    /// hand sweeps tail→head evicting the first unvisited page, clearing
    /// visited bits as it passes. New pages enter at the head unvisited.
    Sieve,
    /// CLOCK (second-chance FIFO): like SIEVE's sweep, but new pages enter
    /// with their reference bit set, so every page survives at least one
    /// full pass of the hand.
    Clock,
    /// LRU-K with K=2, in its O(1) segmented form: pages touched once sit
    /// in a probation FIFO, a second touch promotes to a protected LRU
    /// list; victims drain probation before protected.
    LruK,
}

impl EvictionPolicyKind {
    /// All selectable policies, in canonical order.
    pub fn all() -> [EvictionPolicyKind; 4] {
        [
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Sieve,
            EvictionPolicyKind::Clock,
            EvictionPolicyKind::LruK,
        ]
    }

    /// Parse a CLI/props spelling ("lru", "sieve", "clock", "lru-k").
    pub fn parse(s: &str) -> Option<EvictionPolicyKind> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Some(EvictionPolicyKind::Lru),
            "sieve" => Some(EvictionPolicyKind::Sieve),
            "clock" => Some(EvictionPolicyKind::Clock),
            "lru-k" | "lruk" | "lru2" => Some(EvictionPolicyKind::LruK),
            _ => None,
        }
    }

    /// Canonical lower-case label (also the obs counter suffix).
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicyKind::Lru => "lru",
            EvictionPolicyKind::Sieve => "sieve",
            EvictionPolicyKind::Clock => "clock",
            EvictionPolicyKind::LruK => "lru-k",
        }
    }

    fn build(self) -> Box<dyn EvictionPolicy> {
        match self {
            EvictionPolicyKind::Lru => Box::new(Lru),
            EvictionPolicyKind::Sieve => Box::new(Sieve { hand: NIL }),
            EvictionPolicyKind::Clock => Box::new(Clock { hand: NIL }),
            EvictionPolicyKind::LruK => Box::new(LruK),
        }
    }
}

#[derive(Clone, Copy)]
struct Node {
    id: PageId,
    prev: u32,
    next: u32,
    dirty: bool,
    /// SIEVE visited / CLOCK reference bit. Unused by LRU and LRU-K.
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

/// The policy-agnostic storage of a [`BufferPool`]: the node slab, the
/// free-list, the residency map, and two intrusive doubly-linked lists.
/// Policies manipulate it only through the O(1) accessors below, so every
/// policy inherits the same slot-recycling and pointer discipline.
pub struct PoolCore {
    nodes: Vec<Node>,
    free: Vec<u32>,
    map: IntMap<PageId, u32>,
    lists: [ListHead; 2],
}

impl PoolCore {
    fn new() -> Self {
        PoolCore {
            nodes: Vec::new(),
            free: Vec::new(),
            map: IntMap::default(),
            lists: [ListHead::EMPTY; 2],
        }
    }

    /// Head (most recently inserted/used end) of list `l`.
    pub fn head(&self, l: usize) -> u32 {
        self.lists[l].head
    }

    /// Tail (oldest end, the usual victim side) of list `l`.
    pub fn tail(&self, l: usize) -> u32 {
        self.lists[l].tail
    }

    /// The neighbour of `idx` toward the head of its list.
    pub fn prev(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].prev
    }

    /// Which list `idx` is on.
    pub fn list_of(&self, idx: u32) -> usize {
        self.nodes[idx as usize].list as usize
    }

    /// The visited/reference bit of `idx`.
    pub fn visited(&self, idx: u32) -> bool {
        self.nodes[idx as usize].visited
    }

    /// Set the visited/reference bit of `idx`.
    pub fn set_visited(&mut self, idx: u32, v: bool) {
        self.nodes[idx as usize].visited = v;
    }

    /// Detach node `idx` from its list without freeing its slot.
    pub fn unlink(&mut self, idx: u32) {
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
    pub fn push_front(&mut self, l: usize, idx: u32) {
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
}

/// A replacement policy over the shared [`PoolCore`]. All callbacks are
/// O(1) (the SIEVE/CLOCK sweep is amortized O(1): each step clears a bit a
/// hit set). `on_remove` runs *before* the node is unlinked, so policies
/// can repair hands that point at the departing slot.
pub trait EvictionPolicy: Send {
    /// Which selectable policy this is.
    fn kind(&self) -> EvictionPolicyKind;
    /// A resident page was touched.
    fn on_hit(&mut self, core: &mut PoolCore, idx: u32);
    /// A freshly-allocated page (already in the map) joins the lists.
    fn on_insert(&mut self, core: &mut PoolCore, idx: u32);
    /// Choose the eviction victim (the pool is non-empty).
    fn victim(&mut self, core: &mut PoolCore) -> u32;
    /// `idx` is about to leave the pool (eviction or invalidation); still
    /// linked when called.
    fn on_remove(&mut self, core: &mut PoolCore, idx: u32);
    /// Forget all policy state (pool restart).
    fn reset(&mut self);
}

/// Classic LRU — bit-identical to the pool before policies were pluggable.
struct Lru;

impl EvictionPolicy for Lru {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::Lru
    }
    fn on_hit(&mut self, core: &mut PoolCore, idx: u32) {
        if core.head(MAIN) != idx {
            core.unlink(idx);
            core.push_front(MAIN, idx);
        }
    }
    fn on_insert(&mut self, core: &mut PoolCore, idx: u32) {
        core.push_front(MAIN, idx);
    }
    fn victim(&mut self, core: &mut PoolCore) -> u32 {
        core.tail(MAIN)
    }
    fn on_remove(&mut self, _core: &mut PoolCore, _idx: u32) {}
    fn reset(&mut self) {}
}

/// Shared SIEVE/CLOCK sweep: walk from the hand (or the tail when the hand
/// is parked) toward the head, clearing visited bits, wrapping at the head,
/// until an unvisited page is found. Leaves the hand on the victim's
/// head-side neighbour so the next sweep resumes where this one stopped.
fn sweep(hand: &mut u32, core: &mut PoolCore) -> u32 {
    let mut h = if *hand == NIL { core.tail(MAIN) } else { *hand };
    loop {
        if h == NIL {
            h = core.tail(MAIN);
        }
        if core.visited(h) {
            core.set_visited(h, false);
            h = core.prev(h);
        } else {
            *hand = core.prev(h);
            return h;
        }
    }
}

/// If the hand points at the departing node, advance it toward the head.
fn repair_hand(hand: &mut u32, core: &PoolCore, departing: u32) {
    if *hand == departing {
        *hand = core.prev(departing);
    }
}

/// SIEVE: lazy promotion (hits set a bit), quick demotion (new pages enter
/// unvisited and are the first candidates the hand reaches).
struct Sieve {
    hand: u32,
}

impl EvictionPolicy for Sieve {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::Sieve
    }
    fn on_hit(&mut self, core: &mut PoolCore, idx: u32) {
        core.set_visited(idx, true);
    }
    fn on_insert(&mut self, core: &mut PoolCore, idx: u32) {
        core.push_front(MAIN, idx);
    }
    fn victim(&mut self, core: &mut PoolCore) -> u32 {
        sweep(&mut self.hand, core)
    }
    fn on_remove(&mut self, core: &mut PoolCore, idx: u32) {
        repair_hand(&mut self.hand, core, idx);
    }
    fn reset(&mut self) {
        self.hand = NIL;
    }
}

/// CLOCK: the second-chance FIFO. Identical sweep to SIEVE; the one
/// behavioural difference is that new pages enter with the reference bit
/// set, so everything survives at least one full hand pass.
struct Clock {
    hand: u32,
}

impl EvictionPolicy for Clock {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::Clock
    }
    fn on_hit(&mut self, core: &mut PoolCore, idx: u32) {
        core.set_visited(idx, true);
    }
    fn on_insert(&mut self, core: &mut PoolCore, idx: u32) {
        core.push_front(MAIN, idx);
        core.set_visited(idx, true);
    }
    fn victim(&mut self, core: &mut PoolCore) -> u32 {
        sweep(&mut self.hand, core)
    }
    fn on_remove(&mut self, core: &mut PoolCore, idx: u32) {
        repair_hand(&mut self.hand, core, idx);
    }
    fn reset(&mut self) {
        self.hand = NIL;
    }
}

/// LRU-K (K=2) in its O(1) two-segment form: first touch lands in the
/// probation FIFO ([`MAIN`]); a second touch promotes to the protected LRU
/// list; protected hits move-to-front. Victim = probation tail (the page
/// with <2 accesses whose single access is oldest), else protected tail
/// (the oldest last-access among twice-touched pages) — exactly the
/// backward-K-distance rule for K=2 with an LRU tie-break.
struct LruK;

impl EvictionPolicy for LruK {
    fn kind(&self) -> EvictionPolicyKind {
        EvictionPolicyKind::LruK
    }
    fn on_hit(&mut self, core: &mut PoolCore, idx: u32) {
        if core.list_of(idx) == MAIN || core.head(PROTECTED) != idx {
            core.unlink(idx);
            core.push_front(PROTECTED, idx);
        }
    }
    fn on_insert(&mut self, core: &mut PoolCore, idx: u32) {
        core.push_front(MAIN, idx);
    }
    fn victim(&mut self, core: &mut PoolCore) -> u32 {
        let t = core.tail(MAIN);
        if t != NIL {
            t
        } else {
            core.tail(PROTECTED)
        }
    }
    fn on_remove(&mut self, _core: &mut PoolCore, _idx: u32) {}
    fn reset(&mut self) {}
}

/// A buffer pool over page ids with a selectable [`EvictionPolicy`]
/// (default LRU).
pub struct BufferPool {
    capacity: usize,
    core: PoolCore,
    policy: Box<dyn EvictionPolicy>,
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
            core: PoolCore::new(),
            policy: kind.build(),
            hits: 0,
            misses: 0,
            dirty_evictions: 0,
        }
    }

    /// An LRU pool sized in bytes (e.g. the paper's 128 MB / 44 MB / 10 GB
    /// configurations).
    pub fn with_bytes(bytes: u64) -> Self {
        BufferPool::new((bytes / PAGE_SIZE as u64).max(1) as usize)
    }

    /// The active replacement policy.
    pub fn policy_kind(&self) -> EvictionPolicyKind {
        self.policy.kind()
    }

    /// Switch the replacement policy. A no-op if `kind` is already active
    /// (so selecting the default never perturbs an LRU pool). Resident
    /// pages survive: they are re-linked into the main list in recency
    /// order (protected segment first) with visited bits cleared, which is
    /// deterministic — same pool state in, same pool state out.
    pub fn set_policy(&mut self, kind: EvictionPolicyKind) {
        if kind == self.policy.kind() {
            return;
        }
        let mut order: Vec<u32> = Vec::with_capacity(self.core.map.len());
        for l in [PROTECTED, MAIN] {
            let mut cur = self.core.head(l);
            while cur != NIL {
                order.push(cur);
                cur = self.core.nodes[cur as usize].next;
            }
        }
        self.core.lists = [ListHead::EMPTY; 2];
        for &idx in order.iter().rev() {
            self.core.nodes[idx as usize].visited = false;
            self.core.push_front(MAIN, idx);
        }
        self.policy = kind.build();
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.core.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.core.map.is_empty()
    }

    /// True if `id` is resident.
    pub fn contains(&self, id: PageId) -> bool {
        self.core.map.contains_key(&id)
    }

    /// Evict the policy's victim, returning its id if it was dirty.
    fn evict_one(&mut self) -> Option<PageId> {
        let victim_idx = self.policy.victim(&mut self.core);
        debug_assert_ne!(victim_idx, NIL, "pool non-empty");
        let victim = self.core.nodes[victim_idx as usize];
        self.policy.on_remove(&mut self.core, victim_idx);
        self.core.unlink(victim_idx);
        self.core.map.remove(&victim.id);
        self.core.free.push(victim_idx);
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
        if let Some(&idx) = self.core.map.get(&id) {
            self.core.nodes[idx as usize].dirty |= mark_dirty;
            self.policy.on_hit(&mut self.core, idx);
            self.hits += 1;
            return Access {
                hit: true,
                evicted_dirty: None,
            };
        }
        self.misses += 1;
        let mut evicted_dirty = None;
        if self.core.map.len() >= self.capacity {
            evicted_dirty = self.evict_one();
        }
        let idx = self.core.alloc(id, mark_dirty);
        self.core.map.insert(id, idx);
        self.policy.on_insert(&mut self.core, idx);
        Access {
            hit: false,
            evicted_dirty,
        }
    }

    /// Drop `id` from the cache without write-back (cache invalidation, used
    /// by the memory-disaggregated remote pool coherency protocol).
    pub fn invalidate(&mut self, id: PageId) {
        if let Some(idx) = self.core.map.remove(&id) {
            self.policy.on_remove(&mut self.core, idx);
            self.core.unlink(idx);
            self.core.free.push(idx);
        }
    }

    /// Clear dirty flags and return the pages that were dirty (a checkpoint
    /// or clean shutdown; the caller charges the write-back I/O).
    pub fn flush_dirty(&mut self) -> Vec<PageId> {
        let mut flushed: Vec<PageId> = Vec::new();
        for (&id, &idx) in &self.core.map {
            let node = &mut self.core.nodes[idx as usize];
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
        self.core
            .map
            .values()
            .filter(|&&idx| self.core.nodes[idx as usize].dirty)
            .count()
    }

    /// Change the capacity; shrinking evicts pages in policy order (dirty
    /// ones are returned for write-back — route them through
    /// [`crate::ExecCtx::resize_pool`] so the I/O is charged).
    pub fn resize(&mut self, capacity: usize) -> Vec<PageId> {
        self.capacity = capacity.max(1);
        let mut dirty_out = Vec::new();
        while self.core.map.len() > self.capacity {
            if let Some(dirty) = self.evict_one() {
                dirty_out.push(dirty);
            }
        }
        dirty_out
    }

    /// Drop everything (a node restart loses its cache — the cold-cache
    /// penalty after fail-over comes from here). The policy selection
    /// survives; its sweep state is reset.
    pub fn clear(&mut self) {
        self.core.nodes.clear();
        self.core.free.clear();
        self.core.map.clear();
        self.core.lists = [ListHead::EMPTY; 2];
        self.policy.reset();
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
            let mut cur = self.core.head(l);
            let mut prev = NIL;
            while cur != NIL {
                let n = &self.core.nodes[cur as usize];
                assert_eq!(n.prev, prev, "prev pointer coherent");
                assert_eq!(n.list as usize, l, "list tag matches");
                assert_eq!(
                    self.core.map.get(&n.id),
                    Some(&cur),
                    "listed node is mapped"
                );
                seen += 1;
                prev = cur;
                cur = n.next;
            }
            assert_eq!(self.core.tail(l), prev, "tail pointer coherent");
        }
        assert_eq!(seen, self.core.map.len(), "every resident page listed");
        assert!(self.core.map.len() <= self.capacity, "capacity respected");
        assert_eq!(
            self.core.free.len() + self.core.map.len(),
            self.core.nodes.len(),
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
    fn with_bytes_sizes_in_pages() {
        let pool = BufferPool::with_bytes(128 * 1024 * 1024);
        assert_eq!(pool.capacity(), 128 * 1024 * 1024 / PAGE_SIZE);
        // Tiny pools round up to one page.
        assert_eq!(BufferPool::with_bytes(100).capacity(), 1);
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
    fn clock_gives_new_pages_a_second_chance() {
        let mut pool = BufferPool::with_policy(2, EvictionPolicyKind::Clock);
        pool.touch(PageId(1), false);
        pool.touch(PageId(2), false);
        // Both enter with ref=1. The sweep clears 1 then 2, wraps, evicts 1.
        pool.touch(PageId(3), false);
        assert!(!pool.contains(PageId(1)));
        assert!(pool.contains(PageId(2)));
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
