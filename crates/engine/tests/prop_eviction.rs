//! Property tests for the selectable buffer-pool eviction policies: each
//! policy against an independent reference model (SIEVE against a
//! visited-bit queue, LRU-K against a stamp-history model), plus the
//! cross-policy invariants every policy must share — identical hit/miss
//! totals when nothing ever evicts, and structural integrity under
//! interleaved touch / invalidate / resize traffic.

use cb_store::PageId;
use proptest::prelude::*;

use cb_engine::{BufferPool, EvictionPolicyKind};

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Touch a page, possibly dirtying it.
    Touch(u8, bool),
    /// Drop a page without write-back.
    Invalidate(u8),
    /// Shrink or grow the capacity (clamped to >= 1 by the pool).
    Resize(u8),
}

fn op_strategy(key_space: u8) -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is uniform, so weight touches 8:1:1 by
    // repeating the touch arm: mostly touches, occasional invalidate/resize.
    macro_rules! touch {
        () => {
            (0..key_space, any::<bool>()).prop_map(|(k, d)| Op::Touch(k, d))
        };
    }
    prop_oneof![
        touch!(),
        touch!(),
        touch!(),
        touch!(),
        touch!(),
        touch!(),
        touch!(),
        touch!(),
        (0..key_space).prop_map(Op::Invalidate),
        (1..24u8).prop_map(Op::Resize),
    ]
}

/// Reference model of the SIEVE ring: a head→tail vector of
/// `(page, visited)` plus a hand that survives across evictions.
struct RingModel {
    cap: usize,
    /// Index 0 is the head (newest insert); the last entry is the tail.
    ring: Vec<(PageId, bool)>,
    /// The page the hand parks on (its next sweep starting point), if any.
    hand: Option<PageId>,
}

impl RingModel {
    fn new(cap: usize) -> Self {
        RingModel {
            cap: cap.max(1),
            ring: Vec::new(),
            hand: None,
        }
    }

    fn pos(&self, id: PageId) -> Option<usize> {
        self.ring.iter().position(|&(p, _)| p == id)
    }

    /// Sweep from the hand (or the tail) toward the head, clearing visited
    /// bits, wrapping at the head, and evict the first unvisited page. The
    /// hand parks on the victim's head-side neighbour.
    fn evict(&mut self) -> (PageId, bool) {
        let mut i = match self.hand.and_then(|h| self.pos(h)) {
            Some(i) => i,
            None => self.ring.len() - 1,
        };
        loop {
            if self.ring[i].1 {
                self.ring[i].1 = false;
                if i == 0 {
                    i = self.ring.len() - 1;
                } else {
                    i -= 1;
                }
            } else {
                self.hand = if i == 0 {
                    None
                } else {
                    Some(self.ring[i - 1].0)
                };
                let (id, _) = self.ring.remove(i);
                return (id, true);
            }
        }
    }

    /// Returns whether the touch hit.
    fn touch(&mut self, id: PageId) -> bool {
        if let Some(i) = self.pos(id) {
            self.ring[i].1 = true;
            return true;
        }
        if self.ring.len() >= self.cap {
            self.evict();
        }
        self.ring.insert(0, (id, false));
        false
    }

    fn invalidate(&mut self, id: PageId) {
        if let Some(i) = self.pos(id) {
            if self.hand == Some(id) {
                self.hand = if i == 0 {
                    None
                } else {
                    Some(self.ring[i - 1].0)
                };
            }
            self.ring.remove(i);
        }
    }

    fn resize(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.ring.len() > self.cap {
            self.evict();
        }
    }
}

/// Reference model of LRU-K(2) as access-count + stamp history: a page
/// touched once carries its insertion stamp; a second touch promotes it and
/// from then on its last-access stamp orders it. The victim is the page
/// with the oldest insertion stamp among once-touched pages, else the
/// oldest last-access stamp among promoted pages — the backward-K-distance
/// rule for K=2 (once-touched pages have infinite distance) with an LRU
/// tie-break.
struct LrukModel {
    cap: usize,
    /// `(page, promoted, stamp)`; stamp = insertion stamp until promotion,
    /// last-access stamp after.
    pages: Vec<(PageId, bool, u64)>,
    clock: u64,
}

impl LrukModel {
    fn new(cap: usize) -> Self {
        LrukModel {
            cap: cap.max(1),
            pages: Vec::new(),
            clock: 0,
        }
    }

    fn evict(&mut self) {
        let victim = self
            .pages
            .iter()
            .enumerate()
            .filter(|(_, &(_, promoted, _))| !promoted)
            .min_by_key(|(_, &(_, _, stamp))| stamp)
            .or_else(|| {
                self.pages
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(_, _, stamp))| stamp)
            })
            .map(|(i, _)| i)
            .expect("pool non-empty");
        self.pages.remove(victim);
    }

    fn touch(&mut self, id: PageId) -> bool {
        self.clock += 1;
        if let Some(p) = self.pages.iter_mut().find(|p| p.0 == id) {
            p.1 = true;
            p.2 = self.clock;
            return true;
        }
        if self.pages.len() >= self.cap {
            self.evict();
        }
        self.pages.push((id, false, self.clock));
        false
    }

    fn invalidate(&mut self, id: PageId) {
        self.pages.retain(|p| p.0 != id);
    }

    fn resize(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.pages.len() > self.cap {
            self.evict();
        }
    }
}

/// Drive one policy and its ring model through the same op tape, checking
/// hit/miss agreement and residency after every step.
fn check_ring_policy(kind: EvictionPolicyKind, cap: usize, ops: &[Op]) {
    let mut pool = BufferPool::with_policy(cap, kind);
    let mut model = RingModel::new(cap);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Touch(k, dirty) => {
                let a = pool.touch(PageId(k as u64), dirty);
                let hit = model.touch(PageId(k as u64));
                assert_eq!(a.hit, hit, "{kind:?} step {step}: hit disagrees");
            }
            Op::Invalidate(k) => {
                pool.invalidate(PageId(k as u64));
                model.invalidate(PageId(k as u64));
            }
            Op::Resize(c) => {
                pool.resize(c as usize);
                model.resize(c as usize);
            }
        }
        assert_eq!(
            pool.len(),
            model.ring.len(),
            "{kind:?} step {step}: resident count"
        );
        for &(id, _) in &model.ring {
            assert!(
                pool.contains(id),
                "{kind:?} step {step}: model page {id:?} not resident"
            );
        }
        pool.check_integrity();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sieve_matches_visited_bit_queue_model(
        cap in 1..12usize,
        ops in prop::collection::vec(op_strategy(32), 1..300),
    ) {
        check_ring_policy(EvictionPolicyKind::Sieve, cap, &ops);
    }

    #[test]
    fn lruk_matches_stamp_history_model(
        cap in 1..12usize,
        ops in prop::collection::vec(op_strategy(32), 1..300),
    ) {
        let mut pool = BufferPool::with_policy(cap, EvictionPolicyKind::LruK);
        let mut model = LrukModel::new(cap);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Touch(k, dirty) => {
                    let a = pool.touch(PageId(k as u64), dirty);
                    let hit = model.touch(PageId(k as u64));
                    prop_assert_eq!(a.hit, hit, "step {}: hit disagrees", step);
                }
                Op::Invalidate(k) => {
                    pool.invalidate(PageId(k as u64));
                    model.invalidate(PageId(k as u64));
                }
                Op::Resize(c) => {
                    pool.resize(c as usize);
                    model.resize(c as usize);
                }
            }
            prop_assert_eq!(pool.len(), model.pages.len(), "step {}", step);
            for &(id, _, _) in &model.pages {
                prop_assert!(pool.contains(id), "step {}: {:?} not resident", step, id);
            }
            pool.check_integrity();
        }
    }

    /// With capacity at least the working set, no policy ever evicts, so
    /// hit and miss totals are policy-independent: misses = distinct pages,
    /// hits = everything else.
    #[test]
    fn policies_agree_when_capacity_covers_the_working_set(
        keys in prop::collection::vec(0..16u8, 1..200),
    ) {
        let mut totals = Vec::new();
        for kind in EvictionPolicyKind::all() {
            let mut pool = BufferPool::with_policy(16, kind);
            for &k in &keys {
                pool.touch(PageId(k as u64), false);
            }
            pool.check_integrity();
            totals.push((pool.hits(), pool.misses(), pool.len()));
        }
        let distinct = {
            let mut ks: Vec<u8> = keys.clone();
            ks.sort_unstable();
            ks.dedup();
            ks.len() as u64
        };
        for (i, &(hits, misses, len)) in totals.iter().enumerate() {
            prop_assert_eq!(misses, distinct, "policy #{}", i);
            prop_assert_eq!(hits, keys.len() as u64 - distinct, "policy #{}", i);
            prop_assert_eq!(len as u64, distinct, "policy #{}", i);
        }
    }

    /// Structural integrity (lists ↔ map ↔ free-list coherence) holds for
    /// every policy under arbitrary interleavings of touch, invalidate and
    /// resize, including policy switches mid-stream.
    #[test]
    fn no_free_list_corruption_under_interleaved_ops(
        start in 0..3usize,
        switch in 0..3usize,
        cap in 1..10usize,
        ops in prop::collection::vec(op_strategy(24), 1..250),
    ) {
        let kinds = EvictionPolicyKind::all();
        let mut pool = BufferPool::with_policy(cap, kinds[start]);
        let halfway = ops.len() / 2;
        for (step, op) in ops.iter().enumerate() {
            if step == halfway {
                pool.set_policy(kinds[switch]);
                pool.check_integrity();
            }
            match *op {
                Op::Touch(k, dirty) => {
                    pool.touch(PageId(k as u64), dirty);
                }
                Op::Invalidate(k) => pool.invalidate(PageId(k as u64)),
                Op::Resize(c) => {
                    pool.resize(c as usize);
                }
            }
            pool.check_integrity();
        }
    }
}
