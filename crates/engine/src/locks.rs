//! A virtual-time row lock table.
//!
//! The testbed executes transactions one at a time in virtual-time order, so
//! a lock is represented by *when it will be released* rather than by a
//! blocked thread: a transaction that commits at virtual instant `r` holds
//! its exclusive row locks until `r`, and any later transaction touching the
//! same rows before `r` must push its start time to `r`. This reproduces 2PL
//! contention (hot rows under the `latest` distribution serialize) without
//! real threads, deterministically.

use cb_sim::SimTime;
use cb_store::{IntMap, TableId};

/// A row lock key.
pub type RowKey = (TableId, i64);

/// Exclusive row locks with virtual release times.
#[derive(Clone, Default)]
pub struct LockTable {
    held: IntMap<RowKey, SimTime>,
    registered: u64,
    conflicts: u64,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// If any of `keys` is exclusively held past `now`, the instant at which
    /// the *last* of them releases (the caller must wait until then).
    pub fn conflict_until(&mut self, keys: &[RowKey], now: SimTime) -> Option<SimTime> {
        let mut latest: Option<SimTime> = None;
        for k in keys {
            if let Some(&release) = self.held.get(k) {
                if release > now {
                    latest = Some(latest.map_or(release, |l| l.max(release)));
                }
            }
        }
        if latest.is_some() {
            self.conflicts += 1;
        }
        latest
    }

    /// Non-mutating variant of [`LockTable::conflict_until`]: when would
    /// the last conflicting holder release, without counting a 2PL
    /// conflict. Versioned isolation levels use this as their
    /// first-committer-wins probe — a held lock's release time *is* the
    /// concurrent writer's commit instant, so overlap means the probing
    /// transaction must abort (write-write under SI, and read-write under
    /// the serializable read-validation approximation) rather than block.
    pub fn conflict_probe(&self, keys: &[RowKey], now: SimTime) -> Option<SimTime> {
        let mut latest: Option<SimTime> = None;
        for k in keys {
            if let Some(&release) = self.held.get(k) {
                if release > now {
                    latest = Some(latest.map_or(release, |l| l.max(release)));
                }
            }
        }
        latest
    }

    /// Record that `keys` are exclusively locked until `release`. A key
    /// already held with an earlier release is extended; with a later one it
    /// is kept (the later holder wins — callers have already waited out
    /// genuine conflicts).
    pub fn register(&mut self, keys: &[RowKey], release: SimTime) {
        for k in keys {
            let slot = self.held.entry(*k).or_insert(release);
            *slot = (*slot).max(release);
        }
        self.registered += keys.len() as u64;
    }

    /// Drop every lock that released at or before `now`. Call periodically
    /// to bound memory.
    pub fn gc(&mut self, now: SimTime) {
        self.held.retain(|_, release| *release > now);
    }

    /// Drop everything (node fail-over aborts in-flight holders).
    pub fn clear(&mut self) {
        self.held.clear();
    }

    /// Number of live (possibly expired, pre-GC) entries.
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// True if no locks are tracked.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Total lock registrations (throughput statistic).
    pub fn registered(&self) -> u64 {
        self.registered
    }

    /// Total conflicts observed (contention statistic).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(1);

    #[test]
    fn no_conflict_when_free() {
        let mut lt = LockTable::new();
        assert_eq!(lt.conflict_until(&[(T, 1)], SimTime::ZERO), None);
        assert_eq!(lt.conflicts(), 0);
    }

    #[test]
    fn conflict_reports_release_time() {
        let mut lt = LockTable::new();
        lt.register(&[(T, 1)], SimTime::from_millis(10));
        assert_eq!(
            lt.conflict_until(&[(T, 1)], SimTime::from_millis(5)),
            Some(SimTime::from_millis(10))
        );
        // After release, no conflict.
        assert_eq!(lt.conflict_until(&[(T, 1)], SimTime::from_millis(10)), None);
        assert_eq!(lt.conflicts(), 1);
    }

    #[test]
    fn multiple_conflicts_wait_for_latest() {
        let mut lt = LockTable::new();
        lt.register(&[(T, 1)], SimTime::from_millis(10));
        lt.register(&[(T, 2)], SimTime::from_millis(30));
        assert_eq!(
            lt.conflict_until(&[(T, 1), (T, 2), (T, 3)], SimTime::ZERO),
            Some(SimTime::from_millis(30))
        );
    }

    #[test]
    fn probe_reports_conflicts_without_counting_them() {
        let mut lt = LockTable::new();
        lt.register(&[(T, 1)], SimTime::from_millis(10));
        assert_eq!(
            lt.conflict_probe(&[(T, 1)], SimTime::from_millis(5)),
            Some(SimTime::from_millis(10))
        );
        assert_eq!(lt.conflict_probe(&[(T, 1)], SimTime::from_millis(10)), None);
        assert_eq!(lt.conflicts(), 0, "probes never count as 2PL conflicts");
    }

    #[test]
    fn register_extends_not_shrinks() {
        let mut lt = LockTable::new();
        lt.register(&[(T, 1)], SimTime::from_millis(30));
        lt.register(&[(T, 1)], SimTime::from_millis(10));
        assert_eq!(
            lt.conflict_until(&[(T, 1)], SimTime::ZERO),
            Some(SimTime::from_millis(30))
        );
    }

    #[test]
    fn different_tables_do_not_conflict() {
        let mut lt = LockTable::new();
        lt.register(&[(TableId(1), 5)], SimTime::from_millis(10));
        assert_eq!(lt.conflict_until(&[(TableId(2), 5)], SimTime::ZERO), None);
    }

    #[test]
    fn gc_drops_expired_only() {
        let mut lt = LockTable::new();
        lt.register(&[(T, 1)], SimTime::from_millis(10));
        lt.register(&[(T, 2)], SimTime::from_millis(20));
        lt.gc(SimTime::from_millis(15));
        assert_eq!(lt.len(), 1);
        assert_eq!(
            lt.conflict_until(&[(T, 2)], SimTime::ZERO),
            Some(SimTime::from_millis(20))
        );
    }

    #[test]
    fn clear_releases_everything() {
        let mut lt = LockTable::new();
        lt.register(&[(T, 1), (T, 2)], SimTime::from_secs(100));
        lt.clear();
        assert!(lt.is_empty());
        assert_eq!(lt.conflict_until(&[(T, 1)], SimTime::ZERO), None);
    }
}
