//! Multi-version concurrency control: version chains, snapshot visibility,
//! and the watermark garbage collector.
//!
//! The B+tree always holds the *latest* committed image of every row (the
//! zero-copy read path from PR 3 stays untouched). The [`VersionStore`] is a
//! volatile overlay that remembers, per row, *when* the latest image became
//! visible and which older images preceded it:
//!
//! * `latest[key]` — the virtual-clock commit timestamp of the image
//!   currently in the tree. Absent means the row is base/bulk-loaded data,
//!   committed at `SimTime::ZERO` and visible to every snapshot.
//! * `chains[key]` — older images, each tagged with the commit timestamp at
//!   which *that* image became current (`None` marks "the row did not exist
//!   yet" — the pre-image of an insert, or a tombstone).
//!
//! **Visibility rule.** A snapshot at time `ts` reads key `k` as follows:
//! if `latest[k]` is absent or `latest[k] <= ts`, the tree image is visible
//! (the common fast path — one map probe, then the existing borrowed read).
//! Otherwise walk the chain newest→oldest and take the first version with
//! `commit_ts <= ts`; its image (or absence) is what the snapshot sees. If
//! no version qualifies, the row did not exist at `ts`.
//!
//! Versions are *published at commit*, atomically with the transaction's
//! logical execution, tagged with the commit's virtual completion time —
//! which may lie in the future (group-commit ack, commit-latency slot). A
//! concurrent snapshot reader between the logical write and that timestamp
//! therefore resolves to the pre-image, exactly the interval during which
//! the single-version engine would have either blocked the reader (2PL) or
//! shown it an unacked future write.
//!
//! The store is **volatile**: it dies with the process on a crash, and
//! recovery deliberately collapses every row to its latest committed image
//! at `SimTime::ZERO` (an empty store). That keeps net-effect redo a pure
//! function of the log — replay never has to reconstruct historical
//! versions, only the final states.
//!
//! **GC.** [`VersionStore::gc`] takes a watermark `g` — the oldest snapshot
//! any active reader can hold. Per chain it keeps the newest version with
//! `commit_ts <= g` plus everything newer; rows whose latest image is
//! already at-or-below `g` drop their chain (and their `latest` entry)
//! entirely, so a quiesced store shrinks back to nothing.

use std::collections::BTreeMap;

use cb_sim::SimTime;

use crate::locks::RowKey;

/// Transaction isolation level, selectable per run (and defaulted per SUT
/// profile).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsolationLevel {
    /// The engine's original single-version semantics: reads see the tree's
    /// latest image, write-write conflicts block until the holder's commit
    /// instant (virtual-time 2PL).
    #[default]
    ReadCommitted,
    /// Snapshot isolation: reads resolve against the version chains at the
    /// transaction's start time and never block or register locks;
    /// write-write conflicts abort (first-committer-wins) and retry.
    Snapshot,
    /// Snapshot isolation plus read validation: a transaction also aborts
    /// when a row it *read* has a concurrent committing writer — a
    /// conservative serializability approximation on the virtual clock.
    Serializable,
}

impl IsolationLevel {
    /// Stable lowercase name (`rc` / `si` / `ser`) used by CLI flags and
    /// reports.
    pub fn as_str(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "rc",
            IsolationLevel::Snapshot => "si",
            IsolationLevel::Serializable => "ser",
        }
    }

    /// Parse a CLI spelling. Accepts the short names and a few common long
    /// forms, case-insensitive.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "rc" | "read-committed" | "read_committed" => Some(IsolationLevel::ReadCommitted),
            "si" | "snapshot" => Some(IsolationLevel::Snapshot),
            "ser" | "serializable" => Some(IsolationLevel::Serializable),
            _ => None,
        }
    }

    /// Does this level read through the version store?
    pub fn is_versioned(self) -> bool {
        !matches!(self, IsolationLevel::ReadCommitted)
    }
}

/// One historical image in a chain: the row as it stood from `commit_ts`
/// until the next version's timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Version {
    /// When this image became the current one.
    pub commit_ts: SimTime,
    /// The encoded row, or `None` when the row did not exist.
    pub image: Option<Vec<u8>>,
}

/// What a snapshot at some timestamp sees for a key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Visibility<'a> {
    /// The tree's latest image is visible — read it through the normal
    /// zero-copy path.
    Latest,
    /// An older chain image is visible.
    Image(&'a [u8]),
    /// The row did not exist at the snapshot time.
    Absent,
}

/// The per-database version overlay. Deterministic by construction: both
/// maps are `BTreeMap`s, so iteration (and therefore GC and debug dumps) is
/// key-ordered regardless of insertion history.
#[derive(Clone, Debug, Default)]
pub struct VersionStore {
    latest: BTreeMap<RowKey, SimTime>,
    chains: BTreeMap<RowKey, Vec<Version>>,
    watermark: SimTime,
    published: u64,
    max_chain: usize,
}

impl VersionStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a committed write: the row's previous image `pre_image`
    /// (as it stood *before* this transaction — `None` for an insert's
    /// pre-state) is pushed onto the chain, and the tree's current image is
    /// stamped with `commit_ts`, the virtual instant from which it is
    /// visible. Must be called atomically with the logical write so no
    /// reader observes the tree ahead of the overlay.
    pub fn publish(&mut self, key: RowKey, pre_image: Option<&[u8]>, commit_ts: SimTime) {
        let prev_ts = self.latest.insert(key, commit_ts).unwrap_or(SimTime::ZERO);
        let chain = self.chains.entry(key).or_default();
        chain.push(Version {
            commit_ts: prev_ts,
            image: pre_image.map(<[u8]>::to_vec),
        });
        self.published += 1;
        self.max_chain = self.max_chain.max(chain.len());
    }

    /// Resolve key `k` for a snapshot at `ts` (see the module docs for the
    /// visibility rule). Never blocks, never touches the lock table.
    pub fn visible(&self, key: RowKey, ts: SimTime) -> Visibility<'_> {
        match self.latest.get(&key) {
            None => Visibility::Latest,
            Some(&lts) if lts <= ts => Visibility::Latest,
            Some(_) => {
                let chain = self.chains.get(&key).map_or(&[][..], Vec::as_slice);
                for v in chain.iter().rev() {
                    if v.commit_ts <= ts {
                        return match &v.image {
                            Some(img) => Visibility::Image(img),
                            None => Visibility::Absent,
                        };
                    }
                }
                Visibility::Absent
            }
        }
    }

    /// Chain length for `key` (0 when the row has no history).
    #[cfg(test)]
    pub(crate) fn chain_len(&self, key: RowKey) -> usize {
        self.chains.get(&key).map_or(0, Vec::len)
    }

    /// Keys of `table` in `[lo, hi]` that carry version metadata, in key
    /// order. A snapshot range scan merges these with the tree's keys:
    /// overlay keys absent from the tree are rows deleted after the
    /// snapshot (their chain still holds the visible image), and tree keys
    /// with a newer-than-snapshot `latest` stamp must resolve through
    /// [`VersionStore::visible`] instead of the tree image.
    pub(crate) fn overlay_keys(
        &self,
        table: cb_store::TableId,
        lo: i64,
        hi: i64,
    ) -> impl Iterator<Item = RowKey> + '_ {
        self.latest
            .range((table, lo)..=(table, hi))
            .map(|(k, _)| *k)
    }

    /// Prune everything no active snapshot can still see. `watermark` is
    /// the oldest snapshot timestamp still in use; the effective watermark
    /// only ever moves forward. Returns the number of versions pruned by
    /// this call.
    pub fn gc(&mut self, watermark: SimTime) -> u64 {
        self.watermark = self.watermark.max(watermark);
        let g = self.watermark;
        let mut pruned = 0u64;
        let chains = &mut self.chains;
        self.latest.retain(|key, lts| {
            if *lts <= g {
                // Every snapshot ≥ g sees the tree image: the whole history
                // (and the overlay entry itself) is dead.
                if let Some(chain) = chains.remove(key) {
                    pruned += chain.len() as u64;
                }
                false
            } else {
                true
            }
        });
        for chain in chains.values_mut() {
            // Keep the newest version at-or-below the watermark (it serves
            // every snapshot between g and the next version) plus all newer.
            if let Some(keep_from) = chain.iter().rposition(|v| v.commit_ts <= g) {
                pruned += keep_from as u64;
                chain.drain(..keep_from);
            }
        }
        pruned
    }

    /// Drop all version state (crash: the overlay is volatile, recovery
    /// collapses to latest-at-`SimTime::ZERO`). Counters survive — they
    /// describe the run, not the current contents.
    pub fn clear(&mut self) {
        self.latest.clear();
        self.chains.clear();
        self.watermark = SimTime::ZERO;
    }

    /// Number of rows currently carrying version metadata.
    pub fn tracked_rows(&self) -> usize {
        self.latest.len()
    }

    /// Total versions published over the store's lifetime.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Longest chain ever observed.
    pub fn max_chain(&self) -> usize {
        self.max_chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_store::TableId;

    const T: TableId = TableId(1);

    fn ts(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn base_data_is_visible_to_every_snapshot() {
        let vs = VersionStore::new();
        assert_eq!(vs.visible((T, 1), SimTime::ZERO), Visibility::Latest);
        assert_eq!(vs.visible((T, 1), ts(u64::MAX)), Visibility::Latest);
    }

    #[test]
    fn chain_resolves_pre_images_until_the_commit_instant() {
        let mut vs = VersionStore::new();
        // Base row updated, commit completes at t=100.
        vs.publish((T, 1), Some(b"old"), ts(100));
        assert_eq!(vs.visible((T, 1), ts(99)), Visibility::Image(b"old"));
        assert_eq!(vs.visible((T, 1), ts(100)), Visibility::Latest);
        // Second update stacks: commit at t=200 over the t=100 image.
        vs.publish((T, 1), Some(b"mid"), ts(200));
        assert_eq!(vs.visible((T, 1), ts(50)), Visibility::Image(b"old"));
        assert_eq!(vs.visible((T, 1), ts(150)), Visibility::Image(b"mid"));
        assert_eq!(vs.visible((T, 1), ts(200)), Visibility::Latest);
        assert_eq!(vs.chain_len((T, 1)), 2);
        assert_eq!(vs.max_chain(), 2);
    }

    #[test]
    fn inserts_are_absent_before_their_commit() {
        let mut vs = VersionStore::new();
        vs.publish((T, 7), None, ts(500));
        assert_eq!(vs.visible((T, 7), ts(499)), Visibility::Absent);
        assert_eq!(vs.visible((T, 7), ts(500)), Visibility::Latest);
    }

    #[test]
    fn gc_prunes_dead_versions_and_keeps_the_boundary_image() {
        let mut vs = VersionStore::new();
        vs.publish((T, 1), Some(b"v0"), ts(100));
        vs.publish((T, 1), Some(b"v1"), ts(200));
        vs.publish((T, 1), Some(b"v2"), ts(300));
        // Chain images became current at ts 0 (v0), 100 (v1), 200 (v2). A
        // watermark at 250 keeps only the boundary image v2 — the one a
        // snapshot in [250, 300) still resolves — and drops the two older.
        assert_eq!(vs.gc(ts(250)), 2);
        assert_eq!(vs.visible((T, 1), ts(250)), Visibility::Image(b"v2"));
        assert_eq!(vs.visible((T, 1), ts(299)), Visibility::Image(b"v2"));
        assert_eq!(vs.chain_len((T, 1)), 1);
        // Watermark at the latest commit: everything collapses.
        assert_eq!(vs.gc(ts(300)), 1);
        assert_eq!(vs.tracked_rows(), 0);
        assert_eq!(vs.visible((T, 1), ts(300)), Visibility::Latest);
    }

    #[test]
    fn gc_watermark_never_moves_backwards() {
        let mut vs = VersionStore::new();
        vs.publish((T, 1), Some(b"v0"), ts(100));
        vs.gc(ts(500));
        vs.publish((T, 1), Some(b"v1"), ts(600));
        // A stale (smaller) watermark must not resurrect pruning leniency.
        vs.gc(ts(50));
        assert_eq!(vs.watermark, ts(500));
        assert_eq!(vs.visible((T, 1), ts(550)), Visibility::Image(b"v1"));
    }

    #[test]
    fn overlay_keys_are_table_scoped_and_ordered() {
        let mut vs = VersionStore::new();
        let other = TableId(2);
        vs.publish((T, 5), Some(b"a"), ts(100));
        vs.publish((T, 2), None, ts(100));
        vs.publish((other, 3), Some(b"x"), ts(100));
        vs.publish((T, 9), Some(b"b"), ts(100));
        let keys: Vec<_> = vs.overlay_keys(T, 1, 8).collect();
        assert_eq!(keys, vec![(T, 2), (T, 5)]);
        let all: Vec<_> = vs.overlay_keys(T, i64::MIN, i64::MAX).collect();
        assert_eq!(all, vec![(T, 2), (T, 5), (T, 9)]);
        // GC drops entries from the overlay walk along with the chains.
        vs.gc(ts(100));
        assert_eq!(vs.overlay_keys(T, i64::MIN, i64::MAX).count(), 0);
    }

    #[test]
    fn isolation_level_parsing_round_trips() {
        for lvl in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::Snapshot,
            IsolationLevel::Serializable,
        ] {
            assert_eq!(IsolationLevel::parse(lvl.as_str()), Some(lvl));
        }
        assert_eq!(
            IsolationLevel::parse("SNAPSHOT"),
            Some(IsolationLevel::Snapshot)
        );
        assert_eq!(IsolationLevel::parse("bogus"), None);
        assert!(!IsolationLevel::ReadCommitted.is_versioned());
        assert!(IsolationLevel::Snapshot.is_versioned());
    }
}
