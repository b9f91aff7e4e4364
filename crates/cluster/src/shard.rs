//! Key-space sharding: routing rows to engine instances.
//!
//! A [`ShardMap`] deterministically assigns every primary key to exactly one
//! shard. Two strategies cover the deployment shapes cloud-native databases
//! actually run:
//!
//! * **Hash** — the same multiplicative hash the net-effect replay planner
//!   uses for redo lanes ([`shard_of_hash`]): uniform spread, no hot ranges,
//!   but range scans fan out to every shard.
//! * **Range** — contiguous key intervals with explicit split points:
//!   range scans touch only the shards whose intervals intersect, but a
//!   sequential insert pattern hammers the last shard.
//!
//! Routing is pure arithmetic on `(key, shard_count)` — identical on every
//! host and thread, which keeps sharded chaos campaigns and the shard ×
//! policy grid byte-identical across `--jobs`.

/// How keys map to shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Multiplicative-hash partitioning over the key bits.
    Hash,
    /// Range partitioning: `splits[i]` is the *first* key of shard `i + 1`,
    /// so shard 0 owns `(-inf, splits[0])` and the last shard owns
    /// `[splits[n-1], +inf)`. Splits are strictly ascending.
    Range(Vec<i64>),
}

/// Deterministic hash-shard assignment (the same mix the redo partitioner
/// uses, so version chains and shard routing agree on spread quality).
pub fn shard_of_hash(key: i64, shards: usize) -> usize {
    let mixed = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> 32) as usize % shards.max(1)
}

/// A fixed shard layout: every key routes to exactly one of `shards()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    strategy: ShardStrategy,
    shards: usize,
}

impl ShardMap {
    /// Hash-sharding across `shards` instances.
    pub fn hash(shards: usize) -> Self {
        assert!(shards > 0, "a deployment has at least one shard");
        ShardMap {
            strategy: ShardStrategy::Hash,
            shards,
        }
    }

    /// Range-sharding with explicit split points (`splits.len() + 1`
    /// shards). Splits must be strictly ascending.
    pub(crate) fn range(splits: Vec<i64>) -> Self {
        assert!(
            splits.windows(2).all(|w| w[0] < w[1]),
            "range splits must be strictly ascending"
        );
        let shards = splits.len() + 1;
        ShardMap {
            strategy: ShardStrategy::Range(splits),
            shards,
        }
    }

    /// Even range-sharding of `[1, keyspace]` into `shards` intervals (the
    /// common benchmark layout: dense keys from the data generator).
    pub fn range_even(keyspace: i64, shards: usize) -> Self {
        assert!(shards > 0, "a deployment has at least one shard");
        assert!(keyspace >= shards as i64, "keyspace smaller than shards");
        let width = keyspace / shards as i64;
        let splits: Vec<i64> = (1..shards as i64).map(|i| 1 + i * width).collect();
        ShardMap::range(splits)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The strategy in use.
    pub fn strategy(&self) -> &ShardStrategy {
        &self.strategy
    }

    /// The shard owning `key`. Total: every key maps to exactly one shard
    /// in `0..shards()`.
    pub fn shard_of(&self, key: i64) -> usize {
        match &self.strategy {
            ShardStrategy::Hash => shard_of_hash(key, self.shards),
            // partition_point counts the splits <= key, which is exactly
            // the index of the owning interval.
            ShardStrategy::Range(splits) => splits.partition_point(|&s| s <= key),
        }
    }

    /// The shards a range scan over `[lo, hi]` must visit, ascending. Hash
    /// layouts fan out to every shard; range layouts visit only the
    /// intervals intersecting the scan.
    pub fn shards_for_range(&self, lo: i64, hi: i64) -> Vec<usize> {
        if lo > hi {
            return Vec::new();
        }
        match &self.strategy {
            ShardStrategy::Hash => (0..self.shards).collect(),
            ShardStrategy::Range(_) => (self.shard_of(lo)..=self.shard_of(hi)).collect(),
        }
    }

    /// Stable label for reports (`hash4`, `range4`).
    pub fn label(&self) -> String {
        match self.strategy {
            ShardStrategy::Hash => format!("hash{}", self.shards),
            ShardStrategy::Range(_) => format!("range{}", self.shards),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_routes_to_exactly_one_shard() {
        for map in [ShardMap::hash(4), ShardMap::range_even(10_000, 4)] {
            for key in (-100..10_200).chain([i64::MIN, i64::MAX]) {
                let s = map.shard_of(key);
                assert!(s < map.shards(), "{map:?} key {key} -> {s}");
            }
        }
    }

    #[test]
    fn range_splits_partition_contiguously() {
        let map = ShardMap::range(vec![100, 200, 300]);
        assert_eq!(map.shards(), 4);
        assert_eq!(map.shard_of(i64::MIN), 0);
        assert_eq!(map.shard_of(99), 0);
        assert_eq!(map.shard_of(100), 1);
        assert_eq!(map.shard_of(199), 1);
        assert_eq!(map.shard_of(200), 2);
        assert_eq!(map.shard_of(300), 3);
        assert_eq!(map.shard_of(i64::MAX), 3);
    }

    #[test]
    fn range_even_covers_the_keyspace_evenly() {
        let map = ShardMap::range_even(1_000, 4);
        let mut counts = vec![0u64; 4];
        for key in 1..=1_000 {
            counts[map.shard_of(key)] += 1;
        }
        assert_eq!(counts, vec![250, 250, 250, 250]);
    }

    #[test]
    fn hash_spread_is_roughly_uniform() {
        let map = ShardMap::hash(8);
        let mut counts = [0u64; 8];
        for key in 1..=80_000 {
            counts[map.shard_of(key)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (8_000..=12_000).contains(&c),
                "shard {s} holds {c} of 80k keys"
            );
        }
    }

    #[test]
    fn scan_fanout_matches_strategy() {
        let hash = ShardMap::hash(4);
        assert_eq!(hash.shards_for_range(10, 20), vec![0, 1, 2, 3]);
        let range = ShardMap::range(vec![100, 200]);
        assert_eq!(range.shards_for_range(50, 99), vec![0]);
        assert_eq!(range.shards_for_range(50, 150), vec![0, 1]);
        assert_eq!(range.shards_for_range(150, 250), vec![1, 2]);
        assert_eq!(range.shards_for_range(20, 10), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_splits_are_rejected() {
        ShardMap::range(vec![200, 100]);
    }
}
