//! A cheap deterministic hasher for maps keyed by engine-assigned integers.
//!
//! The buffer pool's residency map is probed once per page touch and the
//! lock table once per written row; their keys ([`crate::PageId`],
//! `(TableId, i64)` row keys) are small integers the engine itself assigns,
//! never outside input, so SipHash's protection against crafted collisions
//! buys nothing there and costs more than the rest of a pool hit. (The page
//! store needs no map at all: its ids are dense, so it is a `Vec`.) The two
//! maps are only ever probed, inserted into, removed from, counted or
//! filtered — no result depends on their iteration order (the one walk that
//! returns pages, `BufferPool::flush_dirty`, sorts) — and with a fixed
//! hasher even that order is the same in every process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Rotate-xor-multiply per word (the FxHash step); `finish` rotates the
/// well-mixed high bits down to where the table takes its bucket index.
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over engine-assigned integer keys.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageId, TableId};
    use std::hash::BuildHasher;

    #[test]
    fn sequential_and_strided_keys_spread_over_low_bits() {
        // The table indexes buckets with the low bits: 4096 sequential page
        // ids, and 4096 ids that differ only above bit 12, must each land in
        // nearly as many of 4096 buckets as a random function would (~63 %).
        let build = BuildHasherDefault::<IntHasher>::default();
        for stride in [1u64, 1 << 12] {
            let mut buckets = vec![false; 4096];
            for i in 0..4096u64 {
                buckets[(build.hash_one(PageId(i * stride)) & 4095) as usize] = true;
            }
            let used = buckets.iter().filter(|b| **b).count();
            assert!(used > 2200, "stride {stride}: {used} of 4096 buckets used");
        }
    }

    #[test]
    fn row_keys_hash_both_fields() {
        let build = BuildHasherDefault::<IntHasher>::default();
        let h = |t: u16, k: i64| build.hash_one((TableId(t), k));
        assert_ne!(h(1, 5), h(2, 5));
        assert_ne!(h(1, 5), h(1, 6));
        assert_eq!(h(1, 5), h(1, 5));
    }
}
