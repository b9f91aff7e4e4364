//! Deterministic random number generation for workloads and data generation.
//!
//! All randomness in CloudyBench flows through [`DetRng`], a seeded ChaCha-
//! based generator, so every experiment is reproducible bit-for-bit from its
//! configuration.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic, seedable RNG with the sampling helpers CloudyBench needs.
#[derive(Clone, Debug)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// A generator seeded with `seed`.
    pub fn seeded(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child generator (e.g. one per simulated client)
    /// that will not correlate with its parent.
    pub fn fork(&mut self, stream: u64) -> DetRng {
        // Mix the stream id into fresh output of the parent so forks with
        // different ids are decorrelated.
        let base: u64 = self.inner.gen();
        DetRng::seeded(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.inner.gen_range(0..n)
    }

    /// A uniform integer in `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        self.inner.gen_range(lo..=hi)
    }

    /// A uniform float in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Pick an index according to non-negative `weights` (at least one must
    /// be positive).
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "all weights zero");
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seeded(42);
        let mut b = DetRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seeded(1);
        let mut b = DetRng::seeded(2);
        let same = (0..100)
            .filter(|_| a.below(1_000_000) == b.below(1_000_000))
            .count();
        assert!(same < 3);
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let mut parent1 = DetRng::seeded(7);
        let mut parent2 = DetRng::seeded(7);
        let mut f1 = parent1.fork(3);
        let mut f2 = parent2.fork(3);
        for _ in 0..50 {
            assert_eq!(f1.below(1000), f2.below(1000));
        }
        let mut g = parent1.fork(4);
        let same = (0..100)
            .filter(|_| f1.below(1_000_000) == g.below(1_000_000))
            .count();
        assert!(same < 3);
    }

    #[test]
    fn weighted_pick_matches_weights() {
        let mut rng = DetRng::seeded(5);
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[rng.pick_weighted(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((2.0..4.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn range_inclusive_hits_bounds() {
        let mut rng = DetRng::seeded(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match rng.range_inclusive(0, 3) {
                0 => saw_lo = true,
                3 => saw_hi = true,
                _ => {}
            }
        }
        assert!(saw_lo && saw_hi);
    }
}
