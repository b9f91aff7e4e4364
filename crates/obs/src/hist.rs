//! Exact log-bucketed latency histograms.
//!
//! [`LogHistogram`] is an HDR-style histogram over `u64` values (CloudyBench
//! records latencies in virtual nanoseconds). Values below 128 land in
//! exact unit buckets; above that, each power of two is split into 128
//! log-linear sub-buckets, bounding the relative bucket width — and hence
//! the worst-case quantile error — at `2^-7` (~0.79%). The bucket array is
//! preallocated at construction, so the record path never allocates, and
//! two histograms over disjoint streams [`merge`](LogHistogram::merge) into
//! exactly the histogram of the concatenated stream.

/// Sub-bucket resolution: each power-of-two range splits into `2^SUB_BITS`
/// buckets.
const SUB_BITS: u32 = 7;
/// Sub-buckets per power-of-two range.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` domain.
/// Exponents 7..=63 each contribute `SUB` buckets after the exact range.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A mergeable log-bucketed histogram with ≤0.79% relative bucket error.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for `v`.
#[inline]
fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let sub = ((v >> (e - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (e - SUB_BITS + 1) as usize * SUB + sub
    }
}

/// Inclusive value range `[lo, hi]` covered by bucket `idx`.
#[inline]
fn bounds_of(idx: usize) -> (u64, u64) {
    if idx < SUB {
        (idx as u64, idx as u64)
    } else {
        let e = (idx / SUB) as u32 + SUB_BITS - 1;
        let sub = (idx % SUB) as u64;
        let width = 1u64 << (e - SUB_BITS);
        let lo = (1u64 << e) + sub * width;
        (lo, lo + (width - 1))
    }
}

impl LogHistogram {
    /// An empty histogram. Allocates the full bucket array up front.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation. Never allocates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value. Never allocates.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[index_of(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (the sum is tracked exactly), or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the representative (midpoint)
    /// of the bucket holding the `ceil(q·count)`-th smallest observation,
    /// clamped to the recorded `[min, max]`. Returns 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= target {
                let (lo, hi) = bounds_of(idx);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// [`value_at_quantile`](Self::value_at_quantile) with `p` in percent
    /// (e.g. `99.0` for p99).
    pub fn percentile(&self, p: f64) -> u64 {
        self.value_at_quantile(p / 100.0)
    }

    /// Fold `other` into `self`. Recording stream A into one histogram and
    /// stream B into another, then merging, yields exactly the histogram of
    /// the concatenated stream.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterate non-empty buckets as `(lo, hi, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| {
                let (lo, hi) = bounds_of(idx);
                (lo, hi, c)
            })
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("mean", &self.mean())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin: every percentile of a single-sample series is exactly the
    /// sample. `LogHistogram` is the workspace's one quantile routine
    /// (the test name predates the removal of `cb_sim::percentile`, which
    /// pinned the same contract from the sorted-sample side); the
    /// `[min, max]` clamp is what guarantees exactness for values ≥ 128
    /// whose bucket midpoint is not the value itself.
    #[test]
    fn single_sample_p50_matches_cb_sim_percentile() {
        for &v in &[0u64, 1, 7, 127, 128, 129, 200, 12_345, 1_000_000, 1 << 40] {
            let mut h = LogHistogram::new();
            h.record(v);
            for &p in &[0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(h.percentile(p), v, "hist p{p} of single sample {v}");
            }
            assert_eq!(h.value_at_quantile(0.5), v);
        }
    }

    /// Pin: an all-equal series reports the one recorded value (the clamp
    /// collapses the bucket to it).
    #[test]
    fn constant_series_p50_matches_cb_sim_percentile() {
        let mut h = LogHistogram::new();
        for _ in 0..9 {
            h.record(777);
        }
        assert_eq!(h.percentile(50.0), 777);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..128u64 {
            h.record(v);
        }
        for v in 0..128u64 {
            let (lo, hi) = bounds_of(index_of(v));
            assert_eq!((lo, hi), (v, v));
        }
        assert_eq!(h.count(), 128);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
    }

    #[test]
    fn index_and_bounds_agree_across_magnitudes() {
        // Every probe value must fall inside its own bucket's bounds, and
        // bucket bounds must tile the domain without gaps.
        let probes = [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            65_535,
            65_536,
            1_000_000,
            u32::MAX as u64,
            1 << 40,
            (1 << 40) + 12345,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = index_of(v);
            let (lo, hi) = bounds_of(idx);
            assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}] (idx {idx})");
        }
        for idx in 0..BUCKETS - 1 {
            let (_, hi) = bounds_of(idx);
            let (lo_next, _) = bounds_of(idx + 1);
            assert_eq!(hi.wrapping_add(1), lo_next, "gap after bucket {idx}");
        }
        assert_eq!(bounds_of(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn relative_bucket_error_is_bounded() {
        // Above the exact range the bucket width is lo/128 at most, so the
        // midpoint is within ~0.79% of any member of the bucket.
        for &v in &[129u64, 1_000, 123_456, 987_654_321, 1 << 50] {
            let (lo, hi) = bounds_of(index_of(v));
            let mid = lo + (hi - lo) / 2;
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 128.0, "v={v} err={err}");
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let got = h.value_at_quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.01, "q={q} got={got} err={err}");
        }
        assert_eq!(h.value_at_quantile(0.0), 1);
        assert_eq!(h.value_at_quantile(1.0), h.max());
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for i in 0..10_000u64 {
            let v = i * i % 777_777;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.value_at_quantile(q), whole.value_at_quantile(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.5), 0);
    }
}
