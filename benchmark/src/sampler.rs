//! The honest sampler behind every `*_ns` line, and the order statistics
//! every reported median uses.
//!
//! A probe is timed in batches of at least [`MIN_BATCH_OPS`] operations: one
//! untimed warm-up batch, then [`BATCHES`] timed ones, one clock pair per
//! batch. The cost of a clock pair is calibrated once per process
//! ([`Sampler::calibrate`]) and subtracted from every batch. A line reports
//! the true median of the per-op batch values with quartiles and MAD, and a
//! noise floor: the larger of the MAD and the per-op share of the clock pair.
//! A line whose median is below five noise floors is flagged, not trusted.

use crate::clock::thread_cpu;

/// Fewest operations a timed batch may hold.
pub const MIN_BATCH_OPS: usize = 1_000;
/// Timed batches per probe.
pub const BATCHES: usize = 15;
/// A `*_ns` median below this many noise floors is flagged.
pub const NOISE_FLOOR_FACTOR: f64 = 5.0;

/// Order statistics of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Sample count.
    pub n: usize,
    /// True median (mean of the two middle values for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Stats {
    /// Statistics of `samples`; `None` when empty or any sample is not finite.
    pub fn of(samples: &[f64]) -> Option<Stats> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = quantile(&sorted, 2);
        let mut dev: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
        dev.sort_by(f64::total_cmp);
        Some(Stats {
            n: sorted.len(),
            median,
            q1: quantile(&sorted, 1),
            q3: quantile(&sorted, 3),
            mad: quantile(&dev, 2),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        })
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn iqr_ratio(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th quartile cut of `sorted`, by the rule of Python's
/// `statistics.quantiles(data, n=4)` (exclusive method) so this file and the
/// driver that checks it agree on what a quartile is.
fn quantile(sorted: &[f64], i: usize) -> f64 {
    let ld = sorted.len();
    if ld == 1 {
        return sorted[0];
    }
    let n = 4;
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

/// One measured `*_ns` line.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Per-operation nanoseconds over the timed batches.
    pub ns: Stats,
    /// Below this, a difference between two medians means nothing.
    pub noise_floor_ns: f64,
    /// `true` when the median is under [`NOISE_FLOOR_FACTOR`] noise floors.
    pub below_noise: bool,
}

/// Turn per-batch nanoseconds into a [`Sample`].
pub fn summarize(batch_ns: &[f64], ops_per_batch: usize, timer_overhead_ns: f64) -> Sample {
    let per_op: Vec<f64> = batch_ns
        .iter()
        .map(|ns| (ns - timer_overhead_ns).max(0.0) / ops_per_batch as f64)
        .collect();
    let ns = Stats::of(&per_op).expect("a probe times at least one batch");
    let noise_floor_ns = ns.mad.max(timer_overhead_ns / ops_per_batch as f64);
    Sample {
        ns,
        noise_floor_ns,
        below_noise: ns.median < NOISE_FLOOR_FACTOR * noise_floor_ns,
    }
}

/// The batch timer, holding the calibrated cost of one clock pair.
#[derive(Clone, Copy, Debug)]
pub struct Sampler {
    /// Median nanoseconds between two back-to-back clock reads.
    pub timer_overhead_ns: f64,
}

impl Sampler {
    /// Measure what a clock pair costs: the median of 2001 empty intervals.
    pub fn calibrate() -> Sampler {
        let mut gaps = Vec::with_capacity(2001);
        for _ in 0..2001 {
            let a = thread_cpu();
            let b = thread_cpu();
            gaps.push(b.saturating_sub(a).as_nanos() as f64);
        }
        let timer_overhead_ns = Stats::of(&gaps).expect("2001 samples").median;
        Sampler { timer_overhead_ns }
    }

    /// Time `batch(ops)` — which must perform `ops` operations —
    /// [`BATCHES`] times after one untimed warm-up call.
    pub fn measure(&self, ops: usize, mut batch: impl FnMut(usize)) -> Sample {
        assert!(
            ops >= MIN_BATCH_OPS,
            "a batch holds at least {MIN_BATCH_OPS} ops"
        );
        batch(ops);
        let mut batch_ns = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let a = thread_cpu();
            batch(ops);
            let b = thread_cpu();
            batch_ns.push(b.saturating_sub(a).as_nanos() as f64);
        }
        summarize(&batch_ns, ops, self.timer_overhead_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_n_median_is_the_middle_value() {
        let s = Stats::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.n, s.median, s.min, s.max), (3, 3.0, 1.0, 5.0));
        assert_eq!((s.q1, s.q3), (1.0, 5.0));
        assert_eq!(s.mad, 2.0);
    }

    #[test]
    fn even_n_median_is_the_mean_of_the_middle_pair() {
        let s = Stats::of(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.median, 2.5);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
        assert_eq!(s.mad, 1.0);
    }

    #[test]
    fn quartiles_match_python_on_ten_values() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stats::of(&xs).unwrap();
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.iqr_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_outlier_moves_neither_median_nor_mad() {
        let clean = Stats::of(&[10.0, 11.0, 9.0, 10.0, 10.0, 11.0, 9.0]).unwrap();
        let dirty = Stats::of(&[10.0, 11.0, 9.0, 10.0, 10.0, 11.0, 9_000.0]).unwrap();
        assert_eq!(clean.median, dirty.median);
        assert_eq!(clean.mad, dirty.mad);
        assert_eq!(dirty.max, 9_000.0);
    }

    #[test]
    fn constant_input_has_zero_spread_and_single_sample_is_itself() {
        let s = Stats::of(&[7.0; 9]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.mad), (7.0, 7.0, 7.0, 0.0));
        assert_eq!(s.iqr_ratio(), 0.0);
        let one = Stats::of(&[4.5]).unwrap();
        assert_eq!(
            (one.n, one.median, one.q1, one.q3, one.mad),
            (1, 4.5, 4.5, 4.5, 0.0)
        );
    }

    #[test]
    fn empty_and_non_finite_input_is_refused() {
        assert!(Stats::of(&[]).is_none());
        assert!(Stats::of(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn summarize_subtracts_the_timer_and_flags_lines_under_the_floor() {
        // 1000 ops per batch, 50 ns per op, 100 ns per clock pair.
        let batches = [50_100.0, 50_100.0, 50_100.0, 50_100.0, 50_100.0];
        let s = summarize(&batches, 1_000, 100.0);
        assert_eq!(s.ns.median, 50.0);
        assert_eq!(
            s.noise_floor_ns, 0.1,
            "constant input: the timer share is the floor"
        );
        assert!(!s.below_noise);
        // The same batches with a clock pair that costs as much as the work.
        let s = summarize(&[200.0, 260.0, 140.0], 1_000, 150.0);
        assert!(
            s.below_noise,
            "median 0.05 ns against a 0.15 ns floor: {s:?}"
        );
    }

    #[test]
    fn measure_times_real_work() {
        let sampler = Sampler::calibrate();
        assert!(sampler.timer_overhead_ns >= 0.0);
        let mut calls = 0;
        let s = sampler.measure(MIN_BATCH_OPS, |ops| {
            calls += 1;
            let mut x = 0u64;
            for i in 0..ops as u64 * 20 {
                x = std::hint::black_box(x ^ i.wrapping_mul(0x9E37_79B9));
            }
        });
        assert_eq!(calls, BATCHES + 1, "one warm-up batch plus the timed ones");
        assert_eq!(s.ns.n, BATCHES);
        assert!(s.ns.median > 0.0);
    }
}
