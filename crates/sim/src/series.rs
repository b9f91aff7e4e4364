//! Time-series recorders and summary statistics for the performance collector.

use crate::time::{SimDuration, SimTime};

/// Counts discrete events (e.g. transaction commits) into fixed-width slots
/// and reports per-slot and average rates.
#[derive(Clone, Debug)]
pub struct TpsRecorder {
    slot: SimDuration,
    counts: Vec<u64>,
    /// Hard cap on slot growth; events past it are dropped instead of
    /// allocating (a stray far-future timestamp must not OOM the recorder).
    max_slots: usize,
}

impl TpsRecorder {
    /// A recorder with `slot`-wide buckets (must be non-zero) whose slot
    /// storage is capped at the run `horizon`: events timestamped past the
    /// slot containing the horizon instant are not recorded. An event at
    /// exactly the horizon still records (drivers close their measurement
    /// window with `end <= horizon`).
    pub fn with_horizon(slot: SimDuration, horizon: SimDuration) -> Self {
        assert!(!slot.is_zero(), "slot width must be positive");
        TpsRecorder {
            slot,
            counts: Vec::new(),
            max_slots: (horizon.as_nanos() / slot.as_nanos()) as usize + 1,
        }
    }

    /// Record one event at `at`.
    pub fn record(&mut self, at: SimTime) {
        let idx = (at.as_nanos() / self.slot.as_nanos()) as usize;
        if idx >= self.max_slots {
            return;
        }
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Events per second in each slot.
    pub fn rate_series(&self) -> Vec<f64> {
        let secs = self.slot.as_secs_f64();
        self.counts.iter().map(|c| *c as f64 / secs).collect()
    }

    /// Average rate (events/sec) over `[from, to)`.
    pub fn avg_rate(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_since(from);
        if span.is_zero() {
            return 0.0;
        }
        let lo = (from.as_nanos() / self.slot.as_nanos()) as usize;
        let hi = to.as_nanos().div_ceil(self.slot.as_nanos()) as usize;
        let total: u64 = self
            .counts
            .iter()
            .skip(lo)
            .take(hi.saturating_sub(lo))
            .sum();
        total as f64 / span.as_secs_f64()
    }
}

/// A right-continuous step function of time (e.g. allocated vCores).
#[derive(Clone, Debug, Default)]
pub struct GaugeSeries {
    points: Vec<(SimTime, f64)>,
}

impl GaugeSeries {
    /// A gauge with an initial value at t=0.
    pub fn starting_at(value: f64) -> Self {
        GaugeSeries {
            points: vec![(SimTime::ZERO, value)],
        }
    }

    /// Record that the gauge changed to `value` at `at`. Out-of-order updates
    /// are rejected in debug builds.
    pub fn set(&mut self, at: SimTime, value: f64) {
        if let Some((last, _)) = self.points.last() {
            debug_assert!(*last <= at, "gauge updates must be time-ordered");
        }
        // Collapse same-instant updates: the last writer wins.
        if let Some(last) = self.points.last_mut() {
            if last.0 == at {
                last.1 = value;
                return;
            }
        }
        self.points.push((at, value));
    }

    /// The gauge value at `at` (the most recent set at or before `at`).
    pub fn value_at(&self, at: SimTime) -> f64 {
        match self.points.binary_search_by(|(t, _)| t.cmp(&at)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Integral of the gauge over `[from, to)` in value-seconds.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.points.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cursor = from;
        let mut value = self.value_at(from);
        for (t, v) in &self.points {
            if *t <= cursor {
                continue;
            }
            if *t >= to {
                break;
            }
            acc += value * (*t - cursor).as_secs_f64();
            cursor = *t;
            value = *v;
        }
        acc += value * to.saturating_since(cursor).as_secs_f64();
        acc
    }

    /// Maximum value attained in `[from, to]` (including the value carried
    /// into the window).
    pub fn max_in(&self, from: SimTime, to: SimTime) -> f64 {
        let mut m = self.value_at(from);
        for (t, v) in &self.points {
            if *t > from && *t <= to {
                m = m.max(*v);
            }
        }
        m
    }

    /// Minimum value attained in `[from, to]`.
    pub fn min_in(&self, from: SimTime, to: SimTime) -> f64 {
        let mut m = self.value_at(from);
        for (t, v) in &self.points {
            if *t > from && *t <= to {
                m = m.min(*v);
            }
        }
        m
    }

    /// All recorded change points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Sample the gauge at a fixed `step`, producing `n` values starting at
    /// `from` (used to print figure series).
    pub fn sample(&self, from: SimTime, step: SimDuration, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| self.value_at(from + step * i as u64))
            .collect()
    }
}

/// Geometric mean of the *positive* elements; 0.0 when none remain.
///
/// Non-positive (or NaN) elements are dropped with a warning rather than
/// zeroing the whole mean: one idle tenant in a consolidation run should
/// dent the T-Score, not erase it.
pub fn geomean(xs: &[f64]) -> f64 {
    let kept: Vec<f64> = xs.iter().copied().filter(|x| *x > 0.0).collect();
    let dropped = xs.len() - kept.len();
    if dropped > 0 {
        eprintln!(
            "warning: geomean dropped {dropped} non-positive element(s) of {}",
            xs.len()
        );
    }
    if kept.is_empty() {
        return 0.0;
    }
    (kept.iter().map(|x| x.ln()).sum::<f64>() / kept.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tps_buckets_and_average() {
        let mut r =
            TpsRecorder::with_horizon(SimDuration::from_secs(1), SimDuration::from_secs(10));
        for i in 0..10 {
            r.record(SimTime::from_millis(i * 100)); // 10 events in second 0
        }
        for i in 0..5 {
            r.record(SimTime::from_millis(1000 + i * 100)); // 5 in second 1
        }
        assert_eq!(r.rate_series(), vec![10.0, 5.0]);
        let avg = r.avg_rate(SimTime::ZERO, SimTime::from_secs(2));
        assert!((avg - 7.5).abs() < 1e-9);
    }

    #[test]
    fn horizon_caps_slot_growth() {
        let mut r =
            TpsRecorder::with_horizon(SimDuration::from_secs(1), SimDuration::from_secs(10));
        r.record(SimTime::from_secs(2));
        r.record(SimTime::from_secs(10)); // exactly at the horizon: in range
                                          // A stray far-future event must not allocate gigabytes of slots.
        r.record(SimTime::from_secs(3_000_000));
        r.record(SimTime::from_secs(11)); // first slot past the horizon's
        assert_eq!(r.counts.iter().sum::<u64>(), 2);
        assert!(r.counts.len() <= 11);
    }

    #[test]
    fn gauge_value_and_integral() {
        let mut g = GaugeSeries::starting_at(4.0);
        g.set(SimTime::from_secs(10), 2.0);
        g.set(SimTime::from_secs(20), 0.0);
        assert_eq!(g.value_at(SimTime::from_secs(5)), 4.0);
        assert_eq!(g.value_at(SimTime::from_secs(10)), 2.0);
        assert_eq!(g.value_at(SimTime::from_secs(25)), 0.0);
        // 4*10 + 2*10 + 0*10 = 60 value-seconds.
        let integral = g.integral(SimTime::ZERO, SimTime::from_secs(30));
        assert!((integral - 60.0).abs() < 1e-9);
        // Partial window: [5, 15) = 4*5 + 2*5 = 30.
        let partial = g.integral(SimTime::from_secs(5), SimTime::from_secs(15));
        assert!((partial - 30.0).abs() < 1e-9);
    }

    #[test]
    fn gauge_min_max_and_sampling() {
        let mut g = GaugeSeries::starting_at(1.0);
        g.set(SimTime::from_secs(60), 3.25);
        g.set(SimTime::from_secs(120), 0.5);
        assert_eq!(g.max_in(SimTime::ZERO, SimTime::from_secs(180)), 3.25);
        assert_eq!(g.min_in(SimTime::ZERO, SimTime::from_secs(180)), 0.5);
        let samples = g.sample(SimTime::ZERO, SimDuration::from_secs(60), 3);
        assert_eq!(samples, vec![1.0, 3.25, 0.5]);
    }

    #[test]
    fn gauge_same_instant_last_writer_wins() {
        let mut g = GaugeSeries::default();
        g.set(SimTime::from_secs(1), 1.0);
        g.set(SimTime::from_secs(1), 2.0);
        assert_eq!(g.value_at(SimTime::from_secs(1)), 2.0);
        assert_eq!(g.points().len(), 1);
    }

    #[test]
    fn stats_helpers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        // A non-positive element is dropped (with a warning), not allowed to
        // zero the whole mean.
        assert_eq!(geomean(&[1.0, 0.0]), 1.0);
        assert_eq!(geomean(&[4.0, -1.0, 9.0]), 6.0);
        assert_eq!(geomean(&[0.0, -3.0]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }
}
