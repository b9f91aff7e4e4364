//! Phase windows: warmup → ramp-up → measurement.
//!
//! A load run is divided into three consecutive windows:
//!
//! 1. **Warmup** `[0, warmup)` — arrivals at a low steady fraction of the
//!    target rate ([`PhasePlan::WARMUP_SCALE`]) to warm caches and buffer
//!    pools without overwhelming a cold system; nothing is measured.
//! 2. **Ramp-up** `[warmup, warmup+rampup)` — the offered rate scales
//!    linearly from the warmup fraction to 100%; still unmeasured.
//! 3. **Measurement** `[warmup+rampup, total)` — full rate, and only
//!    operations *scheduled* in this window are recorded.
//!
//! Windows are half-open, consistent with the rest of the testbed.

use cb_sim::{SimDuration, SimTime};

use crate::process::parse_duration;

/// The three consecutive phase windows of a load run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhasePlan {
    /// Length of the warmup window.
    pub warmup: SimDuration,
    /// Length of the ramp-up window.
    pub rampup: SimDuration,
    /// Length of the measurement window.
    pub measure: SimDuration,
}

impl PhasePlan {
    /// Fraction of the target rate offered during warmup.
    pub(crate) const WARMUP_SCALE: f64 = 0.1;

    /// A plan with explicit windows.
    pub fn new(warmup: SimDuration, rampup: SimDuration, measure: SimDuration) -> Self {
        PhasePlan {
            warmup,
            rampup,
            measure,
        }
    }

    /// A plan that measures from the first instant (no warmup or ramp).
    pub fn measure_only(measure: SimDuration) -> Self {
        PhasePlan::new(SimDuration::ZERO, SimDuration::ZERO, measure)
    }

    /// Parse `"<warmup>,<rampup>,<measure>"`, each a duration as an arrival
    /// spec writes it (`2s`, `500ms`, `250us`, or bare seconds; e.g.
    /// `"5s,10s,60s"` or `"0,0,20"`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(',').collect();
        if parts.len() != 3 {
            return Err(format!("expected warmup,rampup,measure — got {spec:?}"));
        }
        let plan = PhasePlan::new(
            parse_duration(parts[0])?,
            parse_duration(parts[1])?,
            parse_duration(parts[2])?,
        );
        if plan.measure.is_zero() {
            return Err("measurement window must be positive".into());
        }
        Ok(plan)
    }

    /// Total plan length (the run horizon).
    pub fn total(&self) -> SimDuration {
        self.warmup + self.rampup + self.measure
    }

    /// The half-open measurement window `[start, end)`.
    pub fn measure_window(&self) -> (SimTime, SimTime) {
        let start = SimTime::ZERO + self.warmup + self.rampup;
        (start, SimTime::ZERO + self.total())
    }

    /// True if an operation scheduled at `t` falls in the measurement window.
    pub fn in_measurement(&self, t: SimTime) -> bool {
        let (start, end) = self.measure_window();
        t >= start && t < end
    }

    /// Offered-rate scale at instant `t`: [`Self::WARMUP_SCALE`] during
    /// warmup, a linear ramp to 1.0 across ramp-up, then 1.0.
    pub(crate) fn rate_scale(&self, t: SimTime) -> f64 {
        let warm_end = SimTime::ZERO + self.warmup;
        let ramp_end = warm_end + self.rampup;
        if t < warm_end {
            Self::WARMUP_SCALE
        } else if t < ramp_end {
            let frac = t.saturating_since(warm_end).as_secs_f64() / self.rampup.as_secs_f64();
            Self::WARMUP_SCALE + (1.0 - Self::WARMUP_SCALE) * frac
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_total() {
        let p = PhasePlan::parse("5s,10s,60s").unwrap();
        assert_eq!(p.warmup, SimDuration::from_secs(5));
        assert_eq!(p.rampup, SimDuration::from_secs(10));
        assert_eq!(p.measure, SimDuration::from_secs(60));
        assert_eq!(p.total(), SimDuration::from_secs(75));
        assert!(PhasePlan::parse("1,2").is_err());
        assert!(PhasePlan::parse("1,2,0").is_err());
        assert!(PhasePlan::parse("1,-2,3").is_err());
        // Rust's float parser takes these: NaN ran as a 0 s window, and an
        // infinite one saturated the horizon at u64::MAX ns and never ended.
        for spec in ["nan,nan,1", "0,0,inf", "inf,1,1", "1,-inf,1", "0,0,NaN"] {
            let e = PhasePlan::parse(spec).unwrap_err();
            assert!(e.contains("not a finite duration"), "{spec}: {e}");
        }
    }

    #[test]
    fn measurement_window_is_half_open() {
        let p = PhasePlan::parse("1s,1s,2s").unwrap();
        let (start, end) = p.measure_window();
        assert_eq!(start, SimTime::from_secs(2));
        assert_eq!(end, SimTime::from_secs(4));
        assert!(!p.in_measurement(SimTime::from_millis(1999)));
        assert!(p.in_measurement(start));
        assert!(p.in_measurement(SimTime::from_millis(3999)));
        assert!(!p.in_measurement(end));
    }

    #[test]
    fn rate_scale_ramps_linearly() {
        let p = PhasePlan::parse("2s,4s,10s").unwrap();
        assert!((p.rate_scale(SimTime::ZERO) - PhasePlan::WARMUP_SCALE).abs() < 1e-12);
        assert!((p.rate_scale(SimTime::from_secs(1)) - PhasePlan::WARMUP_SCALE).abs() < 1e-12);
        let mid = p.rate_scale(SimTime::from_secs(4));
        assert!((mid - (PhasePlan::WARMUP_SCALE + 0.9 * 0.5)).abs() < 1e-12);
        assert!((p.rate_scale(SimTime::from_secs(6)) - 1.0).abs() < 1e-12);
        assert!((p.rate_scale(SimTime::from_secs(60)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_only_skips_straight_to_full_rate() {
        let p = PhasePlan::measure_only(SimDuration::from_secs(20));
        assert!((p.rate_scale(SimTime::ZERO) - 1.0).abs() < 1e-12);
        assert!(p.in_measurement(SimTime::ZERO));
        assert_eq!(p.total(), SimDuration::from_secs(20));
    }
}
