//! Autoscaling policies of the systems under test.
//!
//! A policy is sampled periodically with the node's CPU utilization and
//! answers with an optional scale decision. The four policies mirror the
//! paper's observations:
//!
//! * [`FixedCapacity`] — AWS RDS and CDB4: provisioned instances.
//! * [`OnDemandScaler`] — CDB2: scales up *and* down on demand every period.
//! * [`GradualDownScaler`] — CDB1: scales up promptly but releases capacity
//!   one small step at a time (the paper measures 14 s up, 479 s down).
//! * [`QuantScaler`] — CDB3: 0.25-CU granularity, immediate adaptation,
//!   pause-and-resume to zero, but requiring consecutive low samples before
//!   scaling down (which is why it misses short valleys).

use cb_sim::{SimDuration, SimTime};

/// A pending scaling action.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleDecision {
    /// Desired vCores (0.0 = pause).
    pub target_vcores: f64,
    /// When the new allocation takes effect.
    pub effective_at: SimTime,
}

/// What a policy sees at each sample.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSample {
    /// The sampling instant.
    pub now: SimTime,
    /// CPU utilization over the last interval, in [0, 1].
    pub util: f64,
    /// Currently allocated vCores.
    pub current: f64,
    /// True if clients are actively offering load (drives pause decisions).
    pub offered_load: bool,
}

/// An autoscaling policy.
pub trait ScalingPolicy {
    /// How often the controller samples utilization.
    fn sample_interval(&self) -> SimDuration;
    /// Decide on a scaling action given the sample.
    fn decide(&mut self, sample: ScaleSample) -> Option<ScaleDecision>;
    /// Delay from demand arriving at a paused node to service availability.
    fn resume_delay(&self) -> SimDuration {
        SimDuration::from_secs(2)
    }
    /// Human-readable policy name.
    fn name(&self) -> &'static str;
}

/// Quantize `v` up to a multiple of `granularity` within `[min, max]`.
fn quantize(v: f64, granularity: f64, min: f64, max: f64) -> f64 {
    let q = (v / granularity).ceil() * granularity;
    q.clamp(min, max)
}

/// The demand-derived vCore target: utilization above `setpoint` needs more
/// capacity, below needs less. A pegged CPU (util > 0.9) doubles — the
/// multiplicative-increase fast path real serverless controllers use so a
/// tiny allocation can reach a big target within a few samples.
fn demand_target(util: f64, current: f64, setpoint: f64) -> f64 {
    if util > 0.9 {
        (current * 2.0).max(current * util / setpoint)
    } else {
        current * (util / setpoint)
    }
}

/// Fixed, provisioned capacity: never scales.
pub struct FixedCapacity;

impl ScalingPolicy for FixedCapacity {
    fn sample_interval(&self) -> SimDuration {
        SimDuration::from_secs(60)
    }
    fn decide(&mut self, _sample: ScaleSample) -> Option<ScaleDecision> {
        None
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Scales up and down on demand, with a fixed reaction delay (CDB2-like).
pub struct OnDemandScaler {
    /// Minimum vCores (e.g. 0.5 for the elastic pool tier).
    pub min: f64,
    /// Maximum vCores.
    pub max: f64,
    /// Allocation granularity.
    pub granularity: f64,
    /// Delay before a new allocation takes effect.
    pub reaction: SimDuration,
    /// Target utilization.
    pub setpoint: f64,
    /// Sampling period.
    pub interval: SimDuration,
}

impl OnDemandScaler {
    /// CDB2-flavoured defaults: 0.5–4 vCores in 0.5 steps, ~15 s reaction.
    pub fn cdb2_default() -> Self {
        OnDemandScaler {
            min: 0.5,
            max: 4.0,
            granularity: 0.5,
            reaction: SimDuration::from_secs(15),
            setpoint: 0.7,
            interval: SimDuration::from_secs(15),
        }
    }
}

impl ScalingPolicy for OnDemandScaler {
    fn sample_interval(&self) -> SimDuration {
        self.interval
    }
    fn decide(&mut self, s: ScaleSample) -> Option<ScaleDecision> {
        let target = quantize(
            demand_target(s.util, s.current, self.setpoint),
            self.granularity,
            self.min,
            self.max,
        );
        if (target - s.current).abs() < self.granularity / 2.0 {
            return None;
        }
        Some(ScaleDecision {
            target_vcores: target,
            effective_at: s.now + self.reaction,
        })
    }
    fn name(&self) -> &'static str {
        "on-demand"
    }
}

/// Scales up promptly, releases capacity gradually (CDB1-like).
pub struct GradualDownScaler {
    /// Minimum vCores.
    pub min: f64,
    /// Maximum vCores.
    pub max: f64,
    /// Allocation granularity for scale-up.
    pub granularity: f64,
    /// Scale-up reaction delay.
    pub up_reaction: SimDuration,
    /// Size of one downward step.
    pub down_step: f64,
    /// Minimum time between downward steps.
    pub down_interval: SimDuration,
    /// Target utilization.
    pub setpoint: f64,
    /// Sampling period.
    pub interval: SimDuration,
    last_down: Option<SimTime>,
}

impl GradualDownScaler {
    /// CDB1-flavoured defaults: 1–4 vCores, ~10 s up, 0.25-vCore steps every
    /// 30 s down (so releasing the full range takes minutes, matching the
    /// paper's 479 s observation).
    pub(crate) fn cdb1_default() -> Self {
        GradualDownScaler {
            min: 1.0,
            max: 4.0,
            granularity: 1.0,
            up_reaction: SimDuration::from_secs(10),
            down_step: 0.25,
            down_interval: SimDuration::from_secs(30),
            setpoint: 0.7,
            interval: SimDuration::from_secs(10),
            last_down: None,
        }
    }

    /// The defaults with custom capacity bounds.
    pub fn with_bounds(min: f64, max: f64) -> Self {
        GradualDownScaler {
            min,
            max,
            ..GradualDownScaler::cdb1_default()
        }
    }
}

impl ScalingPolicy for GradualDownScaler {
    fn sample_interval(&self) -> SimDuration {
        self.interval
    }
    fn decide(&mut self, s: ScaleSample) -> Option<ScaleDecision> {
        let raw = demand_target(s.util, s.current, self.setpoint);
        if s.util > self.setpoint + 0.05 {
            // Scale up: jump straight to the demand target.
            let target = quantize(raw, self.granularity, self.min, self.max);
            if target > s.current {
                self.last_down = None;
                return Some(ScaleDecision {
                    target_vcores: target,
                    effective_at: s.now + self.up_reaction,
                });
            }
            return None;
        }
        if raw < s.current - self.down_step / 2.0 && s.current > self.min {
            // Scale down: one small step, rate-limited.
            if let Some(last) = self.last_down {
                if s.now.saturating_since(last) < self.down_interval {
                    return None;
                }
            }
            self.last_down = Some(s.now);
            let target = (s.current - self.down_step).max(self.min);
            return Some(ScaleDecision {
                target_vcores: target,
                effective_at: s.now,
            });
        }
        None
    }
    fn name(&self) -> &'static str {
        "gradual-down"
    }
}

/// Capacity-unit scaler with pause-and-resume (CDB3-like).
pub struct QuantScaler {
    /// Smallest non-zero allocation (e.g. 0.25 CU).
    pub min: f64,
    /// Maximum vCores.
    pub max: f64,
    /// Allocation granularity.
    pub granularity: f64,
    /// Reaction delay (both directions).
    pub reaction: SimDuration,
    /// Consecutive low samples required before scaling down — short valleys
    /// do not trigger a release.
    pub down_confirm: u32,
    /// Consecutive idle samples (no offered load) before pausing to zero.
    pub pause_confirm: u32,
    /// Target utilization.
    pub setpoint: f64,
    /// Sampling period.
    pub interval: SimDuration,
    /// Delay to resume from pause.
    pub resume: SimDuration,
    low_streak: u32,
    idle_streak: u32,
}

impl QuantScaler {
    /// CDB3-flavoured defaults: 0.25–4 CU in 0.25 steps, 20 s sampling with
    /// a 25 s apply delay (~45–60 s end-to-end, the paper's observed
    /// scaling granularity), 2-sample down confirmation (so one-minute
    /// valleys are missed, as Table VI records), pause after ~40 s idle.
    pub(crate) fn cdb3_default() -> Self {
        QuantScaler {
            min: 0.25,
            max: 4.0,
            granularity: 0.25,
            reaction: SimDuration::from_secs(25),
            down_confirm: 2,
            pause_confirm: 2,
            setpoint: 0.7,
            interval: SimDuration::from_secs(20),
            resume: SimDuration::from_secs(2),
            low_streak: 0,
            idle_streak: 0,
        }
    }

    /// The defaults with custom capacity bounds.
    pub fn with_bounds(min: f64, max: f64) -> Self {
        QuantScaler {
            min,
            max,
            ..QuantScaler::cdb3_default()
        }
    }
}

impl ScalingPolicy for QuantScaler {
    fn sample_interval(&self) -> SimDuration {
        self.interval
    }
    fn decide(&mut self, s: ScaleSample) -> Option<ScaleDecision> {
        // Pause path: sustained zero offered load.
        if !s.offered_load && s.util < 0.01 {
            self.idle_streak += 1;
            if self.idle_streak >= self.pause_confirm && s.current > 0.0 {
                self.idle_streak = 0;
                self.low_streak = 0;
                return Some(ScaleDecision {
                    target_vcores: 0.0,
                    effective_at: s.now,
                });
            }
            return None;
        }
        self.idle_streak = 0;
        let target = quantize(
            demand_target(s.util, s.current, self.setpoint),
            self.granularity,
            self.min,
            self.max,
        );
        if target > s.current {
            self.low_streak = 0;
            return Some(ScaleDecision {
                target_vcores: target,
                effective_at: s.now + self.reaction,
            });
        }
        if target < s.current {
            self.low_streak += 1;
            if self.low_streak >= self.down_confirm {
                self.low_streak = 0;
                return Some(ScaleDecision {
                    target_vcores: target,
                    effective_at: s.now + self.reaction,
                });
            }
            return None;
        }
        self.low_streak = 0;
        None
    }
    fn resume_delay(&self) -> SimDuration {
        self.resume
    }
    fn name(&self) -> &'static str {
        "quant-pause-resume"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(now_s: u64, util: f64, current: f64, load: bool) -> ScaleSample {
        ScaleSample {
            now: SimTime::from_secs(now_s),
            util,
            current,
            offered_load: load,
        }
    }

    #[test]
    fn fixed_never_scales() {
        let mut p = FixedCapacity;
        assert_eq!(p.decide(sample(0, 1.0, 4.0, true)), None);
        assert_eq!(p.decide(sample(60, 0.0, 4.0, false)), None);
    }

    #[test]
    fn on_demand_scales_both_ways() {
        let mut p = OnDemandScaler::cdb2_default();
        // Saturated at 2 vCores: scale up.
        let up = p.decide(sample(0, 1.0, 2.0, true)).unwrap();
        assert!(up.target_vcores > 2.0);
        assert_eq!(up.effective_at, SimTime::from_secs(15));
        // Nearly idle at 4 vCores: scale down toward the minimum.
        let down = p.decide(sample(60, 0.05, 4.0, true)).unwrap();
        assert!(down.target_vcores < 1.0);
        assert!(down.target_vcores >= p.min);
        // At the sweet spot: no change.
        assert_eq!(p.decide(sample(120, 0.7, 2.0, true)), None);
    }

    #[test]
    fn gradual_down_releases_slowly() {
        let mut p = GradualDownScaler::cdb1_default();
        // Scale-up jumps.
        let up = p.decide(sample(0, 1.0, 1.0, true)).unwrap();
        assert!(up.target_vcores >= 1.4 / 0.7 - 0.01);
        // Idle at 4 vCores: one step down...
        let d1 = p.decide(sample(100, 0.0, 4.0, true)).unwrap();
        assert!((d1.target_vcores - 3.75).abs() < 1e-9);
        // ...but not again within the down interval.
        assert_eq!(p.decide(sample(110, 0.0, 3.75, true)), None);
        // After the interval, another step.
        let d2 = p.decide(sample(131, 0.0, 3.75, true)).unwrap();
        assert!((d2.target_vcores - 3.5).abs() < 1e-9);
        // Full release of (4.0 - 1.0) takes 12 steps * 30 s = 6 minutes.
    }

    #[test]
    fn quant_requires_confirmation_to_scale_down() {
        let mut p = QuantScaler::cdb3_default();
        // One low sample: hold (this is why CDB3 misses short valleys).
        assert_eq!(p.decide(sample(60, 0.1, 4.0, true)), None);
        // Second consecutive low sample: release.
        let d = p.decide(sample(120, 0.1, 4.0, true)).unwrap();
        assert!(d.target_vcores < 4.0);
        // A busy sample resets the streak.
        assert_eq!(p.decide(sample(180, 0.1, 4.0, true)), None);
        let _ = p.decide(sample(240, 0.72, 4.0, true)); // on-target: streak reset
        assert_eq!(p.decide(sample(300, 0.1, 4.0, true)), None);
    }

    #[test]
    fn quant_pauses_after_confirmed_idleness() {
        let mut p = QuantScaler::cdb3_default();
        assert_eq!(
            p.decide(sample(20, 0.0, 2.0, false)),
            None,
            "first idle sample holds"
        );
        let d = p.decide(sample(40, 0.0, 2.0, false)).unwrap();
        assert_eq!(d.target_vcores, 0.0);
        assert!(p.resume_delay() > SimDuration::ZERO);
        // Already paused: no repeated decision.
        assert_eq!(p.decide(sample(60, 0.0, 0.0, false)), None);
        assert_eq!(p.decide(sample(80, 0.0, 0.0, false)), None);
    }

    #[test]
    fn quant_scales_up_with_its_reaction_delay() {
        let mut p = QuantScaler::cdb3_default();
        let d = p.decide(sample(60, 1.0, 0.25, true)).unwrap();
        assert!(d.target_vcores > 0.25);
        assert_eq!(
            d.effective_at,
            SimTime::from_secs(85),
            "20s sample + 25s apply"
        );
    }

    #[test]
    fn quantize_clamps_and_rounds_up() {
        assert_eq!(quantize(1.1, 0.25, 0.25, 4.0), 1.25);
        assert_eq!(quantize(9.0, 0.25, 0.25, 4.0), 4.0);
        assert_eq!(quantize(0.0, 0.25, 0.25, 4.0), 0.25);
        assert_eq!(quantize(2.0, 0.5, 0.5, 4.0), 2.0);
    }
}
