//! Autoscaling of the systems under test.
//!
//! An [`Autoscaler`] samples one node's CPU utilization every interval and
//! answers with an optional scale decision. Which of the paper's four
//! behaviours it follows is a [`ScalingKind`]:
//!
//! * [`ScalingKind::Fixed`] — AWS RDS and CDB4: provisioned instances; no
//!   autoscaler is built.
//! * [`ScalingKind::OnDemand`] — CDB2: scales up *and* down on demand every
//!   period.
//! * [`ScalingKind::GradualDown`] — CDB1: scales up promptly but releases
//!   capacity one small step at a time (the paper measures 14 s up, 479 s
//!   down).
//! * [`ScalingKind::QuantPauseResume`] — CDB3: 0.25-CU granularity,
//!   immediate adaptation, pause-and-resume to zero, but requiring
//!   consecutive low samples before scaling down (which is why it misses
//!   short valleys).
//!
//! A profile supplies only the capacity bounds; every other tuning value is
//! a constant of its kind.

use cb_sim::{CpuResource, SimDuration, SimTime};

use crate::node::Node;

/// Which autoscaling behaviour a SUT uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalingKind {
    /// Provisioned capacity (AWS RDS, CDB4).
    Fixed,
    /// On-demand up/down each period (CDB2).
    OnDemand,
    /// Fast up, gradual down (CDB1).
    GradualDown,
    /// Quantized CU with pause-and-resume (CDB3).
    QuantPauseResume,
}

/// A pending scaling action.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleDecision {
    /// Desired vCores (0.0 = pause).
    pub target_vcores: f64,
    /// When the new allocation takes effect.
    pub effective_at: SimTime,
}

/// The per-kind timing and step of an autoscaled kind.
#[derive(Clone, Copy)]
struct Tuning {
    /// Sampling period.
    interval: SimDuration,
    /// Delay before a demand-driven allocation takes effect.
    reaction: SimDuration,
    /// Allocation granularity.
    granularity: f64,
}

/// CDB2: 0.5-vCore steps, sampled every 15 s, applied 15 s later.
const ON_DEMAND: Tuning = Tuning {
    interval: SimDuration::from_secs(15),
    reaction: SimDuration::from_secs(15),
    granularity: 0.5,
};

/// CDB1: whole vCores up after 10 s; down by [`DOWN_STEP`] at most once per
/// [`DOWN_INTERVAL`], so releasing the full range takes minutes (the
/// paper's 479 s observation).
const GRADUAL_DOWN: Tuning = Tuning {
    interval: SimDuration::from_secs(10),
    reaction: SimDuration::from_secs(10),
    granularity: 1.0,
};
const DOWN_STEP: f64 = 0.25;
const DOWN_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// CDB3: 0.25-CU steps, 20 s sampling with a 25 s apply delay (~45–60 s
/// end-to-end, the paper's observed scaling granularity), in both
/// directions.
const QUANT: Tuning = Tuning {
    interval: SimDuration::from_secs(20),
    reaction: SimDuration::from_secs(25),
    granularity: 0.25,
};
/// Consecutive low samples before CDB3 scales down, so one-minute valleys
/// are missed, as Table VI records.
const DOWN_CONFIRM: u32 = 2;
/// Consecutive idle samples (no offered load) before CDB3 pauses to zero
/// (~40 s idle).
const PAUSE_CONFIRM: u32 = 2;

/// Target CPU utilization of every autoscaled kind.
const SETPOINT: f64 = 0.7;

/// Quantize `v` up to a multiple of `granularity` within `[min, max]`.
fn quantize(v: f64, granularity: f64, min: f64, max: f64) -> f64 {
    let q = (v / granularity).ceil() * granularity;
    q.clamp(min, max)
}

/// The demand-derived vCore target: utilization above the setpoint needs
/// more capacity, below needs less. A pegged CPU (util > 0.9) doubles — the
/// multiplicative-increase fast path real serverless controllers use so a
/// tiny allocation can reach a big target within a few samples.
fn demand_target(util: f64, current: f64) -> f64 {
    if util > 0.9 {
        (current * 2.0).max(current * util / SETPOINT)
    } else {
        current * (util / SETPOINT)
    }
}

/// One node's autoscaler: the kind's decision rule, its streak state, and
/// the busy-core / vCore-integral snapshot its utilization is measured
/// against.
pub struct Autoscaler {
    kind: ScalingKind,
    tuning: Tuning,
    min: f64,
    max: f64,
    /// Busy core-seconds at the last observation.
    busy_snap: f64,
    /// Instant of the last observation.
    snap_time: SimTime,
    /// Last downward step (gradual-down).
    last_down: Option<SimTime>,
    /// Consecutive below-target samples (quantised).
    low_streak: u32,
    /// Consecutive idle samples (quantised).
    idle_streak: u32,
}

impl Autoscaler {
    /// Delay from demand arriving at a paused node to service availability;
    /// the same for every kind.
    pub const RESUME_DELAY: SimDuration = SimDuration::from_secs(2);

    /// The autoscaler of `kind` for `node`, bounded to `[min, max]` vCores,
    /// with `node` set to its minimum allocation (autoscaled tiers start
    /// there) and the utilization window opened at time zero. `None` for
    /// [`ScalingKind::Fixed`]: provisioned capacity never moves.
    pub fn new(kind: ScalingKind, min: f64, max: f64, node: &mut Node) -> Option<Self> {
        let tuning = match kind {
            ScalingKind::Fixed => return None,
            ScalingKind::OnDemand => ON_DEMAND,
            ScalingKind::GradualDown => GRADUAL_DOWN,
            ScalingKind::QuantPauseResume => QUANT,
        };
        node.set_vcores(SimTime::ZERO, min);
        Some(Autoscaler {
            kind,
            tuning,
            min,
            max,
            busy_snap: node.cpu.busy_core_secs(),
            snap_time: SimTime::ZERO,
            last_down: None,
            low_streak: 0,
            idle_streak: 0,
        })
    }

    /// How often the controller samples utilization.
    pub fn interval(&self) -> SimDuration {
        self.tuning.interval
    }

    /// `node`'s CPU utilization since the previous observation, in [0, 1];
    /// the next window starts at `now`.
    pub fn observe(&mut self, node: &Node, now: SimTime) -> f64 {
        let busy = node.cpu.busy_core_secs();
        let vcore_secs = node.vcore_gauge.integral(self.snap_time, now);
        let util = CpuResource::utilization(busy - self.busy_snap, vcore_secs);
        self.busy_snap = busy;
        self.snap_time = now;
        util
    }

    /// Decide on a scaling action at `now`, given the observed `util`, the
    /// `current` allocation, and whether clients are offering load (which
    /// drives pause decisions).
    pub fn decide(
        &mut self,
        now: SimTime,
        util: f64,
        current: f64,
        offered_load: bool,
    ) -> Option<ScaleDecision> {
        let Tuning {
            reaction,
            granularity,
            ..
        } = self.tuning;
        let raw = demand_target(util, current);
        let after = |delay: SimDuration, target_vcores: f64| {
            Some(ScaleDecision {
                target_vcores,
                effective_at: now + delay,
            })
        };
        match self.kind {
            ScalingKind::Fixed => None,
            ScalingKind::OnDemand => {
                let target = quantize(raw, granularity, self.min, self.max);
                if (target - current).abs() < granularity / 2.0 {
                    return None;
                }
                after(reaction, target)
            }
            ScalingKind::GradualDown => {
                if util > SETPOINT + 0.05 {
                    // Scale up: jump straight to the demand target.
                    let target = quantize(raw, granularity, self.min, self.max);
                    if target > current {
                        self.last_down = None;
                        return after(reaction, target);
                    }
                    return None;
                }
                if raw < current - DOWN_STEP / 2.0 && current > self.min {
                    // Scale down: one small step, rate-limited.
                    if let Some(last) = self.last_down {
                        if now.saturating_since(last) < DOWN_INTERVAL {
                            return None;
                        }
                    }
                    self.last_down = Some(now);
                    return after(SimDuration::ZERO, (current - DOWN_STEP).max(self.min));
                }
                None
            }
            ScalingKind::QuantPauseResume => {
                // Pause path: sustained zero offered load.
                if !offered_load && util < 0.01 {
                    self.idle_streak += 1;
                    if self.idle_streak >= PAUSE_CONFIRM && current > 0.0 {
                        self.idle_streak = 0;
                        self.low_streak = 0;
                        return after(SimDuration::ZERO, 0.0);
                    }
                    return None;
                }
                self.idle_streak = 0;
                let target = quantize(raw, granularity, self.min, self.max);
                if target > current {
                    self.low_streak = 0;
                    return after(reaction, target);
                }
                if target < current {
                    self.low_streak += 1;
                    if self.low_streak >= DOWN_CONFIRM {
                        self.low_streak = 0;
                        return after(reaction, target);
                    }
                    return None;
                }
                self.low_streak = 0;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeId, NodeRole};

    /// The autoscaler a profile with these bounds would build.
    fn scaler(kind: ScalingKind, min: f64, max: f64) -> Option<Autoscaler> {
        let mut node = Node::new(NodeId(0), NodeRole::ReadWrite, max, 16);
        Autoscaler::new(kind, min, max, &mut node)
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn fixed_never_scales() {
        // Provisioned capacity builds no autoscaler, so nothing can move it.
        let mut node = Node::new(NodeId(0), NodeRole::ReadWrite, 4.0, 16);
        assert!(Autoscaler::new(ScalingKind::Fixed, 1.0, 4.0, &mut node).is_none());
        assert_eq!(node.cpu.vcores(), 4.0, "the allocation is untouched");
    }

    #[test]
    fn on_demand_scales_both_ways() {
        let mut p = scaler(ScalingKind::OnDemand, 0.5, 4.0).unwrap();
        // Saturated at 2 vCores: scale up.
        let up = p.decide(at(0), 1.0, 2.0, true).unwrap();
        assert!(up.target_vcores > 2.0);
        assert_eq!(up.effective_at, SimTime::from_secs(15));
        // Nearly idle at 4 vCores: scale down toward the minimum.
        let down = p.decide(at(60), 0.05, 4.0, true).unwrap();
        assert!(down.target_vcores < 1.0);
        assert!(down.target_vcores >= p.min);
        // At the sweet spot: no change.
        assert_eq!(p.decide(at(120), 0.7, 2.0, true), None);
    }

    #[test]
    fn gradual_down_releases_slowly() {
        let mut p = scaler(ScalingKind::GradualDown, 1.0, 4.0).unwrap();
        // Scale-up jumps.
        let up = p.decide(at(0), 1.0, 1.0, true).unwrap();
        assert!(up.target_vcores >= 1.4 / 0.7 - 0.01);
        // Idle at 4 vCores: one step down...
        let d1 = p.decide(at(100), 0.0, 4.0, true).unwrap();
        assert!((d1.target_vcores - 3.75).abs() < 1e-9);
        // ...but not again within the down interval.
        assert_eq!(p.decide(at(110), 0.0, 3.75, true), None);
        // After the interval, another step.
        let d2 = p.decide(at(131), 0.0, 3.75, true).unwrap();
        assert!((d2.target_vcores - 3.5).abs() < 1e-9);
        // Full release of (4.0 - 1.0) takes 12 steps * 30 s = 6 minutes.
    }

    #[test]
    fn quant_requires_confirmation_to_scale_down() {
        let mut p = scaler(ScalingKind::QuantPauseResume, 0.25, 4.0).unwrap();
        // One low sample: hold (this is why CDB3 misses short valleys).
        assert_eq!(p.decide(at(60), 0.1, 4.0, true), None);
        // Second consecutive low sample: release.
        let d = p.decide(at(120), 0.1, 4.0, true).unwrap();
        assert!(d.target_vcores < 4.0);
        // A busy sample resets the streak.
        assert_eq!(p.decide(at(180), 0.1, 4.0, true), None);
        let _ = p.decide(at(240), 0.72, 4.0, true); // on-target: streak reset
        assert_eq!(p.decide(at(300), 0.1, 4.0, true), None);
    }

    #[test]
    fn quant_pauses_after_confirmed_idleness() {
        let mut p = scaler(ScalingKind::QuantPauseResume, 0.25, 4.0).unwrap();
        assert_eq!(
            p.decide(at(20), 0.0, 2.0, false),
            None,
            "first idle sample holds"
        );
        let d = p.decide(at(40), 0.0, 2.0, false).unwrap();
        assert_eq!(d.target_vcores, 0.0);
        assert!(Autoscaler::RESUME_DELAY > SimDuration::ZERO);
        // Already paused: no repeated decision.
        assert_eq!(p.decide(at(60), 0.0, 0.0, false), None);
        assert_eq!(p.decide(at(80), 0.0, 0.0, false), None);
    }

    #[test]
    fn quant_scales_up_with_its_reaction_delay() {
        let mut p = scaler(ScalingKind::QuantPauseResume, 0.25, 4.0).unwrap();
        let d = p.decide(at(60), 1.0, 0.25, true).unwrap();
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
