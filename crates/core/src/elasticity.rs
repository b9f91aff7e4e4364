//! Elasticity patterns and the elasticity evaluator (paper Sections II-C
//! and III-C).
//!
//! Four basic deterministic patterns with peaks and valleys, parameterized
//! by τ (the concurrency at which the tested database saturates):
//!
//! * (a) **single peak** — (0, 100%, 0) · an ETL maintenance job
//! * (b) **large spike** — (10%, 80%, 10%) · a hot-selling product
//! * (c) **single valley** — (40%, 20%, 40%) · declined sales
//! * (d) **zero valley** — (50%, 0, 50%) · out of stock, tests pause/resume
//!
//! The evaluator runs a pattern (one-minute slots), keeps observing for a
//! ten-minute billing window (slow scale-down keeps costing money after the
//! workload ends — the paper's CDB1 story), and reports TPS, cost,
//! E1-Score, and per-transition scaling behaviour (paper Table VI).

use cb_load::{ArrivalPlan, ArrivalProcess, PhasePlan};
use cb_sim::{DetRng, GaugeSeries, SimDuration, SimTime};

use crate::cost::{ruc_cost, CostBreakdown, RucRates};
use crate::deploy::Deployment;
use crate::driver::{run, RunOptions, RunResult, TenantSpec};
use crate::metrics::e1_score;
use crate::openloop::{run_open_loop, OpenLoopSpec};
use crate::workload::{AccessDistribution, KeyPartition, TxnMix};
use cb_sut::SutProfile;

/// The four basic elasticity patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElasticPattern {
    /// (0, 100%, 0).
    SinglePeak,
    /// (10%, 80%, 10%).
    LargeSpike,
    /// (40%, 20%, 40%).
    SingleValley,
    /// (50%, 0, 50%).
    ZeroValley,
}

impl ElasticPattern {
    /// All four patterns in paper order.
    pub fn all() -> [ElasticPattern; 4] {
        [
            ElasticPattern::SinglePeak,
            ElasticPattern::LargeSpike,
            ElasticPattern::SingleValley,
            ElasticPattern::ZeroValley,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            ElasticPattern::SinglePeak => "Single Peak",
            ElasticPattern::LargeSpike => "Large Spike",
            ElasticPattern::SingleValley => "Single Valley",
            ElasticPattern::ZeroValley => "Zero Valley",
        }
    }

    /// Slot proportions of τ.
    pub fn proportions(&self) -> [f64; 3] {
        match self {
            ElasticPattern::SinglePeak => [0.0, 1.0, 0.0],
            ElasticPattern::LargeSpike => [0.1, 0.8, 0.1],
            ElasticPattern::SingleValley => [0.4, 0.2, 0.4],
            ElasticPattern::ZeroValley => [0.5, 0.0, 0.5],
        }
    }

    /// Concurrency per one-minute slot for a given τ. With τ = 110 this
    /// yields the paper's (0,110,0), (11,88,11), (44,22,44), (55,0,55).
    pub fn concurrency(&self, tau: u32) -> Vec<u32> {
        self.proportions()
            .iter()
            .map(|p| (p * tau as f64).round() as u32)
            .collect()
    }
}

/// Default proportions drawn from a Pareto distribution (the paper's
/// fallback when no explicit proportions are configured). Returns `n`
/// values in (0, 1], the largest normalized to 1.
pub fn pareto_proportions(rng: &mut DetRng, n: usize) -> Vec<f64> {
    assert!(n > 0);
    let raw: Vec<f64> = (0..n).map(|_| rng.pareto(1.0, 1.16)).collect();
    let max = raw.iter().cloned().fold(f64::MIN, f64::max);
    raw.into_iter().map(|x| x / max).collect()
}

/// Assemble several patterns into one long schedule (used by the Fig 9
/// comparison, which runs all four patterns back to back).
pub fn assemble(patterns: &[ElasticPattern], tau: u32) -> Vec<u32> {
    patterns.iter().flat_map(|p| p.concurrency(tau)).collect()
}

/// One slot-boundary scaling observation (paper Table VI).
#[derive(Clone, Copy, Debug)]
pub struct SlotScaling {
    /// Slot index (0-based).
    pub slot: usize,
    /// Concurrency before the boundary.
    pub from_con: u32,
    /// Concurrency after the boundary.
    pub to_con: u32,
    /// Time from the boundary until the allocation settled (None = no
    /// scaling activity observed in the slot).
    pub settle: Option<SimDuration>,
    /// Dollars of CPU+memory consumed while scaling (the cost of being
    /// slow to release resources).
    pub scaling_cost: f64,
}

/// The outcome of one elasticity evaluation.
pub struct ElasticityReport {
    /// The pattern evaluated.
    pub pattern: ElasticPattern,
    /// Average TPS over the active pattern window.
    pub avg_tps: f64,
    /// Total RUC cost over the ten-minute billing window.
    pub cost: CostBreakdown,
    /// E1-Score.
    pub e1: f64,
    /// Per-slot scaling observations.
    pub scalings: Vec<SlotScaling>,
    /// The allocated-vCore trace (for Fig 9-style plots).
    pub vcores: GaugeSeries,
}

/// The billing window the paper uses for elasticity cost (ten minutes from
/// the start of the pattern).
pub const BILLING_WINDOW: SimDuration = SimDuration::from_secs(600);

/// Evaluate one elasticity pattern on one SUT. `base` supplies what the
/// caller chooses per run — `seed`, `obs`, `isolation` and `eviction`; the
/// schedule and the SUT's own scaling policy are the experiment.
pub fn evaluate_elasticity(
    profile: &SutProfile,
    pattern: ElasticPattern,
    mix: TxnMix,
    tau: u32,
    sim_scale: u64,
    base: &RunOptions,
) -> ElasticityReport {
    let mut dep = Deployment::new(profile.clone(), 1, sim_scale, 0, base.seed);
    let mut slots = pattern.concurrency(tau);
    // Pad the schedule with idle slots out to the billing window so slow
    // scale-down keeps accruing cost, exactly as it would on a real bill.
    let total_slots = (BILLING_WINDOW.as_secs() / 60) as usize;
    slots.resize(total_slots, 0);
    let spec = TenantSpec {
        slots: slots.clone(),
        slot_len: SLOT,
        mix,
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    };
    let result = run(&mut dep, &[spec], &base.inherit());

    let rates = RucRates::default();
    let (avg_tps, cost, e1) = score(&dep, &result, pattern, &rates);
    let gauge = dep.nodes[0].vcore_gauge.clone();
    let scalings = slot_scalings(&gauge, &slots, profile, &rates);
    ElasticityReport {
        pattern,
        avg_tps,
        cost,
        e1,
        scalings,
        vcores: gauge,
    }
}

/// One-minute slots, as in the paper.
const SLOT: SimDuration = SimDuration::from_secs(60);

/// Score a finished pattern run, closed or open loop alike: average TPS
/// over the pattern's active slots, RUC cost over the billing window, and
/// the E1-Score of the two.
fn score(
    dep: &Deployment,
    run: &RunResult,
    pattern: ElasticPattern,
    rates: &RucRates,
) -> (f64, CostBreakdown, f64) {
    let active_end = SimTime::ZERO + SLOT * pattern.proportions().len() as u64;
    let avg_tps = run.avg_tps(SimTime::ZERO, active_end);
    let usage = dep.usage(SimTime::ZERO, SimTime::ZERO + BILLING_WINDOW);
    let cost = ruc_cost(&usage, rates);
    let cost_per_min = cost.scaled(1.0 / (BILLING_WINDOW.as_secs_f64() / 60.0));
    (avg_tps, cost, e1_score(avg_tps, &cost_per_min))
}

/// The outcome of one open-loop elasticity evaluation.
pub struct OpenElasticityReport {
    /// The pattern evaluated.
    pub pattern: ElasticPattern,
    /// Average TPS over the active pattern window.
    pub avg_tps: f64,
    /// Coordinated-omission-correct p99 response time (ms) over the run.
    pub p99_ms: f64,
    /// Arrivals offered.
    pub arrivals: u64,
    /// Total RUC cost over the ten-minute billing window.
    pub cost: CostBreakdown,
    /// E1-Score.
    pub e1: f64,
    /// The allocated-vCore trace.
    pub vcores: GaugeSeries,
}

/// Piecewise-constant Poisson arrivals realizing an elasticity pattern:
/// each one-minute slot offers `proportion x peak_rate` arrivals per second.
/// Deterministic in `seed`; returned as a replayable trace.
pub fn pattern_arrivals(
    pattern: ElasticPattern,
    peak_rate: f64,
    slot_len: SimDuration,
    seed: u64,
) -> ArrivalProcess {
    let mut rng = DetRng::seeded(seed ^ 0x6C6F_6164_7061_7474);
    let mut offsets = Vec::new();
    for (i, p) in pattern.proportions().iter().enumerate() {
        let rate = p * peak_rate;
        if rate <= 0.0 {
            continue;
        }
        let start = slot_len * i as u64;
        let end = slot_len * (i as u64 + 1);
        let mut t = start;
        loop {
            let u = rng.unit();
            t += slot_len.mul_f64(-(1.0 - u).ln() / (rate * slot_len.as_secs_f64()));
            if t >= end {
                break;
            }
            offsets.push(t);
        }
    }
    ArrivalProcess::Trace { offsets }
}

/// Open-loop variant of [`evaluate_elasticity`]: the pattern modulates an
/// *arrival rate* rather than a client population, so the latency cost of
/// scaling lag shows up as coordinated-omission-correct response time
/// instead of silently throttled offered load.
pub fn evaluate_elasticity_open(
    profile: &SutProfile,
    pattern: ElasticPattern,
    mix: TxnMix,
    peak_rate: f64,
    sim_scale: u64,
    base: &RunOptions,
) -> OpenElasticityReport {
    let mut dep = Deployment::new(profile.clone(), 1, sim_scale, 0, base.seed);
    let process = pattern_arrivals(pattern, peak_rate, SLOT, base.seed);
    let spec = OpenLoopSpec {
        // The whole billing window is the measurement phase: arrivals stop
        // after the pattern's active slots, but slow scale-down keeps
        // accruing cost until the window closes.
        plan: ArrivalPlan::fixed_rate(
            process,
            PhasePlan::measure_only(BILLING_WINDOW),
            peak_rate.ceil() as u64,
        ),
        mix,
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    };
    let r = run_open_loop(&mut dep, &spec, &base.inherit());

    let (avg_tps, cost, e1) = score(&dep, &r.run, pattern, &RucRates::default());
    OpenElasticityReport {
        pattern,
        avg_tps,
        p99_ms: r.response_percentile_ms(99.0),
        arrivals: r.arrivals,
        cost,
        e1,
        vcores: dep.nodes[0].vcore_gauge.clone(),
    }
}

/// Derive Table-VI style scaling observations from a vCore gauge.
fn slot_scalings(
    gauge: &GaugeSeries,
    slots: &[u32],
    profile: &SutProfile,
    rates: &RucRates,
) -> Vec<SlotScaling> {
    let mut out = Vec::new();
    for i in 0..slots.len() {
        let start = SimTime::ZERO + SLOT * i as u64;
        let end = start + SLOT;
        // Last allocation change inside the slot = when scaling settled.
        let settle = gauge
            .points()
            .iter()
            .filter(|(t, _)| *t > start && *t <= end)
            .map(|(t, _)| *t)
            .max()
            .map(|t| t.saturating_since(start));
        let scaling_cost = settle.map_or(0.0, |s| {
            let window_end = start + s;
            let vcore_secs = gauge.integral(start, window_end);
            let mem_gb_secs = profile
                .gb_per_vcore
                .map_or(profile.local_mem_gb * s.as_secs_f64(), |per| {
                    vcore_secs * per
                });
            vcore_secs / 3600.0 * rates.cpu_vcore_hour + mem_gb_secs / 3600.0 * rates.mem_gb_hour
        });
        out.push(SlotScaling {
            slot: i,
            from_con: if i == 0 { 0 } else { slots[i - 1] },
            to_con: slots[i],
            settle,
            scaling_cost,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tau_110_concurrency_tuples() {
        assert_eq!(ElasticPattern::SinglePeak.concurrency(110), vec![0, 110, 0]);
        assert_eq!(
            ElasticPattern::LargeSpike.concurrency(110),
            vec![11, 88, 11]
        );
        assert_eq!(
            ElasticPattern::SingleValley.concurrency(110),
            vec![44, 22, 44]
        );
        assert_eq!(ElasticPattern::ZeroValley.concurrency(110), vec![55, 0, 55]);
    }

    #[test]
    fn pareto_proportions_are_normalized() {
        let mut rng = DetRng::seeded(5);
        let p = pareto_proportions(&mut rng, 8);
        assert_eq!(p.len(), 8);
        assert!(p.iter().all(|x| *x > 0.0 && *x <= 1.0));
        assert!(p.iter().any(|x| (*x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn assemble_concatenates_patterns() {
        let s = assemble(&ElasticPattern::all(), 110);
        assert_eq!(s.len(), 12);
        assert_eq!(&s[..3], &[0, 110, 0]);
        assert_eq!(&s[9..], &[55, 0, 55]);
    }

    #[test]
    fn serverless_beats_fixed_on_e1_for_zero_valley() {
        // CDB3's pause/resume should yield a far better E1 than RDS's fixed
        // allocation on the pattern with an idle middle slot.
        let tau = 30;
        let cdb3 = evaluate_elasticity(
            &SutProfile::cdb3(),
            ElasticPattern::ZeroValley,
            TxnMix::read_only(),
            tau,
            2000,
            &RunOptions::seeded(7),
        );
        let rds = evaluate_elasticity(
            &SutProfile::aws_rds(),
            ElasticPattern::ZeroValley,
            TxnMix::read_only(),
            tau,
            2000,
            &RunOptions::seeded(7),
        );
        assert!(cdb3.avg_tps > 0.0 && rds.avg_tps > 0.0);
        assert!(
            cdb3.cost.cpu < rds.cost.cpu,
            "pause/resume must save CPU dollars: {} vs {}",
            cdb3.cost.cpu,
            rds.cost.cpu
        );
        assert!(cdb3.e1 > rds.e1, "{} vs {}", cdb3.e1, rds.e1);
    }

    #[test]
    fn open_loop_pattern_offers_rate_shaped_arrivals() {
        // ZeroValley at peak 40/s: slots offer 20/s, 0, 20/s — the trace
        // must be empty in the middle minute and deterministic in the seed.
        let p = pattern_arrivals(
            ElasticPattern::ZeroValley,
            40.0,
            SimDuration::from_secs(60),
            9,
        );
        let q = pattern_arrivals(
            ElasticPattern::ZeroValley,
            40.0,
            SimDuration::from_secs(60),
            9,
        );
        assert_eq!(p, q);
        let ArrivalProcess::Trace { offsets } = &p else {
            panic!("expected a trace");
        };
        assert!(!offsets.is_empty());
        let mid = offsets
            .iter()
            .filter(|d| **d >= SimDuration::from_secs(60) && **d < SimDuration::from_secs(120))
            .count();
        assert_eq!(mid, 0, "idle slot must offer no arrivals");
        let first = offsets
            .iter()
            .filter(|d| **d < SimDuration::from_secs(60))
            .count();
        // ~20/s * 60s = ~1200 expected; allow wide statistical slack.
        assert!((800..1600).contains(&first), "first slot had {first}");
    }

    #[test]
    fn open_loop_elasticity_reports_sane_numbers() {
        let r = evaluate_elasticity_open(
            &SutProfile::cdb3(),
            ElasticPattern::ZeroValley,
            TxnMix::read_only(),
            30.0,
            2000,
            &RunOptions::seeded(7),
        );
        assert!(r.avg_tps > 0.0);
        assert!(r.arrivals > 0);
        assert!(r.p99_ms > 0.0);
        assert!(r.cost.total() > 0.0);
        assert!(r.e1 > 0.0);
    }

    #[test]
    fn fixed_tier_reports_no_scaling_activity() {
        let r = evaluate_elasticity(
            &SutProfile::aws_rds(),
            ElasticPattern::SinglePeak,
            TxnMix::read_only(),
            20,
            2000,
            &RunOptions::seeded(7),
        );
        assert!(r.scalings.iter().all(|s| s.settle.is_none()));
        assert!(r.vcores.points().len() <= 1, "allocation never moves");
    }

    #[test]
    fn serverless_scales_during_peak() {
        let r = evaluate_elasticity(
            &SutProfile::cdb2(),
            ElasticPattern::SinglePeak,
            TxnMix::read_only(),
            40,
            2000,
            &RunOptions::seeded(7),
        );
        // Allocation moved at least once somewhere in the schedule.
        assert!(
            r.scalings.iter().any(|s| s.settle.is_some()),
            "expected scaling activity"
        );
        let peak = r
            .vcores
            .max_in(SimTime::from_secs(60), SimTime::from_secs(180));
        assert!(peak > SutProfile::cdb2().min_vcores);
    }
}
