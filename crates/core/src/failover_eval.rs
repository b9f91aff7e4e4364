//! The fail-over evaluator (paper Sections II-E and III-E).
//!
//! Runs a constant read-write workload, injects a node failure with the
//! *restart model*, and measures two phases: F-Score — from injection until
//! the service accepts requests again — and R-Score — from service
//! resumption until throughput returns to its pre-failure level.

use cb_cluster::FailoverTimeline;
use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;

use crate::deploy::Deployment;
use crate::driver::{run, FailurePlan, RunOptions, RunResult, TenantSpec};
use crate::metrics::{f_score, r_score};
use crate::workload::{AccessDistribution, KeyPartition, TxnMix};

/// The outcome of one fail-over experiment (one target node).
pub struct FailoverOutcome {
    /// Seconds from injection to service resumption (F).
    pub f_secs: f64,
    /// Seconds from resumption to recovering the pre-failure TPS (R).
    pub r_secs: f64,
    /// TPS immediately before the failure.
    pub pre_tps: f64,
    /// The planned phase timeline (Fig 7).
    pub timeline: FailoverTimeline,
    /// Per-second TPS trace.
    pub tps_series: Vec<f64>,
}

/// F- and R-Scores for both failure targets.
pub struct FailoverReport {
    /// RW-node failure outcome.
    pub rw: FailoverOutcome,
    /// RO-node failure outcome.
    pub ro: FailoverOutcome,
}

impl FailoverReport {
    /// Mean F-Score across targets.
    pub fn f_avg(&self) -> f64 {
        f_score(&[self.rw.f_secs, self.ro.f_secs])
    }

    /// Mean R-Score across targets.
    pub fn r_avg(&self) -> f64 {
        r_score(&[self.rw.r_secs, self.ro.r_secs])
    }

    /// Total recovery time (paper Table VIII's last column).
    pub fn total_secs(&self) -> f64 {
        self.rw.f_secs + self.rw.r_secs + self.ro.f_secs + self.ro.r_secs
    }
}

/// Fraction of the pre-failure TPS that counts as "recovered".
const RECOVERY_FRACTION: f64 = 0.9;

fn measure(result: &RunResult, inject: SimTime) -> FailoverOutcome {
    let timeline = result.failover.clone().expect("failure was injected");
    let rates = result.total.rate_series();
    let inject_slot = inject.as_nanos() as usize / 1_000_000_000;
    // Pre-failure TPS: average of the 10 seconds before injection.
    let pre_lo = inject_slot.saturating_sub(10);
    let pre: Vec<f64> = rates[pre_lo..inject_slot].to_vec();
    let pre_tps = cb_sim::mean(&pre);
    let f_secs = timeline.downtime().as_secs_f64();
    // R: first second at or after resumption reaching the recovery target.
    let resumed_slot = (timeline.service_resumed_at.as_nanos() as usize).div_ceil(1_000_000_000);
    let target = pre_tps * RECOVERY_FRACTION;
    let recovered_slot = rates[resumed_slot.min(rates.len())..]
        .iter()
        .position(|r| *r >= target)
        .map(|i| resumed_slot + i);
    let r_secs = match recovered_slot {
        Some(s) => (s as f64) - timeline.service_resumed_at.as_secs_f64(),
        None => (rates.len() as f64) - timeline.service_resumed_at.as_secs_f64(),
    }
    .max(0.0);
    FailoverOutcome {
        f_secs,
        r_secs,
        pre_tps,
        timeline,
        tps_series: rates,
    }
}

/// Run the fail-over evaluation on one SUT: a constant read-write workload
/// at `concurrency` (the paper uses 150), failure injected mid-run, for
/// both the RW primary and an RO replica. `base` supplies both runs' `seed`,
/// `obs`, `isolation` and `eviction`; the failure plan and the fixed vCore
/// allocation are the experiment.
pub fn evaluate_failover(
    profile: &SutProfile,
    concurrency: u32,
    sim_scale: u64,
    base: &RunOptions,
) -> FailoverReport {
    let inject = SimTime::from_secs(45);
    let horizon = SimDuration::from_secs(150);
    let mut outcomes = Vec::with_capacity(2);
    for target_ro in [false, true] {
        let mut dep = Deployment::new(profile.clone(), 1, sim_scale, 1, base.seed);
        let spec = TenantSpec::constant(
            concurrency,
            horizon,
            TxnMix::read_write(),
            AccessDistribution::Uniform,
            KeyPartition::whole(dep.shape.orders, dep.shape.customers),
        );
        let opts = RunOptions {
            failure: Some(FailurePlan {
                at: inject,
                target_ro,
            }),
            vcores: crate::driver::VcoreControl::Fixed,
            ..base.inherit()
        };
        let result = run(&mut dep, &[spec], &opts);
        outcomes.push(measure(&result, inject));
    }
    let ro = outcomes.pop().expect("two outcomes");
    let rw = outcomes.pop().expect("two outcomes");
    FailoverReport { rw, ro }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdb4_failover_beats_rds() {
        let cdb4 = evaluate_failover(&SutProfile::cdb4(), 40, 2000, &RunOptions::seeded(7));
        let rds = evaluate_failover(&SutProfile::aws_rds(), 40, 2000, &RunOptions::seeded(7));
        assert!(
            cdb4.rw.f_secs < rds.rw.f_secs,
            "cdb4 {} vs rds {}",
            cdb4.rw.f_secs,
            rds.rw.f_secs
        );
        assert!(cdb4.total_secs() < rds.total_secs());
        // Magnitudes: CDB4 resumes within seconds.
        assert!(cdb4.rw.f_secs < 8.0, "f = {}", cdb4.rw.f_secs);
        assert!(rds.rw.f_secs > 8.0, "f = {}", rds.rw.f_secs);
    }

    #[test]
    fn ro_failure_is_milder_than_rw() {
        let r = evaluate_failover(&SutProfile::cdb1(), 40, 2000, &RunOptions::seeded(7));
        assert!(r.ro.f_secs <= r.rw.f_secs + 0.001);
        // Pre-failure throughput was healthy in both runs.
        assert!(r.rw.pre_tps > 100.0);
        assert!(r.ro.pre_tps > 100.0);
    }

    #[test]
    fn timeline_phases_cover_downtime() {
        let r = evaluate_failover(&SutProfile::cdb4(), 30, 2000, &RunOptions::seeded(7));
        let t = &r.rw.timeline;
        assert_eq!(t.phases.first().unwrap().name, "detect");
        assert!(t.phases.iter().any(|p| p.name == "switchover"));
        // Contiguous phases.
        for w in t.phases.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }
}
