//! The one-stop testbed facade (paper Fig. 1).
//!
//! [`Testbed`] bundles the evaluators behind a single object configured
//! once with a SUT, a simulation scale, and a seed — the shape the paper's
//! diagram draws: configuration in, workload manager + evaluators inside,
//! metrics out. Everything it does is also reachable through the individual
//! evaluator functions; this type just removes the boilerplate for the
//! common "score one system" path.

use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;

use crate::cost::{ruc_cost, CostBreakdown, RucRates};
use crate::deploy::Deployment;
use crate::driver::{run, RunOptions, RunResult, TenantSpec, VcoreControl};
use crate::elasticity::{evaluate_elasticity, ElasticPattern, ElasticityReport};
use crate::failover_eval::{evaluate_failover, FailoverReport};
use crate::lagtime::{evaluate_lagtime, LagReport};
use crate::metrics::{e2_score, o_score, p_score, Perfect};
use crate::tenancy::{evaluate_tenancy, TenancyPattern, TenancyReport};
use crate::workload::{AccessDistribution, KeyPartition, TxnMix};

/// The outcome of one fixed-capacity OLTP cell ([`oltp_cell`]).
pub struct OltpReport {
    /// Average TPS over the window.
    pub avg_tps: f64,
    /// Committed transactions.
    pub committed: u64,
    /// p99 latency (ms).
    pub p99_latency_ms: f64,
    /// RUC cost per minute at the default rates.
    pub cost_per_min: CostBreakdown,
    /// The run itself: lock conflicts, SI aborts, latency histograms and
    /// replication lag.
    pub run: RunResult,
}

/// One fixed-capacity OLTP cell, the P-Score measurement of paper Tables V
/// and IX: `concurrency` closed-loop clients run `mix` over the whole key
/// space for `duration` at fixed vCores, priced per minute at the default
/// RUC rates. The deployment's runtime state is reset first, so cells run
/// back to back on one warm deployment (data and pool contents carry over).
/// `base` supplies the run's `seed`, `obs`, `isolation` and `eviction`.
pub fn oltp_cell(
    dep: &mut Deployment,
    concurrency: u32,
    duration: SimDuration,
    mix: TxnMix,
    dist: AccessDistribution,
    base: &RunOptions,
) -> OltpReport {
    dep.reset_runtime();
    let spec = TenantSpec::constant(
        concurrency,
        duration,
        mix,
        dist,
        KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    );
    let opts = RunOptions {
        vcores: VcoreControl::Fixed,
        ..base.inherit()
    };
    let run = run(dep, &[spec], &opts);
    let end = SimTime::ZERO + duration;
    let cost = ruc_cost(&dep.usage(SimTime::ZERO, end), &RucRates::default());
    let minutes = duration.as_secs_f64() / 60.0;
    OltpReport {
        avg_tps: run.avg_tps(SimTime::ZERO, end),
        committed: run.tenants[0].committed,
        p99_latency_ms: run.tenants[0].latency_percentile_ms(99.0),
        cost_per_min: cost.scaled(1.0 / minutes),
        run,
    }
}

/// A configured testbed for one system under test.
pub struct Testbed {
    profile: SutProfile,
    sim_scale: u64,
    /// What every evaluator run inherits: the seed and the attached sink.
    base: RunOptions,
    /// Concurrency used by throughput-style runs.
    pub concurrency: u32,
    /// τ for elasticity patterns.
    pub tau: u32,
    /// Scale for tenancy patterns (1.0 = the paper's tuples).
    pub tenancy_scale: f64,
}

impl Testbed {
    /// A testbed for `profile` at `sim_scale` with a fixed `seed`.
    pub fn new(profile: SutProfile, sim_scale: u64, seed: u64) -> Self {
        Testbed {
            profile,
            sim_scale,
            base: RunOptions {
                seed,
                ..RunOptions::default()
            },
            concurrency: 100,
            tau: 110,
            tenancy_scale: 0.5,
        }
    }

    /// Run an OLTP measurement: `mix` at the configured concurrency for
    /// `secs` simulated seconds on a fresh 1 RW + 1 RO deployment.
    pub fn oltp(&self, scale_factor: u64, mix: TxnMix, secs: u64) -> OltpReport {
        let mut dep = self.deployment(scale_factor, 1);
        oltp_cell(
            &mut dep,
            self.concurrency,
            SimDuration::from_secs(secs),
            mix,
            AccessDistribution::Uniform,
            &self.base,
        )
    }

    /// Run one elasticity pattern.
    pub fn elasticity(&self, pattern: ElasticPattern, mix: TxnMix) -> ElasticityReport {
        evaluate_elasticity(
            &self.profile,
            pattern,
            mix,
            self.tau,
            self.sim_scale,
            &self.base,
        )
    }

    /// Run one multi-tenancy pattern.
    pub fn tenancy(&self, pattern: TenancyPattern) -> TenancyReport {
        evaluate_tenancy(
            &self.profile,
            pattern,
            self.tenancy_scale,
            self.sim_scale,
            &self.base,
        )
    }

    /// Run the fail-over evaluation.
    pub fn failover(&self) -> FailoverReport {
        evaluate_failover(&self.profile, self.concurrency, self.sim_scale, &self.base)
    }

    /// Run the replication-lag evaluation.
    pub fn lagtime(&self) -> LagReport {
        evaluate_lagtime(
            &self.profile,
            self.concurrency.min(50),
            1,
            self.sim_scale,
            &self.base,
        )
    }

    /// Read-only TPS with `ro` replicas (the E2 probe): at least 120
    /// clients for 10 s on a fresh SF1 deployment.
    pub fn read_tps_with_replicas(&self, ro: usize) -> f64 {
        let mut dep = self.deployment(1, ro);
        oltp_cell(
            &mut dep,
            self.concurrency.max(120),
            SimDuration::from_secs(10),
            TxnMix::read_only(),
            AccessDistribution::Uniform,
            &self.base,
        )
        .avg_tps
    }

    fn deployment(&self, scale_factor: u64, ro: usize) -> Deployment {
        Deployment::new(
            self.profile.clone(),
            scale_factor,
            self.sim_scale,
            ro,
            self.base.seed,
        )
    }

    /// Compute the full PERFECT score set and O-Score. This runs every
    /// evaluator — expect tens of seconds of wall time at the default
    /// simulation scale.
    pub fn perfect(&self) -> (Perfect, Option<f64>) {
        let oltp = self.oltp(1, TxnMix::read_write(), 20);
        let p = p_score(oltp.avg_tps, &oltp.cost_per_min);
        let mut e1_sum = 0.0;
        for pattern in ElasticPattern::all() {
            let r = self.elasticity(pattern, TxnMix::read_write());
            e1_sum += r.e1;
        }
        let e1 = e1_sum / 4.0;
        let fo = self.failover();
        let lag = self.lagtime();
        let tps = [
            self.read_tps_with_replicas(0),
            self.read_tps_with_replicas(1),
            self.read_tps_with_replicas(2),
        ];
        let e2 = e2_score(&tps, 1.0).max(1.0);
        let mut t_sum = 0.0;
        for pattern in TenancyPattern::all() {
            t_sum += self.tenancy(pattern).t_score;
        }
        let perfect = Perfect {
            p,
            e1,
            e2,
            r: fo.r_avg().max(0.5),
            f: fo.f_avg().max(0.5),
            c: lag.c_score_ms.max(0.01),
            t: t_sum / 4.0,
        };
        let o = o_score(1.0, &perfect);
        (perfect, o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb(profile: SutProfile) -> Testbed {
        let mut t = Testbed::new(profile, 2000, 7);
        t.concurrency = 20;
        t.tau = 30;
        t.tenancy_scale = 0.1;
        t
    }

    #[test]
    fn oltp_report_is_coherent() {
        let r = tb(SutProfile::cdb4()).oltp(1, TxnMix::read_write(), 5);
        assert!(r.avg_tps > 100.0);
        assert!(r.committed > 500);
        let avg_ms = r.run.tenants[0].avg_latency().as_millis_f64();
        assert!(r.p99_latency_ms >= avg_ms * 0.5);
        assert!(r.cost_per_min.total() > 0.0);
    }

    #[test]
    fn evaluators_are_reachable() {
        let t = tb(SutProfile::cdb3());
        let e = t.elasticity(ElasticPattern::SinglePeak, TxnMix::read_only());
        assert!(e.avg_tps > 0.0);
        let ten = t.tenancy(TenancyPattern::LowContention);
        assert!(ten.total_tps > 0.0);
        let lag = t.lagtime();
        assert!(lag.c_score_ms > 0.0);
    }

    #[test]
    fn replicas_scale_read_throughput() {
        let t = tb(SutProfile::cdb4());
        let t0 = t.read_tps_with_replicas(0);
        let t1 = t.read_tps_with_replicas(1);
        assert!(t1 > t0 * 1.3, "{t0} -> {t1}");
    }
}
