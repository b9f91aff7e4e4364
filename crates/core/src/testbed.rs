//! The one-stop testbed facade (paper Fig. 1).
//!
//! [`Testbed`] bundles the evaluators behind a single object configured
//! once with a SUT, a simulation scale, and a seed — the shape the paper's
//! diagram draws: configuration in, workload manager + evaluators inside,
//! metrics out. Everything it does is also reachable through the individual
//! evaluator functions; this type just removes the boilerplate for the
//! common "score one system" path.

use cb_obs::ObsSink;
use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;

use crate::cost::{ruc_cost, CostBreakdown, RucRates};
use crate::deploy::Deployment;
use crate::driver::{run, RunOptions, TenantSpec, VcoreControl};
use crate::elasticity::{evaluate_elasticity, ElasticPattern, ElasticityReport};
use crate::failover_eval::{evaluate_failover, FailoverReport};
use crate::lagtime::{evaluate_lagtime, LagReport};
use crate::metrics::{e1_score, e2_score, o_score, p_score, Perfect};
use crate::tenancy::{evaluate_tenancy, TenancyPattern, TenancyReport};
use crate::workload::{AccessDistribution, KeyPartition, TxnMix};

/// Result of a plain OLTP measurement through the testbed.
pub struct OltpReport {
    /// Average TPS over the window.
    pub avg_tps: f64,
    /// Committed transactions.
    pub committed: u64,
    /// Mean latency (ms).
    pub avg_latency_ms: f64,
    /// p99 latency (ms).
    pub p99_latency_ms: f64,
    /// RUC cost per minute.
    pub cost_per_min: CostBreakdown,
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

    /// Attach an observability sink: every evaluator run through this
    /// testbed then journals spans (transactions, lock waits, fail-over
    /// phases, autoscaler decisions, replication, cache/WAL traffic) and
    /// aggregates exact latency histograms into it. Export the collected
    /// artifacts with [`cb_obs::write_run_artifacts`].
    pub fn with_obs(mut self, obs: ObsSink) -> Self {
        self.base.obs = obs;
        self
    }

    /// The attached observability sink (disabled unless set).
    pub fn obs(&self) -> &ObsSink {
        &self.base.obs
    }

    /// The profile under test.
    pub fn profile(&self) -> &SutProfile {
        &self.profile
    }

    /// Run an OLTP measurement: `mix` at the configured concurrency for
    /// `secs` simulated seconds on a 1 RW + 1 RO deployment.
    pub fn oltp(&self, scale_factor: u64, mix: TxnMix, secs: u64) -> OltpReport {
        let mut dep = Deployment::new(
            self.profile.clone(),
            scale_factor,
            self.sim_scale,
            1,
            self.base.seed,
        );
        let duration = SimDuration::from_secs(secs);
        let spec = TenantSpec::constant(
            self.concurrency,
            duration,
            mix,
            AccessDistribution::Uniform,
            KeyPartition::whole(dep.shape.orders, dep.shape.customers),
        );
        let opts = RunOptions {
            vcores: VcoreControl::Fixed,
            ..self.base.inherit()
        };
        let result = run(&mut dep, &[spec], &opts);
        let end = SimTime::ZERO + duration;
        let usage = dep.usage(SimTime::ZERO, end);
        let cost = ruc_cost(&usage, &RucRates::default());
        let minutes = duration.as_secs_f64() / 60.0;
        let t = &result.tenants[0];
        OltpReport {
            avg_tps: result.avg_tps(SimTime::ZERO, end),
            committed: t.committed,
            avg_latency_ms: t.avg_latency().as_millis_f64(),
            p99_latency_ms: t.latency_percentile_ms(99.0),
            cost_per_min: cost.scaled(1.0 / minutes),
        }
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

    /// Read-only TPS with `ro` replicas (the E2 probe).
    pub fn read_tps_with_replicas(&self, ro: usize) -> f64 {
        let mut dep = Deployment::new(self.profile.clone(), 1, self.sim_scale, ro, self.base.seed);
        let duration = SimDuration::from_secs(10);
        let spec = TenantSpec::constant(
            self.concurrency.max(120),
            duration,
            TxnMix::read_only(),
            AccessDistribution::Uniform,
            KeyPartition::whole(dep.shape.orders, dep.shape.customers),
        );
        let opts = RunOptions {
            vcores: VcoreControl::Fixed,
            ..self.base.inherit()
        };
        run(&mut dep, &[spec], &opts).avg_tps(SimTime::ZERO, SimTime::ZERO + duration)
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

    /// E1-Score of one elasticity report (convenience mirror of the free
    /// function, with this testbed's rates).
    pub fn e1_of(&self, report: &ElasticityReport) -> f64 {
        let per_min = report.cost.scaled(1.0 / 10.0);
        e1_score(report.avg_tps, &per_min)
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
        assert!(r.p99_latency_ms >= r.avg_latency_ms * 0.5);
        assert!(r.cost_per_min.total() > 0.0);
    }

    #[test]
    fn evaluators_are_reachable() {
        let t = tb(SutProfile::cdb3());
        let e = t.elasticity(ElasticPattern::SinglePeak, TxnMix::read_only());
        assert!(e.avg_tps > 0.0);
        assert!(t.e1_of(&e) > 0.0);
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
