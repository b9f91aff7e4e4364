//! Fig 9's constant-load baselines: SysBench-style OLTP and TPC-C lite.
//!
//! Fig 9 of the paper compares the *resource scaling* a benchmark induces:
//! CloudyBench's peak/valley patterns against the flat load of SysBench and
//! TPC-C. Each baseline runs through the driver's one loop, so its node
//! gates, commit path, autoscaler sampling and recording are the ones the
//! CloudyBench run is measured with; only the transaction body differs.

use cb_sim::{DetRng, GaugeSeries, SimDuration, TpsRecorder};
use cb_sut::SutProfile;

use crate::deploy::Deployment;
use crate::driver::{run_closed, RunOptions, TenantSpec};
use crate::sysbench::Sysbench;
use crate::tpcc::TpccLite;
use crate::workload::{AccessDistribution, KeyPartition, TxnMix};

/// A constant-load baseline of Fig 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Baseline {
    /// SysBench `oltp_read_write` over three `sbtest` tables of 300 000 rows
    /// (10 point selects and 2 updates a transaction).
    Sysbench,
    /// TPC-C's five transactions over one warehouse, in the standard
    /// 45/43/4/4/4 mix.
    TpccLite,
}

/// The outcome of one baseline run.
pub struct BaselineRun {
    /// Allocated vCores over time (the Fig 9 series).
    pub vcores: GaugeSeries,
    /// Committed transactions per second.
    pub tps: TpsRecorder,
    /// Average TPS over the whole run.
    pub avg_tps: f64,
}

/// Run `baseline` at constant `threads` for `duration` on one node of
/// `profile`, scaled by the profile's own policy.
///
/// The deployment is the sales deployment without replicas; the baseline
/// adds its own tables to it, and the sales tables are loaded but never
/// read. The tenant's mix, distribution and partition shape only the sales
/// transactions, so the baseline bodies ignore them.
pub fn run_constant(
    profile: &SutProfile,
    baseline: Baseline,
    threads: u32,
    duration: SimDuration,
    sim_scale: u64,
    seed: u64,
) -> BaselineRun {
    assert!(threads > 0);
    let mut dep = Deployment::new(profile.clone(), 1, sim_scale, 0, seed);
    let spec = [TenantSpec::constant(
        threads,
        duration,
        TxnMix::read_write(),
        AccessDistribution::Uniform,
        KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    )];
    let opts = RunOptions {
        seed,
        ..RunOptions::default()
    };
    let run = match baseline {
        Baseline::Sysbench => {
            let body = Sysbench::setup(&mut dep.db, sim_scale, &mut DetRng::seeded(seed));
            run_closed(&mut dep, &spec, &opts, body)
        }
        Baseline::TpccLite => {
            let body = TpccLite::setup(&mut dep.db, sim_scale);
            run_closed(&mut dep, &spec, &opts, body)
        }
    };
    BaselineRun {
        vcores: dep.nodes.swap_remove(0).vcore_gauge,
        avg_tps: run.overall_tps(),
        tps: run.total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_sim::SimTime;

    #[test]
    fn constant_run_produces_throughput() {
        for baseline in [Baseline::Sysbench, Baseline::TpccLite] {
            let r = run_constant(
                &SutProfile::aws_rds(),
                baseline,
                8,
                SimDuration::from_secs(5),
                1000,
                7,
            );
            assert!(r.avg_tps > 100.0, "{baseline:?}: tps = {}", r.avg_tps);
            assert_eq!(r.vcores.value_at(SimTime::ZERO), 4.0);
        }
    }

    #[test]
    fn serverless_baseline_scales_but_stays_flat_ish() {
        // A constant workload on CDB3 should settle at some allocation and
        // stay there — the paper's point about SysBench/TPC-C being poor
        // elasticity probes.
        let r = run_constant(
            &SutProfile::cdb3(),
            Baseline::Sysbench,
            6,
            SimDuration::from_secs(360),
            1000,
            7,
        );
        assert!(r.avg_tps > 0.0);
        let g = &r.vcores;
        // After an initial ramp the allocation stops moving much: compare
        // min/max over the second half.
        let lo = g.min_in(SimTime::from_secs(180), SimTime::from_secs(360));
        let hi = g.max_in(SimTime::from_secs(180), SimTime::from_secs(360));
        // The paper's own Fig 9 shows ~1 vCore of hunting on constant
        // loads (CDB3 swings 1-2 vCores under TPC-C); allow that much.
        assert!(hi - lo <= 1.5, "flat-ish expected: {lo}..{hi}");
    }
}
