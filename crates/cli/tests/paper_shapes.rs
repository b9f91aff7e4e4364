//! Paper shapes as executable assertions: each test holds one row of the
//! EXPERIMENTS index to the shape the paper reports, and each assertion
//! message names its row.

use cb_sim::{GaugeSeries, SimDuration, SimTime};
use cb_sut::SutProfile;
use cloudybench::baselines::{run_constant, Baseline};
use cloudybench::elasticity::{assemble, ElasticPattern};
use cloudybench::{
    run, AccessDistribution, Deployment, KeyPartition, RunOptions, TenantSpec, TxnMix,
};

/// Fig 9: on CDB3, CloudyBench's four assembled elasticity patterns swing
/// the allocation by more than 2 vCores over 12 minutes, while the
/// constant loads of SysBench (11 threads) and TPC-C (44 threads) scale up
/// once and then hold within half a vCore over the second half.
#[test]
fn fig9_constant_loads_stay_flat_while_cloudybench_swings() {
    const SIM_SCALE: u64 = 1000;
    const SEED: u64 = 2025;
    let profile = SutProfile::cdb3();
    let duration = SimDuration::from_secs(12 * 60);
    let end = SimTime::ZERO + duration;
    let range = |g: &GaugeSeries, from: SimTime| (g.min_in(from, end), g.max_in(from, end));

    let mut dep = Deployment::new(profile.clone(), 1, SIM_SCALE, 0, SEED);
    let spec = TenantSpec {
        slots: assemble(&ElasticPattern::all(), 44),
        slot_len: SimDuration::from_secs(60),
        mix: TxnMix::read_write(),
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    };
    let opts = RunOptions {
        seed: SEED,
        ..RunOptions::default()
    };
    run(&mut dep, &[spec], &opts);
    let (lo, hi) = range(&dep.nodes[0].vcore_gauge, SimTime::ZERO);
    assert!(
        hi - lo > 2.0,
        "Fig 9: CloudyBench must swing CDB3 by more than 2 vCores, got {lo}..{hi}"
    );

    let sysbench = run_constant(&profile, Baseline::Sysbench, 11, duration, SIM_SCALE, SEED);
    let tpcc = run_constant(&profile, Baseline::TpccLite, 44, duration, SIM_SCALE, SEED);
    for (name, r) in [("SysBench", &sysbench), ("TPC-C", &tpcc)] {
        let (_, peak) = range(&r.vcores, SimTime::ZERO);
        assert!(
            peak >= 1.0,
            "Fig 9: {name} must scale CDB3 to at least 1 vCore, peaked at {peak}"
        );
        let (lo, hi) = range(&r.vcores, SimTime::from_secs(360));
        assert!(
            hi - lo <= 0.5,
            "Fig 9: {name} must hold CDB3 within 0.5 vCore over the second half, got {lo}..{hi}"
        );
    }
}
