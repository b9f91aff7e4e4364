//! Integration: fail-over injection end to end — the restart model, phase
//! timelines, F/R measurement, and the paper's architecture ranking.

use cb_sut::SutProfile;
use cloudybench::failover_eval::evaluate_failover;
use cloudybench::RunOptions;

/// The base options of every evaluation here: seed 7, everything else default.
fn seed7() -> RunOptions {
    RunOptions {
        seed: 7,
        ..RunOptions::default()
    }
}

const SIM_SCALE: u64 = 2000;

#[test]
fn paper_ranking_cdb4_fastest_rds_slowest() {
    let f = |p: &SutProfile| evaluate_failover(p, 50, SIM_SCALE, &seed7());
    let rds = f(&SutProfile::aws_rds());
    let cdb1 = f(&SutProfile::cdb1());
    let cdb4 = f(&SutProfile::cdb4());
    assert!(cdb4.f_avg() < cdb1.f_avg());
    assert!(cdb1.f_avg() < rds.f_avg());
    assert!(cdb4.total_secs() < rds.total_secs() / 2.0);
}

#[test]
fn throughput_dips_to_zero_then_recovers() {
    let r = evaluate_failover(&SutProfile::cdb3(), 50, SIM_SCALE, &seed7());
    let rates = &r.rw.tps_series;
    // Injection at t=45: some second in the downtime window is dead.
    let down_window = &rates[46..46 + r.rw.f_secs.ceil() as usize];
    assert!(
        down_window.iter().any(|t| *t < r.rw.pre_tps * 0.1),
        "expected a dead second in {down_window:?}"
    );
    // The final seconds are healthy again.
    let tail = &rates[rates.len() - 10..];
    let tail_avg = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        tail_avg > r.rw.pre_tps * 0.7,
        "tail {tail_avg} vs pre {}",
        r.rw.pre_tps
    );
}

#[test]
fn ro_failure_redirects_reads_to_primary() {
    // With the single RO down, reads fall back to the RW node, so the
    // service never fully stops.
    let r = evaluate_failover(&SutProfile::cdb1(), 50, SIM_SCALE, &seed7());
    let rates = &r.ro.tps_series;
    let during = &rates[46..50];
    assert!(
        during.iter().all(|t| *t > 0.0),
        "RO failure must not zero the cluster: {during:?}"
    );
}

#[test]
fn aries_recovery_time_scales_with_dirty_work() {
    // More write traffic before the crash -> longer ARIES recovery for RDS.
    let light = evaluate_failover(&SutProfile::aws_rds(), 10, SIM_SCALE, &seed7());
    let heavy = evaluate_failover(&SutProfile::aws_rds(), 150, SIM_SCALE, &seed7());
    assert!(
        heavy.rw.f_secs >= light.rw.f_secs,
        "heavy {} vs light {}",
        heavy.rw.f_secs,
        light.rw.f_secs
    );
}

#[test]
fn failure_during_serverless_scaling_is_survivable() {
    use cb_sim::{SimDuration, SimTime};
    use cloudybench::driver::VcoreControl;
    use cloudybench::{
        run, AccessDistribution, Deployment, FailurePlan, KeyPartition, RunOptions, TenantSpec,
        TxnMix,
    };
    // CDB3 under a spike with the autoscaler live, RW node killed mid-ramp.
    let mut dep = Deployment::new(SutProfile::cdb3(), 1, SIM_SCALE, 1, 7);
    let spec = TenantSpec {
        slots: vec![5, 60, 5],
        slot_len: SimDuration::from_secs(30),
        mix: TxnMix::read_write(),
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    };
    let opts = RunOptions {
        seed: 7,
        vcores: VcoreControl::PolicyPerNode,
        failure: Some(FailurePlan {
            at: SimTime::from_secs(40), // mid-spike, while scaling
            target_ro: false,
        }),
        ..RunOptions::default()
    };
    let r = run(&mut dep, &[spec], &opts);
    assert!(r.failover.is_some());
    // The run completes and throughput exists both before and after.
    let rates = r.total.rate_series();
    assert!(rates[35] > 0.0, "pre-failure load: {:?}", &rates[30..44]);
    let tail: f64 = rates[80..89].iter().sum();
    assert!(tail > 0.0, "service returned: {:?}", &rates[80..89]);
}

#[test]
fn failure_against_paused_node_cluster_still_recovers() {
    use cb_sim::{SimDuration, SimTime};
    use cloudybench::driver::VcoreControl;
    use cloudybench::{
        run, AccessDistribution, Deployment, FailurePlan, KeyPartition, RunOptions, TenantSpec,
        TxnMix,
    };
    // Zero load first (CDB3 pauses), failure injected while paused, then
    // load arrives: resume + recovery must compose.
    let mut dep = Deployment::new(SutProfile::cdb3(), 1, SIM_SCALE, 1, 7);
    let spec = TenantSpec {
        slots: vec![0, 0, 30, 30],
        slot_len: SimDuration::from_secs(30),
        mix: TxnMix::read_only(),
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    };
    let opts = RunOptions {
        seed: 7,
        vcores: VcoreControl::PolicyPerNode,
        failure: Some(FailurePlan {
            at: SimTime::from_secs(45),
            target_ro: false,
        }),
        ..RunOptions::default()
    };
    let r = run(&mut dep, &[spec], &opts);
    let rates = r.total.rate_series();
    let active: f64 = rates[70..119].iter().sum();
    assert!(
        active > 0.0,
        "load served after pause + failure: {:?}",
        &rates[60..90]
    );
}
