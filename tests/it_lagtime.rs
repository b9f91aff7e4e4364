//! Integration: replication lag probes across architectures and IUD mixes.

use cb_sut::SutProfile;
use cloudybench::lagtime::evaluate_lagtime;
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
fn architecture_ranking_holds() {
    let lag = |p: &SutProfile| evaluate_lagtime(p, 20, 1, SIM_SCALE, &seed7()).c_score_ms;
    let rds = lag(&SutProfile::aws_rds());
    let c1 = lag(&SutProfile::cdb1());
    let c2 = lag(&SutProfile::cdb2());
    let c3 = lag(&SutProfile::cdb3());
    let c4 = lag(&SutProfile::cdb4());
    assert!(c4 < c3 && c3 < c1 && c1 < c2, "{c4} {c3} {c1} {c2}");
    assert!(rds < c1, "coupled RDS lag stays small: {rds} vs {c1}");
}

#[test]
fn lag_grows_with_write_pressure_on_sequential_replay() {
    let light = evaluate_lagtime(&SutProfile::cdb2(), 5, 1, SIM_SCALE, &seed7());
    let heavy = evaluate_lagtime(&SutProfile::cdb2(), 80, 1, SIM_SCALE, &seed7());
    assert!(
        heavy.c_score_ms > light.c_score_ms,
        "sequential replay backlog: {} vs {}",
        heavy.c_score_ms,
        light.c_score_ms
    );
}

#[test]
fn on_demand_replay_is_insensitive_to_write_pressure() {
    let light = evaluate_lagtime(&SutProfile::cdb4(), 5, 1, SIM_SCALE, &seed7());
    let heavy = evaluate_lagtime(&SutProfile::cdb4(), 80, 1, SIM_SCALE, &seed7());
    // Lag is bounded by ship latency + bookkeeping regardless of volume.
    assert!(heavy.c_score_ms < light.c_score_ms * 3.0 + 1.0);
    assert!(heavy.c_score_ms < 15.0);
}

#[test]
fn every_row_collects_samples() {
    let r = evaluate_lagtime(&SutProfile::cdb3(), 20, 1, SIM_SCALE, &seed7());
    assert_eq!(r.rows.len(), 4);
    for row in &r.rows {
        assert!(row.samples > 20, "{} has too few samples", row.label);
    }
}
