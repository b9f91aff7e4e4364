//! Integration: multi-tenancy patterns across deployment models.

use cb_sut::SutProfile;
use cloudybench::tenancy::{evaluate_tenancy, TenancyPattern};
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
fn table7_shape_isolation_wins_contention_pool_wins_staggered() {
    let scale = 0.3;
    let rds_a = evaluate_tenancy(
        &SutProfile::aws_rds(),
        TenancyPattern::HighContention,
        scale,
        SIM_SCALE,
        &seed7(),
    );
    let cdb2_a = evaluate_tenancy(
        &SutProfile::cdb2(),
        TenancyPattern::HighContention,
        scale,
        SIM_SCALE,
        &seed7(),
    );
    assert!(
        rds_a.total_tps > cdb2_a.total_tps,
        "isolation wins contention: {} vs {}",
        rds_a.total_tps,
        cdb2_a.total_tps
    );

    let cdb2_d = evaluate_tenancy(
        &SutProfile::cdb2(),
        TenancyPattern::StaggeredLow,
        1.0,
        SIM_SCALE,
        &seed7(),
    );
    let cdb3_d = evaluate_tenancy(
        &SutProfile::cdb3(),
        TenancyPattern::StaggeredLow,
        1.0,
        SIM_SCALE,
        &seed7(),
    );
    assert!(
        cdb2_d.t_score > cdb3_d.t_score,
        "pool wins staggered-low: {} vs {}",
        cdb2_d.t_score,
        cdb3_d.t_score
    );
}

#[test]
fn every_sut_completes_every_pattern() {
    for profile in SutProfile::all() {
        for pattern in TenancyPattern::all() {
            let r = evaluate_tenancy(&profile, pattern, 0.1, SIM_SCALE, &seed7());
            assert_eq!(r.tenant_tps.len(), 3);
            assert!(
                r.total_tps > 0.0,
                "{} produced no throughput on {}",
                profile.display,
                pattern.label()
            );
            assert!(r.t_score >= 0.0);
            assert!(r.cost.total() > 0.0);
        }
    }
}

#[test]
fn isolated_deployments_bill_triple_network() {
    let iso = evaluate_tenancy(
        &SutProfile::cdb4(),
        TenancyPattern::LowContention,
        0.1,
        SIM_SCALE,
        &seed7(),
    );
    let pool = evaluate_tenancy(
        &SutProfile::cdb2(),
        TenancyPattern::LowContention,
        0.1,
        SIM_SCALE,
        &seed7(),
    );
    assert!((iso.usage.network_gbps - 30.0).abs() < 1e-9);
    assert!((pool.usage.network_gbps - 10.0).abs() < 1e-9);
    assert!(iso.usage.rdma);
}

#[test]
fn branches_share_the_storage_bill() {
    let branches = evaluate_tenancy(
        &SutProfile::cdb3(),
        TenancyPattern::LowContention,
        0.1,
        SIM_SCALE,
        &seed7(),
    );
    let isolated = evaluate_tenancy(
        &SutProfile::cdb1(),
        TenancyPattern::LowContention,
        0.1,
        SIM_SCALE,
        &seed7(),
    );
    // CDB1: 3 instances x 6-way replication (18x data); CDB3: one shared
    // copy-on-write store at 3x. The nominal ratio is 6x, but the shared
    // store absorbs all three tenants' inserts while each isolated instance
    // only grows by its own — at this tiny test scale that narrows the gap,
    // so assert a conservative 2x.
    assert!(
        isolated.usage.storage_gb > branches.usage.storage_gb * 2.0,
        "isolated {} vs branches {}",
        isolated.usage.storage_gb,
        branches.usage.storage_gb
    );
}
