//! Integration: elasticity patterns end to end — autoscalers react to
//! peaks and valleys, cost accrues per the RUC model, E1 ranks match the
//! paper's architecture story.

use cb_sim::SimTime;
use cb_sut::SutProfile;
use cloudybench::elasticity::{evaluate_elasticity, ElasticPattern};
use cloudybench::RunOptions;
use cloudybench::TxnMix;

/// The base options of every evaluation here: seed 7, everything else default.
fn seed7() -> RunOptions {
    RunOptions {
        seed: 7,
        ..RunOptions::default()
    }
}

const SIM_SCALE: u64 = 2000;
const TAU: u32 = 40;

#[test]
fn serverless_tiers_scale_with_the_single_peak() {
    for profile in [SutProfile::cdb1(), SutProfile::cdb2(), SutProfile::cdb3()] {
        let r = evaluate_elasticity(
            &profile,
            ElasticPattern::SinglePeak,
            TxnMix::read_only(),
            TAU,
            SIM_SCALE,
            &seed7(),
        );
        let peak = r
            .vcores
            .max_in(SimTime::from_secs(60), SimTime::from_secs(180));
        assert!(
            peak > profile.min_vcores,
            "{} should scale above its minimum during the peak (peak {peak})",
            profile.display
        );
        assert!(r.avg_tps > 0.0);
    }
}

#[test]
fn fixed_tiers_cost_more_than_pause_resume_on_zero_valley() {
    let rds = evaluate_elasticity(
        &SutProfile::aws_rds(),
        ElasticPattern::ZeroValley,
        TxnMix::read_write(),
        TAU,
        SIM_SCALE,
        &seed7(),
    );
    let cdb3 = evaluate_elasticity(
        &SutProfile::cdb3(),
        ElasticPattern::ZeroValley,
        TxnMix::read_write(),
        TAU,
        SIM_SCALE,
        &seed7(),
    );
    assert!(cdb3.cost.cpu < rds.cost.cpu);
    assert!(cdb3.e1 > rds.e1, "cdb3 {} vs rds {}", cdb3.e1, rds.e1);
}

#[test]
fn gradual_scale_down_keeps_costing_after_the_peak() {
    // CDB1 releases capacity step by step; its allocation shortly after the
    // peak is still elevated compared with CDB2's on-demand release.
    let cdb1 = evaluate_elasticity(
        &SutProfile::cdb1(),
        ElasticPattern::SinglePeak,
        TxnMix::read_only(),
        TAU,
        SIM_SCALE,
        &seed7(),
    );
    let after_peak = SimTime::from_secs(240); // one minute past the workload
    let cdb2 = evaluate_elasticity(
        &SutProfile::cdb2(),
        ElasticPattern::SinglePeak,
        TxnMix::read_only(),
        TAU,
        SIM_SCALE,
        &seed7(),
    );
    let c1 = cdb1.vcores.value_at(after_peak);
    let c2 = cdb2.vcores.value_at(after_peak);
    assert!(
        c1 > c2,
        "gradual-down CDB1 ({c1}) should still hold more vCores than CDB2 ({c2})"
    );
}

#[test]
fn pattern_proportions_follow_tau() {
    for pattern in ElasticPattern::all() {
        let slots = pattern.concurrency(110);
        let props = pattern.proportions();
        for (s, p) in slots.iter().zip(props.iter()) {
            assert_eq!(*s, (p * 110.0).round() as u32);
        }
    }
}
