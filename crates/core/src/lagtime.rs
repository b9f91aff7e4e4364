//! The replication lag-time evaluator (paper Sections II-B2 and III-F).
//!
//! Runs DML mixes of insert (T1), update (T2) and delete (T4) against the
//! RW node and measures, for each committed change, when it becomes visible
//! on the first RO replica — exactly the paper's "read from the replica
//! until the data is consistent" probe, computed from the replication
//! stream's replay schedule.

use cb_sim::SimDuration;
use cb_sut::SutProfile;

use crate::deploy::Deployment;
use crate::driver::{run, RunOptions, TenantSpec, VcoreControl};
use crate::metrics::c_score;
use crate::workload::{AccessDistribution, KeyPartition, TxnKind, TxnMix};

/// The paper's four IUD ratios.
pub(crate) const IUD_MIXES: [(&str, f64, f64, f64); 4] = [
    ("I60/U30/D10", 60.0, 30.0, 10.0),
    ("I100", 100.0, 0.0, 0.0),
    ("U100", 0.0, 100.0, 0.0),
    ("D100", 0.0, 0.0, 100.0),
];

/// Lag measurements for one IUD mix.
pub struct LagRow {
    /// Mix label.
    pub label: &'static str,
    /// Mean insert lag (ms).
    pub insert_ms: f64,
    /// Mean update lag (ms).
    pub update_ms: f64,
    /// Mean delete lag (ms).
    pub delete_ms: f64,
    /// Samples collected.
    pub samples: usize,
}

/// The outcome of the lag evaluation on one SUT.
pub struct LagReport {
    /// One row per IUD mix.
    pub rows: Vec<LagRow>,
    /// C-Score: mean lag over the pure insert/update/delete runs, divided
    /// by the replica count (paper Eq. 6), in milliseconds.
    pub c_score_ms: f64,
}

/// Evaluate replication lag on one SUT with `replicas` RO nodes (the paper
/// uses one); the C-Score divides by the replica count per the paper's
/// Eq. 6. `base` supplies each run's `seed`, `obs`, `isolation` and
/// `eviction`; lag collection and the fixed vCore allocation are the
/// experiment.
pub fn evaluate_lagtime(
    profile: &SutProfile,
    concurrency: u32,
    replicas: usize,
    sim_scale: u64,
    base: &RunOptions,
) -> LagReport {
    assert!(replicas >= 1, "lag needs at least one replica");
    let mut rows = Vec::with_capacity(IUD_MIXES.len());
    for (label, i, u, d) in IUD_MIXES {
        let mut dep = Deployment::new(profile.clone(), 1, sim_scale, replicas, base.seed);
        let spec = TenantSpec::constant(
            concurrency,
            SimDuration::from_secs(20),
            TxnMix::iud(i, u, d),
            AccessDistribution::Uniform,
            KeyPartition::whole(dep.shape.orders, dep.shape.customers),
        );
        let opts = RunOptions {
            collect_lag: true,
            vcores: VcoreControl::Fixed,
            ..base.inherit()
        };
        let result = run(&mut dep, &[spec], &opts);
        rows.push(LagRow {
            label,
            insert_ms: result.lag.mean_ms(TxnKind::NewOrderline),
            update_ms: result.lag.mean_ms(TxnKind::OrderPayment),
            delete_ms: result.lag.mean_ms(TxnKind::OrderlineDeletion),
            samples: result.lag.samples(),
        });
    }
    // C-Score from the pure runs: T_insert from I100, T_update from U100,
    // T_delete from D100, divided by the replica count.
    let c = c_score(
        rows[1].insert_ms,
        rows[2].update_ms,
        rows[3].delete_ms,
        replicas as u32,
    );
    LagReport {
        rows,
        c_score_ms: c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_order_matches_paper_architectures() {
        // CDB4 (memory disaggregation, on-demand replay) << CDB3 (parallel
        // replay) << CDB1 (sequential) << CDB2 (log/page split).
        let lag =
            |p: &SutProfile| evaluate_lagtime(p, 20, 1, 2000, &RunOptions::seeded(7)).c_score_ms;
        let c4 = lag(&SutProfile::cdb4());
        let c3 = lag(&SutProfile::cdb3());
        let c1 = lag(&SutProfile::cdb1());
        let c2 = lag(&SutProfile::cdb2());
        assert!(c4 < c3, "cdb4 {c4} vs cdb3 {c3}");
        assert!(c3 < c1, "cdb3 {c3} vs cdb1 {c1}");
        assert!(c1 < c2, "cdb1 {c1} vs cdb2 {c2}");
        // Millisecond-scale for memory disaggregation.
        assert!(c4 < 15.0, "c4 = {c4}");
    }

    #[test]
    fn pure_mixes_only_sample_their_class() {
        let r = evaluate_lagtime(&SutProfile::cdb1(), 10, 1, 2000, &RunOptions::seeded(7));
        let insert_row = &r.rows[1];
        assert!(insert_row.insert_ms > 0.0);
        assert_eq!(insert_row.update_ms, 0.0);
        assert_eq!(insert_row.delete_ms, 0.0);
        let delete_row = &r.rows[3];
        assert!(delete_row.delete_ms > 0.0);
        assert_eq!(delete_row.insert_ms, 0.0);
        assert!(r.rows.iter().all(|row| row.samples > 50));
    }

    #[test]
    fn more_replicas_divide_the_c_score() {
        let one = evaluate_lagtime(&SutProfile::cdb3(), 10, 1, 2000, &RunOptions::seeded(7));
        let two = evaluate_lagtime(&SutProfile::cdb3(), 10, 2, 2000, &RunOptions::seeded(7));
        // Per-class lags are similar; the score halves by definition.
        assert!(
            two.c_score_ms < one.c_score_ms * 0.75,
            "1 replica {} vs 2 replicas {}",
            one.c_score_ms,
            two.c_score_ms
        );
    }

    #[test]
    fn mixed_run_samples_all_classes() {
        let r = evaluate_lagtime(&SutProfile::cdb3(), 10, 1, 2000, &RunOptions::seeded(7));
        let mixed = &r.rows[0];
        assert!(mixed.insert_ms > 0.0);
        assert!(mixed.update_ms > 0.0);
        assert!(mixed.delete_ms > 0.0);
    }
}
