//! The "PERFECT" metric framework (paper Section II-G).
//!
//! Seven scores — Productivity (P), scale-up/down elasticity (E1),
//! scale-out elasticity (E2), throughput Recovery (R), Fail-over (F),
//! Consistency lag (C), and Tenancy (T) — folded into the unified O-Score:
//!
//! ```text
//! O-Score = SF * lg( P * T * E1 * E2 / (R * F * C) )
//! ```

use cb_sim::geomean;

use crate::cost::CostBreakdown;

/// P-Score: average TPS per dollar-minute of all five resources (Eq. 1).
pub fn p_score(avg_tps: f64, cost_per_min: &CostBreakdown) -> f64 {
    let denom = cost_per_min.total();
    if denom <= 0.0 {
        return 0.0;
    }
    avg_tps / denom
}

/// E1-Score: average TPS per dollar-minute of the elasticity-relevant
/// resources — CPU, memory, IOPS (Eq. 2).
pub fn e1_score(avg_tps: f64, cost_per_min: &CostBreakdown) -> f64 {
    let denom = cost_per_min.cpu + cost_per_min.mem + cost_per_min.iops;
    if denom <= 0.0 {
        return 0.0;
    }
    avg_tps / denom
}

/// F-Score: mean seconds from failure injection to service resumption
/// (Eq. 3). Lower is better.
pub(crate) fn f_score(downtimes_secs: &[f64]) -> f64 {
    if downtimes_secs.is_empty() {
        return 0.0;
    }
    downtimes_secs.iter().sum::<f64>() / downtimes_secs.len() as f64
}

/// R-Score: mean seconds from service resumption to recovering the
/// pre-failure TPS (Eq. 4). Lower is better.
pub(crate) fn r_score(recovery_secs: &[f64]) -> f64 {
    f_score(recovery_secs)
}

/// E2-Score: average TPS gained per added RO node, normalized by the
/// scaling factor δ (Eq. 5). `tps_by_nodes[i]` is the throughput with `i`
/// additional RO nodes (index 0 = baseline).
pub fn e2_score(tps_by_nodes: &[f64], delta: f64) -> f64 {
    if tps_by_nodes.len() < 2 || delta <= 0.0 {
        return 0.0;
    }
    let lambda = tps_by_nodes.len() - 1;
    let mut sum = 0.0;
    for i in 1..tps_by_nodes.len() {
        sum += (tps_by_nodes[i] - tps_by_nodes[i - 1]) / delta;
    }
    sum / lambda as f64
}

/// C-Score: mean replication lag over insert/update/delete, per replica
/// (Eq. 6), in milliseconds. Lower is better.
pub(crate) fn c_score(insert_ms: f64, update_ms: f64, delete_ms: f64, replicas: u32) -> f64 {
    if replicas == 0 {
        return 0.0;
    }
    (insert_ms + update_ms + delete_ms) / replicas as f64
}

/// T-Score: geometric mean of tenant TPS divided by the summed tenant cost
/// (Eq. 7).
pub(crate) fn t_score(tenant_tps: &[f64], tenant_cost: &[f64]) -> f64 {
    assert_eq!(tenant_tps.len(), tenant_cost.len());
    let total_cost: f64 = tenant_cost.iter().sum();
    if total_cost <= 0.0 {
        return 0.0;
    }
    geomean(tenant_tps) / total_cost
}

/// The seven component scores of one system.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Perfect {
    /// Productivity.
    pub p: f64,
    /// Scale-up/down elasticity.
    pub e1: f64,
    /// Scale-out elasticity.
    pub e2: f64,
    /// Throughput recovery time (s).
    pub r: f64,
    /// Fail-over time (s).
    pub f: f64,
    /// Replication lag (ms).
    pub c: f64,
    /// Multi-tenancy.
    pub t: f64,
}

/// O-Score: `SF * lg(P*T*E1*E2 / (R*F*C))` (Eq. 8). `C` enters the formula
/// in *seconds* (reproducing the paper's Table IX values from its own
/// component rows requires it, e.g. RDS: lg(359735*80619*59430*20 /
/// (24*15*0.014)) = 15.8). Returns `None` when a component is non-positive
/// (the logarithm would be undefined).
pub fn o_score(sf: f64, s: &Perfect) -> Option<f64> {
    let num = s.p * s.t * s.e1 * s.e2;
    let den = s.r * s.f * (s.c / 1000.0);
    if num <= 0.0 || den <= 0.0 {
        return None;
    }
    Some(sf * (num / den).log10())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(cpu: f64, mem: f64, storage: f64, iops: f64, net: f64) -> CostBreakdown {
        CostBreakdown {
            cpu,
            mem,
            storage,
            iops,
            network: net,
        }
    }

    #[test]
    fn p_score_matches_paper_magnitude() {
        // Paper Table V prints P(RW) = 283350 for RDS at TPS 12382, i.e.
        // TPS / $0.0437. Its per-component cells sum to ~$0.0282 instead
        // (an internal inconsistency); with the printed total the score
        // reproduces exactly.
        let total_from_paper = 0.0437_f64;
        let p: f64 = 12382.0 / total_from_paper;
        assert!((p - 283_340.0).abs() < 100.0, "p = {p}");
        // And our formula is TPS over the breakdown's own total.
        let c = cost(0.0123, 0.0025, 0.0006, 0.000025, 0.0128);
        let p = p_score(12382.0, &c);
        assert!((p - 12382.0 / c.total()).abs() < 1e-9);
    }

    #[test]
    fn e1_uses_only_cpu_mem_iops() {
        let c = cost(0.01, 0.002, 100.0, 0.0005, 100.0);
        let e1 = e1_score(125.0, &c);
        assert!((e1 - 125.0 / 0.0125).abs() < 1e-9);
    }

    #[test]
    fn zero_cost_guards() {
        let zero = CostBreakdown::default();
        assert_eq!(p_score(100.0, &zero), 0.0);
        assert_eq!(e1_score(100.0, &zero), 0.0);
    }

    #[test]
    fn f_and_r_are_means() {
        assert_eq!(f_score(&[24.0, 6.0]), 15.0); // paper RDS: RW 24, RO 6 -> 15
        assert_eq!(r_score(&[18.0, 30.0]), 24.0);
        assert_eq!(f_score(&[]), 0.0);
    }

    #[test]
    fn e2_average_marginal_gain() {
        // 17003 -> 36198 with one RO node, delta=1: E2 = 19195.
        let e2 = e2_score(&[17_003.0, 36_198.0], 1.0);
        assert!((e2 - 19_195.0).abs() < 1e-9);
        // Diminishing returns averaged.
        let e2 = e2_score(&[100.0, 180.0, 220.0], 1.0);
        assert!((e2 - 60.0).abs() < 1e-9);
        assert_eq!(e2_score(&[100.0], 1.0), 0.0);
    }

    #[test]
    fn c_score_divides_by_replicas() {
        assert!((c_score(3.0, 2.0, 1.0, 1) - 6.0).abs() < 1e-12);
        assert!((c_score(3.0, 2.0, 1.0, 2) - 3.0).abs() < 1e-12);
        assert_eq!(c_score(1.0, 1.0, 1.0, 0), 0.0);
    }

    #[test]
    fn t_score_geometric_mean_over_cost() {
        // Balanced tenants beat imbalanced ones at the same total TPS.
        let balanced = t_score(&[100.0, 100.0, 100.0], &[0.02, 0.02, 0.02]);
        let skewed = t_score(&[290.0, 5.0, 5.0], &[0.02, 0.02, 0.02]);
        assert!(balanced > skewed);
        assert!((balanced - 100.0 / 0.06).abs() < 1e-9);
    }

    #[test]
    fn o_score_shape() {
        let good = Perfect {
            p: 153_566.0,
            t: 75_305.0,
            e1: 80_565.0,
            e2: 10.0,
            r: 3.5,
            f: 2.5,
            c: 1.5,
        };
        // Paper CDB4: O-Score 17.7 with SF=1.
        let o = o_score(1.0, &good).unwrap();
        assert!((o - 17.7).abs() < 0.3, "o = {o}");
        // Worse fail-over/lag lowers the score.
        let worse = Perfect {
            f: 15.0,
            c: 14.0,
            ..good
        };
        assert!(o_score(1.0, &worse).unwrap() < o);
        // Undefined when a component is zero.
        assert!(o_score(1.0, &Perfect::default()).is_none());
    }
}
