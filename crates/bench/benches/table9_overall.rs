//! Table IX — overall performance of the five cloud databases: all seven
//! PERFECT scores, the starred variants computed with each vendor's actual
//! pricing, and the unified O-Score.
//!
//! Paper shapes: AWS RDS tops P-Score, T-Score and E2; CDB3 tops E1 (an
//! order of magnitude over CDB1); CDB4 dominates fail-over (F, R) and lag
//! (C) and wins the combined O-Score; with actual prices the startup
//! pricing of CDB3 flips the ranking (highest O-Score*).

use cb_bench::{base_options, standard_deployment, MEASURE, SEED, SIM_SCALE};
use cb_sim::SimTime;
use cb_sut::SutProfile;
use cloudybench::cost::{actual_cost, RucRates};
use cloudybench::elasticity::{evaluate_elasticity, ElasticPattern};
use cloudybench::failover_eval::evaluate_failover;
use cloudybench::lagtime::evaluate_lagtime;
use cloudybench::metrics::{e1_score, e2_score, o_score, p_score, Perfect};
use cloudybench::report::{fnum, Table};
use cloudybench::tenancy::{evaluate_tenancy, TenancyPattern};
use cloudybench::{oltp_cell, AccessDistribution, Deployment, TxnMix};

const TAU: u32 = 110;

fn main() {
    let base = base_options();
    let uniform = AccessDistribution::Uniform;
    println!("=== Table IX: overall performance (PERFECT framework) ===\n");
    let mut table = Table::new(
        "Table IX — PERFECT scores and O-Score",
        &[
            "System", "P", "P*", "E1", "E1*", "R(s)", "F(s)", "E2", "C(ms)", "T", "T*", "O", "O*",
        ],
    );
    for profile in SutProfile::all() {
        // P / P*: read-write throughput per dollar (RUC and actual).
        let mut dep = standard_deployment(&profile, 1);
        let cell = oltp_cell(&mut dep, 100, MEASURE, TxnMix::read_write(), uniform, &base);
        let p = p_score(cell.avg_tps, &cell.cost_per_min);
        let usage = dep.usage(SimTime::ZERO, SimTime::ZERO + MEASURE);
        // Actual dollars (including the vendor's billing minimum) divided
        // by the minutes of *work*: a 10-minute minimum makes a 20-second
        // run ~30x more expensive per useful minute — the paper's P* story.
        let work_min = usage.window.as_secs_f64() / 60.0;
        let actual_per_min = actual_cost(&usage, &profile.actual_pricing).scaled(1.0 / work_min);
        let p_star = p_score(cell.avg_tps, &actual_per_min);

        // E1 / E1*: averaged over the four elasticity patterns (RW mode).
        let mut e1_sum = 0.0;
        let mut e1_star_sum = 0.0;
        for pattern in ElasticPattern::all() {
            let r = evaluate_elasticity(
                &profile,
                pattern,
                TxnMix::read_write(),
                TAU,
                SIM_SCALE,
                &base,
            );
            e1_sum += r.e1;
            // Starred: reprice the same ten-minute window with actual rates.
            let per_min = r.cost.scaled(1.0 / 10.0);
            let ratio_cpu = profile.actual_pricing.vcore_hour / RucRates::default().cpu_vcore_hour;
            let ratio_mem = profile.actual_pricing.mem_gb_hour / RucRates::default().mem_gb_hour;
            let ratio_iops =
                profile.actual_pricing.iops_100_hour / RucRates::default().iops_100_hour;
            let starred = cloudybench::cost::CostBreakdown {
                cpu: per_min.cpu * ratio_cpu,
                mem: per_min.mem * ratio_mem,
                iops: per_min.iops * ratio_iops,
                ..per_min
            };
            e1_star_sum += e1_score(r.avg_tps, &starred);
        }
        let e1 = e1_sum / 4.0;
        let e1_star = e1_star_sum / 4.0;

        // F / R: fail-over evaluation.
        let fo = evaluate_failover(&profile, 150, SIM_SCALE, &base);
        let f = fo.f_avg();
        let r = fo.r_avg().max(0.5);

        // E2: add RO nodes and measure marginal read-only throughput.
        let tps_series = [0, 1, 2].map(|ro| {
            let mut dep = Deployment::new(profile.clone(), 1, SIM_SCALE, ro, SEED);
            let ro_mix = TxnMix::read_only();
            oltp_cell(&mut dep, 150, MEASURE, ro_mix, uniform, &base).avg_tps
        });
        let e2 = e2_score(&tps_series, 1.0).max(1.0);

        // C: replication lag.
        let lag = evaluate_lagtime(&profile, 50, 1, SIM_SCALE, &base);
        let c = lag.c_score_ms.max(0.01);

        // T / T*: averaged over the four tenancy patterns.
        let mut t_sum = 0.0;
        let mut t_star_sum = 0.0;
        for pattern in TenancyPattern::all() {
            let tr = evaluate_tenancy(&profile, pattern, 0.5, SIM_SCALE, &base);
            t_sum += tr.t_score;
            t_star_sum += tr.t_score_actual;
        }
        let t = t_sum / 4.0;
        let t_star = t_star_sum / 4.0;

        let perfect = Perfect {
            p,
            e1,
            e2,
            r,
            f,
            c,
            t,
        };
        let starred = Perfect {
            p: p_star,
            e1: e1_star,
            t: t_star,
            ..perfect
        };
        let o = o_score(1.0, &perfect);
        let o_star = o_score(1.0, &starred);
        table.row(&[
            profile.display.to_string(),
            fnum(p),
            fnum(p_star),
            fnum(e1),
            fnum(e1_star),
            fnum(r),
            fnum(f),
            fnum(e2),
            fnum(c),
            fnum(t),
            fnum(t_star),
            o.map_or("-".into(), fnum),
            o_star.map_or("-".into(), fnum),
        ]);
    }
    println!("{table}");
}
