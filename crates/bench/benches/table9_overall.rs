//! Table IX — overall performance of the five cloud databases: all seven
//! PERFECT scores, the starred variants computed with each vendor's actual
//! pricing, and the unified O-Score.
//!
//! Paper shapes: AWS RDS tops P-Score, T-Score and E2; CDB3 tops E1 (an
//! order of magnitude over CDB1); CDB4 dominates fail-over (F, R) and lag
//! (C) and wins the combined O-Score; with actual prices the startup
//! pricing of CDB3 flips the ranking (highest O-Score*).

use cb_bench::{oltp_cell, standard_deployment, SEED, SIM_SCALE};
use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;
use cloudybench::cost::{actual_cost, RucRates};
use cloudybench::driver::VcoreControl;
use cloudybench::elasticity::{evaluate_elasticity, ElasticPattern};
use cloudybench::failover_eval::evaluate_failover;
use cloudybench::lagtime::evaluate_lagtime;
use cloudybench::metrics::{e1_score, e2_score, o_score, p_score, Perfect};
use cloudybench::report::{fnum, Table};
use cloudybench::tenancy::{evaluate_tenancy, TenancyPattern};
use cloudybench::{
    run, AccessDistribution, Deployment, KeyPartition, RunOptions, TenantSpec, TxnMix,
};

const TAU: u32 = 110;

/// Read-heavy TPS with `ro` replicas (for E2).
fn tps_with_ro(profile: &SutProfile, ro: usize) -> f64 {
    let mut dep = Deployment::new(profile.clone(), 1, SIM_SCALE, ro, SEED);
    let duration = SimDuration::from_secs(20);
    let spec = TenantSpec::constant(
        150,
        duration,
        TxnMix::read_only(),
        AccessDistribution::Uniform,
        KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    );
    let opts = RunOptions {
        seed: SEED,
        vcores: VcoreControl::Fixed,
        ..RunOptions::default()
    };
    run(&mut dep, &[spec], &opts).avg_tps(SimTime::ZERO, SimTime::ZERO + duration)
}

fn main() {
    let base = RunOptions {
        seed: SEED,
        ..RunOptions::default()
    };
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
        let cell = oltp_cell(
            &mut dep,
            TxnMix::read_write(),
            100,
            AccessDistribution::Uniform,
        );
        let p = p_score(cell.avg_tps, &cell.cost_per_min);
        let window = SimDuration::from_secs(cb_bench::MEASURE_SECS);
        let usage = dep.usage(SimTime::ZERO, SimTime::ZERO + window);
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

        // E2: add RO nodes and measure marginal read throughput.
        let tps_series = [
            tps_with_ro(&profile, 0),
            tps_with_ro(&profile, 1),
            tps_with_ro(&profile, 2),
        ];
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
