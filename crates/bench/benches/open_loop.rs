//! Open-loop load generation figure: latency-throughput curves with
//! coordinated-omission-correct response times.
//!
//! Three sections:
//!
//! 1. **Fixed-rate sweep** (aws-rds and cdb4, RW mix): offered Poisson rate
//!    vs committed TPS and CO-corrected response percentiles. As the offered
//!    rate approaches the saturation point the response p99 explodes while
//!    the *service* p99 barely moves — the gap is queueing delay a closed
//!    loop never reports.
//! 2. **Fixed-rate vs max-throughput** on the same deployment: the
//!    closed-loop-compatible saturation probe against open-loop cells below
//!    and at the knee.
//! 3. **Multi-seed aggregation**: one fixed-rate plan across 5 seeds,
//!    reporting mean/stddev/CV/95% CI per metric.

use cb_bench::{open_loop_cell, open_loop_curve, OPEN_LOOP_CLIENTS, SEED, SIM_SCALE};
use cb_load::{ArrivalPlan, PhasePlan};
use cb_sim::SimDuration;
use cb_sut::SutProfile;
use cloudybench::report::{fnum, summary_table, Table};
use cloudybench::{
    aggregate, run_open_loop, run_open_loop_seeds, AccessDistribution, Deployment, KeyPartition,
    OpenLoopConfig, OpenLoopSpec, RunOptions, TxnMix,
};

// The last two rates sit at/above the ~34k TPS saturation knee (see the
// max-throughput probe), where the CO-corrected percentiles diverge from the
// service time as the arrival queue grows.
const RATES: [f64; 6] = [2000.0, 5000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0];

fn main() {
    println!("=== Open-loop load generation (cb-load) ===");
    println!(
        "(sim_scale {SIM_SCALE}, 2s+2s warmup/ramp, {}s measured, seed {SEED}, \
         {OPEN_LOOP_CLIENTS} logical clients; 1 RW + 1 RO)\n",
        cb_bench::MEASURE_SECS
    );
    for profile in [SutProfile::aws_rds(), SutProfile::cdb4()] {
        fixed_rate_sweep(&profile);
    }
    fixed_vs_maxtp(&SutProfile::aws_rds());
    multi_seed(&SutProfile::aws_rds());
}

fn fixed_rate_sweep(profile: &SutProfile) {
    let mut t = Table::new(
        &format!("Fixed-rate sweep — {} (RW mix)", profile.name),
        &[
            "Offered/s",
            "TPS",
            "mean ms",
            "p50 ms",
            "p99 ms",
            "p99.9 ms",
            "svc p99 ms",
            "lag p99 ms",
            "max depth",
        ],
    );
    let cells = open_loop_curve(profile, 1, SIM_SCALE, TxnMix::read_write(), &RATES, 4);
    for c in &cells {
        t.row(&[
            fnum(c.offered_rate),
            fnum(c.measured_tps),
            fnum(c.mean_ms),
            fnum(c.p50_ms),
            fnum(c.p99_ms),
            fnum(c.p999_ms),
            fnum(c.service_p99_ms),
            fnum(c.sched_lag_p99_ms),
            c.queue_depth_max.to_string(),
        ]);
    }
    println!("{t}");
}

fn fixed_vs_maxtp(profile: &SutProfile) {
    let mut t = Table::new(
        &format!("Fixed-rate vs max-throughput — {} (RW mix)", profile.name),
        &["Mode", "TPS", "p50 ms", "p99 ms", "max depth"],
    );
    let mut dep = Deployment::new(profile.clone(), 1, SIM_SCALE, 1, SEED);
    for rate in [5000.0, 10_000.0, 15_000.0] {
        let c = open_loop_cell(&mut dep, TxnMix::read_write(), rate);
        t.row(&[
            format!("poisson {}/s", rate as u64),
            fnum(c.measured_tps),
            fnum(c.p50_ms),
            fnum(c.p99_ms),
            c.queue_depth_max.to_string(),
        ]);
    }
    for clients in [64u32, 128] {
        dep.reset_runtime();
        let spec = OpenLoopSpec {
            plan: ArrivalPlan::max_throughput(
                clients,
                PhasePlan::new(
                    SimDuration::from_secs(2),
                    SimDuration::from_secs(2),
                    SimDuration::from_secs(cb_bench::MEASURE_SECS),
                ),
            ),
            mix: TxnMix::read_write(),
            dist: AccessDistribution::Uniform,
            partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
        };
        let opts = RunOptions {
            seed: SEED,
            vcores: cloudybench::driver::VcoreControl::Fixed,
            ..RunOptions::default()
        };
        let r = run_open_loop(&mut dep, &spec, &opts);
        t.row(&[
            format!("maxtp {clients} clients"),
            fnum(r.measured_tps()),
            fnum(r.response_percentile_ms(50.0)),
            fnum(r.response_percentile_ms(99.0)),
            r.queue_depth_max.to_string(),
        ]);
    }
    println!("{t}");
}

fn multi_seed(profile: &SutProfile) {
    let cfg = OpenLoopConfig {
        profile: profile.clone(),
        scale_factor: 1,
        sim_scale: SIM_SCALE,
        ro_nodes: 1,
    };
    let spec = OpenLoopSpec {
        plan: ArrivalPlan::fixed_rate(
            cb_load::ArrivalProcess::poisson(10_000.0),
            PhasePlan::new(
                SimDuration::from_secs(2),
                SimDuration::from_secs(2),
                SimDuration::from_secs(cb_bench::MEASURE_SECS),
            ),
            OPEN_LOOP_CLIENTS,
        ),
        mix: TxnMix::read_write(),
        dist: AccessDistribution::Uniform,
        partition: {
            let shape = cloudybench::DatasetShape::new(1, SIM_SCALE);
            KeyPartition::whole(shape.orders, shape.customers)
        },
    };
    let seeds: Vec<u64> = (1..=5).collect();
    let outcomes = run_open_loop_seeds(&cfg, &spec, &seeds, 4);
    let agg = aggregate(&outcomes);
    let t = summary_table(
        &format!(
            "Multi-seed aggregate — {} poisson 10000/s, {} seeds",
            profile.name,
            seeds.len()
        ),
        &[
            ("TPS", agg.tps),
            ("mean ms", agg.mean_ms),
            ("p99 ms", agg.p99_ms),
            ("p99.9 ms", agg.p999_ms),
        ],
    );
    println!("{t}");
}
