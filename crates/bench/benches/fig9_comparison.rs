//! Figure 9 — comparison of CPU allocation fluctuation on CDB3 between
//! CloudyBench's elasticity patterns and the constant workloads of SysBench
//! and TPC-C over a 12-minute window.
//!
//! Paper shapes: CloudyBench's four assembled patterns drive CDB3 between
//! 0.5 and 3.25 vCores with slot-to-slot drops above 2 vCores; SysBench
//! (11 threads) and TPC-C (44 threads) keep the allocation nearly flat
//! (≈0.5–1.25 and ≈1–2 vCores respectively).

use cb_bench::{SEED, SIM_SCALE};
use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;
use cloudybench::baselines::{run_constant, Baseline};
use cloudybench::elasticity::{assemble, ElasticPattern};
use cloudybench::report::print_series;
use cloudybench::{
    run, AccessDistribution, Deployment, KeyPartition, RunOptions, TenantSpec, TxnMix,
};

const TAU: u32 = 44;
const MINUTES: usize = 12;

fn main() {
    println!("=== Figure 9: CPU fluctuation, CloudyBench vs SysBench vs TPC-C on CDB3 ===\n");
    let profile = SutProfile::cdb3();

    // CloudyBench: the four elasticity patterns back to back (12 slots).
    let mut dep = Deployment::new(profile.clone(), 1, SIM_SCALE, 0, SEED);
    let spec = TenantSpec {
        slots: assemble(&ElasticPattern::all(), TAU),
        slot_len: SimDuration::from_secs(60),
        mix: TxnMix::read_write(),
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    };
    let _ = run(
        &mut dep,
        &[spec],
        &RunOptions {
            seed: SEED,
            ..RunOptions::default()
        },
    );
    let cloudy = dep.nodes[0].vcore_gauge.clone();

    // Baselines: constant threads chosen as in the paper (peak/valley points).
    let duration = SimDuration::from_secs(60 * MINUTES as u64);
    let sys = run_constant(&profile, Baseline::Sysbench, 11, duration, SIM_SCALE, SEED);
    let tpcc = run_constant(&profile, Baseline::TpccLite, 44, duration, SIM_SCALE, SEED);

    // Sample all three gauges once per 30 seconds.
    let step = SimDuration::from_secs(30);
    let n = MINUTES * 2 + 1;
    let xs: Vec<String> = (0..n)
        .map(|i| format!("{:.1}min", i as f64 / 2.0))
        .collect();
    print_series(
        "Figure 9 — allocated vCores over 12 minutes",
        "time",
        &xs,
        &[
            ("CloudyBench", cloudy.sample(SimTime::ZERO, step, n)),
            ("SysBench", sys.vcores.sample(SimTime::ZERO, step, n)),
            ("TPC-C", tpcc.vcores.sample(SimTime::ZERO, step, n)),
        ],
    );
    let span = |g: &cb_sim::GaugeSeries| {
        let lo = g.min_in(SimTime::ZERO, SimTime::ZERO + duration);
        let hi = g.max_in(SimTime::ZERO, SimTime::ZERO + duration);
        (lo, hi)
    };
    let (clo, chi) = span(&cloudy);
    let (slo, shi) = span(&sys.vcores);
    let (tlo, thi) = span(&tpcc.vcores);
    println!("scaling ranges: CloudyBench {clo}..{chi} vCores | SysBench {slo}..{shi} | TPC-C {tlo}..{thi}");
    println!(
        "baseline TPS: SysBench {:.0}, TPC-C {:.0}",
        sys.avg_tps, tpcc.avg_tps
    );

    // Also drop the series as CSV for plotting.
    let series = [
        cloudy.sample(SimTime::ZERO, step, n),
        sys.vcores.sample(SimTime::ZERO, step, n),
        tpcc.vcores.sample(SimTime::ZERO, step, n),
    ];
    let mut csv = String::from("minute,cloudybench,sysbench,tpcc\n");
    for (i, x) in xs.iter().enumerate() {
        csv.push_str(x);
        for ys in &series {
            csv.push_str(&format!(",{}", ys[i]));
        }
        csv.push('\n');
    }
    let out = std::path::Path::new("target/fig9_cpu_fluctuation.csv");
    if std::fs::write(out, csv).is_ok() {
        println!("series written to {}", out.display());
    }
}
