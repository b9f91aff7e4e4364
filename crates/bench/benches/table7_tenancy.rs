//! Table VII — multi-tenancy evaluation: per-pattern TPS, combined
//! resources, cost, and T-Scores for three tenants.
//!
//! Paper shapes: isolated instances (CDB4, AWS RDS, CDB1) win raw TPS on
//! the contention pattern but pay tripled network/IOPS; CDB2's elastic pool
//! wins the staggered patterns by shifting the whole budget to the only
//! busy tenant; CDB3's branches are cheap but stuck at fixed per-branch
//! compute (worst staggered-low TPS).

use cb_bench::{SEED, SIM_SCALE};
use cb_sut::SutProfile;
use cloudybench::report::{fmoney, fnum, Table};
use cloudybench::tenancy::{evaluate_tenancy, TenancyPattern};
use cloudybench::RunOptions;

/// The paper's tuples reach concurrency 429; scale to keep sim time sane.
const SCALE: f64 = 0.5;

fn main() {
    let base = RunOptions {
        seed: SEED,
        ..RunOptions::default()
    };
    println!("=== Table VII: multi-tenancy evaluation (3 tenants, scale {SCALE}) ===\n");
    let mut table = Table::new(
        "Table VII — TPS and T-Score by pattern",
        &[
            "System",
            "TPS(a)",
            "TPS(b)",
            "TPS(c)",
            "TPS(d)",
            "Resources",
            "Cost$/min",
            "T(a)",
            "T(b)",
            "T(c)",
            "T(d)",
            "T(AVG)",
        ],
    );
    for profile in SutProfile::all() {
        let mut tps = Vec::new();
        let mut ts = Vec::new();
        let mut resources = String::new();
        let mut cost = 0.0;
        for pattern in TenancyPattern::all() {
            let r = evaluate_tenancy(&profile, pattern, SCALE, SIM_SCALE, &base);
            tps.push(r.total_tps);
            ts.push(r.t_score);
            let minutes = r.usage.window.as_secs_f64() / 60.0;
            cost = r.cost.total() / minutes;
            resources = format!(
                "{:.0} vCores, {:.0} GB, {:.0} GB disk, {} IOPS, {:.0} Gbps{}",
                r.usage.avg_vcores.ceil(),
                r.usage.avg_mem_gb,
                r.usage.storage_gb,
                r.usage.iops,
                r.usage.network_gbps,
                if r.usage.rdma { " RDMA" } else { "" },
            );
        }
        let t_avg = ts.iter().sum::<f64>() / ts.len() as f64;
        table.row(&[
            profile.display.to_string(),
            fnum(tps[0]),
            fnum(tps[1]),
            fnum(tps[2]),
            fnum(tps[3]),
            resources,
            fmoney(cost),
            fnum(ts[0]),
            fnum(ts[1]),
            fnum(ts[2]),
            fnum(ts[3]),
            fnum(t_avg),
        ]);
    }
    println!("{table}");
}
