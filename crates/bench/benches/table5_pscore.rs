//! Table V — P-Score of the five cloud databases with the detailed
//! per-resource cost breakdown.
//!
//! Paper shapes: AWS RDS highest P-Score on every mix (high TPS, lowest
//! cost); CDB4 strong TPS but expensive (RDMA network ≈3× TCP, large
//! memory, high IOPS); CDB2 lowest (buffer-bound TPS plus a 327× IOPS
//! bill); CDB1 penalized by its 1:8 CPU:memory ratio and six-way storage.

use cb_bench::{base_options, paper_mixes, standard_deployment, MEASURE, SIM_SCALE};
use cb_sut::SutProfile;
use cloudybench::metrics::p_score;
use cloudybench::report::{fmoney, fnum, Table};
use cloudybench::{oltp_cell, AccessDistribution};

fn main() {
    println!("=== Table V: P-Score with detailed resource cost ===");
    println!("(sim_scale {SIM_SCALE}, concurrency 100, SF10)\n");
    let mut table = Table::new(
        "Table V — per-minute resource cost and P-Score",
        &[
            "System",
            "CPU$",
            "Mem$",
            "Storage$",
            "IOPS$",
            "Net$",
            "Total$/min",
            "P(RO)",
            "P(RW)",
            "P(WO)",
            "P(AVG)",
        ],
    );
    let (uniform, base) = (AccessDistribution::Uniform, base_options());
    for profile in SutProfile::all() {
        let mut dep = standard_deployment(&profile, 10);
        let mut scores = Vec::new();
        let mut cost = None;
        for (_, mix) in paper_mixes() {
            let cell = oltp_cell(&mut dep, 100, MEASURE, mix, uniform, &base);
            scores.push(p_score(cell.avg_tps, &cell.cost_per_min));
            cost = Some(cell.cost_per_min);
        }
        let c = cost.expect("three mixes ran");
        let avg = scores.iter().sum::<f64>() / scores.len() as f64;
        table.row(&[
            profile.display.to_string(),
            fmoney(c.cpu),
            fmoney(c.mem),
            fmoney(c.storage),
            fmoney(c.iops),
            fmoney(c.network),
            fmoney(c.total()),
            fnum(scores[0]),
            fnum(scores[1]),
            fnum(scores[2]),
            fnum(avg),
        ]);
    }
    println!("{table}");
}
