//! Commit-path microbench — group commit against per-commit WAL flushes.
//!
//! Same RDS deployment, same workload, two durability pipelines: the
//! profile's group-commit window (500µs / 64-commit batches) versus a
//! degenerate per-commit configuration that flushes the log device on every
//! commit (the pre-batching behaviour). At low concurrency the window tax
//! shows; past ~64 writers the per-commit path serializes on the log
//! device's queue while batches amortize one flush across the group — TPS
//! rises and the metered IOPS bill falls together.

use cb_bench::{base_options, MEASURE, SEED, SIM_SCALE};
use cb_store::GroupCommitConfig;
use cb_sut::SutProfile;
use cloudybench::report::{fnum, Table};
use cloudybench::{oltp_cell, AccessDistribution, Deployment, TxnMix};

const CONCURRENCIES: [u32; 4] = [16, 64, 128, 200];

fn main() {
    println!("=== Commit path: group commit vs per-commit flushes (aws-rds) ===");
    println!(
        "(sim_scale {SIM_SCALE}, {}s windows, seed {SEED}, write-only mix; 1 RW + 1 RO)\n",
        MEASURE.as_secs()
    );
    let mut table = Table::new(
        "Committed TPS and metered IO cost by concurrency",
        &[
            "Clients",
            "per-commit TPS",
            "grouped TPS",
            "speedup",
            "per-commit IO $/h",
            "grouped IO $/h",
        ],
    );
    for con in CONCURRENCIES {
        let grouped_profile = SutProfile::aws_rds();
        let mut percommit_profile = SutProfile::aws_rds();
        percommit_profile.group_commit =
            GroupCommitConfig::per_commit(percommit_profile.group_commit.ack);
        let run = |profile| {
            let mut dep = Deployment::new(profile, 1, SIM_SCALE, 1, SEED);
            let (wo, uniform) = (TxnMix::write_only(), AccessDistribution::Uniform);
            oltp_cell(&mut dep, con, MEASURE, wo, uniform, &base_options())
        };
        let per = run(percommit_profile);
        let grp = run(grouped_profile);
        table.row(&[
            con.to_string(),
            fnum(per.avg_tps),
            fnum(grp.avg_tps),
            format!("{:.2}x", grp.avg_tps / per.avg_tps),
            format!("{:.4}", per.cost_per_min.iops * 60.0),
            format!("{:.4}", grp.cost_per_min.iops * 60.0),
        ]);
    }
    println!("{table}");
}
