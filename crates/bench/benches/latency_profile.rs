//! Extension experiment (no direct paper analogue): per-transaction latency
//! percentiles for each system and mix. The paper reports throughput;
//! latency distributions expose *why* — CDB2's storage path stretches its
//! tail, memory disaggregation keeps CDB4's p99 tight, and the `latest`
//! skew adds lock-wait outliers.
//!
//! Percentiles come from the exact log-bucketed histogram in `cb-obs`
//! (≤1% relative error), not a sampled reservoir.

use cb_bench::{base_options, standard_deployment, MEASURE};
use cb_sut::SutProfile;
use cloudybench::report::Table;
use cloudybench::{oltp_cell, AccessDistribution, TxnMix};

fn main() {
    println!("=== Latency profile (extension): percentiles by system and mix ===\n");
    let mut table = Table::new(
        "Latency percentiles, ms (SF10, con=100)",
        &["System", "Mix", "Dist", "p50", "p95", "p99", "max"],
    );
    for profile in SutProfile::all() {
        let mut dep = standard_deployment(&profile, 10);
        for (label, mix, dist) in [
            ("RO", TxnMix::read_only(), AccessDistribution::Uniform),
            ("RW", TxnMix::read_write(), AccessDistribution::Uniform),
            (
                "RW hot",
                TxnMix::read_write(),
                AccessDistribution::Latest(10),
            ),
        ] {
            let r = oltp_cell(&mut dep, 100, MEASURE, mix, dist, &base_options()).run;
            let t = &r.tenants[0];
            table.row(&[
                profile.display.to_string(),
                label.to_string(),
                match dist {
                    AccessDistribution::Uniform => "uniform".to_string(),
                    AccessDistribution::Latest(n) => format!("latest-{n}"),
                    AccessDistribution::Zipfian(pm) => format!("zipfian-0.{pm:03}"),
                },
                format!("{:.2}", t.latency_percentile_ms(50.0)),
                format!("{:.2}", t.latency_percentile_ms(95.0)),
                format!("{:.2}", t.latency_percentile_ms(99.0)),
                format!("{:.2}", t.latency_max.as_millis_f64()),
            ]);
        }
    }
    println!("{table}");
}
