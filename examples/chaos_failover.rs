//! Chaos drill: kill the primary of each system mid-workload (the paper's
//! restart model) and watch how long the service is gone and how long the
//! throughput takes to come back.
//!
//! ```text
//! cargo run --release --example chaos_failover
//! ```

use cb_sut::SutProfile;
use cloudybench::failover_eval::evaluate_failover;
use cloudybench::report::{fsecs, Table};
use cloudybench::RunOptions;

fn main() {
    let base = RunOptions {
        seed: 7,
        ..RunOptions::default()
    };
    println!("injecting an RW-node failure into all five systems (con = 100)\n");
    let mut t = Table::new(
        "Chaos fail-over drill",
        &[
            "System",
            "Recovery route",
            "Service down (F)",
            "TPS recovery (R)",
            "Phases",
        ],
    );
    for profile in SutProfile::all() {
        let r = evaluate_failover(&profile, 100, 200, &base);
        let phases: Vec<String> =
            r.rw.timeline
                .phases
                .iter()
                .map(|p| format!("{} {:.1}s", p.name, p.duration().as_secs_f64()))
                .collect();
        let route = format!("{:?}", profile.arch);
        t.row(&[
            profile.display.to_string(),
            route,
            fsecs(r.rw.f_secs),
            fsecs(r.rw.r_secs),
            phases.join(", "),
        ]);
    }
    println!("{t}");
    println!("memory disaggregation (CDB4) switches over through its remote");
    println!("buffer pool in seconds; ARIES (AWS RDS) replays the log tail.");
}
