//! Table VIII — F-Score and R-Score of the five cloud databases under RW
//! and RO node failure (restart model, constant read-write workload at
//! concurrency 150).
//!
//! Paper shapes: AWS RDS slowest overall (ARIES redo/undo + dirty-page
//! flushing recovery); CDB1/CDB2/CDB3 in the middle (log-replay recovery,
//! with CDB2/CDB3 paying their longer storage routes in R); CDB4 fastest by
//! far (remote-buffer switch-over: ~3 s + ~4 s).

use cb_bench::{SEED, SIM_SCALE};
use cb_sut::SutProfile;
use cloudybench::failover_eval::evaluate_failover;
use cloudybench::report::{fsecs, Table};
use cloudybench::RunOptions;

fn main() {
    let base = RunOptions {
        seed: SEED,
        ..RunOptions::default()
    };
    println!("=== Table VIII: fail-over evaluation (con = 150) ===\n");
    let mut table = Table::new(
        "Table VIII — F-Score and R-Score",
        &[
            "System", "F(RW)", "F(RO)", "F(AVG)", "R(RW)", "R(RO)", "R(AVG)", "Total",
        ],
    );
    for profile in SutProfile::all() {
        let r = evaluate_failover(&profile, 150, SIM_SCALE, &base);
        table.row(&[
            profile.display.to_string(),
            fsecs(r.rw.f_secs),
            fsecs(r.ro.f_secs),
            fsecs(r.f_avg()),
            fsecs(r.rw.r_secs),
            fsecs(r.ro.r_secs),
            fsecs(r.r_avg()),
            fsecs(r.total_secs()),
        ]);
    }
    println!("{table}");
}
