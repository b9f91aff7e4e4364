//! Section III-F — replication lag time between the RW and RO node for the
//! four insert/update/delete ratios.
//!
//! Paper shapes: CDB4 ~1.5 ms (RDMA ship + on-demand replay); CDB3 ~14 ms
//! (parallel replay); AWS RDS small (coupled storage); CDB1 an order of
//! magnitude higher (sequential replay); CDB2 two orders (longest path
//! through the separated log and page services). Deletes are cheapest
//! (logical deletion).

use cb_bench::{SEED, SIM_SCALE};
use cb_sut::SutProfile;
use cloudybench::lagtime::evaluate_lagtime;
use cloudybench::report::{fnum, Table};
use cloudybench::RunOptions;

fn main() {
    let base = RunOptions {
        seed: SEED,
        ..RunOptions::default()
    };
    println!("=== Section III-F: replication lag time (1 RO replica) ===\n");
    let mut table = Table::new(
        "Replication lag (ms) by IUD ratio",
        &["System", "Mix", "Insert", "Update", "Delete", "Samples"],
    );
    let mut scores = Table::new("C-Score (ms)", &["System", "C-Score"]);
    for profile in SutProfile::all() {
        let r = evaluate_lagtime(&profile, 50, 1, SIM_SCALE, &base);
        for row in &r.rows {
            table.row(&[
                profile.display.to_string(),
                row.label.to_string(),
                fnum(row.insert_ms),
                fnum(row.update_ms),
                fnum(row.delete_ms),
                format!("{}", row.samples),
            ]);
        }
        scores.row(&[profile.display.to_string(), fnum(r.c_score_ms)]);
    }
    println!("{table}");
    println!("{scores}");
}
