//! Figure 7 — Timeline of CDB4's fail-over process: the prepare /
//! switch-over / recovering phases of the remote-buffer-pool switch-over.
//!
//! Paper shape: ~1 s to notify nodes and collect LSNs, ~2 s to promote the
//! RO node, ~3 s to rebuild active transactions from the undo logs; the
//! cluster serves requests again right after the switch-over.

use cb_bench::{SEED, SIM_SCALE};
use cb_sut::SutProfile;
use cloudybench::failover_eval::evaluate_failover;
use cloudybench::report::Table;
use cloudybench::RunOptions;

fn main() {
    let base = RunOptions {
        seed: SEED,
        ..RunOptions::default()
    };
    println!("=== Figure 7: CDB4 fail-over timeline ===\n");
    let r = evaluate_failover(&SutProfile::cdb4(), 150, SIM_SCALE, &base);
    let mut table = Table::new(
        "Figure 7 — phases of the RW fail-over",
        &["Phase", "Start (s)", "End (s)", "Duration (s)"],
    );
    let t0 = r.rw.timeline.injected_at;
    for p in &r.rw.timeline.phases {
        table.row(&[
            p.name.to_string(),
            format!("{:.1}", p.start.saturating_since(t0).as_secs_f64()),
            format!("{:.1}", p.end.saturating_since(t0).as_secs_f64()),
            format!("{:.1}", p.duration().as_secs_f64()),
        ]);
    }
    println!("{table}");
    println!(
        "service resumed {:.1}s after injection; TPS recovered {:.1}s later (pre-failure TPS {:.0})\n",
        r.rw.f_secs, r.rw.r_secs, r.rw.pre_tps
    );
    // The per-second TPS trace around the failure, for plotting.
    println!("## TPS trace (seconds 40..65, failure injected at t=45)");
    for (i, tps) in r.rw.tps_series.iter().enumerate().take(65).skip(40) {
        println!("t={i:>3}s  tps={tps:.0}");
    }
}
