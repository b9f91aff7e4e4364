//! Figure 6 — Elasticity evaluation: average TPS, total cost (execution +
//! scaling) over a ten-minute billing window, and E1-Score, for the four
//! peak/valley patterns and the three transaction modes.
//!
//! Paper shapes: fixed tiers (CDB4, AWS RDS) post the highest raw TPS but
//! 9–12× the cost of CDB3; CDB3's on-demand scaling + pause/resume wins E1,
//! followed by CDB2; CDB1's gradual scale-down makes it the E1 loser.

use cb_bench::{SEED, SIM_SCALE};
use cb_sut::SutProfile;
use cloudybench::elasticity::{evaluate_elasticity, ElasticPattern};
use cloudybench::report::{fmoney, fnum, Table};
use cloudybench::RunOptions;
use cloudybench::TxnMix;

const TAU: u32 = 110;

fn main() {
    let base = RunOptions {
        seed: SEED,
        ..RunOptions::default()
    };
    println!("=== Figure 6: elasticity evaluation (tau = {TAU}) ===");
    println!("(sim_scale {SIM_SCALE}, one-minute slots, ten-minute billing window)\n");
    let mixes = [
        ("RO", TxnMix::read_only()),
        ("RW", TxnMix::read_write()),
        ("WO", TxnMix::write_only()),
    ];
    for (mode, mix) in mixes {
        let mut table = Table::new(
            &format!("Figure 6 — {mode} mode"),
            &["System", "Pattern", "Avg TPS", "Total cost", "E1-Score"],
        );
        let mut e1_avg: Vec<(String, f64)> = Vec::new();
        for profile in SutProfile::all() {
            let mut sum = 0.0;
            for pattern in ElasticPattern::all() {
                let r = evaluate_elasticity(&profile, pattern, mix, TAU, SIM_SCALE, &base);
                table.row(&[
                    profile.display.to_string(),
                    pattern.label().to_string(),
                    fnum(r.avg_tps),
                    fmoney(r.cost.total()),
                    fnum(r.e1),
                ]);
                sum += r.e1;
            }
            e1_avg.push((profile.display.to_string(), sum / 4.0));
        }
        println!("{table}");
        let mut rank = Table::new(
            &format!("Figure 6 — {mode}: average E1-Score rank"),
            &["System", "E1 (avg over patterns)"],
        );
        e1_avg.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        for (name, e1) in e1_avg {
            rank.row(&[name, fnum(e1)]);
        }
        println!("{rank}");
    }
}
