//! Table VI — time interval and scaling cost during autoscaling, per slot
//! transition of each elasticity pattern, for the three serverless systems
//! (CDB1, CDB2, CDB3).
//!
//! Paper shapes: CDB1 scales up in ~15 s but takes minutes to release
//! capacity (gradual down, expensive); CDB2 reacts within ~30 s in both
//! directions; CDB3 moves in ~60 s quanta, pauses to zero, but misses the
//! short Single Valley / Zero Valley dips (down-confirmation).

use cb_bench::{SEED, SIM_SCALE};
use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;
use cloudybench::elasticity::{evaluate_elasticity, ElasticPattern, BILLING_WINDOW};
use cloudybench::report::{fmoney, Table};
use cloudybench::RunOptions;
use cloudybench::TxnMix;

const TAU: u32 = 110;

fn base() -> RunOptions {
    RunOptions {
        seed: SEED,
        ..RunOptions::default()
    }
}

fn main() {
    println!("=== Table VI: scaling time and cost during autoscaling ===\n");
    let suts = [SutProfile::cdb1(), SutProfile::cdb2(), SutProfile::cdb3()];
    for pattern in ElasticPattern::all() {
        let mut table = Table::new(
            &format!("Table VI — {} (tau = {TAU})", pattern.label()),
            &[
                "System",
                "Slot",
                "Con change",
                "Scaling time",
                "Scaling cost",
            ],
        );
        for profile in &suts {
            let r = evaluate_elasticity(
                profile,
                pattern,
                TxnMix::read_write(),
                TAU,
                SIM_SCALE,
                &base(),
            );
            for s in r.scalings.iter().take(4) {
                table.row(&[
                    profile.display.to_string(),
                    format!("{}", s.slot),
                    format!("{} -> {}", s.from_con, s.to_con),
                    match s.settle {
                        Some(d) => format!("{:.0}s", d.as_secs_f64()),
                        None => "-".to_string(),
                    },
                    fmoney(s.scaling_cost),
                ]);
            }
        }
        println!("{table}");
    }
    drain_table(&suts);
}

/// The paper's headline scale-down story: CDB1 takes ~8 minutes to release
/// its capacity after the Single Peak ends, while CDB2/CDB3 release within
/// a minute (and CDB3 pauses to zero).
fn drain_table(suts: &[SutProfile; 3]) {
    let mut table = Table::new(
        "Table VI (supplement) — time to release capacity after the Single Peak",
        &[
            "System",
            "Allocation 1 min after peak",
            "Back at minimum after",
            "Final vCores",
        ],
    );
    for profile in suts {
        let r = evaluate_elasticity(
            profile,
            ElasticPattern::SinglePeak,
            TxnMix::read_write(),
            TAU,
            SIM_SCALE,
            &base(),
        );
        let peak_end = SimTime::from_secs(120);
        let after_1m = r.vcores.value_at(peak_end + SimDuration::from_secs(60));
        let end = SimTime::ZERO + BILLING_WINDOW;
        let final_v = r.vcores.value_at(end);
        // First instant after the peak at which the allocation is <= min.
        let drained = r
            .vcores
            .points()
            .iter()
            .find(|(t, v)| *t > peak_end && *v <= profile.min_vcores)
            .map(|(t, _)| t.saturating_since(peak_end));
        table.row(&[
            profile.display.to_string(),
            format!("{after_1m:.2} vCores"),
            drained.map_or("not within window".into(), |d| {
                format!("{:.0}s", d.as_secs_f64())
            }),
            format!("{final_v:.2}"),
        ]);
    }
    println!("{table}");
}
