//! Recovery-time ablation: what does checkpoint-partitioned parallel
//! replay buy each system during fail-over?
//!
//! Each profile is evaluated twice with the restart model: once with its
//! stock replay policy (CDB3 fans the log over 8 pageserver lanes) and
//! once with replay forced down to a single sequential lane. The delta is
//! the paper's R-score story for parallel replay — the record-proportional
//! redo/undo phases of crash recovery shrink by the lane count, while
//! detection, analysis, and switchover overheads stay fixed.
//!
//! ```text
//! cargo run --release --example recovery_lanes
//! ```

use cb_cluster::ReplayPolicy;
use cb_sut::SutProfile;
use cloudybench::failover_eval::evaluate_failover;
use cloudybench::report::{fsecs, Table};
use cloudybench::RunOptions;

/// The same profile with replay collapsed to one lane (costs unchanged).
fn single_lane(profile: &SutProfile) -> SutProfile {
    let mut p = profile.clone();
    if let ReplayPolicy::Parallel {
        per_record,
        batch_interval,
        ..
    } = p.failover.replay
    {
        p.failover.replay = ReplayPolicy::Sequential {
            per_record,
            batch_interval,
        };
    }
    p
}

fn main() {
    let base = RunOptions {
        seed: 7,
        ..RunOptions::default()
    };
    println!("RW-node failure, con = 100: sequential vs stock replay lanes\n");
    let mut t = Table::new(
        "Recovery time by replay parallelism",
        &[
            "System",
            "Lanes",
            "F seq",
            "F stock",
            "R stock",
            "F+R seq",
            "F+R stock",
        ],
    );
    for profile in SutProfile::all() {
        let lanes = profile.failover.replay.lanes();
        let stock = evaluate_failover(&profile, 100, 200, &base);
        let seq = evaluate_failover(&single_lane(&profile), 100, 200, &base);
        t.row(&[
            profile.display.to_string(),
            lanes.to_string(),
            fsecs(seq.rw.f_secs),
            fsecs(stock.rw.f_secs),
            fsecs(stock.rw.r_secs),
            fsecs(seq.rw.f_secs + seq.rw.r_secs),
            fsecs(stock.rw.f_secs + stock.rw.r_secs),
        ]);
    }
    println!("{t}");
    println!("only CDB3 ships a multi-lane replayer, so it is the only row");
    println!("where the stock column beats the sequential ablation: the");
    println!("recovering pageserver runs the same checkpoint-partitioned");
    println!("replay as its read replicas.");
}
