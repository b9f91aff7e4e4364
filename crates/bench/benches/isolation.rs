//! Isolation-level ablation: the T1–T4 mix at READ COMMITTED, SNAPSHOT,
//! and SERIALIZABLE across client counts, on the hot `latest` distribution
//! where the levels actually diverge.
//!
//! At RC, writers *block* behind conflicting row locks (virtual-time 2PL
//! waits). At SI the same conflict is a first-committer-wins abort: the
//! attempt retries once the winner's commit instant passes, and readers
//! never touch the lock table at all. SER adds read validation on T3's
//! order-status check, converting read-write overlap into aborts too.

use cb_bench::{base_options, standard_deployment};
use cb_engine::IsolationLevel;
use cb_sim::SimDuration;
use cb_sut::SutProfile;
use cloudybench::report::{fnum, Table};
use cloudybench::{oltp_cell, AccessDistribution, RunOptions, TxnMix};

const MEASURE: SimDuration = SimDuration::from_secs(10);

fn main() {
    println!("=== Isolation ablation: T1-T4 on aws-rds, latest(64) hot set ===\n");
    let mut t = Table::new(
        "Isolation x clients (TPS, p99 ms, 2PL waits, FCW aborts)",
        &[
            "Isolation",
            "Clients",
            "TPS",
            "p99 (ms)",
            "Lock waits",
            "SI aborts",
        ],
    );
    let profile = SutProfile::aws_rds();
    for iso in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::Snapshot,
        IsolationLevel::Serializable,
    ] {
        for clients in [8u32, 32, 96] {
            let mut dep = standard_deployment(&profile, 1);
            let opts = RunOptions {
                isolation: Some(iso),
                ..base_options()
            };
            let (rw, hot) = (TxnMix::read_write(), AccessDistribution::Latest(64));
            let cell = oltp_cell(&mut dep, clients, MEASURE, rw, hot, &opts);
            let r = &cell.run;
            let p99_ms = r.tenants[0].latency_hist.percentile(99.0) as f64 / 1e6;
            t.row(&[
                iso.as_str().to_uppercase(),
                clients.to_string(),
                fnum(cell.avg_tps),
                format!("{p99_ms:.2}"),
                r.lock_conflicts.to_string(),
                r.si_aborts.to_string(),
            ]);
        }
    }
    println!("{t}");
}
