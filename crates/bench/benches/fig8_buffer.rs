//! Figure 8 — performance evaluation when varying the buffer size from
//! 128 MB to 10 GB on AWS RDS, CDB1, and CDB4 (read-write pattern).
//!
//! The paper runs SF1; under the simulation scale divisor SF1's working
//! set fits even the smallest buffer, so we run SF100 — which preserves
//! the paper's buffer-to-working-set ratios (the quantity that drives the
//! figure) while keeping the same 128 MB → 10 GB x-axis.
//!
//! Paper shapes: buffer size dominates — with a 10 GB buffer CDB1's TPS
//! more than doubles and it overtakes CDB4 on P-Score (same TPS ballpark at
//! ~1/3 the network cost); AWS RDS keeps a modest edge over CDB1 on average
//! TPS thanks to its local NVMe commit path.

use cb_bench::{base_options, MEASURE, SEED, SIM_SCALE};
use cb_sut::SutProfile;
use cloudybench::metrics::p_score;
use cloudybench::report::{fmoney, fnum, Table};
use cloudybench::{oltp_cell, AccessDistribution, Deployment, TxnMix};

const MB: u64 = 1024 * 1024;
const GB: u64 = 1024 * 1024 * 1024;
const BUFFERS: [(u64, &str); 4] = [
    (128 * MB, "128MB"),
    (GB, "1GB"),
    (4 * GB, "4GB"),
    (10 * GB, "10GB"),
];
const CONS: [u32; 4] = [50, 100, 150, 200];

fn main() {
    println!("=== Figure 8: varying the buffer size (RW pattern, SF100) ===\n");
    let mut table = Table::new(
        "Figure 8 — TPS / cost / P-Score by buffer size",
        &["System", "Buffer", "Avg TPS", "Cost$/min", "P-Score"],
    );
    let (rw, uniform, opts) = (
        TxnMix::read_write(),
        AccessDistribution::Uniform,
        base_options(),
    );
    for base in [
        SutProfile::aws_rds(),
        SutProfile::cdb1(),
        SutProfile::cdb4(),
    ] {
        for (bytes, label) in BUFFERS {
            let mut profile = base.clone();
            profile.local_buffer_bytes = bytes;
            // Larger buffers mean more billed memory (beyond the base RAM).
            let extra_gb = (bytes as f64 / GB as f64 - 0.125).max(0.0);
            profile.local_mem_gb = base.local_mem_gb + extra_gb;
            let mut dep = Deployment::new(profile.clone(), 100, SIM_SCALE, 1, SEED);
            let mut tps_sum = 0.0;
            let mut cost = None;
            for con in CONS {
                let cell = oltp_cell(&mut dep, con, MEASURE, rw, uniform, &opts);
                tps_sum += cell.avg_tps;
                cost = Some(cell.cost_per_min);
            }
            let avg_tps = tps_sum / CONS.len() as f64;
            let c = cost.expect("cells ran");
            table.row(&[
                profile.display.to_string(),
                label.to_string(),
                fnum(avg_tps),
                fmoney(c.total()),
                fnum(p_score(avg_tps, &c)),
            ]);
        }
    }
    println!("{table}");
}
