//! Ablations for the design choices the paper's takeaways call out
//! (Section III-J). Each ablation modifies exactly one mechanism of a SUT
//! profile and reruns the relevant evaluator:
//!
//! 1. *"If scaling down of CDB1 is improved with on-demand scaling, it
//!    would be the clear winner."* — CDB1 with gradual vs on-demand
//!    scale-down, elasticity E1.
//! 2. *"If the buffer size could be tuned for CDB2 …, they could achieve
//!    higher performance."* — CDB2 at 44 MB vs 1 GB vs 4 GB buffers.
//! 3. *"Implementing auto-scaling in CDB4 has also a large potential to
//!    achieve the best elasticity."* — CDB4 fixed vs autoscaled.
//! 4. Memory disaggregation itself: CDB4 with and without its remote
//!    buffer pool (throughput + fail-over).

use cb_bench::{base_options, MEASURE, SEED, SIM_SCALE};
use cb_cluster::ScalingKind;
use cb_sut::SutProfile;
use cloudybench::elasticity::{evaluate_elasticity, ElasticPattern};
use cloudybench::failover_eval::evaluate_failover;
use cloudybench::report::{fmoney, fnum, Table};
use cloudybench::{oltp_cell, AccessDistribution, Deployment, TxnMix};

const MB: u64 = 1024 * 1024;
const GB: u64 = 1024 * 1024 * 1024;

fn main() {
    println!("=== Ablations: the paper's takeaway what-ifs ===\n");
    ablation_cdb1_scale_down();
    ablation_cdb2_buffer();
    ablation_cdb4_autoscaling();
    ablation_cdb4_remote_pool();
}

fn ablation_cdb1_scale_down() {
    let mut t = Table::new(
        "Ablation 1 — CDB1 scale-down policy (Zero Valley, RW)",
        &["Variant", "Avg TPS", "10-min cost", "E1-Score"],
    );
    let base = SutProfile::cdb1();
    let mut improved = SutProfile::cdb1();
    improved.scaling = ScalingKind::OnDemand;
    for (label, profile) in [
        ("gradual down (shipped)", base),
        ("on-demand down (what-if)", improved),
    ] {
        let r = evaluate_elasticity(
            &profile,
            ElasticPattern::ZeroValley,
            TxnMix::read_write(),
            110,
            SIM_SCALE,
            &base_options(),
        );
        t.row(&[
            label.into(),
            fnum(r.avg_tps),
            fmoney(r.cost.total()),
            fnum(r.e1),
        ]);
    }
    println!("{t}");
}

fn ablation_cdb2_buffer() {
    let mut t = Table::new(
        "Ablation 2 — CDB2 buffer size (RW, SF100, con=100)",
        &["Buffer", "Avg TPS", "Cost$/min"],
    );
    for (label, bytes) in [("44MB (shipped)", 44 * MB), ("1GB", GB), ("4GB", 4 * GB)] {
        let mut profile = SutProfile::cdb2();
        profile.local_buffer_bytes = bytes;
        profile.local_mem_gb = 20.0 + (bytes as f64 / GB as f64);
        let mut dep = Deployment::new(profile, 100, SIM_SCALE, 1, SEED);
        let (rw, uniform) = (TxnMix::read_write(), AccessDistribution::Uniform);
        let cell = oltp_cell(&mut dep, 100, MEASURE, rw, uniform, &base_options());
        t.row(&[
            label.into(),
            fnum(cell.avg_tps),
            fmoney(cell.cost_per_min.total()),
        ]);
    }
    println!("{t}");
}

fn ablation_cdb4_autoscaling() {
    let mut t = Table::new(
        "Ablation 3 — CDB4 autoscaling (Single Peak, RW)",
        &["Variant", "Avg TPS", "10-min cost", "E1-Score"],
    );
    let base = SutProfile::cdb4();
    let mut scaled = SutProfile::cdb4();
    scaled.min_vcores = 1.0;
    // Memory disaggregation makes compute nearly stateless, so the what-if
    // scaler can be the fast on-demand one rather than CU quanta.
    scaled.scaling = ScalingKind::OnDemand;
    for (label, profile) in [("fixed (shipped)", base), ("autoscaled (what-if)", scaled)] {
        let r = evaluate_elasticity(
            &profile,
            ElasticPattern::LargeSpike,
            TxnMix::read_write(),
            110,
            SIM_SCALE,
            &base_options(),
        );
        t.row(&[
            label.into(),
            fnum(r.avg_tps),
            fmoney(r.cost.total()),
            fnum(r.e1),
        ]);
    }
    println!("{t}");
}

fn ablation_cdb4_remote_pool() {
    let mut t = Table::new(
        "Ablation 4 — CDB4 remote buffer pool (RO, SF100, con=100 + fail-over)",
        &["Variant", "Avg TPS", "F(RW)", "R(RW)"],
    );
    let base = SutProfile::cdb4();
    let mut without = SutProfile::cdb4();
    without.remote_buffer_bytes = None;
    without.local_buffer_bytes = 512 * MB; // small local cache, no remote tier
                                           // Without the remote pool, fail-over cannot switch over through shared
                                           // memory: it degrades to replay-from-storage.
    without.failover.kind = cb_cluster::RecoveryKind::ReplayFromStorage {
        base: cb_sim::SimDuration::from_millis(800),
        hops: 1,
        per_hop: cb_sim::SimDuration::from_millis(200),
        undo_per_record: cb_sim::SimDuration::from_micros(100),
    };
    without.failover.warmup = cb_sim::SimDuration::from_secs(12);
    without.failover.detection = cb_sim::SimDuration::from_secs(2); // no shared-memory heartbeats
    for (label, profile) in [
        ("memory disaggregation (shipped)", base),
        ("no remote pool (what-if)", without),
    ] {
        let mut dep = Deployment::new(profile.clone(), 100, SIM_SCALE, 1, SEED);
        let (ro, uniform) = (TxnMix::read_only(), AccessDistribution::Uniform);
        let cell = oltp_cell(&mut dep, 100, MEASURE, ro, uniform, &base_options());
        let fo = evaluate_failover(&profile, 100, SIM_SCALE, &base_options());
        t.row(&[
            label.into(),
            fnum(cell.avg_tps),
            format!("{:.1}s", fo.rw.f_secs),
            format!("{:.1}s", fo.rw.r_secs),
        ]);
    }
    println!("{t}");
}
