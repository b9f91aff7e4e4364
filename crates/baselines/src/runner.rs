//! A compact closed-loop runner for baseline benchmarks.
//!
//! Fig 9 of the paper compares the *resource scaling* a benchmark induces:
//! CloudyBench's peak/valley patterns vs the flat load of SysBench and
//! TPC-C. The baselines only need a constant-concurrency closed loop over a
//! single autoscaled node — this runner provides exactly that, built from
//! the same primitives (CPU reservation, I/O cost, scaling policy sampling)
//! as the main driver.

use cb_cluster::{Node, NodeId, NodeRole, ScaleSample, ScalingPolicy};
use cb_engine::{Database, ExecCtx};
use cb_sim::{CpuResource, DetRng, GaugeSeries, SimDuration, SimTime, TpsRecorder};
use cb_store::StorageService;
use cb_sut::SutProfile;

/// Client-side round trip per statement (matches the main driver).
const CLIENT_RTT: SimDuration = SimDuration::from_micros(1200);

/// A baseline workload: schema + data + one transaction.
pub trait Workload {
    /// Create tables and load data (sim-scaled).
    fn setup(&mut self, db: &mut Database, sim_scale: u64, rng: &mut DetRng);
    /// Execute one transaction logically, charging `ctx`.
    fn transaction(&mut self, db: &mut Database, ctx: &mut ExecCtx<'_>, rng: &mut DetRng);
    /// Workload name.
    fn name(&self) -> &'static str;
}

/// The outcome of one baseline run.
pub struct BaselineRun {
    /// Allocated vCores over time (the Fig 9 series).
    pub vcores: GaugeSeries,
    /// Committed transactions per second.
    pub tps: TpsRecorder,
    /// Average TPS over the whole run.
    pub avg_tps: f64,
}

/// Run `workload` at constant `threads` for `duration` on one autoscaled
/// node of `profile`.
pub fn run_constant(
    profile: &SutProfile,
    workload: &mut dyn Workload,
    threads: u32,
    duration: SimDuration,
    sim_scale: u64,
    seed: u64,
) -> BaselineRun {
    assert!(threads > 0);
    let mut rng = DetRng::seeded(seed);
    let mut db = Database::new();
    workload.setup(&mut db, sim_scale, &mut rng);
    let mut storage: StorageService = profile.storage_service();
    let mut node = Node::new(
        NodeId(0),
        NodeRole::ReadWrite,
        profile.max_vcores,
        profile.buffer_pages(sim_scale),
    );
    let mut policy: Box<dyn ScalingPolicy> = profile.scaling_policy();
    if profile.serverless {
        node.set_vcores(SimTime::ZERO, profile.min_vcores);
    }
    let horizon = SimTime::ZERO + duration;
    let mut clients: Vec<SimTime> = vec![SimTime::ZERO; threads as usize];
    let mut client_rngs: Vec<DetRng> = (0..threads).map(|i| rng.fork(u64::from(i))).collect();
    let mut tps = TpsRecorder::with_horizon(SimDuration::from_secs(1), duration);

    // Autoscaler state.
    let mut next_sample = SimTime::ZERO + policy.sample_interval();
    let mut busy_snap = 0.0f64;
    let mut snap_time = SimTime::ZERO;
    let mut pending: Option<(SimTime, f64)> = None;

    loop {
        let (ci, t) = clients
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(i, t)| (*t, *i))
            .expect("at least one client");
        let next_ctrl = pending
            .map(|(at, _)| at)
            .unwrap_or(SimTime::MAX)
            .min(next_sample);
        if t >= horizon && next_ctrl >= horizon {
            break;
        }
        if next_ctrl <= t {
            let now = next_ctrl;
            if let Some((at, target)) = pending {
                if at <= now {
                    node.set_vcores(now, target);
                    pending = None;
                    continue;
                }
            }
            // Sample.
            let busy = node.cpu.busy_core_secs();
            let vcore_secs = node.vcore_gauge.integral(snap_time, now);
            let util = CpuResource::utilization(busy - busy_snap, vcore_secs);
            busy_snap = busy;
            snap_time = now;
            // One scaling operation in flight at a time: a new decision
            // must not clobber one that has not applied yet.
            if pending.is_none() {
                if let Some(d) = policy.decide(ScaleSample {
                    now,
                    util,
                    current: node.cpu.vcores(),
                    offered_load: true,
                }) {
                    pending = Some((d.effective_at, d.target_vcores));
                }
            }
            next_sample = now + policy.sample_interval();
            continue;
        }
        // Client transaction.
        if node.cpu.is_paused() {
            node.resume(t, profile.min_vcores.max(0.25), policy.resume_delay());
            clients[ci] = t + policy.resume_delay();
            continue;
        }
        if let Some(at) = node.available_at(t) {
            if at > t {
                clients[ci] = at;
                continue;
            }
        }
        let mut ctx = ExecCtx::new(t, &mut node.pool, None, &mut storage, &profile.cost_model);
        workload.transaction(&mut db, &mut ctx, &mut client_rngs[ci]);
        let cpu = ctx.cpu;
        let io = ctx.io;
        let stmts = ctx.stats.statements;
        let slot = node.cpu.reserve(t, cpu);
        let end = slot.end + io + CLIENT_RTT * stmts.max(1);
        if end <= horizon {
            tps.record(end);
        }
        clients[ci] = end;
    }
    let avg_tps = tps.avg_rate(SimTime::ZERO, horizon);
    BaselineRun {
        vcores: node.vcore_gauge.clone(),
        tps,
        avg_tps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_engine::{ColumnDef, DataType, Row, Schema, Value};
    use cb_store::TableId;

    struct Trivial {
        table: Option<TableId>,
    }

    impl Workload for Trivial {
        fn setup(&mut self, db: &mut Database, _sim_scale: u64, _rng: &mut DetRng) {
            let t = db.create_table(
                "t",
                Schema::new(vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("V", DataType::Int),
                ]),
            );
            db.load_bulk(
                t,
                (1..=1000).map(|i| Row::new(vec![Value::Int(i), Value::Int(i)])),
            );
            self.table = Some(t);
        }
        fn transaction(&mut self, db: &mut Database, ctx: &mut ExecCtx<'_>, rng: &mut DetRng) {
            let t = self.table.expect("setup ran");
            let key = rng.range_inclusive(1, 1000);
            let txn = db.begin();
            let _ = db.get(ctx, t, key);
            let mut txn = txn;
            db.update(ctx, &mut txn, t, key, |r| {
                r.values[1] = Value::Int(r.values[1].expect_int() + 1);
            })
            .unwrap();
            db.commit(ctx, txn);
        }
        fn name(&self) -> &'static str {
            "trivial"
        }
    }

    #[test]
    fn constant_run_produces_throughput() {
        let r = run_constant(
            &SutProfile::aws_rds(),
            &mut Trivial { table: None },
            8,
            SimDuration::from_secs(5),
            1000,
            7,
        );
        assert!(r.avg_tps > 100.0, "tps = {}", r.avg_tps);
        assert_eq!(r.vcores.value_at(SimTime::ZERO), 4.0);
    }

    #[test]
    fn serverless_baseline_scales_but_stays_flat_ish() {
        // A constant workload on CDB3 should settle at some allocation and
        // stay there — the paper's point about SysBench/TPC-C being poor
        // elasticity probes.
        let r = run_constant(
            &SutProfile::cdb3(),
            &mut Trivial { table: None },
            6,
            SimDuration::from_secs(360),
            1000,
            7,
        );
        assert!(r.avg_tps > 0.0);
        let g = &r.vcores;
        // After an initial ramp the allocation stops moving much: compare
        // min/max over the second half.
        let lo = g.min_in(SimTime::from_secs(180), SimTime::from_secs(360));
        let hi = g.max_in(SimTime::from_secs(180), SimTime::from_secs(360));
        // The paper's own Fig 9 shows ~1 vCore of hunting on constant
        // loads (CDB3 swings 1-2 vCores under TPC-C); allow that much.
        assert!(hi - lo <= 1.5, "flat-ish expected: {lo}..{hi}");
    }
}
