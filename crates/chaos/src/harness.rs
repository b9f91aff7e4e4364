//! The chaos harness: one seeded run of randomized transactions with
//! injected faults, checked against four oracles.
//!
//! The harness drives an open-loop, *sequential* T1–T4 mix on a
//! [`Deployment`] (the closed-loop benchmark driver would hide the crash
//! points this harness needs to control). The transactions execute the
//! deployment's registered Table II statements (`STMT_DB_TOML`) and commit
//! through its group-commit pipeline, as the benchmark driver does. Every
//! transaction's effects are staged into a [`ShadowModel`] and applied only
//! at commit-ack.
//! In parallel it maintains the **archive** — the storage tier's durable
//! copy of the WAL, pulled at every acknowledgement, never truncated — so
//! that after a crash it can run both real recovery paths:
//!
//! * **replay-from-storage**: a copy of the snapshot captured before the
//!   first transaction + net-effect redo over the archive
//!   ([`cb_engine::recovery::redo_net_effects`]), the CDB1–3 route
//!   ("restore the backup, roll the archive forward"), and
//! * **in-place ARIES undo**: `undo_losers` over the crash epoch's
//!   log tail applied to the crashed image, the RDS/CDB4 route.
//!
//! Commit acknowledgements are *deferred*: a write commit enqueues into the
//! profile's group-commit pipeline and its shadow effects apply only when
//! the batch flush lands. A crash inside an open batch therefore splits the
//! pending commits on the durable head — records that reached storage are
//! promoted (recovery replays them), the rest legally vanish (no ack was
//! ever sent).
//!
//! Both recovered states must equal the shadow: every row of every table,
//! at every check, compared as borrowed page images against the model.
//! Divergences are classified by direction (durability / atomicity /
//! equivalence) in [`crate::ShadowDiff`].
//! Determinism — same seed, byte-identical cb-obs artifacts — is checked one
//! level up by the campaign runner, which runs every seed twice.

use std::collections::HashSet;

use cb_cluster::plan_failover;
use cb_engine::exec::RemoteTier;
use cb_engine::recovery::{analyze, redo_net_effects, undo_losers};
use cb_engine::sql::execute;
use cb_engine::{Database, EvictionPolicyKind, ExecCtx, IsolationLevel, Row, Value};
use cb_obs::{
    ascii_timeline, chrome_trace_json, histogram_csv, histogram_summary_json, Category, ObsSink,
};
use cb_sim::{DetRng, SimDuration, SimTime};
use cb_store::{decode_record, encode_segment_into, Lsn, TxnId, WalOp, WalRecord};
use cb_sut::SutProfile;
use cloudybench::Deployment;

use crate::schedule::{FaultKind, FaultSchedule};
use crate::shadow::{ShadowModel, ShadowOp};

/// How long fail-over detection takes after the primary's heartbeats stop:
/// four missed 250 ms beats.
const HEARTBEAT_DETECTION: SimDuration = SimDuration::from_millis(4 * 250);

/// A test-only bug a chaos run plants in its own recovery or read path;
/// the oracle each variant names must catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosBug {
    /// Skip the n-th committed DML record during the replay recovery path.
    /// The equivalence oracle must catch it.
    SkipRedo(usize),
    /// Acknowledge commits to the client the moment they enqueue, before
    /// the group-commit batch flushes. A crash inside an open batch then
    /// loses an acked commit — the durability oracle must catch it.
    AckUnflushed,
    /// Snapshot reads resolve to the tree's latest image instead of the
    /// version visible at `now` — i.e. they observe commits whose acks are
    /// still pending. The snapshot-consistency oracle must catch it.
    ReadFutureVersion,
    /// Snapshot *range scans* read the tree's latest images instead of
    /// resolving each key's chain at `now` — exactly the pre-fix behavior
    /// of `Database::scan_range` under SI/SER (get_at was point-only). The
    /// scan branch of the snapshot-consistency oracle must catch it.
    ScanFutureVersion,
}

/// Knobs for one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Workload transactions per seed.
    pub txns: u64,
    /// Simulation scale divisor for the dataset (larger = smaller data).
    pub sim_scale: u64,
    /// The test-only bug to plant, if any.
    pub bug: Option<ChaosBug>,
    /// Pace the workload with open-loop Poisson arrivals at this rate
    /// (transactions per second) instead of back-to-back execution. Each
    /// transaction waits for its scheduled arrival, so faults land in the
    /// gaps between transactions as well as inside them — the timing the
    /// closed back-to-back loop can never produce.
    pub arrival_rate: Option<f64>,
    /// Isolation level under test. At a versioned level every write commit
    /// publishes its pre-images to the version store, stamped with the
    /// group-commit ack instant, and the snapshot-consistency oracle checks
    /// every still-pending row after each transaction.
    pub isolation: IsolationLevel,
    /// Buffer-pool eviction policy under test. Non-default policies must
    /// leave every oracle green and the artifacts byte-identical across
    /// worker counts, exactly like the default.
    pub eviction: EvictionPolicyKind,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            txns: 60,
            sim_scale: 3000,
            bug: None,
            arrival_rate: None,
            isolation: IsolationLevel::ReadCommitted,
            eviction: EvictionPolicyKind::Lru,
        }
    }
}

impl ChaosOptions {
    /// The `cloudybench chaos` flags that set these options apart from a
    /// default run, each with a leading space: what a printed replay line
    /// must carry to re-run the same campaign cell. Empty for the defaults.
    fn replay_flags(&self) -> String {
        let defaults = ChaosOptions::default();
        let mut flags = String::new();
        if self.isolation != defaults.isolation {
            flags.push_str(&format!(" --isolation {}", self.isolation.as_str()));
        }
        if self.eviction != defaults.eviction {
            flags.push_str(&format!(" --eviction {}", self.eviction.label()));
        }
        if self.txns != defaults.txns {
            flags.push_str(&format!(" --txns {}", self.txns));
        }
        if let Some(ChaosBug::SkipRedo(n)) = self.bug {
            flags.push_str(&format!(" --bug-skip-redo {n}"));
        }
        flags
    }
}

/// The four exported artifact strings of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifacts {
    /// Chrome trace JSON.
    pub trace: String,
    /// Histogram summary JSON.
    pub hist_json: String,
    /// Histogram CSV.
    pub hist_csv: String,
    /// ASCII timeline.
    pub timeline: String,
}

/// Statistics and artifacts of one clean (violation-free) run.
#[derive(Clone, Debug)]
pub struct SeedReport {
    /// The seed that was run.
    pub seed: u64,
    /// Profile name.
    pub profile: String,
    /// Committed workload transactions.
    pub committed: u64,
    /// Aborted workload transactions.
    pub aborted: u64,
    /// Crash-class faults injected.
    pub crashes: u64,
    /// All faults injected.
    pub faults: u64,
    /// Commits that were awaiting a group-commit ack at a crash but whose
    /// batch had already reached durable storage — promoted to committed.
    pub gc_promoted: u64,
    /// Commits that were awaiting a group-commit ack at a crash and whose
    /// batch was lost — legally vanished (never acknowledged).
    pub gc_dropped: u64,
    /// Exported artifacts.
    pub artifacts: Artifacts,
}

/// One oracle violation: everything needed to reproduce and report it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The seed.
    pub seed: u64,
    /// Profile name.
    pub profile: String,
    /// Which oracle fired ("durability", "atomicity",
    /// "recovery-equivalence", "replication-monotonicity",
    /// "autoscale-availability", "determinism").
    pub oracle: &'static str,
    /// Human-readable divergence detail.
    pub detail: String,
    /// The fault schedule that produced it.
    pub schedule: FaultSchedule,
    /// The non-default campaign flags of the run it was found in, each with
    /// a leading space (` --isolation si --txns 80`); empty for a default
    /// run. Boxed to keep `Result<_, Violation>` under clippy's 128-byte
    /// `result_large_err` line.
    pub replay_flags: Box<str>,
}

impl Violation {
    pub(crate) fn new(
        profile: &SutProfile,
        seed: u64,
        schedule: &FaultSchedule,
        opts: &ChaosOptions,
        oracle: &'static str,
        detail: String,
    ) -> Self {
        Violation {
            seed,
            profile: profile.name.to_string(),
            oracle,
            detail,
            schedule: schedule.clone(),
            replay_flags: opts.replay_flags().into(),
        }
    }

    /// The command line that re-runs this seed under the options the
    /// violation was found with.
    pub fn replay_command(&self) -> String {
        format!(
            "cloudybench chaos --profile {} --replay {}{}",
            self.profile, self.seed, self.replay_flags
        )
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ORACLE VIOLATION [{}] profile={} {}\n  detail: {}\n  replay: {}",
            self.oracle,
            self.profile,
            self.schedule,
            self.detail,
            self.replay_command()
        )
    }
}

/// Run one seed with its generated schedule.
pub fn run_seed(
    profile: &SutProfile,
    seed: u64,
    opts: &ChaosOptions,
) -> Result<SeedReport, Violation> {
    let schedule = FaultSchedule::generate(seed, opts.txns);
    run_with_schedule(profile, seed, &schedule, opts)
}

/// Run one seed under an explicit schedule (the shrinker's entry point).
pub fn run_with_schedule(
    profile: &SutProfile,
    seed: u64,
    schedule: &FaultSchedule,
    opts: &ChaosOptions,
) -> Result<SeedReport, Violation> {
    let mut h = Harness::new(profile, seed, schedule.clone(), opts.clone());
    h.run()
}

/// A commit that has enqueued into the group-commit pipeline but whose
/// batch has not yet flushed: the client is still waiting for the ack.
struct PendingCommit {
    /// Virtual time the batch flush completes and the ack is sent.
    ack_at: SimTime,
    /// LSN of the commit record.
    commit_lsn: Lsn,
    /// The transaction's shadow effects, applied only at ack.
    ops: Vec<ShadowOp>,
}

struct Harness {
    dep: Deployment,
    /// The database as loaded, captured before the first transaction: the
    /// backup every crash restores a copy of.
    base: Database,
    shadow: ShadowModel,
    /// The storage tier's durable WAL copy since birth; never truncated.
    archive: Vec<WalRecord>,
    /// Durable (acknowledged) log head.
    acked: Lsn,
    /// Reused wire-encoding scratch for crash-time tail encodes: one
    /// allocation per harness, not one per crash.
    wire_scratch: Vec<u8>,
    /// Commits enqueued but not yet acknowledged, FIFO by commit LSN.
    pending: std::collections::VecDeque<PendingCommit>,
    now: SimTime,
    /// Open-loop arrival pacing, when [`ChaosOptions::arrival_rate`] is set.
    /// Draws from its own seed stream so pacing on/off leaves the workload
    /// and fault RNG sequences untouched.
    arrivals: Option<cb_load::ArrivalGen>,
    wl_rng: DetRng,
    fault_rng: DetRng,
    obs: ObsSink,
    schedule: FaultSchedule,
    opts: ChaosOptions,
    seed: u64,
    max_txn: u64,
    committed: u64,
    aborted: u64,
    crashes: u64,
    faults: u64,
    promoted: u64,
    dropped: u64,
}

impl Harness {
    fn new(profile: &SutProfile, seed: u64, schedule: FaultSchedule, opts: ChaosOptions) -> Self {
        let mut dep = Deployment::new(profile.clone(), 1, opts.sim_scale, 1, seed);
        for node in &mut dep.nodes {
            node.pool.set_policy(opts.eviction);
        }
        if let Some(rp) = dep.remote_pool.as_mut() {
            rp.set_policy(opts.eviction);
        }
        let base = dep.db.clone();
        let shadow = ShadowModel::from_db(&dep.db);
        let mut root = DetRng::seeded(seed);
        let wl_rng = root.fork(0xB0B);
        let fault_rng = root.fork(0xFA117);
        // Always on: the determinism oracle compares the exported artifacts.
        let obs = ObsSink::enabled();
        // Tag the run with the policy under test so artifacts are
        // self-describing (and still byte-identical across worker counts).
        obs.instant(
            Category::BufferPool,
            &format!("policy:{}", opts.eviction.label()),
            0,
            SimTime::ZERO,
        );
        Harness {
            dep,
            base,
            shadow,
            archive: Vec::new(),
            acked: Lsn::ZERO,
            wire_scratch: Vec::new(),
            pending: std::collections::VecDeque::new(),
            now: SimTime::from_secs(1),
            arrivals: opts.arrival_rate.map(|rate| {
                cb_load::ArrivalGen::new(
                    cb_load::ArrivalProcess::poisson(rate),
                    seed ^ 0xC7A0_5F1E_B33F_D00D,
                )
            }),
            wl_rng,
            fault_rng,
            obs,
            schedule,
            opts,
            seed,
            max_txn: 0,
            committed: 0,
            aborted: 0,
            crashes: 0,
            faults: 0,
            promoted: 0,
            dropped: 0,
        }
    }

    fn violation(&self, oracle: &'static str, detail: String) -> Violation {
        Violation::new(
            &self.dep.profile,
            self.seed,
            &self.schedule,
            &self.opts,
            oracle,
            detail,
        )
    }

    /// Copy every record the log has appended since the last pull into the
    /// archive. Called at acknowledgement points only, so the archive never
    /// contains un-acked tail records.
    fn pull_archive(&mut self) {
        let last = self.archive.last().map(|r| r.lsn).unwrap_or(Lsn::ZERO);
        self.archive
            .extend(self.dep.db.log().records_after(last).cloned());
    }

    /// Like [`pull_archive`], but stop at `through`: the batch flush that
    /// covers a commit makes everything *up to* its LSN durable, while later
    /// records may still sit in an open batch.
    fn pull_archive_through(&mut self, through: Lsn) {
        let last = self.archive.last().map(|r| r.lsn).unwrap_or(Lsn::ZERO);
        for r in self.dep.db.log().records_after(last) {
            if r.lsn > through {
                break;
            }
            self.archive.push(r.clone());
        }
    }

    /// Deliver every group-commit ack that has matured by `upto`: the batch
    /// flush landed, so the archive catches up through the commit record,
    /// the durable head advances, and the client-visible shadow effects
    /// apply. FIFO order is exact — batch completions are monotonic and
    /// commit LSNs increase.
    fn drain_acks(&mut self, upto: SimTime) {
        while let Some(front) = self.pending.front() {
            if front.ack_at > upto {
                break;
            }
            let p = self.pending.pop_front().expect("front exists");
            self.pull_archive_through(p.commit_lsn);
            self.acked = self.acked.max(p.commit_lsn);
            for op in p.ops {
                self.shadow.apply(op);
            }
            self.obs.instant(Category::Wal, "chaos-ack", 0, p.ack_at);
        }
    }

    /// Force the open batch to flush: advance virtual time to the last
    /// pending ack and deliver everything. A checkpoint (which flushes the
    /// WAL) and the end of a run both imply this.
    fn flush_pending(&mut self) {
        if let Some(back) = self.pending.back() {
            self.now = self.now.max(back.ack_at);
        }
        self.drain_acks(self.now);
    }

    fn run(&mut self) -> Result<SeedReport, Violation> {
        let events = self.schedule.events.clone();
        let mut next_event = 0usize;
        for i in 0..self.opts.txns {
            while next_event < events.len() && events[next_event].at_txn == i {
                self.inject(&events[next_event].kind)?;
                next_event += 1;
            }
            self.exec_txn()?;
            self.maybe_checkpoint(i);
        }
        // Drain the last open batch: every enqueued commit acks before the
        // books close.
        self.flush_pending();
        // Final equivalence gate: with every transaction finished, the live
        // database must equal the shadow exactly.
        let diff = self.shadow.diff(&self.dep.db);
        if !diff.is_empty() {
            return Err(self.violation("recovery-equivalence", diff.summary()));
        }
        let artifacts = self
            .obs
            .with(|t| Artifacts {
                trace: chrome_trace_json(t),
                hist_json: histogram_summary_json(t),
                hist_csv: histogram_csv(t),
                timeline: ascii_timeline(t),
            })
            .expect("the chaos sink is always enabled");
        Ok(SeedReport {
            seed: self.seed,
            profile: self.dep.profile.name.to_string(),
            committed: self.committed,
            aborted: self.aborted,
            crashes: self.crashes,
            faults: self.faults,
            gc_promoted: self.promoted,
            gc_dropped: self.dropped,
            artifacts,
        })
    }

    /// Periodic checkpoint + log truncation for profiles that checkpoint,
    /// exercising the truncated-prefix recovery path.
    fn maybe_checkpoint(&mut self, i: u64) {
        if self.dep.profile.checkpoint_interval.is_none() || i == 0 || !i.is_multiple_of(25) {
            return;
        }
        // A checkpoint flushes the WAL, which closes the open commit batch.
        self.flush_pending();
        // With every ack delivered, no snapshot older than `now` is live:
        // prune version chains below the watermark.
        let pruned = self.dep.db.versions_mut().gc(self.now);
        if pruned > 0 {
            self.obs.add("chaos.mvcc.pruned", pruned);
        }
        let start = self.now;
        let (lsn, _pages, io) =
            self.dep
                .db
                .checkpoint(&mut self.dep.nodes[0].pool, &mut self.dep.storage, self.now);
        self.now += io.max(SimDuration::from_millis(1));
        self.pull_archive();
        self.acked = self.dep.db.log().head();
        // Truncate everything before the checkpoint record; the archive kept
        // its own copy.
        self.dep.db.log_mut().truncate_through(Lsn(lsn.0 - 1));
        self.obs
            .span(Category::Checkpoint, "checkpoint", 0, start, self.now);
    }

    /// One randomized T1–T4 transaction, mirrored into the shadow at ack.
    fn exec_txn(&mut self) -> Result<(), Violation> {
        // Open-loop pacing: wait for the transaction's scheduled arrival.
        // The arrival stream is anchored at the harness epoch (t = 1s), and
        // `max` keeps time monotonic when the workload runs behind it (a
        // transaction outlasting the next arrival gap).
        if let Some(gen) = &mut self.arrivals {
            if let Some(at) = gen.next_arrival() {
                self.now = self.now.max(SimTime::from_secs(1) + (at - SimTime::ZERO));
            }
        }
        // Deliver any group-commit acks that matured while earlier
        // transactions ran.
        self.drain_acks(self.now);
        let orders_hi = self.dep.shape.orders as i64;
        let t_orders = self.dep.tables.orders;
        let t_customer = self.dep.tables.customer;
        let t_orderline = self.dep.tables.orderline;
        let now = self.now;
        let kind = self.wl_rng.pick_weighted(&[45.0, 43.0, 10.0, 2.0]);
        let abort_roll = self.wl_rng.chance(0.06);
        let pre_enqueued = self.dep.group_commit.commits();
        let remote = self
            .dep
            .remote_pool
            .as_mut()
            .map(|pool| RemoteTier { pool });
        let mut ctx = ExecCtx::new(
            now,
            &mut self.dep.nodes[0].pool,
            remote,
            &mut self.dep.storage,
            &self.dep.profile.cost_model,
        )
        .with_group_commit(&mut self.dep.group_commit);
        let (registry, stmts) = (&self.dep.registry, self.dep.stmts);
        let db = &mut self.dep.db;
        let mut txn = db.begin();
        self.max_txn = self.max_txn.max(txn.id().0);
        let mut staged: Vec<ShadowOp> = Vec::new();
        let name = match kind {
            0 => {
                // T1: insert a new orderline under the next auto key.
                let params = [
                    Value::Int(self.wl_rng.range_inclusive(1, orders_hi)),
                    Value::Int(self.wl_rng.range_inclusive(1, 100_000)),
                    Value::Int(self.wl_rng.range_inclusive(1, 10)),
                    Value::Int(self.wl_rng.range_inclusive(100, 50_000)),
                ];
                let key = db.table(t_orderline).next_auto_key();
                let insert = &registry[stmts.t1_new_orderline];
                execute(db, &mut ctx, &mut txn, insert, &params).expect("t1 must execute");
                let mut values = vec![Value::Int(key)];
                values.extend(params);
                staged.push(ShadowOp::Put(t_orderline, key, Row::new(values).encode()));
                "t1"
            }
            1 => {
                // T2: pay an order — status flip plus customer credit.
                let o_id = self.wl_rng.range_inclusive(1, orders_hi);
                let select = &registry[stmts.t2_select_order];
                let c_id = execute(db, &mut ctx, &mut txn, select, &[Value::Int(o_id)])
                    .expect("t2 select must execute")
                    .row
                    .map(|order| order.int(1));
                if let Some(c_id) = c_id {
                    let amount = self.wl_rng.range_inclusive(100, 10_000);
                    let ts = Value::Timestamp((now.as_nanos() / 1_000) as i64);
                    let pay = &registry[stmts.t2_pay_order];
                    let params = [ts.clone(), Value::Int(o_id)];
                    execute(db, &mut ctx, &mut txn, pay, &params).expect("t2 pay must execute");
                    staged.push(ShadowOp::Put(
                        t_orders,
                        o_id,
                        db.get(&mut ctx, t_orders, o_id)
                            .expect("just updated")
                            .image()
                            .to_vec(),
                    ));
                    let credit = &registry[stmts.t2_credit_customer];
                    let params = [Value::Int(amount), ts, Value::Int(c_id)];
                    let credited = execute(db, &mut ctx, &mut txn, credit, &params)
                        .expect("t2 credit must execute")
                        .affected;
                    if credited > 0 {
                        staged.push(ShadowOp::Put(
                            t_customer,
                            c_id,
                            db.get(&mut ctx, t_customer, c_id)
                                .expect("just updated")
                                .image()
                                .to_vec(),
                        ));
                    }
                }
                "t2"
            }
            2 => {
                // T3: order-status read.
                let o_id = self.wl_rng.range_inclusive(1, orders_hi);
                let status = &registry[stmts.t3_order_status];
                execute(db, &mut ctx, &mut txn, status, &[Value::Int(o_id)])
                    .expect("t3 must execute");
                "t3"
            }
            _ => {
                // T4: delete an orderline (original or workload-inserted).
                let hi = (db.table(t_orderline).next_auto_key() - 1).max(1);
                let ol = self.wl_rng.range_inclusive(1, hi);
                let delete = &registry[stmts.t4_delete_orderline];
                let deleted = execute(db, &mut ctx, &mut txn, delete, &[Value::Int(ol)])
                    .expect("t4 must execute")
                    .affected;
                if deleted > 0 {
                    staged.push(ShadowOp::Delete(t_orderline, ol));
                }
                "t4"
            }
        };
        let mut commit_lsn = None;
        let mut committed_rec = None;
        if abort_roll && !staged.is_empty() {
            db.abort(&mut ctx, txn);
            self.aborted += 1;
            staged.clear();
            // Staged shadow ops are dropped: the abort undid everything.
        } else {
            let c = db.commit(&mut ctx, txn);
            self.committed += 1;
            commit_lsn = Some(c.lsn);
            committed_rec = Some(c);
        }
        let latency = ctx.cpu + ctx.io;
        // A durable (write) commit enqueued into the group-commit pipeline;
        // its ack — and its client-visible effects — arrive only when the
        // batch flushes. Read-only commits never enqueue and carry no ops.
        let enqueued = self.dep.group_commit.commits() > pre_enqueued;
        // Versioned isolation: publish the commit's pre-images, stamped with
        // the instant the client will be acknowledged — the batch flush for
        // enqueued commits. Until that instant a snapshot read must resolve
        // to the pre-image, which is exactly what the oracle below checks.
        if self.opts.isolation.is_versioned() {
            if let Some(c) = &committed_rec {
                if !c.undo.is_empty() {
                    let commit_ts = if enqueued {
                        self.dep.group_commit.last_ack()
                    } else {
                        now + latency
                    };
                    self.dep.db.publish_versions(c, commit_ts);
                }
            }
        }
        let commit_wait = if enqueued {
            if self.opts.bug == Some(ChaosBug::AckUnflushed) {
                // Injected bug: ack immediately, before the flush. The
                // durability oracle must notice when a crash eats the batch.
                for op in staged.drain(..) {
                    self.shadow.apply(op);
                }
            } else {
                self.pending.push_back(PendingCommit {
                    ack_at: self.dep.group_commit.last_ack(),
                    commit_lsn: commit_lsn.expect("enqueued implies committed"),
                    ops: std::mem::take(&mut staged),
                });
            }
            self.dep.group_commit.last_wait()
        } else {
            // Reads (and aborts) complete without a batch ack; their shadow
            // effects (none for reads, none after an abort) apply now.
            for op in staged {
                self.shadow.apply(op);
            }
            SimDuration::ZERO
        };
        self.obs.record("chaos.txn_ns", latency.as_nanos());
        self.obs.span(Category::Txn, name, 0, now, now + latency);
        // The *session* moves on as soon as the commit is enqueued — that is
        // the whole point of group commit: the next transaction's writes can
        // join the same open batch instead of waiting out the flush.
        self.now = now + (latency - commit_wait) + SimDuration::from_micros(250);
        if self.opts.isolation.is_versioned() {
            // Deliver acks that matured within this transaction first, so
            // the oracle only examines commits whose acks are genuinely
            // still in the future.
            self.drain_acks(self.now);
            self.check_snapshots()?;
        }
        Ok(())
    }

    /// Snapshot-consistency oracle: for every row touched by a commit whose
    /// group-commit ack is still pending, a snapshot read at `now` must see
    /// the acknowledged image (the shadow), never the in-flight future
    /// version already sitting in the B-tree — and reading the same row
    /// twice within one snapshot must give the identical answer.
    fn check_snapshots(&self) -> Result<(), Violation> {
        // Injected bug: read the tree's latest image (what a non-versioned
        // read would return) instead of resolving the chain at `now`.
        let read_ts = if self.opts.bug == Some(ChaosBug::ReadFutureVersion) {
            SimTime::MAX
        } else {
            self.now
        };
        for p in &self.pending {
            for op in &p.ops {
                let (t, k) = match op {
                    ShadowOp::Put(t, k, _) => (*t, *k),
                    ShadowOp::Delete(t, k) => (*t, *k),
                };
                let first = self.dep.db.get_at(t, k, read_ts);
                let second = self.dep.db.get_at(t, k, read_ts);
                if first != second {
                    return Err(self.violation(
                        "snapshot-consistency",
                        format!(
                            "repeated read of table {t:?} key {k} diverged within one snapshot"
                        ),
                    ));
                }
                let acked = match (&first, self.shadow.get(t, k)) {
                    (Some(row), Some(image)) => image == *row,
                    (row, image) => row.is_none() && image.is_none(),
                };
                if !acked {
                    return Err(self.violation(
                        "snapshot-consistency",
                        format!(
                            "snapshot read at {:?} of table {t:?} key {k} observed a version \
                             whose commit ack (at {:?}) is still pending",
                            self.now, p.ack_at
                        ),
                    ));
                }
                // Scan branch: a snapshot range scan spanning the pending
                // row must reproduce the acked window exactly — no future
                // image surfacing, no row inserted-but-unacked appearing,
                // and rows deleted-but-unacked resurrected from chains.
                let scan_ts = if self.opts.bug == Some(ChaosBug::ScanFutureVersion) {
                    SimTime::MAX
                } else {
                    read_ts
                };
                let (lo, hi) = (k.saturating_sub(8), k.saturating_add(8));
                // Each scanned image is held against the next acked row as
                // it arrives; the scan runs to its end so the count in the
                // detail text is complete.
                let mut want = self.shadow.range(t, lo, hi);
                let (mut scanned, mut agrees) = (0usize, true);
                self.dep.db.scan_range_at(t, lo, hi, scan_ts, |sk, row| {
                    scanned += 1;
                    agrees &= want
                        .next()
                        .is_some_and(|(wk, image)| sk == wk && row.image() == image);
                    true
                });
                if !agrees || want.next().is_some() {
                    return Err(self.violation(
                        "snapshot-consistency",
                        format!(
                            "snapshot scan at {:?} of table {t:?} [{lo}, {hi}] diverged from \
                             the acked window around key {k} (commit ack at {:?} still pending: \
                             scanned {} rows, acked {})",
                            self.now,
                            p.ack_at,
                            scanned,
                            self.shadow.range(t, lo, hi).count()
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn inject(&mut self, kind: &FaultKind) -> Result<(), Violation> {
        self.faults += 1;
        match *kind {
            FaultKind::CrashAtLsn {
                in_flight,
                ops_each,
            } => self.crash(in_flight, ops_each, None, None),
            FaultKind::CrashMidCheckpoint {
                after_record,
                in_flight,
            } => {
                let start = self.now;
                if after_record {
                    // The checkpoint record lands and is durable, but the
                    // crash preempts the log truncation that would follow.
                    // Checkpointing flushes the WAL, closing the open batch.
                    self.flush_pending();
                    let (_lsn, _pages, io) = self.dep.db.checkpoint(
                        &mut self.dep.nodes[0].pool,
                        &mut self.dep.storage,
                        self.now,
                    );
                    self.now += io.max(SimDuration::from_millis(1));
                    self.pull_archive();
                    self.acked = self.dep.db.log().head();
                } else {
                    // Dirty pages flush, then the crash strikes before the
                    // checkpoint record is appended.
                    let _ = self.dep.nodes[0].pool.flush_dirty();
                    self.now += SimDuration::from_millis(1);
                }
                self.obs
                    .span(Category::Checkpoint, "ckpt-interrupted", 0, start, self.now);
                self.crash(in_flight, 2, None, None)
            }
            FaultKind::TornWrite {
                in_flight,
                ops_each,
                cut_permille,
            } => self.crash(in_flight, ops_each, Some(cut_permille), None),
            FaultKind::HeartbeatLoss {
                silent_ms,
                in_flight,
            } => {
                let silence = SimDuration::from_millis(silent_ms as u64);
                let detected = self.now + silence.max(HEARTBEAT_DETECTION);
                self.obs
                    .span(Category::Failover, "hb-silence", 1, self.now, detected);
                self.crash(in_flight, 2, None, Some(detected))
            }
            FaultKind::LagSpike { burst } => self.lag_spike(burst),
            FaultKind::AutoscaleThrash { cycles } => self.autoscale_thrash(cycles),
        }
    }

    /// Crash the primary with `in_flight` open transactions, run both
    /// recovery paths, and check every state oracle.
    fn crash(
        &mut self,
        in_flight: u8,
        ops_each: u8,
        torn_cut_permille: Option<u16>,
        detected_at: Option<SimTime>,
    ) -> Result<(), Violation> {
        self.crashes += 1;
        // Acks that matured before the crash were delivered; anything still
        // pending is caught inside the open batch.
        self.drain_acks(self.now);
        let crash_at = self.now;
        // 1. Open loser transactions: DML that will be in flight at the
        //    crash. `mem::forget` models the process dying mid-transaction.
        for _ in 0..in_flight {
            let orders_hi = self.dep.shape.orders as i64;
            let remote = self
                .dep
                .remote_pool
                .as_mut()
                .map(|pool| RemoteTier { pool });
            let mut ctx = ExecCtx::new(
                crash_at,
                &mut self.dep.nodes[0].pool,
                remote,
                &mut self.dep.storage,
                &self.dep.profile.cost_model,
            );
            let (registry, stmts) = (&self.dep.registry, self.dep.stmts);
            let db = &mut self.dep.db;
            let mut txn = db.begin();
            self.max_txn = self.max_txn.max(txn.id().0);
            for _ in 0..ops_each {
                match self.fault_rng.below(3) {
                    0 => {
                        let params = [
                            Value::Int(self.fault_rng.range_inclusive(1, orders_hi)),
                            Value::Int(7),
                            Value::Int(1),
                            Value::Int(500),
                        ];
                        let insert = &registry[stmts.t1_new_orderline];
                        execute(db, &mut ctx, &mut txn, insert, &params)
                            .expect("auto keys never collide");
                    }
                    1 => {
                        let o_id = self.fault_rng.range_inclusive(1, orders_hi);
                        db.update(&mut ctx, &mut txn, self.dep.tables.orders, o_id, |r| {
                            r.values[2] = Value::Text("SHIPPED".to_string());
                        })
                        .expect("orders schema is stable");
                    }
                    _ => {
                        let hi = (db.table(self.dep.tables.orderline).next_auto_key() - 1).max(1);
                        let ol = self.fault_rng.range_inclusive(1, hi);
                        let delete = &registry[stmts.t4_delete_orderline];
                        execute(db, &mut ctx, &mut txn, delete, &[Value::Int(ol)])
                            .expect("t4 must execute");
                    }
                }
            }
            std::mem::forget(txn);
        }
        // 2. The complete epoch tail (everything past the durable head),
        //    captured *before* any of it is lost — the in-place undo pass
        //    needs the before-images of loser records even when the torn
        //    write destroys their log entries.
        let tail: Vec<WalRecord> = self
            .dep
            .db
            .log()
            .records_after(self.acked)
            .cloned()
            .collect();
        // 3. Torn write: a byte prefix of the encoded tail reaches durable
        //    storage; whole surviving frames are kept. The encode reuses the
        //    harness-lifetime scratch buffer through the codec.
        let survivors = match torn_cut_permille {
            None => 0usize,
            Some(permille) => {
                self.wire_scratch.clear();
                encode_segment_into(&tail, &mut self.wire_scratch);
                let bytes = &self.wire_scratch;
                let cut = bytes.len() * (permille.min(1000) as usize) / 1000;
                let torn = &bytes[..cut];
                let mut n = 0usize;
                let mut pos = 0usize;
                while pos < torn.len() {
                    match decode_record(torn, pos) {
                        Ok((_, next)) => {
                            n += 1;
                            pos = next;
                        }
                        Err(_) => break,
                    }
                }
                n
            }
        };
        let durable_head = Lsn(self.acked.0 + survivors as u64);
        // 4. Crash: volatile state (locks, the open commit batch) dies with
        //    the node. Pending commits split on the durable head: a commit
        //    whose record reached durable storage survives even though its
        //    ack never went out (recovery replays it — promote its effects
        //    into the shadow); a commit whose batch was lost legally
        //    vanishes (nobody was ever told it happened).
        self.dep.db.simulate_crash();
        self.dep.group_commit.crash_abort();
        let (pre_promoted, pre_dropped) = (self.promoted, self.dropped);
        while let Some(p) = self.pending.pop_front() {
            if p.commit_lsn <= durable_head {
                for op in p.ops {
                    self.shadow.apply(op);
                }
                self.promoted += 1;
            } else {
                self.dropped += 1;
            }
        }
        self.obs.instant(Category::Failover, "crash", 0, crash_at);
        // 5. Replay oracle: restore the base snapshot and roll the durable
        //    archive forward. Only committed transactions replay.
        self.archive.extend(tail[..survivors].iter().cloned());
        let mut replayed = self.base.clone();
        let redo_src = self.bugged_archive();
        let redo_start = self.now;
        // The redo plan is a pure function of the archive, so campaign
        // output cannot depend on `--jobs`.
        let no_2pc = HashSet::new();
        let redone = redo_net_effects(&mut replayed, &redo_src, &no_2pc);
        self.check_state(&replayed, "replay")?;
        // 6. In-place ARIES oracle: undo losers on the crashed image using
        //    the full pre-crash tail, honouring the durability horizon — a
        //    commit record beyond it never flushed, so its transaction rolls
        //    back. The database continues from this repaired image (its log
        //    is consistent, unlike the replay's).
        let undone = undo_losers(&mut self.dep.db, &tail, survivors, &no_2pc);
        self.check_state(&self.dep.db, "in-place-undo")?;
        debug_assert!(undone as usize <= tail.len());
        // 7. Reconcile the continuing log with what durable storage kept,
        //    and never reuse a transaction id from the old incarnation.
        self.dep.db.log_mut().discard_after(durable_head);
        self.dep.db.fast_forward_txns(TxnId(self.max_txn));
        self.acked = self.dep.db.log().head();
        // 8. Fail-over timeline: detection (possibly delayed by heartbeat
        //    loss) -> restart -> recovery, per the profile's model.
        let analysis = analyze(self.dep.db.log(), self.dep.db.last_checkpoint());
        let detected = detected_at
            .unwrap_or(crash_at + self.dep.profile.failover.detection)
            .max(self.now);
        let sut = &self.dep.profile;
        let tl = plan_failover(&sut.failover, &sut.replay, crash_at, detected, &analysis);
        for p in &tl.phases {
            self.obs.span(Category::Failover, p.name, 1, p.start, p.end);
        }
        self.obs.span(
            Category::Recovery,
            "redo+undo",
            0,
            redo_start,
            tl.service_resumed_at,
        );
        self.obs.add("chaos.crashes", 1);
        self.obs.add("chaos.redone", redone);
        self.obs.add("chaos.undone", undone);
        self.obs
            .add("chaos.gc.promoted", self.promoted - pre_promoted);
        self.obs.add("chaos.gc.dropped", self.dropped - pre_dropped);
        let downtime = tl.downtime();
        self.dep.nodes[0].restart(crash_at, downtime, self.dep.profile.failover.warmup);
        self.now = tl.service_resumed_at.max(self.now) + SimDuration::from_millis(1);
        Ok(())
    }

    /// The archive as the replay path sees it — identical unless the
    /// test-only [`ChaosBug::SkipRedo`] mutation drops a committed DML
    /// record.
    fn bugged_archive(&self) -> Vec<&WalRecord> {
        let Some(ChaosBug::SkipRedo(n)) = self.opts.bug else {
            return self.archive.iter().collect();
        };
        let committed: HashSet<TxnId> = self
            .archive
            .iter()
            .filter(|r| matches!(r.op, WalOp::Commit))
            .map(|r| r.txn)
            .collect();
        let mut dml_seen = 0usize;
        self.archive
            .iter()
            .filter(|r| {
                if r.op.is_dml() && committed.contains(&r.txn) {
                    let skip = dml_seen == n;
                    dml_seen += 1;
                    !skip
                } else {
                    true
                }
            })
            .collect()
    }

    /// Compare a recovered database against the shadow, classifying any
    /// divergence into the durability / atomicity / equivalence oracles.
    fn check_state(&self, db: &Database, path: &str) -> Result<(), Violation> {
        let diff = self.shadow.diff(db);
        if diff.is_empty() {
            return Ok(());
        }
        let oracle = if !diff.missing.is_empty() {
            "durability"
        } else if !diff.extra.is_empty() {
            "atomicity"
        } else {
            "recovery-equivalence"
        };
        Err(self.violation(
            oracle,
            format!("{path} recovery diverged: {}", diff.summary()),
        ))
    }

    /// A burst of rapid commits through the replication stream; replica
    /// visibility must be monotone and lag non-negative.
    fn lag_spike(&mut self, burst: u16) -> Result<(), Violation> {
        let start = self.now;
        let mut last_visible = SimTime::ZERO;
        for b in 0..burst {
            let commit_time = self.now + SimDuration::from_micros(50) * b as u64;
            let dml = 1 + self.fault_rng.below(20);
            let visible = self.dep.streams[0].on_commit(self.acked, commit_time, dml);
            if visible < commit_time {
                return Err(self.violation(
                    "replication-monotonicity",
                    format!(
                        "commit at {:?} visible at {:?} (before it committed)",
                        commit_time, visible
                    ),
                ));
            }
            if visible < last_visible {
                return Err(self.violation(
                    "replication-monotonicity",
                    format!(
                        "visibility went backwards: {:?} after {:?}",
                        visible, last_visible
                    ),
                ));
            }
            last_visible = visible;
        }
        self.now = last_visible.max(self.now) + SimDuration::from_millis(1);
        self.obs
            .span(Category::Replication, "lag-spike", 2, start, self.now);
        Ok(())
    }

    /// Rapid vcore thrash on the primary and pause/resume on the replica;
    /// the replica must come back available.
    fn autoscale_thrash(&mut self, cycles: u8) -> Result<(), Violation> {
        let start = self.now;
        let min_v = self.dep.profile.min_vcores;
        let max_v = self.dep.profile.max_vcores;
        for _ in 0..cycles {
            self.dep.nodes[0].set_vcores(self.now, min_v);
            self.now += SimDuration::from_millis(200);
            self.dep.nodes[0].set_vcores(self.now, max_v);
            self.dep.nodes[1].pause(self.now);
            self.now += SimDuration::from_millis(100);
            self.dep.nodes[1].resume(self.now, max_v, SimDuration::from_millis(500));
            let back = self.dep.nodes[1].available_at(self.now).unwrap_or(self.now);
            self.now = back + SimDuration::from_millis(1);
            if !self.dep.nodes[1].is_available(self.now) {
                return Err(self.violation(
                    "autoscale-availability",
                    format!("replica still unavailable at {:?} after resume", self.now),
                ));
            }
        }
        self.obs
            .span(Category::Autoscale, "thrash", 2, start, self.now);
        Ok(())
    }
}
