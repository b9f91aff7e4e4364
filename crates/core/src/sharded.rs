//! Scale-out deployments: hash/range sharding across engine instances,
//! cross-shard two-phase commit on the virtual clock, and the tenant-fleet
//! scenario (ROADMAP item 5).
//!
//! A [`ShardedDeployment`] holds one full [`Deployment`] per shard of a
//! [`ShardMap`]. The fleet model shards *by tenant*: every engine carries
//! the whole schema, tenants are assigned to a home shard round-robin, and
//! each tenant's key slice is only ever driven on its home shard — so
//! single-shard traffic needs no coordination at all. Cross-shard work
//! (an order payment on one shard funding a customer credit on another)
//! runs through [`TwoPhaseCoordinator`]: `Prepare` votes land in each
//! participant's segmented WAL, the commit decision is recorded in the
//! coordinator's decision log, and recovery joins a participant's in-doubt
//! transactions ([`cb_engine::recovery::in_doubt_txns`]) against that log —
//! resolved commits replay through the net-effect planner
//! ([`cb_engine::recovery::redo_net_effects`]), everything else is presumed
//! aborted.
//!
//! [`run_fleet`] drives the whole scenario: hundreds of Zipfian-skewed
//! tenants, a flash-sale spike on the hot shard, optional mid-run workload
//! shifts ([`ShiftEvent`]), per-shard and aggregate PERFECT scoring, and a
//! deterministic cross-shard transfer phase. Shards fan across cores with
//! [`crate::parallel::par_map`]; results merge in canonical shard order, so
//! reports are byte-identical for every `jobs` count.

use std::collections::{BTreeSet, HashSet, VecDeque};

pub use cb_cluster::{shard_of_hash, ShardMap, ShardStrategy};
use cb_engine::sql::{execute, BoundStmt, StmtRegistry};
use cb_engine::{Database, ExecCtx, TxnHandle, Value};
use cb_sim::{DetRng, SimDuration, SimTime};
use cb_store::TxnId;
use cb_sut::SutProfile;

use crate::cost::{ruc_cost, CostBreakdown, RucRates};
use crate::deploy::Deployment;
use crate::driver::{run, RunOptions, ShiftEvent, TenantSpec, VcoreControl};
use crate::metrics::p_score;
use crate::parallel::par_map;
use crate::schema::SalesStmts;

/// Seed offset between shards: far enough apart that per-shard datasets and
/// workload streams never share an RNG stream.
const SHARD_SEED_STRIDE: u64 = 0x9e37;

/// A cluster of engine instances with a key-routing map.
pub struct ShardedDeployment {
    /// How keys (and scans) route to shards.
    pub map: ShardMap,
    /// One full deployment per shard (index = shard id).
    pub shards: Vec<Deployment>,
}

impl ShardedDeployment {
    /// Assemble one deployment per shard of `map`. Every shard gets the
    /// full schema and dataset (the fleet model shards by tenant, so each
    /// engine only ever serves its own tenants' slices) and a seed offset
    /// by its shard id, keeping per-shard datasets distinct streams.
    pub fn new(
        profile: SutProfile,
        scale_factor: u64,
        sim_scale: u64,
        map: ShardMap,
        seed: u64,
    ) -> Self {
        let shards = (0..map.shards())
            .map(|s| {
                Deployment::new(
                    profile.clone(),
                    scale_factor,
                    sim_scale,
                    0,
                    seed + s as u64 * SHARD_SEED_STRIDE,
                )
            })
            .collect();
        ShardedDeployment { map, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key` under the routing map.
    pub fn shard_of(&self, key: i64) -> usize {
        self.map.shard_of(key)
    }
}

/// Counters from one cross-shard transfer phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TwoPhaseStats {
    /// Globally committed cross-shard transactions.
    pub committed: u64,
    /// Globally aborted cross-shard transactions.
    pub aborted: u64,
    /// Transfers whose keys landed on one shard (no 2PC needed).
    pub single_shard: u64,
    /// Prepare votes written across all shards.
    pub prepares: u64,
}

impl std::ops::AddAssign for TwoPhaseStats {
    fn add_assign(&mut self, o: Self) {
        self.committed += o.committed;
        self.aborted += o.aborted;
        self.single_shard += o.single_shard;
        self.prepares += o.prepares;
    }
}

/// A cross-shard transaction whose participants have all voted: each holds
/// a durable `Prepare` record and its write locks until the coordinator's
/// decision reaches it. The decision travels inside this value —
/// [`TwoPhaseCoordinator::record_decision`] sets it,
/// [`TwoPhaseCoordinator::deliver_next`] hands it to one participant at a
/// time — so no participant can hear an outcome the decision log does not
/// hold. Dropping it at any step models a coordinator crash: every
/// participant not yet told is left in doubt.
pub struct PreparedGlobal {
    /// The global transaction id shared by every participant's vote.
    pub gid: u64,
    /// Participants still waiting for the decision, in prepare order.
    parts: VecDeque<(usize, TxnHandle)>,
    /// The logged decision (`true` = commit), once taken.
    decision: Option<bool>,
}

impl PreparedGlobal {
    /// Shard ids of the participants not yet told the decision, in
    /// prepare order.
    pub fn participants(&self) -> Vec<usize> {
        self.parts.iter().map(|(s, _)| *s).collect()
    }
}

/// The coordinator half of cross-shard two-phase commit.
///
/// Presumed abort: only *commit* decisions enter the decision log — a
/// recovering participant whose vote finds no logged decision rolls back.
/// The log is the piece that must survive a coordinator crash, which is why
/// the decision is recorded ([`TwoPhaseCoordinator::record_decision`])
/// *before* any participant is told ([`TwoPhaseCoordinator::deliver_next`]);
/// [`TwoPhaseCoordinator::decide`] runs the two steps back to back.
pub struct TwoPhaseCoordinator {
    next_gid: u64,
    committed_gids: BTreeSet<u64>,
    /// Counters for reporting.
    pub stats: TwoPhaseStats,
}

impl Default for TwoPhaseCoordinator {
    fn default() -> Self {
        Self::new()
    }
}

/// Run `f` against one shard's engine, statement registry and resolved
/// statement handles with a fresh execution context on the shard's primary
/// node at instant `at`.
fn with_shard_ctx<R>(
    dep: &mut Deployment,
    at: SimTime,
    f: impl FnOnce(&mut Database, &mut ExecCtx<'_>, &StmtRegistry, &SalesStmts) -> R,
) -> R {
    let Deployment {
        profile,
        db,
        storage,
        group_commit,
        nodes,
        registry,
        stmts,
        ..
    } = dep;
    let node = &mut nodes[0];
    let mut ctx = ExecCtx::new(at, &mut node.pool, None, storage, &profile.cost_model)
        .with_group_commit(group_commit);
    f(db, &mut ctx, registry, stmts)
}

/// The paying half of a transfer: `stmt` (`t2_pay_order`) marks `order` paid.
fn pay_order(
    db: &mut Database,
    ctx: &mut ExecCtx<'_>,
    stmt: &BoundStmt,
    txn: &mut TxnHandle,
    now_ts: i64,
    order: i64,
) {
    let params = [Value::Timestamp(now_ts), Value::Int(order)];
    execute(db, ctx, txn, stmt, &params).expect("pay executes");
}

/// The receiving half: `stmt` (`t2_credit_customer`) adds `amount` to
/// `customer`.
fn credit_customer(
    db: &mut Database,
    ctx: &mut ExecCtx<'_>,
    stmt: &BoundStmt,
    txn: &mut TxnHandle,
    now_ts: i64,
    customer: i64,
    amount: i64,
) {
    let params = [
        Value::Int(amount),
        Value::Timestamp(now_ts),
        Value::Int(customer),
    ];
    execute(db, ctx, txn, stmt, &params).expect("credit executes");
}

impl TwoPhaseCoordinator {
    /// A coordinator with an empty decision log.
    pub fn new() -> Self {
        TwoPhaseCoordinator {
            next_gid: 1,
            committed_gids: BTreeSet::new(),
            stats: TwoPhaseStats::default(),
        }
    }

    /// Phase one of a cross-shard transfer: pay order `from_order` on its
    /// owning shard and credit customer `to_customer` by `amount` on its
    /// owning shard, leaving a durable `Prepare` vote (and held write
    /// locks) on every participant. If both keys land on one shard the
    /// transfer executes and commits immediately — no votes — and `None`
    /// is returned.
    pub fn begin_transfer(
        &mut self,
        sd: &mut ShardedDeployment,
        from_order: i64,
        to_customer: i64,
        amount: i64,
        at: SimTime,
    ) -> Option<PreparedGlobal> {
        let gid = self.next_gid;
        self.next_gid += 1;
        let now_ts = (at.as_nanos() / 1_000) as i64;
        let pay_shard = sd.map.shard_of(from_order);
        let credit_shard = sd.map.shard_of(to_customer);
        if pay_shard == credit_shard {
            with_shard_ctx(&mut sd.shards[pay_shard], at, |db, ctx, reg, ids| {
                let mut txn = db.begin();
                pay_order(
                    db,
                    ctx,
                    &reg[ids.t2_pay_order],
                    &mut txn,
                    now_ts,
                    from_order,
                );
                let credit = &reg[ids.t2_credit_customer];
                credit_customer(db, ctx, credit, &mut txn, now_ts, to_customer, amount);
                db.commit(ctx, txn);
            });
            self.stats.single_shard += 1;
            self.stats.committed += 1;
            return None;
        }
        let pay_txn = with_shard_ctx(&mut sd.shards[pay_shard], at, |db, ctx, reg, ids| {
            let mut txn = db.begin();
            pay_order(
                db,
                ctx,
                &reg[ids.t2_pay_order],
                &mut txn,
                now_ts,
                from_order,
            );
            db.prepare(ctx, &mut txn, gid);
            txn
        });
        let credit_txn = with_shard_ctx(&mut sd.shards[credit_shard], at, |db, ctx, reg, ids| {
            let mut txn = db.begin();
            let credit = &reg[ids.t2_credit_customer];
            credit_customer(db, ctx, credit, &mut txn, now_ts, to_customer, amount);
            db.prepare(ctx, &mut txn, gid);
            txn
        });
        self.stats.prepares += 2;
        Some(PreparedGlobal {
            gid,
            parts: VecDeque::from([(pay_shard, pay_txn), (credit_shard, credit_txn)]),
            decision: None,
        })
    }

    /// Phase two, first step: write the decision to the decision log
    /// (presumed abort — only commits enter it) and into `prepared`. No
    /// participant has heard anything yet; a crash here leaves every vote
    /// in doubt with a logged outcome for [`TwoPhaseCoordinator::resolve`]
    /// to find.
    pub fn record_decision(&mut self, prepared: &mut PreparedGlobal, commit: bool) {
        debug_assert!(prepared.decision.is_none(), "a decision is taken once");
        if commit {
            self.committed_gids.insert(prepared.gid);
            self.stats.committed += 1;
        } else {
            self.stats.aborted += 1;
        }
        prepared.decision = Some(commit);
    }

    /// Phase two, second step: tell the next waiting participant (prepare
    /// order) the recorded decision. Returns `false` once every participant
    /// has been told. Panics if no decision was recorded — the write-ahead
    /// rule the decision log exists for.
    pub fn deliver_next(
        &self,
        sd: &mut ShardedDeployment,
        prepared: &mut PreparedGlobal,
        at: SimTime,
    ) -> bool {
        let commit = prepared
            .decision
            .expect("record_decision comes before deliver_next");
        let Some((shard, txn)) = prepared.parts.pop_front() else {
            return false;
        };
        with_shard_ctx(&mut sd.shards[shard], at, |db, ctx, _, _| {
            if commit {
                db.commit(ctx, txn);
            } else {
                db.abort(ctx, txn);
            }
        });
        true
    }

    /// Phase two in one call: record the decision, then deliver it to every
    /// participant. The decision log entry is written *before* any
    /// participant learns the outcome — the order that makes crash recovery
    /// deterministic.
    pub fn decide(
        &mut self,
        sd: &mut ShardedDeployment,
        mut prepared: PreparedGlobal,
        commit: bool,
        at: SimTime,
    ) {
        self.record_decision(&mut prepared, commit);
        while self.deliver_next(sd, &mut prepared, at) {}
    }

    /// Whether the decision log records a commit for `gid`.
    pub fn decided_commit(&self, gid: u64) -> bool {
        self.committed_gids.contains(&gid)
    }

    /// The recovery-time join: given one participant's in-doubt
    /// transactions (from [`cb_engine::recovery::in_doubt_txns`]), the
    /// subset whose global transaction the log decided to commit. Feed the
    /// result to [`cb_engine::recovery::redo_net_effects`] /
    /// [`cb_engine::recovery::undo_losers`]; in-doubt
    /// transactions outside the set stay presumed-abort.
    pub fn resolve(&self, in_doubt: &[(TxnId, u64)]) -> HashSet<TxnId> {
        in_doubt
            .iter()
            .filter(|(_, gid)| self.committed_gids.contains(gid))
            .map(|(txn, _)| *txn)
            .collect()
    }
}

/// Shape of one tenant-fleet scenario.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Tenants per shard (the fleet size is `tenants_per_shard * shards`).
    pub tenants_per_shard: usize,
    /// Baseline concurrency per tenant.
    pub clients_per_tenant: u32,
    /// Spike concurrency for the flash-sale tenant on the hot shard.
    pub hot_clients: u32,
    /// Number of schedule slots (the spike occupies the middle slot).
    pub slots: usize,
    /// Length of one slot.
    pub slot_len: SimDuration,
    /// Zipfian skew in per-mille (every regular tenant).
    pub theta_pm: u16,
    /// The shard carrying the flash sale.
    pub hot_shard: usize,
    /// Cross-shard transfers to run after the measurement window.
    pub transfers: u64,
    /// Mid-run workload shifts applied on every shard's driver clock.
    pub shifts: Vec<ShiftEvent>,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            tenants_per_shard: 64,
            clients_per_tenant: 1,
            hot_clients: 32,
            slots: 3,
            slot_len: SimDuration::from_secs(20),
            theta_pm: 900,
            hot_shard: 0,
            transfers: 64,
            shifts: Vec::new(),
        }
    }
}

/// Per-shard outcome of a fleet run.
#[derive(Clone, Debug)]
pub struct ShardScore {
    /// Shard id.
    pub shard: usize,
    /// Tenants driven on this shard.
    pub tenants: usize,
    /// Committed transactions.
    pub committed: u64,
    /// Average TPS over the schedule window.
    pub tps: f64,
    /// Worst per-tenant p95 latency in milliseconds.
    pub p95_ms: f64,
    /// RUC cost per minute.
    pub cost_per_min: CostBreakdown,
    /// P-Score (TPS per dollar-minute).
    pub p_score: f64,
    /// Lock conflicts observed.
    pub lock_conflicts: u64,
}

/// Fleet-wide outcome: per-shard scores plus the aggregate.
pub struct FleetReport {
    /// Routing-map label (`hash4`, `range4`, ...).
    pub map_label: String,
    /// Per-shard scores in shard order.
    pub per_shard: Vec<ShardScore>,
    /// Fleet TPS (sum over shards; every shard runs the same window).
    pub aggregate_tps: f64,
    /// Fleet RUC cost per minute.
    pub aggregate_cost_per_min: CostBreakdown,
    /// Aggregate P-Score.
    pub aggregate_p: f64,
    /// The hot shard (for the report).
    pub hot_shard: usize,
    /// Cross-shard transfer counters.
    pub two_phase: TwoPhaseStats,
}

/// Build the tenant specs for one shard of the fleet. Tenants partition the
/// shard's keyspace into equal slices; the hot shard's tenant 0 is the
/// flash-sale tenant (payment-heavy mix, latest-10 skew, spike in the
/// middle slot), everyone else runs the paper's read-write mix under
/// Zipfian skew at constant concurrency.
fn fleet_specs(shard: usize, dep: &Deployment, spec: &FleetSpec) -> Vec<TenantSpec> {
    crate::tenancy::flash_sale_fleet(&dep.shape, spec, shard == spec.hot_shard)
}

/// Run the tenant-fleet scenario: per-shard closed-loop runs fanned across
/// `jobs` cores with [`par_map`], scored with the PERFECT productivity
/// metric per shard and in aggregate, followed by a deterministic
/// cross-shard two-phase-commit transfer phase over the same engines.
///
/// Shard runs are fully independent (own deployment, own RNG streams) and
/// merge in canonical shard order, so the report is byte-identical for
/// every `jobs` count.
pub fn run_fleet(
    profile: &SutProfile,
    map: &ShardMap,
    spec: &FleetSpec,
    sim_scale: u64,
    seed: u64,
    jobs: usize,
) -> FleetReport {
    let window = spec.slot_len * spec.slots.max(1) as u64;
    let shard_ids: Vec<usize> = (0..map.shards()).collect();
    let cells = par_map(&shard_ids, jobs, |_, &s| {
        let mut dep = Deployment::new(
            profile.clone(),
            1,
            sim_scale,
            0,
            seed + s as u64 * SHARD_SEED_STRIDE,
        );
        let tenants = fleet_specs(s, &dep, spec);
        let opts = RunOptions {
            seed: seed + s as u64,
            vcores: VcoreControl::Fixed,
            shifts: spec.shifts.clone(),
            ..RunOptions::default()
        };
        let result = run(&mut dep, &tenants, &opts);
        let end = SimTime::ZERO + window;
        let tps = result.avg_tps(SimTime::ZERO, end);
        let usage = dep.usage(SimTime::ZERO, end);
        let minutes = window.as_secs_f64() / 60.0;
        let cost_per_min = ruc_cost(&usage, &RucRates::default()).scaled(1.0 / minutes);
        let p95_ms = result
            .tenants
            .iter()
            .map(|t| t.latency_percentile_ms(95.0))
            .fold(0.0_f64, f64::max);
        let score = ShardScore {
            shard: s,
            tenants: tenants.len(),
            committed: result.tenants.iter().map(|t| t.committed).sum(),
            tps,
            p95_ms,
            p_score: p_score(tps, &cost_per_min),
            cost_per_min,
            lock_conflicts: result.lock_conflicts,
        };
        (score, dep)
    });
    let mut per_shard = Vec::with_capacity(cells.len());
    let mut shards = Vec::with_capacity(cells.len());
    for (score, dep) in cells {
        per_shard.push(score);
        shards.push(dep);
    }
    let mut sd = ShardedDeployment {
        map: map.clone(),
        shards,
    };

    // Cross-shard transfer phase: after the measurement window (so held
    // client locks have all expired), a deterministic stream of order-pay /
    // customer-credit transfers routed by the map, two-phase committed when
    // they straddle shards. ~15% abort globally.
    let mut coord = TwoPhaseCoordinator::new();
    // "2PC" in ASCII, to keep the transfer stream off every other seed.
    let mut rng = DetRng::seeded(seed ^ 0x0032_5043);
    let (orders, customers) = (sd.shards[0].shape.orders, sd.shards[0].shape.customers);
    for i in 0..spec.transfers {
        let at = SimTime::ZERO + window + SimDuration::from_millis(5 * (i + 1));
        let from_order = rng.range_inclusive(1, orders as i64);
        let to_customer = rng.range_inclusive(1, customers as i64);
        let amount = rng.range_inclusive(1, 10_000);
        if let Some(prepared) = coord.begin_transfer(&mut sd, from_order, to_customer, amount, at) {
            let commit = rng.chance(0.85);
            coord.decide(&mut sd, prepared, commit, at);
        }
    }

    let aggregate_tps: f64 = per_shard.iter().map(|s| s.tps).sum();
    let aggregate_cost_per_min =
        per_shard
            .iter()
            .fold(CostBreakdown::default(), |a, s| CostBreakdown {
                cpu: a.cpu + s.cost_per_min.cpu,
                mem: a.mem + s.cost_per_min.mem,
                storage: a.storage + s.cost_per_min.storage,
                iops: a.iops + s.cost_per_min.iops,
                network: a.network + s.cost_per_min.network,
            });
    FleetReport {
        map_label: map.label(),
        aggregate_p: p_score(aggregate_tps, &aggregate_cost_per_min),
        per_shard,
        aggregate_tps,
        aggregate_cost_per_min,
        hot_shard: spec.hot_shard,
        two_phase: coord.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AccessDistribution, TxnMix};
    use cb_engine::recovery::in_doubt_txns;
    use cb_store::{Lsn, WalRecord};

    fn tiny_fleet_spec() -> FleetSpec {
        FleetSpec {
            tenants_per_shard: 2,
            clients_per_tenant: 2,
            hot_clients: 8,
            slots: 3,
            slot_len: SimDuration::from_secs(2),
            transfers: 16,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn fleet_reports_per_shard_and_aggregate_scores() {
        let spec = tiny_fleet_spec();
        let map = ShardMap::hash(2);
        let r = run_fleet(&SutProfile::aws_rds(), &map, &spec, 2000, 7, 1);
        assert_eq!(r.per_shard.len(), 2);
        assert_eq!(r.map_label, "hash2");
        for s in &r.per_shard {
            assert!(s.committed > 0, "shard {} committed nothing", s.shard);
            assert!(s.tps > 0.0 && s.p_score > 0.0);
        }
        let sum: f64 = r.per_shard.iter().map(|s| s.tps).sum();
        assert!((r.aggregate_tps - sum).abs() < 1e-9);
        assert!(r.aggregate_p > 0.0);
        // The hot shard spikes to 8 clients mid-run while the other stays
        // at 2 per tenant: it must commit more.
        assert!(
            r.per_shard[0].committed > r.per_shard[1].committed,
            "hot {} vs cold {}",
            r.per_shard[0].committed,
            r.per_shard[1].committed
        );
        // The transfer phase ran and decided every global transaction.
        let t = r.two_phase;
        assert_eq!(t.committed + t.aborted, spec.transfers);
        assert!(t.prepares > 0, "no transfer straddled shards");
    }

    /// A range map whose split lands mid-keyspace of the *actual* dataset
    /// (sim-scaled shapes are far smaller than the SF-1 keyspace).
    fn range_map_for(scale_factor: u64, sim_scale: u64, shards: usize) -> ShardMap {
        let shape = crate::schema::DatasetShape::new(scale_factor, sim_scale);
        ShardMap::range_even(shape.orders.min(shape.customers) as i64, shards)
    }

    #[test]
    fn fleet_reports_are_jobs_invariant() {
        let spec = tiny_fleet_spec();
        let map = range_map_for(1, 2000, 2);
        let a = run_fleet(&SutProfile::cdb4(), &map, &spec, 2000, 11, 1);
        let b = run_fleet(&SutProfile::cdb4(), &map, &spec, 2000, 11, 2);
        assert_eq!(a.two_phase, b.two_phase);
        for (x, y) in a.per_shard.iter().zip(&b.per_shard) {
            assert_eq!(x.committed, y.committed);
            assert_eq!(x.tps.to_bits(), y.tps.to_bits(), "shard {}", x.shard);
            assert_eq!(x.p_score.to_bits(), y.p_score.to_bits());
        }
        assert_eq!(a.aggregate_tps.to_bits(), b.aggregate_tps.to_bits());
    }

    #[test]
    fn workload_shifts_change_the_offered_mix() {
        let mut spec = tiny_fleet_spec();
        let base = run_fleet(
            &SutProfile::aws_rds(),
            &ShardMap::hash(2),
            &spec,
            2000,
            7,
            1,
        );
        // Shift every tenant to write-only at a harsher skew mid-run, and
        // halve the pace for the final slot.
        spec.shifts = vec![
            ShiftEvent::at(SimTime::ZERO + SimDuration::from_secs(2))
                .mix(TxnMix::write_only())
                .dist(AccessDistribution::Zipfian(990)),
            ShiftEvent::at(SimTime::ZERO + SimDuration::from_secs(4)).pace(0.5),
        ];
        let shifted = run_fleet(
            &SutProfile::aws_rds(),
            &ShardMap::hash(2),
            &spec,
            2000,
            7,
            1,
        );
        assert_ne!(
            base.per_shard[0].committed, shifted.per_shard[0].committed,
            "shift events must perturb the run"
        );
        // And an empty shift list reproduces the base run bit-for-bit.
        spec.shifts = Vec::new();
        let again = run_fleet(
            &SutProfile::aws_rds(),
            &ShardMap::hash(2),
            &spec,
            2000,
            7,
            1,
        );
        assert_eq!(base.per_shard[0].committed, again.per_shard[0].committed);
        assert_eq!(base.aggregate_tps.to_bits(), again.aggregate_tps.to_bits());
    }

    #[test]
    fn committed_transfer_lands_on_both_shards_and_abort_on_neither() {
        let map = range_map_for(1, 2000, 2);
        let mut sd = ShardedDeployment::new(SutProfile::aws_rds(), 1, 2000, map, 3);
        let hi = sd.shards[0].shape.orders as i64;
        // Keys on opposite sides of the split.
        let (from, to) = (1, hi);
        assert_ne!(sd.shard_of(from), sd.shard_of(to));
        let orders = sd.shards[0].tables.orders;
        let customers = sd.shards[1].tables.customer;
        let before_pay = sd.shards[0].db.dump_table(orders);
        let before_credit = sd.shards[1].db.dump_table(customers);

        let mut coord = TwoPhaseCoordinator::new();
        let at = SimTime::ZERO + SimDuration::from_secs(1);
        let p = coord
            .begin_transfer(&mut sd, from, to, 500, at)
            .expect("cross-shard");
        assert_eq!(p.participants(), vec![0, 1]);
        let gid = p.gid;
        coord.decide(&mut sd, p, true, at);
        assert!(coord.decided_commit(gid));
        assert_ne!(sd.shards[0].db.dump_table(orders), before_pay);
        assert_ne!(sd.shards[1].db.dump_table(customers), before_credit);

        // An aborted transfer leaves both shards untouched.
        let snap_pay = sd.shards[0].db.dump_table(orders);
        let snap_credit = sd.shards[1].db.dump_table(customers);
        let p = coord
            .begin_transfer(&mut sd, from + 1, to - 1, 500, at)
            .expect("cross-shard");
        coord.decide(&mut sd, p, false, at);
        assert_eq!(sd.shards[0].db.dump_table(orders), snap_pay);
        assert_eq!(sd.shards[1].db.dump_table(customers), snap_credit);
        assert_eq!(coord.stats.committed, 1);
        assert_eq!(coord.stats.aborted, 1);
    }

    #[test]
    fn coordinator_crash_resolution_joins_votes_with_the_decision_log() {
        use cb_engine::recovery::{redo_net_effects, undo_losers};
        // The coordinator dies after `steps` of phase two — 0: votes only,
        // 1: decision logged, 2: first participant told — and recovery must
        // roll `resolved` in-doubt votes forward across the fleet.
        for (steps, resolved_votes) in [(0, 0), (1, 2), (2, 1)] {
            let map = range_map_for(1, 2000, 2);
            let mut sd = ShardedDeployment::new(SutProfile::aws_rds(), 1, 2000, map, 5);
            let hi = sd.shards[0].shape.orders as i64;
            let at = SimTime::ZERO + SimDuration::from_secs(1);
            let mut coord = TwoPhaseCoordinator::new();

            let p1 = coord.begin_transfer(&mut sd, 1, hi, 100, at).unwrap();
            let committed_gid = p1.gid;
            coord.decide(&mut sd, p1, true, at);
            let touched = [sd.shards[0].tables.orders, sd.shards[1].tables.customer];
            let before_crash = [
                sd.shards[0].db.dump_table(touched[0]),
                sd.shards[1].db.dump_table(touched[1]),
            ];

            let mut p2 = coord.begin_transfer(&mut sd, 2, hi - 1, 100, at).unwrap();
            let crashed_gid = p2.gid;
            if steps >= 1 {
                coord.record_decision(&mut p2, true);
            }
            if steps >= 2 {
                assert!(coord.deliver_next(&mut sd, &mut p2, at));
                assert_eq!(p2.participants(), vec![1], "the payer heard first");
            }
            drop(p2);

            let mut resolved_total = 0;
            for (s, shard) in sd.shards.iter_mut().enumerate() {
                let tail: Vec<WalRecord> =
                    shard.db.log().records_after(Lsn::ZERO).cloned().collect();
                let refs: Vec<&WalRecord> = tail.iter().collect();
                let in_doubt = in_doubt_txns(&tail);
                assert!(
                    in_doubt.iter().all(|&(_, gid)| gid == crashed_gid),
                    "only the undelivered vote is in doubt"
                );
                // The payer (shard 0) is out of doubt once it was told.
                assert_eq!(in_doubt.len(), usize::from(steps < 2 || s == 1));
                let resolved = coord.resolve(&in_doubt);
                resolved_total += resolved.len();

                let mut rebuilt = shard.base_database();
                redo_net_effects(&mut rebuilt, &refs, &resolved);
                shard.db.simulate_crash();
                undo_losers(&mut shard.db, &tail, tail.len(), &resolved);
                for t in shard.db.tables() {
                    assert_eq!(
                        shard.db.dump_table(t.id()),
                        rebuilt.dump_table(t.id()),
                        "steps {steps} shard {s}: rebuild-from-base vs in-place undo on {}",
                        t.name()
                    );
                }
                // No logged decision: presumed abort on both shards. A
                // logged one: rolled forward on both, never on one.
                assert_eq!(
                    rebuilt.dump_table(touched[s]) != before_crash[s],
                    steps >= 1,
                    "steps {steps} shard {s}"
                );
            }
            assert_eq!(resolved_total, resolved_votes, "steps {steps}");
            assert!(coord.decided_commit(committed_gid));
            assert_eq!(coord.decided_commit(crashed_gid), steps >= 1);
        }
    }
}
