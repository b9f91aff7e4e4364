//! The virtual-time workload driver.
//!
//! One event loop ([`run`] for a closed-loop client population,
//! [`crate::openloop::run_open_loop`] for an arrival plan) executes the
//! CloudyBench transactions against a [`Deployment`] on the virtual clock:
//! every transaction runs *logically for real* in the engine while its
//! simulated duration comes from CPU reservation on the executing node,
//! accumulated I/O waits, lock waits (virtual-time 2PL), node availability
//! (restarts, pause/resume) and a fixed client round trip. Controllers —
//! autoscaler sampling, elastic pool rebalancing, checkpoints, failure
//! injection, GC — run as events on the same clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cb_cluster::{plan_failover, plan_ro_failover, Autoscaler, FailoverTimeline};
use cb_engine::exec::RemoteTier;
use cb_engine::recovery::analyze;
use cb_engine::sql::execute;
use cb_engine::{EvictionPolicyKind, ExecCtx, IsolationLevel, Value};
use cb_obs::{Category, LogHistogram, ObsSink};
use cb_sim::{DetRng, EventQueue, SimDuration, SimTime, TpsRecorder};
use cb_store::Lsn;

use crate::deploy::Deployment;
use crate::openloop::ArrivalSource;
use crate::workload::{AccessDistribution, KeyPartition, TxnKind, TxnMix};

/// Client-to-server round trip inside one VPC, paid once per *statement* —
/// the paper's driver, like any JDBC client, ships each statement of a
/// transaction separately, which is what makes TPS climb with concurrency
/// until the server saturates (Fig 5's shape).
pub const CLIENT_RTT: SimDuration = SimDuration::from_micros(1200);

/// Orders touched by one T5 range sweep. Sized so a single scan pulls a few
/// hundred leaf pages through the buffer pool — enough to evict a 44 MB
/// (scaled) pool's entire hot set under pure LRU, which is exactly the
/// pollution pattern the scan-resistant policies (SIEVE / LRU-K) are meant
/// to survive.
pub const SCAN_SPAN: i64 = 4096;

/// One tenant's offered load: a concurrency schedule plus workload shape.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Concurrency per time slot (the paper varies this per minute).
    pub slots: Vec<u32>,
    /// Length of one slot.
    pub slot_len: SimDuration,
    /// Transaction mix.
    pub mix: TxnMix,
    /// Access distribution.
    pub dist: AccessDistribution,
    /// Key-space slice this tenant works on.
    pub partition: KeyPartition,
}

impl TenantSpec {
    /// A constant-concurrency tenant over `duration`.
    pub fn constant(
        concurrency: u32,
        duration: SimDuration,
        mix: TxnMix,
        dist: AccessDistribution,
        partition: KeyPartition,
    ) -> Self {
        TenantSpec {
            slots: vec![concurrency],
            slot_len: duration,
            mix,
            dist,
            partition,
        }
    }

    /// Total schedule length.
    pub(crate) fn duration(&self) -> SimDuration {
        self.slot_len * self.slots.len() as u64
    }

    /// Concurrency at `t` (0 beyond the schedule). Slots are half-open
    /// `[k*slot_len, (k+1)*slot_len)`, so the instant a slot ends its
    /// concurrency no longer applies. A zero-length slot schedule covers no
    /// instant at all and reports 0 everywhere.
    pub(crate) fn concurrency_at(&self, t: SimTime) -> u32 {
        if self.slot_len.is_zero() {
            return 0;
        }
        let idx = (t.as_nanos() / self.slot_len.as_nanos()) as usize;
        self.slots.get(idx).copied().unwrap_or(0)
    }

    /// The earliest instant at or after `t` when client `idx` is active,
    /// if any.
    ///
    /// Boundary semantics: slots are half-open, so a client whose only
    /// active window is a single slot — even one shorter than a transaction
    /// — is still admitted at the slot's start instant (the driver steps it
    /// there and the transaction runs to completion past the window). A
    /// query at exactly the end of the client's last active slot finds no
    /// later activation and returns `None`. Zero-length slots cover no
    /// instant and never activate anyone.
    pub(crate) fn next_activation(&self, t: SimTime, idx: u32) -> Option<SimTime> {
        if self.slot_len.is_zero() {
            return None;
        }
        let mut slot = (t.as_nanos() / self.slot_len.as_nanos()) as usize;
        if slot >= self.slots.len() {
            return None;
        }
        if self.slots[slot] > idx {
            return Some(t);
        }
        slot += 1;
        while slot < self.slots.len() {
            if self.slots[slot] > idx {
                return Some(SimTime::ZERO + self.slot_len * slot as u64);
            }
            slot += 1;
        }
        None
    }

    /// Peak concurrency (client population size).
    pub(crate) fn max_concurrency(&self) -> u32 {
        self.slots.iter().copied().max().unwrap_or(0)
    }
}

/// How tenants map onto compute nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeMapping {
    /// All tenants share node 0 (RW); read-only transactions fan out over
    /// the RO replicas.
    RwWithRo,
    /// Tenant `i` runs on node `i` (elastic pool / branches).
    PerTenant,
}

/// How vCores are controlled during the run.
pub enum VcoreControl {
    /// Each node runs the SUT's own scaling policy (fixed tiers no-op).
    PolicyPerNode,
    /// An elastic pool reallocates a shared vCore budget across per-tenant
    /// nodes (CDB2 multi-tenancy).
    ElasticPool {
        /// Total vCores in the pool.
        total: f64,
        /// Guaranteed minimum per active tenant.
        min_share: f64,
        /// Rebalance period.
        interval: SimDuration,
    },
    /// Leave allocations exactly as deployed.
    Fixed,
}

/// A failure injection plan (the paper's restart model).
#[derive(Clone, Copy, Debug)]
pub struct FailurePlan {
    /// When to inject.
    pub at: SimTime,
    /// Target an RO node instead of the RW primary.
    pub target_ro: bool,
}

/// A scheduled change to the offered workload, applied from `at` onward —
/// the NDBench-style dynamic-workload events ROADMAP item 5 calls for. A
/// shift runs on the driver clock: every transaction attempt at or after
/// `at` draws from the shifted shape. Fields left `None` keep the tenant's
/// spec value; later events override earlier ones, so push shifts in
/// ascending `at` order. Concurrency ("rate" in the closed loop) changes
/// are expressed either through the tenant's slot schedule or through
/// [`ShiftEvent::pace`].
#[derive(Clone, Copy, Debug)]
pub struct ShiftEvent {
    /// When the shift takes effect.
    pub at: SimTime,
    /// Tenant it applies to (`None` = every tenant).
    pub tenant: Option<usize>,
    /// New transaction mix, if shifting the mix.
    pub mix: Option<TxnMix>,
    /// New access distribution, if shifting the skew.
    pub dist: Option<AccessDistribution>,
    /// Client pacing factor in `(0, 1]`: after each committed transaction
    /// the client idles for `latency * (1/pace - 1)` before its next
    /// attempt, throttling its offered rate to roughly `pace` times the
    /// unthrottled closed-loop rate. `1.0` (the default) is a strict no-op.
    pub pace: Option<f64>,
}

impl ShiftEvent {
    /// An empty shift at `at` — combine with the builder methods.
    pub fn at(at: SimTime) -> Self {
        ShiftEvent {
            at,
            tenant: None,
            mix: None,
            dist: None,
            pace: None,
        }
    }

    /// Shift the transaction mix.
    pub fn mix(mut self, mix: TxnMix) -> Self {
        self.mix = Some(mix);
        self
    }

    /// Shift the access distribution.
    pub fn dist(mut self, dist: AccessDistribution) -> Self {
        self.dist = Some(dist);
        self
    }

    /// Throttle the closed-loop rate by `pace` in `(0, 1]`.
    pub fn pace(mut self, pace: f64) -> Self {
        assert!(pace > 0.0 && pace <= 1.0, "pace must be in (0, 1]");
        self.pace = Some(pace);
        self
    }
}

/// Resolve the workload shape in effect for `tenant` at instant `t`: the
/// spec's own shape overridden by every matching shift at or before `t`,
/// later shifts winning. With no shifts this returns the spec's fields
/// untouched (and pace 1.0), so pre-shift runs stay bit-identical.
fn effective_shape<'a>(
    spec: &'a TenantSpec,
    shifts: &'a [ShiftEvent],
    tenant: usize,
    t: SimTime,
) -> (&'a TxnMix, &'a AccessDistribution, f64) {
    let mut mix = &spec.mix;
    let mut dist = &spec.dist;
    let mut pace = 1.0_f64;
    for s in shifts {
        if s.at <= t && s.tenant.is_none_or(|x| x == tenant) {
            if let Some(m) = &s.mix {
                mix = m;
            }
            if let Some(d) = &s.dist {
                dist = d;
            }
            if let Some(p) = s.pace {
                pace = p;
            }
        }
    }
    (mix, dist, pace)
}

/// Options for one run.
pub struct RunOptions {
    /// Workload RNG seed.
    pub seed: u64,
    /// Tenant-to-node mapping.
    pub mapping: NodeMapping,
    /// vCore control mode.
    pub vcores: VcoreControl,
    /// Collect replication-lag samples.
    pub collect_lag: bool,
    /// Optional failure injection.
    pub failure: Option<FailurePlan>,
    /// Transaction isolation for the whole run. `None` defers to the SUT
    /// profile's `default_isolation` (READ COMMITTED on all five, the
    /// vendors' shipped default). Versioned levels turn write-write
    /// conflicts into first-committer-wins aborts (counted in
    /// [`RunResult::si_aborts`], retried by the client loop) and serve
    /// reads from the snapshot at transaction start — never blocking,
    /// never registering in the lock table.
    pub isolation: Option<IsolationLevel>,
    /// Buffer-pool replacement policy for every pool in the deployment
    /// (local pools and the shared remote tier). The default, LRU, is what
    /// the modelled services ship and what every pool is built with, so
    /// selecting it is a strict no-op and pre-policy runs stay
    /// bit-identical.
    pub eviction: EvictionPolicyKind,
    /// Observability sink: span tracing, histograms, counters. Disabled by
    /// default (zero overhead); enable with `ObsSink::enabled()` to capture
    /// a full virtual-time trace of the run.
    pub obs: ObsSink,
    /// Mid-run workload shifts (mix/skew/pace change events on the driver
    /// clock), in ascending `at` order. Empty (the default) is a strict
    /// no-op: every pre-shift run stays bit-identical.
    pub shifts: Vec<ShiftEvent>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 7,
            mapping: NodeMapping::RwWithRo,
            vcores: VcoreControl::PolicyPerNode,
            collect_lag: false,
            failure: None,
            isolation: None,
            eviction: EvictionPolicyKind::default(),
            obs: ObsSink::disabled(),
            shifts: Vec::new(),
        }
    }
}

impl RunOptions {
    /// What an evaluator's runs inherit from the caller's base options:
    /// `seed`, `obs`, `isolation` and `eviction`. `mapping`, `vcores`,
    /// `failure`, `collect_lag` and `shifts` define the experiment itself,
    /// so they start from the default and the evaluator sets them.
    pub(crate) fn inherit(&self) -> RunOptions {
        RunOptions {
            seed: self.seed,
            isolation: self.isolation,
            eviction: self.eviction,
            obs: self.obs.clone(),
            ..RunOptions::default()
        }
    }

    /// Default options with `seed`: the base most evaluator tests pass.
    #[cfg(test)]
    pub(crate) fn seeded(seed: u64) -> RunOptions {
        RunOptions {
            seed,
            ..RunOptions::default()
        }
    }
}

/// Install the run's eviction policy on every pool of the deployment, and
/// tag the trace with the policy that ran (one instant on the buffer-pool
/// track — the per-policy `bufpool.*` counters then make the hit/miss
/// attribution unambiguous). Installing the already-active policy leaves
/// each pool untouched.
fn apply_eviction(dep: &mut Deployment, opts: &RunOptions) {
    let kind = opts.eviction;
    for node in &mut dep.nodes {
        node.pool.set_policy(kind);
    }
    if let Some(rp) = dep.remote_pool.as_mut() {
        rp.set_policy(kind);
    }
    if opts.obs.is_enabled() {
        opts.obs.instant(
            Category::BufferPool,
            &format!("policy:{}", kind.label()),
            0,
            SimTime::ZERO,
        );
    }
}

/// Per-tenant results.
pub struct TenantResult {
    /// Committed transactions per second-slot.
    pub tps: TpsRecorder,
    /// Total committed transactions.
    pub committed: u64,
    /// Sum of transaction latencies.
    pub latency_sum: SimDuration,
    /// Largest single latency.
    pub latency_max: SimDuration,
    /// Exact log-bucketed latency histogram, in nanoseconds. Every
    /// committed transaction is recorded (no sampling), so percentiles —
    /// including deep-tail ones — carry at most ~0.8% relative error.
    pub latency_hist: LogHistogram,
}

impl TenantResult {
    pub(crate) fn new(horizon: SimDuration) -> Self {
        TenantResult {
            // Capped at the run horizon: the driver never records past it,
            // and a corrupt far-future timestamp must not balloon the slots.
            tps: TpsRecorder::with_horizon(SimDuration::from_secs(1), horizon),
            committed: 0,
            latency_sum: SimDuration::ZERO,
            latency_max: SimDuration::ZERO,
            latency_hist: LogHistogram::new(),
        }
    }

    /// Mean latency.
    pub fn avg_latency(&self) -> SimDuration {
        if self.committed == 0 {
            SimDuration::ZERO
        } else {
            self.latency_sum / self.committed
        }
    }

    /// Average TPS over `[from, to)`. Zero-width or inverted windows report
    /// 0.0 rather than NaN/inf — evaluators probe sub-windows computed from
    /// timelines that can collapse (e.g. a fail-over that ends at the
    /// horizon).
    pub(crate) fn avg_tps(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.tps.avg_rate(from, to)
    }

    /// Latency percentile in milliseconds, from the exact histogram.
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        self.latency_hist.percentile(p) as f64 / 1e6
    }
}

/// Replication-lag statistics by DML class: per class, the millisecond sum
/// of the first 20 000 lags, added in commit order, and their count — all
/// the lag evaluator reads is the mean.
#[derive(Default)]
pub struct LagSamples {
    /// `(ms sum, samples)` for T1 inserts, T2 updates and T4 deletes.
    classes: [(f64, usize); 3],
}

impl LagSamples {
    /// Samples kept per class.
    const CAP: usize = 20_000;

    /// `kind`'s slot in `classes`; `None` for the read-only kinds.
    fn class(kind: TxnKind) -> Option<usize> {
        match kind {
            TxnKind::NewOrderline => Some(0),
            TxnKind::OrderPayment => Some(1),
            TxnKind::OrderlineDeletion => Some(2),
            TxnKind::OrderStatus | TxnKind::OrderRangeScan => None,
        }
    }

    fn push(&mut self, kind: TxnKind, lag: SimDuration) {
        let Some(c) = Self::class(kind) else {
            return;
        };
        let (sum, n) = &mut self.classes[c];
        if *n < Self::CAP {
            *sum += lag.as_millis_f64();
            *n += 1;
        }
    }

    /// Mean lag of `kind`'s class in milliseconds; 0.0 without samples.
    pub(crate) fn mean_ms(&self, kind: TxnKind) -> f64 {
        match Self::class(kind).map(|c| self.classes[c]) {
            Some((sum, n)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    /// Samples kept across the three classes.
    pub(crate) fn samples(&self) -> usize {
        self.classes.iter().map(|&(_, n)| n).sum()
    }
}

/// The result of one driven run.
pub struct RunResult {
    /// End of the schedule (virtual).
    pub horizon: SimTime,
    /// Per-tenant results.
    pub tenants: Vec<TenantResult>,
    /// Cluster-wide committed TPS.
    pub total: TpsRecorder,
    /// Replication-lag samples (if collected).
    pub lag: LagSamples,
    /// Fail-over timeline (if a failure was injected).
    pub failover: Option<FailoverTimeline>,
    /// Lock conflicts observed.
    pub lock_conflicts: u64,
    /// First-committer-wins aborts under versioned isolation (each is
    /// retried by the client loop, so this is also the retry count).
    /// Always 0 at READ COMMITTED, where conflicts block instead.
    pub si_aborts: u64,
}

impl RunResult {
    /// Cluster-wide average TPS over `[from, to)`. Degenerate windows
    /// (zero-width or inverted) report 0.0, never NaN/inf.
    pub fn avg_tps(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.total.avg_rate(from, to)
    }

    /// Cluster-wide average TPS over the whole horizon.
    pub fn overall_tps(&self) -> f64 {
        self.avg_tps(SimTime::ZERO, self.horizon)
    }
}

enum Event {
    Sample { node: usize },
    Apply { node: usize, target: f64 },
    Checkpoint,
    Rebalance,
    Inject,
    Gc,
}

/// What one transaction attempt produced.
enum StepOutcome {
    /// The attempt could not start (inactive node, pause/resume wait, lock
    /// conflict); retry at `resume_at`. The RNG has advanced — a retried
    /// attempt re-picks its transaction, exactly as the closed loop always
    /// has.
    Blocked {
        /// When to retry.
        resume_at: SimTime,
    },
    /// The transaction executed; it completes at `end`.
    Executed {
        /// Completion instant (commit + I/O + client round trips).
        end: SimTime,
        /// Which transaction ran (for recording).
        kind: TxnKind,
    },
}

/// The controller half of a run — autoscaler sampling, elastic-pool
/// rebalancing, checkpoints, failure injection, GC. Event scheduling order
/// is part of the determinism contract: sequence numbers break same-instant
/// ties FIFO.
struct Controllers {
    events: EventQueue<Event>,
    scalers: Vec<Option<Autoscaler>>,
    rebalance_busy: Vec<f64>,
    prev_checkpoint: Lsn,
}

impl Controllers {
    fn new(dep: &mut Deployment, tenants: &[TenantSpec], opts: &RunOptions) -> Self {
        let mut events: EventQueue<Event> = EventQueue::new();
        let mut scalers: Vec<Option<Autoscaler>> = (0..dep.nodes.len()).map(|_| None).collect();
        match &opts.vcores {
            VcoreControl::PolicyPerNode => {
                // Every compute node scales independently (serverless replicas
                // autoscale too — read-only load lands on them).
                let scaled_nodes = match opts.mapping {
                    NodeMapping::RwWithRo => dep.nodes.len(),
                    NodeMapping::PerTenant => tenants.len(),
                };
                let p = &dep.profile;
                for (n, node) in dep.nodes.iter_mut().enumerate().take(scaled_nodes) {
                    scalers[n] = Autoscaler::new(p.scaling, p.min_vcores, p.max_vcores, node);
                    if let Some(s) = &scalers[n] {
                        events.schedule(SimTime::ZERO + s.interval(), Event::Sample { node: n });
                    }
                }
            }
            VcoreControl::ElasticPool { interval, .. } => {
                events.schedule(SimTime::ZERO + *interval, Event::Rebalance);
            }
            VcoreControl::Fixed => {}
        }
        if let Some(interval) = dep.profile.checkpoint_interval {
            events.schedule(SimTime::ZERO + interval, Event::Checkpoint);
        }
        if let Some(plan) = opts.failure {
            events.schedule(plan.at, Event::Inject);
        }
        let gc_interval = SimDuration::from_secs(10);
        events.schedule(SimTime::ZERO + gc_interval, Event::Gc);

        Controllers {
            rebalance_busy: dep.nodes.iter().map(|n| n.cpu.busy_core_secs()).collect(),
            events,
            scalers,
            prev_checkpoint: Lsn::ZERO,
        }
    }
}

/// What one operation tracks while pending or in flight: a closed-loop
/// client for the whole run, or one open-loop arrival until it completes.
pub(crate) struct Op {
    /// Tenant whose workload shape and result lane the op uses.
    pub(crate) tenant: usize,
    /// Client index inside the tenant's population (selects its activation
    /// windows); arrival sources leave it 0.
    pub(crate) idx: u32,
    /// Scheduled instant — latency is measured from here. An arrival carries
    /// it from admission; a re-arming client takes the instant of its first
    /// attempt inside an active window.
    pub(crate) sched: Option<SimTime>,
    /// The op's RNG stream.
    pub(crate) rng: DetRng,
}

/// The one op table of a run: a slab with a free list, so memory is bounded
/// by the ops alive at once, plus the heap of ops ready to (re)attempt.
#[derive(Default)]
pub(crate) struct OpTable {
    slab: Vec<Option<Op>>,
    free: Vec<usize>,
    ready: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Ops alive right now.
    pub(crate) live: usize,
    /// Most ops alive at once.
    pub(crate) peak: usize,
}

impl OpTable {
    /// Track `op` and schedule its first attempt at `at`.
    pub(crate) fn admit(&mut self, op: Op, at: SimTime) {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(op);
                i
            }
            None => {
                self.slab.push(Some(op));
                self.slab.len() - 1
            }
        };
        self.ready.push(Reverse((at, i)));
    }

    fn retire(&mut self, i: usize) {
        self.slab[i] = None;
        self.free.push(i);
        self.live -= 1;
    }
}

/// Everything one run holds, so the event loop, the transaction attempt and
/// the controller events are methods instead of functions over a dozen
/// positional borrows.
pub(crate) struct RunCtx<'a> {
    dep: &'a mut Deployment,
    opts: &'a RunOptions,
    tenants: &'a [TenantSpec],
    ctl: Controllers,
    result: RunResult,
    ro_rr: usize,
    horizon: SimTime,
}

/// Drive `tenants` against `dep`. The run ends when every tenant's schedule
/// is exhausted.
pub fn run(dep: &mut Deployment, tenants: &[TenantSpec], opts: &RunOptions) -> RunResult {
    // The closed-loop load source: one op per client, admitted up front.
    let mut root_rng = DetRng::seeded(opts.seed);
    let clients = tenants.iter().map(|s| s.max_concurrency() as usize).sum();
    let mut ops = OpTable {
        slab: Vec::with_capacity(clients),
        free: Vec::with_capacity(clients),
        ready: BinaryHeap::with_capacity(clients),
        ..OpTable::default()
    };
    for (t, spec) in tenants.iter().enumerate() {
        for idx in 0..spec.max_concurrency() {
            let op = Op {
                tenant: t,
                idx,
                sched: None,
                rng: root_rng.fork((t as u64) << 32 | u64::from(idx)),
            };
            if let Some(at) = spec.next_activation(SimTime::ZERO, idx) {
                ops.admit(op, at);
            }
        }
    }
    RunCtx::new(dep, tenants, opts).drive(&mut ops, None)
}

impl<'a> RunCtx<'a> {
    /// Install the eviction policy, start the controllers and open the
    /// result over the longest tenant schedule.
    pub(crate) fn new(
        dep: &'a mut Deployment,
        tenants: &'a [TenantSpec],
        opts: &'a RunOptions,
    ) -> Self {
        assert!(!tenants.is_empty(), "at least one tenant required");
        apply_eviction(dep, opts);
        let horizon_d: SimDuration = tenants
            .iter()
            .map(TenantSpec::duration)
            .max()
            .expect("non-empty");
        let horizon = SimTime::ZERO + horizon_d;
        if opts.mapping == NodeMapping::PerTenant {
            assert!(
                dep.nodes.len() >= tenants.len(),
                "PerTenant mapping needs one node per tenant"
            );
        }
        let ctl = Controllers::new(dep, tenants, opts);
        let result = RunResult {
            horizon,
            tenants: tenants
                .iter()
                .map(|_| TenantResult::new(horizon_d))
                .collect(),
            total: TpsRecorder::with_horizon(SimDuration::from_secs(1), horizon_d),
            lag: LagSamples::default(),
            failover: None,
            lock_conflicts: 0,
            si_aborts: 0,
        };
        RunCtx {
            dep,
            opts,
            tenants,
            ctl,
            result,
            ro_rr: 0,
            horizon,
        }
    }

    /// The single event loop. Work at one instant runs in a fixed order:
    /// controller events, then tracked ops by `(time, slot)`, then the
    /// admission of a fresh arrival.
    ///
    /// The load source only decides where ops come from and what happens to
    /// an op's slot when its transaction completes. Without `arrivals` the
    /// ops already in `ops` are closed-loop clients: a completed op
    /// **re-arms** in its slot — same RNG stream, next attempt once the pace
    /// idle has passed, and only inside the client's activation windows.
    /// With an [`ArrivalSource`] ops are admitted lazily at their scheduled
    /// instants and a completed op **retires**; in max-throughput mode the
    /// source **replaces** it with a fresh op scheduled at the completion
    /// instant.
    pub(crate) fn drive(
        mut self,
        ops: &mut OpTable,
        mut arrivals: Option<&mut ArrivalSource>,
    ) -> RunResult {
        let horizon = self.horizon;
        let first =
            |a: Option<SimTime>, b: Option<SimTime>| a.is_some_and(|a| b.is_none_or(|b| a <= b));
        loop {
            let t_ctl = self.ctl.events.peek_time().filter(|t| *t < horizon);
            let t_op = ops
                .ready
                .peek()
                .map(|Reverse((t, _))| *t)
                .filter(|t| *t < horizon);
            let t_fresh = arrivals
                .as_ref()
                .and_then(|a| a.next_fresh)
                .filter(|t| *t < horizon);
            if first(t_ctl, t_op) && first(t_ctl, t_fresh) {
                self.handle_event();
            } else if first(t_op, t_fresh) {
                self.step_op(ops, arrivals.as_deref_mut());
            } else if let (Some(a), Some(_)) = (arrivals.as_deref_mut(), t_fresh) {
                a.admit_fresh(ops, &self.opts.obs);
            } else {
                break;
            }
        }
        self.result
    }

    /// Pop the next ready op and attempt its transaction: reschedule it if
    /// the attempt blocked, otherwise record the completion and re-arm,
    /// retire or replace the op's slot.
    fn step_op(&mut self, ops: &mut OpTable, mut arrivals: Option<&mut ArrivalSource>) {
        let (tenants, opts, horizon) = (self.tenants, self.opts, self.horizon);
        let Reverse((t, i)) = ops.ready.pop().expect("op time was peeked");
        let op = ops.slab[i].as_mut().expect("a ready op has a live slot");
        let spec = &tenants[op.tenant];
        if arrivals.is_none() {
            // A client only attempts inside its activation windows; a wait
            // that outlives the window abandons the transaction.
            match spec.next_activation(t, op.idx) {
                Some(at) if at == t => {}
                Some(at) => {
                    op.sched = None;
                    ops.ready.push(Reverse((at, i)));
                    return;
                }
                None => return ops.retire(i),
            }
        }
        let sched = *op.sched.get_or_insert(t);
        let (end, kind) = match self.attempt_txn(op.tenant, &mut op.rng, t) {
            StepOutcome::Blocked { resume_at } => {
                if let Some(a) = arrivals {
                    a.count_blocked(&opts.obs);
                }
                if resume_at < horizon {
                    ops.ready.push(Reverse((resume_at, i)));
                } else {
                    // Abandoned at the horizon; drop the slot.
                    ops.retire(i);
                }
                return;
            }
            StepOutcome::Executed { end, kind } => (end, kind),
        };
        if end <= horizon {
            self.record_completion(arrivals.as_deref_mut(), op.tenant, kind, sched, t, end);
        }
        match arrivals {
            None => {
                // Re-arm. Pace is a closed-loop rate throttle: idle long
                // enough that this client's completion rate is `pace` times
                // its unthrottled rate. Exactly zero extra wait at pace 1.0.
                let (_, _, pace) = effective_shape(spec, &opts.shifts, op.tenant, t);
                let mut ready = end;
                if pace < 1.0 {
                    let lat = end.saturating_since(sched);
                    let idle = lat.as_nanos() as f64 * (1.0 / pace - 1.0);
                    ready = end + SimDuration::from_secs_f64(idle / 1e9);
                }
                op.sched = None;
                if ready < horizon {
                    ops.ready.push(Reverse((ready, i)));
                } else {
                    ops.retire(i);
                }
            }
            Some(a) => {
                // Retire before any replacement is drawn so the tracked-op
                // peak never exceeds the in-flight population.
                ops.retire(i);
                if end < horizon {
                    a.replace(ops, end);
                }
            }
        }
    }

    /// Record one completed transaction: throughput at `end`, latency from
    /// the op's scheduled instant, and the `Txn` span. An arrival source
    /// keeps latency to the ops scheduled inside its measurement window.
    fn record_completion(
        &mut self,
        arrivals: Option<&mut ArrivalSource>,
        tenant: usize,
        kind: TxnKind,
        sched: SimTime,
        start: SimTime,
        end: SimTime,
    ) {
        let obs = &self.opts.obs;
        let tr = &mut self.result.tenants[tenant];
        tr.tps.record(end);
        self.result.total.record(end);
        tr.committed += 1;
        if arrivals.is_some_and(|a| !a.count_completion(sched, start, end, obs)) {
            return;
        }
        let lat = end.saturating_since(sched);
        tr.latency_sum += lat;
        tr.latency_max = tr.latency_max.max(lat);
        tr.latency_hist.record(lat.as_nanos());
        obs.span(Category::Txn, kind.label(), tenant as u64, sched, end);
        obs.record("txn.latency_ns", lat.as_nanos());
    }

    /// One transaction attempt at instant `t`: pick the transaction and its
    /// node, pass the availability and lock gates, then execute it logically
    /// while accumulating simulated cost. The caller owns latency recording,
    /// because only it knows the operation's scheduled instant.
    fn attempt_txn(&mut self, tenant: usize, rng: &mut DetRng, t: SimTime) -> StepOutcome {
        let (dep, opts) = (&mut *self.dep, self.opts);
        let spec = &self.tenants[tenant];
        let (mix, dist, _) = effective_shape(spec, &opts.shifts, tenant, t);
        // Pick the transaction and its node.
        let kind = mix.pick(rng);
        let node_idx = match opts.mapping {
            NodeMapping::PerTenant => tenant,
            NodeMapping::RwWithRo => {
                if kind.is_read_only() && dep.ro_count() > 0 {
                    // Read-only transactions balance across *all* available
                    // nodes — the primary serves reads too (otherwise adding
                    // the first replica would not change throughput at all).
                    let n = dep.nodes.len();
                    let mut chosen = None;
                    for k in 0..n {
                        let cand = (self.ro_rr + k) % n;
                        if dep.nodes[cand].is_available(t) {
                            chosen = Some(cand);
                            self.ro_rr = (cand + 1) % n;
                            break;
                        }
                    }
                    chosen.unwrap_or(0)
                } else {
                    0
                }
            }
        };

        // Node availability gates.
        match dep.nodes[node_idx].available_at(t) {
            Some(at) if at > t => {
                return StepOutcome::Blocked { resume_at: at };
            }
            Some(_) => {
                dep.nodes[node_idx].refresh_status(t);
            }
            None => {
                // Paused: demand arrival triggers resume.
                let delay = Autoscaler::RESUME_DELAY;
                dep.nodes[node_idx].resume(t, dep.profile.min_vcores.max(0.25), delay);
                return StepOutcome::Blocked {
                    resume_at: t + delay,
                };
            }
        }
        // A restart can race with a pause (failure injected on a paused node):
        // the node reports available but its CPU is still at zero. Resume it.
        if dep.nodes[node_idx].cpu.is_paused() {
            let delay = Autoscaler::RESUME_DELAY;
            dep.nodes[node_idx].resume(t, dep.profile.min_vcores.max(0.25), delay);
            return StepOutcome::Blocked {
                resume_at: t + delay,
            };
        }

        // Generate parameters.
        let p = spec.partition;
        // Divide before narrowing: microseconds fit an i64 for every `t`.
        let now_ts = (t.as_nanos() / 1_000) as i64;
        let orderline_hwm = dep.db.table(dep.tables.orderline).next_auto_key() - 1;
        // No kind writes more than one predictable key.
        let (wait_key, o_id, ol_id): (Option<(cb_store::TableId, i64)>, i64, i64) = match kind {
            TxnKind::NewOrderline => {
                let o = dist.pick_order(rng, p.orders_lo, p.orders_hi);
                (None, o, 0)
            }
            TxnKind::OrderPayment => {
                let o = dist.pick_order(rng, p.orders_lo, p.orders_hi);
                (Some((dep.tables.orders, o)), o, 0)
            }
            TxnKind::OrderStatus => {
                let o = dist.pick_order(rng, p.orders_lo, p.orders_hi);
                (None, o, 0)
            }
            TxnKind::OrderlineDeletion => {
                let ol = rng.range_inclusive(1, orderline_hwm.max(1));
                (Some((dep.tables.orderline, ol)), 0, ol)
            }
            TxnKind::OrderRangeScan => {
                // Uniform start within the partition: the sweep deliberately
                // ignores the tenant's access distribution so it drags cold
                // pages through the pool. One RNG draw, like the other kinds.
                let o = rng.range_inclusive(p.orders_lo, p.orders_hi);
                (None, o, 0)
            }
        };

        let iso = opts.isolation.unwrap_or(dep.profile.default_isolation);
        if iso.is_versioned() {
            // First-committer-wins: a write key held by a concurrent writer
            // (its lock release time *is* its commit instant) aborts this
            // attempt, to be retried once the winner has committed. Under the
            // serializable approximation the T3 status check also validates
            // its read key; snapshot reads themselves never consult or
            // register locks.
            let probed = dep.db.locks_mut().conflict_probe(wait_key.as_slice(), t);
            let read_probe = if iso == IsolationLevel::Serializable && kind == TxnKind::OrderStatus
            {
                dep.db
                    .locks_mut()
                    .conflict_probe(&[(dep.tables.orders, o_id)], t)
            } else {
                None
            };
            if let Some(until) = probed.max(read_probe) {
                self.result.si_aborts += 1;
                opts.obs
                    .span(Category::Mvcc, "abort-retry", tenant as u64, t, until);
                opts.obs.add("mvcc.aborts", 1);
                opts.obs.record(
                    "mvcc.retry_backoff_ns",
                    until.saturating_since(t).as_nanos(),
                );
                return StepOutcome::Blocked { resume_at: until };
            }
        } else if wait_key.is_some() {
            // Virtual-time 2PL: wait for conflicting writers.
            if let Some(until) = dep.db.locks_mut().conflict_probe(wait_key.as_slice(), t) {
                self.result.lock_conflicts += 1;
                opts.obs
                    .span(Category::Lock, "wait", tenant as u64, t, until);
                opts.obs.add("lock.conflicts", 1);
                opts.obs
                    .record("lock.wait_ns", until.saturating_since(t).as_nanos());
                return StepOutcome::Blocked { resume_at: until };
            }
        }

        // Execute logically, accumulating simulated cost.
        let Deployment {
            profile,
            db,
            storage,
            group_commit,
            nodes,
            streams,
            remote_pool,
            registry,
            stmts,
            tables,
            ..
        } = dep;
        let node = &mut nodes[node_idx];
        let remote = remote_pool.as_mut().map(|pool| RemoteTier { pool });
        let mut ctx = ExecCtx::new(t, &mut node.pool, remote, storage, &profile.cost_model)
            .with_obs(&opts.obs, node_idx as u64)
            .with_group_commit(group_commit)
            .with_isolation(iso);
        let mut txn = db.begin();
        match kind {
            TxnKind::NewOrderline => {
                let params = [
                    Value::Int(o_id),
                    Value::Int(rng.range_inclusive(1, 100_000)),
                    Value::Int(rng.range_inclusive(1, 10)),
                    Value::Int(rng.range_inclusive(100, 50_000)),
                ];
                execute(
                    db,
                    &mut ctx,
                    &mut txn,
                    &registry[stmts.t1_new_orderline],
                    &params,
                )
                .expect("t1 must execute");
            }
            TxnKind::OrderPayment => {
                let out = execute(
                    db,
                    &mut ctx,
                    &mut txn,
                    &registry[stmts.t2_select_order],
                    &[Value::Int(o_id)],
                )
                .expect("t2 select must execute");
                if let Some(row) = out.row {
                    let c_id = row.int(1);
                    execute(
                        db,
                        &mut ctx,
                        &mut txn,
                        &registry[stmts.t2_pay_order],
                        &[Value::Timestamp(now_ts), Value::Int(o_id)],
                    )
                    .expect("t2 pay must execute");
                    execute(
                        db,
                        &mut ctx,
                        &mut txn,
                        &registry[stmts.t2_credit_customer],
                        &[
                            Value::Int(rng.range_inclusive(1, 10_000)),
                            Value::Timestamp(now_ts),
                            Value::Int(c_id),
                        ],
                    )
                    .expect("t2 credit must execute");
                }
            }
            TxnKind::OrderStatus => {
                execute(
                    db,
                    &mut ctx,
                    &mut txn,
                    &registry[stmts.t3_order_status],
                    &[Value::Int(o_id)],
                )
                .expect("t3 must execute");
            }
            TxnKind::OrderlineDeletion => {
                execute(
                    db,
                    &mut ctx,
                    &mut txn,
                    &registry[stmts.t4_delete_orderline],
                    &[Value::Int(ol_id)],
                )
                .expect("t4 must execute");
            }
            TxnKind::OrderRangeScan => {
                // T5 bypasses the statement registry (whose shape is pinned by
                // the deploy tests) and drives the clustered tree directly; the
                // same page/row cost accounting applies via ExecCtx.
                let hi = o_id.saturating_add(SCAN_SPAN - 1).min(p.orders_hi);
                db.scan_range(&mut ctx, tables.orders, o_id, hi, |_, _| true);
            }
        }
        let committed = db.commit(&mut ctx, txn);
        let cpu_demand = ctx.cpu;
        let io_wait = ctx.io;
        let stmt_count = ctx.stats.statements;

        // Timing: CPU reservation (including post-restart warm-up work: cache
        // re-population, connection re-establishment — which is what actually
        // suppresses throughput during the R-Score window), then I/O, then the
        // client round trip.
        let warmup = node.warmup_penalty(t, profile.failover.warmup_peak);
        let slot = node.cpu.reserve(t, cpu_demand + warmup);
        let end = slot.end + io_wait + CLIENT_RTT * stmt_count.max(1);

        // Register write locks until the commit instant.
        if !committed.writes.is_empty() {
            db.locks_mut().register(&committed.writes, end);
            // Publish version-chain pre-images, visible from the commit
            // instant: snapshot readers inside (t, end) resolve to the rows as
            // they stood before this transaction. Atomic with the logical
            // execution, so the overlay never lags the tree.
            if iso.is_versioned() {
                db.publish_versions(&committed, end);
                opts.obs
                    .add("mvcc.published", committed.writes.len() as u64);
            }
            // Ship to replicas.
            let dml = committed.writes.len() as u64;
            for (ri, stream) in streams.iter_mut().enumerate() {
                let applied = stream.on_commit(committed.lsn, end, dml);
                opts.obs.span(
                    Category::Replication,
                    "ship+replay",
                    ri as u64 + 1,
                    end,
                    applied,
                );
                opts.obs.record(
                    "replication.lag_ns",
                    applied.saturating_since(end).as_nanos(),
                );
                if opts.collect_lag && ri == 0 {
                    self.result.lag.push(kind, applied.saturating_since(end));
                }
            }
        }
        StepOutcome::Executed { end, kind }
    }

    /// Pop and handle the next controller event (must exist — peek first).
    fn handle_event(&mut self) {
        let RunCtx {
            dep,
            opts,
            tenants,
            ctl,
            result,
            horizon,
            ..
        } = self;
        let (dep, horizon) = (&mut **dep, *horizon);
        let (now, ev) = ctl.events.pop().expect("an event was peeked");
        match ev {
            Event::Sample { node } => {
                let Some(scaler) = ctl.scalers[node].as_mut() else {
                    return;
                };
                let n = &dep.nodes[node];
                let util = scaler.observe(n, now);
                let offered = match opts.mapping {
                    NodeMapping::RwWithRo => tenants.iter().any(|s| s.concurrency_at(now) > 0),
                    NodeMapping::PerTenant => {
                        tenants.get(node).is_some_and(|s| s.concurrency_at(now) > 0)
                    }
                };
                // Every sample asks for a decision, even with one pending.
                if let Some(decision) = scaler.decide(now, util, n.cpu.vcores(), offered) {
                    opts.obs
                        .instant(Category::Autoscale, "decide", node as u64, now);
                    opts.obs.add("autoscale.decisions", 1);
                    if decision.effective_at < horizon {
                        ctl.events.schedule(
                            decision.effective_at,
                            Event::Apply {
                                node,
                                target: decision.target_vcores,
                            },
                        );
                    }
                }
                let next = now + scaler.interval();
                if next < horizon {
                    ctl.events.schedule(next, Event::Sample { node });
                }
            }
            Event::Apply { node, target } => {
                let n = &mut dep.nodes[node];
                let scaled_up = target > n.cpu.vcores() + 1e-9;
                opts.obs.instant(
                    Category::Autoscale,
                    if scaled_up { "scale-up" } else { "scale-down" },
                    node as u64,
                    now,
                );
                n.set_vcores(now, target);
                // Scaling-point disruption: the tier briefly refuses requests
                // while it applies a *larger* allocation (the paper's CDB1
                // pain; its gradual downward steps are transparent).
                let disruption = dep.profile.scale_disruption;
                if scaled_up && !disruption.is_zero() {
                    dep.nodes[node].restart(now, disruption, SimDuration::ZERO);
                }
            }
            Event::Checkpoint => {
                let Deployment {
                    db, nodes, storage, ..
                } = dep;
                let keep_from = ctl.prev_checkpoint;
                let (lsn, flushed, io) = db.checkpoint(&mut nodes[0].pool, storage, now);
                opts.obs
                    .span(Category::Checkpoint, "checkpoint", 0, now, now + io);
                opts.obs.add("checkpoint.count", 1);
                opts.obs.add("checkpoint.flushed_pages", flushed);
                // Retain one full checkpoint interval of log for recovery.
                db.log_mut().truncate_through(keep_from);
                ctl.prev_checkpoint = lsn;
                if let Some(interval) = dep.profile.checkpoint_interval {
                    let next = now + interval;
                    if next < horizon {
                        ctl.events.schedule(next, Event::Checkpoint);
                    }
                }
            }
            Event::Rebalance => {
                let VcoreControl::ElasticPool {
                    total,
                    min_share,
                    interval,
                } = &opts.vcores
                else {
                    return;
                };
                let secs = interval.as_secs_f64();
                let mut demands = Vec::with_capacity(tenants.len());
                for (i, spec) in tenants.iter().enumerate() {
                    let busy = dep.nodes[i].cpu.busy_core_secs();
                    let used = (busy - ctl.rebalance_busy[i]) / secs;
                    ctl.rebalance_busy[i] = busy;
                    let con = spec.concurrency_at(now);
                    let demand = if con > 0 {
                        // Ask for observed usage plus headroom, with a
                        // concurrency-based floor: the pool hands the only busy
                        // tenant generous capacity (the paper's staggered-
                        // pattern behaviour), never below a quarter core.
                        (used / 0.7).max(0.08 * f64::from(con)).max(0.25)
                    } else {
                        0.0
                    };
                    demands.push(demand);
                }
                let alloc = cb_cluster::elastic_pool_allocate(&demands, *total, *min_share);
                for (i, v) in alloc.iter().enumerate() {
                    let node = &mut dep.nodes[i];
                    if *v <= 0.0 {
                        if !node.cpu.is_paused() {
                            node.pause(now);
                        }
                    } else if node.cpu.is_paused() {
                        node.resume(now, *v, SimDuration::from_millis(500));
                    } else {
                        node.set_vcores(now, *v);
                    }
                }
                let next = now + *interval;
                if next < horizon {
                    ctl.events.schedule(next, Event::Rebalance);
                }
            }
            Event::Inject => {
                let plan = opts.failure.expect("Inject implies a plan");
                let target = if plan.target_ro {
                    if dep.ro_count() == 0 {
                        return;
                    }
                    1
                } else {
                    0
                };
                // RO recovery does not redo/undo the primary's log tail.
                let timeline = if plan.target_ro {
                    plan_ro_failover(&dep.profile.failover, now)
                } else {
                    // The log may have been truncated past the last checkpoint
                    // on architectures that never checkpoint; analyze whatever
                    // tail is retained.
                    let from = dep
                        .db
                        .log()
                        .oldest_retained()
                        .map_or(dep.db.log().head(), |l| Lsn(l.0 - 1))
                        .max(dep.db.last_checkpoint());
                    let analysis = analyze(dep.db.log(), from);
                    opts.obs
                        .instant(Category::Recovery, "analyze", target as u64, now);
                    opts.obs.add("recovery.scanned_records", analysis.scanned);
                    plan_failover(&dep.profile.failover, now, &analysis)
                };
                opts.obs
                    .instant(Category::Failover, "inject", target as u64, now);
                for phase in &timeline.phases {
                    opts.obs.span(
                        Category::Failover,
                        phase.name,
                        target as u64,
                        phase.start,
                        phase.end,
                    );
                }
                let downtime = timeline.downtime();
                dep.nodes[target].restart(now, downtime, dep.profile.failover.warmup);
                if plan.target_ro {
                    if let Some(stream) = dep.streams.get_mut(target - 1) {
                        stream.reset(now + downtime);
                    }
                }
                result.failover = Some(timeline);
            }
            Event::Gc => {
                dep.db.locks_mut().gc(now);
                // MVCC watermark GC: transactions are atomic within one
                // attempt on the virtual clock — no snapshot taken before
                // `now` can still be live, so `now` is the watermark. No-op
                // at READ COMMITTED (nothing was published).
                let pruned = dep.db.versions_mut().gc(now);
                if pruned > 0 {
                    opts.obs.instant(Category::Mvcc, "gc", 0, now);
                    opts.obs.add("mvcc.gc.pruned", pruned);
                    opts.obs
                        .record("mvcc.chain_max", dep.db.versions().max_chain() as u64);
                }
                // Bound log memory on architectures without checkpoints: keep a
                // generous tail for fail-over analysis.
                if dep.profile.checkpoint_interval.is_none() {
                    let head = dep.db.log().head();
                    if dep.db.log().retained() > 400_000 {
                        dep.db.log_mut().truncate_through(Lsn(head.0 - 200_000));
                    }
                }
                let next = now + SimDuration::from_secs(10);
                if next < horizon {
                    ctl.events.schedule(next, Event::Gc);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_sut::SutProfile;

    #[test]
    fn tenant_spec_activation_windows() {
        let spec = TenantSpec {
            slots: vec![0, 3, 1, 0, 2],
            slot_len: SimDuration::from_secs(10),
            mix: TxnMix::read_only(),
            dist: AccessDistribution::Uniform,
            partition: KeyPartition::whole(100, 100),
        };
        assert_eq!(spec.duration(), SimDuration::from_secs(50));
        assert_eq!(spec.max_concurrency(), 3);
        assert_eq!(spec.concurrency_at(SimTime::from_secs(15)), 3);
        assert_eq!(
            spec.concurrency_at(SimTime::from_secs(55)),
            0,
            "beyond schedule"
        );
        // Client 0 first activates at slot 1.
        assert_eq!(
            spec.next_activation(SimTime::ZERO, 0),
            Some(SimTime::from_secs(10))
        );
        // Already active: activation is "now".
        assert_eq!(
            spec.next_activation(SimTime::from_secs(12), 0),
            Some(SimTime::from_secs(12))
        );
        // Client 2 is only active in slot 1 (concurrency 3).
        assert_eq!(
            spec.next_activation(SimTime::from_secs(25), 2),
            None,
            "no later slot reaches concurrency 3"
        );
        // Client 1 re-activates in slot 4 (concurrency 2).
        assert_eq!(
            spec.next_activation(SimTime::from_secs(25), 1),
            Some(SimTime::from_secs(40))
        );
    }

    #[test]
    fn activation_boundaries_are_half_open() {
        let spec = TenantSpec {
            slots: vec![0, 2, 0],
            slot_len: SimDuration::from_millis(50),
            mix: TxnMix::read_only(),
            dist: AccessDistribution::Uniform,
            partition: KeyPartition::whole(100, 100),
        };
        // A window shorter than one transaction still admits the client at
        // its start instant.
        assert_eq!(
            spec.next_activation(SimTime::ZERO, 0),
            Some(SimTime::from_millis(50))
        );
        // Query exactly at the end of the only active slot: the window is
        // half-open, so the client is *not* active and never will be again.
        assert_eq!(spec.next_activation(SimTime::from_millis(100), 0), None);
        // One nanosecond earlier it still is.
        assert_eq!(
            spec.next_activation(SimTime::from_nanos(99_999_999), 1),
            Some(SimTime::from_nanos(99_999_999))
        );
        assert_eq!(spec.concurrency_at(SimTime::from_millis(100)), 0);
        assert_eq!(spec.concurrency_at(SimTime::from_millis(99)), 2);
    }

    #[test]
    fn zero_length_slots_cover_nothing() {
        let spec = TenantSpec {
            slots: vec![5, 5],
            slot_len: SimDuration::ZERO,
            mix: TxnMix::read_only(),
            dist: AccessDistribution::Uniform,
            partition: KeyPartition::whole(100, 100),
        };
        assert_eq!(spec.duration(), SimDuration::ZERO);
        assert_eq!(spec.concurrency_at(SimTime::ZERO), 0);
        assert_eq!(spec.next_activation(SimTime::ZERO, 0), None);
        assert_eq!(spec.max_concurrency(), 5);
    }

    #[test]
    fn short_single_slot_window_still_runs_the_client() {
        // The active window (50ms) is much shorter than a transaction's
        // activation interval; the client must still execute at least once
        // rather than being silently skipped.
        let mut dep = quick_dep(SutProfile::aws_rds());
        let spec = TenantSpec {
            slots: vec![0, 1, 0, 0],
            slot_len: SimDuration::from_millis(50),
            mix: TxnMix::read_only(),
            dist: AccessDistribution::Uniform,
            partition: whole(&dep),
        };
        let r = run(&mut dep, &[spec], &RunOptions::default());
        assert!(
            r.tenants[0].committed >= 1,
            "client in a short slot must run, got {}",
            r.tenants[0].committed
        );
    }

    #[test]
    fn degenerate_tps_windows_report_zero() {
        let mut dep = quick_dep(SutProfile::aws_rds());
        let spec = TenantSpec::constant(
            8,
            SimDuration::from_secs(2),
            TxnMix::read_only(),
            AccessDistribution::Uniform,
            whole(&dep),
        );
        let r = run(&mut dep, &[spec], &RunOptions::default());
        let t1 = SimTime::from_secs(1);
        // Zero-width and inverted windows: 0.0, never NaN or inf.
        assert_eq!(r.avg_tps(t1, t1), 0.0);
        assert_eq!(r.avg_tps(SimTime::from_secs(2), t1), 0.0);
        assert_eq!(r.tenants[0].avg_tps(t1, t1), 0.0);
        assert_eq!(r.tenants[0].avg_tps(SimTime::from_secs(2), t1), 0.0);
        // Sanity: a real window still reports a finite positive rate.
        let tps = r.avg_tps(SimTime::ZERO, r.horizon);
        assert!(tps.is_finite() && tps > 0.0);
    }

    /// Pins the legacy closed-loop path bit-for-bit: these values were
    /// captured before the open-loop refactor extracted the shared
    /// transaction-attempt helper, and must never drift — `TenantSpec` runs
    /// are the baseline every other experiment compares against.
    #[test]
    fn closed_loop_results_are_pinned() {
        let pin = |r: &RunResult| {
            (
                r.tenants[0].committed,
                r.tenants[0].latency_sum.as_nanos(),
                r.tenants[0].latency_max.as_nanos(),
                r.lock_conflicts,
                r.overall_tps().to_bits(),
                r.tenants[0].latency_hist.percentile(99.0),
            )
        };

        let mut dep = quick_dep(SutProfile::aws_rds());
        let spec = TenantSpec::constant(
            16,
            SimDuration::from_secs(5),
            TxnMix::read_write(),
            AccessDistribution::Latest(64),
            whole(&dep),
        );
        let r = run(&mut dep, &[spec], &RunOptions::default());

        let mut dep = quick_dep(SutProfile::cdb3());
        let spec = TenantSpec::constant(
            12,
            SimDuration::from_secs(8),
            TxnMix::read_only(),
            AccessDistribution::Uniform,
            whole(&dep),
        );
        let opts = RunOptions {
            seed: 2025,
            ..RunOptions::default()
        };
        let r2 = run(&mut dep, &[spec], &opts);

        let mut dep = quick_dep(SutProfile::cdb4());
        let spec = TenantSpec::constant(
            10,
            SimDuration::from_secs(10),
            TxnMix::read_write(),
            AccessDistribution::Uniform,
            whole(&dep),
        );
        let opts = RunOptions {
            collect_lag: true,
            failure: Some(FailurePlan {
                at: SimTime::from_secs(4),
                target_ro: false,
            }),
            ..RunOptions::default()
        };
        let r3 = run(&mut dep, &[spec], &opts);

        assert_eq!(
            pin(&r),
            (
                50075,
                79981999700,
                7650900,
                80,
                4666731418804551680,
                4702207
            )
        );
        assert_eq!(
            pin(&r2),
            (24686, 95980135200, 7153372, 0, 4659004051084541952, 3891199)
        );
        assert_eq!(
            pin(&r3),
            (
                36757,
                99987475368,
                3502888233,
                4,
                4660301364854154854,
                5193727
            )
        );
    }

    /// Pins the open loop bit-for-bit, one cell per load source: Poisson
    /// fixed-rate, `maxtp:8` on a serverless profile with a replica, and a
    /// snapshot-isolation hot-key cell whose primary restarts mid-run.
    /// Values captured before the open-loop scheduler was folded into this
    /// module; they must never drift.
    #[test]
    fn open_loop_results_are_pinned() {
        use crate::openloop::{run_open_loop, OpenLoopResult, OpenLoopSpec};
        use cb_load::{ArrivalPlan, ArrivalProcess, PhasePlan};

        let pin = |r: &OpenLoopResult, dep: &Deployment| {
            (
                r.arrivals,
                r.completed,
                r.measured,
                r.blocked_retries,
                r.response_sum.as_nanos(),
                r.queue_depth_max,
                r.peak_tracked_ops,
                r.response_percentile_ms(99.0).to_bits(),
                dep.db.log().head().0,
            )
        };
        let phases = |measure_secs| {
            PhasePlan::new(
                SimDuration::from_millis(500),
                SimDuration::from_millis(500),
                SimDuration::from_secs(measure_secs),
            )
        };

        let mut dep = Deployment::new(SutProfile::aws_rds(), 1, 3000, 0, 7);
        let spec = OpenLoopSpec {
            plan: ArrivalPlan::fixed_rate(ArrivalProcess::poisson(4000.0), phases(2), 1000),
            mix: TxnMix::read_write(),
            dist: AccessDistribution::Latest(64),
            partition: whole(&dep),
        };
        let r = run_open_loop(&mut dep, &spec, &RunOptions::default());
        assert_eq!(
            pin(&r, &dep),
            (
                9300,
                9294,
                8011,
                6,
                12790307252,
                18,
                2,
                4616943339362495219,
                5785
            ),
            "poisson fixed-rate"
        );

        let mut dep = Deployment::new(SutProfile::cdb3(), 1, 3000, 1, 3);
        let spec = OpenLoopSpec {
            plan: ArrivalPlan::max_throughput(
                8,
                PhasePlan::measure_only(SimDuration::from_secs(3)),
            ),
            mix: TxnMix::read_write(),
            dist: AccessDistribution::Uniform,
            partition: whole(&dep),
        };
        let opts = RunOptions {
            seed: 2025,
            ..RunOptions::default()
        };
        let r = run_open_loop(&mut dep, &spec, &opts);
        assert_eq!(
            pin(&r, &dep),
            (
                6559,
                6551,
                6551,
                5,
                23984350108,
                8,
                8,
                4621668300481700183,
                4104
            ),
            "maxtp:8"
        );

        let mut dep = Deployment::new(SutProfile::cdb4(), 1, 3000, 1, 11);
        let spec = OpenLoopSpec {
            plan: ArrivalPlan::fixed_rate(ArrivalProcess::poisson(600.0), phases(7), 5000),
            mix: TxnMix::iud(60.0, 30.0, 10.0),
            dist: AccessDistribution::Latest(10),
            partition: whole(&dep),
        };
        let opts = RunOptions {
            seed: 11,
            isolation: Some(IsolationLevel::Snapshot),
            failure: Some(FailurePlan {
                at: SimTime::from_secs(2),
                target_ro: false,
            }),
            ..RunOptions::default()
        };
        let r = run_open_loop(&mut dep, &spec, &opts);
        assert!(r.run.si_aborts > 0 && r.run.failover.is_some());
        assert_eq!(
            pin(&r, &dep),
            (
                4427,
                4424,
                4206,
                3584,
                5472708151522,
                2136,
                2134,
                4661324477346383886,
                13718
            ),
            "snapshot isolation, latest-10, primary restart"
        );
    }

    /// PR 8 determinism pin: explicitly selecting READ COMMITTED (rather
    /// than deferring to the profile default) takes the exact pre-MVCC code
    /// path — single-client results must stay bit-identical forever.
    #[test]
    fn explicit_read_committed_single_client_is_pinned() {
        let mut dep = quick_dep(SutProfile::aws_rds());
        let spec = TenantSpec::constant(
            1,
            SimDuration::from_secs(5),
            TxnMix::read_write(),
            AccessDistribution::Latest(64),
            whole(&dep),
        );
        let opts = RunOptions {
            isolation: Some(IsolationLevel::ReadCommitted),
            ..RunOptions::default()
        };
        let r = run(&mut dep, &[spec], &opts);
        assert_eq!(r.si_aborts, 0, "RC never takes the FCW abort path");
        assert_eq!(
            (
                r.tenants[0].committed,
                r.tenants[0].latency_sum.as_nanos(),
                r.lock_conflicts,
                r.overall_tps().to_bits(),
                r.tenants[0].latency_hist.percentile(99.0),
            ),
            (3119, 4999498900, 0, 4648698218646234726, 4702207),
        );
    }

    /// Versioned isolation converts blocking into counted aborts: under a
    /// hot-write mix SI must retry (si_aborts > 0) while registering zero
    /// 2PL conflicts, and both SI and SER must still commit work.
    #[test]
    fn versioned_isolation_aborts_instead_of_blocking() {
        for iso in [IsolationLevel::Snapshot, IsolationLevel::Serializable] {
            let mut dep = quick_dep(SutProfile::aws_rds());
            let spec = TenantSpec::constant(
                16,
                SimDuration::from_secs(5),
                TxnMix::read_write(),
                AccessDistribution::Latest(64),
                whole(&dep),
            );
            let opts = RunOptions {
                isolation: Some(iso),
                ..RunOptions::default()
            };
            let r = run(&mut dep, &[spec], &opts);
            assert!(r.tenants[0].committed > 0, "{iso:?} commits work");
            assert!(r.si_aborts > 0, "{iso:?} detects FCW conflicts");
            assert_eq!(r.lock_conflicts, 0, "{iso:?} never blocks on 2PL");
            assert!(
                dep.db.versions().published() > 0,
                "{iso:?} publishes version chains"
            );
        }
    }

    #[test]
    fn lag_samples_cap_and_classify() {
        let mut lag = LagSamples::default();
        lag.push(TxnKind::NewOrderline, SimDuration::from_millis(1));
        lag.push(TxnKind::OrderPayment, SimDuration::from_millis(2));
        lag.push(TxnKind::OrderlineDeletion, SimDuration::from_millis(3));
        lag.push(TxnKind::OrderStatus, SimDuration::from_millis(4)); // ignored
        assert_eq!(lag.classes.map(|(_, n)| n), [1, 1, 1]);
        assert_eq!(lag.samples(), 3);
        assert!((lag.mean_ms(TxnKind::OrderPayment) - 2.0).abs() < 1e-9);
        assert_eq!(lag.mean_ms(TxnKind::OrderStatus), 0.0);
        assert_eq!(LagSamples::default().mean_ms(TxnKind::NewOrderline), 0.0);
        // Past the cap a class stops growing, and its mean stops moving.
        for _ in 0..LagSamples::CAP {
            lag.push(TxnKind::NewOrderline, SimDuration::from_millis(1));
        }
        lag.push(TxnKind::NewOrderline, SimDuration::from_millis(99));
        assert_eq!(lag.classes[0], (LagSamples::CAP as f64, LagSamples::CAP));
    }

    #[test]
    fn tenant_result_latency_math() {
        let mut tr = TenantResult::new(SimDuration::from_secs(60));
        assert_eq!(tr.avg_latency(), SimDuration::ZERO);
        tr.committed = 4;
        tr.latency_sum = SimDuration::from_millis(8);
        assert_eq!(tr.avg_latency(), SimDuration::from_millis(2));
    }

    fn quick_dep(profile: SutProfile) -> Deployment {
        Deployment::new(profile, 1, 1000, 1, 42)
    }

    fn whole(dep: &Deployment) -> KeyPartition {
        KeyPartition::whole(dep.shape.orders, dep.shape.customers)
    }

    #[test]
    fn constant_read_only_run_produces_throughput() {
        let mut dep = quick_dep(SutProfile::aws_rds());
        let spec = TenantSpec::constant(
            20,
            SimDuration::from_secs(5),
            TxnMix::read_only(),
            AccessDistribution::Uniform,
            whole(&dep),
        );
        let r = run(&mut dep, &[spec], &RunOptions::default());
        assert!(
            r.tenants[0].committed > 1000,
            "committed = {}",
            r.tenants[0].committed
        );
        assert!(r.overall_tps() > 200.0);
        assert!(r.tenants[0].avg_latency() >= CLIENT_RTT);
    }

    #[test]
    fn write_mix_replicates_and_lags() {
        let mut dep = quick_dep(SutProfile::cdb1());
        let spec = TenantSpec::constant(
            10,
            SimDuration::from_secs(5),
            TxnMix::read_write(),
            AccessDistribution::Uniform,
            whole(&dep),
        );
        let opts = RunOptions {
            collect_lag: true,
            ..RunOptions::default()
        };
        let r = run(&mut dep, &[spec], &opts);
        assert!(r.tenants[0].committed > 500);
        // The RW mix has no deletes: every sample is an insert or update.
        assert!(r.lag.samples() > 0);
        assert!(dep.streams[0].records() > 0, "replication stream saw DML");
    }

    #[test]
    fn latest_distribution_creates_contention() {
        let run_with = |dist| {
            let mut dep = quick_dep(SutProfile::aws_rds());
            let spec = TenantSpec::constant(
                30,
                SimDuration::from_secs(5),
                TxnMix::new(0.0, 100.0, 0.0, 0.0), // all T2 updates
                dist,
                whole(&dep),
            );
            run(&mut dep, &[spec], &RunOptions::default())
        };
        let uniform = run_with(AccessDistribution::Uniform);
        let hot = run_with(AccessDistribution::Latest(5));
        assert!(
            hot.lock_conflicts > uniform.lock_conflicts * 2,
            "hot {} vs uniform {}",
            hot.lock_conflicts,
            uniform.lock_conflicts
        );
        assert!(hot.overall_tps() < uniform.overall_tps());
    }

    #[test]
    fn schedule_slots_gate_concurrency() {
        let mut dep = quick_dep(SutProfile::aws_rds());
        // 2s busy, 2s idle, 2s busy.
        let spec = TenantSpec {
            slots: vec![10, 0, 10],
            slot_len: SimDuration::from_secs(2),
            mix: TxnMix::read_only(),
            dist: AccessDistribution::Uniform,
            partition: whole(&dep),
        };
        let r = run(&mut dep, &[spec], &RunOptions::default());
        let rates = r.total.rate_series();
        assert!(rates[0] > 100.0);
        assert!(rates[3] < rates[0] / 20.0, "idle slot ~quiet: {rates:?}");
        assert!(rates[4] > 100.0, "load resumes: {rates:?}");
    }

    #[test]
    fn failure_injection_stalls_then_recovers() {
        let mut dep = quick_dep(SutProfile::cdb4());
        let spec = TenantSpec::constant(
            20,
            SimDuration::from_secs(20),
            TxnMix::read_write(),
            AccessDistribution::Uniform,
            whole(&dep),
        );
        let opts = RunOptions {
            failure: Some(FailurePlan {
                at: SimTime::from_secs(5),
                target_ro: false,
            }),
            ..RunOptions::default()
        };
        let r = run(&mut dep, &[spec], &opts);
        let timeline = r.failover.as_ref().expect("timeline recorded");
        assert!(timeline.downtime() > SimDuration::from_secs(1));
        let rates = r.total.rate_series();
        // The second right after injection is (nearly) dead.
        assert!(rates[6] < rates[3] / 4.0, "failure dip expected: {rates:?}");
        // And throughput returns before the end.
        assert!(rates[18] > rates[3] / 2.0, "recovery expected: {rates:?}");
    }

    #[test]
    fn serverless_starts_at_minimum_and_scales_up() {
        let mut dep = quick_dep(SutProfile::cdb3());
        let spec = TenantSpec::constant(
            40,
            SimDuration::from_secs(240),
            TxnMix::read_only(),
            AccessDistribution::Uniform,
            whole(&dep),
        );
        let r = run(&mut dep, &[spec], &RunOptions::default());
        assert!(r.tenants[0].committed > 0);
        for n in &dep.nodes {
            assert_eq!(
                n.vcore_gauge.value_at(SimTime::ZERO),
                0.25,
                "starts at min CU"
            );
        }
        // The read-only load lands on the RO replica, which must scale up.
        let g = &dep.nodes[1].vcore_gauge;
        assert!(
            g.max_in(SimTime::ZERO, r.horizon) > 0.25,
            "scaled up under load"
        );
    }

    #[test]
    fn per_tenant_mapping_isolates_tenants() {
        // At least one node per tenant.
        let mut dep = Deployment::new(SutProfile::cdb3(), 1, 1000, 3, 42);
        let mk = |con: u32, dep: &Deployment, i: usize| {
            TenantSpec::constant(
                con,
                SimDuration::from_secs(4),
                TxnMix::read_only(),
                AccessDistribution::Uniform,
                KeyPartition::tenant_slice(dep.shape.orders, dep.shape.customers, i, 3),
            )
        };
        let specs = vec![mk(5, &dep, 0), mk(10, &dep, 1), mk(15, &dep, 2)];
        let opts = RunOptions {
            mapping: NodeMapping::PerTenant,
            vcores: VcoreControl::Fixed,
            ..RunOptions::default()
        };
        let r = run(&mut dep, &specs, &opts);
        assert_eq!(r.tenants.len(), 3);
        for t in &r.tenants {
            assert!(t.committed > 100);
        }
        // Higher concurrency -> higher or equal throughput on its own node.
        assert!(r.tenants[2].committed > r.tenants[0].committed);
    }
}
