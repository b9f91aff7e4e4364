//! The open-loop, arrival-driven load source.
//!
//! Where [`crate::driver::run`] feeds the driver's event loop a closed
//! population of clients (each issues its next transaction the instant the
//! previous one returns), [`run_open_loop`] feeds the same loop transaction
//! **arrivals** generated as an event stream from a [`cb_load`] plan,
//! independent of how fast the system under test drains them. Each operation carries a *scheduled* arrival instant;
//! its latency is measured from that instant to completion, so queueing
//! delay behind a stall is charged to the operation — the
//! coordinated-omission-correct response time — while the service time
//! (actual start → completion) and the scheduled-vs-actual-start lag are
//! recorded separately.
//!
//! Arrivals are pulled lazily from the generator one at a time, so memory is
//! bounded by the number of operations currently tracked (pending + in
//! flight), never by the modelled client population: a plan attributing
//! arrivals to a million logical clients costs the same as one with ten.
//! [`OpenLoopResult::peak_tracked_ops`] reports the realized bound.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cb_load::{ArrivalGen, ArrivalPlan, PhasePlan, PhasedArrivals, TestMode};
use cb_obs::{LogHistogram, ObsSink};
use cb_sim::{DetRng, SimDuration, SimTime};

use crate::deploy::Deployment;
use crate::driver::{Op, OpTable, RunCtx, RunOptions, RunResult, Sales, TenantSpec};
use crate::parallel::par_map;
use crate::workload::{AccessDistribution, KeyPartition, TxnMix};

/// One open-loop workload: an arrival plan plus the transaction shape every
/// arrival draws from.
#[derive(Clone, Debug)]
pub struct OpenLoopSpec {
    /// Arrival plan: test mode, phase windows, logical client population.
    pub plan: ArrivalPlan,
    /// Transaction mix.
    pub mix: TxnMix,
    /// Access distribution.
    pub dist: AccessDistribution,
    /// Key-space slice the load works on.
    pub partition: KeyPartition,
}

/// The result of one open-loop run.
///
/// The embedded [`RunResult`] carries the throughput timeline over the whole
/// run (all completions) while its latency fields hold only
/// measurement-window operations with coordinated-omission-correct response
/// times; use [`OpenLoopResult::mean_response_ms`] rather than
/// `TenantResult::avg_latency`, whose divisor counts all completions.
pub struct OpenLoopResult {
    /// Driver-level results: TPS timeline (all phases) and CO-corrected
    /// response-time histogram (measurement window only) in `tenants[0]`.
    pub run: RunResult,
    /// Arrivals generated (fixed-rate) or operations issued (max-throughput).
    pub arrivals: u64,
    /// Operations that completed within the horizon.
    pub completed: u64,
    /// Operations scheduled inside the measurement window that completed.
    pub measured: u64,
    /// Blocked-attempt retries (node waits, pause/resume, lock conflicts).
    pub blocked_retries: u64,
    /// Sum of CO-corrected response times over measured operations.
    pub response_sum: SimDuration,
    /// Service time (actual start → completion), measurement window.
    pub service_hist: LogHistogram,
    /// Scheduled-vs-actual-start lag, measurement window.
    pub sched_lag_hist: LogHistogram,
    /// Peak number of operations logically outstanding (scheduled or in
    /// flight, not yet completed) at any arrival instant.
    pub queue_depth_max: u64,
    /// Peak number of op slots alive at once — the realized memory bound,
    /// independent of `logical_clients`.
    pub peak_tracked_ops: usize,
    /// Start of the measurement window.
    pub measure_from: SimTime,
    /// End of the measurement window.
    pub measure_to: SimTime,
}

impl OpenLoopResult {
    /// Average committed TPS over the measurement window.
    pub fn measured_tps(&self) -> f64 {
        self.run.avg_tps(self.measure_from, self.measure_to)
    }

    /// Mean CO-corrected response time in milliseconds (measured window).
    pub fn mean_response_ms(&self) -> f64 {
        if self.measured == 0 {
            0.0
        } else {
            (self.response_sum / self.measured).as_millis_f64()
        }
    }

    /// CO-corrected response-time percentile in milliseconds.
    pub fn response_percentile_ms(&self, p: f64) -> f64 {
        self.run.tenants[0].latency_hist.percentile(p) as f64 / 1e6
    }

    /// Service-time percentile in milliseconds.
    pub fn service_percentile_ms(&self, p: f64) -> f64 {
        self.service_hist.percentile(p) as f64 / 1e6
    }

    /// Scheduled-vs-actual-start lag percentile in milliseconds.
    pub fn sched_lag_percentile_ms(&self, p: f64) -> f64 {
        self.sched_lag_hist.percentile(p) as f64 / 1e6
    }
}

/// The arrival-driven load source of the driver's event loop
/// ([`RunCtx::drive`]): it says when the next fresh op is due and which
/// logical client it belongs to, and keeps the accounting only arrival runs
/// have — the measurement-window filter, the service / scheduler-lag split,
/// queue depth and the `load.*` counters.
pub(crate) struct ArrivalSource {
    phases: PhasePlan,
    logical_clients: u64,
    /// Fixed-rate arrival stream; `None` in max-throughput mode, where a
    /// completed op is replaced back-to-back instead.
    stream: Option<PhasedArrivals>,
    /// Scheduled instant of the next fresh arrival, if any is left.
    pub(crate) next_fresh: Option<SimTime>,
    /// Attributes each op to a logical client and seeds its RNG stream.
    root_rng: DetRng,
    /// Completion instants of executed ops, drained lazily for queue depth.
    completions: BinaryHeap<Reverse<SimTime>>,
    arrivals: u64,
    completed: u64,
    measured: u64,
    blocked_retries: u64,
    response_sum: SimDuration,
    service_hist: LogHistogram,
    sched_lag_hist: LogHistogram,
    queue_depth_max: u64,
}

impl ArrivalSource {
    /// Open `plan`'s source. Fixed-rate mode pulls scheduled arrivals lazily
    /// from the plan's process (thinned through the phase windows);
    /// max-throughput mode admits its whole population into `ops` up front.
    fn new(plan: &ArrivalPlan, seed: u64, ops: &mut OpTable) -> Self {
        // The arrival stream and the per-op attribution streams fork from
        // distinct seeds so adding phases or changing the client count never
        // perturbs the base process.
        let mut stream = match &plan.mode {
            TestMode::FixedRate(process) => Some(PhasedArrivals::new(
                ArrivalGen::new(process.clone(), seed ^ 0xA5A5_5A5A_C3C3_3C3C),
                plan.phases.clone(),
                seed,
            )),
            TestMode::MaxThroughput { .. } => None,
        };
        let mut source = ArrivalSource {
            phases: plan.phases.clone(),
            logical_clients: plan.logical_clients.max(1),
            next_fresh: stream.as_mut().and_then(PhasedArrivals::next_arrival),
            stream,
            root_rng: DetRng::seeded(seed),
            completions: BinaryHeap::new(),
            arrivals: 0,
            completed: 0,
            measured: 0,
            blocked_retries: 0,
            response_sum: SimDuration::ZERO,
            service_hist: LogHistogram::new(),
            sched_lag_hist: LogHistogram::new(),
            queue_depth_max: 0,
        };
        if let TestMode::MaxThroughput { clients } = plan.mode {
            for _ in 0..clients {
                source.replace(ops, SimTime::ZERO);
            }
            // Depth is sampled at fresh arrivals, which this mode has none
            // of; in-flight population is pinned at `clients` by design.
            source.queue_depth_max = u64::from(clients);
        }
        source
    }

    /// A new op scheduled at `sched`, attributed to a logical client; the
    /// client id seeds the op's RNG stream without any per-client state
    /// existing anywhere.
    fn new_op(&mut self, sched: SimTime) -> Op {
        let client = self.root_rng.below(self.logical_clients);
        self.arrivals += 1;
        Op {
            tenant: 0,
            idx: 0,
            sched: Some(sched),
            rng: self.root_rng.fork(client),
        }
    }

    /// Admit the peeked fresh arrival into `ops`, sample queue depth at its
    /// instant and pull the next arrival from the stream.
    pub(crate) fn admit_fresh(&mut self, ops: &mut OpTable, obs: &ObsSink) {
        let sched = self.next_fresh.take().expect("fresh arrival was peeked");
        let op = self.new_op(sched);
        ops.admit(op, sched);
        obs.add("load.arrivals", 1);
        // Queue depth at this arrival: outstanding ops are the live slots
        // plus executed ops whose completion lies in the future.
        while self
            .completions
            .peek()
            .is_some_and(|Reverse(e)| *e <= sched)
        {
            self.completions.pop();
        }
        let depth = ops.live as u64 + self.completions.len() as u64;
        self.queue_depth_max = self.queue_depth_max.max(depth);
        obs.record("load.queue_depth", depth);
        self.next_fresh = self.stream.as_mut().and_then(PhasedArrivals::next_arrival);
    }

    /// Max-throughput only: issue the op that replaces one completed at `at`.
    pub(crate) fn replace(&mut self, ops: &mut OpTable, at: SimTime) {
        if self.stream.is_none() {
            let op = self.new_op(at);
            ops.admit(op, at);
        }
    }

    /// Count one blocked attempt.
    pub(crate) fn count_blocked(&mut self, obs: &ObsSink) {
        self.blocked_retries += 1;
        obs.add("load.blocked", 1);
    }

    /// Count one completion inside the horizon. Returns whether the op was
    /// scheduled inside the measurement window, i.e. whether its latency is
    /// recorded at all.
    pub(crate) fn count_completion(
        &mut self,
        sched: SimTime,
        start: SimTime,
        end: SimTime,
        obs: &ObsSink,
    ) -> bool {
        self.completed += 1;
        if self.stream.is_some() {
            self.completions.push(Reverse(end));
        }
        if !self.phases.in_measurement(sched) {
            return false;
        }
        self.measured += 1;
        // Coordinated-omission-correct response time: from the scheduled
        // arrival, not the start.
        self.response_sum += end.saturating_since(sched);
        let service = end.saturating_since(start);
        let lag = start.saturating_since(sched);
        self.service_hist.record(service.as_nanos());
        self.sched_lag_hist.record(lag.as_nanos());
        obs.record("load.service_ns", service.as_nanos());
        obs.record("load.sched_lag_ns", lag.as_nanos());
        true
    }
}

/// Drive `spec` against `dep` on the virtual clock.
///
/// Fixed-rate mode pulls scheduled arrivals from the plan's process (thinned
/// through the phase windows); max-throughput mode keeps `clients`
/// operations in flight, back-to-back, which reproduces the closed loop's
/// saturation probe while sharing all open-loop accounting.
pub fn run_open_loop(
    dep: &mut Deployment,
    spec: &OpenLoopSpec,
    opts: &RunOptions,
) -> OpenLoopResult {
    // Controllers, node mapping and the (shiftable) transaction shape all
    // hang off a tenant spec, so the arrival plan runs as a single tenant
    // whose schedule spans the horizon.
    let tenant = [TenantSpec::constant(
        1,
        spec.plan.phases.total(),
        spec.mix,
        spec.dist,
        spec.partition,
    )];
    let mut ops = OpTable::default();
    let mut source = ArrivalSource::new(&spec.plan, opts.seed, &mut ops);
    let sales = Sales::of(dep);
    let run = RunCtx::new(dep, &tenant, opts, sales).drive(&mut ops, Some(&mut source));
    let (measure_from, measure_to) = spec.plan.phases.measure_window();
    OpenLoopResult {
        run,
        arrivals: source.arrivals,
        completed: source.completed,
        measured: source.measured,
        blocked_retries: source.blocked_retries,
        response_sum: source.response_sum,
        service_hist: source.service_hist,
        sched_lag_hist: source.sched_lag_hist,
        queue_depth_max: source.queue_depth_max,
        peak_tracked_ops: ops.peak,
        measure_from,
        measure_to,
    }
}

/// Everything needed to build a fresh deployment per seed.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// SUT profile to deploy.
    pub profile: cb_sut::SutProfile,
    /// Benchmark scale factor.
    pub scale_factor: u64,
    /// Simulation scale divisor.
    pub sim_scale: u64,
    /// Read-only replica count.
    pub ro_nodes: usize,
}

/// Per-seed outcome of an open-loop run, in report-ready units.
#[derive(Clone, Copy, Debug)]
pub struct SeedOutcome {
    /// The seed this run used.
    pub seed: u64,
    /// Average TPS over the measurement window.
    pub tps: f64,
    /// Mean CO-corrected response time, ms.
    pub mean_ms: f64,
    /// Median response time, ms.
    pub p50_ms: f64,
    /// 99th-percentile response time, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile response time, ms.
    pub p999_ms: f64,
    /// 99th-percentile service time, ms.
    pub service_p99_ms: f64,
    /// 99th-percentile scheduled-vs-start lag, ms.
    pub sched_lag_p99_ms: f64,
    /// Peak queue depth observed.
    pub queue_depth_max: u64,
    /// Arrivals generated.
    pub arrivals: u64,
    /// Operations measured.
    pub measured: u64,
}

impl SeedOutcome {
    /// The report-ready outcome of `r`, a run under `seed`.
    pub fn of(seed: u64, r: &OpenLoopResult) -> Self {
        SeedOutcome {
            seed,
            tps: r.measured_tps(),
            mean_ms: r.mean_response_ms(),
            p50_ms: r.response_percentile_ms(50.0),
            p99_ms: r.response_percentile_ms(99.0),
            p999_ms: r.response_percentile_ms(99.9),
            service_p99_ms: r.service_percentile_ms(99.0),
            sched_lag_p99_ms: r.sched_lag_percentile_ms(99.0),
            queue_depth_max: r.queue_depth_max,
            arrivals: r.arrivals,
            measured: r.measured,
        }
    }
}

/// Multi-run aggregate: a [`cb_load::Summary`] per headline metric.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopAggregate {
    /// Measurement-window TPS across seeds.
    pub tps: cb_load::Summary,
    /// Mean response time (ms) across seeds.
    pub mean_ms: cb_load::Summary,
    /// p99 response time (ms) across seeds.
    pub p99_ms: cb_load::Summary,
    /// p99.9 response time (ms) across seeds.
    pub p999_ms: cb_load::Summary,
}

/// Aggregate per-seed outcomes into cross-seed summaries.
pub fn aggregate(outcomes: &[SeedOutcome]) -> OpenLoopAggregate {
    let pick = |f: fn(&SeedOutcome) -> f64| {
        let v: Vec<f64> = outcomes.iter().map(f).collect();
        cb_load::Summary::of(&v)
    };
    OpenLoopAggregate {
        tps: pick(|o| o.tps),
        mean_ms: pick(|o| o.mean_ms),
        p99_ms: pick(|o| o.p99_ms),
        p999_ms: pick(|o| o.p999_ms),
    }
}

/// Run `spec` once per seed on `jobs` worker threads (deterministic,
/// canonical order — results are identical for any `jobs`), building a fresh
/// deployment per seed so runs are fully independent.
pub fn run_open_loop_seeds(
    cfg: &OpenLoopConfig,
    spec: &OpenLoopSpec,
    seeds: &[u64],
    jobs: usize,
) -> Vec<SeedOutcome> {
    par_map(seeds, jobs, |_, &seed| {
        let mut dep = Deployment::new(
            cfg.profile.clone(),
            cfg.scale_factor,
            cfg.sim_scale,
            cfg.ro_nodes,
            seed,
        );
        let opts = RunOptions {
            seed,
            ..RunOptions::default()
        };
        let r = run_open_loop(&mut dep, spec, &opts);
        SeedOutcome::of(seed, &r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_load::{ArrivalProcess, PhasePlan};
    use cb_sut::SutProfile;

    fn part() -> KeyPartition {
        let shape = crate::schema::DatasetShape::new(1, 3000);
        KeyPartition::whole(shape.orders, shape.customers)
    }

    fn small_spec(rate: f64, clients: u64) -> OpenLoopSpec {
        OpenLoopSpec {
            plan: ArrivalPlan::fixed_rate(
                ArrivalProcess::poisson(rate),
                PhasePlan::new(
                    SimDuration::from_millis(500),
                    SimDuration::from_millis(500),
                    SimDuration::from_secs(2),
                ),
                clients,
            ),
            mix: TxnMix::read_write(),
            dist: AccessDistribution::Uniform,
            partition: part(),
        }
    }

    fn small_dep(seed: u64) -> Deployment {
        Deployment::new(SutProfile::aws_rds(), 1, 3000, 0, seed)
    }

    #[test]
    fn fixed_rate_run_measures_only_the_window() {
        let spec = small_spec(200.0, 1000);
        let mut dep = small_dep(7);
        let r = run_open_loop(&mut dep, &spec, &RunOptions::default());
        assert!(r.arrivals > 0, "arrivals generated");
        assert!(r.completed > 0, "operations completed");
        assert!(r.measured > 0 && r.measured <= r.completed);
        // Roughly: warmup at 10% + linear ramp admit fewer than the full-rate
        // measurement window.
        assert!(r.measured as f64 > 0.5 * r.arrivals as f64);
        assert_eq!(r.measure_from, SimTime::from_secs(1));
        assert_eq!(r.measure_to, SimTime::from_secs(3));
        assert!(r.measured_tps() > 0.0);
        // Response dominates service pointwise (response = service + lag), so
        // its percentiles dominate too, modulo ~0.8% histogram bucket error.
        assert!(r.response_percentile_ms(99.0) >= 0.98 * r.service_percentile_ms(99.0));
    }

    #[test]
    fn same_seed_same_result_and_seed_changes_it() {
        let spec = small_spec(150.0, 500);
        let run = |seed: u64| {
            let mut dep = small_dep(seed);
            let opts = RunOptions {
                seed,
                ..RunOptions::default()
            };
            let r = run_open_loop(&mut dep, &spec, &opts);
            (
                r.arrivals,
                r.completed,
                r.measured,
                r.response_sum.as_nanos(),
                r.run.overall_tps().to_bits(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn logical_client_count_does_not_unbound_memory() {
        // Identical plan except for the modelled population: the realized
        // slot bound must not scale with the client count.
        let small = small_spec(300.0, 100);
        let huge = small_spec(300.0, 200_000);
        let mut d1 = small_dep(5);
        let mut d2 = small_dep(5);
        let r1 = run_open_loop(&mut d1, &small, &RunOptions::default());
        let r2 = run_open_loop(&mut d2, &huge, &RunOptions::default());
        assert!(
            r2.peak_tracked_ops < 10_000,
            "peak tracked ops {} should be bounded by in-flight work, not clients",
            r2.peak_tracked_ops
        );
        // Same arrival stream (client attribution draws differ, but the
        // stream seed is independent of the population).
        assert_eq!(r1.arrivals, r2.arrivals);
    }

    #[test]
    fn max_throughput_mode_saturates_like_a_closed_loop() {
        let spec = OpenLoopSpec {
            plan: ArrivalPlan::max_throughput(
                8,
                PhasePlan::measure_only(SimDuration::from_secs(2)),
            ),
            mix: TxnMix::read_write(),
            dist: AccessDistribution::Uniform,
            partition: part(),
        };
        let mut dep = small_dep(3);
        let r = run_open_loop(&mut dep, &spec, &RunOptions::default());
        assert!(r.completed > 100, "saturation probe commits plenty");
        // In-flight population never exceeds the client count.
        assert!(r.peak_tracked_ops <= 8);
        assert!(r.measured_tps() > 0.0);
    }

    #[test]
    fn mix_shift_reaches_the_open_loop() {
        // Insert-only arrivals whose mix shifts to read-only at half-time:
        // arrivals keep coming (and completing) but the log must stop
        // exactly where a run that *ends* at the shift instant stops.
        let spec = |secs| OpenLoopSpec {
            plan: ArrivalPlan::fixed_rate(
                ArrivalProcess::poisson(300.0),
                PhasePlan::measure_only(SimDuration::from_secs(secs)),
                500,
            ),
            mix: TxnMix::write_only(),
            dist: AccessDistribution::Uniform,
            partition: part(),
        };
        let run = |secs, shifts| {
            let mut dep = small_dep(7);
            let opts = RunOptions {
                shifts,
                ..RunOptions::default()
            };
            let r = run_open_loop(&mut dep, &spec(secs), &opts);
            (r.completed, dep.db.log().head())
        };
        let to_read_only =
            crate::driver::ShiftEvent::at(SimTime::from_secs(2)).mix(TxnMix::read_only());
        let (shifted_done, shifted_head) = run(4, vec![to_read_only]);
        let (half_done, half_head) = run(2, vec![]);
        let (_, full_head) = run(4, vec![]);
        assert_eq!(shifted_head, half_head, "no WAL after the shift");
        assert!(shifted_head < full_head, "the unshifted run keeps writing");
        assert!(
            shifted_done > half_done + half_done / 2,
            "reads keep completing after the shift: {shifted_done} vs {half_done}"
        );
    }

    #[test]
    fn co_corrected_latency_dominates_service_time_under_a_stall() {
        // The coordinated-omission test: inject a primary restart in the
        // middle of the measurement window. Arrivals keep their schedule, so
        // every operation that lands in the outage waits — its *response*
        // (from scheduled arrival) balloons while its *service* time (from
        // the attempt that finally executes) stays ordinary. A closed loop,
        // or an open loop that measured from the attempt start, would
        // report the small number and hide the stall entirely.
        let spec = OpenLoopSpec {
            plan: ArrivalPlan::fixed_rate(
                ArrivalProcess::poisson(300.0),
                PhasePlan::new(
                    SimDuration::from_millis(500),
                    SimDuration::from_millis(500),
                    // Long enough to cover the ~10s aws-rds failover
                    // downtime plus post-recovery drain, so stalled ops
                    // complete inside the horizon and get measured.
                    SimDuration::from_secs(16),
                ),
                2000,
            ),
            mix: TxnMix::read_write(),
            dist: AccessDistribution::Uniform,
            partition: part(),
        };
        let mut dep = small_dep(21);
        let opts = RunOptions {
            failure: Some(crate::driver::FailurePlan {
                at: SimTime::from_secs(3),
                target_ro: false,
            }),
            ..RunOptions::default()
        };
        let r = run_open_loop(&mut dep, &spec, &opts);
        assert!(r.blocked_retries > 0, "outage must block some attempts");
        assert!(
            r.sched_lag_percentile_ms(99.0) > 1000.0,
            "stalled ops must show seconds of scheduler lag, got {:.3} ms",
            r.sched_lag_percentile_ms(99.0)
        );
        // The post-recovery burst inflates service time too (the CPU queue
        // is part of service), so the clean signal is *strict* dominance
        // with a wide margin, not service staying flat.
        assert!(
            r.response_percentile_ms(99.0) > 2.0 * r.service_percentile_ms(99.0),
            "CO-corrected p99 ({:.3} ms) must dwarf service p99 ({:.3} ms) under a stall",
            r.response_percentile_ms(99.0),
            r.service_percentile_ms(99.0)
        );
        // And strict pointwise dominance still holds at every percentile.
        for p in [50.0, 90.0, 99.0, 99.9] {
            assert!(r.response_percentile_ms(p) >= 0.98 * r.service_percentile_ms(p));
        }
    }

    #[test]
    fn seed_fanout_is_deterministic_across_jobs() {
        let cfg = OpenLoopConfig {
            profile: SutProfile::aws_rds(),
            scale_factor: 1,
            sim_scale: 3000,
            ro_nodes: 0,
        };
        let spec = small_spec(120.0, 100);
        let seeds = [1u64, 2, 3];
        let a = run_open_loop_seeds(&cfg, &spec, &seeds, 1);
        let b = run_open_loop_seeds(&cfg, &spec, &seeds, 3);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tps.to_bits(), y.tps.to_bits());
            assert_eq!(x.p99_ms.to_bits(), y.p99_ms.to_bits());
            assert_eq!(x.arrivals, y.arrivals);
        }
        let agg = aggregate(&a);
        assert_eq!(agg.tps.n, 3);
        assert!(agg.tps.mean > 0.0);
    }
}
