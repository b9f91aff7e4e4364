//! The five workloads: their cells (what runs, at which size), one *repeat*
//! of each (fresh inputs from the seed, then one timed library call), the
//! simulated statistics a repeat yields and the invariants it must keep.
//!
//! The crates only ever see generated inputs: the seed enters through
//! `Deployment::new`, `RunOptions::seed`, the chaos seed list and
//! `Testbed::new`, never through a workload name.

use cb_chaos::ChaosOptions;
use cb_engine::IsolationLevel;
use cb_load::{ArrivalPlan, ArrivalProcess, PhasePlan};
use cb_obs::ObsSink;
use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;
use cloudybench::cost::{ruc_cost, RucRates};
use cloudybench::driver::VcoreControl;
use cloudybench::elasticity::ElasticPattern;
use cloudybench::metrics::{e2_score, o_score, p_score, Perfect};
use cloudybench::tenancy::TenancyPattern;
use cloudybench::{
    run, run_open_loop, AccessDistribution, Deployment, KeyPartition, OpenLoopSpec, RunOptions,
    TenantSpec, Testbed, TxnMix,
};

use crate::alloc::{counted, AllocCount};
use crate::clock::{time, Lap};
use crate::json::{obj, Json};
use crate::spans::SpanLog;

/// A benchmark workload. Names are fixed: `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, read-write mix, data fits the pool.
    OltpRwCached,
    /// Closed loop, read-only point reads and range sweeps, data >> pool.
    OltpScanTinypool,
    /// Open loop, write-only mix on a 10-key hot set under snapshot isolation.
    OpenloopSiHot,
    /// Chaos campaigns on all five profiles: crash, recover, compare.
    ChaosRecovery,
    /// One Table IX row: every evaluator once.
    PerfectCdb3,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::OltpRwCached,
        Workload::OltpScanTinypool,
        Workload::OpenloopSiHot,
        Workload::ChaosRecovery,
        Workload::PerfectCdb3,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpRwCached => "oltp_rw_cached",
            Workload::OltpScanTinypool => "oltp_scan_tinypool",
            Workload::OpenloopSiHot => "openloop_si_hot",
            Workload::ChaosRecovery => "chaos_recovery",
            Workload::PerfectCdb3 => "perfect_cdb3",
        }
    }

    /// Look a workload up by its fixed name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cell, if the workload drives a `Deployment` through `run` /
    /// `run_open_loop` (and so leaves one behind for the layer probes).
    pub fn driver_cell(self, size: Size) -> Option<DriverCell> {
        match self.cell(size) {
            Cell::Driver(c) => Some(c),
            Cell::Chaos(_) | Cell::Testbed(_) => None,
        }
    }
}

/// Cell size: the measured size, or the tiny one `--quick` and the traced
/// run's reference cells use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The size every recorded number is measured at.
    Full,
    /// Seconds-for-everything size; numbers comparable only with themselves.
    Quick,
}

/// How a driver cell offers load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// `clients` closed-loop clients for `virtual_secs`.
    Closed {
        /// Concurrent clients.
        clients: u32,
        /// Virtual run length.
        virtual_secs: u64,
    },
    /// Poisson arrivals at `rate`/s through warm-up, ramp-up and measurement
    /// phases (virtual seconds), attributed to `logical_clients`.
    Open {
        /// Offered transactions per virtual second.
        rate: f64,
        /// Warm-up phase.
        warmup_secs: u64,
        /// Ramp-up phase.
        rampup_secs: u64,
        /// Measurement phase.
        measure_secs: u64,
        /// Modelled client population.
        logical_clients: u64,
    },
}

/// A cell that builds one `Deployment` and drives it.
#[derive(Clone, Copy, Debug)]
pub struct DriverCell {
    /// SUT profile name (`SutProfile::by_name`).
    pub profile: &'static str,
    /// Benchmark scale factor.
    pub scale_factor: u64,
    /// Simulation scale divisor.
    pub sim_scale: u64,
    /// Transaction mix.
    pub mix: TxnMix,
    /// Key distribution.
    pub dist: AccessDistribution,
    /// Isolation override (`None`: the profile's default, READ COMMITTED).
    pub isolation: Option<IsolationLevel>,
    /// Closed or open loop.
    pub load: Load,
}

/// Chaos campaigns: `seeds_per_profile` seeds on each of the five profiles.
#[derive(Clone, Copy, Debug)]
pub struct ChaosCell {
    /// Seeds `seed..seed + n` per profile.
    pub seeds_per_profile: u64,
}

/// One `Testbed::perfect()` pass on cdb3.
#[derive(Clone, Copy, Debug)]
pub struct TestbedCell {
    /// Simulation scale divisor.
    pub sim_scale: u64,
    /// `Testbed::concurrency`.
    pub concurrency: u32,
    /// `Testbed::tau`.
    pub tau: u32,
    /// `Testbed::tenancy_scale`.
    pub tenancy_scale: f64,
}

/// What one workload runs at one size.
#[derive(Clone, Copy, Debug)]
pub enum Cell {
    /// `run` / `run_open_loop` on one deployment.
    Driver(DriverCell),
    /// `cb_chaos::run_campaign` x 5 profiles.
    Chaos(ChaosCell),
    /// `Testbed::perfect`.
    Testbed(TestbedCell),
}

impl Workload {
    /// The cell this workload runs at `size`. Data sizes, pools, mixes and
    /// key distributions are the workload's identity; only durations, seed
    /// counts and (for `Quick`) the simulation scale shrink.
    pub fn cell(self, size: Size) -> Cell {
        let full = size == Size::Full;
        match self {
            Workload::OltpRwCached => Cell::Driver(DriverCell {
                profile: "aws-rds",
                scale_factor: 10,
                sim_scale: if full { 10 } else { 200 },
                mix: TxnMix::read_write(),
                dist: AccessDistribution::Uniform,
                isolation: None,
                load: Load::Closed {
                    clients: 64,
                    virtual_secs: if full { 35 } else { 3 },
                },
            }),
            Workload::OltpScanTinypool => Cell::Driver(DriverCell {
                profile: "cdb2",
                scale_factor: 100,
                sim_scale: if full { 100 } else { 2000 },
                mix: TxnMix::scan_resistant(5.0),
                dist: AccessDistribution::Zipfian(900),
                isolation: None,
                load: Load::Closed {
                    clients: 64,
                    virtual_secs: if full { 300 } else { 20 },
                },
            }),
            Workload::OpenloopSiHot => Cell::Driver(DriverCell {
                profile: "cdb3",
                scale_factor: 10,
                sim_scale: if full { 10 } else { 200 },
                mix: TxnMix::iud(60.0, 30.0, 10.0),
                dist: AccessDistribution::Latest(10),
                isolation: Some(IsolationLevel::Snapshot),
                load: Load::Open {
                    rate: 16_000.0,
                    warmup_secs: if full { 2 } else { 1 },
                    rampup_secs: if full { 2 } else { 1 },
                    measure_secs: if full { 40 } else { 4 },
                    logical_clients: 100_000,
                },
            }),
            Workload::ChaosRecovery => Cell::Chaos(ChaosCell {
                seeds_per_profile: if full { 80 } else { 4 },
            }),
            Workload::PerfectCdb3 => Cell::Testbed(if full {
                TestbedCell {
                    sim_scale: 400,
                    concurrency: 4,
                    tau: 30,
                    tenancy_scale: 0.04,
                }
            } else {
                TestbedCell {
                    sim_scale: 3000,
                    concurrency: 2,
                    tau: 10,
                    tenancy_scale: 0.02,
                }
            }),
        }
    }
}

impl Cell {
    /// Every parameter of the cell, for the provenance block.
    pub fn describe(&self) -> Json {
        match self {
            Cell::Driver(c) => {
                let load = match c.load {
                    Load::Closed {
                        clients,
                        virtual_secs,
                    } => obj([
                        ("loop", "closed".into()),
                        ("clients", u64::from(clients).into()),
                        ("virtual_secs", virtual_secs.into()),
                    ]),
                    Load::Open {
                        rate,
                        warmup_secs,
                        rampup_secs,
                        measure_secs,
                        logical_clients,
                    } => obj([
                        ("loop", "open".into()),
                        ("arrivals", "poisson".into()),
                        ("rate_per_s", rate.into()),
                        ("warmup_secs", warmup_secs.into()),
                        ("rampup_secs", rampup_secs.into()),
                        ("measure_secs", measure_secs.into()),
                        ("logical_clients", logical_clients.into()),
                    ]),
                };
                obj([
                    ("kind", "driver".into()),
                    ("profile", c.profile.into()),
                    ("scale_factor", c.scale_factor.into()),
                    ("sim_scale", c.sim_scale.into()),
                    ("ro_nodes", 1u64.into()),
                    ("mix", c.mix.label().into()),
                    ("dist", format!("{:?}", c.dist).into()),
                    (
                        "isolation",
                        c.isolation
                            .map_or("profile default".to_string(), |i| format!("{i:?}"))
                            .into(),
                    ),
                    ("vcores", "Fixed".into()),
                    ("load", load),
                ])
            }
            Cell::Chaos(c) => obj([
                ("kind", "chaos".into()),
                ("profiles", 5u64.into()),
                ("seeds_per_profile", c.seeds_per_profile.into()),
                ("options", format!("{:?}", ChaosOptions::default()).into()),
                ("jobs", 1u64.into()),
            ]),
            Cell::Testbed(c) => obj([
                ("kind", "testbed".into()),
                ("profile", "cdb3".into()),
                ("sim_scale", c.sim_scale.into()),
                ("concurrency", u64::from(c.concurrency).into()),
                ("tau", u64::from(c.tau).into()),
                ("tenancy_scale", c.tenancy_scale.into()),
                ("evaluator_cells", EVALUATOR_CELLS.into()),
            ]),
        }
    }
}

/// The simulated statistics of one repeat, in `simstat.*` order. A field the
/// cell does not produce is 0.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStat {
    /// Committed transactions.
    pub committed: f64,
    /// Average committed TPS (measurement window for the open loop).
    pub avg_tps: f64,
    /// Median latency, simulated ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, simulated ms.
    pub p99_ms: f64,
    /// Lock conflicts.
    pub lock_conflicts: f64,
    /// First-committer-wins aborts.
    pub si_aborts: f64,
    /// Peak outstanding operations (open loop).
    pub queue_depth_max: f64,
    /// Resource Unit Cost per simulated minute, dollars.
    pub ruc_cost_per_min: f64,
    /// O-Score (testbed).
    pub o_score: f64,
}

impl SimStat {
    /// `(metric name, unit, value)` for every field.
    pub fn fields(&self) -> [(&'static str, &'static str, f64); 9] {
        [
            ("simstat.committed", "count", self.committed),
            ("simstat.avg_tps", "1/sim_s", self.avg_tps),
            ("simstat.p50_ms", "sim_ms", self.p50_ms),
            ("simstat.p99_ms", "sim_ms", self.p99_ms),
            ("simstat.lock_conflicts", "count", self.lock_conflicts),
            ("simstat.si_aborts", "count", self.si_aborts),
            ("simstat.queue_depth_max", "count", self.queue_depth_max),
            (
                "simstat.ruc_cost_per_min",
                "usd/sim_min",
                self.ruc_cost_per_min,
            ),
            ("simstat.o_score", "score", self.o_score),
        ]
    }
}

/// What one repeat measured.
#[derive(Clone, Debug)]
pub struct Repeat {
    /// Building the inputs.
    pub setup: Lap,
    /// The one timed library call.
    pub host: Lap,
    /// Operations attempted: simulated transactions (arrivals for the open
    /// loop), chaos seed-runs, or evaluator cells.
    pub ops: u64,
    /// Reported simulated statistics.
    pub simstat: SimStat,
    /// Every simulated number the repeat produced, as bits; all repeats of a
    /// workload must agree on it exactly.
    pub fingerprint: Vec<u64>,
    /// The workload's own invariants.
    pub check: Result<(), String>,
    /// Heap allocations of the timed call, when counted.
    pub allocs: Option<AllocCount>,
}

/// What a repeat leaves behind for the traced run's per-layer metrics.
pub enum Leftover {
    /// The post-run deployment and the run's counters.
    Driver(Box<Deployment>, DriverOutcome),
    /// Campaign totals.
    Chaos(ChaosTotals),
    /// Per-evaluator wall/CPU laps (traced pass only).
    Testbed(Option<EvaluatorLaps>),
}

impl Leftover {
    /// The deployment and counters a driver cell left; panics for another.
    pub fn driver(self) -> (Box<Deployment>, DriverOutcome) {
        match self {
            Leftover::Driver(dep, outcome) => (dep, outcome),
            _ => unreachable!("not a driver cell"),
        }
    }

    /// The totals a chaos cell left; panics for another.
    pub fn chaos(self) -> ChaosTotals {
        match self {
            Leftover::Chaos(totals) => totals,
            _ => unreachable!("not a chaos cell"),
        }
    }

    /// The evaluator laps a traced testbed pass left; panics for another.
    pub fn testbed(self) -> EvaluatorLaps {
        match self {
            Leftover::Testbed(Some(laps)) => laps,
            _ => unreachable!("not a traced testbed pass"),
        }
    }
}

/// Counters of one driver run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverOutcome {
    /// Committed transactions.
    pub committed: u64,
    /// Arrivals generated (open loop; equals `committed` for the closed one).
    pub arrivals: u64,
    /// Lock conflicts.
    pub lock_conflicts: u64,
    /// First-committer-wins aborts.
    pub si_aborts: u64,
    /// Peak op slots alive (open loop; 0 for the closed one).
    pub peak_tracked_ops: u64,
}

/// Totals over the five campaigns of one chaos repeat.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosTotals {
    /// Seed-runs that completed cleanly.
    pub clean: u64,
    /// Violations found.
    pub violations: u64,
    /// Transactions committed across all seed-runs.
    pub committed: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Faults injected.
    pub faults: u64,
}

/// Host time per evaluator family of one traced `perfect` pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvaluatorLaps {
    /// `Testbed::oltp`.
    pub oltp: Lap,
    /// Four `Testbed::elasticity` patterns.
    pub elasticity: Lap,
    /// `Testbed::failover`.
    pub failover: Lap,
    /// `Testbed::lagtime`.
    pub lagtime: Lap,
    /// Three `Testbed::read_tps_with_replicas` counts.
    pub replicas: Lap,
    /// Four `Testbed::tenancy` patterns.
    pub tenancy: Lap,
}

/// Evaluator cells in one `perfect()` pass: oltp, 4 elasticity, failover,
/// lagtime, 3 replica counts, 4 tenancy.
pub const EVALUATOR_CELLS: u64 = 14;

/// How a repeat is instrumented.
pub struct Instrument<'a> {
    /// Span log (disabled in the untraced run).
    pub spans: &'a mut SpanLog,
    /// Observability sink handed to the driver (`ObsSink::disabled()` except
    /// for the `obs.enabled_run_ratio` probe).
    pub obs: ObsSink,
    /// The traced repeat: count the heap allocations of the timed call, and
    /// (testbed) call the evaluators one by one instead of `perfect()`.
    pub traced: bool,
}

impl<'a> Instrument<'a> {
    /// No obs, no allocation counting, `perfect()` in one call: every repeat
    /// but the traced one.
    pub fn off(spans: &'a mut SpanLog) -> Self {
        Instrument {
            spans,
            obs: ObsSink::disabled(),
            traced: false,
        }
    }
}

fn maybe_counted<R>(on: bool, f: impl FnOnce() -> R) -> (R, Option<AllocCount>) {
    if on {
        let (out, count) = counted(f);
        (out, Some(count))
    } else {
        (f(), None)
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// One repeat of `cell`: fresh inputs from `seed`, then the timed call.
pub fn run_repeat(cell: &Cell, seed: u64, ins: &mut Instrument<'_>) -> (Repeat, Leftover) {
    match cell {
        Cell::Driver(c) => driver_repeat(c, seed, ins),
        Cell::Chaos(c) => chaos_repeat(c, seed, ins),
        Cell::Testbed(c) => testbed_repeat(c, seed, ins),
    }
}

fn driver_repeat(c: &DriverCell, seed: u64, ins: &mut Instrument<'_>) -> (Repeat, Leftover) {
    let profile = SutProfile::by_name(c.profile).expect("cells name built-in profiles");
    let (mut dep, setup) = ins.spans.scope("core.deploy.new", |_| {
        time(|| Deployment::new(profile, c.scale_factor, c.sim_scale, 1, seed))
    });
    let partition = KeyPartition::whole(dep.shape.orders, dep.shape.customers);
    let opts = RunOptions {
        seed,
        vcores: VcoreControl::Fixed,
        isolation: c.isolation,
        obs: ins.obs.clone(),
        ..RunOptions::default()
    };
    let traced = ins.traced;
    match c.load {
        Load::Closed {
            clients,
            virtual_secs,
        } => {
            let horizon = SimDuration::from_secs(virtual_secs);
            let spec = TenantSpec::constant(clients, horizon, c.mix, c.dist, partition);
            let ((r, allocs), host) = ins.spans.scope("core.driver.run", |_| {
                time(|| maybe_counted(traced, || run(&mut dep, &[spec], &opts)))
            });
            let t = &r.tenants[0];
            let simstat = SimStat {
                committed: t.committed as f64,
                avg_tps: r.overall_tps(),
                p50_ms: t.latency_percentile_ms(50.0),
                p99_ms: t.latency_percentile_ms(99.0),
                lock_conflicts: r.lock_conflicts as f64,
                si_aborts: r.si_aborts as f64,
                ruc_cost_per_min: ruc_per_min(&dep, horizon),
                ..SimStat::default()
            };
            let fingerprint = bits(&[
                simstat.committed,
                simstat.avg_tps,
                simstat.p50_ms,
                simstat.p99_ms,
                simstat.lock_conflicts,
                simstat.si_aborts,
                simstat.ruc_cost_per_min,
                t.latency_sum.as_nanos() as f64,
                dep.nodes[0].pool.hits() as f64,
                dep.nodes[0].pool.misses() as f64,
                dep.db.log().head().0 as f64,
            ]);
            let check = if t.committed > 0 {
                Ok(())
            } else {
                Err("no transaction committed".to_string())
            };
            let outcome = DriverOutcome {
                committed: t.committed,
                arrivals: t.committed,
                lock_conflicts: r.lock_conflicts,
                si_aborts: r.si_aborts,
                peak_tracked_ops: 0,
            };
            let repeat = Repeat {
                setup,
                host,
                ops: t.committed,
                simstat,
                fingerprint,
                check,
                allocs,
            };
            (repeat, Leftover::Driver(Box::new(dep), outcome))
        }
        Load::Open {
            rate,
            warmup_secs,
            rampup_secs,
            measure_secs,
            logical_clients,
        } => {
            let phases = PhasePlan::new(
                SimDuration::from_secs(warmup_secs),
                SimDuration::from_secs(rampup_secs),
                SimDuration::from_secs(measure_secs),
            );
            let horizon = phases.total();
            let spec = OpenLoopSpec {
                plan: ArrivalPlan::fixed_rate(
                    ArrivalProcess::poisson(rate),
                    phases,
                    logical_clients,
                ),
                mix: c.mix,
                dist: c.dist,
                partition,
            };
            let ((r, allocs), host) = ins.spans.scope("core.openloop.run_open_loop", |_| {
                time(|| maybe_counted(traced, || run_open_loop(&mut dep, &spec, &opts)))
            });
            let committed = r.run.tenants[0].committed;
            let simstat = SimStat {
                committed: committed as f64,
                avg_tps: r.measured_tps(),
                p50_ms: r.response_percentile_ms(50.0),
                p99_ms: r.response_percentile_ms(99.0),
                lock_conflicts: r.run.lock_conflicts as f64,
                si_aborts: r.run.si_aborts as f64,
                queue_depth_max: r.queue_depth_max as f64,
                ruc_cost_per_min: ruc_per_min(&dep, horizon),
                ..SimStat::default()
            };
            let fingerprint = bits(&[
                simstat.committed,
                simstat.avg_tps,
                simstat.p50_ms,
                simstat.p99_ms,
                simstat.lock_conflicts,
                simstat.si_aborts,
                simstat.queue_depth_max,
                simstat.ruc_cost_per_min,
                r.arrivals as f64,
                r.completed as f64,
                r.measured as f64,
                r.blocked_retries as f64,
                r.response_sum.as_nanos() as f64,
                r.peak_tracked_ops as f64,
                dep.db.log().head().0 as f64,
            ]);
            // Poisson counting noise over the window is 1/sqrt(n); the 1 %
            // rule of the full cell is 5.6 sigma there, and the quick cell
            // gets the same 5 sigma so no seed fails by chance.
            let tolerance = (5.0 / (rate * measure_secs as f64).sqrt()).max(0.01);
            let tps_gap = (r.measured_tps() - rate).abs() / rate;
            let check = if committed == 0 {
                Err("no transaction committed".to_string())
            } else if tps_gap > tolerance {
                Err(format!(
                    "measured {:.1} TPS is {:.2} % off the offered {rate} (limit {:.2} %)",
                    r.measured_tps(),
                    tps_gap * 100.0,
                    tolerance * 100.0
                ))
            } else if r.queue_depth_max >= 1000 {
                Err(format!(
                    "queue_depth_max {} >= 1000: the backlog grows",
                    r.queue_depth_max
                ))
            } else {
                Ok(())
            };
            let outcome = DriverOutcome {
                committed,
                arrivals: r.arrivals,
                lock_conflicts: r.run.lock_conflicts,
                si_aborts: r.run.si_aborts,
                peak_tracked_ops: r.peak_tracked_ops as u64,
            };
            let repeat = Repeat {
                setup,
                host,
                ops: r.arrivals,
                simstat,
                fingerprint,
                check,
                allocs,
            };
            (repeat, Leftover::Driver(Box::new(dep), outcome))
        }
    }
}

/// Resource Unit Cost per simulated minute over `[0, horizon)`, the way
/// `Testbed::oltp` prices a run.
fn ruc_per_min(dep: &Deployment, horizon: SimDuration) -> f64 {
    let usage = dep.usage(SimTime::ZERO, SimTime::ZERO + horizon);
    let minutes = horizon.as_secs_f64() / 60.0;
    ruc_cost(&usage, &RucRates::default())
        .scaled(1.0 / minutes)
        .total()
}

fn chaos_repeat(c: &ChaosCell, seed: u64, ins: &mut Instrument<'_>) -> (Repeat, Leftover) {
    let opts = ChaosOptions::default();
    let profiles = SutProfile::all();
    // Set-up happens inside the timed call (every seed-run builds its own
    // deployment), so `setup_s` times the same constructor from outside:
    // one deployment per seed-run of the pass.
    let (seeds, setup) = ins.spans.scope("core.deploy.new", |_| {
        time(|| {
            let seeds: Vec<u64> = (seed..seed + c.seeds_per_profile).collect();
            for p in &profiles {
                for &s in &seeds {
                    std::hint::black_box(Deployment::new(p.clone(), 1, opts.sim_scale, 1, s));
                }
            }
            seeds
        })
    });
    let traced = ins.traced;
    let ((totals, allocs), host) = ins.spans.scope("chaos.run_campaign", |spans| {
        time(|| {
            maybe_counted(traced, || {
                let mut totals = ChaosTotals::default();
                for p in &profiles {
                    let report = spans.scope(&format!("chaos.run_campaign.{}", p.name), |_| {
                        cb_chaos::run_campaign(p, &seeds, &opts)
                    });
                    totals.clean += report.reports.len() as u64;
                    totals.violations += report.violations.len() as u64;
                    for r in &report.reports {
                        totals.committed += r.committed;
                        totals.crashes += r.crashes;
                        totals.faults += r.faults;
                    }
                }
                totals
            })
        })
    });
    let ops = profiles.len() as u64 * c.seeds_per_profile;
    let simstat = SimStat {
        committed: totals.committed as f64,
        ..SimStat::default()
    };
    let fingerprint = vec![
        totals.clean,
        totals.violations,
        totals.committed,
        totals.crashes,
        totals.faults,
    ];
    let check = if totals.clean == ops && totals.violations == 0 && totals.committed > 0 {
        Ok(())
    } else {
        Err(format!(
            "{} of {ops} seed-runs clean, {} violations, {} committed",
            totals.clean, totals.violations, totals.committed
        ))
    };
    let repeat = Repeat {
        setup,
        host,
        ops,
        simstat,
        fingerprint,
        check,
        allocs,
    };
    (repeat, Leftover::Chaos(totals))
}

/// Deployments a `perfect()` pass builds inside its evaluators (1 oltp +
/// 4 elasticity + 2 failover + 1 lagtime + 3 replicas + 4 tenancy, and one
/// spare for the evaluators that rebuild); `setup_s` times this many from
/// outside because the timed call hides them.
const TESTBED_INNER_DEPLOYMENTS: usize = 16;

fn testbed_repeat(c: &TestbedCell, seed: u64, ins: &mut Instrument<'_>) -> (Repeat, Leftover) {
    let (tb, setup) = ins.spans.scope("core.deploy.new", |_| {
        time(|| {
            for _ in 0..TESTBED_INNER_DEPLOYMENTS {
                std::hint::black_box(Deployment::new(SutProfile::cdb3(), 1, c.sim_scale, 1, seed));
            }
            let mut tb = Testbed::new(SutProfile::cdb3(), c.sim_scale, seed);
            tb.concurrency = c.concurrency;
            tb.tau = c.tau;
            tb.tenancy_scale = c.tenancy_scale;
            tb
        })
    });
    let traced = ins.traced;
    let (((perfect, o, oltp, laps), allocs), host) =
        ins.spans.scope("core.testbed.perfect", |spans| {
            time(|| {
                maybe_counted(traced, || {
                    if traced {
                        let (perfect, o, oltp, laps) = perfect_one_by_one(&tb, spans);
                        (perfect, o, Some(oltp), Some(laps))
                    } else {
                        let (perfect, o) = tb.perfect();
                        (perfect, o, None, None)
                    }
                })
            })
        });
    let scores = [
        perfect.p, perfect.e1, perfect.e2, perfect.r, perfect.f, perfect.c, perfect.t,
    ];
    let mut simstat = SimStat {
        o_score: o.unwrap_or(f64::NAN),
        ..SimStat::default()
    };
    if let Some(oltp) = oltp {
        simstat.committed = oltp.committed as f64;
        simstat.avg_tps = oltp.avg_tps;
        simstat.p99_ms = oltp.p99_latency_ms;
        simstat.ruc_cost_per_min = oltp.cost_per_min.total();
    }
    let mut fingerprint = bits(&scores);
    fingerprint.push(simstat.o_score.to_bits());
    let check = if !scores.iter().all(|s| s.is_finite() && *s > 0.0) {
        Err(format!("a PERFECT score is not positive: {perfect:?}"))
    } else if !o.is_some_and(f64::is_finite) {
        Err(format!("O-Score is not finite: {o:?}"))
    } else {
        Ok(())
    };
    let repeat = Repeat {
        setup,
        host,
        ops: EVALUATOR_CELLS,
        simstat,
        fingerprint,
        check,
        allocs,
    };
    (repeat, Leftover::Testbed(laps))
}

/// `Testbed::perfect`, evaluator by evaluator through the public methods, in
/// the same order and with the same arithmetic, so the traced pass can put a
/// span around each and must land on the same scores.
fn perfect_one_by_one(
    tb: &Testbed,
    spans: &mut SpanLog,
) -> (Perfect, Option<f64>, cloudybench::OltpReport, EvaluatorLaps) {
    let mut laps = EvaluatorLaps::default();
    let (oltp, lap) = spans.scope("core.testbed.oltp", |_| {
        time(|| tb.oltp(1, TxnMix::read_write(), 20))
    });
    laps.oltp = lap;
    let p = p_score(oltp.avg_tps, &oltp.cost_per_min);
    let (e1_sum, lap) = spans.scope("core.testbed.elasticity", |_| {
        time(|| {
            ElasticPattern::all()
                .into_iter()
                .map(|pattern| tb.elasticity(pattern, TxnMix::read_write()).e1)
                .sum::<f64>()
        })
    });
    laps.elasticity = lap;
    let (fo, lap) = spans.scope("core.testbed.failover", |_| time(|| tb.failover()));
    laps.failover = lap;
    let (lag, lap) = spans.scope("core.testbed.lagtime", |_| time(|| tb.lagtime()));
    laps.lagtime = lap;
    let (tps, lap) = spans.scope("core.testbed.replicas", |_| {
        time(|| [0, 1, 2].map(|ro| tb.read_tps_with_replicas(ro)))
    });
    laps.replicas = lap;
    let (t_sum, lap) = spans.scope("core.testbed.tenancy", |_| {
        time(|| {
            TenancyPattern::all()
                .into_iter()
                .map(|pattern| tb.tenancy(pattern).t_score)
                .sum::<f64>()
        })
    });
    laps.tenancy = lap;
    let perfect = Perfect {
        p,
        e1: e1_sum / 4.0,
        e2: e2_score(&tps, 1.0).max(1.0),
        r: fo.r_avg().max(0.5),
        f: fo.f_avg().max(0.5),
        c: lag.c_score_ms.max(0.01),
        t: t_sum / 4.0,
    };
    let o = o_score(1.0, &perfect);
    (perfect, o, oltp, laps)
}
