//! The runner: repeats, the correctness gate, the untraced and the traced
//! measurement of one workload, and the per-workload child processes.
//!
//! One invocation with `--workload` measures in-process, so its own `VmHWM`
//! is the workload's peak; without it the runner starts one child per
//! workload, one at a time, and merges their `results.json`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use cb_obs::ObsSink;
use cloudybench::Deployment;

use crate::clock::{process_cpu, time};
use crate::json::{obj, Json};
use crate::probes::{
    deployment_probes, mvcc_probe, substrate_probes, wal_probes, Probes, TreeShape,
};
use crate::report::{Line, FAILED_OPS_SHARE};
use crate::sampler::{Sampler, Stats};
use crate::spans::SpanLog;
use crate::workloads::{
    run_repeat, Cell, ChaosTotals, DriverCell, DriverOutcome, EvaluatorLaps, Instrument, Leftover,
    Repeat, Size, Workload,
};

/// Fewest timed repeats a median is taken over, however slow the host.
pub const MIN_REPEATS: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload seed; the crates only ever see inputs generated from it.
    pub seed: u64,
    /// Wall seconds after which no further timed repeat starts (the untraced
    /// run); the untraced repeats of the traced run get half of it.
    pub seconds: f64,
    /// Traced run: per-layer metrics, `trace.json`, `layers.json`.
    pub traced: bool,
    /// Tiny cells, one repeat, no warm-up.
    pub quick: bool,
    /// Output directory.
    pub out: PathBuf,
}

/// The measured result of one workload.
pub struct Outcome {
    /// The correctness gate's verdict over every repeat it saw.
    pub gate: Gate,
    /// The metric lines, in print order.
    pub lines: Vec<Line>,
    /// The workload's entry in `results.json`.
    pub detail: Json,
    /// The span log of a traced run.
    pub spans: Option<SpanLog>,
}

impl Outcome {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, the metrics being the ones `listed`.
    pub fn result_line(&self, listed: &[String]) -> Json {
        let metrics = self
            .lines
            .iter()
            .filter(|l| listed.contains(&l.name))
            .map(|l| (l.name.clone(), l.to_result_json()))
            .collect();
        obj([
            ("correct", self.gate.failures.is_empty().into()),
            ("attempted", self.gate.attempted.max(1).into()),
            ("failed", self.gate.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Verdict of the correctness gate over the repeats of one workload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Gate {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations belonging to a repeat that failed a check.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Gate {
    /// Judge `repeats`: each must pass its own invariants and reproduce the
    /// first repeat's simulated statistics bit for bit. A failing repeat
    /// fails all its operations.
    pub fn judge<'a>(repeats: impl IntoIterator<Item = &'a Repeat>) -> Gate {
        let mut gate = Gate::default();
        let mut reference: Option<&Repeat> = None;
        for (i, r) in repeats.into_iter().enumerate() {
            let reference = *reference.get_or_insert(r);
            let mut ok = true;
            if let Err(why) = &r.check {
                gate.failures.push(format!("repeat {i}: {why}"));
                ok = false;
            }
            if r.fingerprint != reference.fingerprint {
                gate.failures.push(format!(
                    "repeat {i}: simulated statistics differ from repeat 0: {:?} vs {:?}",
                    r.simstat, reference.simstat
                ));
                ok = false;
            }
            gate.attempted += r.ops;
            if !ok {
                gate.failed += r.ops;
            }
        }
        gate
    }

    /// Count `ops` more attempted operations; with `Err`, all of them failed.
    pub fn add(&mut self, ops: u64, check: Result<(), String>) {
        self.attempted += ops;
        if let Err(why) = check {
            self.failures.push(why);
            self.failed += ops;
        }
    }

    /// Failed share of attempted operations.
    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// `VmHWM` of this process in MB, if the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}

/// Timed repeats of `cell`: a new one starts while fewer than `seconds` of
/// wall time have passed since the first began, and there are never fewer
/// than [`MIN_REPEATS`]. `quick` does exactly one.
///
/// Also returns `VmHWM` as it stood after the first of them: by then the
/// process has done a fixed amount of work, so the peak does not depend on
/// how many repeats the host fitted into `seconds`.
fn timed_repeats(cell: &Cell, seed: u64, seconds: f64, quick: bool) -> (Vec<Repeat>, Option<f64>) {
    let mut spans = SpanLog::disabled();
    let mut repeats = Vec::new();
    let mut rss_after_first = None;
    let started = Instant::now();
    loop {
        repeats.push(run_repeat(cell, seed, &mut Instrument::off(&mut spans)).0);
        if repeats.len() == 1 {
            rss_after_first = peak_rss_mb();
        }
        let time_is_up = started.elapsed().as_secs_f64() >= seconds;
        if quick || (repeats.len() >= MIN_REPEATS && time_is_up) {
            return (repeats, rss_after_first);
        }
    }
}

fn stats(samples: impl Iterator<Item = f64>) -> Stats {
    Stats::of(&samples.collect::<Vec<_>>()).expect("at least one finite repeat")
}

/// The quality of the timed repeats themselves.
fn harness_lines(timed: &[Repeat]) -> Vec<Line> {
    let host = stats(timed.iter().map(|r| r.host.cpu_s));
    let wall = stats(timed.iter().map(|r| r.host.wall_s));
    let cpu_s: f64 = timed.iter().map(|r| r.host.cpu_s).sum();
    let wall_s: f64 = timed.iter().map(|r| r.host.wall_s).sum();
    vec![
        Line::median("harness.wall_s", "s", &wall),
        Line::single("harness.cpu_share", "ratio", cpu_s / wall_s),
        Line::single("harness.host_s_min", "s", host.min),
        Line::single("harness.repeat_iqr_ratio", "ratio", host.iqr_ratio()),
    ]
}

fn repeats_json(repeats: &[Repeat]) -> Json {
    let one = |r: &Repeat| {
        obj([
            ("setup_cpu_s", r.setup.cpu_s.into()),
            ("setup_wall_s", r.setup.wall_s.into()),
            ("host_cpu_s", r.host.cpu_s.into()),
            ("host_wall_s", r.host.wall_s.into()),
            ("ops", r.ops.into()),
        ])
    };
    Json::Arr(repeats.iter().map(one).collect())
}

fn lines_json(lines: &[Line]) -> Json {
    Json::Obj(
        lines
            .iter()
            .map(|l| (l.name.clone(), l.to_json()))
            .collect(),
    )
}

fn outcome(
    cell: &Cell,
    gate: Gate,
    lines: Vec<Line>,
    timed: &[Repeat],
    spans: Option<SpanLog>,
) -> Outcome {
    let detail = obj([
        ("params", cell.describe()),
        ("n", timed.len().into()),
        ("correct", gate.failures.is_empty().into()),
        ("attempted", gate.attempted.into()),
        ("failed", gate.failed.into()),
        (
            "failures",
            Json::Arr(gate.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("metrics", lines_json(&lines)),
        ("harness", lines_json(&harness_lines(timed))),
        ("repeats", repeats_json(timed)),
    ]);
    Outcome {
        gate,
        lines,
        detail,
        spans,
    }
}

/// The untraced run of one workload: one untimed warm-up repeat, then timed
/// repeats for `cfg.seconds`. Yields the end-to-end metrics.
pub fn measure_untraced(w: Workload, cfg: &Config) -> Outcome {
    let cell = w.cell(if cfg.quick { Size::Quick } else { Size::Full });
    let warmup = (!cfg.quick).then(|| {
        run_repeat(
            &cell,
            cfg.seed,
            &mut Instrument::off(&mut SpanLog::disabled()),
        )
        .0
    });
    let (timed, peak_rss_mb) = timed_repeats(&cell, cfg.seed, cfg.seconds, cfg.quick);
    let gate = Gate::judge(warmup.iter().chain(&timed));

    let mut lines = vec![
        Line::median("host_s", "s", &stats(timed.iter().map(|r| r.host.cpu_s))),
        Line::median("setup_s", "s", &stats(timed.iter().map(|r| r.setup.cpu_s))),
    ];
    if let Some(mb) = peak_rss_mb {
        lines.push(Line::single("peak_rss_mb", "MB", mb));
    }
    lines.push(Line::single(
        FAILED_OPS_SHARE,
        "ratio",
        gate.failed_ops_share(),
    ));
    outcome(&cell, gate, lines, &timed, None)
}

/// What each layer did per committed transaction of one driven deployment,
/// read from the layers' public counters.
struct DriverCounters {
    hit_ratio: f64,
    touches_per_txn: f64,
    records_per_txn: f64,
    page_ops_per_txn: f64,
    write_share: f64,
    streams: f64,
    /// From the cell's mix, not a counter: T5's share times its sweep length.
    scan_rows_per_txn: f64,
}

fn driver_lines(
    p: &mut Probes<'_>,
    dep: &Deployment,
    cell: &DriverCell,
    o: &DriverOutcome,
    r: &Repeat,
) -> DriverCounters {
    let committed = o.committed.max(1) as f64;
    let attempts = o.committed + o.lock_conflicts + o.si_aborts;
    let (hits, misses, dirty) = dep.nodes.iter().fold((0, 0, 0), |(h, m, d), n| {
        (
            h + n.pool.hits(),
            m + n.pool.misses(),
            d + n.pool.dirty_evictions(),
        )
    });
    let touches = (hits + misses) as f64;
    let log = dep.db.log();
    let write_commits = dep.group_commit.commits() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let c = DriverCounters {
        hit_ratio: ratio(hits as f64, touches),
        touches_per_txn: touches / committed,
        records_per_txn: log.head().0 as f64 / committed,
        page_ops_per_txn: dep.storage.page_ops() as f64 / committed,
        write_share: write_commits / committed,
        streams: dep.streams.len() as f64,
        scan_rows_per_txn: {
            let m = cell.mix;
            m.scan / (m.t1 + m.t2 + m.t3 + m.t4 + m.scan) * cloudybench::driver::SCAN_SPAN as f64
        },
    };
    p.push(
        "core.driver.host_ns_per_txn",
        "ns",
        r.host.cpu_s * 1e9 / committed,
    );
    p.push("core.driver.sim_txn_per_s", "1/s", committed / r.host.cpu_s);
    p.push(
        "core.driver.useful_attempt_ratio",
        "ratio",
        ratio(o.committed as f64, attempts as f64),
    );
    p.push("core.deploy.new_s", "s", r.setup.cpu_s);
    p.push("engine.bufferpool.hit_ratio", "ratio", c.hit_ratio);
    p.push(
        "engine.bufferpool.touches_per_txn",
        "count",
        c.touches_per_txn,
    );
    p.push("engine.bufferpool.dirty_evictions", "count", dirty as f64);
    p.push("engine.locks.conflicts", "count", o.lock_conflicts as f64);
    p.push("engine.mvcc.si_aborts", "count", o.si_aborts as f64);
    p.push("store.wal.records_per_txn", "count", c.records_per_txn);
    p.push(
        "store.wal.bytes_per_txn",
        "B",
        log.appended_bytes() as f64 / committed,
    );
    p.push(
        "store.group_commit.log_ops_per_commit",
        "count",
        ratio(dep.storage.log_ops() as f64, write_commits),
    );
    p.push(
        "store.service.page_ops_per_txn",
        "count",
        c.page_ops_per_txn,
    );
    let allocs = r.allocs.unwrap_or_default();
    p.push(
        "harness.allocs_per_txn",
        "count",
        allocs.allocs as f64 / committed,
    );
    p.push(
        "harness.alloc_bytes_per_txn",
        "B",
        allocs.bytes as f64 / committed,
    );
    c
}

fn openloop_lines(p: &mut Probes<'_>, o: &DriverOutcome, r: &Repeat) {
    let per_arrival = r.host.cpu_s * 1e9 / o.arrivals.max(1) as f64;
    p.push("core.openloop.host_ns_per_arrival", "ns", per_arrival);
    p.push(
        "core.openloop.peak_tracked_ops",
        "count",
        o.peak_tracked_ops as f64,
    );
}

fn chaos_lines(p: &mut Probes<'_>, totals: &ChaosTotals, r: &Repeat) {
    p.push("chaos.seed_runs_per_s", "1/s", r.ops as f64 / r.host.cpu_s);
    p.push("chaos.committed", "count", totals.committed as f64);
    p.push("chaos.crashes", "count", totals.crashes as f64);
    p.push("chaos.faults", "count", totals.faults as f64);
    p.push("chaos.violations", "count", totals.violations as f64);
}

fn testbed_lines(p: &mut Probes<'_>, laps: &EvaluatorLaps) {
    p.push("core.testbed.oltp_s", "s", laps.oltp.cpu_s);
    p.push("core.testbed.elasticity_s", "s", laps.elasticity.cpu_s);
    p.push("core.testbed.failover_s", "s", laps.failover.cpu_s);
    p.push("core.testbed.lagtime_s", "s", laps.lagtime.cpu_s);
    p.push("core.testbed.replicas_s", "s", laps.replicas.cpu_s);
    p.push("core.testbed.tenancy_s", "s", laps.tenancy.cpu_s);
}

/// The traced repeat of `cell`: spans on, allocations of the timed call
/// counted, testbed evaluators called one by one.
fn traced_repeat(cell: &Cell, seed: u64, spans: &mut SpanLog) -> (Repeat, Leftover) {
    let mut ins = Instrument {
        spans,
        obs: ObsSink::disabled(),
        traced: true,
    };
    run_repeat(cell, seed, &mut ins)
}

/// Everything the traced run measures on a log: the two redo paths over the
/// complete post-run WAL of a quick read-write cell, their 2-thread
/// speed-up, the codec over its records, and the check that every rebuilt
/// table equals the live one.
fn log_probes(p: &mut Probes<'_>, seed: u64, gate: &mut Gate) {
    let cell = Workload::OltpRwCached.cell(Size::Quick);
    let (repeat, leftover) = p.spans.scope("reference.write_path", |s| {
        run_repeat(&cell, seed, &mut Instrument::off(s))
    });
    let (dep, _) = leftover.driver();
    let log = dep.db.log();
    let records = log.retained() as f64;
    let complete = log.oldest_retained().is_none_or(|l| l.0 <= 1) && records >= 1000.0;
    let sample: Vec<_> = log
        .records_after(cb_store::Lsn::ZERO)
        .take(4096)
        .cloned()
        .collect();
    wal_probes(p, &sample);

    // Each rebuild gets a prebuilt base so only the redo is timed.
    let spans = &mut *p.spans;
    let mut rebuild = |name: &str, redo: &dyn Fn(cb_engine::Database) -> cb_engine::Database| {
        let base = dep.base_database();
        spans.scope(name, |_| time(|| redo(base)))
    };
    let (seq, seq_lap) = rebuild("engine.recovery.rebuild", &|base| {
        cb_engine::recovery::rebuild(move || base, log)
    });
    let (par1, par1_lap) = rebuild("core.replay.rebuild_parallel.j1", &|base| {
        cloudybench::rebuild_parallel(move || base, log, 1)
    });
    let (par2, par2_lap) = rebuild("core.replay.rebuild_parallel.j2", &|base| {
        cloudybench::rebuild_parallel(move || base, log, 2)
    });
    let per_record = |cpu_s: f64| cpu_s * 1e9 / records.max(1.0);
    p.push(
        "engine.recovery.rebuild_ns_per_record",
        "ns",
        per_record(seq_lap.cpu_s),
    );
    p.push(
        "core.replay.rebuild_ns_per_record",
        "ns",
        per_record(par1_lap.cpu_s),
    );
    // Two threads: wall is the only clock that sees both.
    p.push(
        "core.replay.rebuild_j2_speedup",
        "ratio",
        par1_lap.wall_s / par2_lap.wall_s,
    );

    let mut check = if complete {
        Ok(())
    } else {
        Err(format!(
            "write-path reference cell: {records} log records, truncated or too few"
        ))
    };
    for (path, rebuilt) in [
        ("sequential", &seq),
        ("parallel j1", &par1),
        ("parallel j2", &par2),
    ] {
        for t in dep.db.tables() {
            if check.is_ok() && dep.db.dump_table(t.id()) != rebuilt.dump_table(t.id()) {
                check = Err(format!(
                    "{path} rebuild: table {} differs from the live one",
                    t.name()
                ));
            }
        }
    }
    gate.add(repeat.ops, check);
}

/// `create_tables` + `load_dataset` alone, at the shape of `dep`.
fn schema_probe(p: &mut Probes<'_>, dep: &Deployment) {
    let mut db = cb_engine::Database::new();
    let tables = p.spans.scope("core.schema.create_tables", |_| {
        cloudybench::create_tables(&mut db)
    });
    let (shape, lap) = p.spans.scope("core.schema.load_dataset", |_| {
        time(|| cloudybench::load_dataset(&mut db, tables, dep.shape, dep.dataset_seed))
    });
    p.push(
        "core.schema.load_rows_per_s",
        "1/s",
        shape.total_rows() as f64 / lap.cpu_s,
    );
}

/// `run_campaign_jobs` at 1 and 2 workers over the same seeds, by wall time.
fn campaign_speedup(p: &mut Probes<'_>, seed: u64) {
    let profile = cb_sut::SutProfile::cdb1();
    let seeds: Vec<u64> = (seed..seed + 24).collect();
    let opts = cb_chaos::ChaosOptions::default();
    let mut run = |jobs: usize| {
        p.spans
            .scope(&format!("core.parallel.campaign.j{jobs}"), |_| {
                time(|| cb_chaos::run_campaign_jobs(&profile, &seeds, &opts, jobs)).1
            })
    };
    let (j1, j2) = (run(1), run(2));
    p.push(
        "core.parallel.campaign_j2_speedup",
        "ratio",
        j1.wall_s / j2.wall_s,
    );
}

/// Share of `core.driver.host_ns_per_txn` the probes account for: probe ns
/// times operations per transaction from the public counters. The rest is
/// driver glue, row codec, SQL binding and host-cache misses the probes do
/// not see.
fn attributed_share(p: &Probes<'_>, c: &DriverCounters, shape: TreeShape) -> f64 {
    let ns = |name: &str| p.value(name);
    let pool_touch = c.hit_ratio * ns("engine.bufferpool.touch_hit_ns")
        + (1.0 - c.hit_ratio) * ns("engine.bufferpool.touch_evict_ns");
    // The sweep probe pays its own pool touches; the rest are point reads.
    let point_touches =
        (c.touches_per_txn - c.scan_rows_per_txn * shape.pages_per_scanned_row).max(0.0);
    let descents = if shape.pages_per_get > 0.0 {
        point_touches / shape.pages_per_get
    } else {
        0.0
    };
    let per_txn = point_touches * pool_touch
        + descents * ns("engine.btree.get_ns")
        + c.scan_rows_per_txn * ns("engine.btree.scan_ns_per_row")
        + c.records_per_txn * ns("store.wal.append_ns")
        + c.page_ops_per_txn * ns("sim.device.submit_ns")
        + c.write_share
            * (ns("engine.locks.register_ns") + c.streams * ns("cluster.replication.on_commit_ns"))
        + ns("engine.sql.registry_get_ns")
        + ns("sim.cpu.reserve_ns")
        + 2.0 * ns("sim.rng.draw_ns")
        + 2.0 * ns("sim.series.tps_record_ns")
        + ns("obs.hist.record_ns")
        + ns("obs.sink.disabled_span_ns");
    per_txn / ns("core.driver.host_ns_per_txn")
}

/// The traced run of one workload: untraced repeats for half of
/// `cfg.seconds` (the base of the overhead ratios), then one traced repeat,
/// the layer probes on what it leaves behind, and quick-size reference cells
/// for the layers this workload never enters, so that every per-layer metric
/// is measured in every traced run. Yields the per-layer metrics.
pub fn measure_traced(w: Workload, cfg: &Config) -> Outcome {
    let size = if cfg.quick { Size::Quick } else { Size::Full };
    let cell = w.cell(size);
    let mut spans = SpanLog::enabled(w.name());
    let (gate, lines, untraced) = spans.scope(&format!("workload.{}", w.name()), |spans| {
        traced_body(w, size, cfg, spans)
    });
    outcome(&cell, gate, lines, &untraced, Some(spans))
}

fn traced_body(
    w: Workload,
    size: Size,
    cfg: &Config,
    spans: &mut SpanLog,
) -> (Gate, Vec<Line>, Vec<Repeat>) {
    let cell = w.cell(size);
    let seed = cfg.seed;
    let sampler = Sampler::calibrate();

    let warmup = (!cfg.quick).then(|| {
        spans.scope("warmup", |s| {
            run_repeat(&cell, seed, &mut Instrument::off(s)).0
        })
    });
    let untraced = spans.scope("untraced", |_| {
        timed_repeats(&cell, seed, cfg.seconds / 2.0, cfg.quick).0
    });
    let (own, own_left) = spans.scope("traced", |s| traced_repeat(&cell, seed, s));
    let mut gate = Gate::judge(warmup.iter().chain(&untraced).chain([&own]));
    let untraced_host_s = stats(untraced.iter().map(|r| r.host.cpu_s)).median;

    let mut p = Probes {
        sampler,
        spans,
        lines: Vec::new(),
    };
    // Sort what the traced repeat left behind by family; a family this
    // workload is not gets its quick reference cell instead.
    let (mut driver, mut chaos, mut testbed) = (None, None, None);
    match own_left {
        Leftover::Driver(dep, o) => driver = Some((own.clone(), (dep, o))),
        Leftover::Chaos(totals) => chaos = Some((own.clone(), totals)),
        Leftover::Testbed(laps) => testbed = laps,
    }
    let mut reference = |x: Workload, spans: &mut SpanLog| {
        let (r, left) = spans.scope(&format!("reference.{}", x.name()), |s| {
            traced_repeat(&x.cell(Size::Quick), seed, s)
        });
        let check = r.check.clone();
        gate.add(
            r.ops,
            check.map_err(|why| format!("reference {}: {why}", x.name())),
        );
        (r, left)
    };

    // The driver cell: this workload's own, or the quick read-write cell.
    let driver_cell: DriverCell = w.driver_cell(size).unwrap_or_else(|| {
        Workload::OltpRwCached
            .driver_cell(Size::Quick)
            .expect("oltp_rw_cached is a driver cell")
    });
    let (driver_repeat, (mut dep, driver_outcome)) = driver.unwrap_or_else(|| {
        let (r, left) = reference(Workload::OltpRwCached, p.spans);
        (r, left.driver())
    });
    let counters = driver_lines(&mut p, &dep, &driver_cell, &driver_outcome, &driver_repeat);
    if w == Workload::OpenloopSiHot {
        openloop_lines(&mut p, &driver_outcome, &driver_repeat);
    } else {
        let (r, left) = reference(Workload::OpenloopSiHot, p.spans);
        openloop_lines(&mut p, &left.driver().1, &r);
    }
    let (chaos_repeat, totals) = chaos.unwrap_or_else(|| {
        let (r, left) = reference(Workload::ChaosRecovery, p.spans);
        (r, left.chaos())
    });
    chaos_lines(&mut p, &totals, &chaos_repeat);
    let laps = testbed.unwrap_or_else(|| reference(Workload::PerfectCdb3, p.spans).1.testbed());
    testbed_lines(&mut p, &laps);

    // The driver cell again with the observability sink on, over a plain
    // repeat of it: what `ObsSink::enabled()` costs a whole run.
    let driver_repeat_host_s = |p: &mut Probes<'_>, name: &str, obs: ObsSink| {
        p.spans.scope(name, |s| {
            let mut ins = Instrument {
                obs,
                ..Instrument::off(s)
            };
            run_repeat(&Cell::Driver(driver_cell), seed, &mut ins)
                .0
                .host
                .cpu_s
        })
    };
    let plain_host_s = if w.driver_cell(size).is_some() {
        untraced_host_s
    } else {
        driver_repeat_host_s(&mut p, "reference.plain", ObsSink::disabled())
    };
    let obs_host_s = driver_repeat_host_s(&mut p, "obs.enabled_run", ObsSink::enabled());
    p.push("obs.enabled_run_ratio", "ratio", obs_host_s / plain_host_s);

    let shape = deployment_probes(&mut p, &mut dep, &driver_cell, seed);
    mvcc_probe(&mut p);
    substrate_probes(&mut p, seed);
    schema_probe(&mut p, &dep);
    drop(dep);
    log_probes(&mut p, seed, &mut gate);
    campaign_speedup(&mut p, seed);

    for (name, unit, value) in own.simstat.fields() {
        p.push(name, unit, value);
    }
    p.push("harness.timer_overhead_ns", "ns", sampler.timer_overhead_ns);
    p.lines.extend(harness_lines(&untraced));
    p.push(
        "harness.tracing_overhead_ratio",
        "ratio",
        own.host.cpu_s / untraced_host_s,
    );
    let share = attributed_share(&p, &counters, shape);
    p.push("harness.attributed_share", "ratio", share);
    p.push(FAILED_OPS_SHARE, "ratio", gate.failed_ops_share());
    p.push("harness.cpu_s", "s", process_cpu().as_secs_f64());
    (gate, p.lines, untraced)
}

/// Where the repository's root is: the benchmark's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark is a directory of the repository")
        .to_path_buf()
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        // Never let git walk above the checkout looking for a repository.
        .env("GIT_CEILING_DIRECTORIES", dir.parent().unwrap_or(dir))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how the numbers were taken. `commit` is the real SHA or null
/// (outside a git checkout), never a symbolic name.
pub fn provenance(cfg: &Config) -> Json {
    let root = repo_root();
    let commit = command_line("git", &["rev-parse", "HEAD"], &root);
    let dirty = command_line("git", &["status", "--porcelain"], &root).map(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("commit", commit.into()),
        ("dirty", dirty.into()),
        ("rustc", command_line("rustc", &["-V"], &root).into()),
        ("nproc", nproc.into()),
        ("seed", cfg.seed.into()),
        ("seconds", cfg.seconds.into()),
        (
            "mode",
            if cfg.traced { "traced" } else { "untraced" }.into(),
        ),
        ("quick", cfg.quick.into()),
        ("clock", "thread_cpu".into()),
        (
            "timer_overhead_ns",
            Sampler::calibrate().timer_overhead_ns.into(),
        ),
    ])
}

fn write(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// File name of the results of a run in this mode.
pub fn results_file(traced: bool) -> &'static str {
    if traced {
        "results_traced.json"
    } else {
        "results.json"
    }
}

/// Measure one workload in this process, print its lines, write its files.
pub fn run_one(w: Workload, cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("create {}: {e}", cfg.out.display()))?;
    let outcome = if cfg.traced {
        measure_traced(w, cfg)
    } else {
        measure_untraced(w, cfg)
    };
    for line in &outcome.lines {
        line.print(w.name());
    }
    for failure in &outcome.gate.failures {
        eprintln!("{}: FAILED CHECK: {failure}", w.name());
    }
    if let Some(spans) = &outcome.spans {
        write(&cfg.out.join("trace.json"), &spans.chrome_trace())?;
        write(&cfg.out.join("layers.json"), &spans.layers())?;
    }
    let results = obj([
        ("provenance", provenance(cfg)),
        (
            "workloads",
            Json::Obj(vec![(w.name().to_string(), outcome.detail.clone())]),
        ),
    ]);
    write(&cfg.out.join(results_file(cfg.traced)), &results)?;
    Ok(outcome)
}

/// Measure every workload, each in its own child process, one at a time;
/// merge their results into `cfg.out`. Returns whether every check passed.
pub fn run_all(cfg: &Config) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("create {}: {e}", cfg.out.display()))?;
    let mut merged = Vec::new();
    let mut summary = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let dir = cfg.out.join(w.name());
        let mut cmd = Command::new(&exe);
        cmd.arg("run")
            .args(["--workload", w.name()])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if cfg.quick {
            cmd.arg("--quick");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("read child output: {e}"))?;
            // The child's result line is folded into this run's summary.
            if !line.starts_with('{') {
                println!("{line}");
            }
            last = line;
        }
        let status = child.wait().map_err(|e| format!("wait for child: {e}"))?;
        let result = Json::parse(&last).map_err(|e| format!("{}: result line: {e}", w.name()))?;
        all_correct &=
            status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
        summary.push((w.name().to_string(), result));

        let path = dir.join(results_file(cfg.traced));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let child_results = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let entry = child_results
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .ok_or_else(|| format!("{}: no entry for {}", path.display(), w.name()))?;
        merged.push((w.name().to_string(), entry.clone()));
    }
    let results = obj([
        ("provenance", provenance(cfg)),
        ("workloads", Json::Obj(merged)),
    ]);
    write(&cfg.out.join(results_file(cfg.traced)), &results)?;
    println!(
        "{}",
        obj([
            ("correct", all_correct.into()),
            ("workloads", Json::Obj(summary)),
        ])
        .compact()
    );
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_repeat(w: Workload, seed: u64) -> Repeat {
        let cell = w.cell(Size::Quick);
        run_repeat(&cell, seed, &mut Instrument::off(&mut SpanLog::disabled())).0
    }

    #[test]
    fn identical_repeats_pass_and_a_perturbed_one_is_caught() {
        let w = Workload::ChaosRecovery;
        let (a, b) = (quick_repeat(w, 11), quick_repeat(w, 11));
        let clean = Gate::judge([&a, &b]);
        assert_eq!(clean.failures, Vec::<String>::new());
        assert_eq!((clean.attempted, clean.failed), (a.ops + b.ops, 0));

        // A second repeat from another seed: different inputs, so different
        // simulated statistics, and the gate fails exactly its operations.
        let perturbed = quick_repeat(w, 12);
        assert!(
            perturbed.check.is_ok(),
            "the perturbed repeat is healthy by itself"
        );
        let gate = Gate::judge([&a, &perturbed]);
        assert_eq!(gate.failed, perturbed.ops);
        assert_eq!(gate.attempted, a.ops + perturbed.ops);
        assert_eq!(gate.failures.len(), 1);
        assert!(gate.failures[0].starts_with("repeat 1: simulated statistics differ"));
        assert_eq!(gate.failed_ops_share(), 0.5);
    }

    #[test]
    fn a_failed_invariant_fails_the_repeat_and_the_result_line_says_so() {
        let mut r = quick_repeat(Workload::ChaosRecovery, 11);
        r.check = Err("3 of 20 seed-runs clean".to_string());
        let ops = r.ops;
        let mut gate = Gate::judge([&r]);
        assert_eq!((gate.attempted, gate.failed), (ops, ops));
        gate.add(5, Ok(()));
        gate.add(5, Err("replay differs".to_string()));
        assert_eq!(
            (gate.attempted, gate.failed, gate.failures.len()),
            (ops + 10, ops + 5, 2)
        );

        let cell = Workload::ChaosRecovery.cell(Size::Quick);
        let lines = vec![
            Line::single("host_s", "s", 1.25),
            Line::single("other", "s", 2.0),
        ];
        let out = outcome(&cell, gate, lines, &[r], None);
        let line = out.result_line(&["host_s".to_string()]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            line.get("failed").and_then(Json::as_f64),
            Some((ops + 5) as f64)
        );
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), 1, "only listed metrics are reported");
        assert_eq!(
            metrics[0].1,
            obj([("value", 1.25.into()), ("unit", "s".into())])
        );
    }
}
