//! Golden gate: "same bytes out", checked on every `cargo test`.
//!
//! A fixed corpus of real runs — every props mode, the chaos and sharded-2PC
//! campaigns, the `load` subcommand's artifact, and every scaling kind (the
//! elasticity runs of the three autoscaled profiles, one what-if scaler, and
//! Fig 9's constant-load baselines), the fixed-capacity OLTP cell (the
//! testbed's P-Score and replica runs, and two cells back to back on one
//! warm deployment), every profile's metered usage, prices and fail-over
//! plans, and the version store under snapshot and serializable load — is
//! reduced to one FNV-1a-64 digest per entry and compared with
//! `golden/MANIFEST`. The corpus is driven through the libraries (and, for
//! `load`, the binary with a temporary `--out`), so no output path enters a
//! digest.
//!
//! A change that moves any pinned byte fails here. If the move is intended
//! (a declared model change), the panic prints the whole actual manifest:
//! paste it over `golden/MANIFEST`, and the manifest diff in the change is
//! its model-change declaration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use cb_chaos::{run_campaign_jobs, run_shard2pc_campaign_jobs, ChaosOptions, Shard2pcOptions};
use cb_cli::run_from_props;
use cb_cluster::{plan_failover, plan_ro_failover, FailoverTimeline, ResourceUsage, ScalingKind};
use cb_engine::recovery::AriesAnalysis;
use cb_engine::{EvictionPolicyKind, IsolationLevel};
use cb_load::{ArrivalPlan, ArrivalProcess, PhasePlan};
use cb_obs::{ascii_timeline, chrome_trace_json, histogram_csv, histogram_summary_json, ObsSink};
use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;
use cloudybench::baselines::{run_constant, Baseline, BaselineRun};
use cloudybench::config::Props;
use cloudybench::cost::{actual_cost, ruc_cost, CostBreakdown, RucRates};
use cloudybench::elasticity::{evaluate_elasticity, ElasticPattern};
use cloudybench::parallel::par_map;
use cloudybench::tenancy::{evaluate_tenancy, TenancyPattern};
use cloudybench::{
    oltp_cell, run, run_open_loop, AccessDistribution, Deployment, KeyPartition, OpenLoopSpec,
    RunOptions, RunResult, TenantSpec, Testbed, TxnMix, VcoreControl,
};

const MANIFEST: &str = include_str!("golden/MANIFEST");

/// Seeds per chaos and sharded-2PC campaign cell.
const SEEDS: u64 = 30;

/// FNV-1a, 64-bit. Every field goes in followed by a NUL, so adjacent
/// fields cannot trade bytes without changing the digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn field(&mut self, bytes: impl AsRef<[u8]>) -> &mut Self {
        for &b in bytes.as_ref().iter().chain(&[0]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Feed the sink's four exports into `h`; returns the sink's
/// `autoscale.decisions` counter.
fn sink_fields(h: &mut Fnv, obs: &ObsSink) -> u64 {
    obs.with(|t| {
        h.field(chrome_trace_json(t))
            .field(histogram_summary_json(t))
            .field(histogram_csv(t))
            .field(ascii_timeline(t));
        t.counter("autoscale.decisions")
    })
    .expect("sink enabled")
}

/// `run_from_props` with the sink on: the digest of the printed report plus
/// the sink's four exports, and the run's autoscale decision count.
fn props_digest(text: &str) -> (String, u64) {
    let props = Props::parse(text).expect("corpus props parse");
    let obs = ObsSink::enabled();
    let report = run_from_props(&props, &obs).expect("corpus run succeeds");
    let mut h = Fnv::new();
    h.field(report);
    let decisions = sink_fields(&mut h, &obs);
    (h.hex(), decisions)
}

fn props_corpus(out: &mut BTreeMap<String, String>) {
    const OLTP: &str = "mode = oltp\nsim_scale = 2000\nconcurrency = 10\nduration_secs = 3";
    let mut runs: Vec<(String, String)> = SutProfile::all()
        .iter()
        .map(|p| {
            (
                format!("oltp.{}", p.name),
                format!("sut = {}\n{OLTP}", p.name),
            )
        })
        .collect();
    for policy in ["sieve", "lru-k"] {
        runs.push((
            format!("oltp.cdb2.{policy}"),
            format!("sut = cdb2\n{OLTP}\neviction = {policy}"),
        ));
    }
    runs.push((
        "oltp.cdb2.scan-zipfian".into(),
        format!("sut = cdb2\n{OLTP}\nmix = 0:0:90:0:10\ndistribution = zipfian-0.99"),
    ));
    for (mode, extra) in [
        ("failover", "concurrency = 10"),
        ("lagtime", "concurrency = 10"),
        ("elasticity", "pattern = zero-valley\ntau = 10"),
        ("tenancy", "tenancy_scale = 0.1"),
    ] {
        runs.push((
            format!("{mode}.cdb3"),
            format!("sut = cdb3\nmode = {mode}\nsim_scale = 2000\n{extra}"),
        ));
    }
    // The other two autoscaled kinds, each at the smallest τ whose run
    // makes a scaling decision (cdb3's quantised scaler is pinned above),
    // and a fixed tier under the same autoscaling run options.
    for (sut, tau) in [("cdb1", 15), ("cdb2", 5), ("aws-rds", 10)] {
        runs.push((
            format!("elasticity.{sut}"),
            format!("sut = {sut}\nmode = elasticity\nsim_scale = 2000\npattern = zero-valley\ntau = {tau}"),
        ));
    }
    runs.push((
        "sharded.aws-rds".into(),
        "mode = sharded\nsut = aws-rds\nsim_scale = 2000\nshards = 2\ntenants_per_shard = 2\n\
         slot_secs = 2\ntransfers = 8\nshift_secs = 4"
            .into(),
    ));
    let digests = par_map(&runs, 2, |_, (_, text)| props_digest(text));
    for ((name, _), (digest, decisions)) in runs.into_iter().zip(digests) {
        if name.starts_with("elasticity.") {
            // Fixed capacity builds no autoscaler; every other kind decides.
            let fixed = name == "elasticity.aws-rds";
            assert_eq!(decisions == 0, fixed, "{name}: {decisions} decisions");
        }
        out.insert(name, digest);
    }
}

/// Ablation 1's what-if: CDB1 with the on-demand scaler in place of its
/// gradual scale-down, through the elasticity evaluator.
fn what_if_corpus(out: &mut BTreeMap<String, String>) {
    let mut profile = SutProfile::cdb1();
    profile.scaling = ScalingKind::OnDemand;
    let obs = ObsSink::enabled();
    let base = RunOptions {
        seed: 7,
        obs: obs.clone(),
        ..RunOptions::default()
    };
    let r = evaluate_elasticity(
        &profile,
        ElasticPattern::ZeroValley,
        TxnMix::read_write(),
        15,
        2000,
        &base,
    );
    let mut h = Fnv::new();
    h.field(r.avg_tps.to_bits().to_le_bytes())
        .field(r.e1.to_bits().to_le_bytes())
        .field(r.cost.total().to_bits().to_le_bytes());
    for (t, v) in r.vcores.points() {
        h.field(t.as_nanos().to_le_bytes())
            .field(v.to_bits().to_le_bytes());
    }
    let decisions = sink_fields(&mut h, &obs);
    assert!(decisions > 0, "the what-if scaler never decides");
    out.insert("elasticity.cdb1.on-demand".into(), h.hex());
}

/// Every allocation change, every per-second rate and the average, as bits.
fn baseline_digest(run: &BaselineRun) -> String {
    let points = run.vcores.points();
    assert!(points.len() > 1, "the baseline's autoscaler never moved");
    let mut h = Fnv::new();
    for (t, v) in points {
        h.field(t.as_nanos().to_le_bytes())
            .field(v.to_bits().to_le_bytes());
    }
    for r in run.tps.rate_series() {
        h.field(r.to_bits().to_le_bytes());
    }
    h.field(run.avg_tps.to_bits().to_le_bytes());
    h.hex()
}

/// Fig 9's constant-load baselines on CDB3, through the baselines runner's
/// own sampling loop (Fig 9's thread counts, two simulated minutes).
fn baselines_corpus(out: &mut BTreeMap<String, String>) {
    let profile = SutProfile::cdb3();
    let duration = SimDuration::from_secs(120);
    let sys = run_constant(&profile, Baseline::Sysbench, 11, duration, 2000, 7);
    let tpcc = run_constant(&profile, Baseline::TpccLite, 44, duration, 2000, 7);
    out.insert("baselines.cdb3.sysbench".into(), baseline_digest(&sys));
    out.insert("baselines.cdb3.tpcc".into(), baseline_digest(&tpcc));
}

/// Every f64 as its bits.
fn bits(h: &mut Fnv, values: &[f64]) {
    for v in values {
        h.field(v.to_bits().to_le_bytes());
    }
}

/// One fixed-capacity OLTP cell on a warm deployment: ten read-write
/// clients for 3 s over the whole key space. Hashes the TPS, the cost per
/// minute and the primary pool's hit, miss and dirty-eviction deltas.
fn warm_cell(h: &mut Fnv, dep: &mut Deployment, eviction: EvictionPolicyKind) {
    let opts = RunOptions {
        seed: 7,
        eviction,
        ..RunOptions::default()
    };
    let pool = |d: &Deployment| {
        let p = &d.nodes[0].pool;
        [p.hits(), p.misses(), p.dirty_evictions()]
    };
    let before = pool(dep);
    let (rw, uniform) = (TxnMix::read_write(), AccessDistribution::Uniform);
    let r = oltp_cell(dep, 10, SimDuration::from_secs(3), rw, uniform, &opts);
    let after = pool(dep);
    let c = &r.cost_per_min;
    bits(h, &[r.avg_tps, c.cpu, c.mem, c.storage, c.iops, c.network]);
    for (a, b) in after.iter().zip(before) {
        h.field((a - b).to_le_bytes());
    }
}

/// The fixed-capacity OLTP cells no props mode reaches: the testbed's
/// P-Score run and its E2 replica probe on CDB3, and two back-to-back cells
/// on one CDB2 deployment, the second warm and under SIEVE.
fn cell_corpus(out: &mut BTreeMap<String, String>) {
    let mut tb = Testbed::new(SutProfile::cdb3(), 2000, 7);
    tb.concurrency = 20;
    let r = tb.oltp(1, TxnMix::read_write(), 5);
    let c = &r.cost_per_min;
    let mut h = Fnv::new();
    h.field(r.committed.to_le_bytes());
    let avg_latency_ms = r.run.tenants[0].avg_latency().as_millis_f64();
    bits(&mut h, &[r.avg_tps, avg_latency_ms, r.p99_latency_ms]);
    bits(&mut h, &[c.cpu, c.mem, c.storage, c.iops, c.network]);
    bits(&mut h, &[0, 1, 2].map(|ro| tb.read_tps_with_replicas(ro)));
    out.insert("cell.testbed.cdb3".into(), h.hex());

    let mut dep = Deployment::new(SutProfile::cdb2(), 1, 2000, 1, 7);
    let mut h = Fnv::new();
    warm_cell(&mut h, &mut dep, EvictionPolicyKind::Lru);
    warm_cell(&mut h, &mut dep, EvictionPolicyKind::Sieve);
    out.insert("cell.warm.cdb2".into(), h.hex());
}

/// Every field of a usage record, floats as bits.
fn usage_fields(h: &mut Fnv, u: &ResourceUsage) {
    bits(
        h,
        &[u.avg_vcores, u.avg_mem_gb, u.storage_gb, u.network_gbps],
    );
    h.field(u.iops.to_le_bytes())
        .field(u.observed_iops.to_le_bytes())
        .field([u8::from(u.rdma)])
        .field(u.window.as_nanos().to_le_bytes());
}

fn cost_fields(h: &mut Fnv, c: &CostBreakdown) {
    bits(h, &[c.cpu, c.mem, c.storage, c.iops, c.network]);
}

fn timeline_fields(h: &mut Fnv, tl: &FailoverTimeline) {
    h.field(tl.injected_at.as_nanos().to_le_bytes())
        .field(tl.service_resumed_at.as_nanos().to_le_bytes());
    for p in &tl.phases {
        h.field(p.name)
            .field(p.start.as_nanos().to_le_bytes())
            .field(p.end.as_nanos().to_le_bytes());
    }
}

/// What each profile states about billing and recovery, as bits: the
/// metered usage of a 3 s cell on one RW and one RO node, its Resource
/// Unit and vendor-actual prices, and the RW and RO fail-over plans over a
/// fixed log analysis. Then the usage paths that do not meter a
/// deployment: CDB4's isolated tenant instances (RDMA, remote memory per
/// instance) and the per-slot scaling costs of a serverless and a fixed
/// memory tier.
fn sut_corpus(out: &mut BTreeMap<String, String>) {
    let analysis = AriesAnalysis {
        scanned: 50_000,
        redo_records: 40_000,
        undo_records: 200,
        loser_txns: 50,
        in_doubt_txns: 0,
    };
    let profiles = SutProfile::all();
    let digests = par_map(&profiles, 2, |_, p| {
        let mut dep = Deployment::new(p.clone(), 1, 2000, 1, 7);
        let opts = RunOptions {
            seed: 7,
            ..RunOptions::default()
        };
        let (rw, uniform) = (TxnMix::read_write(), AccessDistribution::Uniform);
        let secs = SimDuration::from_secs(3);
        oltp_cell(&mut dep, 10, secs, rw, uniform, &opts);
        let u = dep.usage(SimTime::ZERO, SimTime::ZERO + secs);
        let mut usage = Fnv::new();
        usage_fields(&mut usage, &u);
        cost_fields(&mut usage, &ruc_cost(&u, &RucRates::default()));
        cost_fields(&mut usage, &actual_cost(&u, &p.actual_pricing));

        let mut recovery = Fnv::new();
        let inject = SimTime::from_secs(10);
        let detected = inject + p.failover.detection;
        timeline_fields(
            &mut recovery,
            &plan_failover(&p.failover, &p.replay, inject, detected, &analysis),
        );
        timeline_fields(&mut recovery, &plan_ro_failover(&p.failover, inject));
        (usage.hex(), recovery.hex())
    });
    for (p, (usage, recovery)) in profiles.iter().zip(digests) {
        out.insert(format!("usage.{}", p.name), usage);
        out.insert(format!("recovery.{}", p.name), recovery);
    }

    let base = RunOptions {
        seed: 7,
        ..RunOptions::default()
    };
    let cdb4 = SutProfile::cdb4();
    let r = evaluate_tenancy(&cdb4, TenancyPattern::StaggeredLow, 0.1, 5000, &base);
    assert!(r.usage.rdma, "CDB4 bills an RDMA fabric");
    let mut h = Fnv::new();
    usage_fields(&mut h, &r.usage);
    out.insert("usage.tenancy.cdb4".into(), h.hex());

    // A fixed tier never scales, so AWS RDS runs under the on-demand scaler
    // here: its memory bill stays per node while its vCores move.
    let mut rds = SutProfile::aws_rds();
    rds.scaling = ScalingKind::OnDemand;
    rds.min_vcores = 1.0;
    for (name, p) in [("cdb1", SutProfile::cdb1()), ("aws-rds.on-demand", rds)] {
        let mix = TxnMix::read_write();
        let r = evaluate_elasticity(&p, ElasticPattern::ZeroValley, mix, 15, 5000, &base);
        assert!(r.scalings.iter().any(|s| s.scaling_cost > 0.0), "{name}");
        let mut h = Fnv::new();
        for s in &r.scalings {
            bits(&mut h, &[s.scaling_cost]);
        }
        out.insert(format!("usage.scalings.{name}"), h.hex());
    }
}

/// Hash the latency histogram, the per-second series and the version
/// store's lifetime counters of a snapshot-isolation run.
fn versioned_fields(h: &mut Fnv, run: &RunResult, dep: &Deployment) {
    for t in &run.tenants {
        h.field(t.committed.to_le_bytes())
            .field(t.latency_sum.as_nanos().to_le_bytes())
            .field(t.latency_max.as_nanos().to_le_bytes());
        for p in [50.0, 99.0, 99.9] {
            h.field(t.latency_hist.percentile(p).to_le_bytes());
        }
    }
    for r in run.total.rate_series() {
        h.field(r.to_bits().to_le_bytes());
    }
    let versions = dep.db.versions();
    h.field(run.si_aborts.to_le_bytes())
        .field(run.lock_conflicts.to_le_bytes())
        .field(dep.db.log().head().0.to_le_bytes())
        .field(versions.published().to_le_bytes())
        .field((versions.max_chain() as u64).to_le_bytes())
        .field((versions.tracked_rows() as u64).to_le_bytes());
}

/// The version store under load, past the first 10 s watermark GC: the
/// open loop's write-only mix on a 10-key hot set at SI (the
/// `openloop_si_hot` regime at a small scale), and closed loops at SI and
/// SER whose mix adds point reads, range scans and deletes to the writes.
fn mvcc_corpus(out: &mut BTreeMap<String, String>) {
    let cells: [(&str, &str, IsolationLevel); 3] = [
        ("mvcc.openloop.cdb3.si", "cdb3", IsolationLevel::Snapshot),
        ("mvcc.closed.cdb2.si", "cdb2", IsolationLevel::Snapshot),
        ("mvcc.closed.cdb4.ser", "cdb4", IsolationLevel::Serializable),
    ];
    let digests = par_map(&cells, 2, |_, &(name, sut, isolation)| {
        let profile = SutProfile::by_name(sut).expect("built-in profile");
        let mut dep = Deployment::new(profile, 1, 2000, 1, 7);
        let partition = KeyPartition::whole(dep.shape.orders, dep.shape.customers);
        let obs = ObsSink::enabled();
        let opts = RunOptions {
            seed: 7,
            vcores: VcoreControl::Fixed,
            isolation: Some(isolation),
            obs: obs.clone(),
            ..RunOptions::default()
        };
        let mut h = Fnv::new();
        let run = if name.starts_with("mvcc.openloop.") {
            let phases = PhasePlan::new(
                SimDuration::from_secs(1),
                SimDuration::from_secs(1),
                SimDuration::from_secs(12),
            );
            let spec = OpenLoopSpec {
                plan: ArrivalPlan::fixed_rate(ArrivalProcess::poisson(3000.0), phases, 100_000),
                mix: TxnMix::iud(60.0, 30.0, 10.0),
                dist: AccessDistribution::Latest(10),
                partition,
            };
            let r = run_open_loop(&mut dep, &spec, &opts);
            h.field(r.arrivals.to_le_bytes())
                .field(r.completed.to_le_bytes())
                .field(r.measured.to_le_bytes())
                .field(r.blocked_retries.to_le_bytes())
                .field(r.response_sum.as_nanos().to_le_bytes())
                .field(r.queue_depth_max.to_le_bytes());
            r.run
        } else {
            let mix = TxnMix::new(20.0, 30.0, 30.0, 10.0).with_scan(10.0);
            let spec = TenantSpec::constant(
                16,
                SimDuration::from_secs(12),
                mix,
                AccessDistribution::Latest(10),
                partition,
            );
            run(&mut dep, &[spec], &opts)
        };
        versioned_fields(&mut h, &run, &dep);
        sink_fields(&mut h, &obs);
        let (published, pruned) = obs
            .with(|t| (t.counter("mvcc.published"), t.counter("mvcc.gc.pruned")))
            .expect("sink enabled");
        assert!(published > 0, "{name}: nothing published");
        assert!(pruned > 0, "{name}: the watermark GC pruned nothing");
        assert!(run.si_aborts > 0, "{name}: no first-committer-wins abort");
        h.hex()
    });
    for ((name, _, _), digest) in cells.into_iter().zip(digests) {
        out.insert(name.into(), digest);
    }
}

fn chaos_corpus(out: &mut BTreeMap<String, String>) {
    let seeds: Vec<u64> = (0..SEEDS).collect();
    for profile in SutProfile::all() {
        for isolation in [IsolationLevel::ReadCommitted, IsolationLevel::Snapshot] {
            for eviction in [
                EvictionPolicyKind::Lru,
                EvictionPolicyKind::Sieve,
                EvictionPolicyKind::LruK,
            ] {
                let opts = ChaosOptions {
                    isolation,
                    eviction,
                    ..ChaosOptions::default()
                };
                let report = run_campaign_jobs(&profile, &seeds, &opts, 2);
                let mut h = Fnv::new();
                for r in &report.reports {
                    let a = &r.artifacts;
                    h.field(r.seed.to_le_bytes())
                        .field(&r.profile)
                        .field(r.committed.to_le_bytes())
                        .field(r.aborted.to_le_bytes())
                        .field(r.crashes.to_le_bytes())
                        .field(r.faults.to_le_bytes())
                        .field(r.gc_promoted.to_le_bytes())
                        .field(r.gc_dropped.to_le_bytes())
                        .field(&a.trace)
                        .field(&a.hist_json)
                        .field(&a.hist_csv)
                        .field(&a.timeline);
                }
                for v in &report.violations {
                    h.field(v.to_string());
                }
                let name = format!(
                    "chaos.{}.{}.{}",
                    profile.name,
                    isolation.as_str(),
                    eviction.label()
                );
                out.insert(name, h.hex());
            }
        }
    }
}

fn shard2pc_corpus(out: &mut BTreeMap<String, String>) {
    let seeds: Vec<u64> = (0..SEEDS).collect();
    for profile in SutProfile::all() {
        let report = run_shard2pc_campaign_jobs(&profile, &seeds, &Shard2pcOptions::default(), 2);
        let mut h = Fnv::new();
        h.field(format!("{report:?}"));
        out.insert(format!("shard2pc.{}", profile.name), h.hex());
    }
}

/// `cloudybench load --out <tmp>`: the digest of `load-report.txt`.
fn load_digest(name: &str, args: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("cb-golden-{}-{name}", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_cloudybench"))
        .arg("load")
        .args(args)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("the cloudybench binary runs")
        .status;
    assert!(status.success(), "load {args:?} exited {status}");
    let report = std::fs::read(dir.join("load-report.txt")).expect("load-report.txt written");
    std::fs::remove_dir_all(&dir).expect("temporary --out removed");
    Fnv::new().field(report).hex()
}

fn load_corpus(out: &mut BTreeMap<String, String>) {
    out.insert(
        "load.poisson".into(),
        load_digest("poisson", &["--arrival", "poisson:5000/s", "--runs", "2"]),
    );
    out.insert(
        "load.maxtp".into(),
        load_digest("maxtp", &["--arrival", "maxtp:16"]),
    );
}

#[test]
fn golden_manifest_matches() {
    let mut actual = BTreeMap::new();
    props_corpus(&mut actual);
    what_if_corpus(&mut actual);
    baselines_corpus(&mut actual);
    cell_corpus(&mut actual);
    sut_corpus(&mut actual);
    mvcc_corpus(&mut actual);
    chaos_corpus(&mut actual);
    shard2pc_corpus(&mut actual);
    load_corpus(&mut actual);

    let expected: BTreeMap<&str, &str> = MANIFEST
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_once(' ').expect("manifest line is `name digest`"))
        .collect();
    let mut differ: Vec<&str> = actual
        .iter()
        .filter(|(name, digest)| expected.get(name.as_str()) != Some(&digest.as_str()))
        .map(|(name, _)| name.as_str())
        .collect();
    differ.extend(
        expected
            .keys()
            .filter(|name| !actual.contains_key(**name))
            .copied(),
    );
    if !differ.is_empty() {
        let mut manifest = String::new();
        for (name, digest) in &actual {
            writeln!(manifest, "{name} {digest}").expect("write to String");
        }
        panic!(
            "golden digests differ for {} entries: {}\n\
             actual manifest (paste over crates/cli/tests/golden/MANIFEST if the \
             change is an intended model change):\n{manifest}",
            differ.len(),
            differ.join(", ")
        );
    }
}
