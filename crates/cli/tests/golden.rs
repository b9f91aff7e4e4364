//! Golden gate: "same bytes out", checked on every `cargo test`.
//!
//! A fixed corpus of real runs — every props mode, the chaos and sharded-2PC
//! campaigns, and the `load` subcommand's artifact — is reduced to one
//! FNV-1a-64 digest per entry and compared with `golden/MANIFEST`. The
//! corpus is driven through the libraries (and, for `load`, the binary with
//! a temporary `--out`), so no output path enters a digest.
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
use cb_engine::{EvictionPolicyKind, IsolationLevel};
use cb_obs::{ascii_timeline, chrome_trace_json, histogram_csv, histogram_summary_json, ObsSink};
use cb_sut::SutProfile;
use cloudybench::config::Props;
use cloudybench::parallel::par_map;

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

/// `run_from_props` with the sink on: the printed report plus the sink's
/// four exports.
fn props_digest(text: &str) -> String {
    let props = Props::parse(text).expect("corpus props parse");
    let obs = ObsSink::enabled();
    let report = run_from_props(&props, &obs).expect("corpus run succeeds");
    let mut h = Fnv::new();
    h.field(report);
    obs.with(|t| {
        h.field(chrome_trace_json(t))
            .field(histogram_summary_json(t))
            .field(histogram_csv(t))
            .field(ascii_timeline(t));
    })
    .expect("sink enabled");
    h.hex()
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
    runs.push((
        "sharded.aws-rds".into(),
        "mode = sharded\nsut = aws-rds\nsim_scale = 2000\nshards = 2\ntenants_per_shard = 2\n\
         slot_secs = 2\ntransfers = 8\nshift_secs = 4"
            .into(),
    ));
    let digests = par_map(&runs, 2, |_, (_, text)| props_digest(text));
    out.extend(runs.into_iter().map(|(name, _)| name).zip(digests));
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
