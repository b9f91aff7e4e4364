//! Props-file driven entry points for the CloudyBench testbed.
//!
//! The paper's testbed is configured through a properties file; this crate
//! turns such a file into an evaluator run and a printed report. The
//! `chaos` and `load` subcommands read their flags through the same
//! [`Props`]: one argv step turns `--flag value` pairs and bare switches
//! into props keyed by the flag as typed, and the name parsers below serve
//! both surfaces. Used by the `cloudybench` binary and directly testable as
//! a library.

#![warn(missing_docs)]

mod chaos_cmd;
mod load_cmd;

use std::ops::RangeInclusive;
use std::path::Path;

use cb_engine::{EvictionPolicyKind, IsolationLevel};
use cb_obs::{write_run_artifacts, ObsSink};
use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;
use cloudybench::config::{ConfigError, ElasticScheduleConfig, Props};
use cloudybench::cost::{ruc_cost, RucRates};
use cloudybench::elasticity::{evaluate_elasticity, ElasticPattern};
use cloudybench::failover_eval::evaluate_failover;
use cloudybench::lagtime::evaluate_lagtime;
use cloudybench::report::{fmoney, fnum, fsecs, Table};
use cloudybench::sharded::ShardMap;
use cloudybench::tenancy::{evaluate_tenancy, TenancyPattern};
use cloudybench::{
    oltp_cell, run, run_fleet, AccessDistribution, Deployment, FleetSpec, KeyPartition, RunOptions,
    ShiftEvent, TenantSpec, TxnMix,
};

/// A CLI-level failure.
#[derive(Debug)]
pub enum CliError {
    /// Configuration problem.
    Config(ConfigError),
    /// Unknown enumeration value.
    Unknown {
        /// Key name.
        key: &'static str,
        /// Offending value.
        value: String,
        /// Accepted values.
        expected: &'static str,
    },
    /// A valid key the selected mode has no way to honour.
    Unsupported {
        /// Key name.
        key: &'static str,
        /// The mode that cannot carry it.
        mode: &'static str,
    },
    /// A line that cannot run, as printed: an unknown flag, a flag without
    /// its value, or a value its parser refused (the message names the key
    /// or flag).
    Arg(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Config(e) => write!(f, "{e}"),
            CliError::Unknown {
                key,
                value,
                expected,
            } => {
                write!(
                    f,
                    "key {key}: unknown value {value:?} (expected one of: {expected})"
                )
            }
            CliError::Unsupported { key, mode } => {
                write!(f, "key {key}: not supported in mode {mode}")
            }
            CliError::Arg(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::Config(e)
    }
}

/// The one argv step of every subcommand: `--flag value` pairs for the
/// names in `flags` and the bare `switches` (stored as `"true"`) become
/// [`Props`] keyed by the flag as typed, so a bad value's message names the
/// flag. A repeated flag keeps its last value. Any other word, a flag
/// without its value, or `--help` is refused with `usage`.
fn argv_props(
    mut args: impl Iterator<Item = String>,
    flags: &[&str],
    switches: &[&str],
    usage: &str,
) -> Result<Props, CliError> {
    let mut pairs = Vec::new();
    while let Some(flag) = args.next() {
        let value = if switches.contains(&flag.as_str()) {
            "true".to_string()
        } else if flags.contains(&flag.as_str()) {
            args.next()
                .ok_or_else(|| CliError::Arg(format!("{flag} needs a value\n{usage}")))?
        } else if flag == "--help" || flag == "-h" {
            return Err(CliError::Arg(usage.to_string()));
        } else {
            return Err(CliError::Arg(format!("unknown argument {flag:?}\n{usage}")));
        };
        pairs.push((flag, value));
    }
    Ok(pairs.into_iter().collect())
}

/// `--jobs`: worker threads, at least one (default: available parallelism).
fn jobs(props: &Props) -> Result<usize, ConfigError> {
    let default = cloudybench::parallel::default_jobs() as u64;
    Ok((props.get_u64("--jobs", default)? as usize).max(1))
}

/// `seeds` as a list, or a `key <flag>:` error when the host cannot hold
/// that many.
fn seed_list(seeds: RangeInclusive<u64>, flag: &str) -> Result<Vec<u64>, CliError> {
    let mut list = Vec::new();
    list.try_reserve_exact(seeds.size_hint().0).map_err(|_| {
        let n = (seeds.end() - seeds.start()).saturating_add(1);
        CliError::Arg(format!("key {flag}: {n} seeds do not fit in memory"))
    })?;
    list.extend(seeds);
    Ok(list)
}

/// `n`, read under `key`, refused at 0 before anything is built: `why`
/// says what a run with 0 would have measured.
fn nonzero<T: Copy + Into<u64>>(key: &str, n: T, why: &str) -> Result<T, CliError> {
    if n.into() > 0 {
        return Ok(n);
    }
    Err(CliError::Arg(format!(
        "key {key}: {why} (expected at least 1)"
    )))
}

/// The simulation divisor under `key` (`default` if absent). The dataset
/// and the pools divide by at least 1, but the billed data size multiplies
/// by the divisor itself, so 0 would run a full dataset and bill no storage.
fn sim_scale(props: &Props, key: &str, default: u64) -> Result<u64, CliError> {
    let s = props.get_u64(key, default)?;
    nonzero(key, s, "a divisor of 0 bills no storage")
}

/// The benchmark scale factor under `key` (default 1). The dataset shape
/// clamps 0 to a minimal table set, which would run and report as SF0.
fn scale_factor(props: &Props, key: &str) -> Result<u64, CliError> {
    let sf = props.get_u64(key, 1)?;
    nonzero(key, sf, "a scale factor of 0 loads no data")
}

/// The most read-only replicas or shards one run may ask for (DESIGN §20).
/// Each is a node with its own pool and replication stream, or a whole
/// shard deployment, built before the first transaction, so a count past
/// what memory holds would never start.
const MAX_NODES: u64 = 64;

/// The replica or shard count under `key` (`default` if absent), refused
/// outside `min..=MAX_NODES` before anything is built.
fn node_count(props: &Props, key: &str, default: u64, min: u64) -> Result<usize, CliError> {
    let n = props.get_u64(key, default)?;
    if (min..=MAX_NODES).contains(&n) {
        return Ok(n as usize);
    }
    Err(CliError::Arg(format!(
        "key {key}: {n} is outside {min}..={MAX_NODES}"
    )))
}

/// The transaction mix under `key` (default `rw`): a named mix or
/// `t1:t2:t3:t4[:t5]` weights.
fn parse_mix(props: &Props, key: &'static str) -> Result<TxnMix, CliError> {
    match props.get(key).unwrap_or("rw") {
        m if m.eq_ignore_ascii_case("ro") => Ok(TxnMix::read_only()),
        m if m.eq_ignore_ascii_case("rw") => Ok(TxnMix::read_write()),
        m if m.eq_ignore_ascii_case("wo") => Ok(TxnMix::write_only()),
        m if m.eq_ignore_ascii_case("scan-resistant") => Ok(TxnMix::scan_resistant(10.0)),
        other => {
            // t1:t2:t3:t4 weights, e.g. "15:5:80:0", with an optional fifth
            // T5 range-scan weight ("0:0:90:0:10").
            let parts: Vec<f64> = other
                .split(':')
                .map(|p| p.trim().parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|_| CliError::Unknown {
                    key,
                    value: other.to_string(),
                    expected: "ro, rw, wo, scan-resistant, or t1:t2:t3:t4[:t5] weights",
                })?;
            if parts.len() != 4 && parts.len() != 5 {
                return Err(CliError::Unknown {
                    key,
                    value: other.to_string(),
                    expected: "weights t1:t2:t3:t4 or t1:t2:t3:t4:t5",
                });
            }
            // `TxnMix::new` asserts what this refuses: a negative or NaN
            // weight, or t1..t4 all zero. An infinite weight (or a sum that
            // overflows to one) would run a degenerate draw.
            let total: f64 = parts.iter().sum();
            if parts.iter().any(|w| w.is_nan() || *w < 0.0)
                || !total.is_finite()
                || parts[..4].iter().all(|&w| w == 0.0)
            {
                return Err(CliError::Unknown {
                    key,
                    value: other.to_string(),
                    expected: "finite weights >= 0 with t1..t4 not all zero",
                });
            }
            let mix = TxnMix::new(parts[0], parts[1], parts[2], parts[3]);
            Ok(match parts.get(4) {
                Some(&scan) if scan > 0.0 => mix.with_scan(scan),
                _ => mix,
            })
        }
    }
}

fn parse_distribution(props: &Props) -> Result<AccessDistribution, CliError> {
    match props.get("distribution").unwrap_or("uniform") {
        d if d.eq_ignore_ascii_case("uniform") => Ok(AccessDistribution::Uniform),
        d if d.to_ascii_lowercase().starts_with("latest-") => {
            let n: u32 = d[7..].parse().map_err(|_| CliError::Unknown {
                key: "distribution",
                value: d.to_string(),
                expected: "uniform, latest-N, or zipfian-THETA",
            })?;
            Ok(AccessDistribution::Latest(n))
        }
        d if d.to_ascii_lowercase().starts_with("zipfian-") => {
            // Skew exponent as a decimal, e.g. "zipfian-0.99" (YCSB default).
            let theta: f64 = d[8..]
                .parse()
                .ok()
                .filter(|t| (0.0..1.0).contains(t))
                .ok_or(CliError::Unknown {
                    key: "distribution",
                    value: d.to_string(),
                    expected: "zipfian-THETA with 0 <= THETA < 1",
                })?;
            Ok(AccessDistribution::Zipfian((theta * 1000.0).round() as u16))
        }
        other => Err(CliError::Unknown {
            key: "distribution",
            value: other.to_string(),
            expected: "uniform, latest-N, or zipfian-THETA",
        }),
    }
}

/// The name under `key` through `parse`, if given; a name it does not know
/// is refused with the `expected` list.
fn named<T>(
    props: &Props,
    key: &'static str,
    parse: impl Fn(&str) -> Option<T>,
    expected: &'static str,
) -> Result<Option<T>, CliError> {
    let unknown = |value: &str| CliError::Unknown {
        key,
        value: value.to_string(),
        expected,
    };
    props
        .get(key)
        .map(|v| parse(v).ok_or_else(|| unknown(v)))
        .transpose()
}

/// The eviction policy under `key`, if given; absent runs the default
/// (LRU), and `mode = sharded` refuses an explicit key.
fn parse_eviction(
    props: &Props,
    key: &'static str,
) -> Result<Option<EvictionPolicyKind>, CliError> {
    named(props, key, EvictionPolicyKind::parse, "lru, sieve, lru-k")
}

/// The isolation level under `key`, if given.
fn parse_isolation(props: &Props, key: &'static str) -> Result<Option<IsolationLevel>, CliError> {
    named(props, key, IsolationLevel::parse, "rc, si, ser")
}

/// The SUT profile named under `key`, if given.
fn parse_sut(props: &Props, key: &'static str) -> Result<Option<SutProfile>, CliError> {
    named(
        props,
        key,
        SutProfile::by_name,
        "aws-rds, cdb1, cdb2, cdb3, cdb4",
    )
}

fn parse_elastic_pattern(props: &Props) -> Result<ElasticPattern, CliError> {
    match props.get("pattern").unwrap_or("single-peak") {
        p if p.eq_ignore_ascii_case("single-peak") => Ok(ElasticPattern::SinglePeak),
        p if p.eq_ignore_ascii_case("large-spike") => Ok(ElasticPattern::LargeSpike),
        p if p.eq_ignore_ascii_case("single-valley") => Ok(ElasticPattern::SingleValley),
        p if p.eq_ignore_ascii_case("zero-valley") => Ok(ElasticPattern::ZeroValley),
        other => Err(CliError::Unknown {
            key: "pattern",
            value: other.to_string(),
            expected: "single-peak, large-spike, single-valley, zero-valley",
        }),
    }
}

fn parse_tenancy_pattern(props: &Props) -> Result<TenancyPattern, CliError> {
    match props.get("tenancy_pattern").unwrap_or("a") {
        p if p.eq_ignore_ascii_case("a") => Ok(TenancyPattern::HighContention),
        p if p.eq_ignore_ascii_case("b") => Ok(TenancyPattern::LowContention),
        p if p.eq_ignore_ascii_case("c") => Ok(TenancyPattern::StaggeredHigh),
        p if p.eq_ignore_ascii_case("d") => Ok(TenancyPattern::StaggeredLow),
        other => Err(CliError::Unknown {
            key: "tenancy_pattern",
            value: other.to_string(),
            expected: "a, b, c, d",
        }),
    }
}

/// Run the evaluation described by `props` and return the printed report.
/// The run journals spans, histograms and counters into `obs` for artifact
/// export (the binary's `--trace-out` / `--metrics-out` flags); pass
/// [`ObsSink::disabled`] for a plain run.
pub fn run_from_props(props: &Props, obs: &ObsSink) -> Result<String, CliError> {
    let profile = parse_sut(props, "sut")?.unwrap_or_else(SutProfile::cdb4);
    let sim_scale = sim_scale(props, "sim_scale", 200)?;
    let seed = props.get_u64("seed", 7)?;
    let mode = props.get("mode").unwrap_or("oltp").to_ascii_lowercase();
    // Workload-shape keys and the calibratable unit prices parse up front,
    // whatever the mode: a malformed `mix=`, `distribution=`, `eviction=` or
    // `ruc_*_hour=` is a configuration error even when the selected mode
    // never reads the key — silently falling back to the default would bless
    // a typo'd experiment config.
    let mix = parse_mix(props, "mix")?;
    let dist = parse_distribution(props)?;
    let eviction = parse_eviction(props, "eviction")?;
    let rates = RucRates::from_props(props)?;
    // What every run of every mode inherits; the evaluators add the rest.
    let base = RunOptions {
        seed,
        obs: obs.clone(),
        eviction: eviction.unwrap_or_default(),
        ..RunOptions::default()
    };
    let mut out = String::new();
    match mode.as_str() {
        "oltp" => {
            let sf = scale_factor(props, "scale_factor")?;
            let con = props.get_u32("concurrency", 100)?;
            let con = nonzero("concurrency", con, "0 clients commit nothing")?;
            // A 0 s window commits nothing and prices per minute as 0 × ∞.
            let secs = props.get_u64("duration_secs", 30)?;
            let secs = nonzero("duration_secs", secs, "a 0 s run measures nothing")?;
            let ro = node_count(props, "ro_nodes", 1, 0)?;
            let mut dep = Deployment::new(profile.clone(), sf, sim_scale, ro, seed);
            let duration = SimDuration::from_secs(secs);
            let r = oltp_cell(&mut dep, con, duration, mix, dist, &base);
            let cost = ruc_cost(&dep.usage(SimTime::ZERO, SimTime::ZERO + duration), &rates);
            let mut t = Table::new(
                &format!(
                    "OLTP — {} SF{sf} {} con={con}",
                    profile.display,
                    mix.label()
                ),
                &["Metric", "Value"],
            );
            t.row(&["avg TPS".into(), fnum(r.avg_tps)]);
            t.row(&["committed".into(), format!("{}", r.committed)]);
            t.row(&[
                "avg latency".into(),
                format!("{}", r.run.tenants[0].avg_latency()),
            ]);
            t.row(&["lock conflicts".into(), format!("{}", r.run.lock_conflicts)]);
            t.row(&["RUC cost".into(), fmoney(cost.total())]);
            out.push_str(&t.to_string());
        }
        "elasticity" => {
            let tau = props.get_u32("tau", 110)?;
            let tau = nonzero("tau", tau, "0 clients in every slot measure nothing")?;
            // Either a named pattern or an explicit schedule from *_con keys.
            if props.get("first_con").is_some() {
                let sched = ElasticScheduleConfig::from_props(props)?;
                let mut dep = Deployment::new(profile.clone(), 1, sim_scale, 0, seed);
                let spec = TenantSpec {
                    slots: sched.slots.clone(),
                    slot_len: SimDuration::from_secs(sched.slot_seconds),
                    mix,
                    dist: AccessDistribution::Uniform,
                    partition: KeyPartition::whole(dep.shape.orders, dep.shape.customers),
                };
                let result = run(&mut dep, &[spec], &base);
                let mut t = Table::new(
                    &format!("Elasticity (custom schedule) — {}", profile.display),
                    &["Metric", "Value"],
                );
                t.row(&["schedule".into(), format!("{:?}", sched.slots)]);
                t.row(&["avg TPS".into(), fnum(result.overall_tps())]);
                out.push_str(&t.to_string());
            } else {
                let pattern = parse_elastic_pattern(props)?;
                let r = evaluate_elasticity(&profile, pattern, mix, tau, sim_scale, &base);
                let mut t = Table::new(
                    &format!("Elasticity — {} / {}", profile.display, pattern.label()),
                    &["Metric", "Value"],
                );
                t.row(&["avg TPS".into(), fnum(r.avg_tps)]);
                t.row(&["10-min cost".into(), fmoney(r.cost.total())]);
                t.row(&["E1-Score".into(), fnum(r.e1)]);
                out.push_str(&t.to_string());
            }
        }
        "tenancy" => {
            let pattern = parse_tenancy_pattern(props)?;
            // Each tenant's clients are its paper concurrency times the
            // scale: NaN, zero or a negative scale clamps every tenant to one
            // client, and an infinite one asks for u32::MAX of them.
            let scale = props.get_f64("tenancy_scale", 0.5)?;
            if !(scale.is_finite() && scale > 0.0) {
                return Err(CliError::Unknown {
                    key: "tenancy_scale",
                    value: scale.to_string(),
                    expected: "a finite scale > 0",
                });
            }
            let r = evaluate_tenancy(&profile, pattern, scale, sim_scale, &base);
            let mut t = Table::new(
                &format!("Multi-tenancy — {} / {}", profile.display, pattern.label()),
                &["Metric", "Value"],
            );
            for (i, tps) in r.tenant_tps.iter().enumerate() {
                t.row(&[format!("tenant {} TPS", i + 1), fnum(*tps)]);
            }
            t.row(&["total TPS".into(), fnum(r.total_tps)]);
            t.row(&["cost".into(), fmoney(r.cost.total())]);
            t.row(&["T-Score".into(), fnum(r.t_score)]);
            out.push_str(&t.to_string());
        }
        "failover" => {
            let con = props.get_u32("concurrency", 100)?;
            let r = evaluate_failover(&profile, con, sim_scale, &base);
            let mut t = Table::new(
                &format!("Fail-over — {}", profile.display),
                &["Target", "F", "R"],
            );
            t.row(&["RW".into(), fsecs(r.rw.f_secs), fsecs(r.rw.r_secs)]);
            t.row(&["RO".into(), fsecs(r.ro.f_secs), fsecs(r.ro.r_secs)]);
            out.push_str(&t.to_string());
        }
        "lagtime" => {
            // No clients, no lag samples: the C-Score would read 0, the best.
            let con = props.get_u32("concurrency", 30)?;
            let con = nonzero("concurrency", con, "0 clients take no lag samples")?;
            let replicas = node_count(props, "replicas", 1, 1)?;
            let r = evaluate_lagtime(&profile, con, replicas, sim_scale, &base);
            let mut t = Table::new(
                &format!("Replication lag — {}", profile.display),
                &["Mix", "Insert ms", "Update ms", "Delete ms"],
            );
            for row in &r.rows {
                t.row(&[
                    row.label.to_string(),
                    fnum(row.insert_ms),
                    fnum(row.update_ms),
                    fnum(row.delete_ms),
                ]);
            }
            t.row(&[
                "C-Score".into(),
                fnum(r.c_score_ms),
                String::new(),
                String::new(),
            ]);
            out.push_str(&t.to_string());
        }
        "sharded" => {
            // `run_fleet` builds each shard's options itself and runs the
            // shards on worker threads; it has no slot for a policy override.
            if eviction.is_some() {
                return Err(CliError::Unsupported {
                    key: "eviction",
                    mode: "sharded",
                });
            }
            let shards = node_count(props, "shards", 2, 1)?;
            let jobs = (props.get_u64("jobs", 1)? as usize).max(1);
            let shape = cloudybench::DatasetShape::new(1, sim_scale);
            let keyspace = shape.orders.min(shape.customers);
            // Every tenant works on its own slice of a shard's keys, so a
            // shard holds at most one tenant per key.
            let tenants = props.get_u64("tenants_per_shard", 8)?;
            if tenants == 0 || tenants > keyspace {
                return Err(CliError::Unknown {
                    key: "tenants_per_shard",
                    value: format!("{tenants} with {keyspace} keys per shard"),
                    expected: "at least one tenant and at most one per key",
                });
            }
            // The P-Score divides by the window's length.
            let slot_secs = props.get_u64("slot_secs", 5)?;
            if slot_secs == 0 {
                return Err(CliError::Unknown {
                    key: "slot_secs",
                    value: slot_secs.to_string(),
                    expected: "a slot of at least 1 second",
                });
            }
            let mut spec = FleetSpec {
                tenants_per_shard: tenants as usize,
                clients_per_tenant: props.get_u32("clients_per_tenant", 1)?,
                hot_clients: props.get_u32("hot_clients", 8)?,
                slot_len: SimDuration::from_secs(slot_secs),
                transfers: props.get_u64("transfers", 32)?,
                ..FleetSpec::default()
            };
            // Optional mid-run shift: throttle every tenant's pace from
            // `shift_secs` on (0 disables).
            let shift_secs = props.get_u64("shift_secs", 0)?;
            if shift_secs > 0 {
                let pace = props.get_f64("shift_pace", 0.5)?;
                if !(pace > 0.0 && pace <= 1.0) {
                    return Err(CliError::Unknown {
                        key: "shift_pace",
                        value: pace.to_string(),
                        expected: "a pace in (0, 1]",
                    });
                }
                spec.shifts =
                    vec![
                        ShiftEvent::at(SimTime::ZERO + SimDuration::from_secs(shift_secs))
                            .pace(pace),
                    ];
            }
            let keyspace = keyspace as i64;
            let maps = match props.get("strategy").unwrap_or("both") {
                s if s.eq_ignore_ascii_case("hash") => vec![ShardMap::hash(shards)],
                s if s.eq_ignore_ascii_case("range") => {
                    vec![ShardMap::range_even(keyspace, shards)]
                }
                s if s.eq_ignore_ascii_case("both") => vec![
                    ShardMap::hash(shards),
                    ShardMap::range_even(keyspace, shards),
                ],
                other => {
                    return Err(CliError::Unknown {
                        key: "strategy",
                        value: other.to_string(),
                        expected: "hash, range, both",
                    })
                }
            };
            for map in maps {
                let r = run_fleet(&profile, &map, &spec, sim_scale, seed, jobs);
                let mut t = Table::new(
                    &format!("Sharded fleet — {} / {}", profile.display, r.map_label),
                    &["Shard", "Tenants", "Committed", "TPS", "p95 ms", "P-Score"],
                );
                for s in &r.per_shard {
                    let tag = if s.shard == r.hot_shard { "*" } else { "" };
                    t.row(&[
                        format!("{}{tag}", s.shard),
                        format!("{}", s.tenants),
                        format!("{}", s.committed),
                        fnum(s.tps),
                        fnum(s.p95_ms),
                        fnum(s.p_score),
                    ]);
                }
                t.row(&[
                    "aggregate".into(),
                    format!("{}", spec.tenants_per_shard * shards),
                    String::new(),
                    fnum(r.aggregate_tps),
                    String::new(),
                    fnum(r.aggregate_p),
                ]);
                out.push_str(&t.to_string());
                let tp = r.two_phase;
                out.push_str(&format!(
                    "2PC transfers: committed={} aborted={} single-shard={} prepares={}\n",
                    tp.committed, tp.aborted, tp.single_shard, tp.prepares
                ));
            }
        }
        other => {
            return Err(CliError::Unknown {
                key: "mode",
                value: other.to_string(),
                expected: "oltp, elasticity, tenancy, failover, lagtime, sharded",
            })
        }
    }
    Ok(out)
}

/// The props-file front end's usage, printed (exit 1) for a command line it
/// cannot read.
const USAGE: &str = "\
usage: cloudybench <props-file | - > [--trace-out DIR] [--metrics-out DIR]
       cloudybench chaos [--seeds N] [--profile NAME] [--replay SEED] ...
       cloudybench load --arrival SPEC [--runs N] [--jobs N] ...

keys, every mode: sut (aws-rds|cdb1..cdb4), sim_scale, seed,
      mode (oltp|elasticity|tenancy|failover|lagtime|sharded),
      mix (ro|rw|wo|scan-resistant|t1:t2:t3:t4[:t5]),
      distribution (uniform|latest-N|zipfian-THETA),
      eviction (lru|sieve|lru-k; not in mode sharded)
  oltp: scale_factor, concurrency, duration_secs, ro_nodes,
      ruc_{cpu_vcore,mem_gb,storage_gb,iops_100,tcp_gbps,rdma_gbps}_hour
  elasticity: pattern (single-peak|large-spike|single-valley|zero-valley), tau,
      or elastic_testTime + first_con, second_con.. + slot_seconds
  tenancy: tenancy_pattern (a|b|c|d), tenancy_scale
  failover: concurrency
  lagtime: concurrency, replicas
  sharded: shards, strategy (hash|range|both), jobs, tenants_per_shard,
      clients_per_tenant, hot_clients, slot_secs, transfers, shift_secs, shift_pace

flags: --trace-out DIR    write trace.json, histograms.json/.csv, timeline.txt
       --metrics-out DIR  write histograms.json and histograms.csv only";

/// The `cloudybench` command line (the arguments after the program name):
/// `chaos ...` and `load ...` run those subcommands, anything else names a
/// props file (`-` for stdin) followed by its flags. Returns the process
/// exit code; a subcommand line that cannot run exits 2.
pub fn cli_main(args: impl Iterator<Item = String>) -> u8 {
    let mut args = args.peekable();
    let run = match args.peek().map(String::as_str) {
        Some("chaos") => chaos_cmd::parse(args.skip(1)).and_then(chaos_cmd::run),
        Some("load") => load_cmd::parse(args.skip(1)).and_then(load_cmd::run),
        _ => return props_main(args),
    };
    run.unwrap_or_else(|e| {
        eprintln!("{e}");
        2
    })
}

/// Run the props file named first in `args`, followed by its flags; exit 1
/// with the usage for a command line it cannot read.
fn props_main(mut args: impl Iterator<Item = String>) -> u8 {
    let path = args.next();
    let flags = argv_props(args, &["--trace-out", "--metrics-out"], &[], USAGE);
    let (Some(path), Ok(flags)) = (path, flags) else {
        eprintln!("{USAGE}");
        return 1;
    };
    match run_props_file(&path, &flags) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("cloudybench: {msg}");
            1
        }
    }
}

/// Run the props file at `path` (`-` for stdin), print its report and write
/// the artifacts `flags` ask for; the error is the message to print.
fn run_props_file(path: &str, flags: &Props) -> Result<(), String> {
    let (text, source) = if path == "-" {
        (std::io::read_to_string(std::io::stdin()), "stdin")
    } else {
        (std::fs::read_to_string(path), path)
    };
    let text = text.map_err(|e| format!("reading {source}: {e}"))?;
    let props = Props::parse(&text).map_err(|e| e.to_string())?;
    // Either artifact flag turns the sink on.
    let obs = if flags.is_empty() {
        ObsSink::disabled()
    } else {
        ObsSink::enabled()
    };
    println!(
        "{}",
        run_from_props(&props, &obs).map_err(|e| e.to_string())?
    );
    if let Some(dir) = flags.get("--trace-out").map(Path::new) {
        obs.with(|t| write_run_artifacts(t, dir))
            .expect("sink enabled")
            .map_err(|e| format!("writing trace artifacts to {}: {e}", dir.display()))?;
        println!("trace artifacts written to {}", dir.display());
    }
    if let Some(dir) = flags.get("--metrics-out").map(Path::new) {
        obs.with(|t| -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            std::fs::write(
                dir.join(cb_obs::export::HIST_JSON_FILE),
                cb_obs::histogram_summary_json(t),
            )?;
            std::fs::write(
                dir.join(cb_obs::export::HIST_CSV_FILE),
                cb_obs::histogram_csv(t),
            )
        })
        .expect("sink enabled")
        .map_err(|e| format!("writing metrics to {}: {e}", dir.display()))?;
        println!("metric summaries written to {}", dir.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn go(text: &str) -> String {
        let props = Props::parse(text).expect("props parse");
        run_from_props(&props, &ObsSink::disabled()).expect("run succeeds")
    }

    fn fail(text: &str) -> String {
        let props = Props::parse(text).expect("props parse");
        run_from_props(&props, &ObsSink::disabled())
            .expect_err("run is rejected")
            .to_string()
    }

    #[test]
    fn oltp_mode_runs() {
        let report =
            go("sut = aws-rds\nmode = oltp\nsim_scale = 2000\nconcurrency = 10\nduration_secs = 3");
        assert!(report.contains("avg TPS"), "{report}");
        assert!(report.contains("RUC cost"));
    }

    #[test]
    fn custom_mix_and_distribution() {
        let report = go(
            "sut = cdb4\nmode = oltp\nsim_scale = 2000\nconcurrency = 10\nduration_secs = 3\nmix = 50:0:50:0\ndistribution = latest-10",
        );
        assert!(report.contains("OLTP"));
    }

    #[test]
    fn elasticity_custom_schedule_via_props() {
        let report = go(
            "sut = cdb3\nmode = elasticity\nsim_scale = 2000\nelastic_testTime = 4\nfirst_con = 5\nsecond_con = 20\nthird_con = 5\nfourth_con = 0\nslot_seconds = 10",
        );
        assert!(report.contains("custom schedule"), "{report}");
        assert!(report.contains("[5, 20, 5, 0]"));
    }

    #[test]
    fn named_pattern_elasticity() {
        let report =
            go("sut = cdb2\nmode = elasticity\nsim_scale = 2000\ntau = 20\npattern = zero-valley");
        assert!(report.contains("Zero Valley"));
        assert!(report.contains("E1-Score"));
    }

    #[test]
    fn tenancy_and_failover_and_lag_modes() {
        let t = go("sut = cdb2\nmode = tenancy\nsim_scale = 2000\ntenancy_pattern = d\ntenancy_scale = 0.3");
        assert!(t.contains("T-Score"));
        let f = go("sut = cdb4\nmode = failover\nsim_scale = 2000\nconcurrency = 20");
        assert!(f.contains("RW"));
        let l = go("sut = cdb1\nmode = lagtime\nsim_scale = 2000\nconcurrency = 10");
        assert!(l.contains("C-Score"));
    }

    #[test]
    fn obs_sink_collects_during_props_run() {
        let props = Props::parse(
            "sut = cdb4\nmode = oltp\nsim_scale = 2000\nconcurrency = 10\nduration_secs = 3\nmix = rw",
        )
        .expect("props parse");
        let obs = ObsSink::enabled();
        run_from_props(&props, &obs).expect("run succeeds");
        obs.with(|t| {
            assert!(t
                .histogram("txn.latency_ns")
                .is_some_and(|h| h.count() > 100));
            // Commits ride the group-commit pipeline; legacy per-commit
            // appends would show up under "wal.appends" instead.
            assert!(t.counter("wal.gc.commits") + t.counter("wal.appends") > 0);
            assert!(!t.journal().is_empty());
        })
        .expect("sink enabled");
    }

    #[test]
    fn eviction_zipfian_and_scan_mix_keys_parse() {
        let report = go(
            "sut = cdb2\nmode = oltp\nsim_scale = 2000\nconcurrency = 10\nduration_secs = 3\nmix = 0:0:90:0:10\ndistribution = zipfian-0.99\neviction = sieve",
        );
        assert!(report.contains("avg TPS"), "{report}");
        assert!(report.contains("0:0:90:0:10"), "{report}");

        let e = fail("eviction = mru");
        assert!(e.contains("sieve"), "{e}");
        // CLOCK was removed: naming it is refused, not run as another policy.
        let e = fail("eviction = clock");
        assert!(e.ends_with("(expected one of: lru, sieve, lru-k)"), "{e}");
        let e = fail("distribution = zipfian-1.5\nsim_scale = 2000");
        assert!(e.contains("THETA"), "{e}");
    }

    /// `eviction=` used to be validated in every mode and then dropped by
    /// the four evaluator modes. The per-policy buffer-pool counters witness
    /// which policy actually ran; unlike the time-zero `policy:<label>`
    /// instant they cannot be evicted from the span ring by a long run.
    #[test]
    fn eviction_key_reaches_every_evaluator_mode() {
        for mode in [
            "mode = elasticity\ntau = 4",
            "mode = tenancy\ntenancy_pattern = d\ntenancy_scale = 0.1",
            "mode = failover\nconcurrency = 2",
            "mode = lagtime\nconcurrency = 2",
        ] {
            let hits = |eviction: &str| {
                let text = format!("sut = cdb2\nsim_scale = 2000\n{mode}\n{eviction}");
                let obs = ObsSink::enabled();
                run_from_props(&Props::parse(&text).unwrap(), &obs).expect("run succeeds");
                obs.with(|t| (t.counter("bufpool.hit.sieve"), t.counter("bufpool.hit.lru")))
                    .expect("sink enabled")
            };
            let (sieve, lru) = hits("eviction = sieve");
            assert!(sieve > 0 && lru == 0, "{mode}: sieve {sieve}, lru {lru}");
            let (sieve, lru) = hits("");
            assert!(sieve == 0 && lru > 0, "{mode}: sieve {sieve}, lru {lru}");
        }
    }

    #[test]
    fn sharded_mode_rejects_an_eviction_override_it_cannot_carry() {
        let e = fail("mode = sharded\nsim_scale = 2000\neviction = sieve");
        assert!(e.contains("not supported in mode sharded"), "{e}");
    }

    #[test]
    fn sharded_mode_reports_per_shard_and_aggregate() {
        let report = go(
            "sut = aws-rds\nmode = sharded\nsim_scale = 2000\nshards = 2\ntenants_per_shard = 2\nhot_clients = 4\nslot_secs = 2\ntransfers = 8\nshift_secs = 4",
        );
        assert!(report.contains("hash2"), "{report}");
        assert!(report.contains("range2"), "{report}");
        assert!(report.contains("aggregate"), "{report}");
        assert!(report.contains("2PC transfers"), "{report}");
    }

    #[test]
    fn malformed_shape_keys_error_in_every_mode() {
        // Before the up-front parse, modes that never read `mix`,
        // `distribution`, or `eviction` silently ran with the defaults; a
        // typo'd key must fail whatever mode is selected.
        for mode in ["tenancy", "failover", "lagtime", "sharded", "elasticity"] {
            let e = fail(&format!("mode = {mode}\neviction = mru"));
            assert!(e.contains("mru"), "{mode}: {e}");
            let e = fail(&format!("mode = {mode}\ndistribution = zipfian-1.5"));
            assert!(e.contains("THETA"), "{mode}: {e}");
            let e = fail(&format!("mode = {mode}\nmix = 1:2"));
            assert!(e.contains("mix"), "{mode}: {e}");
            let e = fail(&format!("mode = {mode}\nruc_cpu_vcore_hour = nan"));
            assert!(e.contains("key ruc_cpu_vcore_hour"), "{mode}: {e}");
        }
        // A zero divisor ran the full dataset and billed no storage.
        for mode in [
            "oltp",
            "tenancy",
            "failover",
            "lagtime",
            "sharded",
            "elasticity",
        ] {
            let e = fail(&format!("mode = {mode}\nsim_scale = 0"));
            assert!(e.starts_with("key sim_scale: "), "{mode}: {e}");
        }
        // Replica and shard counts are refused before anything is built: a
        // huge one built nodes until memory ran out, and `replicas = 0` or
        // `shards = 0` silently ran one.
        for (mode, key, n, range) in [
            ("oltp", "ro_nodes", 100_000_000_000u64, "0..=64"),
            ("oltp", "ro_nodes", 65, "0..=64"),
            ("lagtime", "replicas", 0, "1..=64"),
            ("lagtime", "replicas", 100_000_000_000, "1..=64"),
            ("sharded", "shards", 0, "1..=64"),
            ("sharded", "shards", 100_000_000_000, "1..=64"),
        ] {
            let e = fail(&format!("mode = {mode}\n{key} = {n}"));
            assert_eq!(e, format!("key {key}: {n} is outside {range}"), "{mode}");
        }
        // Runs that measure nothing: SF 0 ran a clamped dataset reported as
        // SF0, a 0 s run printed 0 TPS at $0 with a NaN cost per minute, and
        // a lag run without clients scored the best C-Score from no samples.
        for (mode, key) in [
            ("oltp", "scale_factor"),
            ("oltp", "duration_secs"),
            ("lagtime", "concurrency"),
        ] {
            let e = fail(&format!("mode = {mode}\n{key} = 0"));
            assert!(e.starts_with(&format!("key {key}: ")), "{mode}: {e}");
        }
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(fail("sut = oracle").contains("oracle"));
        assert!(fail("mode = nonsense").contains("nonsense"));
        assert!(fail("mix = 1:2").contains("mix"));
        // Weights `TxnMix::new` would assert on (each aborted the process)
        // or that ran silently: an infinite weight, a negative T5 dropped.
        for mix in [
            "0:0:0:0",
            "-5:0:100:0",
            "nan:0:1:0",
            "inf:0:1:0",
            "1:0:0:0:-3",
        ] {
            let e = fail(&format!("mix = {mix}"));
            assert!(
                e.contains("key mix") && e.contains(mix) && e.contains("not all zero"),
                "{mix}: {e}"
            );
        }
        // A u32 key past u32::MAX is refused, not wrapped (2^32 + 1 used to
        // run with one client).
        for (mode, key) in [
            ("oltp", "concurrency"),
            ("failover", "concurrency"),
            ("lagtime", "concurrency"),
            ("elasticity", "tau"),
            ("sharded", "clients_per_tenant"),
            ("sharded", "hot_clients"),
        ] {
            let e = fail(&format!("mode = {mode}\n{key} = 4294967297"));
            assert!(e.contains(key) && e.contains("u32"), "{mode}: {e}");
        }
        let e = fail("mode = elasticity\ntau = 4294967296");
        assert!(e.ends_with("\"4294967296\" is not a valid u32"), "{e}");
        // A pace outside (0, 1] is refused, not handed to the shift's
        // assertion (each of these aborted the process).
        for pace in ["0", "1.5", "nan"] {
            let e = fail(&format!(
                "mode = sharded\nshift_secs = 8\nshift_pace = {pace}"
            ));
            assert!(e.contains("shift_pace") && e.contains("(0, 1]"), "{e}");
        }
        // A shard of 150 orders (sim_scale 2000) sliced for 200 tenants left
        // the last one an empty key range, and the driver's key draw
        // panicked; 0 tenants ran one and reported none.
        for tenants in ["0", "200"] {
            let e = fail(&format!(
                "sut = aws-rds\nmode = sharded\nsim_scale = 2000\nshards = 2\n\
                 tenants_per_shard = {tenants}\nslot_secs = 1\ntransfers = 2\nstrategy = hash"
            ));
            assert!(
                e.contains("key tenants_per_shard") && e.contains("150 keys per shard"),
                "{tenants}: {e}"
            );
        }
        // A zero-length window ran and printed a NaN P-Score.
        let e = fail("mode = sharded\nsim_scale = 2000\nslot_secs = 0");
        assert!(
            e.contains("key slot_secs") && e.contains("at least 1 second"),
            "{e}"
        );
        // Each of these ran silently with one client per tenant, or (inf)
        // aborted the process on a client table of u32::MAX entries.
        for scale in ["nan", "inf", "0", "-1"] {
            let e = fail(&format!("mode = tenancy\ntenancy_scale = {scale}"));
            assert!(
                e.contains("key tenancy_scale") && e.contains("finite scale > 0"),
                "{scale}: {e}"
            );
        }
        // A NaN unit price printed `RUC cost $NaN`, a negative one a
        // negative cost; both exited 0.
        for res in "cpu_vcore mem_gb storage_gb iops_100 tcp_gbps rdma_gbps".split(' ') {
            for price in ["nan", "-1", "inf"] {
                let e = fail(&format!("ruc_{res}_hour = {price}"));
                let named = e.contains(&format!("key ruc_{res}_hour"));
                assert!(named && e.contains("finite price >= 0"), "{res}: {e}");
            }
        }
    }

    /// What a fuzzed subcommand line is made of: every flag and switch of
    /// `chaos` and `load` (and words that are neither), then values that
    /// parse and hostile ones.
    const FLAGS: [&str; 26] = [
        "--seeds",
        "--profile",
        "--replay",
        "--isolation",
        "--eviction",
        "--txns",
        "--jobs",
        "--shards",
        "--bug-skip-redo",
        "--out",
        "--sharded",
        "--bug-forget-decision",
        "--arrival",
        "--phases",
        "--runs",
        "--mix",
        "--clients",
        "--seed",
        "--scale-factor",
        "--sim-scale",
        "--ro-nodes",
        "--help",
        "--",
        "",
        "-1",
        "ñ",
    ];
    const VALUES: [&str; 31] = [
        "",
        "-1",
        "0",
        "1",
        "3",
        "4",
        "nan",
        "inf",
        "-inf",
        "18446744073709551615",
        "18446744073709551616",
        "1e308",
        "--",
        "ñ",
        "日本語",
        "cdb2",
        "si",
        "sieve",
        "rw",
        "0:0:90:0:10",
        "0:0:0:0",
        "poisson:100/s",
        "maxtp:2",
        "maxtp:0",
        "bursty:10,1,inf,1s",
        "trace:",
        "1s,1s,5s",
        "nan,nan,1",
        "0,0,inf",
        "1e300,1,1",
        "--seeds",
    ];

    /// Every flag alone with every value, with and without a valid
    /// `--arrival` ahead of it: the single-flag half of the fuzz, exhaustive.
    #[test]
    fn every_flag_with_every_value_parses_or_errs() {
        for flag in FLAGS {
            for value in VALUES {
                for prefix in [&[][..], &["--arrival", "maxtp:2"]] {
                    let argv = || prefix.iter().chain([&flag, &value]).map(|w| w.to_string());
                    let _ = chaos_cmd::parse(argv());
                    let _ = load_cmd::parse(argv());
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]

        /// Any command line the two subcommands are given parses to a plan
        /// or to an error; nothing runs and nothing panics. Half the lines
        /// start with a valid `--arrival` so `load` reaches its other flags.
        #[test]
        fn subcommand_argv_never_panics(
            words in proptest::collection::vec(
                (0..FLAGS.len(), 0..VALUES.len(), proptest::bool::ANY),
                0..10,
            ),
            arrival in proptest::bool::ANY,
        ) {
            let mut argv: Vec<String> = Vec::new();
            if arrival {
                argv.extend(["--arrival".to_string(), "maxtp:2".to_string()]);
            }
            for &(flag, value, with_value) in &words {
                argv.push(FLAGS[flag].to_string());
                if with_value {
                    argv.push(VALUES[value].to_string());
                }
            }
            let _ = chaos_cmd::parse(argv.clone().into_iter());
            let _ = load_cmd::parse(argv.into_iter());
        }

        /// Arbitrary text is a props file or a syntax error.
        #[test]
        fn props_text_never_panics(text in "[ -~\t\n\r=#!éß日\u{0}]{0,80}") {
            let _ = Props::parse(&text);
        }
    }

    #[test]
    fn failover_without_clients_reports() {
        // No commit before the injection at 45 s leaves the TPS series
        // empty; the pre-failure window must not slice past its end.
        let f = go("sut = cdb4\nmode = failover\nsim_scale = 2000\nconcurrency = 0");
        assert!(f.contains("RW"), "{f}");
    }
}
