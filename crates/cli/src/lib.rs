//! Props-file driven entry points for the CloudyBench testbed.
//!
//! The paper's testbed is configured through a properties file; this crate
//! turns such a file into an evaluator run and a printed report. Used by
//! the `cloudybench` binary and directly testable as a library.

#![warn(missing_docs)]

pub mod chaos_cmd;
pub mod load_cmd;

use cb_engine::EvictionPolicyKind;
use cb_obs::ObsSink;
use cb_sim::{SimDuration, SimTime};
use cb_sut::SutProfile;
use cloudybench::config::{ConfigError, ElasticScheduleConfig, Props};
use cloudybench::cost::{ruc_cost, RucRates};
use cloudybench::driver::VcoreControl;
use cloudybench::elasticity::{evaluate_elasticity, ElasticPattern};
use cloudybench::failover_eval::evaluate_failover;
use cloudybench::lagtime::evaluate_lagtime;
use cloudybench::report::{fmoney, fnum, fsecs, Table};
use cloudybench::sharded::ShardMap;
use cloudybench::tenancy::{evaluate_tenancy, TenancyPattern};
use cloudybench::{
    run, run_fleet, AccessDistribution, Deployment, FleetSpec, KeyPartition, RunOptions,
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
        }
    }
}

impl std::error::Error for CliError {}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::Config(e)
    }
}

fn parse_mix(props: &Props) -> Result<TxnMix, CliError> {
    match props.get("mix").unwrap_or("rw") {
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
                    key: "mix",
                    value: other.to_string(),
                    expected: "ro, rw, wo, scan-resistant, or t1:t2:t3:t4[:t5] weights",
                })?;
            if parts.len() != 4 && parts.len() != 5 {
                return Err(CliError::Unknown {
                    key: "mix",
                    value: other.to_string(),
                    expected: "weights t1:t2:t3:t4 or t1:t2:t3:t4:t5",
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

/// Parse the optional `eviction` key. Absent runs the default (LRU); the
/// `Option` survives only so `mode = sharded` can refuse an explicit key.
fn parse_eviction(props: &Props) -> Result<Option<EvictionPolicyKind>, CliError> {
    match props.get("eviction") {
        None => Ok(None),
        Some(v) => EvictionPolicyKind::parse(v)
            .map(Some)
            .ok_or(CliError::Unknown {
                key: "eviction",
                value: v.to_string(),
                expected: "lru, sieve, lru-k",
            }),
    }
}

fn parse_sut(props: &Props) -> Result<SutProfile, CliError> {
    let name = props.get("sut").unwrap_or("cdb4");
    SutProfile::by_name(name).ok_or(CliError::Unknown {
        key: "sut",
        value: name.to_string(),
        expected: "aws-rds, cdb1, cdb2, cdb3, cdb4",
    })
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
    let profile = parse_sut(props)?;
    let sim_scale = props.get_u64("sim_scale", 200)?;
    let seed = props.get_u64("seed", 7)?;
    let mode = props.get("mode").unwrap_or("oltp").to_ascii_lowercase();
    // Workload-shape keys parse up front, whatever the mode: a malformed
    // `mix=`, `distribution=`, or `eviction=` is a configuration error even
    // when the selected mode never reads the key — silently falling back to
    // the default would bless a typo'd experiment config.
    let mix = parse_mix(props)?;
    let dist = parse_distribution(props)?;
    let eviction = parse_eviction(props)?;
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
            let sf = props.get_u64("scale_factor", 1)?;
            let con = props.get_u32("concurrency", 100)?;
            let secs = props.get_u64("duration_secs", 30)?;
            let ro = props.get_u64("ro_nodes", 1)? as usize;
            let mut dep = Deployment::new(profile.clone(), sf, sim_scale, ro, seed);
            let duration = SimDuration::from_secs(secs);
            let spec = TenantSpec::constant(
                con,
                duration,
                mix,
                dist,
                KeyPartition::whole(dep.shape.orders, dep.shape.customers),
            );
            let opts = RunOptions {
                vcores: VcoreControl::Fixed,
                ..base
            };
            let result = run(&mut dep, &[spec], &opts);
            let end = SimTime::ZERO + duration;
            let usage = dep.usage(SimTime::ZERO, end);
            // Unit prices are calibratable from the same props file.
            let rates = RucRates::from_props(props)?;
            let cost = ruc_cost(&usage, &rates);
            let mut t = Table::new(
                &format!(
                    "OLTP — {} SF{sf} {} con={con}",
                    profile.display,
                    mix.label()
                ),
                &["Metric", "Value"],
            );
            t.row(&["avg TPS".into(), fnum(result.avg_tps(SimTime::ZERO, end))]);
            t.row(&[
                "committed".into(),
                format!("{}", result.tenants[0].committed),
            ]);
            t.row(&[
                "avg latency".into(),
                format!("{}", result.tenants[0].avg_latency()),
            ]);
            t.row(&[
                "lock conflicts".into(),
                format!("{}", result.lock_conflicts),
            ]);
            t.row(&["RUC cost".into(), fmoney(cost.total())]);
            out.push_str(&t.to_string());
        }
        "elasticity" => {
            let tau = props.get_u32("tau", 110)?;
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
            let scale = props.get_f64("tenancy_scale", 0.5)?;
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
            let con = props.get_u32("concurrency", 30)?;
            let replicas = props.get_u64("replicas", 1)? as usize;
            let r = evaluate_lagtime(&profile, con, replicas.max(1), sim_scale, &base);
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
            let shards = (props.get_u64("shards", 2)? as usize).max(1);
            let jobs = (props.get_u64("jobs", 1)? as usize).max(1);
            let mut spec = FleetSpec {
                tenants_per_shard: props.get_u64("tenants_per_shard", 8)? as usize,
                clients_per_tenant: props.get_u32("clients_per_tenant", 1)?,
                hot_clients: props.get_u32("hot_clients", 8)?,
                slot_len: SimDuration::from_secs(props.get_u64("slot_secs", 5)?),
                transfers: props.get_u64("transfers", 32)?,
                ..FleetSpec::default()
            };
            // Optional mid-run shift: throttle every tenant's pace from
            // `shift_secs` on (0 disables).
            let shift_secs = props.get_u64("shift_secs", 0)?;
            if shift_secs > 0 {
                let pace = props.get_f64("shift_pace", 0.5)?;
                spec.shifts =
                    vec![
                        ShiftEvent::at(SimTime::ZERO + SimDuration::from_secs(shift_secs))
                            .pace(pace),
                    ];
            }
            let shape = cloudybench::DatasetShape::new(1, sim_scale);
            let keyspace = shape.orders.min(shape.customers) as i64;
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
        }
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(fail("sut = oracle").contains("oracle"));
        assert!(fail("mode = nonsense").contains("nonsense"));
        assert!(fail("mix = 1:2").contains("mix"));
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
    }

    #[test]
    fn failover_without_clients_reports() {
        // No commit before the injection at 45 s leaves the TPS series
        // empty; the pre-failure window must not slice past its end.
        let f = go("sut = cdb4\nmode = failover\nsim_scale = 2000\nconcurrency = 0");
        assert!(f.contains("RW"), "{f}");
    }
}
