//! The `cloudybench chaos` subcommand: drive the cb-chaos fuzz campaign.
//!
//! ```text
//! cloudybench chaos --seeds 100                 # all profiles, seeds 0..100
//! cloudybench chaos --seeds 50 --profile cdb3   # one profile
//! cloudybench chaos --replay 42 --profile cdb1  # reproduce one seed
//! cloudybench chaos --out failures/             # write reproducers there
//! cloudybench chaos --sharded --profile cdb2    # 2PC crash-point campaign
//! ```

use std::path::PathBuf;

use cb_chaos::{
    run_campaign_jobs, run_seed, run_shard2pc_campaign_jobs, ChaosOptions, FaultSchedule,
    Shard2pcOptions, ShrunkViolation,
};
use cb_engine::{EvictionPolicyKind, IsolationLevel};
use cb_sut::SutProfile;

/// Parsed `chaos` subcommand arguments.
struct ChaosArgs {
    seeds: u64,
    profiles: Vec<SutProfile>,
    replay: Option<u64>,
    bug_skip_redo: Option<usize>,
    isolation: IsolationLevel,
    eviction: EvictionPolicyKind,
    txns: u64,
    jobs: usize,
    sharded: bool,
    shards: usize,
    bug_forget_decision: bool,
    out: Option<PathBuf>,
}

/// Flags the `--sharded` campaign cannot carry: its one fault is the
/// coordinator crash, its fleet runs at the engine defaults, and it has no
/// fault schedule to replay or artifacts to write.
const NOT_SHARDED: [&str; 5] = [
    "--isolation",
    "--eviction",
    "--replay",
    "--bug-skip-redo",
    "--out",
];

fn chaos_usage() -> String {
    let names: Vec<&str> = SutProfile::all().iter().map(|p| p.name).collect();
    format!(
        "usage: cloudybench chaos [--seeds N] [--profile NAME] [--replay SEED]\n\
         \x20                        [--isolation LEVEL] [--eviction POLICY]\n\
         \x20                        [--txns N] [--jobs N]\n\
         \x20                        [--bug-skip-redo N] [--out DIR]\n\
         \n\
         --seeds N          seeds 0..N per profile (default 20)\n\
         --profile NAME     limit to one profile ({})\n\
         --replay SEED      re-run one seed, printing its fault schedule\n\
         --isolation LEVEL  rc|si|ser (default rc); si/ser turn on version\n\
         \x20                  publication and the snapshot-consistency oracle\n\
         --eviction POLICY  lru|sieve|lru-k buffer-pool eviction\n\
         \x20                  (default lru); oracles and cross-jobs identity\n\
         \x20                  must hold under every policy\n\
         --txns N           workload transactions per seed (default 60)\n\
         --jobs N           worker threads per campaign (default: available\n\
         \x20                  parallelism; reports are byte-identical to --jobs 1)\n\
         --bug-skip-redo N  self-test: skip the N-th committed redo record\n\
         --sharded          run the sharded 2PC crash campaign instead: the\n\
         \x20                  production coordinator dies after prepare, after\n\
         \x20                  the decision or after the first delivery, and\n\
         \x20                  recovery must leave no shard half-committed.\n\
         \x20                  Takes --seeds, --profile, --txns (transfers per\n\
         \x20                  seed), --jobs, --shards, --bug-forget-decision;\n\
         \x20                  any other flag is an error\n\
         --shards N         fleet size for --sharded (default 3, at least 2)\n\
         --bug-forget-decision  self-test: recover against a coordinator that\n\
         \x20                  lost its decision log (the 2PC atomicity oracle\n\
         \x20                  must fire)\n\
         --out DIR          write failure reproducers (and replay artifacts) to DIR",
        names.join("|")
    )
}

fn parse(args: impl Iterator<Item = String>) -> Result<ChaosArgs, String> {
    let mut parsed = ChaosArgs {
        seeds: 20,
        profiles: SutProfile::all(),
        replay: None,
        bug_skip_redo: None,
        isolation: IsolationLevel::ReadCommitted,
        eviction: EvictionPolicyKind::default(),
        txns: 60,
        jobs: cloudybench::parallel::default_jobs(),
        sharded: false,
        shards: 3,
        bug_forget_decision: false,
        out: None,
    };
    let mut given: Vec<String> = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", chaos_usage()))
        };
        match arg.as_str() {
            "--seeds" => {
                parsed.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
                // An empty campaign would report "0 violations" and exit 0.
                if parsed.seeds == 0 {
                    return Err("--seeds needs at least one seed".to_string());
                }
            }
            "--profile" => {
                let name = value("--profile")?;
                let p = SutProfile::by_name(&name)
                    .ok_or_else(|| format!("unknown profile {name:?}\n{}", chaos_usage()))?;
                parsed.profiles = vec![p];
            }
            "--replay" => {
                parsed.replay = Some(
                    value("--replay")?
                        .parse()
                        .map_err(|e| format!("--replay: {e}"))?,
                )
            }
            "--bug-skip-redo" => {
                parsed.bug_skip_redo = Some(
                    value("--bug-skip-redo")?
                        .parse()
                        .map_err(|e| format!("--bug-skip-redo: {e}"))?,
                )
            }
            "--isolation" => {
                let name = value("--isolation")?;
                parsed.isolation = IsolationLevel::parse(&name)
                    .ok_or_else(|| format!("unknown isolation {name:?}\n{}", chaos_usage()))?;
            }
            "--eviction" => {
                let name = value("--eviction")?;
                parsed.eviction = EvictionPolicyKind::parse(&name)
                    .ok_or_else(|| format!("unknown eviction {name:?}\n{}", chaos_usage()))?;
            }
            "--txns" => {
                parsed.txns = value("--txns")?
                    .parse()
                    .map_err(|e| format!("--txns: {e}"))?
            }
            "--jobs" => {
                parsed.jobs = value("--jobs")?
                    .parse::<usize>()
                    .map_err(|e| format!("--jobs: {e}"))?
                    .max(1)
            }
            "--sharded" => parsed.sharded = true,
            "--shards" => {
                parsed.shards = value("--shards")?
                    .parse::<usize>()
                    .map_err(|e| format!("--shards: {e}"))?
                    .max(1)
            }
            "--bug-forget-decision" => parsed.bug_forget_decision = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--help" | "-h" => return Err(chaos_usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", chaos_usage())),
        }
        given.push(arg);
    }
    if parsed.sharded {
        if let Some(flag) = given.iter().find(|g| NOT_SHARDED.contains(&g.as_str())) {
            return Err(format!("{flag} is not supported with --sharded"));
        }
        if parsed.shards < 2 {
            return Err("--sharded needs --shards of at least 2".to_string());
        }
    }
    Ok(parsed)
}

fn write_failure(out: &Option<PathBuf>, v: &ShrunkViolation) {
    let Some(dir) = out else { return };
    let path = dir.join(format!(
        "chaos-failure-{}-{}.txt",
        v.violation.profile, v.violation.seed
    ));
    let body = format!(
        "{}\n\nminimal reproducer:\n  {}\n\nreplay with:\n  {}\n",
        v.violation,
        v.minimal,
        v.violation.replay_command()
    );
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("cloudybench chaos: writing {}: {e}", path.display());
    } else {
        eprintln!("reproducer written to {}", path.display());
    }
}

/// Entry point for `cloudybench chaos ...`. Returns the process exit code:
/// zero iff every seed on every profile passed all oracles.
pub fn chaos_main(args: impl Iterator<Item = String>) -> u8 {
    let parsed = match parse(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let opts = ChaosOptions {
        txns: parsed.txns,
        bug_skip_redo: parsed.bug_skip_redo,
        isolation: parsed.isolation,
        eviction: parsed.eviction,
        ..ChaosOptions::default()
    };
    if parsed.sharded {
        return sharded_campaign(&parsed);
    }
    if let Some(seed) = parsed.replay {
        return replay(seed, &parsed, &opts);
    }
    let seeds: Vec<u64> = (0..parsed.seeds).collect();
    let mut total_ok = 0usize;
    let mut total_bad = 0usize;
    for profile in &parsed.profiles {
        let report = run_campaign_jobs(profile, &seeds, &opts, parsed.jobs);
        let crashes: u64 = report.reports.iter().map(|r| r.crashes).sum();
        let faults: u64 = report.reports.iter().map(|r| r.faults).sum();
        println!(
            "{:8}  seeds={}  clean={}  violations={}  faults={} (crashes={})",
            profile.name,
            seeds.len(),
            report.reports.len(),
            report.violations.len(),
            faults,
            crashes,
        );
        total_ok += report.reports.len();
        total_bad += report.violations.len();
        for v in &report.violations {
            eprintln!("{v}");
            write_failure(&parsed.out, v);
        }
    }
    println!(
        "chaos: {} clean seed-runs, {} violations across {} profile(s)",
        total_ok,
        total_bad,
        parsed.profiles.len()
    );
    u8::from(total_bad > 0)
}

/// The `--sharded` campaign: the production 2PC coordinator crashing after
/// prepare, after the decision, or after the first delivery, every shard
/// recovered through both real paths and checked by the atomicity and
/// conservation oracles. One summary line per profile.
fn sharded_campaign(parsed: &ChaosArgs) -> u8 {
    let opts = Shard2pcOptions {
        shards: parsed.shards,
        transfers: parsed.txns.max(2),
        bug_forget_decision: parsed.bug_forget_decision,
    };
    let seeds: Vec<u64> = (0..parsed.seeds).collect();
    let mut failed = false;
    for profile in &parsed.profiles {
        let report = run_shard2pc_campaign_jobs(profile, &seeds, &opts, parsed.jobs);
        let [prepared, decided, first_committed] = report.crash_points;
        println!(
            "{:8}  seeds={}  clean={}  violations={}  shards={}  prepares={}  committed-2pc={}  resolved-in-doubt={}  crashes={prepared}/{decided}/{first_committed}",
            profile.name,
            seeds.len(),
            report.clean_seeds.len(),
            report.violations.len(),
            opts.shards,
            report.two_phase.prepares,
            report.committed_2pc,
            report.resolved_in_doubt,
        );
        for v in &report.violations {
            eprintln!("{v}");
        }
        failed |= !report.clean();
    }
    u8::from(failed)
}

fn replay(seed: u64, parsed: &ChaosArgs, opts: &ChaosOptions) -> u8 {
    let mut failed = false;
    for profile in &parsed.profiles {
        let schedule = FaultSchedule::generate(seed, opts.txns);
        println!("{:8}  {}", profile.name, schedule);
        match run_seed(profile, seed, opts) {
            Ok(r) => {
                println!(
                    "{:8}  committed={} aborted={} crashes={} faults={}",
                    profile.name, r.committed, r.aborted, r.crashes, r.faults
                );
                if let (Some(dir), Some(a)) = (&parsed.out, &r.artifacts) {
                    let dir = dir.join(format!("chaos-{}-{}", profile.name, seed));
                    let write = std::fs::create_dir_all(&dir).and_then(|_| {
                        std::fs::write(dir.join(cb_obs::export::TRACE_FILE), &a.trace)?;
                        std::fs::write(dir.join(cb_obs::export::HIST_JSON_FILE), &a.hist_json)?;
                        std::fs::write(dir.join(cb_obs::export::HIST_CSV_FILE), &a.hist_csv)?;
                        std::fs::write(dir.join(cb_obs::export::TIMELINE_FILE), &a.timeline)
                    });
                    match write {
                        Ok(()) => println!("artifacts written to {}", dir.display()),
                        Err(e) => eprintln!("cloudybench chaos: writing artifacts: {e}"),
                    }
                }
            }
            Err(v) => {
                eprintln!("{v}");
                failed = true;
            }
        }
    }
    u8::from(failed)
}
