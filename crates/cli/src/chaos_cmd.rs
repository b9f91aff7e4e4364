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
    run_campaign_jobs, run_seed, run_shard2pc_campaign_jobs, ChaosBug, ChaosOptions, FaultSchedule,
    Shard2pcOptions, ShrunkViolation,
};
use cb_sut::SutProfile;
use cloudybench::config::{ConfigError, Props};

use crate::{
    argv_props, jobs, nonzero, parse_eviction, parse_isolation, parse_sut, seed_list, CliError,
};

/// The `chaos` flags that take a value, and its bare switches.
const FLAGS: [&str; 10] = [
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
];
const SWITCHES: [&str; 2] = ["--sharded", "--bug-forget-decision"];

/// What a `chaos` command line runs.
enum Campaign {
    /// The crash-recovery campaign; failure reproducers go to `out`.
    Recovery {
        opts: ChaosOptions,
        out: Option<PathBuf>,
    },
    /// One seed of it, printing its fault schedule; its artifacts go to
    /// `out`.
    Replay {
        seed: u64,
        opts: ChaosOptions,
        out: Option<PathBuf>,
    },
    /// The sharded 2PC crash-point campaign.
    Sharded(Shard2pcOptions),
}

/// A parsed `chaos` command line: the campaign, the profiles it sweeps, its
/// seed count and its worker threads.
pub(crate) struct Chaos {
    campaign: Campaign,
    profiles: Vec<SutProfile>,
    seeds: u64,
    jobs: usize,
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

/// Parse a `chaos` command line into the campaign it asks for; nothing runs.
pub(crate) fn parse(args: impl Iterator<Item = String>) -> Result<Chaos, CliError> {
    let props = argv_props(args, &FLAGS, &SWITCHES, &chaos_usage())?;
    let sharded = props.get("--sharded").is_some();
    if let Some(flag) = NOT_SHARDED
        .iter()
        .find(|f| sharded && props.get(f).is_some())
    {
        return Err(CliError::Arg(format!(
            "{flag} is not supported with --sharded"
        )));
    }
    // An empty campaign would report "0 violations" and exit 0.
    let seeds = nonzero(
        "--seeds",
        props.get_u64("--seeds", 20)?,
        "0 seeds measure nothing",
    )?;
    let txns = props.get_u64("--txns", 60)?;
    let shards = (props.get_u64("--shards", 3)? as usize).max(1);
    let campaign = if sharded {
        if shards < 2 {
            return Err(CliError::Arg(
                "--sharded needs --shards of at least 2".into(),
            ));
        }
        Campaign::Sharded(Shard2pcOptions {
            shards,
            transfers: txns.max(2),
            bug_forget_decision: props.get("--bug-forget-decision").is_some(),
        })
    } else {
        // `FaultSchedule::generate` puts the first fault on transaction 3: a
        // shorter run ends before any fault fires and reports clean.
        if txns < 4 {
            return Err(CliError::Arg(format!(
                "key --txns: {txns} transactions end before the first fault (transaction 3); \
                 give at least 4"
            )));
        }
        let opts = ChaosOptions {
            txns,
            bug: optional_u64(&props, "--bug-skip-redo")?.map(|n| ChaosBug::SkipRedo(n as usize)),
            isolation: parse_isolation(&props, "--isolation")?.unwrap_or_default(),
            eviction: parse_eviction(&props, "--eviction")?.unwrap_or_default(),
            ..ChaosOptions::default()
        };
        let out = props.get("--out").map(PathBuf::from);
        match optional_u64(&props, "--replay")? {
            Some(seed) => Campaign::Replay { seed, opts, out },
            None => Campaign::Recovery { opts, out },
        }
    };
    Ok(Chaos {
        campaign,
        profiles: parse_sut(&props, "--profile")?.map_or_else(SutProfile::all, |p| vec![p]),
        seeds,
        jobs: jobs(&props)?,
    })
}

/// `key` as a number when it is given.
fn optional_u64(props: &Props, key: &str) -> Result<Option<u64>, ConfigError> {
    props.get(key).map(|_| props.get_u64(key, 0)).transpose()
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

/// Run a parsed `chaos` command line. Returns the process exit code: zero
/// iff every seed on every profile passed all oracles.
pub(crate) fn run(chaos: Chaos) -> Result<u8, CliError> {
    let Chaos {
        campaign,
        profiles,
        seeds,
        jobs,
    } = chaos;
    let (opts, out) = match campaign {
        Campaign::Replay { seed, opts, out } => return Ok(replay(seed, &profiles, &opts, &out)),
        Campaign::Sharded(opts) => {
            let seeds = seed_list(0..=seeds - 1, "--seeds")?;
            return Ok(sharded_campaign(&profiles, &seeds, jobs, &opts));
        }
        Campaign::Recovery { opts, out } => (opts, out),
    };
    let seeds = seed_list(0..=seeds - 1, "--seeds")?;
    let mut total_ok = 0usize;
    let mut total_bad = 0usize;
    for profile in &profiles {
        let report = run_campaign_jobs(profile, &seeds, &opts, jobs);
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
            write_failure(&out, v);
        }
    }
    println!(
        "chaos: {} clean seed-runs, {} violations across {} profile(s)",
        total_ok,
        total_bad,
        profiles.len()
    );
    Ok(u8::from(total_bad > 0))
}

/// The `--sharded` campaign: the production 2PC coordinator crashing after
/// prepare, after the decision, or after the first delivery, every shard
/// recovered through both real paths and checked by the atomicity and
/// conservation oracles. One summary line per profile.
fn sharded_campaign(
    profiles: &[SutProfile],
    seeds: &[u64],
    jobs: usize,
    opts: &Shard2pcOptions,
) -> u8 {
    let mut failed = false;
    for profile in profiles {
        let report = run_shard2pc_campaign_jobs(profile, seeds, opts, jobs);
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

fn replay(seed: u64, profiles: &[SutProfile], opts: &ChaosOptions, out: &Option<PathBuf>) -> u8 {
    let mut failed = false;
    for profile in profiles {
        let schedule = FaultSchedule::generate(seed, opts.txns);
        println!("{:8}  {}", profile.name, schedule);
        match run_seed(profile, seed, opts) {
            Ok(r) => {
                println!(
                    "{:8}  committed={} aborted={} crashes={} faults={}",
                    profile.name, r.committed, r.aborted, r.crashes, r.faults
                );
                if let Some(dir) = out {
                    let a = &r.artifacts;
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
