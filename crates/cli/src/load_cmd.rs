//! The `cloudybench load` subcommand: open-loop arrival-driven load runs.
//!
//! ```text
//! cloudybench load --arrival poisson:5000/s                  # one run, defaults
//! cloudybench load --arrival bursty:8000/s,200/s,2s,1s --runs 5 --jobs 4
//! cloudybench load --arrival maxtp:64 --phases 2s,2s,20s     # saturation probe
//! cloudybench load --arrival poisson:5000/s --out artifacts/ # write report file
//! ```
//!
//! Runs are deterministic: the per-seed artifact written with `--out` is
//! byte-identical for any `--jobs` value.

use std::ops::RangeInclusive;
use std::path::PathBuf;

use cb_load::{ArrivalPlan, PhasePlan};
use cb_sut::SutProfile;
use cloudybench::report::{fnum, summary_table, Table};
use cloudybench::{
    aggregate, run_open_loop_seeds, AccessDistribution, DatasetShape, KeyPartition, OpenLoopConfig,
    OpenLoopSpec, SeedOutcome,
};

use crate::{
    argv_props, jobs, node_count, nonzero, parse_mix, parse_sut, scale_factor, seed_list,
    sim_scale, CliError,
};

/// The `load` flags; each takes a value.
const FLAGS: [&str; 12] = [
    "--arrival",
    "--phases",
    "--runs",
    "--jobs",
    "--profile",
    "--mix",
    "--clients",
    "--seed",
    "--scale-factor",
    "--sim-scale",
    "--ro-nodes",
    "--out",
];

/// A parsed `load` command line: the deployment, the arrival plan and
/// workload, the seeds to run, worker threads and the artifact directory.
pub(crate) struct Load {
    cfg: OpenLoopConfig,
    spec: OpenLoopSpec,
    seeds: RangeInclusive<u64>,
    jobs: usize,
    out: Option<PathBuf>,
}

fn load_usage() -> String {
    let names: Vec<&str> = SutProfile::all().iter().map(|p| p.name).collect();
    format!(
        "usage: cloudybench load --arrival SPEC [--phases W,R,M] [--runs N] [--jobs N]\n\
         \x20                       [--profile NAME] [--mix ro|rw|wo] [--clients N]\n\
         \x20                       [--seed N] [--scale-factor N] [--sim-scale N]\n\
         \x20                       [--ro-nodes N] [--out DIR]\n\
         \n\
         --arrival SPEC     poisson:5000/s | bursty:on/s,off/s,mean-on,mean-off |\n\
         \x20                  diurnal:base/s,amplitude,period | trace:t1,t2,... |\n\
         \x20                  maxtp:CLIENTS (closed-loop-compatible saturation probe)\n\
         --phases W,R,M     warmup,ramp-up,measure durations (default 2s,2s,20s)\n\
         --runs N           seeds <seed>..<seed>+N, aggregated (default 1)\n\
         --jobs N           worker threads (default: available parallelism;\n\
         \x20                  results and artifacts are byte-identical to --jobs 1)\n\
         --profile NAME     SUT profile ({}; default aws-rds)\n\
         --mix ro|rw|wo     transaction mix (default rw)\n\
         --clients N        logical client population for attribution (default 100000)\n\
         --seed N           first workload seed (default 2025)\n\
         --scale-factor N   dataset scale factor (default 1)\n\
         --sim-scale N      simulation shrink divisor (default 100)\n\
         --ro-nodes N       read-only replicas (default 1)\n\
         --out DIR          write load-report.txt (deterministic artifact) to DIR",
        names.join("|")
    )
}

/// Parse a `load` command line into the runs it asks for; nothing runs.
pub(crate) fn parse(args: impl Iterator<Item = String>) -> Result<Load, CliError> {
    let props = argv_props(args, &FLAGS, &[], &load_usage())?;
    // The arrival and phase specs have parsers of their own; their messages
    // gain the flag.
    let naming = |flag: &str, e: String| CliError::Arg(format!("key {flag}: {e}"));
    let arrival = props
        .get("--arrival")
        .ok_or_else(|| CliError::Arg(format!("--arrival is required\n{}", load_usage())))?;
    let mode = ArrivalPlan::parse_mode(arrival).map_err(|e| naming("--arrival", e))?;
    let phases = PhasePlan::parse(props.get("--phases").unwrap_or("2s,2s,20s"))
        .map_err(|e| naming("--phases", e))?;
    let cfg = OpenLoopConfig {
        profile: parse_sut(&props, "--profile")?.unwrap_or_else(SutProfile::aws_rds),
        scale_factor: scale_factor(&props, "--scale-factor")?,
        sim_scale: sim_scale(&props, "--sim-scale", 100)?,
        ro_nodes: node_count(&props, "--ro-nodes", 1, 0)?,
    };
    let shape = DatasetShape::new(cfg.scale_factor, cfg.sim_scale);
    let spec = OpenLoopSpec {
        plan: ArrivalPlan {
            mode,
            phases,
            logical_clients: props.get_u64("--clients", 100_000)?,
        },
        mix: parse_mix(&props, "--mix")?,
        dist: AccessDistribution::Uniform,
        partition: KeyPartition::whole(shape.orders, shape.customers),
    };
    let first = props.get_u64("--seed", 2025)?;
    let runs = nonzero(
        "--runs",
        props.get_u64("--runs", 1)?,
        "0 runs measure nothing",
    )?;
    let last = first.checked_add(runs - 1).ok_or_else(|| {
        CliError::Arg(format!(
            "key --seed: {runs} runs from seed {first} pass the last seed {}",
            u64::MAX
        ))
    })?;
    Ok(Load {
        cfg,
        spec,
        seeds: first..=last,
        jobs: jobs(&props)?,
        out: props.get("--out").map(PathBuf::from),
    })
}

/// One stable text line per seed — the deterministic artifact body. Floats
/// print via `{:?}` (shortest round-trip form), so byte equality means
/// bit equality.
fn artifact(outcomes: &[SeedOutcome]) -> String {
    let mut s = String::from(
        "seed\ttps\tmean_ms\tp50_ms\tp99_ms\tp999_ms\tservice_p99_ms\tsched_lag_p99_ms\tqueue_depth_max\tarrivals\tmeasured\n",
    );
    for o in outcomes {
        s.push_str(&format!(
            "{}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{}\t{}\t{}\n",
            o.seed,
            o.tps,
            o.mean_ms,
            o.p50_ms,
            o.p99_ms,
            o.p999_ms,
            o.service_p99_ms,
            o.sched_lag_p99_ms,
            o.queue_depth_max,
            o.arrivals,
            o.measured,
        ));
    }
    s
}

/// Run a parsed `load` command line. Returns the process exit code.
pub(crate) fn run(load: Load) -> Result<u8, CliError> {
    let Load {
        cfg,
        spec,
        seeds,
        jobs,
        out,
    } = load;
    let seeds = seed_list(seeds, "--runs")?;
    let outcomes = run_open_loop_seeds(&cfg, &spec, &seeds, jobs);

    let mut t = Table::new(
        &format!(
            "Open-loop load — {} ({:?}, phases {:?}+{:?}+{:?})",
            cfg.profile.name,
            spec.plan.mode,
            spec.plan.phases.warmup,
            spec.plan.phases.rampup,
            spec.plan.phases.measure,
        ),
        &[
            "Seed", "TPS", "mean ms", "p50 ms", "p99 ms", "p99.9 ms", "svc p99", "lag p99",
            "depth", "arrivals",
        ],
    );
    for o in &outcomes {
        t.row(&[
            o.seed.to_string(),
            fnum(o.tps),
            fnum(o.mean_ms),
            fnum(o.p50_ms),
            fnum(o.p99_ms),
            fnum(o.p999_ms),
            fnum(o.service_p99_ms),
            fnum(o.sched_lag_p99_ms),
            o.queue_depth_max.to_string(),
            o.arrivals.to_string(),
        ]);
    }
    println!("{t}");
    if outcomes.len() > 1 {
        let agg = aggregate(&outcomes);
        println!(
            "{}",
            summary_table(
                &format!("Aggregate over {} seeds", outcomes.len()),
                &[
                    ("TPS", agg.tps),
                    ("mean ms", agg.mean_ms),
                    ("p99 ms", agg.p99_ms),
                    ("p99.9 ms", agg.p999_ms),
                ],
            )
        );
    }
    if let Some(dir) = &out {
        let path = dir.join("load-report.txt");
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, artifact(&outcomes)))
        {
            Ok(()) => println!("artifact written to {}", path.display()),
            Err(e) => {
                eprintln!("cloudybench load: writing {}: {e}", path.display());
                return Ok(1);
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_load::TestMode;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parse_requires_arrival() {
        assert!(parse(argv("--runs 3")).is_err());
        let p = parse(argv("--arrival poisson:100/s --runs 3 --jobs 2"))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(p.seeds, 2025..=2027);
        assert_eq!(p.jobs, 2);
        assert!(matches!(p.spec.plan.mode, TestMode::FixedRate(_)));
    }

    #[test]
    fn parse_maxtp_and_phases() {
        let p = parse(argv("--arrival maxtp:32 --phases 1s,1s,5s --profile cdb3"))
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(matches!(
            p.spec.plan.mode,
            TestMode::MaxThroughput { clients: 32 }
        ));
        assert_eq!(p.cfg.profile.name, "cdb3");
        assert_eq!(
            p.spec.plan.phases.total(),
            cb_sim::SimDuration::from_secs(7)
        );
        assert!(parse(argv("--arrival maxtp:32 --mix zz")).is_err());
    }

    #[test]
    fn mix_takes_every_form_the_props_key_takes() {
        for mix in ["wo", "scan-resistant", "15:5:80:0", "0:0:90:0:10"] {
            let p = parse(argv(&format!("--arrival maxtp:2 --mix {mix}")));
            assert!(p.is_ok(), "{mix}");
        }
        let e = parse(argv("--arrival maxtp:2 --mix 0:0:0:0"))
            .err()
            .unwrap();
        assert!(e.to_string().starts_with("key --mix: "), "{e}");
    }

    #[test]
    fn artifact_lines_are_stable() {
        let o = SeedOutcome {
            seed: 7,
            tps: 123.456,
            mean_ms: 1.5,
            p50_ms: 1.25,
            p99_ms: 4.75,
            p999_ms: 9.5,
            service_p99_ms: 4.5,
            sched_lag_p99_ms: 0.25,
            queue_depth_max: 42,
            arrivals: 1000,
            measured: 900,
        };
        let a = artifact(&[o]);
        let b = artifact(&[o]);
        assert_eq!(a, b);
        assert!(a.starts_with("seed\t"));
        assert!(a.contains("123.456"));
    }
}
