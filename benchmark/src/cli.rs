//! The command line.
//!
//! ```text
//! cb-benchmark run [--workload NAME] [--seed N] [--seconds S]
//!                  [--trace 0|1 | --traced] [--quick] [--out DIR]
//! cb-benchmark compare A/results.json B/results.json
//! ```
//!
//! `run` prints one line per metric, `workload metric value unit n`, and as
//! its last line one JSON object. With `--workload` that object has exactly
//! `correct`, `attempted`, `failed` and `metrics` (the `BENCHMARK.json`
//! end-to-end metrics, or with `--trace 1` the per-layer ones); without, the
//! five workloads run one child process each and the object holds theirs.
//! The exit code is 0 only if every correctness check passed.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::compare::compare;
use crate::runner::{run_all, run_one, Config};
use crate::spec::Spec;
use crate::workloads::Workload;

const USAGE: &str = "usage:
  cb-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick] [--out DIR]
  cb-benchmark compare A/results.json B/results.json
workloads: oltp_rw_cached oltp_scan_tinypool openloop_si_hot chaos_recovery perfect_cdb3";

/// A parsed command line.
#[derive(Clone, Debug)]
pub enum Cli {
    /// `run`, for one workload in-process or for all in child processes.
    Run(Option<Workload>, Config),
    /// `compare A B`.
    Compare(String, String),
}

/// Default seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 2025;

/// Parse `args` (without the program name).
pub fn parse(args: &[String], default_seconds: f64) -> Result<Cli, String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    match command.as_str() {
        "compare" => match rest {
            [a, b] => Ok(Cli::Compare(a.clone(), b.clone())),
            _ => Err("compare takes exactly two results files".to_string()),
        },
        "run" => {
            let mut workload = None;
            let mut cfg = Config {
                seed: DEFAULT_SEED,
                seconds: default_seconds,
                traced: false,
                quick: false,
                out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
            };
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
                match flag.as_str() {
                    "--workload" => {
                        let name = value()?;
                        workload = Some(
                            Workload::from_name(name)
                                .ok_or_else(|| format!("unknown workload {name:?}"))?,
                        );
                    }
                    "--seed" => {
                        let v = value()?;
                        cfg.seed = v
                            .parse()
                            .map_err(|_| format!("--seed {v:?} is not a u64"))?;
                    }
                    "--seconds" => {
                        let v = value()?;
                        cfg.seconds = match v.parse::<f64>() {
                            Ok(s) if s.is_finite() && s > 0.0 && s <= 3600.0 => s,
                            _ => return Err(format!("--seconds {v:?} is not in (0, 3600]")),
                        };
                    }
                    "--trace" => {
                        cfg.traced = match value()?.as_str() {
                            "0" => false,
                            "1" => true,
                            v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                        };
                    }
                    "--traced" => cfg.traced = true,
                    "--quick" => cfg.quick = true,
                    "--out" => cfg.out = PathBuf::from(value()?),
                    other => return Err(format!("unknown argument {other:?}")),
                }
            }
            // Chaos seeds are `seed..seed + n`.
            if cfg.seed > u64::MAX - 1_000_000 {
                return Err(format!("--seed {} is too close to u64::MAX", cfg.seed));
            }
            Ok(Cli::Run(workload, cfg))
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Run the command line; the process exit code.
pub fn main(args: Vec<String>) -> ExitCode {
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let cli = match parse(&args, spec.run_seconds) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let passed = match cli {
        Cli::Compare(a, b) => compare(&a, &b),
        Cli::Run(None, cfg) => run_all(&cfg),
        Cli::Run(Some(w), cfg) => run_one(w, &cfg).map(|outcome| {
            println!(
                "{}",
                outcome.result_line(&spec.listed(cfg.traced)).compact()
            );
            outcome.gate.failures.is_empty()
        }),
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_protocol_parses() {
        let line = "run --workload chaos_recovery --seed 7 --seconds 12 --trace 1";
        let Ok(Cli::Run(Some(w), cfg)) = parse(&args(line), 10.0) else {
            panic!("must parse");
        };
        assert_eq!(w, Workload::ChaosRecovery);
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.traced, cfg.quick),
            (7, 12.0, true, false)
        );

        let Ok(Cli::Run(None, cfg)) = parse(&args("run --quick --traced --out /tmp/x"), 10.0)
        else {
            panic!("must parse");
        };
        assert_eq!((cfg.seed, cfg.seconds), (DEFAULT_SEED, 10.0));
        assert!(cfg.traced && cfg.quick);
        assert_eq!(cfg.out, PathBuf::from("/tmp/x"));
        assert!(matches!(
            parse(&args("compare a b"), 10.0),
            Ok(Cli::Compare(..))
        ));
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        for bad in [
            "",
            "bench",
            "run --workload nope",
            "run --seed -1",
            "run --seed",
            "run --seconds 0",
            "run --seconds nan",
            "run --trace 2",
            "run --frobnicate",
            "run --seed 18446744073709551615",
            "compare one",
        ] {
            assert!(parse(&args(bad), 10.0).is_err(), "{bad:?} must be refused");
        }
    }
}
