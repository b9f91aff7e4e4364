//! The `cloudybench` command line: run an evaluation described by a props
//! file.
//!
//! ```text
//! cloudybench path/to/run.props
//! echo "sut = cdb3
//! mode = elasticity
//! pattern = zero-valley" | cloudybench -
//! cloudybench run.props --trace-out traces/   # + Chrome trace & histograms
//! ```

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;

use cb_cli::run_from_props;
use cb_obs::{write_run_artifacts, ObsSink};
use cloudybench::config::Props;

fn usage() -> ExitCode {
    eprintln!("usage: cloudybench <props-file | - > [--trace-out DIR] [--metrics-out DIR]");
    eprintln!("       cloudybench chaos [--seeds N] [--profile NAME] [--replay SEED] ...");
    eprintln!("       cloudybench load --arrival SPEC [--runs N] [--jobs N] ...");
    eprintln!();
    eprintln!("keys, every mode: sut (aws-rds|cdb1..cdb4), sim_scale, seed,");
    eprintln!("      mode (oltp|elasticity|tenancy|failover|lagtime|sharded),");
    eprintln!("      mix (ro|rw|wo|scan-resistant|t1:t2:t3:t4[:t5]),");
    eprintln!("      distribution (uniform|latest-N|zipfian-THETA),");
    eprintln!("      eviction (lru|sieve|lru-k; not in mode sharded)");
    eprintln!("  oltp: scale_factor, concurrency, duration_secs, ro_nodes,");
    eprintln!("      ruc_{{cpu_vcore,mem_gb,storage_gb,iops_100,tcp_gbps,rdma_gbps}}_hour");
    eprintln!("  elasticity: pattern (single-peak|large-spike|single-valley|zero-valley), tau,");
    eprintln!("      or elastic_testTime + first_con, second_con.. + slot_seconds");
    eprintln!("  tenancy: tenancy_pattern (a|b|c|d), tenancy_scale");
    eprintln!("  failover: concurrency");
    eprintln!("  lagtime: concurrency, replicas");
    eprintln!("  sharded: shards, strategy (hash|range|both), jobs, tenants_per_shard,");
    eprintln!(
        "      clients_per_tenant, hot_clients, slot_secs, transfers, shift_secs, shift_pace"
    );
    eprintln!();
    eprintln!("flags: --trace-out DIR    write trace.json, histograms.json/.csv, timeline.txt");
    eprintln!("       --metrics-out DIR  write histograms.json and histograms.csv only");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("chaos") {
        raw.next();
        return ExitCode::from(cb_cli::chaos_cmd::chaos_main(raw));
    }
    if raw.peek().map(String::as_str) == Some("load") {
        raw.next();
        return ExitCode::from(cb_cli::load_cmd::load_main(raw));
    }
    let mut path: Option<String> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => match args.next() {
                Some(dir) => trace_out = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--metrics-out" => match args.next() {
                Some(dir) => metrics_out = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            _ if path.is_none() => path = Some(arg),
            _ => return usage(),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    let text = if path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("cloudybench: reading stdin: {e}");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cloudybench: reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let props = match Props::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cloudybench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let obs = if trace_out.is_some() || metrics_out.is_some() {
        ObsSink::enabled()
    } else {
        ObsSink::disabled()
    };
    match run_from_props(&props, &obs) {
        Ok(report) => {
            println!("{report}");
            if let Some(dir) = &trace_out {
                let r = obs
                    .with(|t| write_run_artifacts(t, dir))
                    .expect("sink enabled");
                if let Err(e) = r {
                    eprintln!(
                        "cloudybench: writing trace artifacts to {}: {e}",
                        dir.display()
                    );
                    return ExitCode::FAILURE;
                }
                println!("trace artifacts written to {}", dir.display());
            }
            if let Some(dir) = &metrics_out {
                let r = obs
                    .with(|t| -> std::io::Result<()> {
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
                    .expect("sink enabled");
                if let Err(e) = r {
                    eprintln!("cloudybench: writing metrics to {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
                println!("metric summaries written to {}", dir.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cloudybench: {e}");
            ExitCode::FAILURE
        }
    }
}
