//! Subcommand lines that cannot run as asked exit 2 before any work, with a
//! message naming the flag as typed. Each of these used to run: a chaos
//! campaign too short for any fault to fire reported clean, a seed range
//! past `u64::MAX` wrapped to an empty table (or panicked with overflow
//! checks on), and `nan` / `inf` phase lengths ran a 0 s warmup or a
//! horizon that never ends. A props file whose counts or scale cannot run
//! exits 1 the same way.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run the binary, killing it if it outlives `limit` (a never-ending run
/// fails the test instead of hanging it).
fn cloudybench(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cloudybench"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the cloudybench binary runs");
    let start = Instant::now();
    while child.try_wait().expect("wait on the child").is_none() {
        if start.elapsed() > limit {
            child.kill().expect("kill the child");
            panic!("{args:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect the output")
}

#[test]
fn values_that_cannot_run_exit_2_naming_the_flag() {
    for (args, flag) in [
        ("chaos --txns 3 --profile cdb3 --seeds 2", "--txns"),
        (
            "load --arrival poisson:100/s --phases 0,0,0.01 --seed 18446744073709551615 --runs 2",
            "--seed",
        ),
        (
            "load --arrival poisson:100/s --phases nan,nan,1",
            "--phases",
        ),
        ("load --arrival poisson:100/s --phases 0,0,inf", "--phases"),
        ("chaos --seeds 18446744073709551615", "--seeds"),
        ("chaos --seeds 0", "--seeds"),
        (
            "load --arrival poisson:100/s --seed 0 --runs 18446744073709551615",
            "--runs",
        ),
    ] {
        let argv: Vec<&str> = args.split(' ').collect();
        let out = cloudybench(&argv, Duration::from_secs(60));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args} ran anyway");
        assert!(
            stderr.starts_with(&format!("key {flag}: ")),
            "{args}: {stderr}"
        );
    }
}

/// Run `args`, which must exit with `code` within 1 s, print nothing on
/// stdout, and start its one message with `prefix`.
fn refused_at_once(args: &[&str], code: i32, prefix: &str) {
    let out = cloudybench(args, Duration::from_secs(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    assert!(stderr.starts_with(prefix), "{args:?}: {stderr}");
}

/// Counts and scales that used to run wrong are refused before anything is
/// built, naming the key: `sim_scale = 0` billed no storage, a replica
/// count of 10^11 built nodes until memory ran out, `replicas = 0`,
/// `shards = 0` or `load --runs 0` silently ran one, and a scale factor,
/// duration, OLTP or lag-run concurrency or elasticity τ of 0 reported a
/// run that measured nothing. A props file exits 1 and `load` exits 2.
#[test]
fn counts_and_scales_that_cannot_run_are_refused_at_once() {
    let dir = std::env::temp_dir().join(format!("cb-refusals-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary props dir");
    for (mode, key, value) in [
        ("oltp", "sim_scale", "0"),
        ("oltp", "ro_nodes", "100000000000"),
        ("lagtime", "replicas", "100000000000"),
        ("lagtime", "replicas", "0"),
        ("sharded", "shards", "0"),
        ("oltp", "scale_factor", "0"),
        ("oltp", "duration_secs", "0"),
        ("lagtime", "concurrency", "0"),
        ("oltp", "concurrency", "0"),
        ("elasticity", "tau", "0"),
    ] {
        let path = dir.join(format!("{key}-{value}.props"));
        std::fs::write(&path, format!("mode = {mode}\n{key} = {value}\n")).expect("write props");
        let path = path.to_str().expect("UTF-8 temp path");
        refused_at_once(&[path], 1, &format!("cloudybench: key {key}: "));
    }
    std::fs::remove_dir_all(&dir).expect("temporary props dir removed");
    for flag in [
        "--sim-scale 0",
        "--ro-nodes 100000000000",
        "--scale-factor 0",
        "--runs 0",
    ] {
        let args = format!("load --arrival poisson:100/s {flag}");
        let argv: Vec<&str> = args.split(' ').collect();
        let name = flag.split(' ').next().unwrap();
        refused_at_once(&argv, 2, &format!("key {name}: "));
    }
}

/// The 2PC campaign counts transfers, not fault slots: a short one still
/// runs.
#[test]
fn a_short_sharded_campaign_still_runs() {
    let argv: Vec<&str> = "chaos --sharded --txns 3 --profile cdb2 --seeds 2 --jobs 1"
        .split(' ')
        .collect();
    let out = cloudybench(&argv, Duration::from_secs(60));
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("cdb2 "), "{stdout}");
}
