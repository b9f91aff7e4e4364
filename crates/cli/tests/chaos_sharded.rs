//! `cloudybench chaos --sharded` through the real binary: flags the 2PC
//! campaign cannot carry are refused instead of dropped, `--profile` is
//! honoured, and an empty campaign (`--seeds 0`, sharded or not) or a
//! removed eviction policy is refused instead of reported clean.

use std::process::{Command, Output};

fn chaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cloudybench"))
        .arg("chaos")
        .args(args)
        .output()
        .expect("the cloudybench binary runs")
}

fn chaos_sharded(args: &[&str]) -> Output {
    chaos(&[&["--sharded"], args].concat())
}

#[test]
fn flags_the_sharded_campaign_cannot_carry_exit_2() {
    for flag in [
        ["--eviction", "sieve"],
        ["--isolation", "si"],
        ["--replay", "7"],
        ["--bug-skip-redo", "3"],
        ["--out", "chaos-failures"],
    ] {
        let out = chaos_sharded(&flag);
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
        assert!(out.stdout.is_empty(), "{flag:?} ran a campaign anyway");
        let msg = String::from_utf8(out.stderr).unwrap();
        assert_eq!(
            msg.trim_end(),
            format!("{} is not supported with --sharded", flag[0])
        );
    }
    let out = chaos_sharded(&["--shards", "1"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn an_empty_campaign_exits_2_instead_of_reporting_clean() {
    for run in [chaos, chaos_sharded] {
        let out = run(&["--seeds", "0"]);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty(), "printed a summary anyway");
        let msg = String::from_utf8(out.stderr).unwrap();
        assert_eq!(
            msg.trim_end(),
            "key --seeds: 0 seeds measure nothing (expected at least 1)"
        );
    }
}

/// CLOCK was removed as a policy; it is refused like any other unknown
/// name, in the one message style the props keys use.
#[test]
fn a_removed_eviction_policy_exits_2() {
    let args: Vec<&str> = "--eviction clock --seeds 1".split(' ').collect();
    let out = chaos(&args);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran a campaign anyway");
    let msg = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        msg.trim_end(),
        "key --eviction: unknown value \"clock\" (expected one of: lru, sieve, lru-k)"
    );
}

#[test]
fn profile_selects_the_one_summary_line() {
    let out = chaos_sharded(&["--profile", "cdb2", "--seeds", "3", "--jobs", "1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(
        lines[0].starts_with("cdb2 ") && lines[0].contains("seeds=3  clean=3  violations=0"),
        "{stdout}"
    );
}
