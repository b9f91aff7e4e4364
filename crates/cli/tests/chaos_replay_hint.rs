//! The replay line `cloudybench chaos` prints for a violation is a command:
//! fed back to the binary word for word, it parses and finds the violation
//! again, under the isolation level, eviction policy and run length of the
//! campaign that found it.

use std::process::{Command, Output};

fn cloudybench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cloudybench"))
        .args(args)
        .output()
        .expect("the cloudybench binary runs")
}

#[test]
fn the_printed_replay_line_replays_the_violation() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("replay-hint");
    let campaign = [
        "chaos",
        "--seeds",
        "2",
        "--jobs",
        "1",
        "--profile",
        "cdb2",
        "--isolation",
        "si",
        "--eviction",
        "sieve",
        "--txns",
        "80",
        "--bug-skip-redo",
        "0",
        "--out",
        out_dir.to_str().expect("utf-8 temp dir"),
    ];
    let out = cloudybench(&campaign);
    assert_eq!(out.status.code(), Some(1), "the planted bug is found");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("  replay: cloudybench "))
        .expect("a violation prints its replay line");
    assert!(
        line.ends_with(" --isolation si --eviction sieve --txns 80 --bug-skip-redo 0"),
        "{line}"
    );
    let replayed = cloudybench(&line.split(' ').collect::<Vec<_>>());
    assert_eq!(
        replayed.status.code(),
        Some(1),
        "every printed flag parses and the violation comes back: {}",
        String::from_utf8_lossy(&replayed.stderr)
    );
    // The reproducer file ends in the same command.
    let seed = line
        .split(' ')
        .nth(4)
        .expect("chaos --profile P --replay SEED");
    let file = out_dir.join(format!("chaos-failure-cdb2-{seed}.txt"));
    let body = std::fs::read_to_string(&file).expect("reproducer written");
    assert!(
        body.ends_with(&format!("replay with:\n  cloudybench {line}\n")),
        "{body}"
    );
    std::fs::remove_dir_all(&out_dir).expect("temp dir removed");
}
