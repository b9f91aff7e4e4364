//! End-to-end chaos-harness tests: clean campaigns across every SUT
//! profile, the deliberately-bugged-recovery self-test, and determinism.

use cb_chaos::{
    run_campaign, run_seed, run_with_schedule, shrink, ChaosOptions, FaultEvent, FaultKind,
    FaultSchedule,
};
use cb_sim::SimDuration;
use cb_sut::SutProfile;

fn quick_opts() -> ChaosOptions {
    ChaosOptions {
        txns: 40,
        ..ChaosOptions::default()
    }
}

#[test]
fn all_profiles_survive_a_small_campaign() {
    let seeds: Vec<u64> = (1..=6).collect();
    for profile in SutProfile::all() {
        let report = run_campaign(&profile, &seeds, &quick_opts());
        assert!(
            report.clean(),
            "{}: {}",
            profile.name,
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.reports.len(), seeds.len());
        for r in &report.reports {
            assert!(r.committed > 0, "seed {} committed nothing", r.seed);
            assert!(r.artifacts.is_some());
        }
    }
}

#[test]
fn every_fault_kind_is_survivable() {
    // One schedule that fires all six fault kinds in a single run.
    let schedule = FaultSchedule {
        seed: 99,
        events: vec![
            FaultEvent {
                at_txn: 4,
                kind: FaultKind::CrashAtLsn {
                    in_flight: 2,
                    ops_each: 3,
                },
            },
            FaultEvent {
                at_txn: 8,
                kind: FaultKind::CrashMidCheckpoint {
                    after_record: true,
                    in_flight: 1,
                },
            },
            FaultEvent {
                at_txn: 12,
                kind: FaultKind::TornWrite {
                    in_flight: 2,
                    ops_each: 2,
                    cut_permille: 500,
                },
            },
            FaultEvent {
                at_txn: 16,
                kind: FaultKind::HeartbeatLoss {
                    silent_ms: 1500,
                    in_flight: 1,
                },
            },
            FaultEvent {
                at_txn: 20,
                kind: FaultKind::LagSpike { burst: 16 },
            },
            FaultEvent {
                at_txn: 24,
                kind: FaultKind::AutoscaleThrash { cycles: 2 },
            },
        ],
    };
    for profile in SutProfile::all() {
        let r = run_with_schedule(&profile, 99, &schedule, &quick_opts());
        match r {
            Ok(report) => {
                assert_eq!(report.crashes, 4, "{}", profile.name);
                assert_eq!(report.faults, 6, "{}", profile.name);
            }
            Err(v) => panic!("{}: {v}", profile.name),
        }
    }
}

#[test]
fn bugged_recovery_is_caught_and_shrunk() {
    // Self-test of the oracles: a recovery path that silently skips one
    // committed redo record must be caught, and the shrinker must reduce
    // the schedule to just the crash that exposes it.
    let profile = SutProfile::by_name("aws-rds").unwrap();
    let schedule = FaultSchedule {
        seed: 4242,
        events: vec![
            FaultEvent {
                at_txn: 10,
                kind: FaultKind::LagSpike { burst: 8 },
            },
            FaultEvent {
                at_txn: 14,
                kind: FaultKind::CrashAtLsn {
                    in_flight: 2,
                    ops_each: 2,
                },
            },
            FaultEvent {
                at_txn: 20,
                kind: FaultKind::AutoscaleThrash { cycles: 2 },
            },
        ],
    };
    let opts = ChaosOptions {
        bug_skip_redo: Some(0),
        ..quick_opts()
    };
    // Sanity: without the injected bug the schedule is clean.
    assert!(run_with_schedule(&profile, 4242, &schedule, &quick_opts()).is_ok());
    let v = run_with_schedule(&profile, 4242, &schedule, &opts)
        .expect_err("the equivalence oracle must catch the skipped redo record");
    assert!(
        matches!(
            v.oracle,
            "durability" | "atomicity" | "recovery-equivalence"
        ),
        "unexpected oracle: {}",
        v.oracle
    );
    assert!(v.detail.contains("replay"), "{}", v.detail);
    let (minimal, witness) = shrink(&schedule, v, |candidate| {
        run_with_schedule(&profile, 4242, candidate, &opts).err()
    });
    // The lag spike and the thrash are innocent; only the crash remains.
    assert_eq!(minimal.events.len(), 1, "minimal: {minimal}");
    assert!(minimal.events[0].kind.is_crash(), "minimal: {minimal}");
    assert!(matches!(
        witness.oracle,
        "durability" | "atomicity" | "recovery-equivalence"
    ));
}

/// A schedule with one crash landing while txns are still enqueueing, plus
/// an opts override that keeps one group-commit batch open across the whole
/// run — the crash is guaranteed to strike inside it.
fn open_batch_crash(kind: FaultKind) -> (FaultSchedule, ChaosOptions) {
    let schedule = FaultSchedule {
        seed: 7,
        events: vec![FaultEvent { at_txn: 20, kind }],
    };
    let opts = ChaosOptions {
        group_commit_window: Some(SimDuration::from_secs(10)),
        ..quick_opts()
    };
    (schedule, opts)
}

#[test]
fn crash_inside_an_open_batch_legally_drops_unacked_commits() {
    // Nothing of the open batch reached storage: every commit that was
    // waiting on the batch flush may vanish (no ack was ever sent), and all
    // five durability profiles must classify them that way — zero oracle
    // violations, all pending commits dropped, none promoted.
    let (schedule, opts) = open_batch_crash(FaultKind::CrashAtLsn {
        in_flight: 1,
        ops_each: 2,
    });
    for profile in SutProfile::all() {
        let r = run_with_schedule(&profile, 7, &schedule, &opts)
            .unwrap_or_else(|v| panic!("{}: {v}", profile.name));
        assert!(
            r.gc_dropped > 0,
            "{}: the crash must catch unacked commits in the open batch",
            profile.name
        );
        assert_eq!(
            r.gc_promoted, 0,
            "{}: no batch bytes reached storage, nothing to promote",
            profile.name
        );
    }
}

#[test]
fn torn_write_promotes_the_durable_prefix_of_an_open_batch() {
    // The full encoded tail reaches storage before the crash: every pending
    // commit's record is durable, so recovery replays them all and the
    // harness must promote their effects even though no ack went out.
    let (schedule, opts) = open_batch_crash(FaultKind::TornWrite {
        in_flight: 1,
        ops_each: 2,
        cut_permille: 1000,
    });
    for profile in SutProfile::all() {
        let r = run_with_schedule(&profile, 7, &schedule, &opts)
            .unwrap_or_else(|v| panic!("{}: {v}", profile.name));
        assert!(
            r.gc_promoted > 0,
            "{}: durable-but-unacked commits must be promoted",
            profile.name
        );
        assert_eq!(
            r.gc_dropped, 0,
            "{}: the whole batch was durable, nothing may vanish",
            profile.name
        );
    }
}

#[test]
fn acking_before_the_flush_is_caught_by_the_durability_oracle() {
    // Oracle self-test: a buggy engine that acknowledges commits the moment
    // they enqueue (before the batch flush) loses acked transactions when
    // the batch dies with the node — exactly what the durability oracle
    // exists to catch.
    let (schedule, clean_opts) = open_batch_crash(FaultKind::CrashAtLsn {
        in_flight: 1,
        ops_each: 2,
    });
    let profile = SutProfile::by_name("aws-rds").unwrap();
    assert!(
        run_with_schedule(&profile, 7, &schedule, &clean_opts).is_ok(),
        "sanity: deferred acks survive the same crash"
    );
    let bugged = ChaosOptions {
        bug_ack_unflushed: true,
        ..clean_opts
    };
    let v = run_with_schedule(&profile, 7, &schedule, &bugged)
        .expect_err("acked-then-lost commits must trip an oracle");
    assert_eq!(v.oracle, "durability", "{v}");
}

#[test]
fn si_campaign_stays_clean_on_all_profiles() {
    // PR 8 satellite: with snapshot isolation on, every write commit
    // publishes version chains stamped with its group-commit ack instant,
    // and after every transaction the snapshot-consistency oracle reads
    // each pending row at `now` — it must see the acknowledged image, not
    // the in-flight one, and see it identically twice. The recovery
    // oracles also keep running: a crash clears the (volatile) version
    // store and both recovery paths must still collapse to the committed
    // snapshot.
    use cb_engine::IsolationLevel;
    let seeds: Vec<u64> = (1..=4).collect();
    let opts = ChaosOptions {
        txns: 40,
        isolation: IsolationLevel::Snapshot,
        ..ChaosOptions::default()
    };
    for profile in SutProfile::all() {
        let report = run_campaign(&profile, &seeds, &opts);
        assert!(
            report.clean(),
            "{}: {}",
            profile.name,
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        for r in &report.reports {
            assert!(r.committed > 0, "seed {} committed nothing", r.seed);
        }
    }
}

#[test]
fn reading_a_pending_version_is_caught_by_the_snapshot_oracle() {
    // Oracle self-test: a buggy snapshot read that resolves to the tree's
    // latest image observes commits whose group-commit acks are still
    // pending — a future version. With a batch held open across the whole
    // run, the very first pending update must trip the oracle.
    use cb_engine::IsolationLevel;
    let (schedule, base) = open_batch_crash(FaultKind::CrashAtLsn {
        in_flight: 1,
        ops_each: 2,
    });
    let clean_opts = ChaosOptions {
        isolation: IsolationLevel::Snapshot,
        ..base
    };
    let profile = SutProfile::by_name("aws-rds").unwrap();
    assert!(
        run_with_schedule(&profile, 7, &schedule, &clean_opts).is_ok(),
        "sanity: chain-resolved snapshot reads survive the same schedule"
    );
    let bugged = ChaosOptions {
        bug_read_future_version: true,
        ..clean_opts
    };
    let v = run_with_schedule(&profile, 7, &schedule, &bugged)
        .expect_err("observing an unacked version must trip an oracle");
    assert_eq!(v.oracle, "snapshot-consistency", "{v}");
}

#[test]
fn scanning_a_pending_version_is_caught_by_the_snapshot_oracle() {
    // Oracle self-test for the range-scan branch: a buggy snapshot scan
    // that walks the tree's latest images (the pre-fix `scan_range`
    // behavior under SI — get_at was point-only) observes commits whose
    // group-commit acks are still pending. With a batch held open across
    // the whole run, the first pending write inside a scanned window must
    // trip the oracle.
    use cb_engine::IsolationLevel;
    let (schedule, base) = open_batch_crash(FaultKind::CrashAtLsn {
        in_flight: 1,
        ops_each: 2,
    });
    let clean_opts = ChaosOptions {
        isolation: IsolationLevel::Snapshot,
        ..base
    };
    let profile = SutProfile::by_name("aws-rds").unwrap();
    assert!(
        run_with_schedule(&profile, 7, &schedule, &clean_opts).is_ok(),
        "sanity: chain-resolved snapshot scans survive the same schedule"
    );
    let bugged = ChaosOptions {
        bug_scan_future_version: true,
        ..clean_opts
    };
    let v = run_with_schedule(&profile, 7, &schedule, &bugged)
        .expect_err("a scan observing an unacked version must trip an oracle");
    assert_eq!(v.oracle, "snapshot-consistency", "{v}");
    assert!(v.detail.contains("scan"), "{}", v.detail);
}

#[test]
fn si_campaign_is_deterministic_across_jobs() {
    // PR 8 satellite: the `--jobs 1` vs `--jobs 4` byte-identity guarantee
    // must survive snapshot isolation — version publication and the
    // snapshot oracle are per-seed state, so fanning seeds across threads
    // cannot reorder anything observable.
    use cb_chaos::run_campaign_jobs;
    use cb_engine::IsolationLevel;
    let profile = SutProfile::by_name("cdb3").unwrap();
    let seeds: Vec<u64> = (1..=4).collect();
    let opts = ChaosOptions {
        txns: 40,
        isolation: IsolationLevel::Snapshot,
        ..ChaosOptions::default()
    };
    let seq = run_campaign_jobs(&profile, &seeds, &opts, 1);
    let par = run_campaign_jobs(&profile, &seeds, &opts, 4);
    assert!(seq.clean() && par.clean());
    assert_eq!(seq.reports.len(), par.reports.len());
    for (a, b) in seq.reports.iter().zip(par.reports.iter()) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.committed, b.committed);
        assert_eq!(
            a.artifacts.as_ref().expect("artifacts on"),
            b.artifacts.as_ref().expect("artifacts on"),
            "seed {}: jobs=1 and jobs=4 must be byte-identical under SI",
            a.seed
        );
    }
}

#[test]
fn same_seed_reproduces_identical_artifacts() {
    let profile = SutProfile::by_name("cdb4").unwrap();
    let a = run_seed(&profile, 31337, &quick_opts()).expect("clean run");
    let b = run_seed(&profile, 31337, &quick_opts()).expect("clean run");
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.aborted, b.aborted);
    assert_eq!(a.crashes, b.crashes);
    assert_eq!(
        a.artifacts.expect("artifacts on"),
        b.artifacts.expect("artifacts on"),
        "same seed must produce byte-identical artifacts"
    );
}

#[test]
fn replaying_a_printed_seed_regenerates_the_schedule() {
    for seed in [0u64, 1, 17, 0xDEAD_BEEF] {
        let printed = FaultSchedule::generate(seed, 40).to_string();
        assert_eq!(FaultSchedule::generate(seed, 40).to_string(), printed);
    }
}

#[test]
fn poisson_paced_campaign_stays_clean_on_rds() {
    // Satellite: chaos faults injected into an *open-loop* arrival stream.
    // Poisson pacing stretches the run across wall-clock gaps, so crashes
    // and heartbeat silences land between transactions (idle primary, open
    // group-commit batches aging out) — timings the back-to-back loop never
    // produces. All oracles must stay clean, and pacing must not perturb
    // the fault schedule (it draws from a separate seed stream).
    let profile = SutProfile::aws_rds();
    let paced = ChaosOptions {
        txns: 40,
        arrival_rate: Some(120.0),
        ..ChaosOptions::default()
    };
    let seeds: Vec<u64> = (1..=4).collect();
    let report = run_campaign(&profile, &seeds, &paced);
    assert!(
        report.clean(),
        "paced campaign violations: {}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.reports.len(), seeds.len());
    for r in &report.reports {
        assert!(r.committed > 0, "seed {} committed nothing", r.seed);
    }
    // Pacing must actually engage: the same seed run back-to-back produces
    // a different (shorter) timeline, so the artifacts diverge.
    let unpaced = ChaosOptions {
        txns: 40,
        ..ChaosOptions::default()
    };
    let with = run_seed(&profile, seeds[0], &paced).expect("paced run clean");
    let without = run_seed(&profile, seeds[0], &unpaced).expect("unpaced run clean");
    assert_ne!(
        with.artifacts.expect("artifacts on").timeline,
        without.artifacts.expect("artifacts on").timeline,
        "poisson pacing should stretch the run timeline"
    );
}

#[test]
fn sharded_2pc_campaign_is_clean_over_100_seeds() {
    use cb_chaos::{run_shard2pc_campaign_jobs, Shard2pcOptions};
    // One profile keeps tier-1 growing by seconds; the CLI campaign and the
    // CI matrix cover all five.
    let profile = SutProfile::cdb2();
    let opts = Shard2pcOptions::default();
    let seeds: Vec<u64> = (1..=100).collect();
    let report = run_shard2pc_campaign_jobs(&profile, &seeds, &opts, 2);
    assert!(
        report.clean(),
        "sharded 2PC violations: {}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.clean_seeds, seeds);
    assert!(report.committed_2pc > 0);
    assert!(
        report.resolved_in_doubt > 0,
        "some crash must land after a commit decision"
    );
    // The votes were written by the production coordinator.
    assert!(report.two_phase.prepares > 0, "{:?}", report.two_phase);
    // The whole campaign report is --jobs invariant.
    let sequential = run_shard2pc_campaign_jobs(&profile, &seeds, &opts, 1);
    assert_eq!(sequential.clean_seeds, report.clean_seeds);
    assert_eq!(sequential.committed_2pc, report.committed_2pc);
    assert_eq!(sequential.resolved_in_doubt, report.resolved_in_doubt);
    assert_eq!(sequential.two_phase, report.two_phase);
}

#[test]
fn the_printed_replay_line_carries_the_options_the_violation_needs() {
    use cb_engine::IsolationLevel;
    let replay_line = |v: &cb_chaos::Violation| {
        let text = v.to_string();
        text.lines().last().expect("a replay line").to_string()
    };
    // Found under SI with a longer run: both flags travel with the seed.
    let (schedule, base) = open_batch_crash(FaultKind::CrashAtLsn {
        in_flight: 1,
        ops_each: 2,
    });
    let si = ChaosOptions {
        isolation: IsolationLevel::Snapshot,
        txns: 80,
        bug_read_future_version: true,
        ..base
    };
    let v = run_with_schedule(&SutProfile::aws_rds(), 7, &schedule, &si)
        .expect_err("observing an unacked version must trip an oracle");
    assert_eq!(
        replay_line(&v),
        "  replay: cloudybench chaos --profile aws-rds --replay 7 --isolation si --txns 80"
    );
    // A default run prints the bare line, plus the self-test flag that
    // planted the bug.
    let skip = ChaosOptions {
        bug_skip_redo: Some(0),
        ..ChaosOptions::default()
    };
    let v = (0..8)
        .find_map(|seed| run_seed(&SutProfile::cdb2(), seed, &skip).err())
        .expect("a skipped redo record is caught within eight seeds");
    assert_eq!(
        replay_line(&v),
        format!(
            "  replay: cloudybench chaos --profile cdb2 --replay {} --bug-skip-redo 0",
            v.seed
        )
    );
}
