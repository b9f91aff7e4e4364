//! Schedule shrinking: reduce a failing fault schedule to a minimal
//! reproducer.
//!
//! A delta-debugging loop over the explicit event list: first try dropping
//! whole events, then try halving each numeric parameter of each surviving
//! event (one field at a time), re-running the harness on every candidate
//! and keeping any that still fails. Iterates to a fixpoint, so the result
//! is 1-minimal — removing any single event or halving any single parameter
//! makes the violation disappear.
//!
//! The workload RNG stream is forked independently of the fault stream, so
//! deleting an event does not shift the transaction mix — candidates stay
//! comparable across shrink steps.

use crate::harness::Violation;
use crate::schedule::{FaultEvent, FaultKind, FaultSchedule};

/// Shrink `schedule` while `check` keeps failing. `check` returns
/// `Some(violation)` when a candidate still reproduces the failure.
///
/// The caller must have observed `check(schedule)` fail already; if the
/// initial check unexpectedly passes (a flaky, non-deterministic failure —
/// itself a bug this harness exists to catch), the original schedule is
/// returned unshrunk with the violation the caller saw.
pub fn shrink(
    schedule: &FaultSchedule,
    original: Violation,
    check: impl Fn(&FaultSchedule) -> Option<Violation>,
) -> (FaultSchedule, Violation) {
    let mut best = schedule.clone();
    let mut witness = match check(&best) {
        Some(v) => v,
        None => return (best, original),
    };
    loop {
        let mut progressed = false;
        // Pass 1: drop whole events.
        let mut i = 0;
        while i < best.events.len() {
            let mut candidate = best.clone();
            candidate.events.remove(i);
            if let Some(v) = check(&candidate) {
                best = candidate;
                witness = v;
                progressed = true;
                // Same index now names the next event; don't advance.
            } else {
                i += 1;
            }
        }
        // Pass 2: halve numeric parameters, one field at a time.
        let mut i = 0;
        while i < best.events.len() {
            let mut improved = false;
            for mutated in mutations(&best.events[i]) {
                let mut candidate = best.clone();
                candidate.events[i] = mutated;
                if let Some(v) = check(&candidate) {
                    best = candidate;
                    witness = v;
                    progressed = true;
                    improved = true;
                    break; // re-derive mutations from the new event
                }
            }
            if !improved {
                i += 1;
            }
        }
        if !progressed {
            return (best, witness);
        }
    }
}

/// Single-field reductions of one event: halve each numeric parameter
/// toward its minimum, and pull the event earlier in the run.
fn mutations(e: &FaultEvent) -> Vec<FaultEvent> {
    let mut out = Vec::new();
    let mut push = |kind: FaultKind| {
        if kind != e.kind {
            out.push(FaultEvent {
                at_txn: e.at_txn,
                kind,
            });
        }
    };
    match e.kind {
        FaultKind::CrashAtLsn {
            in_flight,
            ops_each,
        } => {
            push(FaultKind::CrashAtLsn {
                in_flight: half_min(in_flight, 1),
                ops_each,
            });
            push(FaultKind::CrashAtLsn {
                in_flight,
                ops_each: half_min(ops_each, 1),
            });
        }
        FaultKind::CrashMidCheckpoint {
            after_record,
            in_flight,
        } => {
            push(FaultKind::CrashMidCheckpoint {
                after_record,
                in_flight: half_min(in_flight, 0),
            });
        }
        FaultKind::TornWrite {
            in_flight,
            ops_each,
            cut_permille,
        } => {
            push(FaultKind::TornWrite {
                in_flight: half_min(in_flight, 1),
                ops_each,
                cut_permille,
            });
            push(FaultKind::TornWrite {
                in_flight,
                ops_each: half_min(ops_each, 1),
                cut_permille,
            });
            push(FaultKind::TornWrite {
                in_flight,
                ops_each,
                cut_permille: cut_permille / 2,
            });
        }
        FaultKind::HeartbeatLoss {
            silent_ms,
            in_flight,
        } => {
            push(FaultKind::HeartbeatLoss {
                silent_ms: half_min(silent_ms, 200),
                in_flight,
            });
            push(FaultKind::HeartbeatLoss {
                silent_ms,
                in_flight: half_min(in_flight, 0),
            });
        }
        FaultKind::LagSpike { burst } => {
            push(FaultKind::LagSpike {
                burst: half_min(burst, 1),
            });
        }
        FaultKind::AutoscaleThrash { cycles } => {
            push(FaultKind::AutoscaleThrash {
                cycles: half_min(cycles, 1),
            });
        }
    }
    // Pull the event earlier (less preceding workload).
    if e.at_txn > 3 {
        out.push(FaultEvent {
            at_txn: 3 + (e.at_txn - 3) / 2,
            kind: e.kind,
        });
    }
    out
}

fn half_min<T>(v: T, min: T) -> T
where
    T: Copy + Ord + std::ops::Div<Output = T> + From<u8>,
{
    (v / T::from(2)).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(events: Vec<FaultEvent>) -> FaultSchedule {
        FaultSchedule { seed: 1, events }
    }

    fn fake_violation() -> Violation {
        Violation {
            seed: 1,
            profile: "test".to_string(),
            oracle: "recovery-equivalence",
            detail: "synthetic".to_string(),
            schedule: sched(vec![]),
            replay_flags: "".into(),
        }
    }

    #[test]
    fn shrinks_to_the_single_guilty_event() {
        // The failure reproduces iff a TornWrite event is present.
        let s = sched(vec![
            FaultEvent {
                at_txn: 5,
                kind: FaultKind::LagSpike { burst: 30 },
            },
            FaultEvent {
                at_txn: 9,
                kind: FaultKind::TornWrite {
                    in_flight: 3,
                    ops_each: 4,
                    cut_permille: 900,
                },
            },
            FaultEvent {
                at_txn: 12,
                kind: FaultKind::AutoscaleThrash { cycles: 4 },
            },
        ]);
        let (minimal, _v) = shrink(&s, fake_violation(), |c| {
            c.events
                .iter()
                .any(|e| matches!(e.kind, FaultKind::TornWrite { .. }))
                .then(fake_violation)
        });
        assert_eq!(minimal.events.len(), 1);
        assert!(matches!(
            minimal.events[0].kind,
            FaultKind::TornWrite { .. }
        ));
        // Parameters were halved to their minima and the event pulled early.
        assert_eq!(
            minimal.events[0].kind,
            FaultKind::TornWrite {
                in_flight: 1,
                ops_each: 1,
                cut_permille: 0,
            }
        );
        assert_eq!(minimal.events[0].at_txn, 3);
    }

    #[test]
    fn result_is_one_minimal() {
        // Failure requires BOTH crash events; neither alone suffices.
        let s = sched(vec![
            FaultEvent {
                at_txn: 4,
                kind: FaultKind::CrashAtLsn {
                    in_flight: 2,
                    ops_each: 2,
                },
            },
            FaultEvent {
                at_txn: 8,
                kind: FaultKind::CrashAtLsn {
                    in_flight: 3,
                    ops_each: 1,
                },
            },
        ]);
        let (minimal, _v) = shrink(&s, fake_violation(), |c| {
            let crashes = c.events.iter().filter(|e| e.kind.is_crash()).count();
            (crashes >= 2).then(fake_violation)
        });
        assert_eq!(minimal.events.len(), 2, "both crashes are necessary");
    }

    #[test]
    fn flaky_failure_returns_the_original() {
        let s = sched(vec![FaultEvent {
            at_txn: 4,
            kind: FaultKind::LagSpike { burst: 8 },
        }]);
        let (minimal, v) = shrink(&s, fake_violation(), |_| None);
        assert_eq!(minimal, s);
        assert_eq!(v.detail, "synthetic");
    }
}
