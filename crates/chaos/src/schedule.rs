//! Seeded fault schedules.
//!
//! A schedule is a pure function of its seed: [`FaultSchedule::generate`]
//! derives every event from a forked [`DetRng`] stream, so printing a seed is
//! enough to reproduce the exact faults (and the shrinker can mutate the
//! event list explicitly when hunting a minimal reproducer).

use std::fmt;

use cb_sim::DetRng;

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash the RW primary at a random WAL position: `in_flight`
    /// transactions, `ops_each` DML records deep, are open (and lost) at the
    /// instant of the crash.
    CrashAtLsn {
        /// Transactions in flight (= losers) at the crash.
        in_flight: u8,
        /// DML records each in-flight transaction has appended.
        ops_each: u8,
    },
    /// Crash during a checkpoint: either after the dirty-page flush but
    /// before the checkpoint record lands (`after_record = false`), or after
    /// the record is durable but before log truncation runs.
    CrashMidCheckpoint {
        /// Whether the checkpoint record made it to durable storage.
        after_record: bool,
        /// Transactions in flight at the crash.
        in_flight: u8,
    },
    /// Crash with a torn log-tail write: only a byte prefix of the un-acked
    /// tail reaches durable storage; whole surviving frames are kept,
    /// everything after the first torn frame is lost.
    TornWrite {
        /// Transactions in flight at the crash.
        in_flight: u8,
        /// DML records each in-flight transaction has appended.
        ops_each: u8,
        /// How much of the encoded tail survives, in thousandths.
        cut_permille: u16,
    },
    /// Heartbeats stop but nothing else fails visibly: detection is delayed
    /// until the monitor declares the node dead (at least `silent_ms` of
    /// silence), then the crash is handled like [`FaultKind::CrashAtLsn`].
    HeartbeatLoss {
        /// Heartbeat silence before anyone reacts, in milliseconds.
        silent_ms: u32,
        /// Transactions in flight at the (late-discovered) crash.
        in_flight: u8,
    },
    /// A burst of rapid commits stresses the replication stream; the oracle
    /// checks replica visibility stays monotone and lag non-negative.
    LagSpike {
        /// Number of back-to-back commits shipped.
        burst: u16,
    },
    /// Rapid scale-down/scale-up cycles on the primary plus pause/resume on
    /// the replica; the oracle checks the replica becomes available again.
    AutoscaleThrash {
        /// Down/up cycles to run.
        cycles: u8,
    },
}

impl FaultKind {
    /// Whether this fault crashes the primary (and therefore runs recovery).
    pub fn is_crash(&self) -> bool {
        matches!(
            self,
            FaultKind::CrashAtLsn { .. }
                | FaultKind::CrashMidCheckpoint { .. }
                | FaultKind::TornWrite { .. }
                | FaultKind::HeartbeatLoss { .. }
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::CrashAtLsn {
                in_flight,
                ops_each,
            } => {
                write!(f, "crash(if={in_flight},ops={ops_each})")
            }
            FaultKind::CrashMidCheckpoint {
                after_record,
                in_flight,
            } => {
                let phase = if *after_record {
                    "post-record"
                } else {
                    "pre-record"
                };
                write!(f, "ckpt-crash({phase},if={in_flight})")
            }
            FaultKind::TornWrite {
                in_flight,
                ops_each,
                cut_permille,
            } => write!(f, "torn(if={in_flight},ops={ops_each},cut={cut_permille}‰)"),
            FaultKind::HeartbeatLoss {
                silent_ms,
                in_flight,
            } => write!(f, "hb-loss({silent_ms}ms,if={in_flight})"),
            FaultKind::LagSpike { burst } => write!(f, "lag-spike(burst={burst})"),
            FaultKind::AutoscaleThrash { cycles } => write!(f, "thrash(x{cycles})"),
        }
    }
}

/// One scheduled fault: fires just before workload transaction `at_txn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Workload transaction index the fault precedes.
    pub at_txn: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}:{}", self.at_txn, self.kind)
    }
}

/// A seeded fault schedule over a workload horizon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The seed the schedule was generated from.
    pub seed: u64,
    /// Events sorted by `at_txn` (ties fire in list order).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Derive the schedule for `seed` over `horizon_txns` workload
    /// transactions. Pure: the same inputs always yield the same schedule.
    pub fn generate(seed: u64, horizon_txns: u64) -> Self {
        let mut rng = DetRng::seeded(seed).fork(0xFA01);
        let horizon = horizon_txns.max(1);
        let n = 1 + rng.below(4); // 1..=4 events per seed
        let mut events = Vec::with_capacity(n as usize);
        for _ in 0..n {
            // Skip the first few transactions so every crash has committed
            // work to protect.
            let at_txn = 3 + rng.below(horizon.saturating_sub(3).max(1));
            let kind = match rng.below(6) {
                0 => FaultKind::CrashAtLsn {
                    in_flight: 1 + rng.below(3) as u8,
                    ops_each: 1 + rng.below(3) as u8,
                },
                1 => FaultKind::CrashMidCheckpoint {
                    after_record: rng.chance(0.5),
                    in_flight: rng.below(3) as u8,
                },
                2 => FaultKind::TornWrite {
                    in_flight: 1 + rng.below(3) as u8,
                    ops_each: 1 + rng.below(4) as u8,
                    cut_permille: rng.below(1001) as u16,
                },
                3 => FaultKind::HeartbeatLoss {
                    silent_ms: 200 + rng.below(8_000) as u32,
                    in_flight: rng.below(3) as u8,
                },
                4 => FaultKind::LagSpike {
                    burst: 4 + rng.below(60) as u16,
                },
                _ => FaultKind::AutoscaleThrash {
                    cycles: 1 + rng.below(4) as u8,
                },
            };
            events.push(FaultEvent { at_txn, kind });
        }
        events.sort_by_key(|e| e.at_txn);
        FaultSchedule { seed, events }
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={} [", self.seed)?;
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            let a = FaultSchedule::generate(seed, 60);
            let b = FaultSchedule::generate(seed, 60);
            assert_eq!(a, b);
            assert!(!a.events.is_empty() && a.events.len() <= 4);
            for w in a.events.windows(2) {
                assert!(w[0].at_txn <= w[1].at_txn);
            }
            for e in &a.events {
                assert!(e.at_txn >= 3 && e.at_txn < 63);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let distinct: std::collections::HashSet<String> = (0..20)
            .map(|s| FaultSchedule::generate(s, 60).to_string())
            .collect();
        assert!(distinct.len() > 15, "schedules should vary across seeds");
    }

    #[test]
    fn display_is_compact_and_round_readable() {
        let s = FaultSchedule {
            seed: 7,
            events: vec![
                FaultEvent {
                    at_txn: 5,
                    kind: FaultKind::TornWrite {
                        in_flight: 2,
                        ops_each: 3,
                        cut_permille: 512,
                    },
                },
                FaultEvent {
                    at_txn: 9,
                    kind: FaultKind::LagSpike { burst: 12 },
                },
            ],
        };
        assert_eq!(
            s.to_string(),
            "seed=7 [t5:torn(if=2,ops=3,cut=512‰), t9:lag-spike(burst=12)]"
        );
    }
}
