//! # cb-load — open-loop arrival-driven load generation
//!
//! The closed-loop driver in `cb-core` walks a fixed population of client
//! state machines: each client issues its next transaction the instant the
//! previous one returns. That shape understates tail latency — when the
//! system stalls, the clients stall with it, and the stall never shows up as
//! queueing delay (the *coordinated omission* problem).
//!
//! `cb-load` inverts the loop: transaction **arrivals** are an event stream
//! generated independently of the system under test. Each arrival carries a
//! *scheduled* time; latency is measured from that scheduled instant to
//! completion, so time the operation spent waiting behind a stall is charged
//! to the operation. Because arrivals are generated lazily (one pending
//! arrival at a time), a plan that models a million logical clients costs the
//! same memory as one that models ten — idle clients simply do not exist on
//! the heap.
//!
//! The crate is deliberately independent of `cb-core`: it only knows about
//! virtual time and deterministic randomness (`cb-sim`). The driver-side
//! integration (`cloudybench::openloop`) owns transaction semantics.
//!
//! * [`ArrivalProcess`] — Poisson, bursty (Markov-modulated on/off),
//!   diurnal-sinusoid, and trace-replay arrival processes.
//! * [`ArrivalGen`] / [`PhasedArrivals`] — seeded, deterministic generators.
//! * [`PhasePlan`] — warmup → ramp-up → measurement windows.
//! * [`ArrivalPlan`] — everything the driver needs: mode + phases + the
//!   logical client population.
//! * [`Summary`] — multi-run statistical aggregation (mean/stddev/CV/95% CI).

#![warn(missing_docs)]

mod phases;
mod process;
mod stats;

pub use phases::PhasePlan;
pub use process::{ArrivalGen, ArrivalProcess, PhasedArrivals};
pub use stats::Summary;

/// How the load generator offers work to the system under test.
#[derive(Clone, Debug, PartialEq)]
pub enum TestMode {
    /// Open loop: arrivals follow the process regardless of completions.
    FixedRate(ArrivalProcess),
    /// Closed-loop-compatible: keep exactly `clients` operations in flight,
    /// issuing the next the instant one completes (max-throughput probe).
    MaxThroughput {
        /// Number of concurrently in-flight operations to sustain.
        clients: u32,
    },
}

/// A complete load plan: test mode, phase windows, and the logical client
/// population the arrivals are attributed to.
///
/// `logical_clients` does not size any data structure — arrivals are
/// generated lazily — it only partitions the key space and seeds per-arrival
/// RNG streams, so plans with 100k–1M clients are cheap.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalPlan {
    /// Fixed-rate open loop or max-throughput closed-compatible mode.
    pub mode: TestMode,
    /// Warmup → ramp-up → measurement windows.
    pub phases: PhasePlan,
    /// Size of the modelled client population (attribution only).
    pub logical_clients: u64,
}

impl ArrivalPlan {
    /// A fixed-rate open-loop plan with the given process and phases.
    pub fn fixed_rate(process: ArrivalProcess, phases: PhasePlan, logical_clients: u64) -> Self {
        ArrivalPlan {
            mode: TestMode::FixedRate(process),
            phases,
            logical_clients,
        }
    }

    /// A max-throughput plan holding `clients` operations in flight.
    pub fn max_throughput(clients: u32, phases: PhasePlan) -> Self {
        ArrivalPlan {
            mode: TestMode::MaxThroughput { clients },
            phases,
            logical_clients: clients as u64,
        }
    }

    /// Parse a CLI-style mode string: either an arrival-process spec
    /// (`poisson:5000/s`, `bursty:…`, `diurnal:…`, `trace:…`) or
    /// `maxtp:<clients>`.
    pub fn parse_mode(spec: &str) -> Result<TestMode, String> {
        if let Some(rest) = spec.strip_prefix("maxtp:") {
            let clients: u32 = rest
                .parse()
                .map_err(|_| format!("bad client count in {spec:?}"))?;
            if clients == 0 {
                return Err("maxtp needs at least one client".into());
            }
            Ok(TestMode::MaxThroughput { clients })
        } else {
            Ok(TestMode::FixedRate(ArrivalProcess::parse(spec)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_sim::SimDuration;

    #[test]
    fn parse_mode_dispatches() {
        assert_eq!(
            ArrivalPlan::parse_mode("maxtp:64").unwrap(),
            TestMode::MaxThroughput { clients: 64 }
        );
        match ArrivalPlan::parse_mode("poisson:100/s").unwrap() {
            TestMode::FixedRate(ArrivalProcess::Poisson { rate }) => {
                assert!((rate - 100.0).abs() < 1e-9)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(ArrivalPlan::parse_mode("maxtp:0").is_err());
        assert!(ArrivalPlan::parse_mode("maxtp:x").is_err());
    }

    #[test]
    fn plan_constructors() {
        let phases = PhasePlan::measure_only(SimDuration::from_secs(5));
        let p = ArrivalPlan::max_throughput(8, phases.clone());
        assert_eq!(p.logical_clients, 8);
        let q = ArrivalPlan::fixed_rate(ArrivalProcess::poisson(10.0), phases, 1000);
        assert_eq!(q.logical_clients, 1000);
    }
}
