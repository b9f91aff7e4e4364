//! # cb-chaos — deterministic crash/chaos fuzz harness
//!
//! A seeded simulation fuzzer for the CloudyBench testbed: randomized T1–T4
//! transaction mixes run against every SUT profile while faults fire from a
//! schedule derived purely from the seed — crashes at random WAL positions,
//! crashes mid-checkpoint, torn log-tail writes, heartbeat loss with delayed
//! fail-over, replication-lag spikes, and autoscale thrash.
//!
//! After every crash the harness runs **both** real recovery paths (replay
//! the durable archive from the base snapshot, and in-place ARIES undo of
//! loser transactions) and checks four oracles:
//!
//! 1. **Recovery equivalence** — the recovered database equals an in-memory
//!    shadow model that replayed only acknowledged transactions.
//! 2. **Durability** — every acknowledged transaction survives the crash.
//! 3. **Atomicity** — no effect of an unfinished (loser) transaction is
//!    visible after recovery.
//! 4. **Determinism** — the same seed reproduces the identical fault
//!    schedule and byte-identical cb-obs artifacts (every seed runs twice).
//!
//! On violation the schedule is shrunk ([`shrink()`]) to a 1-minimal
//! reproducer and printed with its seed, so
//! `cloudybench chaos --replay <seed>` replays the exact failure.
//!
//! The `shard2pc` module extends the harness to sharded deployments: it
//! drives the production `cloudybench::sharded::TwoPhaseCoordinator` over
//! real per-shard `Deployment`s, stops stepping it after prepare, after the
//! decision is logged, or after the first participant is told, and checks
//! with the same [`ShadowModel`] that recovery leaves no shard
//! half-committed.

#![warn(missing_docs)]

mod harness;
mod schedule;
mod shadow;
mod shard2pc;
mod shrink;

pub use harness::{
    run_seed, run_with_schedule, Artifacts, ChaosBug, ChaosOptions, SeedReport, Violation,
};
pub use schedule::{FaultEvent, FaultKind, FaultSchedule};
pub use shadow::{ShadowDiff, ShadowModel};
pub use shard2pc::{run_shard2pc_campaign_jobs, Shard2pcOptions, Shard2pcReport, ShardViolation};
pub use shrink::shrink;

use cb_obs::first_divergence;
use cb_sut::SutProfile;

/// A violation together with its shrunk minimal reproducer.
#[derive(Clone, Debug)]
pub struct ShrunkViolation {
    /// The violation as first observed (full generated schedule).
    pub violation: Violation,
    /// The 1-minimal schedule that still reproduces it.
    pub minimal: FaultSchedule,
    /// The violation the minimal schedule produces.
    pub minimal_witness: Violation,
}

impl std::fmt::Display for ShrunkViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}\n  shrunk {} -> {} events: {}",
            self.violation,
            self.violation.schedule.events.len(),
            self.minimal.events.len(),
            self.minimal
        )
    }
}

/// Results of a multi-seed campaign against one profile.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Seeds that completed cleanly.
    pub reports: Vec<SeedReport>,
    /// Violations found, each with a shrunk reproducer.
    pub violations: Vec<ShrunkViolation>,
}

impl CampaignReport {
    /// Whether the campaign found no violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run `seeds` against `profile` sequentially. Every seed runs **twice**:
/// once for the state oracles and once more to check the determinism
/// oracle — the second run must produce byte-identical cb-obs artifacts.
/// Any violation is shrunk to a minimal reproducer before being reported.
pub fn run_campaign(profile: &SutProfile, seeds: &[u64], opts: &ChaosOptions) -> CampaignReport {
    run_campaign_jobs(profile, seeds, opts, 1)
}

/// [`run_campaign`] fanned across `jobs` worker threads. Seeds are fully
/// independent — each gets its own deployment, RNGs, and `ObsSink` — so
/// the only shared state is the work queue; results are merged back in
/// canonical seed order, making the report (and every artifact inside it)
/// byte-identical to a `jobs = 1` run.
pub fn run_campaign_jobs(
    profile: &SutProfile,
    seeds: &[u64],
    opts: &ChaosOptions,
    jobs: usize,
) -> CampaignReport {
    let outcomes =
        cloudybench::parallel::par_map(seeds, jobs, |_, &seed| run_one_seed(profile, seed, opts));
    let mut report = CampaignReport::default();
    for outcome in outcomes {
        match outcome {
            Ok(clean) => report.reports.push(clean),
            Err(shrunk) => report.violations.push(*shrunk),
        }
    }
    report
}

/// The full per-seed pipeline: state oracles, determinism oracle, and (on
/// violation) ddmin shrinking — everything that can run off-thread.
fn run_one_seed(
    profile: &SutProfile,
    seed: u64,
    opts: &ChaosOptions,
) -> Result<SeedReport, Box<ShrunkViolation>> {
    let schedule = FaultSchedule::generate(seed, opts.txns);
    match run_with_schedule(profile, seed, &schedule, opts) {
        Err(v) => {
            let (minimal, witness) = shrink(&schedule, v.clone(), |candidate| {
                run_with_schedule(profile, seed, candidate, opts).err()
            });
            Err(Box::new(ShrunkViolation {
                violation: v,
                minimal,
                minimal_witness: witness,
            }))
        }
        Ok(first) => {
            if let Some(v) = determinism_violation(profile, seed, &schedule, opts, &first) {
                let (minimal, witness) = shrink(&schedule, v.clone(), |candidate| {
                    match run_with_schedule(profile, seed, candidate, opts) {
                        Err(e) => Some(e),
                        Ok(run) => determinism_violation(profile, seed, candidate, opts, &run),
                    }
                });
                Err(Box::new(ShrunkViolation {
                    violation: v,
                    minimal,
                    minimal_witness: witness,
                }))
            } else {
                Ok(first)
            }
        }
    }
}

/// Re-run `schedule` and compare its artifacts byte-for-byte against
/// `first`'s. Returns the determinism violation on any divergence.
fn determinism_violation(
    profile: &SutProfile,
    seed: u64,
    schedule: &FaultSchedule,
    opts: &ChaosOptions,
    first: &SeedReport,
) -> Option<Violation> {
    let second = match run_with_schedule(profile, seed, schedule, opts) {
        Ok(r) => r,
        Err(v) => {
            return Some(Violation {
                oracle: "determinism",
                detail: format!(
                    "second run of the same schedule failed ({}: {}) where the first passed",
                    v.oracle, v.detail
                ),
                ..v
            })
        }
    };
    let (a, b) = (&first.artifacts, &second.artifacts);
    if a == b {
        return None;
    }
    let detail = [
        ("trace", &a.trace, &b.trace),
        ("hist_json", &a.hist_json, &b.hist_json),
        ("hist_csv", &a.hist_csv, &b.hist_csv),
        ("timeline", &a.timeline, &b.timeline),
    ]
    .into_iter()
    .find_map(|(name, x, y)| {
        first_divergence(x, y)
            .map(|(line, l, r)| format!("{name} diverges at line {line}: {l:?} vs {r:?}"))
    })
    .unwrap_or_else(|| "artifacts differ".to_string());
    Some(Violation::new(
        profile,
        seed,
        schedule,
        opts,
        "determinism",
        detail,
    ))
}
