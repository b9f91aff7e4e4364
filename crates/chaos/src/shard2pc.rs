//! Sharded two-phase-commit chaos: crash the production coordinator between
//! the steps of the protocol.
//!
//! The campaign drives [`cloudybench::sharded::TwoPhaseCoordinator`] — the
//! coordinator `mode = sharded` and `run_fleet` ship — over a
//! [`ShardedDeployment`] of real [`cloudybench::Deployment`]s, under a hash
//! and a `range_even` map over the dataset keyspace (the maps the CLI's
//! sharded mode builds). A seeded stream of order→customer transfers goes
//! through `begin_transfer` / `decide`; nothing here knows how a vote, a
//! decision or a delivery is made.
//!
//! One transfer per seed crashes mid-protocol: the harness stops stepping
//! the coordinator's public step API and drops the `PreparedGlobal`
//!
//! * **after prepare** — votes are durable on both shards, no decision was
//!   taken: presumed abort must roll both back;
//! * **after `record_decision`** — commit is logged but nobody was told:
//!   resolution must roll both *forward*;
//! * **after the first `deliver_next`** — one participant applied the
//!   decision, the other is still in doubt: resolution must complete the
//!   half-finished global transaction, never undo it.
//!
//! Recovery then runs per shard as production would: `in_doubt_txns` over
//! the shard's WAL, `coord.resolve` against the surviving decision log, and
//! **both** real paths — rebuild from a copy of the shard's database as
//! loaded through the net-effect planner ([`redo_net_effects`]) and
//! in-place ARIES undo ([`undo_losers`]). Four oracles:
//!
//! 1. **Path equivalence** — both recovery paths produce identical tables.
//! 2. **2PC atomicity** — every shard equals its [`ShadowModel`], which
//!    holds the rows of exactly the decided-commit transfers (read back
//!    once the decision is recorded): no shard half-committed.
//! 3. **Conservation** — independent of read-back rows: Σ `C_CREDIT` over
//!    the recovered fleet = Σ over the base + Σ amounts of decided-commit
//!    transfers.
//! 4. **Determinism** — the same seed re-runs to a byte-identical digest.
//!
//! [`Shard2pcOptions::bug_forget_decision`] is the self-test that the
//! atomicity oracle fires: recovery resolves against
//! `TwoPhaseCoordinator::new()` — a coordinator that lost its decision log
//! — so production carries no test hook.

use cb_engine::recovery::{in_doubt_txns, redo_net_effects, undo_losers};
use cb_engine::Database;
use cb_sim::{DetRng, SimDuration, SimTime};
use cb_store::{Lsn, TableId, WalRecord};
use cb_sut::SutProfile;
use cloudybench::parallel::par_map;
use cloudybench::sharded::{ShardMap, ShardedDeployment, TwoPhaseCoordinator, TwoPhaseStats};
use cloudybench::DatasetShape;

use crate::shadow::{ShadowModel, ShadowOp};

/// Simulation scale of every shard: 100 customers, 100 orders and 1000
/// orderlines per engine — enough keys for both layouts to straddle, small
/// enough that a seed (two layouts, each run twice) costs milliseconds.
const SIM_SCALE: u64 = 3000;

/// Knobs for a sharded-2PC campaign.
#[derive(Clone, Debug)]
pub struct Shard2pcOptions {
    /// Number of deployments in the fleet (at least 2).
    pub shards: usize,
    /// Transfers per seed (one of them crashes mid-protocol).
    pub transfers: u64,
    /// Self-test: recovery resolves in-doubt votes against a coordinator
    /// that lost its decision log, so a decided commit rolls back on the
    /// participants still in doubt — the atomicity oracle must fire.
    pub bug_forget_decision: bool,
}

impl Default for Shard2pcOptions {
    fn default() -> Self {
        Shard2pcOptions {
            shards: 3,
            transfers: 40,
            bug_forget_decision: false,
        }
    }
}

/// A 2PC-oracle violation: which profile and seed, which oracle, what
/// diverged.
#[derive(Clone, Debug)]
pub struct ShardViolation {
    /// The SUT profile under test.
    pub profile: &'static str,
    /// The campaign seed that produced the violation.
    pub seed: u64,
    /// Shard layout under test (`hash3`, `range3`).
    pub map: String,
    /// Which oracle fired.
    pub oracle: &'static str,
    /// Human-readable divergence.
    pub detail: String,
}

impl std::fmt::Display for ShardViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} seed {} [{}] {} oracle: {}",
            self.profile, self.seed, self.map, self.oracle, self.detail
        )
    }
}

/// Results of a sharded-2PC campaign against one profile.
#[derive(Debug, Default)]
pub struct Shard2pcReport {
    /// Seeds that passed every oracle (under both shard layouts).
    pub clean_seeds: Vec<u64>,
    /// Oracle violations.
    pub violations: Vec<ShardViolation>,
    /// The production coordinator's own counters, summed over clean seeds.
    pub two_phase: TwoPhaseStats,
    /// Cross-shard transfers whose commit decision was logged, from the
    /// coordinator's counters (`committed - single_shard`).
    pub committed_2pc: u64,
    /// In-doubt votes resolved to commit during recovery.
    pub resolved_in_doubt: u64,
    /// Crashes per crash point: after prepare, after the decision, after
    /// the first delivery.
    pub crash_points: [u64; 3],
}

impl Shard2pcReport {
    /// Whether the campaign found no violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run `seeds` through the sharded-2PC crash campaign against `profile` on
/// `jobs` threads. Each seed runs under both a hash and a range layout, and
/// each run executes twice for the determinism oracle. Seeds are
/// independent; results merge in canonical seed order, so the report is
/// identical for any `jobs`.
pub fn run_shard2pc_campaign_jobs(
    profile: &SutProfile,
    seeds: &[u64],
    opts: &Shard2pcOptions,
    jobs: usize,
) -> Shard2pcReport {
    let outcomes = par_map(seeds, jobs, |_, &seed| run_one(profile, seed, opts));
    let mut report = Shard2pcReport::default();
    for (seed, outcome) in seeds.iter().zip(outcomes) {
        match outcome {
            Ok(runs) => {
                report.clean_seeds.push(*seed);
                for run in runs {
                    report.two_phase += run.stats;
                    report.resolved_in_doubt += run.resolved_in_doubt;
                    report.crash_points[run.crash_point as usize] += 1;
                }
            }
            Err(v) => report.violations.push(v),
        }
    }
    report.committed_2pc = report.two_phase.committed - report.two_phase.single_shard;
    report
}

/// One seed under both layouts, each twice (determinism oracle).
fn run_one(
    profile: &SutProfile,
    seed: u64,
    opts: &Shard2pcOptions,
) -> Result<[LayoutRun; 2], ShardViolation> {
    let shape = DatasetShape::new(1, SIM_SCALE);
    let keyspace = shape.orders.min(shape.customers) as i64;
    let layout = |map: ShardMap| {
        let first = run_layout(profile, seed, &map, opts)?;
        let second = run_layout(profile, seed, &map, opts)?;
        if first.digest != second.digest {
            return Err(ShardViolation {
                profile: profile.name,
                seed,
                map: map.label(),
                oracle: "determinism",
                detail: format!(
                    "same seed, different digest:\n  {}\n  {}",
                    first.digest, second.digest
                ),
            });
        }
        Ok(first)
    };
    Ok([
        layout(ShardMap::hash(opts.shards))?,
        layout(ShardMap::range_even(keyspace, opts.shards))?,
    ])
}

/// Where the crashing transfer dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrashPoint {
    /// Both votes durable, no decision taken.
    Prepared,
    /// Decision logged commit, no participant told.
    Decided,
    /// Decision logged commit, first participant told.
    FirstCommitted,
}

/// One clean run's observable outcome.
struct LayoutRun {
    digest: String,
    stats: TwoPhaseStats,
    resolved_in_doubt: u64,
    crash_point: CrashPoint,
}

/// Σ `C_CREDIT` over one engine's CUSTOMER table.
fn credit_sum(db: &Database, customer: TableId) -> i64 {
    let col = db
        .table(customer)
        .schema()
        .column_index("C_CREDIT")
        .expect("CUSTOMER has C_CREDIT");
    let mut sum = 0i64;
    db.for_each_row(customer, |_, row| sum += row.int(col));
    sum
}

/// Run the transfer stream + crash + recovery once and check the state
/// oracles. Returns the run's digest for the determinism oracle.
fn run_layout(
    profile: &SutProfile,
    seed: u64,
    map: &ShardMap,
    opts: &Shard2pcOptions,
) -> Result<LayoutRun, ShardViolation> {
    let fail = |oracle: &'static str, detail: String| ShardViolation {
        profile: profile.name,
        seed,
        map: map.label(),
        oracle,
        detail,
    };
    let mut sd = ShardedDeployment::new(profile.clone(), 1, SIM_SCALE, map.clone(), seed);
    let mut coord = TwoPhaseCoordinator::new();
    let tables = sd.shards[0].tables;
    let (orders, customers) = (
        sd.shards[0].shape.orders as i64,
        sd.shards[0].shape.customers as i64,
    );

    // The expected fleet: per shard, the rows as they must read after
    // recovery — only decided-commit transfers mirrored in.
    let mut shadows: Vec<ShadowModel> = sd
        .shards
        .iter()
        .map(|dep| ShadowModel::from_db(&dep.db))
        .collect();
    // Each shard's backup, taken before the first transfer: what path A
    // restores.
    let bases: Vec<Database> = sd.shards.iter().map(|dep| dep.db.clone()).collect();
    let base_credit: i64 = sd
        .shards
        .iter()
        .map(|dep| credit_sum(&dep.db, tables.customer))
        .sum();
    let mut decided_credit = 0i64;
    // A decision is on record for this transfer: copy the two rows it
    // wrote (the engines hold the post-images from execute on) into the
    // shadows, and count its amount.
    let mut mirror = |sd: &ShardedDeployment, from_order: i64, to_customer: i64, amount: i64| {
        for (table, key) in [(tables.orders, from_order), (tables.customer, to_customer)] {
            let s = sd.shard_of(key);
            let row = sd.shards[s]
                .db
                .get_at(table, key, SimTime::ZERO)
                .expect("transfer rows exist on their home shard");
            shadows[s].apply(ShadowOp::Put(table, key, row.encode()));
        }
        decided_credit += amount;
    };

    let mut rng = DetRng::seeded(seed ^ 0x5348_4152_4432_5043); // "SHARD2PC"
    let crash_at = rng.below(opts.transfers);
    let crash_point = match rng.below(3) {
        0 => CrashPoint::Prepared,
        1 => CrashPoint::Decided,
        _ => CrashPoint::FirstCommitted,
    };

    let mut draw = |i: u64| {
        (
            SimTime::ZERO + SimDuration::from_millis(5 * (i + 1)),
            rng.range_inclusive(1, orders),
            rng.range_inclusive(1, customers),
            rng.range_inclusive(1, 10_000),
            rng.chance(0.85),
        )
    };
    for i in 0..crash_at {
        let (at, from_order, to_customer, amount, commit) = draw(i);
        let committed = match coord.begin_transfer(&mut sd, from_order, to_customer, amount, at) {
            Some(p) => {
                coord.decide(&mut sd, p, commit, at);
                commit
            }
            // Both keys on one shard: committed on the spot, no votes.
            None => true,
        };
        if committed {
            mirror(&sd, from_order, to_customer, amount);
        }
    }
    // The crashing transfer. It must straddle shards — pick the first
    // customer owned elsewhere (deterministic, no extra RNG draws) — and it
    // always decides commit when it gets that far: abort-then-crash is
    // indistinguishable from presumed abort and tests nothing.
    let (at, from_order, mut to_customer, amount, _) = draw(crash_at);
    if sd.shard_of(to_customer) == sd.shard_of(from_order) {
        to_customer = (1..=customers)
            .find(|&k| sd.shard_of(k) != sd.shard_of(from_order))
            .expect("more than one shard owns keys");
    }
    let mut p = coord
        .begin_transfer(&mut sd, from_order, to_customer, amount, at)
        .expect("the crashing transfer is cross-shard");
    if crash_point != CrashPoint::Prepared {
        coord.record_decision(&mut p, true);
        mirror(&sd, from_order, to_customer, amount);
    }
    if crash_point == CrashPoint::FirstCommitted {
        coord.deliver_next(&mut sd, &mut p, at);
    }
    // The coordinator process dies here: whoever was not told keeps a
    // durable vote and no decision record.
    drop(p);

    // --- Recovery: both paths per shard, joined with the decision log ----
    let stats = coord.stats;
    if opts.bug_forget_decision {
        coord = TwoPhaseCoordinator::new();
    }
    let mut resolved_in_doubt = 0u64;
    let mut credit = 0i64;
    for (s, (dep, mut rebuilt)) in sd.shards.iter_mut().zip(bases).enumerate() {
        let tail: Vec<WalRecord> = dep.db.log().records_after(Lsn::ZERO).cloned().collect();
        let refs: Vec<&WalRecord> = tail.iter().collect();
        let resolved = coord.resolve(&in_doubt_txns(&tail));
        resolved_in_doubt += resolved.len() as u64;

        // Path A: restore the base snapshot, roll forward through the
        // net-effect planner with the resolved commits joined in.
        redo_net_effects(&mut rebuilt, &refs, &resolved);

        // Path B: in-place ARIES undo of every unresolved loser.
        dep.db.simulate_crash();
        undo_losers(&mut dep.db, &tail, tail.len(), &resolved);

        for t in rebuilt.tables() {
            if dep.db.dump_table(t.id()) != rebuilt.dump_table(t.id()) {
                return Err(fail(
                    "path-equivalence",
                    format!(
                        "shard {s}: in-place undo and rebuild disagree on {}",
                        t.name()
                    ),
                ));
            }
        }
        // 2PC atomicity: recovered shard == shadow, no half-commits.
        let diff = shadows[s].diff(&rebuilt);
        if !diff.is_empty() {
            return Err(fail(
                "2pc-atomicity",
                format!(
                    "shard {s} diverged from the decided state: {} (crash point {crash_point:?})",
                    diff.summary()
                ),
            ));
        }
        credit += credit_sum(&rebuilt, tables.customer);
    }
    if credit != base_credit + decided_credit {
        return Err(fail(
            "conservation",
            format!(
                "fleet C_CREDIT {credit} != base {base_credit} + decided transfers {decided_credit}"
            ),
        ));
    }

    // Digest: stable textual fingerprint of everything observable.
    let digest = format!(
        "seed={} map={} crash_at={} point={:?} stats={:?} resolved={} credit={}",
        seed,
        map.label(),
        crash_at,
        crash_point,
        stats,
        resolved_in_doubt,
        credit
    );
    Ok(LayoutRun {
        digest,
        stats,
        resolved_in_doubt,
        crash_point,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_clean_and_exercises_every_crash_point() {
        let opts = Shard2pcOptions::default();
        let seeds: Vec<u64> = (1..=24).collect();
        let report = run_shard2pc_campaign_jobs(&SutProfile::aws_rds(), &seeds, &opts, 1);
        for v in &report.violations {
            eprintln!("{v}");
        }
        assert!(report.clean());
        assert_eq!(report.clean_seeds, seeds);
        assert!(report.committed_2pc > 0, "no cross-shard commits exercised");
        assert!(
            report.resolved_in_doubt > 0,
            "no crash landed after a commit decision"
        );
        // The campaign reaches production code: these are the shipped
        // coordinator's own counters.
        assert!(report.two_phase.prepares > 0, "{:?}", report.two_phase);
        assert!(
            report.crash_points.iter().all(|&n| n > 0),
            "crash points hit: {:?}",
            report.crash_points
        );
        assert_eq!(report.crash_points.iter().sum::<u64>(), 2 * 24);
    }

    #[test]
    fn campaign_report_is_jobs_invariant() {
        let opts = Shard2pcOptions {
            transfers: 24,
            ..Shard2pcOptions::default()
        };
        let seeds: Vec<u64> = (100..108).collect();
        let a = run_shard2pc_campaign_jobs(&SutProfile::cdb3(), &seeds, &opts, 1);
        let b = run_shard2pc_campaign_jobs(&SutProfile::cdb3(), &seeds, &opts, 3);
        assert_eq!(a.clean_seeds, b.clean_seeds);
        assert_eq!(a.committed_2pc, b.committed_2pc);
        assert_eq!(a.resolved_in_doubt, b.resolved_in_doubt);
        assert_eq!(a.two_phase, b.two_phase);
    }

    #[test]
    fn forgotten_decision_is_caught_by_the_atomicity_oracle() {
        let opts = Shard2pcOptions {
            bug_forget_decision: true,
            ..Shard2pcOptions::default()
        };
        let seeds: Vec<u64> = (1..=24).collect();
        let report = run_shard2pc_campaign_jobs(&SutProfile::cdb1(), &seeds, &opts, 1);
        assert!(
            !report.violations.is_empty(),
            "acked-but-volatile decisions must violate 2PC atomicity"
        );
        assert!(report
            .violations
            .iter()
            .all(|v| v.oracle == "2pc-atomicity"));
    }
}
