//! Sharded two-phase-commit chaos: crash between prepare and decision.
//!
//! A self-contained mini-model of the sharded deployment's cross-shard
//! transfer path (`cloudybench::sharded`): every shard is a raw
//! [`cb_engine::Database`] holding the slice of a global account table that
//! a [`ShardMap`] routes to it, and a seeded stream of balance transfers
//! runs against the fleet — single-shard transfers commit locally,
//! cross-shard transfers two-phase commit (prepare on both participants,
//! decision logged at the coordinator, then commit/abort fan-out).
//!
//! One transfer per seed crashes mid-protocol at a seeded crash point:
//!
//! * **after prepares** — votes are durable on both shards, the coordinator
//!   never decided: presumed-abort must roll both back;
//! * **after decision** — the coordinator logged commit but told no one:
//!   resolution must roll both *forward*;
//! * **after first commit** — one participant applied the decision, the
//!   other is still in doubt: resolution must complete the half-finished
//!   global transaction, never undo it.
//!
//! Recovery then runs **both** real paths on every shard — rebuild from the
//! base snapshot through the net-effect planner
//! ([`redo_committed_parallel`]) and in-place ARIES undo
//! ([`undo_losers`]) — joining each shard's in-doubt votes
//! ([`in_doubt_txns`]) against the surviving decision log, and checks four
//! oracles:
//!
//! 1. **Path equivalence** — both recovery paths produce identical tables.
//! 2. **2PC atomicity** — the recovered fleet equals a shadow that applied
//!    exactly the decided-commit transfers: no shard half-committed.
//! 3. **Conservation** — transfers move balance, never mint it: the global
//!    sum is unchanged.
//! 4. **Determinism** — the same seed re-runs to a byte-identical digest.
//!
//! [`Shard2pcOptions::bug_forget_decision`] plants the classic coordinator
//! bug — the decision is acked but never made durable — as a self-test that
//! the atomicity oracle actually fires.

use std::collections::{BTreeSet, HashSet};

use cb_cluster::ShardMap;
use cb_engine::bufferpool::BufferPool;
use cb_engine::exec::{CostModel, ExecCtx};
use cb_engine::recovery::{in_doubt_txns, undo_losers};
use cb_engine::value::{ColumnDef, DataType, Row, Schema, Value};
use cb_engine::Database;
use cb_sim::{DetRng, Device, DeviceKind, SimDuration, SimTime};
use cb_store::{Lsn, StorageArch, StorageService, TxnId, WalRecord};
use cloudybench::parallel::par_map;
use cloudybench::replay::redo_committed_parallel;

/// Initial balance of every account row.
const OPENING_BALANCE: i64 = 1_000;

/// Knobs for a sharded-2PC campaign.
#[derive(Clone, Debug)]
pub struct Shard2pcOptions {
    /// Number of engine instances in the fleet.
    pub shards: usize,
    /// Global account keys (`1..=accounts`), routed to shards by the map.
    pub accounts: i64,
    /// Transfers per seed (one of them crashes mid-protocol).
    pub transfers: u64,
    /// Planted bug: the coordinator acks the commit decision without making
    /// it durable, so recovery resolves the in-doubt votes to abort while a
    /// participant may already hold the commit — the atomicity oracle's
    /// self-test.
    pub bug_forget_decision: bool,
}

impl Default for Shard2pcOptions {
    fn default() -> Self {
        Shard2pcOptions {
            shards: 3,
            accounts: 96,
            transfers: 40,
            bug_forget_decision: false,
        }
    }
}

/// A 2PC-oracle violation: which seed, which oracle, what diverged.
#[derive(Clone, Debug)]
pub struct ShardViolation {
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
            "seed {} [{}] {} oracle: {}",
            self.seed, self.map, self.oracle, self.detail
        )
    }
}

/// Results of a sharded-2PC campaign.
#[derive(Debug, Default)]
pub struct Shard2pcReport {
    /// Seeds that passed every oracle (under both shard layouts).
    pub clean_seeds: Vec<u64>,
    /// Oracle violations.
    pub violations: Vec<ShardViolation>,
    /// Cross-shard transfers two-phase committed across all clean seeds.
    pub committed_2pc: u64,
    /// In-doubt votes resolved during recovery across all clean seeds.
    pub resolved_in_doubt: u64,
}

impl Shard2pcReport {
    /// Whether the campaign found no violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run `seeds` through the sharded-2PC crash model on `jobs` threads. Each
/// seed runs under both a hash and a range layout, and each run executes
/// twice for the determinism oracle. Seeds are independent; results merge
/// in canonical seed order, so the report is identical for any `jobs`.
pub fn run_shard2pc_campaign_jobs(
    seeds: &[u64],
    opts: &Shard2pcOptions,
    jobs: usize,
) -> Shard2pcReport {
    let outcomes = par_map(seeds, jobs, |_, &seed| run_one(seed, opts));
    let mut report = Shard2pcReport::default();
    for (seed, outcome) in seeds.iter().zip(outcomes) {
        match outcome {
            Ok((committed, resolved)) => {
                report.clean_seeds.push(*seed);
                report.committed_2pc += committed;
                report.resolved_in_doubt += resolved;
            }
            Err(v) => report.violations.push(v),
        }
    }
    report
}

/// One seed under both layouts, each twice (determinism oracle).
fn run_one(seed: u64, opts: &Shard2pcOptions) -> Result<(u64, u64), ShardViolation> {
    let maps = [
        ShardMap::hash(opts.shards),
        ShardMap::range_even(opts.accounts, opts.shards),
    ];
    let mut committed = 0;
    let mut resolved = 0;
    for map in maps {
        let first = run_layout(seed, &map, opts)?;
        let second = run_layout(seed, &map, opts)?;
        if first.digest != second.digest {
            return Err(ShardViolation {
                seed,
                map: map.label(),
                oracle: "determinism",
                detail: format!(
                    "same seed, different digest:\n  {}\n  {}",
                    first.digest, second.digest
                ),
            });
        }
        committed += first.committed_2pc;
        resolved += first.resolved_in_doubt;
    }
    Ok((committed, resolved))
}

/// Where the crashing transfer dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrashPoint {
    /// Both votes durable, no decision taken.
    Prepared,
    /// Decision logged commit, no participant told.
    Decided,
    /// Decision logged commit, first participant committed.
    FirstCommitted,
}

/// One clean run's observable outcome.
struct LayoutRun {
    digest: String,
    committed_2pc: u64,
    resolved_in_doubt: u64,
}

fn storage() -> StorageService {
    StorageService::new(
        StorageArch::Coupled,
        Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
        Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
        None,
        1,
        SimDuration::ZERO,
    )
}

fn account_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("A_ID", DataType::Int),
        ColumnDef::new("A_BALANCE", DataType::Int),
    ])
}

/// A shard's base image: the account rows the map routes to `shard`.
fn shard_base(map: &ShardMap, accounts: i64, shard: usize) -> Database {
    let mut db = Database::new();
    let t = db.create_table("account", account_schema());
    db.load_bulk(
        t,
        (1..=accounts)
            .filter(|&k| map.shard_of(k) == shard)
            .map(|k| Row::new(vec![Value::Int(k), Value::Int(OPENING_BALANCE)])),
    );
    db
}

fn add_balance(
    db: &mut Database,
    ctx: &mut ExecCtx<'_>,
    txn: &mut cb_engine::TxnHandle,
    key: i64,
    delta: i64,
) {
    let t = db.table_id("account").expect("account table");
    db.update(ctx, txn, t, key, |r| {
        let old = match r.values[1] {
            Value::Int(v) => v,
            _ => unreachable!("A_BALANCE is Int"),
        };
        r.values[1] = Value::Int(old + delta);
    })
    .expect("account row exists on its home shard");
}

/// Run the transfer stream + crash + recovery once and check the state
/// oracles. Returns the run's digest for the determinism oracle.
fn run_layout(
    seed: u64,
    map: &ShardMap,
    opts: &Shard2pcOptions,
) -> Result<LayoutRun, ShardViolation> {
    let fail = |oracle: &'static str, detail: String| ShardViolation {
        seed,
        map: map.label(),
        oracle,
        detail,
    };
    let mut shards: Vec<Database> = (0..opts.shards)
        .map(|s| shard_base(map, opts.accounts, s))
        .collect();
    let mut pool = BufferPool::new(256);
    let mut st = storage();
    let model = CostModel::default();

    // The shadow fleet: balances as they must read after recovery — only
    // decided-commit transfers applied.
    let mut shadow: Vec<i64> = vec![OPENING_BALANCE; opts.accounts as usize + 1];
    let mut decision_log: BTreeSet<u64> = BTreeSet::new();

    let mut rng = DetRng::seeded(seed ^ 0x5348_4152_4432_5043); // "SHARD2PC"
    let crash_at = rng.below(opts.transfers);
    let crash_point = match rng.below(3) {
        0 => CrashPoint::Prepared,
        1 => CrashPoint::Decided,
        _ => CrashPoint::FirstCommitted,
    };
    let mut committed_2pc = 0u64;
    let mut crashed = false;

    for i in 0..opts.transfers {
        let gid = i + 1;
        let from = rng.range_inclusive(1, opts.accounts);
        let mut to = rng.range_inclusive(1, opts.accounts);
        if to == from {
            to = from % opts.accounts + 1;
        }
        let amount = rng.range_inclusive(1, 100);
        let commit = rng.chance(0.85);
        if i == crash_at && map.shard_of(to) == map.shard_of(from) {
            // The crashing transfer must straddle shards — pick the first
            // key owned elsewhere (deterministic, no extra RNG draws).
            to = (1..=opts.accounts)
                .find(|&k| map.shard_of(k) != map.shard_of(from))
                .expect("more than one shard owns keys");
        }
        let (sa, sb) = (map.shard_of(from), map.shard_of(to));
        let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut st, &model);

        if sa == sb {
            // Single-shard: an ordinary local transaction, no 2PC.
            let db = &mut shards[sa];
            let mut txn = db.begin();
            add_balance(db, &mut ctx, &mut txn, from, -amount);
            add_balance(db, &mut ctx, &mut txn, to, amount);
            if commit {
                db.commit(&mut ctx, txn);
                shadow[from as usize] -= amount;
                shadow[to as usize] += amount;
            } else {
                db.abort(&mut ctx, txn);
            }
            continue;
        }

        // Cross-shard: prepare a vote on each participant.
        let mut txn_a = shards[sa].begin();
        add_balance(&mut shards[sa], &mut ctx, &mut txn_a, from, -amount);
        shards[sa].prepare(&mut ctx, &mut txn_a, gid);
        let mut txn_b = shards[sb].begin();
        add_balance(&mut shards[sb], &mut ctx, &mut txn_b, to, amount);
        shards[sb].prepare(&mut ctx, &mut txn_b, gid);

        if i == crash_at {
            // The crashing transfer always decides commit (when it gets
            // that far) — abort-then-crash is indistinguishable from
            // presumed abort and tests nothing.
            match crash_point {
                CrashPoint::Prepared => {}
                CrashPoint::Decided | CrashPoint::FirstCommitted => {
                    if !opts.bug_forget_decision {
                        decision_log.insert(gid);
                    }
                    // Decision durable (acked): the shadow reflects it.
                    shadow[from as usize] -= amount;
                    shadow[to as usize] += amount;
                    if crash_point == CrashPoint::FirstCommitted {
                        shards[sa].commit(&mut ctx, txn_a);
                        std::mem::forget(txn_b);
                        crashed = true;
                        break;
                    }
                }
            }
            std::mem::forget(txn_a);
            std::mem::forget(txn_b);
            crashed = true;
            break;
        }

        // Normal completion: log the decision, then tell the participants.
        if commit {
            decision_log.insert(gid);
            shards[sa].commit(&mut ctx, txn_a);
            shards[sb].commit(&mut ctx, txn_b);
            shadow[from as usize] -= amount;
            shadow[to as usize] += amount;
            committed_2pc += 1;
        } else {
            shards[sa].abort(&mut ctx, txn_a);
            shards[sb].abort(&mut ctx, txn_b);
        }
    }
    debug_assert!(crashed, "crash_at < transfers");

    // --- Recovery: both paths per shard, joined with the decision log ----
    let mut resolved_in_doubt = 0u64;
    let mut recovered: Vec<Vec<Row>> = Vec::with_capacity(opts.shards);
    for (s, db) in shards.iter_mut().enumerate() {
        let tail: Vec<WalRecord> = db.log().records_after(Lsn::ZERO).cloned().collect();
        let refs: Vec<&WalRecord> = tail.iter().collect();
        let in_doubt = in_doubt_txns(refs.iter().copied());
        let resolved: HashSet<TxnId> = in_doubt
            .iter()
            .filter(|(_, gid)| decision_log.contains(gid))
            .map(|&(txn, _)| txn)
            .collect();
        resolved_in_doubt += resolved.len() as u64;

        // Path A: restore the base snapshot, roll forward through the
        // net-effect planner with the resolved commits joined in.
        let mut rebuilt = shard_base(map, opts.accounts, s);
        redo_committed_parallel(&mut rebuilt, &refs, &resolved, 1);

        // Path B: in-place ARIES undo of every unresolved loser.
        db.simulate_crash();
        undo_losers(db, &tail, tail.len(), &resolved);

        let t = db.table_id("account").expect("account table");
        let in_place = db.dump_table(t);
        let replayed = rebuilt.dump_table(rebuilt.table_id("account").unwrap());
        if in_place != replayed {
            return Err(fail(
                "path-equivalence",
                format!("shard {s}: in-place undo and rebuild disagree"),
            ));
        }
        recovered.push(replayed);
    }

    // --- 2PC atomicity: recovered fleet == shadow, no half-commits -------
    let mut total = 0i64;
    for (s, rows) in recovered.iter().enumerate() {
        for row in rows {
            let (key, bal) = match (&row.values[0], &row.values[1]) {
                (Value::Int(k), Value::Int(b)) => (*k, *b),
                _ => unreachable!("account rows are (Int, Int)"),
            };
            total += bal;
            let want = shadow[key as usize];
            if bal != want {
                return Err(fail(
                    "2pc-atomicity",
                    format!(
                        "shard {s} account {key}: balance {bal}, decided state says {want} \
                         (crash point {crash_point:?})"
                    ),
                ));
            }
        }
    }
    let opening_total = opts.accounts * OPENING_BALANCE;
    if total != opening_total {
        return Err(fail(
            "conservation",
            format!("global balance {total} != opening {opening_total}"),
        ));
    }

    // Digest: stable textual fingerprint of everything observable.
    let digest = format!(
        "seed={} map={} crash_at={} point={:?} committed_2pc={} resolved={} total={}",
        seed,
        map.label(),
        crash_at,
        crash_point,
        committed_2pc,
        resolved_in_doubt,
        total
    );
    Ok(LayoutRun {
        digest,
        committed_2pc,
        resolved_in_doubt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_clean_and_exercises_every_crash_point() {
        let opts = Shard2pcOptions::default();
        let seeds: Vec<u64> = (1..=24).collect();
        let report = run_shard2pc_campaign_jobs(&seeds, &opts, 1);
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
    }

    #[test]
    fn campaign_report_is_jobs_invariant() {
        let opts = Shard2pcOptions {
            transfers: 24,
            ..Shard2pcOptions::default()
        };
        let seeds: Vec<u64> = (100..108).collect();
        let a = run_shard2pc_campaign_jobs(&seeds, &opts, 1);
        let b = run_shard2pc_campaign_jobs(&seeds, &opts, 3);
        assert_eq!(a.clean_seeds, b.clean_seeds);
        assert_eq!(a.committed_2pc, b.committed_2pc);
        assert_eq!(a.resolved_in_doubt, b.resolved_in_doubt);
    }

    #[test]
    fn forgotten_decision_is_caught_by_the_atomicity_oracle() {
        let opts = Shard2pcOptions {
            bug_forget_decision: true,
            ..Shard2pcOptions::default()
        };
        let seeds: Vec<u64> = (1..=24).collect();
        let report = run_shard2pc_campaign_jobs(&seeds, &opts, 1);
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
