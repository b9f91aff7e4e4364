//! Integration: MVCC snapshot isolation across the engine, driver, and
//! recovery layers — version chains under a live workload, crash-mid-txn
//! collapse-to-latest on every SUT profile, and the virtual-time read-p99
//! win of snapshot reads over a blocking single-version baseline.

use std::collections::HashSet;

use cb_engine::exec::RemoteTier;
use cb_engine::recovery::{redo_net_effects, undo_losers};
use cb_engine::{
    ColumnDef, DataType, Database, ExecCtx, IsolationLevel, LockTable, Row, Schema, Value,
};
use cb_sim::{DetRng, SimDuration, SimTime};
use cb_store::{Lsn, WalRecord};
use cb_sut::SutProfile;
use cloudybench::driver::VcoreControl;
use cloudybench::{
    run, AccessDistribution, Deployment, KeyPartition, RunOptions, TenantSpec, TxnMix,
};

/// A hot-write SI run on `profile`, crashed with a multi-statement
/// transaction in flight: both recovery paths must collapse the version
/// chains to exactly the committed snapshot.
fn crash_mid_txn_collapses(profile: SutProfile) {
    let seed = 2026;
    let mut dep = Deployment::new(profile, 1, 3000, 0, seed);
    let spec = TenantSpec::constant(
        12,
        SimDuration::from_secs(4),
        TxnMix::read_write(),
        AccessDistribution::Latest(8),
        KeyPartition::whole(dep.shape.orders, dep.shape.customers),
    );
    let opts = RunOptions {
        seed,
        isolation: Some(IsolationLevel::Snapshot),
        vcores: VcoreControl::Fixed,
        ..RunOptions::default()
    };
    let r = run(&mut dep, &[spec], &opts);
    let name = dep.profile.name;
    assert!(r.tenants[0].committed > 100, "{name}: workload ran");
    assert!(
        dep.db.versions().max_chain() >= 2,
        "{name}: hot writes under Latest(8) must stack version chains (max {})",
        dep.db.versions().max_chain()
    );

    // A key whose chain still resolves an old image: the snapshot at the
    // epoch differs from the tree's latest.
    let t_orders = dep.tables.orders;
    let chained = (1..=dep.shape.orders as i64).find(|&k| {
        dep.db.get_at(t_orders, k, SimTime::ZERO) != dep.db.get_at(t_orders, k, SimTime::MAX)
    });
    assert!(
        chained.is_some(),
        "{name}: some order must carry a live chain"
    );

    // The committed snapshot, and the full WAL, captured before the crash.
    let tables: Vec<_> = ["customer", "orders", "orderline"]
        .iter()
        .map(|n| dep.db.table_id(n).expect(n))
        .collect();
    let committed_dumps: Vec<_> = tables.iter().map(|&t| dep.db.dump_table(t)).collect();
    let tail: Vec<WalRecord> = dep.db.log().records_after(Lsn::ZERO).cloned().collect();

    // Crash mid-transaction: several hot-row statements in flight, the
    // process dies before commit.
    let horizon = r.horizon;
    {
        let remote = dep.remote_pool.as_mut().map(|pool| RemoteTier { pool });
        let mut ctx = ExecCtx::new(
            horizon,
            &mut dep.nodes[0].pool,
            remote,
            &mut dep.storage,
            &dep.profile.cost_model,
        );
        let db = &mut dep.db;
        let mut txn = db.begin();
        for k in 1..=4i64 {
            db.update(&mut ctx, &mut txn, t_orders, k, |row| {
                row.values[2] = Value::Text("LOST".to_string());
            })
            .expect("orders schema is stable");
        }
        std::mem::forget(txn);
    }
    let full_tail: Vec<WalRecord> = dep.db.log().records_after(Lsn::ZERO).cloned().collect();
    assert!(
        full_tail.len() > tail.len(),
        "{name}: loser reached the WAL"
    );

    // Replay path: base snapshot + committed redo. The loser never
    // committed, so the replayed image is exactly the pre-crash snapshot.
    let mut replayed = dep.base_database();
    let refs: Vec<&WalRecord> = full_tail.iter().collect();
    redo_net_effects(&mut replayed, &refs, &HashSet::new());
    for (i, &t) in tables.iter().enumerate() {
        assert_eq!(
            replayed.dump_table(t),
            committed_dumps[i],
            "{name}: replay must reproduce the committed snapshot"
        );
    }

    // In-place path: the crash clears the (volatile) version store, then
    // ARIES undo rolls the loser back.
    dep.db.simulate_crash();
    assert_eq!(dep.db.versions().tracked_rows(), 0, "{name}: chains died");
    undo_losers(&mut dep.db, &full_tail, full_tail.len(), &HashSet::new());
    for (i, &t) in tables.iter().enumerate() {
        assert_eq!(
            dep.db.dump_table(t),
            committed_dumps[i],
            "{name}: in-place undo must reproduce the committed snapshot"
        );
    }
    // Collapse-to-latest: with the chains gone, a snapshot at any instant
    // resolves to the tree — including the key that had a live chain.
    let k = chained.unwrap();
    assert_eq!(
        dep.db.get_at(t_orders, k, SimTime::ZERO),
        dep.db.get_at(t_orders, k, SimTime::MAX),
        "{name}: recovered chains must collapse to latest"
    );
}

#[test]
fn crash_mid_txn_collapses_on_aws_rds() {
    crash_mid_txn_collapses(SutProfile::aws_rds());
}

#[test]
fn crash_mid_txn_collapses_on_cdb1() {
    crash_mid_txn_collapses(SutProfile::by_name("cdb1").unwrap());
}

#[test]
fn crash_mid_txn_collapses_on_cdb2() {
    crash_mid_txn_collapses(SutProfile::by_name("cdb2").unwrap());
}

#[test]
fn crash_mid_txn_collapses_on_cdb3() {
    crash_mid_txn_collapses(SutProfile::by_name("cdb3").unwrap());
}

#[test]
fn crash_mid_txn_collapses_on_cdb4() {
    crash_mid_txn_collapses(SutProfile::by_name("cdb4").unwrap());
}

/// The acceptance gate behind the `mvcc_read_hot_write` microbench: under a
/// T2-style hot-write mix (one row updated back-to-back, every update
/// holding its row lock until its commit instant), the virtual-time read
/// p99 of chain-resolved snapshot reads must beat the blocking
/// single-version baseline by at least 2x.
#[test]
fn snapshot_read_p99_beats_blocking_baseline_2x() {
    const READ_COST: SimDuration = SimDuration::from_micros(80);
    const HOLD: SimDuration = SimDuration::from_micros(2_000);
    const WINDOWS: u64 = 600;

    let mut db = Database::new();
    let t = db.create_table(
        "hot",
        Schema::new(vec![
            ColumnDef::new("ID", DataType::Int),
            ColumnDef::new("V", DataType::Int),
        ]),
    );
    db.load_bulk(t, [Row::new(vec![Value::Int(1), Value::Int(0)])]);

    // The hot writer: window i holds the row lock over [i*HOLD, (i+1)*HOLD)
    // and commits image i at the window's end — exactly the lock-table and
    // version-store state the driver produces for back-to-back T2 payments.
    let mut locks = LockTable::new();
    let mut rng = DetRng::seeded(0x9E99);
    let mut published = 0u64;
    let mut baseline = Vec::new();
    let mut snapshot = Vec::new();
    for i in 0..WINDOWS {
        let start = SimTime::ZERO + HOLD * i;
        let release = start + HOLD;
        locks.register(&[(t, 1)], release);
        // Publish the *previous* image; it stays visible until `release`.
        db.versions_mut().publish(
            (t, 1),
            Some(&Row::new(vec![Value::Int(1), Value::Int(i as i64)]).encode()),
            release,
        );
        published += 1;
        // One reader lands at a uniform instant inside the window.
        let arrive = start + SimDuration::from_nanos(rng.below(HOLD.as_nanos()));
        // Blocking baseline: wait out the writer, then read the tree.
        let wait = locks
            .conflict_probe(&[(t, 1)], arrive)
            .map(|until| until.saturating_since(arrive))
            .unwrap_or(SimDuration::ZERO);
        baseline.push(wait + READ_COST);
        // Snapshot read: resolve the chain at `arrive`, no lock traffic.
        let row = db.get_at(t, 1, arrive).expect("hot row always visible");
        assert_eq!(row.values[0], Value::Int(1));
        snapshot.push(READ_COST);
    }
    assert_eq!(db.versions().published(), published);

    let p99 = |lat: &mut Vec<SimDuration>| {
        lat.sort();
        lat[(lat.len() * 99) / 100 - 1]
    };
    let base_p99 = p99(&mut baseline);
    let si_p99 = p99(&mut snapshot);
    assert!(
        base_p99 >= si_p99 * 2,
        "read p99 must improve >= 2x: blocking {base_p99:?} vs snapshot {si_p99:?}"
    );
}
