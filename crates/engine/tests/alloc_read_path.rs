//! Allocation guard for the point path: a range scan and a primary-key
//! `SELECT` hand out views borrowed from the page image and charge pages as
//! the tree walks, so they may not allocate at all; an `INSERT` may allocate
//! the one image its WAL record keeps, an `UPDATE` its before- and
//! after-image. An integration test is a crate of its own, which lets it
//! install a counting allocator; the single `#[test]` keeps every other
//! thread out of the counted windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cb_engine::sql::{bind, execute, parse};
use cb_engine::{
    BufferPool, ColumnDef, CostModel, DataType, Database, ExecCtx, IsolationLevel, Row, Schema,
    Value,
};
use cb_obs::ObsSink;
use cb_sim::{Device, SimDuration, SimTime};
use cb_store::{DurabilityAck, GroupCommit, GroupCommitConfig, StorageArch, StorageService};

struct Counting;

// A statistic only: nothing is published through it.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as in `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (out, ALLOCS.load(Relaxed) - before)
}

#[test]
fn scan_and_point_select_do_not_allocate_per_row() {
    const ROWS: i64 = 4096;
    let mut db = Database::new();
    let orders = db.create_table(
        "orders",
        Schema::new(vec![
            ColumnDef::new("O_ID", DataType::Int),
            ColumnDef::new("O_C_ID", DataType::Int),
            ColumnDef::new("O_STATUS", DataType::Text),
            ColumnDef::new("O_TOTALAMOUNT", DataType::Int),
            ColumnDef::new("O_DATE", DataType::Timestamp),
            ColumnDef::new("O_UPDATEDDATE", DataType::Timestamp),
        ]),
    );
    let customer = db.create_table(
        "customer",
        Schema::new(vec![
            ColumnDef::new("C_ID", DataType::Int),
            ColumnDef::new("C_NAME", DataType::Text),
            ColumnDef::new("C_CREDIT", DataType::Int),
            ColumnDef::new("C_UPDATEDDATE", DataType::Timestamp),
        ]),
    );
    let orderline = db.create_table(
        "orderline",
        Schema::new(
            ["OL_ID", "OL_O_ID", "OL_PRODUCT", "OL_QTY", "OL_AMOUNT"]
                .map(|c| ColumnDef::new(c, DataType::Int))
                .to_vec(),
        ),
    );
    db.load_bulk(
        orders,
        (1..=ROWS).map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 97),
                Value::Text("SHIPPED".into()),
                Value::Int(i * 10),
                Value::Timestamp(i * 1_000),
                Value::Timestamp(i * 1_000),
            ])
        }),
    );
    db.load_bulk(
        customer,
        (0..97).map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Text(format!("Customer#{i:06}")),
                Value::Int(1_000),
                Value::Timestamp(0),
            ])
        }),
    );
    db.load_bulk(
        orderline,
        (1..=100).map(|i| Row::new([i, i, 7, 1, 500].map(Value::Int).to_vec())),
    );
    let prep = |sql: &str| bind(&parse(sql).unwrap(), &db).unwrap();
    let t1 = prep("INSERT INTO orderline VALUES (DEFAULT, ?, ?, ?, ?)");
    let t2_select =
        prep("SELECT O_ID, O_C_ID, O_TOTALAMOUNT, O_UPDATEDDATE FROM orders WHERE O_ID = ?");
    let t2_pay = prep("UPDATE orders SET O_UPDATEDDATE = ?, O_STATUS = 'PAID' WHERE O_ID = ?");
    let t2_credit =
        prep("UPDATE customer SET C_CREDIT = C_CREDIT + ?, C_UPDATEDDATE = ? WHERE C_ID = ?");
    let t3 = prep("SELECT O_ID, O_DATE, O_STATUS FROM orders WHERE O_ID = ?");

    // The context `attempt_txn` builds: the node's pool, the obs sink (off,
    // as in every timed run), the group-commit pipeline, the isolation level.
    let mut pool = BufferPool::new(1024);
    let mut storage = StorageService::new(
        StorageArch::Coupled,
        Device::new(SimDuration::from_micros(90), None),
        Device::new(SimDuration::from_micros(90), None),
        None,
        1,
        SimDuration::ZERO,
    );
    let model = CostModel::default();
    let obs = ObsSink::disabled();
    let mut gc = GroupCommit::new(GroupCommitConfig {
        window: SimDuration::from_micros(500),
        max_batch: 64,
        ack: DurabilityAck::LocalFsync,
    });
    let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model)
        .with_obs(&obs, 0)
        .with_group_commit(&mut gc)
        .with_isolation(IsolationLevel::ReadCommitted);

    // Every shape runs twice and the second run is the counted one: the
    // first makes the pages resident, and a pool miss grows the pool's slab
    // and map, which is the pool warming up and not the statement's cost.
    let mut counted = [0u64; 5];
    for round in 0..2 {
        // A visitor that reads one column of every row.
        let (sum, scan) = allocations(|| {
            let mut sum = 0i64;
            db.scan_range(&mut ctx, orders, 1, ROWS, |_, row| {
                sum += row.int(1);
                true
            });
            sum
        });
        assert_eq!(sum, (1..=ROWS).map(|i| i % 97).sum::<i64>());

        // T3: begin, point SELECT of three columns, read them, commit.
        let ((), t3_txn) = allocations(|| {
            let mut txn = db.begin();
            let out = execute(&mut db, &mut ctx, &mut txn, &t3, &[Value::Int(7)]).unwrap();
            let row = out.row.expect("order 7 exists");
            assert_eq!(
                (row.int(0), row.timestamp(1), row.text(2)),
                (7, 7_000, "SHIPPED")
            );
            db.commit(&mut ctx, txn);
        });

        // A transaction that does nothing at all.
        let ((), empty) = allocations(|| {
            let txn = db.begin();
            db.commit(&mut ctx, txn);
        });

        // T1: one INSERT with an auto-assigned key.
        let ((), t1_txn) = allocations(|| {
            let mut txn = db.begin();
            let params = [9, 4_711, 3, 1_500].map(Value::Int);
            execute(&mut db, &mut ctx, &mut txn, &t1, &params).unwrap();
            let c = db.commit(&mut ctx, txn);
            assert_eq!(c.writes.len(), 1);
        });

        // T2: read the order, pay it, credit its customer.
        let ((), t2_txn) = allocations(|| {
            let mut txn = db.begin();
            let o_id = 40 + round;
            let out =
                execute(&mut db, &mut ctx, &mut txn, &t2_select, &[Value::Int(o_id)]).unwrap();
            let c_id = out.row.expect("order exists").int(1);
            let params = [Value::Timestamp(99), Value::Int(o_id)];
            execute(&mut db, &mut ctx, &mut txn, &t2_pay, &params).unwrap();
            let params = [Value::Int(250), Value::Timestamp(99), Value::Int(c_id)];
            execute(&mut db, &mut ctx, &mut txn, &t2_credit, &params).unwrap();
            let c = db.commit(&mut ctx, txn);
            assert_eq!(c.writes.len(), 2);
        });
        counted = [scan, t3_txn, empty, t1_txn, t2_txn];
    }
    let [scan, t3_txn, empty, t1_txn, t2_txn] = counted;
    assert_eq!(scan, 0, "a {ROWS}-row scan allocated");
    assert_eq!(t3_txn, 0, "a point SELECT transaction allocated");
    assert_eq!(empty, 0, "an empty transaction allocated");
    // One allocation per WAL image: the inserted row; a before- and an
    // after-image for each of the two updates.
    assert!(
        t1_txn <= 1,
        "an INSERT transaction made {t1_txn} allocations"
    );
    assert!(
        t2_txn <= 4,
        "a select + two updates made {t2_txn} allocations"
    );
    assert_eq!(ctx.stats.rows, 2 * (ROWS as u64 + 1 + 1 + 3));
    // Order 41 belongs to customer 41 (`O_C_ID = O_ID % 97`), credited once.
    assert_eq!(
        db.get_at(customer, 41, SimTime::ZERO).unwrap().values[2],
        Value::Int(1_250)
    );
}
