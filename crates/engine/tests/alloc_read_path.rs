//! Allocation guard for the read path: a range scan and a primary-key
//! `SELECT` hand out views borrowed from the page image, so neither may
//! allocate per row or per unread column. An integration test is a crate of
//! its own, which lets it install a counting allocator; the single `#[test]`
//! keeps every other thread out of the counted windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cb_engine::sql::{bind, execute, parse};
use cb_engine::{
    BufferPool, ColumnDef, CostModel, DataType, Database, ExecCtx, Row, Schema, Value,
};
use cb_sim::{Device, DeviceKind, SimDuration, SimTime};
use cb_store::{StorageArch, StorageService};

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
    let t3 = bind(
        &parse("SELECT O_ID, O_DATE, O_STATUS FROM orders WHERE O_ID = ?").unwrap(),
        &db,
    )
    .unwrap();

    let mut pool = BufferPool::new(1024);
    let mut storage = StorageService::new(
        StorageArch::Coupled,
        Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
        Device::new(DeviceKind::LocalNvme, SimDuration::from_micros(90), None),
        None,
        1,
        SimDuration::ZERO,
    );
    let model = CostModel::default();
    let mut ctx = ExecCtx::new(SimTime::ZERO, &mut pool, None, &mut storage, &model);

    // A visitor that reads one column of every row: the only allocations
    // left are the access log growing by doubling as leaves are visited.
    let (sum, scan_allocs) = allocations(|| {
        let mut sum = 0i64;
        db.scan_range(&mut ctx, orders, 1, ROWS, |_, row| {
            sum += row.int(1);
            true
        });
        sum
    });
    assert_eq!(sum, (1..=ROWS).map(|i| i % 97).sum::<i64>());
    assert_eq!(ctx.stats.rows, ROWS as u64);
    assert!(
        scan_allocs < 32,
        "a {ROWS}-row scan made {scan_allocs} allocations"
    );

    // The T3-shaped point SELECT: access log, the result list, one projected
    // row and its one text column.
    let mut txn = db.begin();
    let (out, select_allocs) =
        allocations(|| execute(&mut db, &mut ctx, &mut txn, &t3, &[Value::Int(7)]).unwrap());
    assert_eq!(
        out.rows,
        vec![vec![
            Value::Int(7),
            Value::Timestamp(7_000),
            Value::Text("SHIPPED".into())
        ]]
    );
    assert!(
        select_allocs <= 4,
        "a point SELECT of three columns made {select_allocs} allocations"
    );
    db.commit(&mut ctx, txn);
}
