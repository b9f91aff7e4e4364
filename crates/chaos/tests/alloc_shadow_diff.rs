//! Allocation guard for the state oracle: `ShadowModel::diff` holds every
//! row of the database against the model as an image borrowed from its
//! page, so a database that agrees is compared without a single allocation.
//! An integration test is a crate of its own, which lets it install a
//! counting allocator; the single `#[test]` keeps every other thread out of
//! the counted window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cb_chaos::ShadowModel;
use cb_engine::{ColumnDef, DataType, Database, Row, Schema, Value};

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

#[test]
fn diff_of_an_agreeing_database_does_not_allocate() {
    let mut db = Database::new();
    let orders = db.create_table(
        "orders",
        Schema::new(vec![
            ColumnDef::new("O_ID", DataType::Int),
            ColumnDef::new("O_STATUS", DataType::Text),
            ColumnDef::new("O_TOTALAMOUNT", DataType::Int),
            ColumnDef::new("O_DATE", DataType::Timestamp),
        ]),
    );
    db.load_bulk(
        orders,
        (1..=1000).map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Text("SHIPPED".into()),
                Value::Int(i * 10),
                Value::Timestamp(i * 1_000),
            ])
        }),
    );
    let shadow = ShadowModel::from_db(&db);
    assert_eq!(shadow.rows(), 1000);

    let before = ALLOCS.load(Relaxed);
    let diff = shadow.diff(&db);
    let allocs = ALLOCS.load(Relaxed) - before;
    assert!(diff.is_empty(), "{}", diff.summary());
    assert_eq!(allocs, 0, "comparing 1000 agreeing rows");
}
