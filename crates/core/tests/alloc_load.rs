//! Allocation guard for the bulk load: `load_dataset` writes each generated
//! row straight into its page image, so it allocates the pages it fills and
//! a constant beside them (the page table's growth, one scratch image, one
//! name buffer, the tree's internal nodes), never one value per row. A
//! second load on the thread, once the first database is dropped, takes its
//! pages from the frames the first one handed back and allocates only the
//! constant. An
//! integration test is a crate of its own, which lets it install a counting
//! allocator; the single `#[test]` keeps every other thread out of the
//! counted window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cb_engine::Database;
use cloudybench::{create_tables, load_dataset, DatasetShape};

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

/// Allocations beyond one per page: the page table doubles about 10 times
/// on the way to the 500-odd pages, and the rest is a handful of buffers.
const CONSTANT: u64 = 64;

/// Allocations and pages of one `create_tables` + `load_dataset`.
fn counted_load(shape: DatasetShape) -> (u64, u64) {
    let mut db = Database::new();
    let tables = create_tables(&mut db);
    let before_pages = db.pages().live_pages() as u64;
    let before = ALLOCS.load(Relaxed);
    load_dataset(&mut db, tables, shape, 2025);
    let allocs = ALLOCS.load(Relaxed) - before;
    (allocs, db.pages().live_pages() as u64 - before_pages)
}

#[test]
fn load_dataset_allocates_its_pages_and_a_constant() {
    let shape = DatasetShape::new(1, 100);
    let (allocs, pages) = counted_load(shape);
    assert!(pages > 100, "the SF 1 / 100 dataset fills {pages} pages");
    // Without the writer: one `String` per customer and one per order.
    assert!(
        allocs <= pages + CONSTANT,
        "{allocs} allocations for {pages} pages and {} rows",
        shape.total_rows()
    );
    // Without the spare frames: one zeroed `Box` per page again.
    let (allocs, pages) = counted_load(shape);
    assert!(
        allocs <= CONSTANT,
        "the rebuild made {allocs} allocations for {pages} pages"
    );
}
