//! Allocation guard for the exporters: `chrome_trace_json` and
//! `ascii_timeline` write every event straight into their output buffer,
//! so the allocations of an export are the buffer's growth and one label
//! per timeline row, not a count per event. An integration test is a crate
//! of its own, which lets it install a counting allocator; the single
//! `#[test]` keeps every other thread out of the counted window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cb_obs::export::{ascii_timeline, chrome_trace_json};
use cb_obs::{Category, ObsSink};
use cb_sim::time::{SimDuration, SimTime};

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
fn exporting_a_journal_allocates_per_row_not_per_event() {
    const EVENTS: u64 = 10_000;
    let sink = ObsSink::enabled();
    for i in 0..EVENTS {
        // Spans on six rows, every seventh event an instant on a seventh;
        // offsets run through every fractional microsecond.
        let at = SimTime::from_nanos(i * 30_001);
        if i % 7 == 0 {
            sink.instant(Category::Wal, "append", 0, at);
        } else {
            let (cat, name) = [
                (Category::Txn, "t1"),
                (Category::Txn, "t2"),
                (Category::Txn, "t3"),
                (Category::Lock, "wait"),
                (Category::Checkpoint, "flush"),
                (Category::Recovery, "redo"),
            ][(i % 6) as usize];
            sink.span(cat, name, i & 63, at, at + SimDuration::from_nanos(25_999));
        }
    }

    let (trace, timeline, allocs) = sink
        .with(|tracer| {
            let before = ALLOCS.load(Relaxed);
            let trace = chrome_trace_json(tracer);
            let timeline = ascii_timeline(tracer);
            (trace, timeline, ALLOCS.load(Relaxed) - before)
        })
        .expect("the sink is enabled");
    assert_eq!(trace.matches("\"ph\":").count(), EVENTS as usize);
    assert_eq!(timeline.lines().count(), 1 + 7, "{timeline}");
    assert!(
        allocs < 100,
        "exporting {EVENTS} events allocated {allocs} times"
    );
}
