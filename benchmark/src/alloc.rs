//! A counting wrapper around the system allocator: the outside view of how
//! many heap allocations (and bytes) a timed call makes. Counting is off
//! unless the traced run switches it on, so the untraced run pays one relaxed
//! load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The allocator type installed as `#[global_allocator]` by the binary.
pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed` suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one allocator call; only growth adds bytes.
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: as in `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and bytes requested while counting was on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub allocs: u64,
    /// Bytes requested (growth only, for `realloc`).
    pub bytes: u64,
}

/// Run `f` with counting on and return what it allocated. Counts every
/// thread, so call it around single-threaded work only.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let before = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    ENABLED.store(true, Relaxed);
    let out = f();
    ENABLED.store(false, Relaxed);
    let count = AllocCount {
        allocs: ALLOCS.load(Relaxed) - before.0,
        bytes: BYTES.load(Relaxed) - before.1,
    };
    (out, count)
}
