//! The benchmark's counting allocator. It counts allocation calls
//! process-wide, and only while the traced run has switched it on: the
//! end-to-end run pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// Wraps [`System`]; `alloc`, `alloc_zeroed` and `realloc` each count once.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn record() {
        if ENABLED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches two atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Start counting (the traced run).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}
