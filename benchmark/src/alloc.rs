//! A counting `#[global_allocator]` that is live only while the traced
//! pass asks for it; every other phase pays one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Turn allocation counting on or off. Counts land on the calling thread's
/// `dlte_sim::report` tally, so `report::scope` returns them.
pub fn set_counting(on: bool) {
    // Relaxed: the flag publishes no other data; it only gates a statistic.
    COUNTING.store(on, Ordering::Relaxed);
}

pub struct CountingAlloc;

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        dlte_sim::report::note_alloc(bytes);
    }
}

// SAFETY: every operation defers to `System` with the caller's arguments
// unchanged. The hook only reads an atomic and bumps a const-initialized
// thread-local `Cell` (no allocation, no lazy init, no destructor), so it
// cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged; `ptr` and `layout` describe a block
        // this wrapper got from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
