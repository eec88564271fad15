//! A counting global allocator for the tests that pin "allocates
//! nothing per message", included by `#[path]` where they live: this
//! crate's unit tests, `recorder_allocs.rs` and `stp-core`'s unit
//! tests. The count is per thread, so tests running side by side do not
//! see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
// The counter is a const-initialised thread-local without a destructor,
// so reaching it never allocates and never finds it torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations and reallocations this thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
