//! A counting global allocator, installed in the benchmark binary only so
//! the simulator's deterministic crates stay untouched.
//!
//! It forwards every request to [`System`] and keeps three counters per
//! thread: heap allocations made (reallocations included), bytes live, and
//! the live-bytes high-water. The benchmark runs the simulator on one
//! thread, so that thread's counters see all of its allocations; keeping
//! them thread-local makes them exact without atomic read-modify-writes,
//! cheap enough to leave on in the untraced runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// The allocator the binary installs with `#[global_allocator]`.
pub struct Counting;

fn grew(bytes: usize) {
    // `try_with`: const-initialised cells without destructors are always
    // accessible, but an allocator must never panic.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as u64;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes as u64)));
}

fn counted() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over; the bookkeeping
// only touches const-initialised thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            counted();
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            counted();
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            counted();
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Allocations this thread has made.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap bytes this thread has allocated and not freed.
pub fn live_bytes() -> u64 {
    LIVE.with(Cell::get)
}

/// This thread's live-bytes high-water since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.with(Cell::get)
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.with(|peak| peak.set(live_bytes()));
}
