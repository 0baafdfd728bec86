//! The counting global allocator shared by the allocation-pinning test
//! binaries (`mod common;`): allocations and bytes are tracked per
//! *thread*, so a measured closure sees only its own heap traffic.

#![allow(dead_code)] // each binary uses its own subset of the counters

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method delegates to `System`, which upholds the full
// `GlobalAlloc` contract; the only addition is a thread-local counter
// bump per call and per byte (`try_with` so a counter access during TLS
// teardown cannot panic inside the allocator). No pointer is invented,
// retained, or changed on the way through.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller's `Layout` obligations are forwarded to `System`
    // unchanged (required trait method; the count is a side effect).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: `layout` is the caller's, passed through verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with
    // this `layout`; since `alloc` is `System.alloc`, forwarding holds.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` are the caller's, passed through verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same forwarding argument as `dealloc` — `ptr` was
    // produced by `System.alloc` under `layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + new_size as u64));
        // SAFETY: arguments are the caller's, passed through verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on this thread.
pub fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

/// Bytes requested from the allocator by `f` on this thread.
pub fn count_alloc_bytes(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(|c| c.get());
    f();
    BYTES.with(|c| c.get()) - before
}
