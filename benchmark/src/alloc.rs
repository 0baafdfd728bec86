//! Whole-process allocation counting for the `alloc.*` layer metrics.
//!
//! Only with the `count-alloc` cargo feature (run.sh turns it on for
//! `--trace 1`): the default binary, which measures the end-to-end
//! metrics, keeps the system allocator untouched.

#[cfg(feature = "count-alloc")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    // Statistics only: nothing is published through these counters.
    pub(super) static COUNT: AtomicU64 = AtomicU64::new(0);
    pub(super) static BYTES: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the only additions are
    // relaxed atomic increments, which neither allocate nor unwind, so
    // layouts, pointers and zeroing guarantees are exactly `System`'s.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // SAFETY: the caller's obligations for `alloc` are passed on as is.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through this allocator with `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // SAFETY: the caller's obligations for `alloc_zeroed` are passed on as is.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            // SAFETY: `ptr` came from `System` through this allocator with
            // `layout`; the caller guarantees `new_size` is valid for it.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;
}

/// Is the counting allocator compiled in?
pub const ENABLED: bool = cfg!(feature = "count-alloc");

/// `(allocations, bytes requested)` by the whole process so far; zeros
/// without the `count-alloc` feature.
pub fn snapshot() -> (u64, u64) {
    #[cfg(feature = "count-alloc")]
    {
        use std::sync::atomic::Ordering;
        (counting::COUNT.load(Ordering::Relaxed), counting::BYTES.load(Ordering::Relaxed))
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        (0, 0)
    }
}
