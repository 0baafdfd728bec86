//! Regression test: `JC_THREADS` is read per resolution, not pinned by
//! the first kernel call.
//!
//! `jc_compute::par::threads_for` used to cache the `JC_THREADS`
//! environment read in a `OnceLock`, so the first resolution pinned the
//! value process-wide — an in-process sweep over thread counts
//! (perfsuite's `_t2`/`_tN` rows) silently measured one setting under
//! three labels. Both the resolved count and the fan-out of
//! `jc_compute::chunked`, the one parallel driver, must now honor a
//! mid-process env change. One `#[test]` on purpose: `set_var` is
//! process-global, so the sequence must not interleave with another
//! test's reads.

use std::thread::ThreadId;

/// Number of distinct threads `jc_compute::chunked` ran the chunks of a
/// `len`-element problem on, at the worker count the environment picks
/// (each chunk reports the id of the thread it ran on).
fn chunked_distinct_threads(len: usize) -> usize {
    let threads = jc_compute::threads_for(len, 0, 1);
    let data = vec![0u8; len];
    let ids: Vec<ThreadId> = jc_compute::chunked(
        threads,
        data.as_slice(),
        &mut vec![(); threads],
        Vec::new(),
        |_, _: &[u8], _| vec![std::thread::current().id()],
        |mut a, b| {
            a.extend(b);
            a
        },
    );
    let mut distinct: Vec<ThreadId> = Vec::new();
    for id in ids {
        if !distinct.contains(&id) {
            distinct.push(id);
        }
    }
    distinct.len()
}

#[test]
fn jc_threads_is_read_per_resolution_not_pinned_at_first_use() {
    // Process-global env: this is the only test in this binary that
    // touches JC_THREADS, and it runs its steps sequentially.
    std::env::set_var("JC_THREADS", "3");

    // --- the cap follows the environment ---
    assert_eq!(jc_compute::threads_for(10_000, 0, 1), 3, "initial JC_THREADS ignored");
    std::env::set_var("JC_THREADS", "5");
    assert_eq!(
        jc_compute::threads_for(10_000, 0, 1),
        5,
        "JC_THREADS change after first use was pinned by a cached read"
    );
    // An explicit cap still wins over the environment.
    assert_eq!(jc_compute::threads_for(10_000, 2, 1), 2);
    // The grain policy still floors small problems without consulting
    // the environment.
    assert_eq!(jc_compute::threads_for(10, 0, 64), 1);

    // --- chunked: the worker fan-out follows the environment ---
    std::env::set_var("JC_THREADS", "1");
    assert_eq!(chunked_distinct_threads(4096), 1, "JC_THREADS=1 must stay on the caller");
    std::env::set_var("JC_THREADS", "4");
    assert!(
        chunked_distinct_threads(4096) > 1,
        "raising JC_THREADS mid-process must widen chunked's fan-out"
    );

    std::env::remove_var("JC_THREADS");
}
