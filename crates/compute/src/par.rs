//! The unified parallel chunking core.
//!
//! Every kernel hot path in this workspace parallelizes the same way:
//! split the target range into contiguous chunks, hand each chunk (plus
//! a reusable per-worker scratch) to a worker, and fold the per-worker
//! results. [`chunked`] is that loop, written once; the kernel crates
//! used to carry three hand-rolled copies of it. Parallel chunks run on
//! the persistent worker pool (`crate::pool`): threads are spawned once
//! per process, park in a channel `recv()` between calls, and receive
//! chunks over bounded (allocation-free once warm) channel handoffs —
//! per-call `std::thread::scope` spawning survives only as the
//! [`chunked_scoped`] reference implementation the equivalence tests
//! compare against.
//!
//! Contracts the kernels rely on:
//!
//! * **Determinism** — chunking never reorders arithmetic *within* a
//!   target, and results are written into disjoint pre-split slices, so
//!   outputs are bitwise identical for any worker count (the kernel
//!   crates property-test this). Pooled and scoped execution use the
//!   same chunk geometry, state assignment and ascending merge order,
//!   so they are bitwise interchangeable (property-tested in the bench
//!   crate).
//! * **Zero allocation in sequential mode** — with `threads <= 1` the
//!   body runs inline on the calling thread: no spawn, no handle
//!   collection, no heap traffic. The parallel mode also reaches an
//!   allocation-free steady state once the pool threads exist and the
//!   channel buffers are warm (the `zero_alloc` suite pins both).

use std::sync::OnceLock;

/// Physical core count, detected once per process (detection allocates;
/// the result cannot change, unlike the environment).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1))
}

/// Auto-detected worker cap: the `JC_THREADS` environment override when
/// set to a positive integer, otherwise `available_parallelism`.
///
/// The environment is read *per resolution* — deliberately not cached,
/// so an in-process `JC_THREADS` change (perfsuite's thread-sweep rows,
/// test harnesses) takes effect on the next resolution. A set variable
/// costs one heap allocation per read (`std::env::var` returns a
/// `String`), and [`threads_for`] reads it whenever the grain policy
/// allows fanning out — so callers that run many kernel passes per
/// request (`PhiGrape::evolve_model`, `Gadget::evolve_model`) resolve
/// once per request and pass the count down as an explicit cap instead
/// of resolving per pass. (Core detection stays cached — it allocates
/// and cannot change.)
fn auto_threads() -> usize {
    std::env::var("JC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(cores)
}

/// Worker count for a problem of `n` targets: `max_threads` (0 = auto —
/// one per core, or the `JC_THREADS` override for reproducible runs on
/// shared machines), clamped so every worker gets at least `grain`
/// targets. An explicit `max_threads` always wins over the environment:
/// `max_threads == 1` is the strictly sequential mode whose steady
/// state must stay allocation-free, so it must never touch the
/// (allocating) environment read or core detection — nor does any call
/// the grain policy already pins to one worker.
pub fn threads_for(n: usize, max_threads: usize, grain: usize) -> usize {
    let by_grain = n.div_ceil(grain.max(1)).max(1);
    if max_threads == 1 || by_grain == 1 {
        return 1;
    }
    let cap = if max_threads == 0 { auto_threads() } else { max_threads };
    cap.min(by_grain).max(1)
}

/// Data that [`chunked`] can split into contiguous per-worker chunks:
/// slices, and tuples of equal-length slices (split at the same index).
pub trait Split: Sized {
    /// Number of targets carried.
    fn chunk_len(&self) -> usize;
    /// Split into `[0, mid)` and `[mid, len)`.
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T> Split for &[T] {
    fn chunk_len(&self) -> usize {
        self.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        (*self).split_at(mid)
    }
}

impl<T> Split for &mut [T] {
    fn chunk_len(&self) -> usize {
        self.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<A: Split, B: Split> Split for (A, B) {
    fn chunk_len(&self) -> usize {
        debug_assert_eq!(self.0.chunk_len(), self.1.chunk_len(), "tuple slices must match");
        self.0.chunk_len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.0.split_at(mid);
        let (b0, b1) = self.1.split_at(mid);
        ((a0, b0), (a1, b1))
    }
}

impl<A: Split, B: Split, C: Split> Split for (A, B, C) {
    fn chunk_len(&self) -> usize {
        debug_assert_eq!(self.0.chunk_len(), self.1.chunk_len(), "tuple slices must match");
        debug_assert_eq!(self.0.chunk_len(), self.2.chunk_len(), "tuple slices must match");
        self.0.chunk_len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.0.split_at(mid);
        let (b0, b1) = self.1.split_at(mid);
        let (c0, c1) = self.2.split_at(mid);
        ((a0, b0, c0), (a1, b1, c1))
    }
}

/// Run `body(start_index, chunk, state)` over contiguous chunks of
/// `data` on pool workers — at most `threads` workers, at most one
/// per entry of `states` — and fold the per-chunk results with `merge`
/// (worker results are merged in ascending chunk order, so reductions
/// are deterministic for a fixed worker count; kernels whose *results*
/// must not depend on the worker count use order-independent merges:
/// sums, maxima).
///
/// With `threads <= 1` (or no targets) the body runs inline on the
/// calling thread and performs zero heap allocations — the sequential
/// mode the `zero_alloc` suite pins. `states[k]` is handed to chunk `k`
/// (ascending), so per-worker staging buffers land in chunk order.
///
/// Parallel chunks are handed to the persistent worker pool: all but
/// the last chunk go to parked pool threads over warm bounded channels
/// and the last runs inline on the calling thread, so a warm parallel
/// call spawns no threads and allocates nothing either. Results are
/// bitwise identical to [`chunked_scoped`] for any `threads` (same
/// geometry, same states, same merge order). Two deliberate fallbacks
/// keep the pool out of pathological shapes: a call from *inside* a
/// pool worker runs inline (nested fan-out would deadlock a positional
/// pool), and a call fanning out past the pool's fixed per-call task
/// budget uses scoped spawning.
///
/// Panics if `states` is empty; a panicking worker propagates.
pub fn chunked<D, W, R, F, M>(
    threads: usize,
    data: D,
    states: &mut [W],
    init: R,
    body: F,
    merge: M,
) -> R
where
    D: Split + Send,
    W: Send,
    R: Send,
    F: Fn(usize, D, &mut W) -> R + Sync,
    M: Fn(R, R) -> R,
{
    assert!(!states.is_empty(), "chunked needs at least one worker state");
    let n = data.chunk_len();
    let threads = threads.min(states.len()).max(1);
    if threads <= 1 || n == 0 || crate::pool::on_worker_thread() {
        let r = body(0, data, &mut states[0]);
        return merge(init, r);
    }
    if threads > crate::pool::MAX_CHUNKS {
        return chunked_scoped(threads, data, states, init, body, merge);
    }
    crate::pool::run_chunked(threads, data, states, init, &body, merge)
}

/// The scoped-spawn reference implementation of [`chunked`]: identical
/// chunk geometry, state assignment and ascending merge order, with a
/// fresh `std::thread::scope` spawn per chunk instead of the pool.
/// Kept callable so the equivalence suite can property-test pooled
/// against scoped execution (bitwise-identical results for any worker
/// count); also the fallback for calls wider than the pool's per-call
/// task budget.
pub fn chunked_scoped<D, W, R, F, M>(
    threads: usize,
    data: D,
    states: &mut [W],
    init: R,
    body: F,
    merge: M,
) -> R
where
    D: Split + Send,
    W: Send,
    R: Send,
    F: Fn(usize, D, &mut W) -> R + Sync,
    M: Fn(R, R) -> R,
{
    assert!(!states.is_empty(), "chunked needs at least one worker state");
    let n = data.chunk_len();
    let threads = threads.min(states.len()).max(1);
    if threads <= 1 || n == 0 {
        let r = body(0, data, &mut states[0]);
        return merge(init, r);
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = data;
        let mut start = 0usize;
        let mut handles = Vec::with_capacity(threads);
        for state in states.iter_mut() {
            let take = chunk.min(rest.chunk_len());
            if take == 0 {
                break;
            }
            let (head, tail) = rest.split_at(take);
            rest = tail;
            let s0 = start;
            start += take;
            let body = &body;
            handles.push(s.spawn(move || body(s0, head, state)));
        }
        let mut acc = init;
        for h in handles {
            acc = merge(acc, h.join().expect("chunked worker panicked"));
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_fill_identically() {
        let run = |threads: usize| {
            let mut out = vec![0usize; 1000];
            let mut units = vec![(); threads];
            let total = chunked(
                threads,
                out.as_mut_slice(),
                &mut units,
                0usize,
                |s0, chunk, _| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (s0 + k) * 3;
                    }
                    chunk.len()
                },
                |a, b| a + b,
            );
            assert_eq!(total, 1000);
            out
        };
        let seq = run(1);
        for threads in [2, 3, 7, 16] {
            assert_eq!(run(threads), seq, "threads = {threads}");
        }
    }

    #[test]
    fn tuple_split_keeps_slices_aligned() {
        let src: Vec<u64> = (0..513).collect();
        let mut dst = vec![0u64; 513];
        let mut units = vec![(); 4];
        chunked(
            4,
            (src.as_slice(), dst.as_mut_slice()),
            &mut units,
            (),
            |s0, (s, d), _| {
                for (k, (x, y)) in s.iter().zip(d.iter_mut()).enumerate() {
                    *y = x + s0 as u64 - (s0 + k) as u64 + k as u64; // = *x
                }
            },
            |(), ()| (),
        );
        assert_eq!(src, dst);
    }

    #[test]
    fn merge_runs_in_ascending_chunk_order() {
        let data = vec![0u8; 300];
        let mut units = vec![(); 3];
        let order = chunked(
            3,
            data.as_slice(),
            &mut units,
            Vec::new(),
            |s0, chunk, _| vec![(s0, chunk.len())],
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(order, vec![(0, 100), (100, 100), (200, 100)]);
    }

    #[test]
    fn empty_data_runs_body_once_inline() {
        let mut hits = [0u32; 1];
        let empty: &mut [f64] = &mut [];
        chunked(
            8,
            empty,
            &mut hits[..],
            (),
            |_, chunk, state| {
                assert!(chunk.is_empty());
                *state += 1;
            },
            |(), ()| (),
        );
        assert_eq!(hits[0], 1);
    }

    #[test]
    fn threads_for_respects_grain_and_explicit_cap() {
        assert_eq!(threads_for(10, 4, 64), 1, "grain dominates small n");
        assert_eq!(threads_for(1000, 4, 64), 4, "explicit cap wins");
        assert_eq!(threads_for(0, 4, 64), 1, "empty problems stay sequential");
        assert!(threads_for(1 << 20, 0, 64) >= 1);
    }
}
