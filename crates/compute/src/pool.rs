//! The persistent worker pool behind [`crate::par::chunked`].
//!
//! `chunked` used to spawn fresh scoped threads on every call — one
//! `clone`/`mmap`/`futex` round per worker per kernel invocation, paid
//! hundreds of times per simulated step once several kernels fan out.
//! This module replaces that with a process-global pool of parked
//! threads: each worker owns a bounded `std::sync::mpsc` channel
//! (array-backed, so a warm send performs no allocation) and blocks in
//! `recv()` until a chunk of work is handed over.
//!
//! ## Handoff protocol
//!
//! A call that fans out to `c` chunks builds `c - 1` [`Task`]s *on the
//! caller's stack*, sends a raw pointer to each ([`Job`]) to a distinct
//! worker, runs the last chunk inline on the calling thread, then waits
//! on each task's [`Latch`] in ascending chunk order and folds the
//! results. Chunk geometry, state assignment (`states[k]` → chunk `k`)
//! and merge order are exactly those of the scoped-spawn
//! implementation ([`crate::par::chunked_scoped`]), so results are
//! bitwise identical for any worker count — the bench crate
//! property-tests pooled against scoped execution.
//!
//! ## Soundness
//!
//! Workers receive raw pointers into the caller's stack frame, so the
//! frame must outlive every submitted task. [`TasksGuard`] enforces
//! this on *every* exit path (including caller-side panics in the
//! inline body or a merge): its `Drop` waits for each submitted task's
//! latch and then drops the task in place. A worker-side panic is
//! caught with `catch_unwind`, carried back through the task's result
//! slot, and re-raised on the caller via `resume_unwind` — after the
//! guard has waited for the remaining workers.
//!
//! ## Determinism and allocation
//!
//! The pool's internals are replay-critical scope (jc-lint
//! `determinism`): no hash-seeded containers, no wall-clock reads —
//! workers are indexed by position and wake-ups are pure channel/latch
//! operations. In steady state (pool spawned, channel buffers warm) a
//! parallel `chunked` call performs **zero heap allocations** on the
//! calling thread: tasks live in a fixed stack array, latches are
//! futex-backed `Mutex`/`Condvar`, and sends into a warm bounded
//! channel do not allocate (the `zero_alloc` suite pins this).

use crate::par::Split;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, SendError, SyncSender};
use std::sync::{Condvar, Mutex, OnceLock};

/// Most chunks a single `chunked` call may fan out to through the pool
/// (the caller runs one chunk inline, so at most `MAX_CHUNKS - 1` tasks
/// are ever in flight per call). Calls requesting more fall back to
/// scoped spawning — geometry and merge order are identical either way.
pub(crate) const MAX_CHUNKS: usize = 128;

/// One-shot completion flag: worker sets it after writing the task's
/// result; the caller (and the cleanup guard) block on it.
struct Latch {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Latch {
        Latch { done: Mutex::new(false), cv: Condvar::new() }
    }

    /// Mark complete. Notifies while holding the lock so a woken waiter
    /// cannot free the latch before this call is done touching it.
    fn set(&self) {
        let mut done = self.done.lock().expect("latch poisoned");
        *done = true;
        self.cv.notify_all();
    }

    /// Block until [`Latch::set`]. Idempotent — the cleanup guard waits
    /// again after the happy path already has.
    fn wait(&self) {
        let mut done = self.done.lock().expect("latch poisoned");
        while !*done {
            done = self.cv.wait(done).expect("latch poisoned");
        }
    }
}

/// Type-erased prefix of every [`Task`] (`repr(C)` puts it first, so a
/// `*mut TaskHeader` is also a pointer to the task it heads).
#[repr(C)]
struct TaskHeader {
    /// Monomorphized runner: casts the header pointer back to the
    /// concrete `Task` and executes it.
    // SAFETY: callers must pass a pointer to the live, initialized
    // `Task` this header heads (the submit path stores `run_task::<D,
    // W, R, F>` next to the matching task, so the cast is always back
    // to the true concrete type).
    run: unsafe fn(*mut TaskHeader),
    latch: Latch,
}

/// One staged chunk of a `chunked` call, built on the caller's stack.
/// `repr(C)` so the header is its prefix.
#[repr(C)]
struct Task<D, W, R, F> {
    header: TaskHeader,
    /// Global start index of this chunk.
    start: usize,
    /// The chunk's data slice(s); taken by the worker.
    data: Option<D>,
    /// The chunk's per-worker state (`&mut W` erased; disjoint per task).
    state: *mut W,
    /// The shared body closure (`&F` erased; `F: Sync`).
    body: *const F,
    /// Written by the worker before the latch is set; `Err` carries a
    /// caught panic payload.
    result: Option<std::thread::Result<R>>,
}

/// What travels over the channel: a pointer to a caller-stack task.
///
/// SAFETY invariant: the pointee outlives the handoff — enforced by
/// [`TasksGuard`], which keeps the caller's frame alive until every
/// submitted task's latch has been set.
struct Job(*mut TaskHeader);

// SAFETY: `Job` is a courier for a `*mut Task<…>` whose pointees are
// `Send`-checked at the `run_chunked` boundary (`D: Send`, `W: Send`,
// `R: Send`, `F: Sync`); the raw pointer itself carries no thread
// affinity.
unsafe impl Send for Job {}

/// Execute one staged task: take the chunk, run the body under
/// `catch_unwind`, store the result, set the latch.
///
/// # Safety
///
/// `h` must point to a live, fully initialized `Task<D, W, R, F>` whose
/// `state`/`body` pointers are valid and unaliased for the duration of
/// the call (the caller submits each task to exactly one worker and
/// does not touch it until its latch is set).
unsafe fn run_task<D, W, R, F>(h: *mut TaskHeader)
where
    F: Fn(usize, D, &mut W) -> R,
{
    let task = h as *mut Task<D, W, R, F>;
    // SAFETY: per the function contract, `task` is live and exclusively
    // ours until the latch below is set.
    let t = unsafe { &mut *task };
    let data = t.data.take().expect("task submitted without data");
    // SAFETY: `body` erases a `&F` and `state` a `&mut W`, both valid
    // for the caller's frame which outlives this call (TasksGuard).
    let (body, state) = unsafe { (&*t.body, &mut *t.state) };
    let start = t.start;
    t.result = Some(catch_unwind(AssertUnwindSafe(|| body(start, data, state))));
    t.header.latch.set();
}

/// A parked worker: the sending half of its private bounded channel.
struct Worker {
    tx: SyncSender<Job>,
}

/// The process-global pool. Workers are spawned lazily (up to the
/// demand actually seen), never torn down, and park in `recv()` between
/// chunks. Indexed access keeps the chunk→worker mapping positional —
/// no work stealing, no ordering nondeterminism.
struct Pool {
    workers: Mutex<Vec<Worker>>,
}

thread_local! {
    /// Set for the lifetime of every pool worker thread: a `chunked`
    /// call from *inside* a worker must run inline (submitting to the
    /// pool from a worker could hand a task to the submitting thread
    /// itself — deadlock).
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Is the current thread a pool worker?
pub(crate) fn on_worker_thread() -> bool {
    IS_POOL_WORKER.with(|f| f.get())
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool { workers: Mutex::new(Vec::new()) })
    }

    /// Grow to at least `count` workers (allocation happens only here,
    /// on first demand — the warm path is a length check).
    fn ensure(&self, count: usize) {
        let mut workers = self.workers.lock().expect("pool poisoned");
        while workers.len() < count {
            let idx = workers.len();
            // Capacity 1: each worker holds at most one in-flight chunk
            // per caller; a second concurrent caller blocks in `send`
            // until the worker drains — backpressure, not growth.
            let (tx, rx) = sync_channel::<Job>(1);
            std::thread::Builder::new()
                .name(format!("jc-pool-{idx}"))
                .spawn(move || {
                    IS_POOL_WORKER.with(|f| f.set(true));
                    while let Ok(job) = rx.recv() {
                        // SAFETY: the sender (run_chunked) keeps the
                        // task alive until its latch is set, and sends
                        // each task exactly once.
                        unsafe { ((*job.0).run)(job.0) };
                    }
                })
                .expect("jc-pool worker spawn failed");
            workers.push(Worker { tx });
        }
    }

    /// Hand `job` to worker `k`. Falls back to running the task on the
    /// calling thread if the worker is unreachable (cannot happen while
    /// the process is healthy; insurance against a latch that would
    /// otherwise never be set).
    fn submit(&self, k: usize, job: Job) {
        let workers = self.workers.lock().expect("pool poisoned");
        let send = workers[k].tx.send(job);
        drop(workers);
        if let Err(SendError(job)) = send {
            // SAFETY: same single-run contract as the worker-side call.
            unsafe { ((*job.0).run)(job.0) };
        }
    }
}

/// Keeps the caller's stack frame alive until every submitted task has
/// completed, then drops the tasks in place (releasing untaken results,
/// e.g. on a caller-side panic mid-merge). `first` points at the task
/// array; `submitted` counts initialized-and-sent tasks.
struct TasksGuard<D, W, R, F> {
    first: *mut Task<D, W, R, F>,
    submitted: usize,
}

impl<D, W, R, F> Drop for TasksGuard<D, W, R, F> {
    fn drop(&mut self) {
        for k in 0..self.submitted {
            // SAFETY: tasks `0..submitted` were fully initialized and
            // sent exactly once; waiting the latch (idempotent) makes
            // the worker's writes visible and guarantees it is done
            // touching the task before we drop it.
            unsafe {
                let t = self.first.add(k);
                (*t).header.latch.wait();
                std::ptr::drop_in_place(t);
            }
        }
    }
}

/// Pool-backed parallel section of [`crate::par::chunked`]: same chunk
/// geometry, state assignment and ascending merge order as
/// [`crate::par::chunked_scoped`], with persistent workers instead of
/// per-call spawns. Caller guarantees `threads >= 2`, `n > 0` and
/// `states.len() >= threads`.
pub(crate) fn run_chunked<D, W, R, F, M>(
    threads: usize,
    data: D,
    states: &mut [W],
    init: R,
    body: &F,
    merge: M,
) -> R
where
    D: Split + Send,
    W: Send,
    R: Send,
    F: Fn(usize, D, &mut W) -> R + Sync,
    M: Fn(R, R) -> R,
{
    let n = data.chunk_len();
    let chunk = n.div_ceil(threads);
    let nchunks = n.div_ceil(chunk);
    debug_assert!(nchunks <= threads && nchunks <= states.len());
    if nchunks <= 1 {
        let r = body(0, data, &mut states[0]);
        return merge(init, r);
    }
    let pool = Pool::global();
    pool.ensure(nchunks - 1);

    let (worker_states, last_state) = states.split_at_mut(nchunks - 1);
    let mut tasks: [MaybeUninit<Task<D, W, R, F>>; MAX_CHUNKS] =
        [const { MaybeUninit::uninit() }; MAX_CHUNKS];
    // All task access below goes through this one base pointer (the
    // array itself is not touched again until it drops, uninit —
    // a no-op), so the guard's pointer stays valid throughout.
    let base = tasks.as_mut_ptr() as *mut Task<D, W, R, F>;
    let mut guard = TasksGuard { first: base, submitted: 0 };

    let mut rest = data;
    let mut start = 0usize;
    for (k, state) in worker_states.iter_mut().enumerate() {
        let (head, tail) = rest.split_at(chunk);
        rest = tail;
        // SAFETY: `k < nchunks - 1 <= MAX_CHUNKS`, so the slot is in
        // bounds; writing through the base pointer initializes it.
        let slot = unsafe { base.add(k) };
        // SAFETY: `slot` is in bounds (previous line) and writing a
        // whole `Task` into the `MaybeUninit` slot initializes it; the
        // slot is not yet shared (submit happens below).
        unsafe {
            slot.write(Task {
                header: TaskHeader { run: run_task::<D, W, R, F>, latch: Latch::new() },
                start,
                data: Some(head),
                state: state as *mut W,
                body: body as *const F,
                result: None,
            });
        }
        start += chunk;
        pool.submit(k, Job(slot as *mut TaskHeader));
        guard.submitted += 1;
    }

    // The last chunk runs inline on the calling thread — overlapped
    // with the workers, and the reason a warm parallel call needs no
    // spawn at all. A panic here unwinds through the guard, which waits
    // for the in-flight workers before the frame dies.
    let r_last = body(start, rest, &mut last_state[0]);

    let mut acc = init;
    for k in 0..guard.submitted {
        // SAFETY: task `k` was initialized and submitted above; the
        // latch wait orders the worker's result write before our read.
        let t = unsafe { &mut *guard.first.add(k) };
        t.header.latch.wait();
        match t.result.take().expect("worker set latch without a result") {
            Ok(r) => acc = merge(acc, r),
            // Propagate the worker's panic on the caller, after the
            // guard has waited for the remaining in-flight tasks.
            Err(payload) => {
                drop(acc);
                drop(guard);
                resume_unwind(payload);
            }
        }
    }
    acc = merge(acc, r_last);
    drop(guard); // all latches already waited; frees the task slots
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_matches_scoped_geometry() {
        // 5 chunks over 500 targets: 4 worker tasks + 1 inline.
        let data = vec![1u32; 500];
        let mut units = vec![(); 5];
        let spans = run_chunked(
            5,
            data.as_slice(),
            &mut units,
            Vec::new(),
            &|s0, c: &[u32], _: &mut ()| vec![(s0, c.len())],
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(spans, vec![(0, 100), (100, 100), (200, 100), (300, 100), (400, 100)]);
    }

    #[test]
    fn short_data_uses_fewer_chunks_than_threads() {
        // n = 5, threads = 4 -> chunk = 2 -> 3 chunks only.
        let data = [0u8; 5];
        let mut units = vec![(); 4];
        let spans = run_chunked(
            4,
            &data[..],
            &mut units,
            Vec::new(),
            &|s0, c: &[u8], _: &mut ()| vec![(s0, c.len())],
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(spans, vec![(0, 2), (2, 2), (4, 1)]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let data = vec![0u8; 200];
        let mut units = vec![(); 2];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_chunked(
                2,
                data.as_slice(),
                &mut units,
                (),
                &|s0, _: &[u8], _: &mut ()| {
                    if s0 == 0 {
                        panic!("worker chunk panicked");
                    }
                },
                |(), ()| (),
            )
        }));
        assert!(caught.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn nested_calls_from_a_worker_run_inline() {
        let data = vec![0u8; 256];
        let mut units = vec![(); 2];
        let nested_inline = run_chunked(
            2,
            data.as_slice(),
            &mut units,
            true,
            &|_, chunk: &[u8], _: &mut ()| {
                if !on_worker_thread() {
                    return true; // the inline chunk runs on the caller
                }
                // A chunked call from a pool worker must not re-enter
                // the pool: par::chunked's worker check routes it
                // inline. Simulate via the public entry point.
                let mut inner_units = [(); 4];
                let calls = crate::par::chunked(
                    4,
                    chunk,
                    &mut inner_units[..],
                    0u32,
                    |_, _: &[u8], _: &mut ()| 1u32,
                    |a, b| a + b,
                );
                calls == 1 // inline = exactly one body call
            },
            |a, b| a && b,
        );
        assert!(nested_inline, "nested chunked on a worker thread must run inline");
    }
}
