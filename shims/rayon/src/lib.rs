//! Offline stand-in for `rayon`.
//!
//! Supports the pipeline this workspace uses —
//! `par_iter() / into_par_iter()` followed by `map` and terminated by
//! `collect` — with real parallelism: the element list is materialized,
//! split into one contiguous chunk per available core, and mapped on
//! scoped threads.
//! Order is preserved, so results are identical to the sequential
//! evaluation (the nbody tests assert bitwise backend equality).

use std::num::NonZeroUsize;

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// How many worker threads a parallel stage may use: the `JC_THREADS`
/// environment override when set to a positive integer (reproducible
/// runs on shared machines — same knob as `jc_compute::par`), otherwise
/// one per available core. The environment is read *per resolution* —
/// not cached — so a mid-process `JC_THREADS` change (perfsuite's
/// thread-sweep rows, test harnesses) takes effect on the next
/// pipeline; only the core count, which cannot change, is cached.
fn threads_for(len: usize) -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cap = std::env::var("JC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            *CORES.get_or_init(|| {
                std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
            })
        });
    cap.min(len).max(1)
}

/// Order-preserving parallel map over an owned vector.
fn parallel_map<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = threads_for(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut source = items;
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    while source.len() > chunk {
        let tail = source.split_off(source.len() - chunk);
        chunks.push(tail);
    }
    chunks.push(source);
    // chunks are in reverse order: [tail ... head]
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || c.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut parts: Vec<Vec<R>> =
            handles.into_iter().map(|h| h.join().expect("rayon-shim worker panicked")).collect();
        parts.reverse();
        parts.into_iter().flatten().collect()
    })
}

/// A (lazy) parallel pipeline. `into_vec` drives it.
pub trait ParallelIterator: Sized {
    /// Element type.
    type Item: Send;

    /// Evaluate the pipeline, preserving element order.
    fn into_vec(self) -> Vec<Self::Item>;

    /// Parallel map: the workhorse stage.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Collect into any `FromIterator` container.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.into_vec().into_iter().collect()
    }
}

/// Eagerly materialized source stage.
pub struct VecParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;
    fn into_vec(self) -> Vec<T> {
        self.items
    }
}

/// `map` stage: the only stage that actually fans out to threads.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync,
{
    type Item = R;
    fn into_vec(self) -> Vec<R> {
        parallel_map(self.base.into_vec(), &self.f)
    }
}

/// Entry point for owned collections and ranges: `x.into_par_iter()`.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Pipeline source type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Start a parallel pipeline.
    fn into_par_iter(self) -> Self::Iter;
}

impl<I> IntoParallelIterator for I
where
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    type Iter = VecParIter<I::Item>;
    fn into_par_iter(self) -> VecParIter<I::Item> {
        VecParIter { items: self.into_iter().collect() }
    }
}

/// Entry point for borrowed slices: `x.par_iter()`.
pub trait IntoParallelRefIterator<'a> {
    /// Element type (a reference).
    type Item: Send;
    /// Pipeline source type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Start a parallel pipeline over `&self`.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = VecParIter<&'a T>;
    fn par_iter(&'a self) -> VecParIter<&'a T> {
        VecParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = VecParIter<&'a T>;
    fn par_iter(&'a self) -> VecParIter<&'a T> {
        VecParIter { items: self.iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = Vec::<u8>::new().par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }
}
