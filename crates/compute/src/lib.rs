//! # jc-compute — the SoA compute layer under every kernel crate
//!
//! The paper's claim is that a coupled multi-model simulation runs at
//! the speed of its fastest native kernels once the coupling layer
//! stays out of the way. With the coupling, transport and failover
//! layers allocation-free, the remaining wall-clock sits in the scalar
//! array-of-structs inner loops of the kernel crates. This crate holds
//! the pieces those loops share:
//!
//! * [`soa`] — cache-line-aligned structure-of-arrays column buffers
//!   (`x/y/z/m`) with conversions from/to the `[f64; 3]` AoS particle
//!   sets, the memory layout the fixed-width batched kernels read;
//! * [`gravity`] — the acceleration-only direct-summation lane kernels
//!   over those columns (one set on another, and a set on itself with
//!   each pair evaluated once), shared here because `jc_treegrav` (which
//!   sums directly below its crossover) does not depend on `jc_nbody`;
//! * [`simd`] — the one rule that picks an instruction-set tier:
//!   [`simd::dispatch!`] instantiates a kernel's portable body for the
//!   baseline and for AVX2 and checks the CPU once per call; and
//! * [`par`] — the unified parallel chunking core ([`par::chunked`])
//!   that replaces the hand-rolled `std::thread::scope` +
//!   `split_at_mut` splitting loops previously duplicated across
//!   `jc_nbody`, `jc_sph` and `jc_treegrav`, backed by a persistent
//!   worker pool (spawn once, park between calls, hand chunks over
//!   warm bounded channels), plus the shared worker-count policy
//!   ([`par::threads_for`]) with its `JC_THREADS` environment override
//!   for reproducible runs on shared machines.
//!
//! It is a leaf crate on purpose: every kernel crate (and, through
//! them, the whole jungle runtime) layers on top of it, so it depends
//! on nothing but `std`, whose `mpsc` channels the pool hands chunks
//! over. `jc_core` re-exports it as `jc_core::soa` / `jc_core::par`
//! for runtime-level callers.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unreachable_pub)]

pub mod gravity;
pub mod par;
mod pool;
pub mod simd;
pub mod soa;

pub use par::{chunked, chunked_scoped, threads_for};
pub use soa::{reduce_lanes, AlignedF64, Soa3, SoaBodies, LANES};
