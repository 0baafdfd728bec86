//! # jc-treegrav — Barnes–Hut tree gravity (Octgrav and Fi)
//!
//! Reproduction of the paper's *coupling* models: *"For this coupling, the
//! Octgrav gravitational tree model is used, implemented in C++ and CUDA.
//! If no GPU is available, the Fi model, written in Fortran, can be used
//! instead."*
//!
//! Both kernels compute the gravitational acceleration exerted by one
//! particle set (sources) on another (targets) — the "p-kick" phases of the
//! Fig 7 bridge scheme. They share one octree ([`octree::Octree`]) and one
//! solver ([`solver::TreeGravity`]); they differ exactly the way the
//! paper's kernels differ:
//!
//! * [`Octgrav`] — GPU-hosted: wider opening angle (the GPU tree code
//!   trades accuracy for throughput), cost charged to the device model.
//! * [`Fi`] — CPU-hosted: tighter opening angle, parallel over targets
//!   on the `jc_compute::par::chunked` worker pool.
//!
//! The solver picks its structure by population. A tree amortises only
//! over many sources: below a measured source-count crossover
//! [`solver::TreeGravity::accelerations_into`] — what every coupling
//! kick calls — builds no tree and sums every target–source pair exactly
//! through the [`jc_compute::gravity`] lane kernel, which is what the
//! paper's own star kernel (PhiGRAPE) does and, at the ≤ 512 sources
//! the coupled runs here hold, 2–4× faster than build + walk. For a set
//! on itself (SPH self-gravity)
//! [`solver::TreeGravity::self_accelerations_into`] applies the same rule
//! and below it evaluates each unordered pair once, with f32 pair math
//! and f64 sums (the paper's GPU kernels run single precision). The
//! opening angle
//! then has no say, so both personalities give the same bits — §6.2's
//! "which kernel is used has no influence in the result". The choice
//! reads the source count only, never the target count (a sharded
//! coupler splits targets), threads or transport.
//!
//! Flop accounting ([`solver::TreeGravity::last_interactions`]) feeds the
//! jungle performance model: tree gravity is O(N log N) interactions versus
//! the O(N²) of direct summation, which is why the coupling model dominated
//! the CPU-only scenario in §6.2. Below the crossover the count *is* the
//! O(N²) pair count (`n(n−1)/2` for self-gravity) — no smaller than the
//! walk's accepted-node count at the same N, and cheaper, because a pair
//! costs a fifth of a traversed node — so modeled flops per iteration
//! rose when the direct sum landed while wall time fell.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unreachable_pub)]

pub mod octree;
pub mod solver;

pub use octree::Octree;
pub use solver::{Fi, Octgrav, TreeGravity};

/// Floating-point operations per interaction — a particle–node monopole
/// in the walk, a particle–particle pair in the direct sum (the same
/// arithmetic).
pub const FLOPS_PER_INTERACTION: f64 = 24.0;
