//! # jc-nbody — PhiGRAPE: direct-summation Hermite N-body dynamics
//!
//! Reproduction of the gravitational-dynamics kernel used in the paper's
//! embedded-cluster simulation: PhiGRAPE (Harfst et al. \[7\]), *"written in
//! Fortran, available in both a CPU and a GPU (using CUDA) variant"*.
//!
//! The integrator is the classic 4th-order Hermite predictor–corrector on
//! *block time steps*, as PhiGRAPE's is: every star steps on its own
//! power-of-two level of the call's span (the longest within its Aarseth
//! limit `eta |a| / |j|`), each sub-step predicts all stars but evaluates
//! and corrects only those whose step ends there, and every
//! [`PhiGrape::evolve_model`] returns with all stars synchronised on
//! `t_end`. The schedule is a function of the particle set alone. Plummer
//! softening, dimensionless N-body units (G = 1). The integrator has one
//! force path: thread-parallel over targets on the structure-of-arrays
//! compute path — sources mirrored into aligned `x/y/z/m` columns
//! ([`jc_compute::soa`]) and accumulated 4 lanes wide with a fixed
//! reduction order. Bitwise stable run to run, for any worker count and
//! SIMD width. The backends name where that path runs, which is the
//! paper's multi-kernel point:
//!
//! * [`kernels::Backend::CpuParallel`] — the "CPU variant" and what every
//!   worker runs.
//! * [`kernels::Backend::GpuModel`] — the same force loop (bitwise),
//!   *plus* a device cost model (GFLOP/s + transfer) used by the jungle
//!   simulator to account virtual time — the backends differ in *where*
//!   and *how fast* they run, never in the physics, exactly the paper's
//!   definition of a multi-kernel model.
//! * [`kernels::Backend::SimdSoa`] — a second name for the `CpuParallel`
//!   path, from when it was opt-in.
//!
//! An in-order reference loop (one core, sources summed strictly in
//! order) lives with the tests, not here: the tolerance-bounded property
//! tests bind the SoA path to it (equal to rounding, not bitwise), and
//! golden vectors pin its bits.
//!
//! [`plummer`] generates the paper's initial conditions (Plummer spheres
//! with a Salpeter IMF); [`diagnostics`] provides the energy/virial checks
//! the tests lean on.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unreachable_pub)]

pub mod diagnostics;
pub mod hermite;
pub mod kernels;
pub mod particle;
pub mod plummer;

pub use hermite::PhiGrape;
pub use kernels::Backend;
pub use particle::ParticleSet;
