//! # jc-sph — Gadget-style smoothed-particle hydrodynamics
//!
//! Reproduction of the paper's gas-dynamics kernel: Gadget-2 (Springel
//! \[14\]), *"a CPU only model, written in C/MPI"*, run on 8 nodes of DAS-4
//! in the distributed experiments.
//!
//! The physics follows the standard SPH formulation Gadget uses:
//!
//! * cubic-spline kernel with adaptive smoothing lengths targeting a fixed
//!   neighbour count ([`kernel`], [`density`]);
//! * symmetrized pressure forces with Monaghan artificial viscosity and the
//!   adiabatic energy equation ([`forces`]);
//! * self-gravity through the shared gravity solver (`jc-treegrav`: a
//!   pair-symmetric direct sum at the sizes run here, the Barnes–Hut tree
//!   above its crossover);
//! * kick–drift–kick leapfrog with a global Courant-limited timestep
//!   ([`gadget::Gadget::evolve_model`]).
//!
//! The kernel runs as one in-process rank. The paper treats MPI as an
//! opaque intra-worker transport; the MPI bytes a multi-node worker would
//! exchange are modelled by `jc_core::proxy`, per evolve call, from the
//! size of the worker's reply.
//!
//! Supernova feedback for the embedded-cluster scenario enters through
//! [`gadget::Gadget::inject_energy`] — thermal energy dumped into the
//! neighbourhood of an exploding star, which is what eventually expels the
//! gas in Fig 6.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub)]

pub mod density;
pub mod forces;
pub mod gadget;
pub mod grid;
pub mod kernel;
pub mod particles;

pub use density::SphScratch;
pub use forces::HydroRates;
pub use gadget::Gadget;
pub use grid::CsrGrid;
pub use particles::GasParticles;
