//! # jungle — umbrella crate for the Jungle Computing / distributed AMUSE reproduction
//!
//! Re-exports every library crate of the workspace (`jc_bench` and
//! `jc-lint` hold only binaries) under one roof so the examples and
//! integration tests can `use jungle::...`. See the README for the map of
//! the system and docs/ARCHITECTURE.md for the full inventory.

#![deny(rustdoc::broken_intra_doc_links)]

pub use jc_amuse as amuse;
pub use jc_cesm as cesm;
pub use jc_compute as compute;
pub use jc_core as core;
pub use jc_deploy as deploy;
pub use jc_gat as gat;
pub use jc_nbody as nbody;
pub use jc_netsim as netsim;
pub use jc_service as service;
pub use jc_smartsockets as smartsockets;
pub use jc_sph as sph;
pub use jc_stellar as stellar;
pub use jc_treegrav as treegrav;
