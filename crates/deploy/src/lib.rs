//! # jc-deploy — IbisDeploy: zero-effort deployment into the jungle
//!
//! Reproduction of IbisDeploy (§3 of the paper): *"a library for deploying
//! applications in the Jungle, targeted specifically at end-users.
//! IbisDeploy can be configured using a small number of simple
//! configuration files, or with an optional GUI."*
//!
//! * [`descriptor`] — the configuration file: a *grid description* (the
//!   resources a user has access to, their locations, middlewares,
//!   firewalls and the links between them). It serializes to JSON via the
//!   built-in [`json`] module (no external dependencies), and malformed
//!   input is rejected with a field path instead of a panic.
//! * [`build`] — turns a grid description into a running simulated world:
//!   topology, SmartSockets hub per resource ("IbisDeploy automatically
//!   starts the hubs required by SmartSockets on each resource used"), and
//!   one GAT middleware actor per resource.
//! * [`monitor`] — text renditions of the IbisDeploy GUI panels shown in
//!   Figs 10 and 11: the resource map, the job table and the per-link
//!   traffic visualization with load/memory bars (the hub overlay is
//!   `jc_smartsockets::OverlayView::render`).
//! * [`supervise`] — worker-process supervision beyond the paper: launch
//!   recipes for `jungle-worker` processes and a
//!   [`supervise::ProcessSupervisor`] that respawns dead shards for the
//!   fault-tolerant bridge (the §5 open problem).

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub)]

pub mod build;
pub mod descriptor;
pub mod json;
pub mod monitor;
pub mod supervise;

pub use build::Deployment;
pub use descriptor::{DescriptorError, GridDescription, LinkEntry, ResourceEntry};
pub use monitor::{JobRow, MonitorView};
pub use supervise::{ProcessSupervisor, WorkerSpec};
