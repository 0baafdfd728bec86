//! # jc-netsim — a deterministic discrete-event simulator of a Jungle Computing System
//!
//! The paper's evaluation ran on physical infrastructure we do not have: the
//! DAS-4 multi-cluster system, the Little Green Machine GPU cluster, a laptop
//! at SC11 in Seattle, and 1G/10G lightpaths between them. This crate is the
//! substitute substrate: a discrete-event simulation of *hosts* grouped into
//! *sites*, connected by *links* with latency and bandwidth, guarded by
//! *firewall/NAT policies*, and equipped with *compute devices* (CPU cores
//! and GPUs) and *batch queues*.
//!
//! Everything above this crate — SmartSockets hubs, GAT adapters, the
//! Ibis daemon and worker proxies — runs as [`Actor`]s inside
//! the event loop, executing their real protocol logic over the simulated
//! transport. A single-threaded engine plus seeded RNG makes every run
//! bit-for-bit reproducible, which the test suite exploits.
//!
//! ## Model summary
//!
//! * **Time** — virtual nanoseconds ([`SimTime`]); the engine pops events in
//!   (time, sequence) order so simultaneous events are deterministic.
//! * **Message transfer** — latency is the sum over the route's links;
//!   bandwidth cost is `bytes / bottleneck`; each link additionally keeps a
//!   `busy_until` horizon so heavy transfers serialize (store-and-forward is
//!   *not* modeled; the route is treated as a cut-through pipe, which is the
//!   right granularity for the paper's per-iteration message sizes).
//! * **Connectivity** — inbound connections to a firewalled/NATed site fail;
//!   outbound always succeed. SmartSockets' reverse-connection setup and hub
//!   relays (crate `jc-smartsockets`) are driven by exactly this check.
//! * **Compute** — [`compute::Device`] turns a floating-point operation count
//!   into virtual time; GPUs add a host↔device transfer charge.
//! * **Batch queues** — [`batch::BatchQueue`] models PBS/SGE-style node
//!   reservation with FIFO scheduling, walltime limits and reservation
//!   expiry (which kills jobs — the fault the paper says its prototype
//!   cannot yet survive).

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod actor;
pub mod batch;
pub mod compute;
pub mod engine;
pub mod metrics;
pub mod time;
pub mod topology;

pub use actor::{Actor, ActorId, Msg};
pub use engine::{Ctx, Sim, SimConfig};
pub use time::{SimDuration, SimTime};
pub use topology::{
    Connectivity, FirewallPolicy, HostId, HostSpec, LinkId, LinkSpec, SiteId, Topology,
};
