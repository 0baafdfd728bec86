//! # jc-core — Distributed AMUSE: the paper's contribution (§5)
//!
//! *"To create a version of AMUSE capable of running in a Jungle Computing
//! System we added an Ibis Channel to the worker startup and communication
//! code. The AMUSE coupler connects with a local Ibis daemon to start and
//! communicate with remote workers. [...] Workers are started by the daemon
//! with JavaGAT, while wide-area communication is done using IPL. [...] the
//! daemon uses IPL to communicate over the wide area connection to a proxy
//! process running alongside the worker."*
//!
//! The moving parts, matching Fig 5:
//!
//! * [`daemon::IbisDaemon`] — an actor on the user's machine. The coupler
//!   (which runs *outside* the simulation, like the Python process outside
//!   the JVM) reaches it over a modeled loopback socket. It starts workers
//!   through JavaGAT ([`jc_gat`]), routes request frames to worker proxies
//!   over SmartSockets-planned connections, and collects reply frames.
//! * [`proxy::WorkerProxy`] — the per-worker proxy actor: serves each frame
//!   through the worker's own [`jc_amuse::host::ServerCore`], executing
//!   the real kernel *in place* (small-N physics), charges virtual time
//!   from the calibrated performance model, models the intra-worker MPI
//!   traffic of multi-node workers, and replies to the daemon.
//! * [`channel::IbisChannel`] — `jc_amuse`'s client core over a
//!   [`channel::SimLink`]: the protocol the TCP and in-process channels
//!   speak, with only the transport simulated, so the unmodified BRIDGE
//!   drives workers across the simulated jungle. A call posts the stamped
//!   request frame and runs the event loop until the reply frame lands;
//!   `submit`/`collect` on two channels gives genuinely parallel evolves.
//!   Its [`jc_amuse::ChannelStats`] book real frame bytes; the
//!   production-scaled bytes are the simulated `Ipl` link traffic.
//! * [`perfmodel`] — the calibration: sustained device throughputs for the
//!   paper's hardware and per-model work budgets chosen so the §6.2 lab
//!   scenarios land near the published 353 / 89 / 84 / 62.4 s/iteration
//!   (`tests/scenario_smoke.rs` pins paper-vs-modeled to 5%).
//! * [`scenarios`] — the Fig 12 lab topology, the Fig 9 SC11 topology, and
//!   the four-scenario runner behind Table 1.
//! * [`loopback`] — a real (wall-clock) benchmark of `wire` frames over
//!   one 127.0.0.1 TCP connection, backing the §5 ">8 Gbit/s even on a
//!   modest laptop" claim.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub)]

// The SoA compute layer and the unified parallel chunking core live in
// the leaf crate `jc_compute` (the kernel crates sit below this one, so
// they cannot depend on the runtime); re-exported here so runtime-level
// callers address them as `jc_core::soa` / `jc_core::par`.
pub use jc_compute::par;
pub use jc_compute::soa;

pub mod channel;
pub mod daemon;
pub mod envreg;
pub mod loopback;
pub mod perfmodel;
pub mod proxy;
pub mod scenarios;

pub use channel::{IbisChannel, SimLink};
pub use daemon::{DaemonHandle, IbisDaemon, WorkerId};
pub use perfmodel::{ModelKind, PerfProfile};
pub use proxy::WorkerProxy;
pub use scenarios::{run_scenario, Scenario, ScenarioResult};
