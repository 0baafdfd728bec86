//! # jc-amuse — the AMUSE coupling framework
//!
//! Reproduction of AMUSE (Portegies Zwart et al. \[12\]; §4.1 of the paper):
//! *"AMUSE combines different models (stellar evolution, hydrodynamics,
//! gravitational dynamics, and radiative transport) into a single
//! astrophysical simulation. [...] In AMUSE, models are integrated into a
//! single simulation in a centralized coupler. [...] whenever a simulation
//! creates a model, a so-called worker is created automatically. [...]
//! AMUSE communicates with workers using a channel, in an RPC-like method.
//! Both synchronous and asynchronous calls are supported."*
//!
//! The pieces, mirroring that architecture:
//!
//! * [`worker`] — the RPC surface ([`worker::Request`]/
//!   [`worker::Response`]) and the worker implementations wrapping the four
//!   kernels: PhiGRAPE gravity, Gadget SPH, SSE stellar evolution, and the
//!   Octgrav/Fi coupling kick. Every payload knows its simulated wire size,
//!   so any channel can account traffic exactly.
//! * [`host`] — what every worker host does with a request: the two
//!   composite requests of the bridge's substep ([`worker::Request::Step`],
//!   [`worker::Request::ComputeField`]) are decomposed there, once, into
//!   the six [`worker::ModelWorker`] methods; [`host::ServerCore`] serves
//!   request frames with them, socket-free, and keeps the dedup cache and
//!   the masses of the current mass epoch ([`host::FieldSets`]).
//! * [`channel`] — the [`channel::Channel`] trait with synchronous `call`
//!   and asynchronous `submit`/`collect`, and [`channel::ClientCore`], the
//!   client protocol written once over any [`channel::Link`].
//!   [`channel::LocalChannel`] (the default MPI-like same-process
//!   channel) is that core over the worker's own `ServerCore`;
//!   [`channel::ThreadChannel`] (a real worker thread fed over crossbeam
//!   queues) carries `Request` values, the codec-free reference. The
//!   *Ibis* channel that sends these same requests across the simulated
//!   jungle lives in `jc-core`, exactly as the paper adds its Ibis
//!   channel next to the existing MPI and socket channels.
//! * [`wire`] — the length-prefixed, versioned binary codec for
//!   requests and responses; the physical frame size of every message
//!   equals its modeled `wire_size`, so frame accounting and simulated
//!   accounting agree exactly.
//! * [`socket`] — the server half of the socket channel:
//!   [`socket::WorkerServer`] serves any [`worker::ModelWorker`] behind
//!   a `TcpListener` (the `jungle-worker` binary in `jc-deploy` wraps
//!   it) as a thin driver over a `ServerCore`;
//!   [`socket::SocketChannel::connect`] opens the stand-alone client,
//!   one [`reactor::ReactorChannel`] on a private reactor.
//! * [`reactor`] — the one TCP client type: a single-threaded readiness
//!   [`reactor::Reactor`] owning every worker socket in non-blocking
//!   mode, with incremental frame decoding ([`reactor::FrameDecoder`],
//!   the framer the server uses too). [`reactor::ReactorChannel`] is the
//!   client core over a [`reactor::ReactorLink`] (retry, fault
//!   injection): one request in flight per connection and many shards
//!   in flight at once from one thread.
//! * [`shard`] — [`shard::ShardedChannel`] fans one logical model out
//!   over a pool of workers: particle-range decomposition for state
//!   ops, target scatter–gather for the coupling kick. When every
//!   shard channel reports [`channel::Channel::pipelines`], fan-out
//!   uses the two-phase `submit_*`/`collect_*` API so all K shards
//!   compute concurrently.
//! * [`bridge`] — the Fig 7 combined gravitational/hydro/stellar solver:
//!   kick–drift–kick coupling via the tree-gravity worker, parallel evolve
//!   of gas and stars, and the slower stellar-evolution exchange every
//!   n-th step — plus the fault-tolerant driver (checkpoint, heal,
//!   restore, replay) that removes the paper's §5 limitation.
//! * [`checkpoint`] — the complete solver state as a value:
//!   [`checkpoint::ModelState`] per worker, [`checkpoint::Checkpoint`]
//!   per bridge, and the framed binary container they serialize to,
//!   CRC-guarded per section.
//! * [`chaos`] — the deterministic fault-injection substrate
//!   ([`chaos::FaultPlan`], a pure function of its seed) and the
//!   [`chaos::RetryPolicy`] that lets transient faults be absorbed by
//!   an in-place, sequence-number-deduplicated resend instead of a
//!   checkpoint restore.
//! * [`cluster`] — the embedded-star-cluster experiment of §6: initial
//!   conditions (Plummer stars with a Salpeter IMF inside a Plummer gas
//!   sphere), its physical scales (MSun and Myr per N-body unit), and the
//!   Fig 6 diagnostics (bound-gas fraction, radii).

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub)]

pub mod bridge;
pub mod channel;
pub mod chaos;
pub mod checkpoint;
pub mod cluster;
pub mod host;
pub mod reactor;
pub mod shard;
pub mod socket;
pub mod wire;
pub mod worker;

pub use bridge::{Bridge, BridgeConfig, BridgeError, IterationReport, RecoveryPolicy};
pub use channel::{Channel, ChannelStats, LocalChannel, ThreadChannel};
pub use chaos::{ChaosWriter, FaultKind, FaultPlan, RetryPolicy, StreamFaults};
pub use checkpoint::{Checkpoint, CheckpointError, ModelState, Role};
pub use cluster::EmbeddedCluster;
pub use reactor::{FrameDecoder, Reactor, ReactorChannel};
pub use shard::{ShardSupervisor, ShardedChannel};
pub use socket::{
    spawn_flaky_tcp_worker, spawn_tcp_worker, SocketChannel, WorkerFleet, WorkerServer,
};
pub use wire::WireError;
pub use worker::{
    CouplingWorker, GravityWorker, HydroWorker, ModelWorker, Request, Response, StellarWorker,
};
