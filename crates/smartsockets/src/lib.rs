//! # jc-smartsockets — robust connectivity for the jungle
//!
//! Reproduction of SmartSockets (Maassen & Bal, HPDC'07; §3 of the paper):
//! a socket-like layer that transparently solves the connectivity problems
//! of Jungle Computing Systems — firewalls, NATs and non-routed internal
//! networks — using an overlay network of *hubs*.
//!
//! Three connection strategies, tried in order:
//!
//! 1. **Direct** — plain connection setup; works between open sites.
//! 2. **Reverse** — when the target is behind a firewall that admits no
//!    inbound connections, a *reverse connection request* is routed to the
//!    target through the hub overlay; the target then dials back out
//!    through its firewall (outbound traffic is typically allowed).
//! 3. **Relay** — when both ends are fire-walled/NATed, data permanently
//!    flows through the hub overlay.
//!
//! Hubs run on well-connected machines (cluster front-ends) and find each
//! other by anti-entropy gossip ([`hub::HubActor`]). The overlay view used
//! by the IbisDeploy GUI (Fig 10: "Red lines denote ssh tunnels
//! automatically setup, while arrows denote that a connection was only
//! possible in one direction") is rendered from [`overlay::OverlayView`].
//!
//! Connection *establishment* is planned analytically from the topology and
//! charged its modeled setup latency ([`socket::ConnectionPlan`]); data
//! *relay* genuinely flows through hub actors in the event loop. This split
//! keeps the higher layers (the daemon and proxies' IPL traffic) free of
//! handshake state machines while still exercising relay routing, gossip
//! and failure behaviour in the simulator.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod addr;
pub mod hub;
pub mod overlay;
pub mod socket;
pub mod stats;

pub use addr::VirtualAddress;
pub use hub::{HubActor, HubInfo, HubMsg, Relay};
pub use overlay::{EdgeKind, Overlay, OverlayView};
pub use socket::{ConnectionPlan, PathKind, VirtualSocket};
pub use stats::ConnectionStats;
