//! Virtual sockets: planned connections over the jungle.
//!
//! A [`ConnectionPlan`] decides — from the firewall policies along the path
//! and the deployed hub overlay — *how* a connection between two endpoints
//! is realised, and what its setup cost is. A [`VirtualSocket`] then sends
//! data along the planned path: directly, or as [`Relay`] envelopes through
//! the hub chain.

use crate::addr::VirtualAddress;
use crate::hub::{HubMsg, Relay};
use crate::overlay::Overlay;
use jc_netsim::metrics::TrafficClass;
use jc_netsim::{ActorId, Connectivity, Ctx, SimDuration, Topology};
use std::any::Any;

/// How the connection is realised.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PathKind {
    /// Plain direct connection.
    Direct,
    /// Reverse connection setup (hub-mediated control, then direct data).
    Reverse,
    /// All data relayed through the hub chain.
    Relayed {
        /// Hub actors on the path, in forwarding order.
        via: Vec<ActorId>,
    },
    /// No way to reach the target (no physical route, or relay needed but
    /// no hubs deployed).
    Failed,
}

/// A planned connection between two endpoints.
#[derive(Clone, Debug)]
pub struct ConnectionPlan {
    /// Local endpoint.
    pub from: VirtualAddress,
    /// Remote endpoint.
    pub to: VirtualAddress,
    /// How data will flow.
    pub kind: PathKind,
    /// Modeled connection-establishment latency (handshakes, reverse
    /// requests, hub registration).
    pub setup_latency: SimDuration,
}

impl ConnectionPlan {
    /// Plan a connection from `from` to `to` given the topology and the
    /// deployed overlay. Mirrors SmartSockets' strategy order:
    /// direct → reverse → relay.
    pub fn plan(
        topo: &mut Topology,
        overlay: Option<&Overlay>,
        from: VirtualAddress,
        to: VirtualAddress,
    ) -> ConnectionPlan {
        let one_way = |topo: &mut Topology| {
            topo.path_latency(from.host, to.host).unwrap_or(SimDuration::ZERO)
        };
        match topo.connectivity(from.host, to.host) {
            Connectivity::Direct => {
                // One round trip of connection setup (SYN + ACK).
                let lat = one_way(topo);
                ConnectionPlan { from, to, kind: PathKind::Direct, setup_latency: lat * 2 }
            }
            Connectivity::ReverseOnly => {
                // The reverse request travels via the overlay to the target,
                // which then dials back (another RTT). Without hubs the
                // reverse request cannot be delivered.
                if overlay.is_none() {
                    return ConnectionPlan {
                        from,
                        to,
                        kind: PathKind::Failed,
                        setup_latency: SimDuration::ZERO,
                    };
                }
                let lat = one_way(topo);
                ConnectionPlan { from, to, kind: PathKind::Reverse, setup_latency: lat * 4 }
            }
            Connectivity::RelayOnly => {
                let Some(overlay) = overlay else {
                    return ConnectionPlan {
                        from,
                        to,
                        kind: PathKind::Failed,
                        setup_latency: SimDuration::ZERO,
                    };
                };
                let fs = topo.host(from.host).site;
                let ts = topo.host(to.host).site;
                let route = overlay.relay_route(fs, ts);
                if route.is_empty() {
                    return ConnectionPlan {
                        from,
                        to,
                        kind: PathKind::Failed,
                        setup_latency: SimDuration::ZERO,
                    };
                }
                let lat = one_way(topo);
                ConnectionPlan {
                    from,
                    to,
                    kind: PathKind::Relayed { via: route.iter().map(|h| h.actor).collect() },
                    setup_latency: lat * 2,
                }
            }
            Connectivity::Unreachable => ConnectionPlan {
                from,
                to,
                kind: PathKind::Failed,
                setup_latency: SimDuration::ZERO,
            },
        }
    }

    /// Did planning succeed?
    pub fn is_usable(&self) -> bool {
        self.kind != PathKind::Failed
    }
}

/// An established virtual connection to a remote actor.
pub struct VirtualSocket {
    plan: ConnectionPlan,
    /// The destination actor messages are delivered to.
    pub remote_actor: ActorId,
    /// Bytes sent so far.
    pub bytes_sent: u64,
    /// Messages sent so far.
    pub messages_sent: u64,
}

impl VirtualSocket {
    /// Wrap a plan and its destination actor. Panics on unusable plans —
    /// callers must check [`ConnectionPlan::is_usable`] first (mirroring a
    /// connect() error).
    pub fn new(plan: ConnectionPlan, remote_actor: ActorId) -> VirtualSocket {
        assert!(plan.is_usable(), "cannot open socket on failed plan");
        VirtualSocket { plan, remote_actor, bytes_sent: 0, messages_sent: 0 }
    }

    /// The plan this socket follows.
    pub fn plan(&self) -> &ConnectionPlan {
        &self.plan
    }

    /// Send a payload of simulated size `bytes`: directly, or wrapped in
    /// [`Relay`] envelopes through the planned hub chain.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, bytes: u64, class: TrafficClass, payload: impl Any) {
        self.bytes_sent += bytes;
        self.messages_sent += 1;
        match &self.plan.kind {
            PathKind::Direct | PathKind::Reverse => {
                ctx.send_net(self.remote_actor, bytes, class, payload);
            }
            PathKind::Relayed { via } => {
                let mut chain = via.clone();
                let first = chain.remove(0);
                ctx.send_net(
                    first,
                    bytes,
                    class,
                    HubMsg::Forward(Relay {
                        to_actor: self.remote_actor,
                        to_addr: self.plan.to,
                        bytes,
                        class,
                        inner: Box::new(payload),
                        via: chain,
                    }),
                );
            }
            PathKind::Failed => unreachable!("checked in constructor"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jc_netsim::compute::CpuSpec;
    use jc_netsim::topology::HostSpec;
    use jc_netsim::{FirewallPolicy, HostId, Sim, SimConfig};

    fn topo3() -> (Topology, Vec<HostId>, Vec<jc_netsim::SiteId>) {
        let mut t = Topology::new();
        let a = t.add_site("A", "", FirewallPolicy::Open);
        let b = t.add_site("B", "", FirewallPolicy::FirewalledInbound);
        let c = t.add_site("C", "", FirewallPolicy::Nat);
        t.add_link(a, b, SimDuration::from_millis(5), 1.0, "ab");
        t.add_link(a, c, SimDuration::from_millis(5), 1.0, "ac");
        t.add_link(b, c, SimDuration::from_millis(5), 1.0, "bc");
        let ha = t.add_host(HostSpec::node("ha", a, CpuSpec::generic()).as_front_end());
        let hb = t.add_host(HostSpec::node("hb", b, CpuSpec::generic()).as_front_end());
        let hc = t.add_host(HostSpec::node("hc", c, CpuSpec::generic()).as_front_end());
        (t, vec![ha, hb, hc], vec![a, b, c])
    }

    #[test]
    fn plans_follow_strategy_order() {
        let (mut t, h, _) = topo3();
        let a = VirtualAddress::new(h[0], 1);
        let b = VirtualAddress::new(h[1], 1);
        // a -> b is firewalled at b: reverse (overlay present but unused for
        // latency here). Fake overlay via None => reverse becomes Failed.
        let p = ConnectionPlan::plan(&mut t, None, a, b);
        assert_eq!(p.kind, PathKind::Failed);
        // b -> a outbound works: direct.
        let p = ConnectionPlan::plan(&mut t, None, b, a);
        assert_eq!(p.kind, PathKind::Direct);
        assert_eq!(p.setup_latency, SimDuration::from_millis(10));
    }

    #[test]
    fn relay_plan_and_delivery() {
        struct Sink(std::rc::Rc<std::cell::Cell<u32>>);
        impl jc_netsim::Actor for Sink {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: jc_netsim::Msg) {
                if let Ok((_, v)) = crate::hub::unwrap_message::<u32>(msg) {
                    self.0.set(v);
                }
            }
        }
        struct Sender {
            sock: Option<VirtualSocket>,
        }
        impl jc_netsim::Actor for Sender {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: jc_netsim::Msg) {
                if let Some(s) = self.sock.as_mut() {
                    s.send(ctx, 512, TrafficClass::Ipl, 7u32);
                }
            }
        }

        let (t, h, sites) = topo3();
        let mut sim = Sim::new(t, SimConfig::default());
        let overlay = Overlay::deploy(
            &mut sim,
            &[(sites[0], h[0]), (sites[1], h[1]), (sites[2], h[2])],
            SimDuration::from_millis(10),
            3,
        );
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let sink = sim.add_actor(h[2], Box::new(Sink(got.clone())));
        // b (firewalled) -> c (NAT): relay only.
        let from = VirtualAddress::new(h[1], 5);
        let to = VirtualAddress::new(h[2], 5);
        let plan = ConnectionPlan::plan(sim.topology(), Some(&overlay), from, to);
        assert!(matches!(plan.kind, PathKind::Relayed { .. }), "{plan:?}");
        let sock = VirtualSocket::new(plan, sink);
        let sender = sim.add_actor(h[1], Box::new(Sender { sock: Some(sock) }));
        sim.post(sender, (), SimDuration::ZERO);
        sim.run_to_quiescence(100_000);
        assert_eq!(got.get(), 7);
    }

    #[test]
    fn reverse_plan_with_overlay() {
        let (t, h, sites) = topo3();
        let mut sim = Sim::new(t, SimConfig::default());
        let overlay = Overlay::deploy(
            &mut sim,
            &[(sites[0], h[0]), (sites[1], h[1])],
            SimDuration::from_millis(10),
            2,
        );
        let from = VirtualAddress::new(h[0], 2);
        let to = VirtualAddress::new(h[1], 2);
        let plan = ConnectionPlan::plan(sim.topology(), Some(&overlay), from, to);
        assert_eq!(plan.kind, PathKind::Reverse);
        // 4 one-way latencies of 5ms
        assert_eq!(plan.setup_latency, SimDuration::from_millis(20));
    }
}
