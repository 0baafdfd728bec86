//! Hub actors: the overlay's routers.
//!
//! "The overlay network provides a way to coordinate communication, and
//! serves as a backup communication medium if required" (§3). Hubs learn
//! about each other by anti-entropy gossip and forward [`Relay`] envelopes
//! hop by hop towards their destination.

use crate::addr::VirtualAddress;
use jc_netsim::metrics::TrafficClass;
use jc_netsim::{Actor, ActorId, Ctx, HostId, Msg, SimDuration};
use rand::Rng;
use std::any::Any;
use std::collections::HashMap;

/// What a hub knows about another hub.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HubInfo {
    /// The hub's actor.
    pub actor: ActorId,
    /// The host it runs on.
    pub host: HostId,
}

/// A data envelope relayed through the overlay.
pub struct Relay {
    /// Final destination actor (a worker proxy, the daemon, ...).
    pub to_actor: ActorId,
    /// Destination address (for routing decisions).
    pub to_addr: VirtualAddress,
    /// Simulated payload size.
    pub bytes: u64,
    /// Traffic class for accounting.
    pub class: TrafficClass,
    /// The actual payload handed to the destination.
    pub inner: Box<dyn Any>,
    /// Remaining hub hops (front of the list is next).
    pub via: Vec<ActorId>,
}

/// Hub protocol messages.
pub enum HubMsg {
    /// Anti-entropy gossip: the sender's current hub list.
    Gossip(Vec<HubInfo>),
    /// Internal timer: run one gossip round.
    GossipTick,
    /// Relay an envelope towards its destination.
    Forward(Relay),
}

/// A SmartSockets hub.
pub struct HubActor {
    /// This hub's identity (set on start).
    me: Option<HubInfo>,
    /// Known hubs (including self once started).
    known: Vec<HubInfo>,
    /// Gossip interval.
    interval: SimDuration,
    /// Number of envelopes forwarded (for the monitoring view).
    forwarded: u64,
    /// Bytes relayed.
    relayed_bytes: u64,
    /// Gossip rounds initiated.
    rounds: u64,
    /// Stop gossiping after this many rounds (0 = forever). Tests and
    /// short-lived deployments set a bound so the event queue drains.
    max_rounds: u64,
    /// Seed hubs to contact on start.
    seeds: Vec<HubInfo>,
    label: String,
    /// Optional shared probe the hub publishes its membership view into,
    /// so tests and the monitoring views can observe convergence without
    /// reaching inside boxed actors. Single-threaded sim ⇒ `Rc<RefCell>`.
    probe: Option<MembershipProbe>,
}

/// Shared observation point for hub membership (see [`HubActor::with_probe`]).
pub type MembershipProbe = std::rc::Rc<std::cell::RefCell<HashMap<ActorId, Vec<HubInfo>>>>;

impl HubActor {
    /// Create a hub that bootstraps from `seeds` and gossips every
    /// `interval` for at most `max_rounds` rounds (0 = forever).
    pub fn new(
        label: impl Into<String>,
        seeds: Vec<HubInfo>,
        interval: SimDuration,
        max_rounds: u64,
    ) -> HubActor {
        HubActor {
            me: None,
            known: Vec::new(),
            interval,
            forwarded: 0,
            relayed_bytes: 0,
            rounds: 0,
            max_rounds,
            seeds,
            label: label.into(),
            probe: None,
        }
    }

    /// Attach a membership probe.
    pub fn with_probe(mut self, probe: MembershipProbe) -> HubActor {
        self.probe = Some(probe);
        self
    }

    fn merge(&mut self, infos: &[HubInfo]) {
        for info in infos {
            if !self.known.iter().any(|k| k.actor == info.actor) {
                self.known.push(*info);
            }
        }
        self.known.sort_by_key(|h| h.actor);
        if let (Some(probe), Some(me)) = (&self.probe, self.me) {
            probe.borrow_mut().insert(me.actor, self.known.clone());
        }
    }

    /// Envelopes forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Bytes relayed so far.
    pub fn relayed_bytes(&self) -> u64 {
        self.relayed_bytes
    }
}

/// Final-delivery wrapper handed to the destination actor of a relay: the
/// destination sees the original inner payload re-wrapped so receivers can
/// treat relayed and direct messages alike by downcasting to their protocol
/// type first and falling back to `Relayed`.
pub struct Relayed {
    /// Originating sender is unknown to the hub; the inner protocol carries
    /// whatever identity it needs.
    pub inner: Box<dyn Any>,
}

/// Downcast a message to `T`, transparently unwrapping one [`Relayed`]
/// envelope if present — receivers treat relayed and direct traffic alike.
pub fn unwrap_message<T: Any>(msg: Msg) -> Result<(Option<ActorId>, T), Msg> {
    match msg.downcast::<T>() {
        Ok(x) => Ok(x),
        Err(m) => match m.downcast::<Relayed>() {
            Ok((from, relayed)) => match relayed.inner.downcast::<T>() {
                Ok(t) => Ok((from, *t)),
                Err(inner) => Err(Msg { from, payload: inner }),
            },
            Err(m) => Err(m),
        },
    }
}

impl Actor for HubActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let me = HubInfo { actor: ctx.id(), host: ctx.host() };
        self.me = Some(me);
        self.known.push(me);
        let seeds = self.seeds.clone();
        self.merge(&seeds);
        // interval == 0 disables gossip entirely (relay-only hub).
        if self.interval != SimDuration::ZERO {
            ctx.schedule_self(self.interval, HubMsg::GossipTick);
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<HubMsg>() {
            Ok((_, m)) => m,
            Err(_) => return, // engine notices and unknown payloads ignored
        };
        match msg {
            HubMsg::Gossip(infos) => {
                self.merge(&infos);
            }
            HubMsg::GossipTick => {
                self.rounds += 1;
                // Push our view to one random known peer (anti-entropy).
                let me = self.me.expect("started");
                let peers: Vec<HubInfo> =
                    self.known.iter().copied().filter(|h| h.actor != me.actor).collect();
                if !peers.is_empty() {
                    let idx = ctx.rng().gen_range(0..peers.len());
                    let peer = peers[idx];
                    // gossip message size: ~32 bytes per entry
                    let bytes = 32 * self.known.len() as u64 + 16;
                    ctx.send_net(
                        peer.actor,
                        bytes,
                        TrafficClass::Control,
                        HubMsg::Gossip(self.known.clone()),
                    );
                }
                if self.max_rounds == 0 || self.rounds < self.max_rounds {
                    ctx.schedule_self(self.interval, HubMsg::GossipTick);
                }
            }
            HubMsg::Forward(mut relay) => {
                self.forwarded += 1;
                self.relayed_bytes += relay.bytes;
                if let Some(next) = relay.via.first().copied() {
                    relay.via.remove(0);
                    ctx.send_net(next, relay.bytes, relay.class, HubMsg::Forward(relay));
                } else {
                    // Last hop: deliver to the destination actor.
                    let to = relay.to_actor;
                    let bytes = relay.bytes;
                    let class = relay.class;
                    ctx.send_net(to, bytes, class, Relayed { inner: relay.inner });
                }
            }
        }
    }

    fn name(&self) -> String {
        format!("hub:{}", self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jc_netsim::compute::CpuSpec;
    use jc_netsim::topology::HostSpec;
    use jc_netsim::{FirewallPolicy, Sim, SimConfig, Topology};

    fn line_topology(n: usize) -> (Topology, Vec<HostId>) {
        let mut t = Topology::new();
        let mut hosts = Vec::new();
        let mut prev = None;
        for i in 0..n {
            let s = t.add_site(format!("S{i}"), "", FirewallPolicy::Open);
            if let Some(p) = prev {
                t.add_link(p, s, SimDuration::from_millis(2), 1.0, "l");
            }
            hosts.push(
                t.add_host(HostSpec::node(format!("h{i}"), s, CpuSpec::generic()).as_front_end()),
            );
            prev = Some(s);
        }
        (t, hosts)
    }

    #[test]
    fn gossip_converges_to_full_membership() {
        let (topo, hosts) = line_topology(5);
        let mut sim = Sim::new(topo, SimConfig::default());
        let probe: MembershipProbe = Default::default();
        // First hub is the seed for all others.
        let seed_host = hosts[0];
        let seed = sim.add_actor(
            seed_host,
            Box::new(
                HubActor::new("seed", vec![], SimDuration::from_millis(50), 40)
                    .with_probe(probe.clone()),
            ),
        );
        let seed_info = HubInfo { actor: seed, host: seed_host };
        for (i, &h) in hosts.iter().enumerate().skip(1) {
            sim.add_actor(
                h,
                Box::new(
                    HubActor::new(
                        format!("hub{i}"),
                        vec![seed_info],
                        SimDuration::from_millis(50),
                        40,
                    )
                    .with_probe(probe.clone()),
                ),
            );
        }
        sim.run_to_quiescence(100_000);
        let views = probe.borrow();
        assert_eq!(views.len(), 5, "all hubs published a view");
        for (hub, known) in views.iter() {
            assert_eq!(known.len(), 5, "hub {hub:?} knows {} of 5 hubs", known.len());
        }
        assert!(sim.metrics().messages_sent() > 10);
    }

    #[test]
    fn relay_chain_delivers_to_destination() {
        struct Sink {
            got: std::rc::Rc<std::cell::Cell<u64>>,
        }
        impl Actor for Sink {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
                if let Ok((_, r)) = msg.downcast::<Relayed>() {
                    if let Ok(v) = r.inner.downcast::<u64>() {
                        self.got.set(*v);
                    }
                }
            }
        }
        let (topo, hosts) = line_topology(3);
        let mut sim = Sim::new(topo, SimConfig::default());
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let sink = sim.add_actor(hosts[2], Box::new(Sink { got: got.clone() }));
        let hub_b = sim.add_actor(
            hosts[1],
            Box::new(HubActor::new("b", vec![], SimDuration::from_millis(50), 0)),
        );
        let hub_a = sim.add_actor(
            hosts[0],
            Box::new(HubActor::new("a", vec![], SimDuration::from_millis(50), 0)),
        );
        // Inject an envelope at hub_a routed via hub_b to the sink.
        sim.post(
            hub_a,
            HubMsg::Forward(Relay {
                to_actor: sink,
                to_addr: VirtualAddress::new(hosts[2], 1),
                bytes: 1024,
                class: TrafficClass::Ipl,
                inner: Box::new(99u64),
                via: vec![hub_b],
            }),
            SimDuration::ZERO,
        );
        // Hubs with max_rounds=0 and a 50 ms interval gossip forever; run
        // bounded events.
        sim.run_until(jc_netsim::SimTime(1_000_000_000));
        assert_eq!(got.get(), 99);
    }
}
