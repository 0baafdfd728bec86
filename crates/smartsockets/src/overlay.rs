//! Overlay management: hub placement, relay routing and the Fig-10 view.
//!
//! IbisDeploy "automatically starts the hubs required by SmartSockets on
//! each resource used" (§3); [`Overlay::deploy`] is that automation: one hub
//! per site, placed on the site's front-end host, all seeded from the first
//! hub (the one next to the user's coupler).

use crate::hub::{HubActor, HubInfo, MembershipProbe};
use jc_netsim::topology::{SiteId, Topology};
use jc_netsim::{Connectivity, HostId, Sim, SimDuration};
use std::collections::HashMap;

/// How a hub↔hub overlay edge is realised — the legend of Fig 10.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// Normal connection, both directions possible.
    Bidirectional,
    /// Connection possible in one direction only (drawn as an arrow in the
    /// IbisDeploy GUI, "possibly due to a firewall or NAT").
    OneWay,
    /// Automatically created SSH tunnel (drawn as a red line): direct setup
    /// failed both ways but the peer's front-end accepts SSH.
    SshTunnel,
    /// No pairwise connectivity at all; traffic between these hubs is
    /// itself relayed via a third hub.
    Indirect,
}

/// A deployed overlay: one hub per participating site.
pub struct Overlay {
    hubs: Vec<HubInfo>,
    by_site: HashMap<SiteId, HubInfo>,
    probe: MembershipProbe,
}

impl Overlay {
    /// Start one hub per `(site, host)` pair inside the simulation. The
    /// first entry seeds the others (in IbisDeploy this is the hub started
    /// next to the user's client machine).
    pub fn deploy(
        sim: &mut Sim,
        placements: &[(SiteId, HostId)],
        gossip_interval: SimDuration,
        gossip_rounds: u64,
    ) -> Overlay {
        assert!(!placements.is_empty(), "overlay needs at least one hub");
        let probe: MembershipProbe = Default::default();
        let mut hubs = Vec::new();
        let mut by_site = HashMap::new();
        let mut seed: Option<HubInfo> = None;
        for (site, host) in placements {
            let seeds = seed.into_iter().collect();
            let actor = sim.add_actor(
                *host,
                Box::new(
                    HubActor::new(seeds, gossip_interval, gossip_rounds).with_probe(probe.clone()),
                ),
            );
            let info = HubInfo { actor, host: *host };
            if seed.is_none() {
                seed = Some(info);
            }
            hubs.push(info);
            by_site.insert(*site, info);
        }
        Overlay { hubs, by_site, probe }
    }

    /// All hubs.
    pub fn hubs(&self) -> &[HubInfo] {
        &self.hubs
    }

    /// The hub serving a site.
    pub fn hub_for(&self, site: SiteId) -> Option<HubInfo> {
        self.by_site.get(&site).copied()
    }

    /// The membership probe (for convergence checks).
    pub fn probe(&self) -> &MembershipProbe {
        &self.probe
    }

    /// True once every hub knows every other hub.
    pub fn converged(&self) -> bool {
        let views = self.probe.borrow();
        self.hubs.len() <= 1
            || (views.len() == self.hubs.len()
                && views.values().all(|v| v.len() == self.hubs.len()))
    }

    /// The hub chain for relaying data from `from_site` to `to_site`:
    /// source-side hub first, then the target-side hub (omitted when they
    /// coincide). Returns an empty chain when either site has no hub.
    pub fn relay_route(&self, from_site: SiteId, to_site: SiteId) -> Vec<HubInfo> {
        match (self.hub_for(from_site), self.hub_for(to_site)) {
            (Some(a), Some(b)) if a.actor == b.actor => vec![a],
            (Some(a), Some(b)) => vec![a, b],
            _ => Vec::new(),
        }
    }

    /// Classify every hub pair for the monitoring view.
    pub fn view(&self, topo: &mut Topology) -> OverlayView {
        let mut edges = Vec::new();
        for (i, a) in self.hubs.iter().enumerate() {
            for b in self.hubs.iter().skip(i + 1) {
                let ab = topo.connectivity(a.host, b.host);
                let ba = topo.connectivity(b.host, a.host);
                let kind = match (ab, ba) {
                    (Connectivity::Direct, Connectivity::Direct) => EdgeKind::Bidirectional,
                    (Connectivity::Direct, _) | (_, Connectivity::Direct) => EdgeKind::OneWay,
                    _ => {
                        // SmartSockets falls back to ssh tunnels when a
                        // front-end still runs sshd.
                        if topo.host(a.host).front_end || topo.host(b.host).front_end {
                            EdgeKind::SshTunnel
                        } else {
                            EdgeKind::Indirect
                        }
                    }
                };
                edges.push(OverlayEdge {
                    a: topo.host(a.host).name.clone(),
                    b: topo.host(b.host).name.clone(),
                    kind,
                });
            }
        }
        OverlayView { edges }
    }
}

/// One classified hub↔hub edge.
#[derive(Clone, Debug)]
pub struct OverlayEdge {
    /// Host name of one hub.
    pub a: String,
    /// Host name of the other hub.
    pub b: String,
    /// How the edge is realised.
    pub kind: EdgeKind,
}

/// The hub mesh as IbisDeploy's GUI would draw it (Fig 10, top-right).
#[derive(Clone, Debug)]
pub struct OverlayView {
    /// All hub pairs with their edge classification.
    pub edges: Vec<OverlayEdge>,
}

impl OverlayView {
    /// Render an ASCII rendition of the overlay.
    pub fn render(&self) -> String {
        let mut out = String::from("SmartSockets overlay:\n");
        for e in &self.edges {
            let marker = match e.kind {
                EdgeKind::Bidirectional => "<-->",
                EdgeKind::OneWay => "--->",
                EdgeKind::SshTunnel => "<=ssh=>",
                EdgeKind::Indirect => "~~~~",
            };
            out.push_str(&format!("  {} {} {}\n", e.a, marker, e.b));
        }
        out
    }

    /// Count edges of a kind.
    pub fn count(&self, kind: EdgeKind) -> usize {
        self.edges.iter().filter(|e| e.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jc_netsim::compute::CpuSpec;
    use jc_netsim::topology::HostSpec;
    use jc_netsim::{FirewallPolicy, SimConfig};

    fn jungle() -> (Sim, Vec<(SiteId, HostId)>) {
        let mut t = Topology::new();
        let open = t.add_site("open", "A'dam", FirewallPolicy::Open);
        let fw = t.add_site("firewalled", "Delft", FirewallPolicy::FirewalledInbound);
        let nat = t.add_site("nat", "Leiden", FirewallPolicy::Nat);
        t.add_link(open, fw, SimDuration::from_millis(1), 10.0, "l1");
        t.add_link(open, nat, SimDuration::from_millis(1), 10.0, "l2");
        t.add_link(fw, nat, SimDuration::from_millis(1), 10.0, "l3");
        let h_open = t.add_host(HostSpec::node("fs-open", open, CpuSpec::generic()).as_front_end());
        let h_fw = t.add_host(HostSpec::node("fs-fw", fw, CpuSpec::generic()).as_front_end());
        let h_nat = t.add_host(HostSpec::node("fs-nat", nat, CpuSpec::generic()).as_front_end());
        let placements = vec![(open, h_open), (fw, h_fw), (nat, h_nat)];
        (Sim::new(t, SimConfig::default()), placements)
    }

    #[test]
    fn deploy_and_converge() {
        let (mut sim, placements) = jungle();
        let overlay = Overlay::deploy(&mut sim, &placements, SimDuration::from_millis(20), 30);
        sim.run_to_quiescence(1_000_000);
        assert!(overlay.converged(), "gossip should converge");
    }

    #[test]
    fn view_classifies_edges() {
        let (mut sim, placements) = jungle();
        let overlay = Overlay::deploy(&mut sim, &placements, SimDuration::from_millis(20), 1);
        sim.run_to_quiescence(10_000);
        let view = overlay.view(sim.topology());
        // open<->fw: open can't dial in, fw can dial out => OneWay
        // open<->nat: OneWay; fw<->nat: no direction works; front-ends
        // present => SshTunnel
        assert_eq!(view.count(EdgeKind::OneWay), 2, "{}", view.render());
        assert_eq!(view.count(EdgeKind::SshTunnel), 1, "{}", view.render());
    }

    #[test]
    fn relay_route_endpoints() {
        let (mut sim, placements) = jungle();
        let overlay = Overlay::deploy(&mut sim, &placements, SimDuration::from_millis(20), 1);
        let r = overlay.relay_route(placements[1].0, placements[2].0);
        assert_eq!(r.len(), 2);
        let same = overlay.relay_route(placements[0].0, placements[0].0);
        assert_eq!(same.len(), 1);
    }

    #[test]
    fn single_hub_overlay_is_trivially_converged() {
        let (mut sim, placements) = jungle();
        let overlay = Overlay::deploy(&mut sim, &placements[..1], SimDuration::from_millis(20), 1);
        sim.run_to_quiescence(10_000);
        assert!(overlay.converged());
    }
}
