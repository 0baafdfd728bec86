//! Sites, hosts, links, firewall policies and routing.

use crate::compute::{CpuSpec, GpuSpec};
use crate::time::SimDuration;
use std::collections::{BinaryHeap, HashMap};

/// Identifies a site (an administrative domain: a cluster, a cloud, a
/// laptop's home network...).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// Identifies a host within the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Identifies a link within the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Connectivity restrictions of a site — the reason SmartSockets exists.
///
/// The paper (§2): "Resources, especially clusters and supercomputers, are
/// usually not designed with communication to the outside world in mind,
/// resulting in non-routed networks, firewalls, NATs, and other restrictions".
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FirewallPolicy {
    /// All connections allowed in both directions.
    #[default]
    Open,
    /// Inbound connection setup is refused; outbound connections work.
    /// (Typical stateful firewall.)
    FirewalledInbound,
    /// Behind a NAT: no inbound connections, and the site's hosts are not
    /// addressable from outside at all (only outbound + relays work).
    Nat,
    /// Compute nodes are on a non-routed internal network; only the
    /// designated front-end host is reachable from outside.
    NonRoutedInternal,
}

/// Description of a site.
#[derive(Clone, Debug)]
pub struct SiteSpec {
    /// Human-readable name, e.g. `"DAS-4 (VU)"`.
    pub name: String,
    /// Connectivity policy applied to inbound connection setup.
    pub firewall: FirewallPolicy,
    /// Geographic label for the monitoring map (e.g. `"Amsterdam, NL"`).
    pub location: String,
}

/// Description of a host.
#[derive(Clone, Debug)]
pub struct HostSpec {
    /// Host name, e.g. `"node042"` or `"fs0.das4.cs.vu.nl"`.
    pub name: String,
    /// Site the host belongs to.
    pub site: SiteId,
    /// CPU description.
    pub cpu: CpuSpec,
    /// Installed accelerators.
    pub gpus: Vec<GpuSpec>,
    /// Memory in GiB (used by the monitoring views).
    pub memory_gib: u32,
    /// True if this host is the site's front-end (reachable under
    /// [`FirewallPolicy::NonRoutedInternal`], and the canonical place to run
    /// a SmartSockets hub).
    pub front_end: bool,
}

impl HostSpec {
    /// Convenience constructor for an ordinary compute node.
    pub fn node(name: impl Into<String>, site: SiteId, cpu: CpuSpec) -> HostSpec {
        HostSpec {
            name: name.into(),
            site,
            cpu,
            gpus: Vec::new(),
            memory_gib: 24,
            front_end: false,
        }
    }

    /// Add a GPU.
    pub fn with_gpu(mut self, gpu: GpuSpec) -> HostSpec {
        self.gpus.push(gpu);
        self
    }

    /// Mark as front-end.
    pub fn as_front_end(mut self) -> HostSpec {
        self.front_end = true;
        self
    }

    /// Set memory size.
    pub fn with_memory_gib(mut self, m: u32) -> HostSpec {
        self.memory_gib = m;
        self
    }
}

/// A bidirectional link between two sites (or a site-internal fabric when
/// both endpoints are the same site).
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: SiteId,
    /// Other endpoint.
    pub b: SiteId,
    /// One-way latency.
    pub latency: SimDuration,
    /// Bandwidth in gigabits per second.
    pub bandwidth_gbps: f64,
    /// Label for reporting, e.g. `"transatlantic 1G lightpath"`.
    pub label: String,
}

/// Result of a connectivity check between two hosts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Connectivity {
    /// A direct connection can be set up.
    Direct,
    /// Direct setup fails, but the target can connect *back* to the source
    /// (the SmartSockets "reverse connection request" works).
    ReverseOnly,
    /// Neither direction works directly; traffic must be relayed via hubs.
    RelayOnly,
    /// The hosts are not connected by any path.
    Unreachable,
}

/// The static description of the jungle: sites, hosts and links, plus
/// latency-weighted shortest-path routing.
#[derive(Default)]
pub struct Topology {
    sites: Vec<SiteSpec>,
    hosts: Vec<HostSpec>,
    links: Vec<LinkSpec>,
    adj: HashMap<SiteId, Vec<(SiteId, LinkId)>>,
    route_cache: HashMap<(SiteId, SiteId), Option<Vec<LinkId>>>,
    /// Loopback parameters used for same-host messages: the daemon↔worker
    /// loopback socket of §5 ("over 8 Gbit/second even on a modest laptop").
    pub loopback_latency: SimDuration,
    /// Loopback bandwidth (gigabit/s).
    pub loopback_gbps: f64,
}

impl Topology {
    /// Empty topology with paper-faithful loopback defaults.
    pub fn new() -> Topology {
        Topology {
            loopback_latency: SimDuration::from_micros(15),
            loopback_gbps: 9.0,
            ..Default::default()
        }
    }

    /// Add a site, returning its id.
    pub fn add_site(
        &mut self,
        name: impl Into<String>,
        location: impl Into<String>,
        firewall: FirewallPolicy,
    ) -> SiteId {
        let id = SiteId(self.sites.len() as u32);
        self.sites.push(SiteSpec { name: name.into(), firewall, location: location.into() });
        id
    }

    /// Add a host, returning its id.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        assert!((spec.site.0 as usize) < self.sites.len(), "unknown site");
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(spec);
        id
    }

    /// Add a link between two sites.
    pub fn add_link(
        &mut self,
        a: SiteId,
        b: SiteId,
        latency: SimDuration,
        bandwidth_gbps: f64,
        label: impl Into<String>,
    ) -> LinkId {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec { a, b, latency, bandwidth_gbps, label: label.into() });
        self.adj.entry(a).or_default().push((b, id));
        self.adj.entry(b).or_default().push((a, id));
        self.route_cache.clear();
        id
    }

    /// Site lookup.
    pub fn site(&self, id: SiteId) -> &SiteSpec {
        &self.sites[id.0 as usize]
    }

    /// Host lookup.
    pub fn host(&self, id: HostId) -> &HostSpec {
        &self.hosts[id.0 as usize]
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.0 as usize]
    }

    /// All sites.
    pub fn sites(&self) -> impl Iterator<Item = (SiteId, &SiteSpec)> {
        self.sites.iter().enumerate().map(|(i, s)| (SiteId(i as u32), s))
    }

    /// All hosts.
    pub fn hosts(&self) -> impl Iterator<Item = (HostId, &HostSpec)> {
        self.hosts.iter().enumerate().map(|(i, h)| (HostId(i as u32), h))
    }

    /// All links.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &LinkSpec)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Latency-weighted shortest route between two sites, as a list of link
    /// ids. `None` if unreachable. Same-site routes are the empty list.
    pub fn route(&mut self, from: SiteId, to: SiteId) -> Option<Vec<LinkId>> {
        if from == to {
            return Some(Vec::new());
        }
        if let Some(cached) = self.route_cache.get(&(from, to)) {
            return cached.clone();
        }
        let result = self.dijkstra(from, to);
        self.route_cache.insert((from, to), result.clone());
        result
    }

    fn dijkstra(&self, from: SiteId, to: SiteId) -> Option<Vec<LinkId>> {
        // Dijkstra over sites with latency weights. Sizes are tiny (tens of
        // sites), so a BinaryHeap with lazy deletion is plenty.
        let mut dist: HashMap<SiteId, u64> = HashMap::new();
        let mut prev: HashMap<SiteId, (SiteId, LinkId)> = HashMap::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, SiteId)>> = BinaryHeap::new();
        dist.insert(from, 0);
        heap.push(std::cmp::Reverse((0, from)));
        while let Some(std::cmp::Reverse((d, s))) = heap.pop() {
            if s == to {
                break;
            }
            if d > *dist.get(&s).unwrap_or(&u64::MAX) {
                continue;
            }
            for &(next, link) in self.adj.get(&s).into_iter().flatten() {
                let nd = d + self.links[link.0 as usize].latency.as_nanos().max(1);
                if nd < *dist.get(&next).unwrap_or(&u64::MAX) {
                    dist.insert(next, nd);
                    prev.insert(next, (s, link));
                    heap.push(std::cmp::Reverse((nd, next)));
                }
            }
        }
        if !prev.contains_key(&to) {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, link) = prev[&cur];
            path.push(link);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// One-way latency of the route between two hosts (loopback latency for
    /// the same host, internal-fabric for the same site).
    pub fn path_latency(&mut self, from: HostId, to: HostId) -> Option<SimDuration> {
        if from == to {
            return Some(self.loopback_latency);
        }
        let (sa, sb) = (self.host(from).site, self.host(to).site);
        let route = self.route(sa, sb)?;
        let mut total = SimDuration::ZERO;
        if route.is_empty() {
            // same site: charge one internal hop if a self-link exists,
            // otherwise a fixed small fabric latency.
            total = self.intra_site_latency(sa);
        } else {
            for l in &route {
                total += self.link(*l).latency;
            }
        }
        Some(total)
    }

    /// Latency of the site-internal fabric: a self-link's latency if one was
    /// declared, else 50 µs (typical cluster interconnect).
    pub fn intra_site_latency(&self, site: SiteId) -> SimDuration {
        self.links
            .iter()
            .find(|l| l.a == site && l.b == site)
            .map(|l| l.latency)
            .unwrap_or(SimDuration::from_micros(50))
    }

    /// Bandwidth (gbps) of the site-internal fabric: self-link if declared,
    /// else 10 Gbit/s.
    pub fn intra_site_gbps(&self, site: SiteId) -> f64 {
        self.links
            .iter()
            .find(|l| l.a == site && l.b == site)
            .map(|l| l.bandwidth_gbps)
            .unwrap_or(10.0)
    }

    /// Can `from` open a connection *to* `to`? Applies the destination
    /// site's firewall policy, and the source's NAT for the reverse check.
    pub fn connectivity(&mut self, from: HostId, to: HostId) -> Connectivity {
        let (fh, th) = (self.host(from).clone(), self.host(to).clone());
        if from == to || fh.site == th.site {
            return Connectivity::Direct;
        }
        if self.route(fh.site, th.site).is_none() {
            return Connectivity::Unreachable;
        }
        let inbound_ok = |policy: FirewallPolicy, host: &HostSpec| match policy {
            FirewallPolicy::Open => true,
            FirewallPolicy::FirewalledInbound | FirewallPolicy::Nat => false,
            FirewallPolicy::NonRoutedInternal => host.front_end,
        };
        let to_policy = self.site(th.site).firewall;
        let from_policy = self.site(fh.site).firewall;
        if inbound_ok(to_policy, &th) {
            Connectivity::Direct
        } else if inbound_ok(from_policy, &fh) {
            // The target can call back to us: reverse connection setup.
            Connectivity::ReverseOnly
        } else {
            Connectivity::RelayOnly
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::CpuSpec;

    fn two_site_topo(policy_b: FirewallPolicy) -> (Topology, HostId, HostId) {
        let mut t = Topology::new();
        let a = t.add_site("A", "here", FirewallPolicy::Open);
        let b = t.add_site("B", "there", policy_b);
        t.add_link(a, b, SimDuration::from_millis(5), 1.0, "wan");
        let ha = t.add_host(HostSpec::node("a0", a, CpuSpec::generic()));
        let hb = t.add_host(HostSpec::node("b0", b, CpuSpec::generic()));
        (t, ha, hb)
    }

    #[test]
    fn open_sites_connect_directly() {
        let (mut t, ha, hb) = two_site_topo(FirewallPolicy::Open);
        assert_eq!(t.connectivity(ha, hb), Connectivity::Direct);
        assert_eq!(t.connectivity(hb, ha), Connectivity::Direct);
    }

    #[test]
    fn firewall_forces_reverse_setup() {
        let (mut t, ha, hb) = two_site_topo(FirewallPolicy::FirewalledInbound);
        assert_eq!(t.connectivity(ha, hb), Connectivity::ReverseOnly);
        // outbound from behind the firewall still works
        assert_eq!(t.connectivity(hb, ha), Connectivity::Direct);
    }

    #[test]
    fn two_firewalls_need_relay() {
        let mut t = Topology::new();
        let a = t.add_site("A", "x", FirewallPolicy::Nat);
        let b = t.add_site("B", "y", FirewallPolicy::FirewalledInbound);
        t.add_link(a, b, SimDuration::from_millis(5), 1.0, "wan");
        let ha = t.add_host(HostSpec::node("a0", a, CpuSpec::generic()));
        let hb = t.add_host(HostSpec::node("b0", b, CpuSpec::generic()));
        assert_eq!(t.connectivity(ha, hb), Connectivity::RelayOnly);
    }

    #[test]
    fn non_routed_exposes_only_front_end() {
        let mut t = Topology::new();
        let a = t.add_site("A", "x", FirewallPolicy::Open);
        let b = t.add_site("B", "y", FirewallPolicy::NonRoutedInternal);
        t.add_link(a, b, SimDuration::from_millis(5), 1.0, "wan");
        let ha = t.add_host(HostSpec::node("a0", a, CpuSpec::generic()));
        let fe = t.add_host(HostSpec::node("fs0", b, CpuSpec::generic()).as_front_end());
        let node = t.add_host(HostSpec::node("b1", b, CpuSpec::generic()));
        assert_eq!(t.connectivity(ha, fe), Connectivity::Direct);
        assert_eq!(t.connectivity(ha, node), Connectivity::ReverseOnly);
    }

    #[test]
    fn routing_prefers_low_latency() {
        let mut t = Topology::new();
        let a = t.add_site("A", "", FirewallPolicy::Open);
        let b = t.add_site("B", "", FirewallPolicy::Open);
        let c = t.add_site("C", "", FirewallPolicy::Open);
        let slow = t.add_link(a, c, SimDuration::from_millis(100), 10.0, "direct-slow");
        let l1 = t.add_link(a, b, SimDuration::from_millis(5), 1.0, "hop1");
        let l2 = t.add_link(b, c, SimDuration::from_millis(5), 1.0, "hop2");
        assert_eq!(t.route(a, c).unwrap(), vec![l1, l2]);
        let _ = slow;
    }

    #[test]
    fn unreachable_site() {
        let mut t = Topology::new();
        let a = t.add_site("A", "", FirewallPolicy::Open);
        let b = t.add_site("B", "", FirewallPolicy::Open);
        let ha = t.add_host(HostSpec::node("a0", a, CpuSpec::generic()));
        let hb = t.add_host(HostSpec::node("b0", b, CpuSpec::generic()));
        assert_eq!(t.connectivity(ha, hb), Connectivity::Unreachable);
        assert_eq!(t.route(a, b), None);
    }

    #[test]
    fn same_host_latency_is_loopback() {
        let (mut t, ha, _) = two_site_topo(FirewallPolicy::Open);
        assert_eq!(t.path_latency(ha, ha), Some(t.loopback_latency));
    }
}
