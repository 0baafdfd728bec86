//! Traffic and load accounting for the monitoring views (Figs 10 & 11).
//!
//! The SC11 demonstration visualized, per site: IPL traffic (blue), MPI
//! traffic (orange), machine load (red bars) and memory usage (blue bars).
//! This module collects the counters those views are rendered from.

use crate::time::SimDuration;
use crate::topology::{HostId, LinkId};
use std::collections::HashMap;

/// Traffic class, used to separate middleware traffic in the visualization.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TrafficClass {
    /// Wide-area IPL messages (daemon ↔ proxies).
    Ipl,
    /// Intra-worker MPI traffic.
    Mpi,
    /// SmartSockets control traffic (hub gossip, connection setup).
    Control,
    /// File staging (GAT pre/post-stage).
    Staging,
    /// Anything else.
    Other,
}

impl TrafficClass {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Ipl => "IPL",
            TrafficClass::Mpi => "MPI",
            TrafficClass::Control => "CTRL",
            TrafficClass::Staging => "STAGE",
            TrafficClass::Other => "OTHER",
        }
    }
}

/// Per-link, per-class byte and message counters plus per-host busy time.
#[derive(Default)]
pub struct Metrics {
    link_bytes: HashMap<(LinkId, TrafficClass), u64>,
    link_messages: HashMap<(LinkId, TrafficClass), u64>,
    host_busy: HashMap<HostId, SimDuration>,
    host_mem_used_mib: HashMap<HostId, u64>,
    messages_sent: u64,
    messages_dropped: u64,
}

impl Metrics {
    /// Record a message crossing a link.
    pub fn record_link(&mut self, link: LinkId, class: TrafficClass, bytes: u64) {
        *self.link_bytes.entry((link, class)).or_default() += bytes;
        *self.link_messages.entry((link, class)).or_default() += 1;
    }

    /// Record a sent message (any route).
    pub fn record_send(&mut self) {
        self.messages_sent += 1;
    }

    /// Record a message dropped because its destination host was down.
    pub fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }

    /// Add busy (computing) time to a host, for the load bars.
    pub fn add_host_busy(&mut self, host: HostId, d: SimDuration) {
        *self.host_busy.entry(host).or_default() += d;
    }

    /// Set the memory-in-use figure for a host.
    pub fn set_host_memory(&mut self, host: HostId, mib: u64) {
        self.host_mem_used_mib.insert(host, mib);
    }

    /// Total bytes over a link for a class.
    pub fn link_bytes(&self, link: LinkId, class: TrafficClass) -> u64 {
        self.link_bytes.get(&(link, class)).copied().unwrap_or(0)
    }

    /// Message count over a link for a class.
    pub fn link_messages(&self, link: LinkId, class: TrafficClass) -> u64 {
        self.link_messages.get(&(link, class)).copied().unwrap_or(0)
    }

    /// Accumulated busy time for a host.
    pub fn host_busy(&self, host: HostId) -> SimDuration {
        self.host_busy.get(&host).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Memory-in-use for a host (MiB), if reported.
    pub fn host_memory_mib(&self, host: HostId) -> Option<u64> {
        self.host_mem_used_mib.get(&host).copied()
    }

    /// Load of a host over a window: busy / window, clamped to [0, 1].
    pub fn host_load(&self, host: HostId, window: SimDuration) -> f64 {
        if window == SimDuration::ZERO {
            return 0.0;
        }
        (self.host_busy(host).as_secs_f64() / window.as_secs_f64()).min(1.0)
    }

    /// Total messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total messages dropped (destination down).
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Iterate (link, class, bytes) triples, deterministically sorted.
    pub fn link_traffic(&self) -> Vec<(LinkId, TrafficClass, u64)> {
        let mut v: Vec<_> = self.link_bytes.iter().map(|(&(l, c), &b)| (l, c, b)).collect();
        v.sort_by_key(|&(l, c, _)| (l, c.label()));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        let l = LinkId(0);
        m.record_link(l, TrafficClass::Ipl, 100);
        m.record_link(l, TrafficClass::Ipl, 50);
        m.record_link(l, TrafficClass::Mpi, 25);
        assert_eq!(m.link_bytes(l, TrafficClass::Ipl), 150);
        assert_eq!(m.link_messages(l, TrafficClass::Ipl), 2);
        assert_eq!(m.link_bytes(l, TrafficClass::Mpi), 25);
    }

    #[test]
    fn host_load_is_fraction_of_window() {
        let mut m = Metrics::default();
        let h = HostId(3);
        m.add_host_busy(h, SimDuration::from_secs(2));
        assert!((m.host_load(h, SimDuration::from_secs(4)) - 0.5).abs() < 1e-12);
        assert_eq!(m.host_load(h, SimDuration::ZERO), 0.0);
        // load clamps at 1
        assert_eq!(m.host_load(h, SimDuration::from_secs(1)), 1.0);
    }

    #[test]
    fn traffic_listing_sorted() {
        let mut m = Metrics::default();
        m.record_link(LinkId(1), TrafficClass::Mpi, 10);
        m.record_link(LinkId(0), TrafficClass::Ipl, 20);
        let t = m.link_traffic();
        assert_eq!(t[0].0, LinkId(0));
        assert_eq!(t[1].0, LinkId(1));
    }
}
