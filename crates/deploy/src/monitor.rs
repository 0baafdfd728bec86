//! Text renditions of the IbisDeploy GUI panels (Figs 10 & 11).
//!
//! The SC11 demonstration showed four views: the resource map (resources on
//! a map of the Netherlands), the job list, the SmartSockets overlay, and a
//! 3D traffic visualization with per-site load (red) and memory (blue) bars
//! where "IPL traffic is shown in blue, while MPI traffic is shown in
//! orange". This module renders the map, the job list and the traffic
//! view as plain text so examples and the figure binaries can print them;
//! the overlay renders itself (`jc_smartsockets::OverlayView::render`).

use jc_gat::{GatRealm, JobState};
use jc_netsim::metrics::{Metrics, TrafficClass};
use jc_netsim::{SimDuration, Topology};

/// One row of the job table.
#[derive(Clone, Debug)]
pub struct JobRow {
    /// Worker/job name.
    pub name: String,
    /// Resource it was submitted to.
    pub resource: String,
    /// Nodes in use.
    pub nodes: u32,
    /// Current state.
    pub state: JobState,
}

/// Collects the pieces the dashboard renders from.
pub struct MonitorView<'a> {
    /// The world's topology.
    pub topo: &'a mut Topology,
    /// Traffic and load counters.
    pub metrics: &'a Metrics,
    /// Window over which host load is averaged.
    pub window: SimDuration,
}

impl<'a> MonitorView<'a> {
    /// Fig 10, top-left: available resources grouped by location.
    pub fn render_resource_map(&mut self, realm: &GatRealm) -> String {
        let mut out = String::from("Resources:\n");
        for name in realm.names() {
            let r = realm.resource(&name).expect("listed");
            let site = self.topo.site(r.site);
            out.push_str(&format!(
                "  [{}] {} — {} node(s), middleware head present\n",
                site.location,
                name,
                r.nodes.len()
            ));
        }
        out
    }

    /// Fig 10, bottom half: the job table.
    pub fn render_jobs(&self, jobs: &[JobRow]) -> String {
        let mut out = String::from("Jobs:\n");
        out.push_str(&format!("  {:<18} {:<16} {:>5}  {}\n", "NAME", "RESOURCE", "NODES", "STATE"));
        for j in jobs {
            out.push_str(&format!(
                "  {:<18} {:<16} {:>5}  {:?}\n",
                j.name, j.resource, j.nodes, j.state
            ));
        }
        out
    }

    /// Fig 11: traffic per WAN link (IPL blue / MPI orange in the paper;
    /// here labeled columns) plus load/memory bars per host.
    pub fn render_traffic(&mut self) -> String {
        let mut out = String::from("Link traffic (bytes):\n");
        out.push_str(&format!(
            "  {:<34} {:>12} {:>12} {:>12} {:>12}\n",
            "LINK", "IPL", "MPI", "CTRL", "STAGE"
        ));
        let links: Vec<(jc_netsim::LinkId, String)> = self
            .topo
            .links()
            .map(|(id, l)| {
                let label =
                    if l.label.is_empty() { format!("link{}", id.0) } else { l.label.clone() };
                (id, label)
            })
            .collect();
        for (id, label) in links {
            let ipl = self.metrics.link_bytes(id, TrafficClass::Ipl);
            let mpi = self.metrics.link_bytes(id, TrafficClass::Mpi);
            let ctl = self.metrics.link_bytes(id, TrafficClass::Control);
            let stg = self.metrics.link_bytes(id, TrafficClass::Staging);
            if ipl + mpi + ctl + stg == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<34} {:>12} {:>12} {:>12} {:>12}\n",
                label, ipl, mpi, ctl, stg
            ));
        }
        out.push_str("Host load (red) / memory (blue):\n");
        let hosts: Vec<(jc_netsim::HostId, String, u32)> =
            self.topo.hosts().map(|(id, h)| (id, h.name.clone(), h.memory_gib)).collect();
        for (id, name, mem_gib) in hosts {
            let load = self.metrics.host_load(id, self.window);
            if load == 0.0 && self.metrics.host_memory_mib(id).is_none() {
                continue;
            }
            let bar_len = (load * 20.0).round() as usize;
            let mem = self
                .metrics
                .host_memory_mib(id)
                .map(|m| format!("{m} MiB/{mem_gib} GiB"))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "  {:<24} load [{:<20}] {:>5.1}%  mem {}\n",
                name,
                "#".repeat(bar_len),
                load * 100.0,
                mem
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jc_netsim::compute::CpuSpec;
    use jc_netsim::topology::HostSpec;
    use jc_netsim::{FirewallPolicy, Sim, SimConfig};

    #[test]
    fn render_views_contain_expected_rows() {
        let mut topo = Topology::new();
        let s = topo.add_site("VU", "Amsterdam", FirewallPolicy::Open);
        let link = topo.add_link(s, s, SimDuration::from_micros(50), 10.0, "VU fabric");
        let h = topo.add_host(HostSpec::node("fs.VU", s, CpuSpec::generic()).as_front_end());
        let mut sim = Sim::new(topo, SimConfig::default());
        let mut realm = GatRealm::new();
        realm.install(&mut sim, "VU", s, h, vec![h], vec![jc_gat::MiddlewareKind::Ssh]);

        // fabricate some metrics
        let mut metrics = Metrics::default();
        metrics.record_link(link, TrafficClass::Ipl, 4096);
        metrics.record_link(link, TrafficClass::Mpi, 1024);
        metrics.add_host_busy(h, SimDuration::from_secs(5));
        metrics.set_host_memory(h, 2048);

        let mut view = MonitorView {
            topo: sim.topology(),
            metrics: &metrics,
            window: SimDuration::from_secs(10),
        };
        let map = view.render_resource_map(&realm);
        assert!(map.contains("[Amsterdam] VU"), "{map}");

        let jobs = view.render_jobs(&[JobRow {
            name: "gadget".into(),
            resource: "VU".into(),
            nodes: 8,
            state: JobState::Running,
        }]);
        assert!(jobs.contains("gadget") && jobs.contains("Running"), "{jobs}");

        let traffic = view.render_traffic();
        assert!(traffic.contains("VU fabric"), "{traffic}");
        assert!(traffic.contains("4096"), "{traffic}");
        assert!(traffic.contains("50.0%"), "{traffic}");
        assert!(traffic.contains("2048 MiB"), "{traffic}");
    }
}
