//! The Ibis channel is the client core over a simulated link: across a
//! two-host jungle it answers, byte for byte and call for call, what the
//! in-process channel answers for the same worker.
//!
//! Both channels book the real frame bytes in their `ChannelStats`. The
//! production-scaled bytes (frame length × `byte_scale`) are what the
//! simulated network carries, in the WAN link's `Ipl` traffic.

use jc_amuse::cluster::EmbeddedCluster;
use jc_amuse::worker::{ModelWorker, ParticleData, Request, Response};
use jc_amuse::{Channel, LocalChannel};
use jc_core::daemon::RegisterWorker;
use jc_core::proxy::BusyLedger;
use jc_core::{IbisChannel, IbisDaemon, ModelKind, PerfProfile, SimLink, WorkerId, WorkerProxy};
use jc_netsim::compute::CpuSpec;
use jc_netsim::metrics::TrafficClass;
use jc_netsim::{FirewallPolicy, HostId, HostSpec, Sim, SimConfig, SimDuration, Topology};
use std::cell::RefCell;
use std::rc::Rc;

/// Toy payload → production payload, on both legs of the link.
const SCALE: f64 = 100.0;

/// One worker across a WAN link: the daemon on the coupler's host (no
/// overlay), the worker's proxy on the other site's host. Returns the
/// channel, the simulator and the worker's host.
fn across_the_jungle(worker: Box<dyn ModelWorker>) -> (IbisChannel, Rc<RefCell<Sim>>, HostId) {
    let mut topo = Topology::new();
    let here = topo.add_site("coupler", "Amsterdam, NL", FirewallPolicy::Open);
    let there = topo.add_site("worker", "Leiden, NL", FirewallPolicy::Open);
    topo.add_link(here, there, SimDuration::from_millis(1), 1.0, "WAN");
    let client = topo.add_host(HostSpec::node("desktop", here, CpuSpec::generic()).as_front_end());
    let remote = topo.add_host(HostSpec::node("node0", there, CpuSpec::generic()).as_front_end());
    let mut sim = Sim::new(topo, SimConfig::default());
    let daemon = IbisDaemon::install(&mut sim, client, None);
    let proxy = WorkerProxy::new(
        WorkerId(0),
        Rc::new(RefCell::new(Some(worker))),
        10.0,
        PerfProfile { kind: ModelKind::Gravity, substeps: 1 },
        0,
        BusyLedger::default(),
        SCALE,
        1,
    );
    let proxy = sim.add_actor(remote, Box::new(proxy));
    sim.post(daemon.actor, RegisterWorker { id: WorkerId(0), proxy }, SimDuration::ZERO);
    while daemon.shared.borrow().routes.is_empty() {
        assert!(sim.step(), "sim idle before registration");
    }
    let sim = Rc::new(RefCell::new(sim));
    (SimLink::open(sim.clone(), daemon, WorkerId(0), SCALE, "worker"), sim, remote)
}

/// Every request kind by `call`, a state round trip, then every typed
/// leg, whatever the worker makes of them: the transcript of answers.
fn transcript(
    ch: &mut dyn Channel,
    requests: &[Request],
    cluster: &EmbeddedCluster,
) -> Vec<String> {
    let (stars, gas) = (&cluster.stars, &cluster.gas);
    let set = |pos: &[[f64; 3]], mass: &[f64]| ParticleData {
        mass: mass.to_vec(),
        pos: pos.to_vec(),
        vel: vec![],
    };
    let (star_set, gas_set) = (set(&stars.pos, &stars.mass), set(&gas.pos, &gas.mass));
    let dv: Vec<[f64; 3]> = (0..stars.mass.len()).map(|i| [1e-3 * i as f64, -2e-4, 5e-4]).collect();
    let mut said: Vec<String> =
        requests.iter().map(|req| format!("{:?}", ch.call(req.clone()))).collect();
    let state = ch.call(Request::SaveState);
    said.push(format!("{state:?}"));
    if let Response::State(s) = state {
        said.push(format!("{:?}", ch.call(Request::LoadState(s))));
    }
    let mut p = ParticleData::default();
    let ok = ch.snapshot_into(&mut p);
    said.push(format!("{ok} {p:?}"));
    said.push(format!("{:?}", ch.kick_slice(&dv)));
    for n in [1, 2] {
        ch.submit_step(&dv, n, 0.04 * n as f64);
        let r = ch.collect_step_into(&mut p);
        said.push(format!("{r:?} {p:?}"));
    }
    let mut acc = Vec::new();
    let f = ch.compute_kick_into(&gas.pos, &stars.pos, &stars.mass, &mut acc);
    said.push(format!("{f:?} {acc:?}"));
    let (n_stars, n_gas) = (stars.mass.len(), gas.mass.len());
    // the priming field, then a mass-free one against the held masses
    for prime in [true, false] {
        ch.submit_field(&star_set, &gas_set, prime, (1, n_stars), (2, n_gas));
        let f = ch.collect_accelerations_into(&mut acc);
        said.push(format!("{f:?} {acc:?}"));
    }
    said
}

#[test]
fn the_sim_link_answers_what_the_local_channel_does() {
    let cluster = EmbeddedCluster::build(6, 12, 0.5, 3);
    let (stars, gas) = (&cluster.stars, &cluster.gas);
    let dv: Vec<[f64; 3]> = (0..6).map(|i| [1e-3 * i as f64, -2e-4, 5e-4]).collect();
    let scripts = [
        // gravity, plus an `Unsupported` and an `Error` answer
        vec![
            Request::Ping,
            Request::GetParticles,
            Request::Kick(dv.clone()),
            Request::SetMasses(vec![0.2; 6]),
            Request::EvolveTo(0.01),
            Request::Step { dv: dv.clone(), n: 1, t: 0.02 },
            Request::Step { dv: dv.clone(), n: 2, t: 0.03 },
            Request::EvolveStars(1.0),
            Request::Kick(vec![[0.0; 3]; 5]),
        ],
        // hydro
        vec![
            Request::InjectEnergy { center: [0.0; 3], radius: 0.5, energy: 1e-3 },
            Request::AddGas { pos: [0.1, 0.0, 0.0], mass: 1e-3, u: 0.05 },
        ],
        // coupling
        vec![
            Request::ComputeKick {
                targets: gas.pos.clone(),
                source_pos: stars.pos.clone(),
                source_mass: stars.mass.clone(),
            },
            Request::ComputeField {
                star_pos: stars.pos.clone(),
                gas_pos: gas.pos.clone(),
                masses: Some((stars.mass.clone(), gas.mass.clone())),
                star_range: (1, 5),
                gas_range: (0, 6),
            },
            Request::ComputeField {
                star_pos: stars.pos.clone(),
                gas_pos: gas.pos.clone(),
                masses: None,
                star_range: (0, 6),
                gas_range: (3, 12),
            },
        ],
        // stellar
        vec![Request::EvolveStars(12.0)],
    ];
    let workers = |cluster: &EmbeddedCluster| {
        let (g, h, c, s) = cluster.local_workers(false);
        [g, h, c, s]
    };
    for ((requests, local), remote) in scripts.iter().zip(workers(&cluster)).zip(workers(&cluster))
    {
        let mut local = LocalChannel::new(local);
        let (mut ibis, sim, _) = across_the_jungle(remote);
        let near = transcript(&mut local, requests, &cluster);
        let far = transcript(&mut ibis, requests, &cluster);
        assert_eq!(far, near, "the sim link answers what the in-process channel does");
        let books = ibis.stats();
        assert_eq!(books, local.stats(), "and books the same frame bytes, calls and flops");
        assert_eq!(books.retries, 0);
        let sim = sim.borrow();
        assert!(sim.now().as_secs_f64() > 0.0, "the round trips took virtual time");
        // the network carried the same frames at production size
        let ipl: u64 = sim
            .metrics()
            .link_traffic()
            .into_iter()
            .filter(|&(_, class, _)| class == TrafficClass::Ipl)
            .map(|(_, _, bytes)| bytes)
            .sum();
        assert_eq!(ipl, SCALE as u64 * (books.bytes_out + books.bytes_in));
    }
}

#[test]
fn a_dead_worker_answers_an_error_not_a_hang() {
    let cluster = EmbeddedCluster::build(6, 12, 0.5, 3);
    let (gravity, ..) = cluster.local_workers(false);
    let (mut ch, sim, host) = across_the_jungle(gravity);
    assert!(matches!(ch.call(Request::Ping), Response::Ok { .. }));
    let now = sim.borrow().now();
    sim.borrow_mut().crash_host_at(host, now);
    let r = ch.call(Request::GetParticles);
    assert!(matches!(&r, Response::Error(e) if e.contains("closed")), "{r:?}");
    let mut p = ParticleData::default();
    assert!(!ch.snapshot_into(&mut p), "a typed leg fails alike");
    assert!(sim.borrow().is_idle());
    assert_eq!(ch.stats().calls, 3);
}
