//! The harness the transport-contract suites share (`mod common;` from a
//! test, `#[path = "../tests/common/mod.rs"] mod common;` from an
//! example).
//!
//! The paper's §4.1 premise is that AMUSE's protocol is written once and
//! only the channel under it changes. The tests say so once, here:
//!
//! * one table of [`Transport`]s a run reaches its workers over, built
//!   by [`Hosts`];
//! * one oracle, [`naive_run`]: the Fig 7 step as the paper draws it,
//!   driven by hand through the public [`Channel`] API, that every
//!   bridge run is checked against bit for bit ([`assert_same`]);
//! * one coupling pool of crash-fused loopback servers, optionally
//!   faulted, with a supervisor that respawns a dead shard
//!   ([`Hosts::coupling_pool`]);
//! * one body per transport contract — whole-bridge bits, byte
//!   accounting, coupling pools, state-op pools — that the per-transport
//!   suites (`tests/socket_channel.rs`, `tests/reactor_equivalence.rs`,
//!   `tests/sharded_channel.rs`) run on their rows of the table;
//! * one seeded chaos run ([`run_chaos_seed`]), which `tests/chaos.rs`
//!   sweeps and `examples/chaos_soak.rs` soaks.

#![allow(dead_code)] // each binary uses its own subset of the harness

use jungle::amuse::channel::{Channel, LocalChannel, ThreadChannel};
use jungle::amuse::chaos::{FaultPlan, RetryPolicy, StreamFaults};
use jungle::amuse::reactor::{Reactor, ReactorChannel};
use jungle::amuse::shard::{partition, ShardedChannel};
use jungle::amuse::socket::{spawn_flaky_tcp_worker, WorkerFleet};
use jungle::amuse::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ModelWorker, ParticleData, Request, Response,
    StellarWorker,
};
use jungle::amuse::{
    Bridge, BridgeConfig, ChaosWriter, Checkpoint, EmbeddedCluster, RecoveryPolicy, SocketChannel,
};
use jungle::core::daemon::RegisterWorker;
use jungle::core::proxy::BusyLedger;
use jungle::core::{
    DaemonHandle, IbisDaemon, ModelKind, PerfProfile, SimLink, WorkerId, WorkerProxy,
};
use jungle::nbody::plummer::plummer_sphere;
use jungle::nbody::Backend;
use jungle::netsim::compute::CpuSpec;
use jungle::netsim::{FirewallPolicy, HostId, HostSpec, Sim, SimConfig, SimDuration, Topology};
use jungle::stellar::StellarEvent;
use std::cell::RefCell;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;

pub fn bitwise_eq(a: &ParticleData, b: &ParticleData) -> bool {
    let f = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    let v = |x: &[[f64; 3]], y: &[[f64; 3]]| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(p, q)| (0..3).all(|k| p[k].to_bits() == q[k].to_bits()))
    };
    f(&a.mass, &b.mass) && v(&a.pos, &b.pos) && v(&a.vel, &b.vel)
}

/// What a run ends with: particles, model time, supernova count.
pub type Outcome = (ParticleData, ParticleData, u64, u32);

pub fn outcome_of(bridge: &mut Bridge) -> Outcome {
    let (stars, gas) = bridge.snapshots();
    (stars, gas, bridge.model_time().to_bits(), bridge.total_supernovae())
}

/// What differs between two outcomes, if anything.
pub fn divergence(got: &Outcome, want: &Outcome) -> Option<&'static str> {
    if !bitwise_eq(&got.0, &want.0) {
        Some("star state diverged")
    } else if !bitwise_eq(&got.1, &want.1) {
        Some("gas state diverged")
    } else if (got.2, got.3) != (want.2, want.3) {
        Some("clock or supernova count diverged")
    } else {
        None
    }
}

pub fn assert_same(got: &Outcome, want: &Outcome, what: &str) {
    if let Some(d) = divergence(got, want) {
        panic!("{what}: {d} from the naive loop");
    }
}

/// The four in-process channels of a fresh cluster, in role order
/// (gravity, hydro, coupling, stellar).
pub fn local_channels(c: &EmbeddedCluster) -> [Box<dyn Channel>; 4] {
    let (g, h, cp, s) = c.local_workers(false);
    [g, h, cp, s].map(|w| Box::new(LocalChannel::new(w)) as Box<dyn Channel>)
}

pub fn bridge_over(channels: [Box<dyn Channel>; 4], cfg: BridgeConfig) -> Bridge {
    let [g, h, c, s] = channels;
    Bridge::new(g, h, c, Some(s), cfg)
}

fn particles(ch: &mut dyn Channel) -> ParticleData {
    match ch.call(Request::GetParticles) {
        Response::Particles(p) => p,
        other => panic!("snapshot failed: {other:?}"),
    }
}

fn accelerations(
    ch: &mut dyn Channel,
    targets: &[[f64; 3]],
    source: &ParticleData,
) -> Vec<[f64; 3]> {
    match ch.call(Request::ComputeKick {
        targets: targets.to_vec(),
        source_pos: source.pos.clone(),
        source_mass: source.mass.clone(),
    }) {
        Response::Accelerations { acc, .. } => acc,
        other => panic!("compute-kick failed: {other:?}"),
    }
}

fn ok(r: Response) {
    assert!(matches!(r, Response::Ok { .. }), "{r:?}");
}

/// The bridge's supernova feedback: thermal energy deposited per event
/// and its deposition radius (N-body units).
const SN_ENERGY: f64 = 0.2;
const SN_RADIUS: f64 = 0.2;

/// The oracle: the Fig 7 step as the paper draws it, with nothing
/// carried from one phase to the next. Every p-kick phase snapshots
/// both systems and evaluates the field afresh; the stellar exchange
/// fetches its own snapshot.
pub fn naive_run(channels: [Box<dyn Channel>; 4], cfg: &BridgeConfig, iterations: u32) -> Outcome {
    let [mut g, mut h, mut c, mut s] = channels;
    let half_dt = 0.5 * cfg.dt;
    let mut full_phase = |g: &mut dyn Channel, h: &mut dyn Channel| {
        let (stars, gas) = (particles(g), particles(h));
        let scale = |acc: Vec<[f64; 3]>| acc.into_iter().map(|a| a.map(|k| k * half_dt)).collect();
        let dv_stars: Vec<[f64; 3]> = scale(accelerations(c.as_mut(), &stars.pos, &gas));
        let dv_gas: Vec<[f64; 3]> = scale(accelerations(c.as_mut(), &gas.pos, &stars));
        ok(g.call(Request::Kick(dv_stars)));
        ok(h.call(Request::Kick(dv_gas)));
    };
    let (mut time, mut supernovae) = (0.0f64, 0u32);
    for iteration in 1..=iterations {
        for _ in 0..cfg.substeps {
            full_phase(g.as_mut(), h.as_mut());
            time += cfg.dt;
            ok(g.call(Request::EvolveTo(time)));
            ok(h.call(Request::EvolveTo(time)));
            full_phase(g.as_mut(), h.as_mut());
        }
        if iteration % cfg.stellar_interval != 0 {
            continue;
        }
        let (masses, events) = match s.call(Request::EvolveStars(time * cfg.time_unit_myr)) {
            Response::StellarUpdate { masses, events } => (masses, events),
            other => panic!("stellar evolve failed: {other:?}"),
        };
        let stars = particles(g.as_mut());
        let nbody = masses.iter().map(|m| m / cfg.mass_unit_msun).collect();
        ok(g.call(Request::SetMasses(nbody)));
        for ev in events {
            match ev {
                StellarEvent::Supernova { star, ejected_mass, .. } => {
                    supernovae += 1;
                    let (center, m) = (stars.pos[star], ejected_mass / cfg.mass_unit_msun);
                    h.call(Request::InjectEnergy { center, radius: SN_RADIUS, energy: SN_ENERGY });
                    if m > 0.0 {
                        let u = SN_ENERGY / m.max(1e-9) * 0.1;
                        h.call(Request::AddGas { pos: center, mass: m, u });
                    }
                }
                StellarEvent::WindMassLoss { star, mass } => {
                    let m = mass / cfg.mass_unit_msun;
                    if m > 1e-12 {
                        h.call(Request::AddGas { pos: stars.pos[star], mass: m, u: 1e-3 });
                    }
                }
            }
        }
    }
    (particles(g.as_mut()), particles(h.as_mut()), time.to_bits(), supernovae)
}

/// How a run under test reaches its workers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Transport {
    /// [`LocalChannel`]s: the channels' borrowed legs, in the caller.
    Local,
    /// [`ThreadChannel`]s: owned requests, served on worker threads —
    /// the codec-free value reference.
    Thread,
    /// Channels from [`SocketChannel::connect`]: each alone on a private
    /// reactor, every worker behind a loopback TCP server.
    Socket,
    /// [`ReactorChannel`]s on one shared reactor, every worker behind a
    /// loopback TCP server.
    Reactor,
    /// `IbisChannel`s: the client core over a [`SimLink`] to a
    /// `WorkerProxy` across a simulated 1 ms WAN link.
    Sim,
}

/// Every row of the table.
pub const TRANSPORTS: [Transport; 5] =
    [Transport::Local, Transport::Thread, Transport::Socket, Transport::Reactor, Transport::Sim];

/// Where one run's workers live, and how its channels reach them.
///
/// Build it before the bridge, so that it drops after: its fleet then
/// reaps every loopback server — supervisor respawns included — on any
/// exit path, a panicking assertion too.
pub struct Hosts {
    transport: Transport,
    /// The reactor every [`Transport::Reactor`] channel shares.
    reactor: Rc<RefCell<Reactor>>,
    fleet: Rc<RefCell<WorkerFleet>>,
    /// The simulated jungle, built on the first [`Transport::Sim`] worker.
    sim: Option<SimWorld>,
}

impl Hosts {
    pub fn new(transport: Transport) -> Hosts {
        Hosts {
            transport,
            reactor: Reactor::new_shared().expect("reactor"),
            fleet: Rc::default(),
            sim: None,
        }
    }

    /// A channel to a fresh worker made by `make`.
    pub fn spawn<W: ModelWorker + 'static>(
        &mut self,
        name: &str,
        make: impl FnOnce() -> W + Send + 'static,
    ) -> Box<dyn Channel> {
        match self.transport {
            Transport::Local => Box::new(LocalChannel::new(Box::new(make()))),
            Transport::Thread => Box::new(ThreadChannel::spawn(name, make)),
            Transport::Socket | Transport::Reactor => {
                self.connect(self.serve(name, make), name, None).expect("connect")
            }
            Transport::Sim => self.sim.get_or_insert_with(SimWorld::new).open(name, make()),
        }
    }

    /// A loopback TCP server for `make`'s worker, adopted by the fleet.
    pub fn serve<W: ModelWorker + 'static>(
        &self,
        name: &str,
        make: impl FnOnce() -> W + Send + 'static,
    ) -> SocketAddr {
        self.fleet.borrow_mut().spawn(name, make)
    }

    /// A channel over this TCP transport to the server at `addr`,
    /// retrying under and faulted by `chaos`.
    pub fn connect(
        &self,
        addr: SocketAddr,
        name: &str,
        chaos: Option<(RetryPolicy, StreamFaults)>,
    ) -> std::io::Result<Box<dyn Channel>> {
        connect(self.transport, &self.reactor, addr, name, chaos)
    }

    /// Gravity, hydro and stellar channels to fresh workers of `c`.
    pub fn models(&mut self, c: &EmbeddedCluster) -> [Box<dyn Channel>; 3] {
        let (stars, gas, imf) = (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
        [
            self.spawn("grav", move || GravityWorker::new(stars, Backend::CpuParallel)),
            self.spawn("hydro", move || HydroWorker::new(gas)),
            self.spawn("sse", move || StellarWorker::new(imf, EmbeddedCluster::METALLICITY)),
        ]
    }

    /// Channels to fresh workers of `c` in role order, the coupling model
    /// a pool of `k` shards (a bare channel for `k == 1`).
    pub fn channels_over(&mut self, k: usize, c: &EmbeddedCluster) -> [Box<dyn Channel>; 4] {
        self.channels_wrapped(k, c, &|ch| ch)
    }

    /// [`Hosts::channels_over`] with `wrap` around every channel: each
    /// worker's, and the pool over the wrapped shards.
    pub fn channels_wrapped(
        &mut self,
        k: usize,
        c: &EmbeddedCluster,
        wrap: &dyn Fn(Box<dyn Channel>) -> Box<dyn Channel>,
    ) -> [Box<dyn Channel>; 4] {
        let [gravity, hydro, stellar] = self.models(c).map(wrap);
        let mut shards: Vec<Box<dyn Channel>> =
            (0..k).map(|i| wrap(self.spawn(&format!("fi-{i}"), CouplingWorker::fi))).collect();
        let coupling = if k == 1 {
            shards.pop().unwrap()
        } else {
            wrap(Box::new(ShardedChannel::with_counts(shards, vec![0; k])))
        };
        [gravity, hydro, coupling, stellar]
    }

    /// A coupling pool over this TCP transport: one crash-fused server
    /// per fuse (load `i64::MAX` for "never"), each channel retrying
    /// under and faulted by its entry of `chaos`, and a supervisor that
    /// respawns a dead shard as a fresh healthy server.
    pub fn coupling_pool(
        &self,
        fuses: &[Arc<AtomicI64>],
        chaos: Option<(RetryPolicy, Vec<StreamFaults>)>,
    ) -> ShardedChannel {
        let shards: Vec<Box<dyn Channel>> = fuses
            .iter()
            .enumerate()
            .map(|(i, fuse)| {
                let name = format!("fi-{i}");
                let (addr, h) = spawn_flaky_tcp_worker(&name, CouplingWorker::fi, fuse.clone());
                self.fleet.borrow_mut().adopt(addr, h);
                let faults = chaos.as_ref().map(|(retry, faults)| (*retry, faults[i].clone()));
                self.connect(addr, &name, faults).expect("connect shard")
            })
            .collect();
        let (transport, reactor, fleet) =
            (self.transport, self.reactor.clone(), self.fleet.clone());
        let supervisor = move |i: usize| {
            let name = format!("fi-{i}-respawn");
            let addr = fleet.borrow_mut().spawn(&name, CouplingWorker::fi);
            connect(transport, &reactor, addr, &name, None).ok()
        };
        ShardedChannel::with_counts(shards, vec![0; fuses.len()])
            .with_supervisor(Box::new(supervisor))
    }

    /// Join every loopback server, surfacing the first server error.
    /// Call after the channels are gone (their `Stop` frames end the
    /// servers).
    pub fn join_all(&self) -> std::io::Result<()> {
        self.fleet.borrow_mut().join_all()
    }
}

fn connect(
    transport: Transport,
    reactor: &Rc<RefCell<Reactor>>,
    addr: SocketAddr,
    name: &str,
    chaos: Option<(RetryPolicy, StreamFaults)>,
) -> std::io::Result<Box<dyn Channel>> {
    Ok(match (transport, chaos) {
        (Transport::Socket, None) => Box::new(SocketChannel::connect(addr, name)?),
        (Transport::Socket, Some((retry, faults))) => {
            Box::new(SocketChannel::connect(addr, name)?.with_retry(retry).with_chaos(faults))
        }
        (Transport::Reactor, None) => Box::new(ReactorChannel::connect(reactor, addr, name)?),
        (Transport::Reactor, Some((retry, faults))) => Box::new(
            ReactorChannel::connect(reactor, addr, name)?.with_retry(retry).with_chaos(faults),
        ),
        (other, _) => panic!("{other:?} does not run its workers behind TCP servers"),
    })
}

/// Fuses that never fire, one per shard.
pub fn unlit(k: usize) -> Vec<Arc<AtomicI64>> {
    (0..k).map(|_| Arc::new(AtomicI64::new(i64::MAX))).collect()
}

/// A whole bridge run with all four models behind loopback TCP servers
/// on `transport`, bitwise equal to the oracle. Every channel is used,
/// and every call moves at least a frame header each way.
pub fn bridge_over_tcp_matches_the_oracle(transport: Transport) {
    let c = EmbeddedCluster::build(24, 96, 0.5, 17);
    let cfg = BridgeConfig { substeps: 2, stellar_interval: 1, ..c.bridge_config() };
    let want = naive_run(local_channels(&c), &cfg, 2);

    let mut hosts = Hosts::new(transport);
    let mut bridge = bridge_over(hosts.channels_over(1, &c), cfg);
    for _ in 0..2 {
        let rep = bridge.iteration();
        assert!(rep.calls > 10, "{transport:?}: the bridge made {} calls", rep.calls);
    }
    let got = outcome_of(&mut bridge);

    let (g, h, cstat, s) = bridge.channel_stats();
    for (name, st) in [("gravity", g), ("hydro", h), ("coupling", cstat), ("stellar", s.unwrap())] {
        assert!(st.calls > 0, "{transport:?}: {name} channel unused");
        assert!(st.bytes_out >= 32 * st.calls, "{transport:?} {name}: {st:?}");
        assert!(st.bytes_in >= 32 * st.calls, "{transport:?} {name}: {st:?}");
    }

    drop(bridge); // Stop frames shut the servers down
    hosts.join_all().expect("every server exits cleanly");
    assert_same(&got, &want, &format!("{transport:?} bridge"));
}

/// Byte accounting: what a TCP channel on `transport` counts from real
/// traffic must equal the modeled `wire_size()` of every request and
/// response, on the owned path and on the borrowing legs alike.
pub fn stats_match_modeled_wire_sizes(transport: Transport) {
    let c = EmbeddedCluster::build(24, 96, 0.5, 17);
    let n = c.stars.len();
    let mut hosts = Hosts::new(transport);
    let stars = c.stars.clone();
    let mut ch = hosts.spawn("grav", move || GravityWorker::new(stars, Backend::CpuParallel));

    let requests = vec![
        Request::Ping,
        Request::GetParticles,
        Request::Kick(vec![[1e-5; 3]; n]),
        Request::SetMasses(c.stars.mass.clone()),
        Request::EvolveTo(1.0 / 128.0),
        Request::Step { dv: vec![[1e-5; 3]; n], n: 2, t: 1.0 / 64.0 },
        Request::EvolveStars(1.0), // unsupported by gravity: still a round trip
    ];
    let mut expect_out = 0u64;
    let mut expect_in = 0u64;
    let mut expect_calls = 0u64;
    for req in requests {
        expect_out += req.wire_size();
        expect_calls += 1;
        let resp = ch.call(req);
        assert!(!matches!(resp, Response::Error(_)), "{transport:?}: {resp:?}");
        expect_in += resp.wire_size();
    }
    let st = ch.stats();
    assert_eq!(st.calls, expect_calls, "{transport:?}");
    assert_eq!(st.bytes_out, expect_out, "{transport:?}: request bytes != modeled wire size");
    assert_eq!(st.bytes_in, expect_in, "{transport:?}: response bytes != modeled wire size");

    // the borrowing fast paths account identically
    let mut snap = ParticleData::default();
    assert!(ch.snapshot_into(&mut snap));
    assert_eq!(snap.mass.len(), n);
    let dv = vec![[0.0; 3]; n];
    let r = ch.kick_slice(&dv);
    assert!(matches!(r, Response::Ok { .. }), "{transport:?}: {r:?}");
    ch.submit_step(&dv, 1, 3.0 / 128.0);
    let r = ch.collect_step_into(&mut snap);
    assert!(matches!(r, Response::Ok { .. }), "{transport:?}: {r:?}");
    let st2 = ch.stats();
    assert_eq!(st2.calls, expect_calls + 3);
    let step = Request::Step { dv: dv.clone(), n: 1, t: 0.0 };
    assert_eq!(
        st2.bytes_out - st.bytes_out,
        Request::GetParticles.wire_size() + Request::Kick(dv).wire_size() + step.wire_size(),
        "{transport:?}"
    );
    // a snapshot, an Ok, and a step's answer: positions only
    assert_eq!(
        st2.bytes_in - st.bytes_in,
        (56 * n + 32) as u64 + 40 + (24 * n + 32) as u64,
        "{transport:?}"
    );

    drop(ch);
    hosts.join_all().expect("every server exits cleanly");
}

/// The coupling kick evaluates each target independently against a
/// tree built from the sources alone, so a pool of K = 1, 2, 3 shards on
/// each of `transports` must reproduce the unsharded answer bitwise —
/// through the generic submit/collect fan-out and the borrowing
/// `compute_kick_into` alike. Only TCP shards overlap their round trips.
pub fn coupling_pools_match_the_unsharded_worker(transports: &[Transport]) {
    let scene = plummer_sphere(151, 23);
    let kick = || Request::ComputeKick {
        targets: scene.pos.clone(),
        source_pos: scene.pos.clone(),
        source_mass: scene.mass.clone(),
    };
    let expected = match LocalChannel::new(Box::new(CouplingWorker::fi())).call(kick()) {
        Response::Accelerations { acc, .. } => acc,
        other => panic!("{other:?}"),
    };
    let same = |acc: &[[f64; 3]], what: &str| {
        assert_eq!(acc.len(), expected.len(), "{what}");
        for (a, b) in acc.iter().zip(&expected) {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{what}");
        }
    };

    for &transport in transports {
        for k in 1..=3usize {
            let what = format!("{transport:?} K={k}");
            let mut hosts = Hosts::new(transport);
            let shards = (0..k).map(|i| hosts.spawn(&format!("fi-{i}"), CouplingWorker::fi));
            let mut pool = ShardedChannel::with_counts(shards.collect(), vec![0; k]);
            assert_eq!(pool.pipelined(), transport != Transport::Thread, "{what}");

            match pool.call(kick()) {
                Response::Accelerations { acc, .. } => same(&acc, &format!("{what} call path")),
                other => panic!("{what}: {other:?}"),
            }
            let mut acc = Vec::new();
            let flops = pool
                .compute_kick_into(&scene.pos, &scene.pos, &scene.mass, &mut acc)
                .expect("pool compute_kick_into");
            assert!(flops > 0.0, "{what}");
            same(&acc, &format!("{what} borrowed path"));

            drop(pool);
            hosts.join_all().expect("every server exits cleanly");
        }
    }
}

/// Range-sharded gravity state ops (kick, set-masses, snapshot) over
/// K = 2, 3 shards on the TCP `transport`, against the unsharded worker.
pub fn state_ops_pools_match_the_unsharded_worker(transport: Transport) {
    let ics = plummer_sphere(40, 31);
    let dv: Vec<[f64; 3]> = (0..40).map(|i| [1e-4 * i as f64, -2e-5, 3e-5 * i as f64]).collect();
    let masses: Vec<f64> = (0..40).map(|i| 0.02 + 1e-4 * i as f64).collect();

    let mut single =
        LocalChannel::new(Box::new(GravityWorker::new(ics.clone(), Backend::CpuParallel)));
    assert!(matches!(single.call(Request::Kick(dv.clone())), Response::Ok { .. }));
    assert!(matches!(single.call(Request::SetMasses(masses.clone())), Response::Ok { .. }));
    let mut expected = ParticleData::default();
    assert!(single.snapshot_into(&mut expected));

    for k in [2usize, 3] {
        let what = format!("{transport:?} K={k}");
        let mut hosts = Hosts::new(transport);
        let mut off = 0usize;
        let shards = partition(40, k).into_iter().enumerate().map(|(i, c)| {
            let sub = ics.slice(off, off + c);
            off += c;
            hosts.spawn(&format!("grav-{i}"), move || GravityWorker::new(sub, Backend::CpuParallel))
        });
        let mut pool = ShardedChannel::new(shards.collect());
        assert!(pool.pipelined(), "{what}");
        assert_eq!(pool.total_particles(), 40, "{what}");
        assert_eq!(pool.worker_name(), format!("grav-0×{k}"), "{what}");

        let r = pool.kick_slice(&dv);
        assert!(matches!(r, Response::Ok { .. }), "{what}: {r:?}");
        let r = pool.call(Request::SetMasses(masses.clone()));
        assert!(matches!(r, Response::Ok { .. }), "{what}: {r:?}");
        let mut got = ParticleData::default();
        assert!(pool.snapshot_into(&mut got));
        assert!(bitwise_eq(&got, &expected), "{what}: pool state diverged");

        drop(pool);
        hosts.join_all().expect("every server exits cleanly");
    }
}

/// The simulated jungle behind [`Transport::Sim`]: the coupler's daemon
/// on one site, every worker's proxy on a host of another, across a
/// 1 ms WAN link. Frames travel at their real size (byte scale 1).
struct SimWorld {
    sim: Rc<RefCell<Sim>>,
    daemon: DaemonHandle,
    remote: HostId,
    workers: u32,
}

impl SimWorld {
    fn new() -> SimWorld {
        let mut topo = Topology::new();
        let here = topo.add_site("coupler", "Amsterdam, NL", FirewallPolicy::Open);
        let there = topo.add_site("workers", "Leiden, NL", FirewallPolicy::Open);
        topo.add_link(here, there, SimDuration::from_millis(1), 1.0, "WAN");
        let client =
            topo.add_host(HostSpec::node("desktop", here, CpuSpec::generic()).as_front_end());
        let remote =
            topo.add_host(HostSpec::node("node0", there, CpuSpec::generic()).as_front_end());
        let mut sim = Sim::new(topo, SimConfig::default());
        let daemon = IbisDaemon::install(&mut sim, client, None);
        SimWorld { sim: Rc::new(RefCell::new(sim)), daemon, remote, workers: 0 }
    }

    /// Register a proxy serving `worker` and open a channel to it. The
    /// perf profile only prices virtual time; it never touches a value.
    fn open(&mut self, name: &str, worker: impl ModelWorker + 'static) -> Box<dyn Channel> {
        let id = WorkerId(self.workers);
        self.workers += 1;
        let worker: Box<dyn ModelWorker> = Box::new(worker);
        let proxy = WorkerProxy::new(
            id,
            Rc::new(RefCell::new(Some(worker))),
            10.0,
            PerfProfile { kind: ModelKind::Gravity, substeps: 1 },
            0,
            BusyLedger::default(),
            1.0,
            1,
        );
        let mut sim = self.sim.borrow_mut();
        let proxy = sim.add_actor(self.remote, Box::new(proxy));
        sim.post(self.daemon.actor, RegisterWorker { id, proxy }, SimDuration::ZERO);
        while !self.daemon.shared.borrow().routes.contains_key(&id) {
            assert!(sim.step(), "sim idle before registration");
        }
        drop(sim);
        Box::new(SimLink::open(self.sim.clone(), self.daemon.clone(), id, 1.0, name))
    }
}

/// A chaos soak's fixed workload, and the oracle's answer for it.
pub struct Soak {
    pub cluster: EmbeddedCluster,
    pub cfg: BridgeConfig,
    pub iterations: u32,
    pub oracle: Outcome,
}

impl Soak {
    pub fn new(
        cluster: EmbeddedCluster,
        substeps: u32,
        stellar_interval: u32,
        iterations: u32,
    ) -> Soak {
        let cfg = BridgeConfig { substeps, stellar_interval, ..cluster.bridge_config() };
        let oracle = naive_run(local_channels(&cluster), &cfg, iterations);
        Soak { cluster, cfg, iterations, oracle }
    }
}

/// The command that replays seed `seed`'s fault schedule alone.
pub fn replay(seed: u64) -> String {
    format!("cargo run --release --example chaos_soak -- --start {seed} --seeds 1")
}

/// Run seed `seed`'s fault schedule over a live loopback TCP cluster on
/// `transport` with `k` coupling shards, and compare the end state with
/// the oracle's bit for bit. Returns `(recoveries, in_place_retries)` on
/// convergence, and on any divergence or unexpected failure a line that
/// names the seed and the command replaying it. The same seed must
/// converge over both TCP transports: chaos draws happen at identical
/// frame-op boundaries, so one schedule maps onto either.
pub fn run_chaos_seed(
    seed: u64,
    k: usize,
    soak: &Soak,
    transport: Transport,
) -> Result<(u32, u64), String> {
    let plan = FaultPlan::seeded(seed);
    let fail = |msg: String| format!("seed {seed} (k={k}): {msg}; replay: {}", replay(seed));
    let mut hosts = Hosts::new(transport);

    // the healthy single workers — the plan only targets the pool — and
    // K coupling shards, each with its slice of the plan: a crash fuse
    // (if the plan schedules one) plus the transport faults for its
    // stream, absorbed by a fast deterministic retry policy
    let [gravity, hydro, stellar] = hosts.models(&soak.cluster);
    let fuses: Vec<Arc<AtomicI64>> = (0..k)
        .map(|i| Arc::new(AtomicI64::new(plan.crash_fuse(k, i).unwrap_or(i64::MAX))))
        .collect();
    let retry =
        RetryPolicy { backoff_base_ms: 1, backoff_max_ms: 8, ..RetryPolicy::standard(seed) };
    let faults = (0..k).map(|i| plan.stream_faults(k, i)).collect();
    let pool = hosts.coupling_pool(&fuses, Some((retry, faults)));
    let mut bridge = Bridge::new(gravity, hydro, Box::new(pool), Some(stellar), soak.cfg.clone());

    let policy = RecoveryPolicy { max_retries: 4, checkpoint_interval: 1 };
    let mut checkpoint: Option<Checkpoint> = None;
    let mut recoveries = 0u32;
    for _ in 0..soak.iterations {
        let (_rep, rec) = bridge
            .iteration_recovering(&mut checkpoint, &policy)
            .map_err(|e| fail(format!("iteration failed: {e}")))?;
        recoveries += rec;
    }

    // Checkpoint-truncation leg: the plan's lying disk reports a
    // successful save but only `keep` bytes land. The per-section CRC
    // (or the framing) must reject the load with a typed error, and the
    // intact save must still round-trip.
    if let Some(keep) = plan.checkpoint_truncation(k) {
        let ck = checkpoint.as_ref().expect("checkpoint_interval=1 keeps one");
        let mut torn = Vec::new();
        ck.write_to(&mut ChaosWriter::new(&mut torn, keep))
            .map_err(|e| fail(format!("the lying disk surfaced an error: {e}")))?;
        if Checkpoint::read_from(&mut std::io::Cursor::new(&torn)).is_ok() {
            return Err(fail(format!("a {keep}-byte truncated checkpoint loaded as valid")));
        }
        let mut good = Vec::new();
        ck.write_to(&mut good).map_err(|e| fail(format!("intact save failed: {e}")))?;
        Checkpoint::read_from(&mut std::io::Cursor::new(&good))
            .map_err(|e| fail(format!("intact checkpoint failed to load: {e}")))?;
    }

    let retries = bridge.channel_stats().2.retries;
    if let Some(d) = divergence(&outcome_of(&mut bridge), &soak.oracle) {
        return Err(fail(d.into()));
    }
    drop(bridge); // Stop frames shut the healthy servers down
    hosts.join_all().map_err(|e| fail(format!("server errored: {e}")))?;
    Ok((recoveries, retries))
}
