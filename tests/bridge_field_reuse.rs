//! The bridge evaluates one coupling field per *position epoch*, sends
//! each substep's kick, evolve and snapshot as one `Step`, and lets the
//! closing half-kick of substep *i* ride in the step of substep *i+1*
//! (see the `jc_amuse::bridge` module docs). That must be invisible in
//! state and visible only in the call pattern:
//!
//! * **oracle** — a hand-driven naive Fig 7 loop (a full p-kick phase
//!   before and after every evolve, a fresh snapshot for the stellar
//!   exchange) built from `GetParticles`/`ComputeKick`/`Kick`/`EvolveTo`
//!   against the public [`Channel`] API produces bitwise the same
//!   particles as [`Bridge::iteration`] — in process, over worker
//!   threads and over loopback TCP, with K ∈ {1, 2, 3} coupling shards,
//!   particle counts no K divides, and either set empty;
//! * **counts** — `4 + 2s + K(s+1)` calls per cold iteration, of which
//!   `K(s+1)` are `ComputeField`s, `2 + 2s + Ks` per warm one (no
//!   stellar exchange before it: it opens on the field of the previous
//!   closing p-kick), and the exact per-role sequence the *workers* see,
//!   which is the naive loop's;
//! * **bytes** — each role's request and reply bytes per cold and warm
//!   iteration are a closed form in `(n_stars, n_gas, s, K)`: masses
//!   travel only in the cold open's snapshots and its priming field,
//!   and local and TCP channels book the same frames;
//! * **restore** — a run restored from the checkpoint after any
//!   iteration makes the calls and moves the bytes of the straight run
//!   from there on, and reaches its bits;
//! * **legs** — a channel that implements only the four required
//!   `Channel` methods makes the same calls and moves the same bytes as
//!   the channels' borrowed legs;
//! * **edges** — an empty particle set is not a special case, and a
//!   worker failure inside a step or a feedback call is reported and
//!   recovered like any other.

use jungle::amuse::channel::{Channel, ChannelStats, LocalChannel, ThreadChannel};
use jungle::amuse::reactor::{Reactor, ReactorChannel};
use jungle::amuse::shard::ShardedChannel;
use jungle::amuse::socket::WorkerFleet;
use jungle::amuse::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ModelWorker, ParticleData, Request, Response,
    StellarWorker,
};
use jungle::amuse::{
    Bridge, BridgeConfig, BridgeError, Checkpoint, EmbeddedCluster, RecoveryPolicy, Role,
};
use jungle::nbody::Backend;
use jungle::stellar::StellarEvent;
use std::cell::RefCell;
use std::rc::Rc;

const ITERATIONS: u32 = 3;

fn cluster() -> EmbeddedCluster {
    EmbeddedCluster::build(16, 64, 0.5, 23)
}

fn config(c: &EmbeddedCluster, substeps: u32, stellar_interval: u32) -> BridgeConfig {
    BridgeConfig { substeps, stellar_interval, ..c.bridge_config() }
}

fn bitwise_eq(a: &ParticleData, b: &ParticleData) -> bool {
    let f = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    let v = |x: &[[f64; 3]], y: &[[f64; 3]]| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(p, q)| (0..3).all(|k| p[k].to_bits() == q[k].to_bits()))
    };
    f(&a.mass, &b.mass) && v(&a.pos, &b.pos) && v(&a.vel, &b.vel)
}

fn local(w: impl ModelWorker + 'static) -> Box<dyn Channel> {
    Box::new(LocalChannel::new(Box::new(w)))
}

/// The four in-process channels of a fresh cluster.
fn local_channels(c: &EmbeddedCluster) -> [Box<dyn Channel>; 4] {
    [
        local(GravityWorker::new(c.stars.clone(), Backend::CpuParallel)),
        local(HydroWorker::new(c.gas.clone())),
        local(CouplingWorker::fi()),
        local(StellarWorker::new(c.star_masses_msun.clone(), 0.02)),
    ]
}

fn bridge_over(channels: [Box<dyn Channel>; 4], cfg: BridgeConfig) -> Bridge {
    let [g, h, c, s] = channels;
    Bridge::new(g, h, c, Some(s), cfg)
}

/// What a run ends with: particles, model time, supernova count.
type Outcome = (ParticleData, ParticleData, u64, u32);

fn outcome_of(bridge: &mut Bridge) -> Outcome {
    let (stars, gas) = bridge.snapshots();
    (stars, gas, bridge.model_time().to_bits(), bridge.total_supernovae())
}

fn assert_same(got: &Outcome, want: &Outcome, what: &str) {
    assert!(bitwise_eq(&got.0, &want.0), "{what}: star state diverged from the naive loop");
    assert!(bitwise_eq(&got.1, &want.1), "{what}: gas state diverged from the naive loop");
    assert_eq!((got.2, got.3), (want.2, want.3), "{what}: clock or supernova count diverged");
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

/// The oracle: the Fig 7 step as the paper draws it, with nothing
/// carried from one phase to the next. Every p-kick phase snapshots
/// both systems and evaluates the field afresh; the stellar exchange
/// fetches its own snapshot.
fn naive_run(channels: [Box<dyn Channel>; 4], cfg: &BridgeConfig, iterations: u32) -> Outcome {
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
                    h.call(Request::InjectEnergy {
                        center,
                        radius: cfg.sn_radius,
                        energy: cfg.sn_energy,
                    });
                    if m > 0.0 {
                        let u = cfg.sn_energy / m.max(1e-9) * 0.1;
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

const GRID: [(u32, u32); 8] = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (8, 1), (8, 2)];

/// Whether the iteration after `done` completed ones opens warm on a
/// bridge with a stellar worker: it follows an iteration that ended
/// without a stellar exchange.
fn opens_warm(done: u32, interval: u32) -> bool {
    done >= 1 && !done.is_multiple_of(interval)
}

#[test]
fn bridge_matches_the_naive_loop_in_process() {
    let c = cluster();
    for (substeps, interval) in GRID {
        let cfg = config(&c, substeps, interval);
        let want = naive_run(local_channels(&c), &cfg, ITERATIONS);
        let mut bridge = bridge_over(local_channels(&c), cfg);
        for done in 0..ITERATIONS {
            let rep = bridge.iteration();
            let warm = opens_warm(done, interval);
            assert_eq!(
                rep.coupling_fields,
                substeps + 1 - warm as u32,
                "s={substeps} n={interval}"
            );
            assert_eq!(rep.kicks_reapplied, substeps - 1);
        }
        assert_same(&outcome_of(&mut bridge), &want, &format!("s={substeps} n={interval} local"));
    }
}

/// The same grid over loopback TCP: every model behind a
/// [`ReactorChannel`], the coupling model a K=2 pool.
#[test]
fn bridge_matches_the_naive_loop_over_the_reactor_with_a_sharded_pool() {
    let c = cluster();
    for (substeps, interval) in GRID {
        let cfg = config(&c, substeps, interval);
        let want = naive_run(local_channels(&c), &cfg, ITERATIONS);

        // fleet first, so it outlives the bridge on every exit path
        let mut fleet = WorkerFleet::new();
        let mut bridge = bridge_over(channels_over(Transport::Tcp, 2, &c, &mut fleet), cfg);
        for done in 0..ITERATIONS {
            let coupling0 = bridge.channel_stats().2.calls;
            bridge.iteration();
            // each of the s+1 ComputeFields (s when the iteration opens
            // warm) fans out to both shards
            let coupling = bridge.channel_stats().2.calls - coupling0;
            let fields = substeps as u64 + 1 - opens_warm(done, interval) as u64;
            assert_eq!(coupling, 2 * fields, "s={substeps} n={interval}");
        }
        let got = outcome_of(&mut bridge);
        drop(bridge); // Stop frames shut the servers down
        fleet.join_all().expect("every server exits cleanly");
        assert_same(&got, &want, &format!("s={substeps} n={interval} reactor K=2"));
    }
}

/// How a bridge under test reaches its workers.
#[derive(Clone, Copy, Debug)]
enum Transport {
    /// [`LocalChannel`]s: the channels' borrowed legs, in the caller.
    Local,
    /// [`ThreadChannel`]s: owned requests, served on worker threads.
    Thread,
    /// [`ReactorChannel`]s on one reactor, workers behind loopback TCP
    /// servers spawned into the fleet.
    Tcp,
}

/// Channels to fresh workers of `c` over `transport`, the coupling
/// model a pool of `k` shards (a bare channel for `k == 1`).
fn channels_over(
    transport: Transport,
    k: usize,
    c: &EmbeddedCluster,
    fleet: &mut WorkerFleet,
) -> [Box<dyn Channel>; 4] {
    channels_wrapped(transport, k, c, fleet, &|ch| ch)
}

/// [`channels_over`] with `wrap` around every channel: each worker's,
/// and the pool over the wrapped shards.
fn channels_wrapped(
    transport: Transport,
    k: usize,
    c: &EmbeddedCluster,
    fleet: &mut WorkerFleet,
    wrap: &dyn Fn(Box<dyn Channel>) -> Box<dyn Channel>,
) -> [Box<dyn Channel>; 4] {
    let reactor = Reactor::new_shared().unwrap();
    let (stars, gas, imf) = (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
    fn over<W: ModelWorker + 'static>(
        transport: Transport,
        reactor: &Rc<RefCell<Reactor>>,
        fleet: &mut WorkerFleet,
        name: &str,
        make: impl FnOnce() -> W + Send + 'static,
    ) -> Box<dyn Channel> {
        match transport {
            Transport::Local => local(make()),
            Transport::Thread => Box::new(ThreadChannel::spawn(name, make)),
            Transport::Tcp => {
                let addr = fleet.spawn(name, make);
                Box::new(ReactorChannel::connect(reactor, addr, name).unwrap())
            }
        }
    }
    let gravity = wrap(over(transport, &reactor, fleet, "grav", move || {
        GravityWorker::new(stars, Backend::CpuParallel)
    }));
    let hydro = wrap(over(transport, &reactor, fleet, "hydro", move || HydroWorker::new(gas)));
    let stellar =
        wrap(over(transport, &reactor, fleet, "sse", move || StellarWorker::new(imf, 0.02)));
    let mut shards: Vec<Box<dyn Channel>> = (0..k)
        .map(|i| wrap(over(transport, &reactor, fleet, &format!("fi-{i}"), CouplingWorker::fi)))
        .collect();
    let coupling = if k == 1 {
        shards.pop().unwrap()
    } else {
        wrap(Box::new(ShardedChannel::with_counts(shards, vec![0; k])))
    };
    [gravity, hydro, coupling, stellar]
}

/// 17 stars and 65 gas particles: neither 2 nor 3 divides either count,
/// so every pool below cuts both target ranges unevenly.
fn uneven_cluster() -> EmbeddedCluster {
    EmbeddedCluster::build(17, 65, 0.5, 29)
}

#[test]
fn bridge_matches_the_naive_loop_on_every_transport_and_shard_count() {
    let c = uneven_cluster();
    let cfg = config(&c, 3, 1);
    let want = naive_run(local_channels(&c), &cfg, ITERATIONS);
    for transport in [Transport::Local, Transport::Thread, Transport::Tcp] {
        for k in 1..=3usize {
            let mut fleet = WorkerFleet::new();
            let mut bridge = bridge_over(channels_over(transport, k, &c, &mut fleet), cfg.clone());
            for _ in 0..ITERATIONS {
                let rep = bridge.iteration();
                let feedback = rep.supernovae as u64 + rep.wind_events as u64;
                // 4 + 2s + K(s+1), the stellar pair, and at most two
                // feedback calls per event
                let fixed = 4 + 2 * 3 + k as u64 * 4 + 2;
                assert!(
                    (fixed..=fixed + 2 * feedback).contains(&rep.calls),
                    "{transport:?} K={k}: {} calls, {feedback} events",
                    rep.calls
                );
            }
            let got = outcome_of(&mut bridge);
            drop(bridge);
            fleet.join_all().expect("every server exits cleanly");
            assert_same(&got, &want, &format!("{transport:?} K={k}"));
        }
    }
}

#[test]
fn bridge_matches_the_naive_loop_when_a_set_is_empty() {
    let full = uneven_cluster();
    let no_stars = EmbeddedCluster {
        stars: full.stars.slice(0, 0),
        star_masses_msun: Vec::new(),
        ..uneven_cluster()
    };
    let no_gas = EmbeddedCluster { gas: full.gas.slice(0, 0), ..uneven_cluster() };
    for (c, what) in [(no_stars, "no stars"), (no_gas, "no gas")] {
        let cfg = config(&c, 2, 1);
        let want = naive_run(local_channels(&c), &cfg, ITERATIONS);
        for (transport, k) in [(Transport::Local, 1), (Transport::Local, 3), (Transport::Tcp, 2)] {
            let mut fleet = WorkerFleet::new();
            let mut bridge = bridge_over(channels_over(transport, k, &c, &mut fleet), cfg.clone());
            for _ in 0..ITERATIONS {
                bridge.iteration();
            }
            let got = outcome_of(&mut bridge);
            drop(bridge);
            fleet.join_all().expect("every server exits cleanly");
            assert_same(&got, &want, &format!("{what}, {transport:?} K={k}"));
        }
    }
}

/// A [`Channel`] with the four required methods and nothing else, so
/// every typed leg above it is the provided default: owned requests
/// through `submit`, owned responses through `collect` — what a wrapper
/// that predates a leg (the benchmark's tracing channel) forwards.
struct FourMethods(Box<dyn Channel>);

impl Channel for FourMethods {
    fn submit(&mut self, req: Request) {
        self.0.submit(req)
    }
    fn collect(&mut self) -> Response {
        self.0.collect()
    }
    fn stats(&self) -> ChannelStats {
        self.0.stats()
    }
    fn worker_name(&self) -> String {
        self.0.worker_name()
    }
}

#[test]
fn a_four_method_channel_makes_the_same_calls_and_bytes_as_the_borrowed_legs() {
    let c = uneven_cluster();
    let cfg = config(&c, 3, 1);
    for transport in [Transport::Local, Transport::Tcp] {
        let mut runs = Vec::new();
        for wrapped in [false, true] {
            let mut fleet = WorkerFleet::new();
            let wrap = |ch: Box<dyn Channel>| -> Box<dyn Channel> {
                if wrapped {
                    Box::new(FourMethods(ch))
                } else {
                    ch
                }
            };
            // K = 2: the generic path at both levels of the pool
            let channels = channels_wrapped(transport, 2, &c, &mut fleet, &wrap);
            let mut bridge = bridge_over(channels, cfg.clone());
            for _ in 0..ITERATIONS {
                bridge.iteration();
            }
            let stats = bridge.channel_stats();
            runs.push((outcome_of(&mut bridge), stats));
            drop(bridge);
            fleet.join_all().expect("every server exits cleanly");
        }
        let [(plain, plain_stats), (generic, generic_stats)] = &runs[..] else { unreachable!() };
        assert_same(generic, plain, &format!("{transport:?}: four-method channels"));
        let books = |s: &ChannelStats| (s.calls, s.bytes_out, s.bytes_in, s.flops.to_bits());
        assert_eq!(books(&plain_stats.0), books(&generic_stats.0), "{transport:?}: gravity");
        assert_eq!(books(&plain_stats.1), books(&generic_stats.1), "{transport:?}: hydro");
        assert_eq!(books(&plain_stats.2), books(&generic_stats.2), "{transport:?}: coupling");
        assert!(plain_stats.2.calls > 0 && plain_stats.0.bytes_in > 0);
    }
}

/// A worker wrapper that logs every request it is handed (the
/// borrowing fast paths fall back to `handle`, so nothing bypasses it —
/// and the host decomposes the composites before they get here) and
/// can fail exactly one of them.
struct Probe {
    inner: Box<dyn ModelWorker>,
    log: Rc<RefCell<Vec<&'static str>>>,
    /// 1-based index, among the counted requests, of the one to answer
    /// with an error.
    fail_at: Option<usize>,
    /// Count only these requests towards `fail_at` (`None`: all).
    fail_op: Option<&'static str>,
    /// Requests counted so far.
    counted: usize,
}

fn op(req: &Request) -> &'static str {
    match req {
        Request::GetParticles => "get",
        Request::Kick(_) => "kick",
        Request::EvolveTo(_) => "evolve",
        Request::ComputeKick { .. } => "compute-kick",
        Request::EvolveStars(_) => "evolve-stars",
        Request::SetMasses(_) => "set-masses",
        Request::InjectEnergy { .. } => "inject-energy",
        Request::AddGas { .. } => "add-gas",
        _ => "other",
    }
}

impl ModelWorker for Probe {
    fn handle(&mut self, req: Request) -> Response {
        let op = op(&req);
        self.log.borrow_mut().push(op);
        if self.fail_op.is_none_or(|f| f == op) {
            self.counted += 1;
            if self.fail_at == Some(self.counted) {
                return Response::Error("injected failure".into());
            }
        }
        self.inner.handle(req)
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

type Log = Rc<RefCell<Vec<&'static str>>>;

/// A local channel to `inner` behind a [`Probe`] writing to `log`.
fn probed(inner: Box<dyn ModelWorker>, log: &Log, fail_at: Option<usize>) -> Box<dyn Channel> {
    Box::new(LocalChannel::new(Box::new(Probe {
        inner,
        log: log.clone(),
        fail_at,
        fail_op: None,
        counted: 0,
    })))
}

/// Local channels with every worker behind a [`Probe`]; the returned
/// logs are in role order (gravity, hydro, coupling, stellar).
fn probed_channels(
    c: &EmbeddedCluster,
    gravity_fails_at: Option<usize>,
) -> ([Box<dyn Channel>; 4], [Log; 4]) {
    let logs: [Log; 4] = Default::default();
    let (g, h, cp, s) = c.local_workers(false);
    let channels = [
        probed(g, &logs[0], gravity_fails_at),
        probed(h, &logs[1], None),
        probed(cp, &logs[2], None),
        probed(s, &logs[3], None),
    ];
    (channels, logs)
}

/// What a dynamics worker is asked over one cold iteration of `s`
/// substeps: the naive loop's kick–evolve–kick, whatever round trips
/// carried it. A warm iteration is the same without the opening `get`.
fn worker_sequence(s: usize) -> Vec<&'static str> {
    // open; then per substep the step's kick(s), evolve and snapshot —
    // from the second substep on the closing kick of the one before
    // comes first; then the last closing kick
    let mut seq = vec!["get", "kick", "evolve", "get"];
    for _ in 1..s {
        seq.extend(["kick", "kick", "evolve", "get"]);
    }
    seq.push("kick");
    seq
}

#[test]
fn cold_and_warm_iterations_make_their_documented_calls_in_order() {
    let c = cluster();
    for substeps in [1u32, 2, 3, 8] {
        let (channels, logs) = probed_channels(&c, None);
        let mut bridge = bridge_over(channels, config(&c, substeps, 2));
        let s = substeps as usize;

        // iteration 1 opens cold, K = 1: two snapshots, s steps per
        // dynamics worker, s+1 fields, two kicks; no stellar exchange
        let rep = bridge.iteration();
        assert_eq!(rep.calls, 4 + 2 * substeps as u64 + (substeps as u64 + 1), "s={substeps}");
        let (g, h, cp, _) = bridge.channel_stats();
        assert_eq!((g.calls, h.calls, cp.calls), (s as u64 + 2, s as u64 + 2, s as u64 + 1));
        let cold = worker_sequence(s);
        assert_eq!(*logs[0].borrow(), cold, "gravity, s={substeps}");
        assert_eq!(*logs[1].borrow(), cold, "hydro, s={substeps}");
        // each field is served as its two directions
        assert_eq!(*logs[2].borrow(), vec!["compute-kick"; 2 * (s + 1)], "s={substeps}");
        assert!(logs[3].borrow().is_empty());

        // iteration 2 opens warm: no snapshot and no field before its
        // first step, 2 + 2s + s calls. The exchange adds one stellar
        // evolve, one set-masses and the feedback calls — and no
        // snapshot of its own
        for log in &logs {
            log.borrow_mut().clear();
        }
        let rep = bridge.iteration();
        let feedback =
            logs[1].borrow().iter().filter(|&&o| o == "inject-energy" || o == "add-gas").count();
        let warm_calls = 2 + 2 * substeps as u64 + substeps as u64;
        assert_eq!(rep.calls, warm_calls + 2 + feedback as u64, "s={substeps}");
        assert_eq!((rep.coupling_fields, rep.kicks_reapplied), (substeps, substeps - 1));
        let mut warm = cold[1..].to_vec();
        assert_eq!(logs[1].borrow()[..warm.len()], warm[..], "hydro, s={substeps}");
        warm.push("set-masses");
        assert_eq!(*logs[0].borrow(), warm, "gravity with exchange, s={substeps}");
        assert_eq!(*logs[2].borrow(), vec!["compute-kick"; 2 * s], "s={substeps}");
        assert_eq!(*logs[3].borrow(), ["evolve-stars"]);
    }
}

/// Per-role `(calls, bytes_out, bytes_in)` of one iteration of `s`
/// substeps over `n_stars` stars and `n_gas` gas with `k` coupling
/// shards, in role order (gravity, hydro, coupling): the frame sizes of
/// the wire protocol, in closed form. Every frame has a 32-byte header.
/// A cold iteration adds each dynamics worker's snapshot and the
/// priming field, the one field request of the mass epoch whose sets
/// carry masses; steps answer positions only.
fn closed_form_books(n_stars: u64, n_gas: u64, s: u64, k: u64, cold: bool) -> [(u64, u64, u64); 3] {
    let dynamics = |n: u64| {
        // s steps (t and dv out, positions in), one closing kick
        let (calls, out, inn) = (s + 1, s * (40 + 24 * n) + 32 + 24 * n, s * (32 + 24 * n) + 40);
        // the open: a header-only request, a full snapshot back
        if cold {
            (calls + 1, out + 32, inn + 32 + 56 * n)
        } else {
            (calls, out, inn)
        }
    };
    // a field to each shard: four range bounds and both sets' positions
    // out, every shard's piece of the n accelerations back
    let n = n_stars + n_gas;
    let (field_out, field_in) = (k * (64 + 24 * n), 32 * k + 24 * n);
    let (fields, primes) = (s + cold as u64, cold as u64);
    let coupling = (k * fields, fields * field_out + primes * k * 8 * n, fields * field_in);
    [dynamics(n_stars), dynamics(n_gas), coupling]
}

#[test]
fn frame_bytes_per_role_follow_their_closed_forms() {
    // no stellar worker, so no exchange: iteration 1 opens cold and the
    // rest warm; a heal between iterations leaves the bridge cold again
    let c = uneven_cluster();
    let (n_stars, n_gas) = (c.stars.mass.len() as u64, c.gas.mass.len() as u64);
    let substeps = 3;
    let cfg = config(&c, substeps, 1);
    let cold_at = [true, false, true, false];
    for k in [1usize, 2] {
        let mut per_transport = Vec::new();
        for transport in [Transport::Local, Transport::Tcp] {
            let mut fleet = WorkerFleet::new();
            let [g, h, cp, _] = channels_over(transport, k, &c, &mut fleet);
            let mut bridge = Bridge::new(g, h, cp, None, cfg.clone());
            let mut booked = Vec::new();
            for (i, &cold) in cold_at.iter().enumerate() {
                if cold && i > 0 {
                    assert!(bridge.heal_channels());
                }
                let before = bridge.channel_stats();
                bridge.iteration();
                let after = bridge.channel_stats();
                let delta = |a: &ChannelStats, b: &ChannelStats| {
                    (a.calls - b.calls, a.bytes_out - b.bytes_out, a.bytes_in - b.bytes_in)
                };
                let got = [
                    delta(&after.0, &before.0),
                    delta(&after.1, &before.1),
                    delta(&after.2, &before.2),
                ];
                let want = closed_form_books(n_stars, n_gas, substeps as u64, k as u64, cold);
                assert_eq!(got, want, "{transport:?} K={k} iteration {} (cold: {cold})", i + 1);
                booked.push(got);
            }
            drop(bridge);
            fleet.join_all().expect("every server exits cleanly");
            per_transport.push(booked);
        }
        assert_eq!(per_transport[0], per_transport[1], "K={k}: local and TCP book alike");
    }
}

/// A model holding a fixed particle set: answers snapshots, accepts
/// kicks and evolves, and computes a null field.
struct Inert(ParticleData);

impl ModelWorker for Inert {
    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::GetParticles => Response::Particles(self.0.clone()),
            Request::ComputeKick { targets, .. } => {
                Response::Accelerations { acc: vec![[0.0; 3]; targets.len()], flops: 0.0 }
            }
            _ => Response::Ok { flops: 0.0 },
        }
    }
    fn name(&self) -> String {
        "inert".into()
    }
}

#[test]
fn an_empty_set_is_not_a_special_case() {
    let c = cluster();
    let some = |n: usize| ParticleData {
        mass: vec![1.0; n],
        pos: vec![[0.0; 3]; n],
        vel: vec![[0.0; 3]; n],
    };
    for (n_stars, n_gas) in [(0, 5), (5, 0)] {
        let logs: [Log; 3] = Default::default();
        let inert = |n, log| probed(Box::new(Inert(some(n))), log, None);
        let (g, h, cp) = (inert(n_stars, &logs[0]), inert(n_gas, &logs[1]), inert(0, &logs[2]));
        let mut bridge = Bridge::new(g, h, cp, None, config(&c, 3, 1));
        let rep = bridge.iteration();

        // the same calls as with both sets populated: the empty set's
        // half of every field and kick is simply empty
        assert_eq!((rep.coupling_fields, rep.kicks_reapplied), (4, 2));
        assert_eq!(rep.calls, 4 + 2 * 3 + 4);
        assert_eq!(*logs[0].borrow(), worker_sequence(3), "stars={n_stars} gas={n_gas}");
        assert_eq!(*logs[1].borrow(), worker_sequence(3), "stars={n_stars} gas={n_gas}");
        assert_eq!(logs[2].borrow().len(), 2 * 4);
    }
}

/// Gravity's 6th request with two substeps is the re-applied kick that
/// opens substep 2 — the second application of the step's `n = 2`:
/// `get | kick evolve get | kick kick …`.
const REAPPLIED_KICK: usize = 6;

#[test]
fn a_failure_in_a_reapplied_phase_is_a_kick_error() {
    let c = cluster();
    let (channels, logs) = probed_channels(&c, Some(REAPPLIED_KICK));
    let mut bridge = bridge_over(channels, config(&c, 2, 1));
    match bridge.try_iteration() {
        // the step that carried the kick reports what the kick said
        Err(BridgeError::Worker { role: Role::Gravity, op: "step", detail }) => {
            assert!(detail.contains("injected failure"), "{detail}")
        }
        other => panic!("expected a gravity step failure, got {other:?}"),
    }
    let log = logs[0].borrow();
    assert_eq!(log[REAPPLIED_KICK - 2..], ["kick", "kick"], "the failure hit the reused phase");
    // the step stopped there: it did not evolve, and no field followed it
    assert_eq!(logs[2].borrow().len(), 2 * 2);
}

#[test]
fn recovery_replays_a_failed_reapplied_phase_to_the_same_digest() {
    let c = cluster();
    let cfg = config(&c, 2, 1);
    let want = naive_run(local_channels(&c), &cfg, ITERATIONS);

    // the checkpoint's save-state is gravity's first request
    let (channels, _logs) = probed_channels(&c, Some(1 + REAPPLIED_KICK));
    let mut bridge = bridge_over(channels, cfg);
    let policy = RecoveryPolicy::default();
    let mut checkpoint: Option<Checkpoint> = None;
    let mut recoveries = 0;
    for _ in 0..ITERATIONS {
        let (_rep, rec) = bridge.iteration_recovering(&mut checkpoint, &policy).expect("recovers");
        recoveries += rec;
    }
    assert_eq!(recoveries, 1, "the injected failure fires exactly once");
    assert_same(&outcome_of(&mut bridge), &want, "recovered run");
}

/// One substep per iteration, an exchange after every one, and a
/// stellar clock running 1000× fast: the cluster's most massive star
/// explodes at the first exchange, so there is an `AddGas` to refuse.
fn supernova_config(c: &EmbeddedCluster) -> BridgeConfig {
    let cfg = config(c, 1, 1);
    BridgeConfig { time_unit_myr: 1000.0 * cfg.time_unit_myr, ..cfg }
}

/// Channels of `c` with the hydro worker behind a [`Probe`] that refuses
/// its first `AddGas`.
fn channels_refusing_the_first_add_gas(c: &EmbeddedCluster) -> ([Box<dyn Channel>; 4], Log) {
    let log = Log::default();
    let [g, _, cp, s] = local_channels(c);
    let hydro = Box::new(LocalChannel::new(Box::new(Probe {
        inner: Box::new(HydroWorker::new(c.gas.clone())),
        log: log.clone(),
        fail_at: Some(1),
        fail_op: Some("add-gas"),
        counted: 0,
    })));
    ([g, hydro, cp, s], log)
}

#[test]
fn a_refused_feedback_call_fails_the_iteration() {
    let c = cluster();
    let (channels, log) = channels_refusing_the_first_add_gas(&c);
    let mut bridge = bridge_over(channels, supernova_config(&c));
    match bridge.try_iteration() {
        Err(BridgeError::Worker { role: Role::Hydro, op: "feedback", detail }) => {
            assert!(detail.contains("injected failure"), "{detail}")
        }
        other => panic!("expected a hydro feedback failure, got {other:?}"),
    }
    let log = log.borrow();
    assert_eq!(log[log.len() - 2..], ["inject-energy", "add-gas"], "stopped at the refusal");
}

#[test]
fn recovery_replays_a_refused_feedback_call_to_the_same_digest() {
    let c = cluster();
    let cfg = supernova_config(&c);
    let want = naive_run(local_channels(&c), &cfg, ITERATIONS);
    assert!(want.3 > 0, "sanity: the reference run has a supernova to feed back");
    let (channels, log) = channels_refusing_the_first_add_gas(&c);
    let mut bridge = bridge_over(channels, cfg);
    let policy = RecoveryPolicy::default();
    let mut checkpoint: Option<Checkpoint> = None;
    let mut recoveries = 0;
    for _ in 0..ITERATIONS {
        let (_rep, rec) = bridge.iteration_recovering(&mut checkpoint, &policy).expect("recovers");
        recoveries += rec;
    }
    assert_eq!(recoveries, 1, "the refusal fires exactly once");
    assert!(log.borrow().iter().filter(|&&o| o == "add-gas").count() >= 2, "and was replayed");
    assert_same(&outcome_of(&mut bridge), &want, "recovered run");
}

/// Per-role `(calls, bytes_out, bytes_in)`, in role order (gravity,
/// hydro, coupling, stellar).
type Books = [(u64, u64, u64); 4];

fn books(bridge: &Bridge) -> Books {
    let (g, h, c, s) = bridge.channel_stats();
    [g, h, c, s.expect("a stellar worker")].map(|x| (x.calls, x.bytes_out, x.bytes_in))
}

/// Run `bridge` until it has completed `n` iterations and return what
/// each of them booked.
fn books_per_iteration(bridge: &mut Bridge, n: u64) -> Vec<Books> {
    let mut out = Vec::new();
    while bridge.iterations() < n {
        let before = books(bridge);
        bridge.iteration();
        let after = books(bridge);
        out.push(std::array::from_fn(|r| {
            let ((c1, o1, i1), (c0, o0, i0)) = (after[r], before[r]);
            (c1 - c0, o1 - o0, i1 - i0)
        }));
    }
    out
}

#[test]
fn restore_is_accounting_transparent() {
    // enough iterations for a cold open after an exchange, then warm ones
    const N: u64 = 4;
    let c = cluster();
    for interval in [1, 2, 3] {
        for substeps in [1, 3] {
            let cfg = config(&c, substeps, interval);
            for (transport, k) in [(Transport::Local, 1), (Transport::Tcp, 2)] {
                let what = format!("n={interval} s={substeps} {transport:?} K={k}");
                let mut fleet = WorkerFleet::new();
                let mut bridge =
                    bridge_over(channels_over(transport, k, &c, &mut fleet), cfg.clone());
                let mut checkpoints = Vec::new();
                let mut straight = Vec::new();
                for done in 0..N {
                    checkpoints.push(bridge.snapshot().unwrap());
                    straight.extend(books_per_iteration(&mut bridge, done + 1));
                }
                let want = outcome_of(&mut bridge);
                drop(bridge);
                fleet.join_all().expect("every server exits cleanly");

                for (at, ck) in checkpoints.iter().enumerate() {
                    let mut fleet = WorkerFleet::new();
                    let mut bridge =
                        bridge_over(channels_over(transport, k, &c, &mut fleet), cfg.clone());
                    bridge.restore(ck).unwrap();
                    let replayed = books_per_iteration(&mut bridge, N);
                    assert_eq!(
                        replayed,
                        straight[at..],
                        "{what}: accounting after restore at {at}"
                    );
                    let got = outcome_of(&mut bridge);
                    drop(bridge);
                    fleet.join_all().expect("every server exits cleanly");
                    assert_same(&got, &want, &format!("{what}: restored at {at}"));
                }
            }
        }
    }
}

#[test]
fn recovery_replays_a_failed_warm_step_to_the_same_digest_and_calls() {
    let c = cluster();
    let substeps = 2;
    let cfg = config(&c, substeps, 2);
    let want = naive_run(local_channels(&c), &cfg, ITERATIONS);
    let mut straight = bridge_over(local_channels(&c), cfg.clone());
    let straight: Vec<_> = (0..ITERATIONS)
        .map(|_| {
            let rep = straight.iteration();
            (rep.calls, rep.coupling_fields, rep.kicks_reapplied)
        })
        .collect();

    // iteration 1 kicks gravity 2s times, so its (2s+1)th kick is the
    // first request of iteration 2, which opens warm
    let fail_at = 2 * substeps as usize + 1;
    let log = Log::default();
    let [_, h, cp, s] = local_channels(&c);
    let gravity = Box::new(LocalChannel::new(Box::new(Probe {
        inner: Box::new(GravityWorker::new(c.stars.clone(), Backend::CpuParallel)),
        log: log.clone(),
        fail_at: Some(fail_at),
        fail_op: Some("kick"),
        counted: 0,
    })));
    let mut bridge = bridge_over([gravity, h, cp, s], cfg);
    let policy = RecoveryPolicy::default();
    let mut checkpoint: Option<Checkpoint> = None;
    let mut recoveries = Vec::new();
    let mut replayed = Vec::new();
    for _ in 0..ITERATIONS {
        let (rep, rec) = bridge.iteration_recovering(&mut checkpoint, &policy).expect("recovers");
        recoveries.push(rec);
        replayed.push((rep.calls, rep.coupling_fields, rep.kicks_reapplied));
    }
    assert_eq!(recoveries, [0, 1, 0], "the injected failure hits iteration 2 once");
    // the failed step opened its iteration: the request before it is the
    // checkpoint's save-state, not a snapshot
    let log = log.take();
    let failed = log.iter().enumerate().filter(|(_, &o)| o == "kick").nth(fail_at - 1).unwrap().0;
    assert_eq!(log[failed - 1], "other", "{log:?}");
    assert_eq!(replayed, straight, "the replay makes the straight run's calls");
    assert_eq!(replayed[1].1, substeps, "and it opens warm");
    assert_same(&outcome_of(&mut bridge), &want, "recovered run");
}
