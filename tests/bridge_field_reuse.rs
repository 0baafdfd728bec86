//! The bridge evaluates one coupling field per *position epoch* and
//! re-applies it across the kick→kick boundary between substeps (see
//! the `jc_amuse::bridge` module docs). That must be invisible in
//! state and visible only in the call pattern:
//!
//! * **oracle** — a hand-driven naive Fig 7 loop (a full p-kick phase
//!   before and after every evolve, a fresh snapshot for the stellar
//!   exchange) against the public [`Channel`] API produces bitwise the
//!   same particles as [`Bridge::iteration`], in process and over
//!   loopback TCP with a sharded coupling pool;
//! * **counts** — `10s+4` calls per iteration, `2(s+1)` `ComputeKick`s,
//!   and the exact per-role request sequence;
//! * **edges** — empty particle sets short-circuit both kinds of phase,
//!   and a worker failure inside a re-applied phase is reported and
//!   recovered like any other.

use jungle::amuse::channel::{Channel, LocalChannel};
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

/// The four in-process channels of a fresh cluster.
fn local_channels(c: &EmbeddedCluster) -> [Box<dyn Channel>; 4] {
    [
        Box::new(LocalChannel::new(Box::new(GravityWorker::new(
            c.stars.clone(),
            Backend::CpuParallel,
        )))),
        Box::new(LocalChannel::new(Box::new(HydroWorker::new(c.gas.clone())))),
        Box::new(LocalChannel::new(Box::new(CouplingWorker::fi()))),
        Box::new(LocalChannel::new(Box::new(StellarWorker::new(c.star_masses_msun.clone(), 0.02)))),
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

#[test]
fn bridge_matches_the_naive_loop_in_process() {
    let c = cluster();
    for (substeps, interval) in GRID {
        let cfg = config(&c, substeps, interval);
        let want = naive_run(local_channels(&c), &cfg, ITERATIONS);
        let mut bridge = bridge_over(local_channels(&c), cfg);
        for _ in 0..ITERATIONS {
            let rep = bridge.iteration();
            assert_eq!(rep.coupling_fields, substeps + 1);
            assert_eq!(rep.kicks_reapplied, substeps - 1);
        }
        assert_same(&outcome_of(&mut bridge), &want, &format!("s={substeps} n={interval} local"));
    }
}

/// The same grid over loopback TCP: every model behind a
/// [`ReactorChannel`], the coupling model a K=2 pool. The re-applied
/// kick frames are byte-identical to their predecessors on the same
/// connection, so this also covers the worker-side dedup in the calm
/// case.
#[test]
fn bridge_matches_the_naive_loop_over_the_reactor_with_a_sharded_pool() {
    let c = cluster();
    for (substeps, interval) in GRID {
        let cfg = config(&c, substeps, interval);
        let want = naive_run(local_channels(&c), &cfg, ITERATIONS);

        // fleet first, so it outlives the bridge on every exit path
        let mut fleet = WorkerFleet::new();
        let reactor = Reactor::new_shared().unwrap();
        let connect = |name: &str, addr| -> Box<dyn Channel> {
            Box::new(ReactorChannel::connect(&reactor, addr, name).unwrap())
        };
        let (stars, gas, imf) = (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
        let gravity = connect(
            "grav",
            fleet.spawn("grav", move || GravityWorker::new(stars, Backend::CpuParallel)),
        );
        let hydro = connect("hydro", fleet.spawn("hydro", move || HydroWorker::new(gas)));
        let stellar = connect("sse", fleet.spawn("sse", move || StellarWorker::new(imf, 0.02)));
        let shards = ["fi-0", "fi-1"]
            .map(|name| connect(name, fleet.spawn(name, CouplingWorker::fi)))
            .into_iter()
            .collect();
        let pool = ShardedChannel::with_counts(shards, vec![0; 2]);

        let mut bridge = bridge_over([gravity, hydro, Box::new(pool), stellar], cfg);
        for _ in 0..ITERATIONS {
            let coupling0 = bridge.channel_stats().2.calls;
            bridge.iteration();
            // each of the 2(s+1) ComputeKicks fans out to both shards
            let coupling = bridge.channel_stats().2.calls - coupling0;
            assert_eq!(coupling, 2 * 2 * (substeps as u64 + 1), "s={substeps}");
        }
        let got = outcome_of(&mut bridge);
        drop(bridge); // Stop frames shut the servers down
        fleet.join_all().expect("every server exits cleanly");
        assert_same(&got, &want, &format!("s={substeps} n={interval} reactor K=2"));
    }
}

/// A worker wrapper that logs every request it is handed (the
/// borrowing fast paths fall back to `handle`, so nothing bypasses it)
/// and can fail exactly one of them.
struct Probe {
    inner: Box<dyn ModelWorker>,
    log: Rc<RefCell<Vec<&'static str>>>,
    /// 1-based index of the request to answer with an error.
    fail_at: Option<usize>,
}

fn op(req: &Request) -> &'static str {
    match req {
        Request::GetParticles => "get",
        Request::Kick(_) => "kick",
        Request::EvolveTo(_) => "evolve",
        Request::ComputeKick { .. } => "compute-kick",
        Request::EvolveStars(_) => "evolve-stars",
        Request::SetMasses(_) => "set-masses",
        Request::InjectEnergy { .. } | Request::AddGas { .. } => "feedback",
        _ => "other",
    }
}

impl ModelWorker for Probe {
    fn handle(&mut self, req: Request) -> Response {
        self.log.borrow_mut().push(op(&req));
        if self.fail_at == Some(self.log.borrow().len()) {
            return Response::Error("injected failure".into());
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
    Box::new(LocalChannel::new(Box::new(Probe { inner, log: log.clone(), fail_at })))
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

#[test]
fn an_iteration_makes_10s_plus_4_calls_in_the_documented_order() {
    let c = cluster();
    for substeps in [1u32, 2, 3, 8] {
        let (channels, logs) = probed_channels(&c, None);
        let mut bridge = bridge_over(channels, config(&c, substeps, 2));
        let s = substeps as usize;

        // iteration 1: no stellar exchange
        let rep = bridge.iteration();
        assert_eq!(rep.calls, 10 * substeps as u64 + 4, "s={substeps}");
        let mut per_model = vec!["get", "kick", "evolve", "get", "kick"];
        for _ in 1..s {
            // the re-applied opening kick follows the closing kick directly
            per_model.extend(["kick", "evolve", "get", "kick"]);
        }
        assert_eq!(*logs[0].borrow(), per_model, "gravity, s={substeps}");
        assert_eq!(*logs[1].borrow(), per_model, "hydro, s={substeps}");
        assert_eq!(*logs[2].borrow(), vec!["compute-kick"; 2 * (s + 1)], "s={substeps}");
        assert!(logs[3].borrow().is_empty());

        // iteration 2: the exchange adds one stellar evolve, one
        // set-masses and the feedback calls — and no snapshot of its own
        for log in &logs {
            log.borrow_mut().clear();
        }
        let rep = bridge.iteration();
        let feedback = logs[1].borrow().iter().filter(|&&o| o == "feedback").count();
        assert_eq!(rep.calls, 10 * substeps as u64 + 4 + 2 + feedback as u64, "s={substeps}");
        per_model.push("set-masses");
        assert_eq!(*logs[0].borrow(), per_model, "gravity with exchange, s={substeps}");
        assert_eq!(*logs[3].borrow(), ["evolve-stars"]);
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
fn an_empty_set_short_circuits_full_and_reapplied_phases() {
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

        // s+1 snapshot pairs, s evolve pairs, and not one kick
        assert_eq!((rep.coupling_fields, rep.kicks_reapplied), (0, 0));
        assert_eq!(rep.calls, 2 * 4 + 2 * 3);
        let per_model = ["get", "evolve", "get", "evolve", "get", "evolve", "get"];
        assert_eq!(*logs[0].borrow(), per_model, "stars={n_stars} gas={n_gas}");
        assert_eq!(*logs[1].borrow(), per_model, "stars={n_stars} gas={n_gas}");
        assert!(logs[2].borrow().is_empty(), "no field to compute");
    }
}

/// Gravity's 6th request with two substeps is the re-applied kick that
/// opens substep 2: `get kick evolve get kick | kick`.
const REAPPLIED_KICK: usize = 6;

#[test]
fn a_failure_in_a_reapplied_phase_is_a_kick_error() {
    let c = cluster();
    let (channels, logs) = probed_channels(&c, Some(REAPPLIED_KICK));
    let mut bridge = bridge_over(channels, config(&c, 2, 1));
    match bridge.try_iteration() {
        Err(BridgeError::Worker { role: Role::Gravity, op: "kick", .. }) => {}
        other => panic!("expected a gravity kick failure, got {other:?}"),
    }
    let log = logs[0].borrow();
    assert_eq!(log[REAPPLIED_KICK - 2..], ["kick", "kick"], "the failure hit the reused phase");
    // the phase stopped there: no field was evaluated for it
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
