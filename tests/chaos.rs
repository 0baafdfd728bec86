//! Chaos soak: seeded fault schedules over live loopback TCP shards,
//! every one asserted bitwise-identical to the fault-free run.
//!
//! Each seed derives a [`FaultPlan`] — connection refusals, read/write
//! timeouts, short reads, torn frames, corrupted headers, worker
//! crashes, checkpoint truncations — and the whole schedule is a pure
//! function of that seed. A consecutive seed range therefore covers
//! every fault site (`KINDS[seed % 8]` is the primary), and any
//! divergence is reported as `JC_CHAOS_SEED=<n>`, which alone
//! reproduces it.
//!
//! Two recovery tiers are exercised and distinguished:
//!
//! * transient faults are absorbed *in place* by the TCP client's
//!   sequence-numbered resend (worker-side dedup makes mutating
//!   requests idempotent) — zero checkpoint restores;
//! * worker crashes surface as fatal and take the heavy path —
//!   supervisor respawn, checkpoint restore, replay.

use jungle::amuse::channel::{Channel, LocalChannel};
use jungle::amuse::chaos::{FaultKind, FaultPlan, IoFault, RetryPolicy, StreamFaults, KINDS};
use jungle::amuse::reactor::{Reactor, ReactorChannel};
use jungle::amuse::shard::ShardedChannel;
use jungle::amuse::socket::{spawn_flaky_tcp_worker, spawn_tcp_worker};
use jungle::amuse::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ParticleData, StellarWorker,
};
use jungle::amuse::{
    Bridge, BridgeConfig, ChaosWriter, Checkpoint, EmbeddedCluster, RecoveryPolicy, SocketChannel,
};
use jungle::nbody::Backend;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;

/// Seeds per soak run: 4 sweeps over the 8 fault sites.
const SEEDS: u64 = 32;
const ITERATIONS: u32 = 3;

fn cluster() -> EmbeddedCluster {
    EmbeddedCluster::build(24, 96, 0.5, 11)
}

fn config(c: &EmbeddedCluster) -> BridgeConfig {
    let mut cfg = c.bridge_config();
    cfg.substeps = 2;
    cfg.stellar_interval = 2;
    cfg
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

struct Reference {
    stars: ParticleData,
    gas: ParticleData,
    supernovae: u32,
    time: f64,
}

/// The uninterrupted reference: everything in process, no failures.
fn baseline() -> Reference {
    let c = cluster();
    let mut bridge = Bridge::new(
        Box::new(LocalChannel::new(Box::new(GravityWorker::new(c.stars.clone(), Backend::Scalar)))),
        Box::new(LocalChannel::new(Box::new(HydroWorker::new(c.gas.clone())))),
        Box::new(LocalChannel::new(Box::new(CouplingWorker::fi()))),
        Some(Box::new(LocalChannel::new(Box::new(StellarWorker::new(
            c.star_masses_msun.clone(),
            0.02,
        ))))),
        config(&c),
    );
    for _ in 0..ITERATIONS {
        bridge.iteration();
    }
    let (stars, gas) = bridge.snapshots();
    Reference { stars, gas, supernovae: bridge.total_supernovae(), time: bridge.model_time() }
}

/// Which reactor topology a chaos soak drives its channels over — the
/// client is the same, what differs is when frames flush and whose
/// waits advance whose I/O.
#[derive(Clone, Copy, PartialEq)]
enum Transport {
    /// [`SocketChannel`]s: every channel alone on a private reactor.
    Private,
    /// [`ReactorChannel`]s on one shared [`Reactor`].
    Reactor,
}

/// One channel to `addr` over `transport`, retrying under `retry` and
/// faulted per `faults`.
fn faulty_channel(
    transport: Transport,
    reactor: &Rc<RefCell<Reactor>>,
    addr: std::net::SocketAddr,
    name: String,
    retry: RetryPolicy,
    faults: StreamFaults,
) -> Box<dyn Channel> {
    match transport {
        Transport::Private => Box::new(
            SocketChannel::connect(addr, name)
                .expect("connect")
                .with_retry(retry)
                .with_chaos(faults),
        ),
        Transport::Reactor => Box::new(
            ReactorChannel::connect(reactor, addr, name)
                .expect("connect")
                .with_retry(retry)
                .with_chaos(faults),
        ),
    }
}

/// Run one seeded fault schedule over a live loopback TCP cluster with
/// `k` coupling shards and compare the final state bitwise against the
/// fault-free reference. Returns `(recoveries, in_place_retries)` on
/// convergence, a `JC_CHAOS_SEED=<seed>`-prefixed description on any
/// divergence or unexpected failure. The same seed must converge over
/// both [`Transport`]s: chaos draws happen at identical frame-op
/// boundaries, so one schedule maps onto either implementation.
fn run_chaos_seed(
    seed: u64,
    k: usize,
    reference: &Reference,
    transport: Transport,
) -> Result<(u32, u64), String> {
    let plan = FaultPlan::seeded(seed);
    let fail = |msg: String| format!("JC_CHAOS_SEED={seed} (k={k}): {msg}");
    let c = cluster();
    let mut handles = Vec::new();
    let respawned: Rc<RefCell<Vec<std::thread::JoinHandle<std::io::Result<()>>>>> =
        Rc::new(RefCell::new(Vec::new()));
    let reactor = Reactor::new_shared().expect("reactor");
    let connect = |addr: std::net::SocketAddr, name: String| -> std::io::Result<Box<dyn Channel>> {
        match transport {
            Transport::Private => Ok(Box::new(SocketChannel::connect(addr, name)?)),
            Transport::Reactor => Ok(Box::new(ReactorChannel::connect(&reactor, addr, name)?)),
        }
    };

    // the healthy single workers — the plan only targets the pool
    let (stars_ics, gas_ics, imf) = (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
    let (g_addr, g_h) =
        spawn_tcp_worker("grav", move || GravityWorker::new(stars_ics, Backend::Scalar));
    let (h_addr, h_h) = spawn_tcp_worker("hydro", move || HydroWorker::new(gas_ics));
    let (s_addr, s_h) = spawn_tcp_worker("sse", move || StellarWorker::new(imf, 0.02));
    handles.extend([g_h, h_h, s_h]);

    // K coupling shards, each with its slice of the plan: a crash fuse
    // (if the plan schedules one) plus the transport faults for its
    // stream, absorbed by a fast deterministic retry policy.
    let retry =
        RetryPolicy { backoff_base_ms: 1, backoff_max_ms: 8, ..RetryPolicy::standard(seed) };
    let shards: Vec<Box<dyn Channel>> = (0..k)
        .map(|i| {
            let fuse = Arc::new(AtomicI64::new(plan.crash_fuse(k, i).unwrap_or(i64::MAX)));
            let (addr, h) = spawn_flaky_tcp_worker(format!("fi-{i}"), CouplingWorker::fi, fuse);
            handles.push(h);
            let faults = plan.stream_faults(k, i);
            faulty_channel(transport, &reactor, addr, format!("fi-{i}"), retry, faults)
        })
        .collect();

    // supervisor: respawn a crashed shard as a fresh healthy server on
    // the same transport the pool started with
    let respawned_c = respawned.clone();
    let respawn_reactor = reactor.clone();
    let supervisor = move |i: usize| -> Option<Box<dyn Channel>> {
        let (addr, h) = spawn_tcp_worker(format!("fi-{i}-respawn"), CouplingWorker::fi);
        respawned_c.borrow_mut().push(h);
        let name = format!("fi-{i}-respawn");
        match transport {
            Transport::Private => {
                Some(Box::new(SocketChannel::connect(addr, name).ok()?) as Box<dyn Channel>)
            }
            Transport::Reactor => {
                Some(Box::new(ReactorChannel::connect(&respawn_reactor, addr, name).ok()?)
                    as Box<dyn Channel>)
            }
        }
    };
    let pool =
        ShardedChannel::with_counts(shards, vec![0; k]).with_supervisor(Box::new(supervisor));

    let mut bridge = Bridge::new(
        connect(g_addr, "grav".into()).expect("connect gravity"),
        connect(h_addr, "hydro".into()).expect("connect hydro"),
        Box::new(pool),
        Some(connect(s_addr, "sse".into()).expect("connect stellar")),
        config(&c),
    );

    let policy = RecoveryPolicy { max_retries: 4, checkpoint_interval: 1 };
    let mut checkpoint: Option<Checkpoint> = None;
    let mut recoveries = 0u32;
    for _ in 0..ITERATIONS {
        let (_rep, rec) = bridge
            .iteration_recovering(&mut checkpoint, &policy)
            .map_err(|e| fail(format!("iteration failed: {e}")))?;
        recoveries += rec;
    }

    // Checkpoint-truncation leg: the plan's lying disk reports a
    // successful save but only `keep` bytes land. The per-section CRC
    // (or the framing) must reject the load with a typed error, and the
    // intact save must still round-trip — the soak then proceeds on it.
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
    let (stars, gas) = bridge.snapshots();
    if bridge.model_time().to_bits() != reference.time.to_bits() {
        return Err(fail(format!(
            "model time diverged: {} vs {}",
            bridge.model_time(),
            reference.time
        )));
    }
    if bridge.total_supernovae() != reference.supernovae {
        return Err(fail("supernova count diverged".into()));
    }
    if !bitwise_eq(&stars, &reference.stars) {
        return Err(fail("star state diverged".into()));
    }
    if !bitwise_eq(&gas, &reference.gas) {
        return Err(fail("gas state diverged".into()));
    }

    drop(bridge); // Stop frames shut the healthy servers down
    for h in handles {
        h.join().expect("server thread").map_err(|e| fail(format!("server errored: {e}")))?;
    }
    for h in Rc::try_unwrap(respawned).expect("bridge dropped").into_inner() {
        h.join().expect("respawned thread").map_err(|e| fail(format!("respawn errored: {e}")))?;
    }
    Ok((recoveries, retries))
}

fn sweep_all_seeds(transport: Transport) {
    let reference = baseline();
    let mut failures = Vec::new();
    let mut covered = [false; KINDS.len()];
    let mut in_place = 0u64;
    let mut heavy = 0u32;
    for seed in 0..SEEDS {
        let k = 1 + (seed as usize % 3);
        let plan = FaultPlan::seeded(seed);
        let primary = plan.schedule(k)[0].kind;
        covered[KINDS.iter().position(|&kk| kk == primary).expect("primary from KINDS")] = true;
        match run_chaos_seed(seed, k, &reference, transport) {
            Ok((recoveries, retries)) => {
                in_place += retries;
                heavy += recoveries;
                // a crash schedule must take the heavy path, not luck out
                if primary == FaultKind::WorkerCrash && recoveries == 0 {
                    failures.push(format!(
                        "JC_CHAOS_SEED={seed} (k={k}): crash schedule completed without recovery"
                    ));
                }
            }
            Err(e) => failures.push(e),
        }
    }
    assert!(failures.is_empty(), "diverging seeds:\n{}", failures.join("\n"));
    assert!(
        covered.iter().all(|&c| c),
        "a {SEEDS}-seed sweep must cover every fault site: {covered:?}"
    );
    // both recovery tiers must actually fire across the sweep
    assert!(in_place > 0, "no in-place retries across {SEEDS} seeds");
    assert!(heavy > 0, "no heal/restore recoveries across {SEEDS} seeds");
}

#[test]
fn every_seeded_fault_schedule_converges_to_the_fault_free_run() {
    sweep_all_seeds(Transport::Private);
}

/// The same 32 seeds with every channel on one shared reactor: chaos
/// draws land at identical frame-op boundaries, so every schedule must
/// converge bitwise exactly as it does over private reactors —
/// transient faults absorbed by in-place resends, crashes taking the
/// respawn/restore path.
#[test]
fn every_seeded_fault_schedule_converges_over_the_reactor() {
    sweep_all_seeds(Transport::Reactor);
}

// Hand-built schedule of purely transient transport faults — a lost
// response, a torn frame, a corrupted header, a vanished peer — across
// both shards of a K=2 pool. Every one must be absorbed by the in-place
// sequence-numbered resend: zero checkpoint restores, a positive retry
// count, and bitwise-identical output.
fn transient_schedule(transport: Transport) {
    let reference = baseline();
    let reactor = Reactor::new_shared().expect("reactor");
    let c = cluster();
    let mut handles = Vec::new();

    let (stars_ics, gas_ics, imf) = (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
    let (g_addr, g_h) =
        spawn_tcp_worker("grav", move || GravityWorker::new(stars_ics, Backend::Scalar));
    let (h_addr, h_h) = spawn_tcp_worker("hydro", move || HydroWorker::new(gas_ics));
    let (s_addr, s_h) = spawn_tcp_worker("sse", move || StellarWorker::new(imf, 0.02));
    handles.extend([g_h, h_h, s_h]);

    let retry = RetryPolicy { backoff_base_ms: 1, backoff_max_ms: 8, ..RetryPolicy::standard(42) };
    let schedules = [
        StreamFaults::default()
            .with_read(2, IoFault::ReadTimeout)
            .with_write(5, IoFault::PartialWrite),
        StreamFaults::default()
            .with_read(3, IoFault::CorruptHeader)
            .with_read(6, IoFault::ShortRead)
            .with_write(4, IoFault::WriteTimeout),
    ];
    let shards: Vec<Box<dyn Channel>> = schedules
        .into_iter()
        .enumerate()
        .map(|(i, faults)| {
            let (addr, h) = spawn_tcp_worker(format!("fi-{i}"), CouplingWorker::fi);
            handles.push(h);
            faulty_channel(transport, &reactor, addr, format!("fi-{i}"), retry, faults)
        })
        .collect();
    let pool = ShardedChannel::with_counts(shards, vec![0; 2]);

    let mut bridge = Bridge::new(
        Box::new(SocketChannel::connect(g_addr, "grav").expect("connect gravity")),
        Box::new(SocketChannel::connect(h_addr, "hydro").expect("connect hydro")),
        Box::new(pool),
        Some(Box::new(SocketChannel::connect(s_addr, "sse").expect("connect stellar"))),
        config(&c),
    );

    let policy = RecoveryPolicy { max_retries: 2, checkpoint_interval: 1 };
    let mut checkpoint: Option<Checkpoint> = None;
    let mut recoveries = 0u32;
    for _ in 0..ITERATIONS {
        let (_rep, rec) = bridge.iteration_recovering(&mut checkpoint, &policy).expect("iteration");
        recoveries += rec;
    }

    assert_eq!(recoveries, 0, "transient faults must never reach the restore path");
    let retries = bridge.channel_stats().2.retries;
    assert!(retries >= 5, "all five injected faults retry in place (got {retries})");

    let (stars, gas) = bridge.snapshots();
    assert_eq!(bridge.model_time().to_bits(), reference.time.to_bits());
    assert_eq!(bridge.total_supernovae(), reference.supernovae);
    assert!(bitwise_eq(&stars, &reference.stars), "star state diverged");
    assert!(bitwise_eq(&gas, &reference.gas), "gas state diverged");

    drop(bridge);
    for h in handles {
        h.join().expect("server thread").expect("server exits cleanly");
    }
}

#[test]
fn a_transient_schedule_completes_without_a_single_restore() {
    transient_schedule(Transport::Private);
}

/// The same hand-built transient schedule absorbed entirely in place by
/// the reactor transport's reconnect-and-resend discipline.
#[test]
fn a_transient_schedule_over_the_reactor_retries_in_place() {
    transient_schedule(Transport::Reactor);
}

// The bridge re-applies a coupling field across the kick→kick boundary
// between substeps: the closing half-kick of substep 1 and the opening
// one of substep 2 are the same vector, and reach a worker as one
// `Step` with `n = 2` — two additions, one evolve, one frame. With two
// substeps the gravity and the hydro connection each carry
// `get step(n=1) step(n=2) kick` per iteration, so that step is frame
// 3 and the last closing `Kick` frame 4. Each schedule below loses the
// response of the step (the coupler resends it: the worker must replay
// the positions it answered, not kick twice more and evolve again) and
// then the request or the response of the kick behind it (the worker
// must apply it exactly once). A swallowed or double-applied half-kick
// changes the digest.
fn identical_kick_pair_schedule(transport: Transport) {
    let reference = baseline();
    // Write draws count submitted frames, read draws receive attempts:
    // the step's lost response costs one extra attempt, so the kick is
    // sent as frame 4 and answered at attempt 5.
    let schedules = [
        StreamFaults::default()
            .with_read(3, IoFault::ReadTimeout)
            .with_write(4, IoFault::WriteTimeout),
        StreamFaults::default()
            .with_read(3, IoFault::ShortRead)
            .with_write(4, IoFault::PartialWrite),
        StreamFaults::default()
            .with_read(3, IoFault::CorruptHeader)
            .with_read(5, IoFault::ReadTimeout),
    ];
    for (seed, faults) in schedules.into_iter().enumerate() {
        let reactor = Reactor::new_shared().expect("reactor");
        let c = cluster();
        let mut handles = Vec::new();
        let retry = RetryPolicy {
            backoff_base_ms: 1,
            backoff_max_ms: 8,
            ..RetryPolicy::standard(seed as u64)
        };
        let mut connect = |name: &str, (addr, handle), faults: StreamFaults| {
            handles.push(handle);
            faulty_channel(transport, &reactor, addr, name.into(), retry, faults)
        };
        let (stars_ics, gas_ics, imf) =
            (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
        let gravity = connect(
            "grav",
            spawn_tcp_worker("grav", move || GravityWorker::new(stars_ics, Backend::Scalar)),
            faults.clone(),
        );
        let hydro =
            connect("hydro", spawn_tcp_worker("hydro", move || HydroWorker::new(gas_ics)), faults);
        let calm = StreamFaults::default;
        let coupling = connect("fi", spawn_tcp_worker("fi", CouplingWorker::fi), calm());
        let stellar =
            connect("sse", spawn_tcp_worker("sse", move || StellarWorker::new(imf, 0.02)), calm());

        let mut bridge = Bridge::new(gravity, hydro, coupling, Some(stellar), config(&c));
        for i in 0..ITERATIONS {
            let rep = bridge.try_iteration().expect("transient faults are absorbed in place");
            assert_eq!(rep.kicks_reapplied, 1, "the schedule needs a step that kicks twice");
            if i == 0 {
                let (g, h, ..) = bridge.channel_stats();
                assert_eq!((g.retries, h.retries), (2, 2), "schedule {seed}: both faults fired");
            }
        }

        let (stars, gas) = bridge.snapshots();
        assert_eq!(bridge.model_time().to_bits(), reference.time.to_bits());
        assert_eq!(bridge.total_supernovae(), reference.supernovae);
        assert!(bitwise_eq(&stars, &reference.stars), "schedule {seed}: star state diverged");
        assert!(bitwise_eq(&gas, &reference.gas), "schedule {seed}: gas state diverged");

        drop(bridge);
        for h in handles {
            h.join().expect("server thread").expect("server exits cleanly");
        }
    }
}

#[test]
fn identical_consecutive_kick_frames_survive_drops_and_duplicates() {
    identical_kick_pair_schedule(Transport::Private);
}

/// The same three schedules over the event-driven transport.
#[test]
fn identical_consecutive_kick_frames_survive_over_the_reactor() {
    identical_kick_pair_schedule(Transport::Reactor);
}
