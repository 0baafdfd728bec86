//! Failure injection: kill a shard worker mid-iteration and prove the
//! recovered run is bitwise-identical to one that never failed.
//!
//! This is the acceptance test for the fault-tolerant runtime: the
//! paper's §5 says *"if one worker crashes, the entire simulation
//! crashes"* — here a worker crashes and the simulation finishes with
//! the exact same bits. Two transports are exercised:
//!
//! * loopback TCP (`spawn_flaky_tcp_worker`): the server vanishes
//!   mid-conversation after a deterministic number of requests, the
//!   supervisor respawns a fresh process-equivalent server, and the
//!   bridge restores its checkpoint and replays;
//! * in-process `LocalChannel`s with a crashing worker wrapper and *no*
//!   supervisor: the dead shard is excluded and the pool re-partitions
//!   over the survivors.
//!
//! A respawned shard holds no masses (see `jc_amuse::host`): it refuses
//! mass-free field requests until primed, and a shard killed mid-epoch
//! recovers to the straight run's bits and per-block bytes.

use jungle::amuse::channel::{Channel, LocalChannel};
use jungle::amuse::shard::ShardedChannel;
use jungle::amuse::socket::{spawn_flaky_tcp_worker, spawn_tcp_worker, WorkerFleet};
use jungle::amuse::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ModelWorker, ParticleData, Request, Response,
    StellarWorker,
};
use jungle::amuse::{
    Bridge, BridgeConfig, Checkpoint, EmbeddedCluster, RecoveryPolicy, SocketChannel,
};
use jungle::nbody::Backend;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

const ITERATIONS: u32 = 4;
/// Iterations completed before the victim's fuse is armed.
const CLEAN_ITERATIONS: u32 = 2;
/// Requests the victim still serves after arming — small enough that it
/// dies inside the next iteration's field fan-out: an iteration of 4
/// substeps sends a coupling shard 5 `ComputeField`s (each one request
/// to a TCP server, two `ComputeKick`s to `CrashAfter`, which has no
/// borrowed legs), then the checkpoint's `SaveState`.
const FUSE: i64 = 3;

fn cluster() -> EmbeddedCluster {
    EmbeddedCluster::build(32, 128, 0.5, 17)
}

fn config(c: &EmbeddedCluster) -> BridgeConfig {
    let mut cfg = c.bridge_config();
    cfg.substeps = 4;
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

/// The uninterrupted reference: everything in process, no failures.
fn baseline() -> (ParticleData, ParticleData, u32, f64) {
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
    (stars, gas, bridge.total_supernovae(), bridge.model_time())
}

/// A bridge over loopback TCP: healthy gravity, hydro and stellar
/// servers, and a coupling pool of one flaky server per fuse whose
/// supervisor respawns a dead shard as a fresh server. Every server is
/// adopted into `fleet`.
fn tcp_bridge(
    c: &EmbeddedCluster,
    fuses: &[Arc<AtomicI64>],
    fleet: &Rc<RefCell<WorkerFleet>>,
) -> Bridge {
    let (stars_ics, gas_ics, imf) = (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
    let (g_addr, g_h) =
        spawn_tcp_worker("grav", move || GravityWorker::new(stars_ics, Backend::Scalar));
    fleet.borrow_mut().adopt(g_addr, g_h);
    let (h_addr, h_h) = spawn_tcp_worker("hydro", move || HydroWorker::new(gas_ics));
    fleet.borrow_mut().adopt(h_addr, h_h);
    let (s_addr, s_h) = spawn_tcp_worker("sse", move || StellarWorker::new(imf, 0.02));
    fleet.borrow_mut().adopt(s_addr, s_h);
    let pool = tcp_coupling_pool(fuses, fleet);
    Bridge::new(
        Box::new(SocketChannel::connect(g_addr, "grav").expect("connect gravity")),
        Box::new(SocketChannel::connect(h_addr, "hydro").expect("connect hydro")),
        Box::new(pool),
        Some(Box::new(SocketChannel::connect(s_addr, "sse").expect("connect stellar"))),
        config(c),
    )
}

/// The coupling pool of [`tcp_bridge`]: K = `fuses.len()` flaky servers,
/// and a supervisor that respawns a dead one as a fresh server.
fn tcp_coupling_pool(fuses: &[Arc<AtomicI64>], fleet: &Rc<RefCell<WorkerFleet>>) -> ShardedChannel {
    let shards: Vec<Box<dyn Channel>> = fuses
        .iter()
        .enumerate()
        .map(|(i, fuse)| {
            let (addr, h) =
                spawn_flaky_tcp_worker(format!("fi-{i}"), CouplingWorker::fi, fuse.clone());
            fleet.borrow_mut().adopt(addr, h);
            Box::new(SocketChannel::connect(addr, format!("fi-{i}")).expect("connect shard"))
                as Box<dyn Channel>
        })
        .collect();
    let fleet_c = fleet.clone();
    let supervisor = move |i: usize| -> Option<Box<dyn Channel>> {
        let (addr, h) = spawn_tcp_worker(format!("fi-{i}-respawn"), CouplingWorker::fi);
        fleet_c.borrow_mut().adopt(addr, h);
        Some(Box::new(SocketChannel::connect(addr, format!("fi-{i}-respawn")).ok()?)
            as Box<dyn Channel>)
    };
    let k = fuses.len();
    ShardedChannel::with_counts(shards, vec![0; k]).with_supervisor(Box::new(supervisor))
}

/// Fuses that never fire, one per shard.
fn unlit(k: usize) -> Vec<Arc<AtomicI64>> {
    (0..k).map(|_| Arc::new(AtomicI64::new(i64::MAX))).collect()
}

#[test]
fn tcp_shard_killed_mid_iteration_recovers_bitwise() {
    let (ref_stars, ref_gas, ref_sn, ref_time) = baseline();

    for k in 1..=3usize {
        let c = cluster();
        // Fleet first, so it drops *after* the bridge on every exit
        // path: a panicking assertion below unwinds through the
        // bridge's Stop frames, then the fleet shuts down and joins
        // whatever is left — including supervisor respawns — instead of
        // leaking server threads blocked in accept.
        let fleet = Rc::new(RefCell::new(WorkerFleet::new()));
        // the coupling pool: K flaky servers, one of which will be shot
        let victim = (3 + 7 * k) % k;
        let fuses = unlit(k);
        let mut bridge = tcp_bridge(&c, &fuses, &fleet);

        let policy = RecoveryPolicy { max_retries: 2, checkpoint_interval: 1 };
        let mut checkpoint: Option<Checkpoint> = None;
        let mut recoveries = 0u32;
        for i in 0..ITERATIONS {
            if i == CLEAN_ITERATIONS {
                // arm the fuse: the victim dies a few requests into this
                // iteration's field fan-out
                fuses[victim].store(FUSE, Ordering::SeqCst);
            }
            let (_rep, rec) = bridge
                .iteration_recovering(&mut checkpoint, &policy)
                .unwrap_or_else(|e| panic!("k={k}: {e}"));
            recoveries += rec;
        }
        assert!(recoveries >= 1, "k={k}: the kill must actually trigger a recovery");

        let (stars, gas) = bridge.snapshots();
        assert_eq!(bridge.model_time().to_bits(), ref_time.to_bits(), "k={k}");
        assert_eq!(bridge.total_supernovae(), ref_sn, "k={k}");
        assert!(bitwise_eq(&stars, &ref_stars), "k={k}: star state diverged");
        assert!(bitwise_eq(&gas, &ref_gas), "k={k}: gas state diverged");

        drop(bridge); // Stop frames shut the healthy servers down
        fleet.borrow_mut().join_all().expect("every server exits cleanly");
    }
}

/// Per-role `(calls, bytes_out, bytes_in)` booked by each
/// `iteration_recovering` block of a K = 2 TCP run, the recoveries each
/// needed, and the digest it ends with. With `kill_in`, one coupling
/// shard is armed to die two requests into that block.
#[allow(clippy::type_complexity)]
fn blocks_of_a_tcp_run(
    kill_in: Option<u32>,
) -> (Vec<([(u64, u64, u64); 4], u32)>, (ParticleData, ParticleData, u64)) {
    let c = cluster();
    let fleet = Rc::new(RefCell::new(WorkerFleet::new()));
    let fuses = unlit(2);
    let mut bridge = tcp_bridge(&c, &fuses, &fleet);
    let books = |b: &Bridge| {
        let (g, h, cp, s) = b.channel_stats();
        [g, h, cp, s.expect("a stellar worker")].map(|x| (x.calls, x.bytes_out, x.bytes_in))
    };
    let policy = RecoveryPolicy { max_retries: 2, checkpoint_interval: 1 };
    let mut checkpoint: Option<Checkpoint> = None;
    let mut blocks = Vec::new();
    for i in 0..ITERATIONS {
        if kill_in == Some(i) {
            fuses[1].store(2, Ordering::SeqCst);
        }
        let before = books(&bridge);
        let (_rep, rec) = bridge.iteration_recovering(&mut checkpoint, &policy).expect("recovers");
        let after = books(&bridge);
        let delta = std::array::from_fn(|r| {
            let ((c1, o1, i1), (c0, o0, i0)) = (after[r], before[r]);
            (c1.wrapping_sub(c0), o1.wrapping_sub(o0), i1.wrapping_sub(i0))
        });
        blocks.push((delta, rec));
    }
    let (stars, gas) = bridge.snapshots();
    let digest = (stars, gas, bridge.model_time().to_bits());
    drop(bridge);
    fleet.borrow_mut().join_all().expect("every server exits cleanly");
    (blocks, digest)
}

/// Killed *mid-epoch* — inside an iteration that opened warm, whose
/// fields carry positions only — a coupling shard is respawned holding
/// no masses. The recovery's restore re-opens through the priming field,
/// so the replay reaches the straight run's bits, and every block after
/// it books the straight run's calls and bytes: the respawned shard is
/// primed once and then served mass-free like its peer.
#[test]
fn tcp_shard_killed_mid_epoch_recovers_the_straight_runs_bits_and_bytes() {
    // iteration 2 opens warm: iteration 1 ended without an exchange
    let kill_in = 1;
    let (straight, want) = blocks_of_a_tcp_run(None);
    let (recovered, got) = blocks_of_a_tcp_run(Some(kill_in));
    let recoveries: Vec<u32> = recovered.iter().map(|&(_, rec)| rec).collect();
    assert_eq!(recoveries, [0, 1, 0, 0], "the kill forces exactly one recovery");
    for (i, (block, want_block)) in recovered.iter().zip(&straight).enumerate() {
        if i != kill_in as usize {
            assert_eq!(block, want_block, "block {}: calls and bytes", i + 1);
        }
    }
    assert!(bitwise_eq(&got.0, &want.0), "star state diverged");
    assert!(bitwise_eq(&got.1, &want.1), "gas state diverged");
    assert_eq!(got.2, want.2, "clock diverged");
}

/// A respawned shard holds no masses: a mass-free field request to the
/// pool is refused, typed, until a priming request reaches every shard
/// — and from then on the pool answers what it answered before the kill.
#[test]
fn a_respawned_tcp_shard_refuses_mass_free_fields_until_primed() {
    let fleet = Rc::new(RefCell::new(WorkerFleet::new()));
    let fuses = unlit(2);
    let mut pool = tcp_coupling_pool(&fuses, &fleet);
    let c = cluster();
    let set = |mass: &[f64], pos: &[[f64; 3]]| ParticleData {
        mass: mass.to_vec(),
        pos: pos.to_vec(),
        vel: Vec::new(),
    };
    let (stars, gas) = (set(&c.stars.mass, &c.stars.pos), set(&c.gas.mass, &c.gas.pos));
    let ranges = ((0, stars.pos.len()), (0, gas.pos.len()));
    let field = |pool: &mut ShardedChannel, prime: bool| {
        let mut acc = Vec::new();
        pool.submit_field(&stars, &gas, prime, ranges.0, ranges.1);
        pool.collect_accelerations_into(&mut acc).map(|flops| (acc, flops.to_bits()))
    };
    let want = field(&mut pool, true).expect("a primed pool answers");
    assert_eq!(field(&mut pool, false).as_ref(), Some(&want), "mass-free, held masses");
    // kill shard 1 at its next request, and let the supervisor respawn it
    fuses[1].store(0, Ordering::SeqCst);
    assert_eq!(field(&mut pool, false), None, "the kill surfaces");
    assert!(pool.heal());
    assert_eq!(pool.respawns(), 1);
    assert_eq!(field(&mut pool, false), None, "the respawned shard holds no masses");
    let owned = pool.call(Request::ComputeField {
        star_pos: stars.pos.clone(),
        gas_pos: gas.pos.clone(),
        masses: None,
        star_range: ranges.0,
        gas_range: ranges.1,
    });
    assert!(matches!(owned, Response::Error(_)), "an unprimed shard must refuse: {owned:?}");
    assert_eq!(field(&mut pool, true).as_ref(), Some(&want), "priming again");
    assert_eq!(field(&mut pool, false), Some(want), "then mass-free again");
    drop(pool);
    fleet.borrow_mut().join_all().expect("every server exits cleanly");
}

/// A worker that serves `fuse` requests, then answers only errors — the
/// in-process image of a dead node.
struct CrashAfter {
    inner: Box<dyn ModelWorker>,
    fuse: Arc<AtomicI64>,
}

impl ModelWorker for CrashAfter {
    fn handle(&mut self, req: Request) -> Response {
        if self.fuse.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return Response::Error("injected crash".into());
        }
        self.inner.handle(req)
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

#[test]
fn local_shard_excluded_without_supervisor_recovers_bitwise() {
    let (ref_stars, ref_gas, ref_sn, ref_time) = baseline();

    for k in 2..=3usize {
        let c = cluster();
        let victim = (1 + 5 * k) % k;
        let fuses: Vec<Arc<AtomicI64>> =
            (0..k).map(|_| Arc::new(AtomicI64::new(i64::MAX))).collect();
        let shards: Vec<Box<dyn Channel>> = (0..k)
            .map(|i| {
                Box::new(LocalChannel::new(Box::new(CrashAfter {
                    inner: Box::new(CouplingWorker::fi()),
                    fuse: fuses[i].clone(),
                }))) as Box<dyn Channel>
            })
            .collect();
        // no supervisor: the dead shard must be excluded
        let pool = ShardedChannel::with_counts(shards, vec![0; k]);

        let mut bridge = Bridge::new(
            Box::new(LocalChannel::new(Box::new(GravityWorker::new(
                c.stars.clone(),
                Backend::Scalar,
            )))),
            Box::new(LocalChannel::new(Box::new(HydroWorker::new(c.gas.clone())))),
            Box::new(pool),
            Some(Box::new(LocalChannel::new(Box::new(StellarWorker::new(
                c.star_masses_msun.clone(),
                0.02,
            ))))),
            config(&c),
        );

        // checkpoint only every 2nd iteration, and arm the fuse so the
        // failure lands one iteration *past* the last checkpoint: the
        // recovery must rewind two iterations and catch back up, not
        // just replay one
        let policy = RecoveryPolicy { max_retries: 2, checkpoint_interval: 2 };
        let mut checkpoint: Option<Checkpoint> = None;
        let mut recoveries = 0u32;
        for i in 0..ITERATIONS {
            if i == CLEAN_ITERATIONS + 1 {
                fuses[victim].store(FUSE, Ordering::SeqCst);
            }
            let (_rep, rec) = bridge
                .iteration_recovering(&mut checkpoint, &policy)
                .unwrap_or_else(|e| panic!("k={k}: {e}"));
            recoveries += rec;
            assert_eq!(bridge.iterations(), (i + 1) as u64, "k={k}: iteration count truthful");
        }
        assert!(recoveries >= 1, "k={k}: the crash must actually trigger a recovery");

        let (stars, gas) = bridge.snapshots();
        assert_eq!(bridge.model_time().to_bits(), ref_time.to_bits(), "k={k}");
        assert_eq!(bridge.total_supernovae(), ref_sn, "k={k}");
        assert!(bitwise_eq(&stars, &ref_stars), "k={k}: star state diverged after exclusion");
        assert!(bitwise_eq(&gas, &ref_gas), "k={k}: gas state diverged after exclusion");
    }
}

#[test]
fn checkpoint_file_survives_a_new_bridge_instance() {
    // restore-into-a-fresh-process smoke: run 2 iterations, checkpoint
    // to a file, rebuild the whole bridge from initial conditions,
    // restore, run 2 more — bitwise equal to 4 straight iterations
    let (ref_stars, ref_gas, ref_sn, ref_time) = baseline();
    let c = cluster();
    let build = |c: &EmbeddedCluster| {
        Bridge::new(
            Box::new(LocalChannel::new(Box::new(GravityWorker::new(
                c.stars.clone(),
                Backend::Scalar,
            )))),
            Box::new(LocalChannel::new(Box::new(HydroWorker::new(c.gas.clone())))),
            Box::new(LocalChannel::new(Box::new(CouplingWorker::fi()))),
            Some(Box::new(LocalChannel::new(Box::new(StellarWorker::new(
                c.star_masses_msun.clone(),
                0.02,
            ))))),
            config(c),
        )
    };
    let path = std::env::temp_dir().join(format!("jc-failover-ck-{}.bin", std::process::id()));
    let mut first = build(&c);
    first.iteration();
    first.iteration();
    first.snapshot_to(&path).expect("write checkpoint");
    drop(first);

    let mut second = build(&c); // fresh initial conditions
    second.restore_from(&path).expect("read checkpoint");
    let _ = std::fs::remove_file(&path);
    assert_eq!(second.iterations(), 2);
    second.iteration();
    second.iteration();
    let (stars, gas) = second.snapshots();
    assert_eq!(second.model_time().to_bits(), ref_time.to_bits());
    assert_eq!(second.total_supernovae(), ref_sn);
    assert!(bitwise_eq(&stars, &ref_stars));
    assert!(bitwise_eq(&gas, &ref_gas));
}
