//! The transport contract: AMUSE's protocol is written once and only
//! the channel under it changes (§4.1), so a channel may be physically
//! real but must be numerically invisible. Every whole-bridge run here
//! is checked against the harness's naive Fig 7 oracle
//! (`tests/bridge_field_reuse.rs` runs the bridge against it on every
//! transport and shard count). The per-row contracts — byte accounting,
//! coupling and state-op pools — have one body each in the harness, run
//! by `tests/socket_channel.rs`, `tests/reactor_equivalence.rs` and
//! `tests/sharded_channel.rs`. This suite holds the rest:
//!
//! * **pools** — a pool nested in a pool is indistinguishable from the
//!   flat one, and a bridge over a sharded socket pool matches the
//!   oracle;
//! * **failover** — a coupling shard killed mid-iteration (loopback
//!   TCP, respawned by the supervisor) or mid-run (in process, excluded
//!   without one) recovers to the oracle's bits. The paper's §5 says
//!   *"if one worker crashes, the entire simulation crashes"*; here it
//!   finishes with the exact same bits. A respawned shard holds no
//!   masses (see `jc_amuse::host`): it refuses mass-free field requests
//!   until primed, and a shard killed mid-epoch recovers to the straight
//!   run's bits and per-block bytes.

mod common;

use common::{
    assert_same, bitwise_eq, bridge_over, local_channels, naive_run, outcome_of, unlit, Hosts,
    Outcome, Transport,
};
use jungle::amuse::channel::{Channel, LocalChannel, ThreadChannel};
use jungle::amuse::shard::{partition, ShardedChannel};
use jungle::amuse::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ModelWorker, ParticleData, Request, Response,
    StellarWorker,
};
use jungle::amuse::{Bridge, BridgeConfig, Checkpoint, EmbeddedCluster, RecoveryPolicy};
use jungle::nbody::plummer::plummer_sphere;
use jungle::nbody::Backend;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// A pool nested in a pool scatters through both levels before any
/// reply is awaited, and must be indistinguishable from the flat pool
/// over the same four loopback workers: state ops and the coupling
/// scatter-gather bitwise equal, byte accounting identical.
#[test]
fn nested_reactor_pool_matches_flat_pool() {
    let ics = plummer_sphere(42, 13);
    let scene = plummer_sphere(151, 23);
    let dv: Vec<[f64; 3]> = (0..42).map(|i| [1e-4 * i as f64, -2e-5, 3e-5 * i as f64]).collect();

    let run = |nested: bool| {
        let mut hosts = Hosts::new(Transport::Reactor);
        let mut grav = Vec::new();
        let mut fi = Vec::new();
        let mut off = 0usize;
        for (i, c) in partition(42, 4).into_iter().enumerate() {
            let sub = ics.slice(off, off + c);
            off += c;
            grav.push(hosts.spawn(&format!("grav-{i}"), move || {
                GravityWorker::new(sub, Backend::CpuParallel)
            }));
            fi.push(hosts.spawn(&format!("fi-{i}"), CouplingWorker::fi));
        }
        let pool = |mut shards: Vec<Box<dyn Channel>>| {
            if nested {
                let back = shards.split_off(2);
                shards = vec![
                    Box::new(ShardedChannel::new(shards)),
                    Box::new(ShardedChannel::new(back)),
                ];
            }
            ShardedChannel::new(shards)
        };
        let (mut grav, mut fi) = (pool(grav), pool(fi));
        assert!(grav.pipelined() && fi.pipelined());
        assert_eq!(grav.total_particles(), 42);
        // assembling a pool probes each member once; count from here
        let traffic = |a: &ShardedChannel, b: &ShardedChannel| {
            let (a, b) = (a.stats(), b.stats());
            (a.calls + b.calls, a.bytes_out + b.bytes_out, a.bytes_in + b.bytes_in)
        };
        let before = traffic(&grav, &fi);

        let r = grav.kick_slice(&dv);
        assert!(matches!(r, Response::Ok { .. }), "nested={nested}: {r:?}");
        let mut snap = ParticleData::default();
        assert!(grav.snapshot_into(&mut snap));
        let mut acc = Vec::new();
        fi.compute_kick_into(&scene.pos, &scene.pos, &scene.mass, &mut acc)
            .expect("pool compute_kick_into");
        let after = traffic(&grav, &fi);
        let moved = (after.0 - before.0, after.1 - before.1, after.2 - before.2);

        drop((grav, fi));
        hosts.join_all().expect("every server exits cleanly");
        (snap, acc, moved)
    };

    let (flat_snap, flat_acc, flat_moved) = run(false);
    let (nested_snap, nested_acc, nested_moved) = run(true);
    assert!(bitwise_eq(&flat_snap, &nested_snap), "nested pool state diverged from the flat pool");
    assert_eq!(flat_acc.len(), 151);
    assert_eq!(flat_acc.len(), nested_acc.len());
    for (a, b) in flat_acc.iter().zip(&nested_acc) {
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "nested pool accelerations diverged");
    }
    assert_eq!(flat_moved.0, 12, "three ops over four leaves each");
    assert_eq!(
        flat_moved, nested_moved,
        "nesting changed the traffic (calls, bytes out, bytes in)"
    );
}

/// A Bridge over real TCP whose coupling model is a pool of three
/// sharded socket workers and whose stellar model is a sharded thread
/// pool (SSE evolves each star independently), bitwise-identical to the
/// naive loop over unsharded in-process workers.
#[test]
fn bridge_with_sharded_socket_pool_matches_local_run() {
    let c = EmbeddedCluster::build(21, 84, 0.5, 29);
    let cfg = BridgeConfig { substeps: 2, stellar_interval: 1, ..c.bridge_config() };
    let want = naive_run(local_channels(&c), &cfg, 2);

    let mut hosts = Hosts::new(Transport::Socket);
    let (stars, gas) = (c.stars.clone(), c.gas.clone());
    let gravity = hosts.spawn("grav", move || GravityWorker::new(stars, Backend::CpuParallel));
    let hydro = hosts.spawn("hydro", move || HydroWorker::new(gas));
    let coupling_shards = (0..3).map(|i| hosts.spawn(&format!("fi-{i}"), CouplingWorker::fi));
    let coupling = ShardedChannel::with_counts(coupling_shards.collect(), vec![0; 3]);

    let mut off = 0usize;
    let stellar_shards =
        partition(c.star_masses_msun.len(), 2).into_iter().enumerate().map(|(i, n)| {
            let imf = c.star_masses_msun[off..off + n].to_vec();
            off += n;
            Box::new(ThreadChannel::spawn(format!("sse-{i}"), move || {
                StellarWorker::new(imf, EmbeddedCluster::METALLICITY)
            })) as Box<dyn Channel>
        });
    let stellar = ShardedChannel::with_counts(stellar_shards.collect(), vec![0; 2]);

    let mut bridge = Bridge::new(gravity, hydro, Box::new(coupling), Some(Box::new(stellar)), cfg);
    for _ in 0..2 {
        bridge.iteration();
    }
    let got = outcome_of(&mut bridge);

    let (_, _, coupling_stats, stellar_stats) = bridge.channel_stats();
    assert!(coupling_stats.calls > 0, "sharded coupling pool unused");
    assert!(stellar_stats.unwrap().calls > 0, "sharded stellar pool unused");

    drop(bridge);
    hosts.join_all().expect("every server exits cleanly");
    assert_same(&got, &want, "sharded TCP run");
}

// ---------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------

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
    BridgeConfig { substeps: 4, stellar_interval: 2, ..c.bridge_config() }
}

/// The oracle's answer for the failover workload.
fn oracle() -> Outcome {
    let c = cluster();
    naive_run(local_channels(&c), &config(&c), ITERATIONS)
}

/// A bridge over loopback TCP: healthy gravity, hydro and stellar
/// servers, and a coupling pool of one flaky server per fuse whose
/// supervisor respawns a dead shard as a fresh server.
fn tcp_bridge(hosts: &mut Hosts, c: &EmbeddedCluster, fuses: &[Arc<AtomicI64>]) -> Bridge {
    let [gravity, hydro, stellar] = hosts.models(c);
    let pool = hosts.coupling_pool(fuses, None);
    Bridge::new(gravity, hydro, Box::new(pool), Some(stellar), config(c))
}

#[test]
fn tcp_shard_killed_mid_iteration_recovers_bitwise() {
    let want = oracle();

    for k in 1..=3usize {
        let c = cluster();
        // Hosts first, so they drop *after* the bridge on every exit
        // path: a panicking assertion below unwinds through the
        // bridge's Stop frames, then the fleet shuts down and joins
        // whatever is left — including supervisor respawns — instead of
        // leaking server threads blocked in accept.
        let mut hosts = Hosts::new(Transport::Socket);
        // the coupling pool: K flaky servers, one of which will be shot
        let victim = (3 + 7 * k) % k;
        let fuses = unlit(k);
        let mut bridge = tcp_bridge(&mut hosts, &c, &fuses);

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
        assert_same(&outcome_of(&mut bridge), &want, &format!("k={k}"));

        drop(bridge); // Stop frames shut the healthy servers down
        hosts.join_all().expect("every server exits cleanly");
    }
}

/// Per-role `(calls, bytes_out, bytes_in)`, in role order.
type Books = [(u64, u64, u64); 4];

/// What each `iteration_recovering` block of a K = 2 TCP run booked,
/// the recoveries each needed, and the outcome the run ends with. With
/// `kill_in`, one coupling shard is armed to die two requests into that
/// block.
fn blocks_of_a_tcp_run(kill_in: Option<u32>) -> (Vec<(Books, u32)>, Outcome) {
    let c = cluster();
    let mut hosts = Hosts::new(Transport::Socket);
    let fuses = unlit(2);
    let mut bridge = tcp_bridge(&mut hosts, &c, &fuses);
    let books = |b: &Bridge| -> Books {
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
    let outcome = outcome_of(&mut bridge);
    drop(bridge);
    hosts.join_all().expect("every server exits cleanly");
    (blocks, outcome)
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
    assert_same(&want, &oracle(), "straight run");
    assert_same(&got, &want, "recovered run");
}

/// A respawned shard holds no masses: a mass-free field request to the
/// pool is refused, typed, until a priming request reaches every shard
/// — and from then on the pool answers what it answered before the kill.
#[test]
fn a_respawned_tcp_shard_refuses_mass_free_fields_until_primed() {
    let hosts = Hosts::new(Transport::Socket);
    let fuses = unlit(2);
    let mut pool = hosts.coupling_pool(&fuses, None);
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
    hosts.join_all().expect("every server exits cleanly");
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
    let want = oracle();

    for k in 2..=3usize {
        let c = cluster();
        let victim = (1 + 5 * k) % k;
        let fuses = unlit(k);
        let shards: Vec<Box<dyn Channel>> = fuses
            .iter()
            .map(|fuse| {
                Box::new(LocalChannel::new(Box::new(CrashAfter {
                    inner: Box::new(CouplingWorker::fi()),
                    fuse: fuse.clone(),
                }))) as Box<dyn Channel>
            })
            .collect();
        // no supervisor: the dead shard must be excluded
        let pool = ShardedChannel::with_counts(shards, vec![0; k]);
        let [gravity, hydro, _, stellar] = local_channels(&c);
        let mut bridge = Bridge::new(gravity, hydro, Box::new(pool), Some(stellar), config(&c));

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
        assert_same(&outcome_of(&mut bridge), &want, &format!("k={k}, after exclusion"));
    }
}

#[test]
fn checkpoint_file_survives_a_new_bridge_instance() {
    // restore-into-a-fresh-process smoke: run 2 iterations, checkpoint
    // to a file, rebuild the whole bridge from initial conditions,
    // restore, run 2 more — bitwise equal to 4 straight iterations
    let want = oracle();
    let c = cluster();
    let path = std::env::temp_dir().join(format!("jc-failover-ck-{}.bin", std::process::id()));
    let mut first = bridge_over(local_channels(&c), config(&c));
    first.iteration();
    first.iteration();
    first.snapshot_to(&path).expect("write checkpoint");
    drop(first);

    let mut second = bridge_over(local_channels(&c), config(&c)); // fresh initial conditions
    second.restore_from(&path).expect("read checkpoint");
    let _ = std::fs::remove_file(&path);
    assert_eq!(second.iterations(), 2);
    second.iteration();
    second.iteration();
    assert_same(&outcome_of(&mut second), &want, "restored run");
}
