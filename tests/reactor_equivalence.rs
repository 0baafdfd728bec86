//! Equivalence layer: the TCP transport is pinned to the in-process
//! one, in both topologies.
//!
//! [`ReactorChannel`]s on one shared reactor pipeline their fan-out;
//! a `SocketChannel` is the same client alone on a private reactor,
//! driven one request at a time. Nothing about either may be
//! *observable* except latency: every test here runs identical work
//! over `LocalChannel`, `SocketChannel`, and `ReactorChannel` (for pool
//! sizes K=1, 2, 3 where sharding applies) and demands bitwise-equal
//! model state and identical byte accounting. These tests are the
//! contract that lets the bridge switch transports freely.

use jungle::amuse::channel::{Channel, LocalChannel};
use jungle::amuse::reactor::{Reactor, ReactorChannel};
use jungle::amuse::shard::{partition, ShardedChannel};
use jungle::amuse::socket::spawn_tcp_worker;
use jungle::amuse::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ParticleData, Request, Response, StellarWorker,
};
use jungle::amuse::{Bridge, EmbeddedCluster};
use jungle::nbody::plummer::plummer_sphere;
use jungle::nbody::Backend;

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

fn cluster() -> EmbeddedCluster {
    EmbeddedCluster::build(24, 96, 0.5, 17)
}

fn run_local(iterations: usize) -> (ParticleData, ParticleData) {
    let c = cluster();
    let mut cfg = c.bridge_config();
    cfg.substeps = 2;
    cfg.stellar_interval = 1;
    let mut bridge = Bridge::new(
        Box::new(LocalChannel::new(Box::new(GravityWorker::new(c.stars.clone(), Backend::Scalar)))),
        Box::new(LocalChannel::new(Box::new(HydroWorker::new(c.gas.clone())))),
        Box::new(LocalChannel::new(Box::new(CouplingWorker::fi()))),
        Some(Box::new(LocalChannel::new(Box::new(StellarWorker::new(
            c.star_masses_msun.clone(),
            0.02,
        ))))),
        cfg,
    );
    for _ in 0..iterations {
        bridge.iteration();
    }
    bridge.snapshots()
}

/// A full Bridge run with all four model workers behind one shared
/// reactor must be bitwise-identical to the all-local run (and hence,
/// by `socket_channel.rs`, to the private-reactor `SocketChannel` run).
#[test]
fn bridge_over_reactor_is_bitwise_identical_to_local() {
    let c = cluster();
    let (stars, gas, imf) = (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
    let (g_addr, g_h) =
        spawn_tcp_worker("grav", move || GravityWorker::new(stars, Backend::Scalar));
    let (h_addr, h_h) = spawn_tcp_worker("hydro", move || HydroWorker::new(gas));
    let (c_addr, c_h) = spawn_tcp_worker("fi", CouplingWorker::fi);
    let (s_addr, s_h) = spawn_tcp_worker("sse", move || StellarWorker::new(imf, 0.02));

    let reactor = Reactor::new_shared().unwrap();
    let mut cfg = c.bridge_config();
    cfg.substeps = 2;
    cfg.stellar_interval = 1;
    let mut bridge = Bridge::new(
        Box::new(ReactorChannel::connect(&reactor, g_addr, "grav").unwrap()),
        Box::new(ReactorChannel::connect(&reactor, h_addr, "hydro").unwrap()),
        Box::new(ReactorChannel::connect(&reactor, c_addr, "fi").unwrap()),
        Some(Box::new(ReactorChannel::connect(&reactor, s_addr, "sse").unwrap())),
        cfg,
    );
    for _ in 0..2 {
        let rep = bridge.iteration();
        assert!(rep.calls > 10, "reactor bridge made {} calls", rep.calls);
    }
    let (stars_rx, gas_rx) = bridge.snapshots();

    let (g, h, cstat, s) = bridge.channel_stats();
    for (name, st) in [("gravity", g), ("hydro", h), ("coupling", cstat), ("stellar", s.unwrap())] {
        assert!(st.calls > 0, "{name} channel unused");
        assert!(st.bytes_out >= 32 * st.calls, "{name}: {st:?}");
        assert!(st.bytes_in >= 32 * st.calls, "{name}: {st:?}");
    }

    drop(bridge); // drops the channels -> Stop frames -> servers exit
    for h in [g_h, h_h, c_h, s_h] {
        h.join().unwrap().unwrap();
    }

    let (stars_local, gas_local) = run_local(2);
    assert!(bitwise_eq(&stars_rx, &stars_local), "star state diverged over the reactor");
    assert!(bitwise_eq(&gas_rx, &gas_local), "gas state diverged over the reactor");
}

/// Pipelined pools over the reactor, K = 1, 2, 3: coupling
/// scatter-gather must match the unsharded local worker bit for bit
/// (which `sharded_channel.rs` pins the `SocketChannel` pools to).
#[test]
fn reactor_pools_match_blocking_pools_for_k_1_2_3() {
    let scene = plummer_sphere(151, 23);
    let mut reference = LocalChannel::new(Box::new(CouplingWorker::fi()));
    let expected = match reference.call(Request::ComputeKick {
        targets: scene.pos.clone(),
        source_pos: scene.pos.clone(),
        source_mass: scene.mass.clone(),
    }) {
        Response::Accelerations { acc, .. } => acc,
        other => panic!("{other:?}"),
    };

    for k in 1..=3usize {
        let reactor = Reactor::new_shared().unwrap();
        let mut handles = Vec::new();
        let shards: Vec<Box<dyn Channel>> = (0..k)
            .map(|i| {
                let (addr, h) = spawn_tcp_worker(format!("fi-{i}"), CouplingWorker::fi);
                handles.push(h);
                Box::new(ReactorChannel::connect(&reactor, addr, format!("fi-{i}")).unwrap())
                    as Box<dyn Channel>
            })
            .collect();
        let mut pool = ShardedChannel::with_counts(shards, vec![0; k]);
        assert!(pool.pipelined(), "reactor pool must report pipelined fan-out");

        let mut acc = Vec::new();
        let flops = pool
            .compute_kick_into(&scene.pos, &scene.pos, &scene.mass, &mut acc)
            .expect("reactor pool compute_kick_into");
        assert!(flops > 0.0);
        assert_eq!(acc.len(), expected.len(), "k={k}");
        for (a, b) in acc.iter().zip(&expected) {
            for j in 0..3 {
                assert_eq!(a[j].to_bits(), b[j].to_bits(), "k={k}");
            }
        }

        // the generic submit/collect fan-out too
        match pool.call(Request::ComputeKick {
            targets: scene.pos.clone(),
            source_pos: scene.pos.clone(),
            source_mass: scene.mass.clone(),
        }) {
            Response::Accelerations { acc, .. } => {
                for (a, b) in acc.iter().zip(&expected) {
                    for j in 0..3 {
                        assert_eq!(a[j].to_bits(), b[j].to_bits(), "k={k} call path");
                    }
                }
            }
            other => panic!("k={k}: {other:?}"),
        }

        drop(pool);
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }
}

/// Range-sharded gravity state ops over pipelined reactor pools must
/// match the unsharded local answer bitwise.
#[test]
fn reactor_state_ops_match_local_pipelined() {
    let ics = plummer_sphere(40, 31);
    let dv: Vec<[f64; 3]> = (0..40).map(|i| [1e-4 * i as f64, -2e-5, 3e-5 * i as f64]).collect();
    let masses: Vec<f64> = (0..40).map(|i| 0.02 + 1e-4 * i as f64).collect();

    let mut single = LocalChannel::new(Box::new(GravityWorker::new(ics.clone(), Backend::Scalar)));
    assert!(matches!(single.call(Request::Kick(dv.clone())), Response::Ok { .. }));
    assert!(matches!(single.call(Request::SetMasses(masses.clone())), Response::Ok { .. }));
    let mut expected = ParticleData::default();
    assert!(single.snapshot_into(&mut expected));

    for k in [2usize, 3] {
        let reactor = Reactor::new_shared().unwrap();
        let counts = partition(40, k);
        let mut handles = Vec::new();
        let mut off = 0usize;
        let shards: Vec<Box<dyn Channel>> = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let sub = ics.slice(off, off + c);
                off += c;
                let (addr, h) = spawn_tcp_worker(format!("grav-{i}"), move || {
                    GravityWorker::new(sub, Backend::Scalar)
                });
                handles.push(h);
                Box::new(ReactorChannel::connect(&reactor, addr, format!("grav-{i}")).unwrap())
                    as Box<dyn Channel>
            })
            .collect();
        let mut pool = ShardedChannel::new(shards);
        assert!(pool.pipelined());
        assert_eq!(pool.total_particles(), 40);

        let r = pool.kick_slice(&dv);
        assert!(matches!(r, Response::Ok { .. }), "k={k}: {r:?}");
        let r = pool.call(Request::SetMasses(masses.clone()));
        assert!(matches!(r, Response::Ok { .. }), "k={k}: {r:?}");
        let mut got = ParticleData::default();
        assert!(pool.snapshot_into(&mut got));
        assert!(bitwise_eq(&got, &expected), "k={k}: reactor pool state diverged");

        drop(pool);
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }
}

/// Byte accounting through the reactor must equal the modeled
/// `wire_size()` of every request and response — the same pin the
/// `SocketChannel` facade carries in `socket_channel.rs`.
#[test]
fn reactor_stats_match_modeled_wire_sizes() {
    let c = cluster();
    let n = c.stars.len();
    let stars = c.stars.clone();
    let (addr, handle) =
        spawn_tcp_worker("grav", move || GravityWorker::new(stars, Backend::Scalar));
    let reactor = Reactor::new_shared().unwrap();
    let mut ch = ReactorChannel::connect(&reactor, addr, "grav").unwrap();

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
        assert!(!matches!(resp, Response::Error(_)), "{resp:?}");
        expect_in += resp.wire_size();
    }
    let st = ch.stats();
    assert_eq!(st.calls, expect_calls);
    assert_eq!(st.bytes_out, expect_out, "request bytes != modeled wire size");
    assert_eq!(st.bytes_in, expect_in, "response bytes != modeled wire size");

    // the borrowing fast paths account identically
    let mut snap = ParticleData::default();
    assert!(ch.snapshot_into(&mut snap));
    assert_eq!(snap.mass.len(), n);
    let dv = vec![[0.0; 3]; n];
    let r = ch.kick_slice(&dv);
    assert!(matches!(r, Response::Ok { .. }), "{r:?}");
    ch.submit_step(&dv, 1, 3.0 / 128.0);
    let r = ch.collect_step_into(&mut snap);
    assert!(matches!(r, Response::Ok { .. }), "{r:?}");
    let st2 = ch.stats();
    assert_eq!(st2.calls, expect_calls + 3);
    let step = Request::Step { dv: dv.clone(), n: 1, t: 0.0 };
    assert_eq!(
        st2.bytes_out - st.bytes_out,
        Request::GetParticles.wire_size() + Request::Kick(dv).wire_size() + step.wire_size()
    );
    // a snapshot, an Ok, and a step's answer: positions only
    assert_eq!(st2.bytes_in - st.bytes_in, (56 * n + 32) as u64 + 40 + (24 * n + 32) as u64);

    drop(ch);
    handle.join().unwrap().unwrap();
}

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
        let reactor = Reactor::new_shared().unwrap();
        let mut handles = Vec::new();
        let connect = |name: String, addr| {
            Box::new(ReactorChannel::connect(&reactor, addr, name).unwrap()) as Box<dyn Channel>
        };
        let mut grav = Vec::new();
        let mut fi = Vec::new();
        let mut off = 0usize;
        for (i, c) in partition(42, 4).into_iter().enumerate() {
            let sub = ics.slice(off, off + c);
            off += c;
            let (addr, h) = spawn_tcp_worker(format!("grav-{i}"), move || {
                GravityWorker::new(sub, Backend::Scalar)
            });
            handles.push(h);
            grav.push(connect(format!("grav-{i}"), addr));
            let (addr, h) = spawn_tcp_worker(format!("fi-{i}"), CouplingWorker::fi);
            handles.push(h);
            fi.push(connect(format!("fi-{i}"), addr));
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
        for h in handles {
            h.join().unwrap().unwrap();
        }
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
