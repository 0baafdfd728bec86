//! Integration: a full Bridge iteration over real TCP sockets.
//!
//! Spawns the four model workers behind loopback `WorkerServer`s on
//! ephemeral ports, runs the embedded-cluster bridge over
//! [`SocketChannel`]s, and checks the result is *bitwise* equal to the
//! same bridge over in-process [`LocalChannel`]s — the transport must be
//! physically real but numerically invisible. Also pins the accounting:
//! the socket channel's byte counters, measured from actual TCP traffic,
//! must equal the modeled `wire_size()` sums.

use jungle::amuse::channel::{Channel, LocalChannel};
use jungle::amuse::socket::spawn_tcp_worker;
use jungle::amuse::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ParticleData, Request, Response, StellarWorker,
};
use jungle::amuse::{Bridge, EmbeddedCluster, SocketChannel};
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

/// Identical worker sets from the same deterministic cluster build.
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

#[test]
fn bridge_over_tcp_is_bitwise_identical_to_local() {
    let c = cluster();
    let (stars, gas, imf) = (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
    let (g_addr, g_h) =
        spawn_tcp_worker("grav", move || GravityWorker::new(stars, Backend::Scalar));
    let (h_addr, h_h) = spawn_tcp_worker("hydro", move || HydroWorker::new(gas));
    let (c_addr, c_h) = spawn_tcp_worker("fi", CouplingWorker::fi);
    let (s_addr, s_h) = spawn_tcp_worker("sse", move || StellarWorker::new(imf, 0.02));

    let mut cfg = c.bridge_config();
    cfg.substeps = 2;
    cfg.stellar_interval = 1;
    let mut bridge = Bridge::new(
        Box::new(SocketChannel::connect(g_addr, "grav").unwrap()),
        Box::new(SocketChannel::connect(h_addr, "hydro").unwrap()),
        Box::new(SocketChannel::connect(c_addr, "fi").unwrap()),
        Some(Box::new(SocketChannel::connect(s_addr, "sse").unwrap())),
        cfg,
    );
    for _ in 0..2 {
        let rep = bridge.iteration();
        assert!(rep.calls > 10, "socket bridge made {} calls", rep.calls);
    }
    let (stars_tcp, gas_tcp) = bridge.snapshots();

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
    assert!(bitwise_eq(&stars_tcp, &stars_local), "star state diverged over TCP");
    assert!(bitwise_eq(&gas_tcp, &gas_local), "gas state diverged over TCP");
}

/// Byte accounting: what the socket channel counts from real traffic
/// must equal the modeled `wire_size()` of every request and response.
#[test]
fn socket_stats_match_modeled_wire_sizes() {
    let c = cluster();
    let n = c.stars.len();
    let stars = c.stars.clone();
    let (addr, handle) =
        spawn_tcp_worker("grav", move || GravityWorker::new(stars, Backend::Scalar));
    let mut ch = SocketChannel::connect(addr, "grav").unwrap();

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

/// Asynchronous submit/collect works across the socket and actually
/// overlaps two workers.
#[test]
fn socket_channels_overlap_evolves() {
    let c = cluster();
    let (stars, gas) = (c.stars.clone(), c.gas.clone());
    let (g_addr, g_h) =
        spawn_tcp_worker("grav", move || GravityWorker::new(stars, Backend::Scalar));
    let (h_addr, h_h) = spawn_tcp_worker("hydro", move || HydroWorker::new(gas));
    let mut g = SocketChannel::connect(g_addr, "grav").unwrap();
    let mut h = SocketChannel::connect(h_addr, "hydro").unwrap();
    g.submit(Request::EvolveTo(1.0 / 64.0));
    h.submit(Request::EvolveTo(1.0 / 64.0));
    let (rg, rh) = (g.collect(), h.collect());
    assert!(matches!(rg, Response::Ok { .. }), "{rg:?}");
    assert!(matches!(rh, Response::Ok { .. }), "{rh:?}");
    drop(g);
    drop(h);
    g_h.join().unwrap().unwrap();
    h_h.join().unwrap().unwrap();
}
