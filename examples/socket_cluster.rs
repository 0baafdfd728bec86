//! The embedded-cluster bridge over real TCP sockets, with the coupling
//! model sharded across a pool of socket workers.
//!
//! Four kernels run behind loopback `WorkerServer`s (what the
//! `jungle-worker` binary hosts across machines), the coupler drives
//! them with `ReactorChannel`s from `SocketChannel::connect`, and the
//! coupling kick fans out over a
//! 3-worker `ShardedChannel` pool. At the end the run is compared —
//! bitwise — against the same bridge over in-process channels: the
//! transport is physically real but numerically invisible.
//!
//! ```text
//! cargo run --release --example socket_cluster
//! ```

use jungle::amuse::channel::{Channel, LocalChannel};
use jungle::amuse::shard::ShardedChannel;
use jungle::amuse::socket::WorkerFleet;
use jungle::amuse::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ParticleData, StellarWorker,
};
use jungle::amuse::{Bridge, ChannelStats, EmbeddedCluster, SocketChannel};
use jungle::nbody::Backend;

const COUPLING_SHARDS: usize = 3;

fn main() {
    let cluster = EmbeddedCluster::build(48, 192, 0.5, 39);
    println!(
        "socket cluster: {} stars + {} gas over TCP, coupling sharded ×{COUPLING_SHARDS}",
        cluster.stars.len(),
        cluster.gas.len(),
    );

    // --- spawn the worker pool (one TCP server per worker) -------------
    // The fleet is declared before any channel, so it drops last: if a
    // connect or an assertion below bails out early, its Drop sends each
    // server a clean Shutdown and joins the thread — no leaked workers.
    let mut fleet = WorkerFleet::new();
    let stars = cluster.stars.clone();
    let gas = cluster.gas.clone();
    let imf = cluster.star_masses_msun.clone();
    let g_addr = fleet.spawn("phigrape", move || GravityWorker::new(stars, Backend::CpuParallel));
    let h_addr = fleet.spawn("gadget", move || HydroWorker::new(gas));
    let s_addr = fleet.spawn("sse", move || StellarWorker::new(imf, 0.02));

    let coupling_shards: Vec<Box<dyn Channel>> = (0..COUPLING_SHARDS)
        .map(|i| {
            let addr = fleet.spawn(format!("fi-{i}"), CouplingWorker::fi);
            let ch = SocketChannel::connect(addr, format!("fi-{i}")).expect("connect shard");
            println!("  coupling shard {i} on {}", ch.peer_addr().unwrap());
            Box::new(ch) as Box<dyn Channel>
        })
        .collect();
    let coupling = ShardedChannel::with_counts(coupling_shards, vec![0; COUPLING_SHARDS]);

    // --- drive the bridge over the sockets ------------------------------
    let mut cfg = cluster.bridge_config();
    cfg.substeps = 4;
    cfg.stellar_interval = 2;
    let mut bridge = Bridge::new(
        Box::new(SocketChannel::connect(g_addr, "phigrape").expect("connect gravity")),
        Box::new(SocketChannel::connect(h_addr, "gadget").expect("connect hydro")),
        Box::new(coupling),
        Some(Box::new(SocketChannel::connect(s_addr, "sse").expect("connect stellar"))),
        cfg.clone(),
    );

    let t0 = std::time::Instant::now();
    for i in 0..4 {
        let rep = bridge.iteration();
        println!(
            "iter {i}: t = {:.4} ({:.2} Myr), {} calls, {} SNe",
            rep.time,
            rep.time * cfg.time_unit_myr,
            rep.calls,
            rep.supernovae
        );
    }
    let elapsed = t0.elapsed();
    let (stars_tcp, gas_tcp) = bridge.snapshots();

    let (g, h, c, s) = bridge.channel_stats();
    println!("\nchannel traffic (coupler side, counted from real TCP bytes):");
    print_stats("gravity", &g);
    print_stats("hydro", &h);
    print_stats(&format!("coupling ×{COUPLING_SHARDS}"), &c);
    print_stats("stellar", &s.unwrap());
    println!("wall time over sockets: {elapsed:.2?}");

    drop(bridge); // Stop frames -> the servers shut down
    fleet.join_all().expect("server exits cleanly");

    // --- the same run, in process, unsharded ----------------------------
    let mut local = Bridge::new(
        Box::new(LocalChannel::new(Box::new(GravityWorker::new(
            cluster.stars.clone(),
            Backend::CpuParallel,
        )))),
        Box::new(LocalChannel::new(Box::new(HydroWorker::new(cluster.gas.clone())))),
        Box::new(LocalChannel::new(Box::new(CouplingWorker::fi()))),
        Some(Box::new(LocalChannel::new(Box::new(StellarWorker::new(
            cluster.star_masses_msun.clone(),
            0.02,
        ))))),
        cfg,
    );
    let t0 = std::time::Instant::now();
    for _ in 0..4 {
        local.iteration();
    }
    let local_elapsed = t0.elapsed();
    let (stars_loc, gas_loc) = local.snapshots();

    let identical = bitwise_eq(&stars_tcp, &stars_loc) && bitwise_eq(&gas_tcp, &gas_loc);
    println!("wall time in process:   {local_elapsed:.2?}");
    println!(
        "socket run bitwise identical to local run: {identical} \
         (transport overhead {:.1}%)",
        100.0 * (elapsed.as_secs_f64() / local_elapsed.as_secs_f64() - 1.0)
    );
    assert!(identical, "transport must be numerically invisible");
}

fn print_stats(name: &str, s: &ChannelStats) {
    println!(
        "  {name:<12} {:>6} calls  {:>9} B out  {:>9} B in  {:>10.3e} flops",
        s.calls, s.bytes_out, s.bytes_in, s.flops
    );
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
