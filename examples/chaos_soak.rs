//! Chaos soak harness: sweep a seed range of deterministic fault
//! schedules through the fault-tolerant bridge over live loopback TCP
//! shards, and verify every run converges bitwise to the fault-free
//! baseline.
//!
//! Each seed derives a `FaultPlan` (`KINDS[seed % 8]` is the primary
//! fault, so 8 consecutive seeds cover every site): connection
//! refusals, read/write timeouts, short reads, torn frames, corrupted
//! headers, worker crashes, and checkpoint truncations. Transient
//! faults are absorbed in place by the socket channel's
//! sequence-numbered resend; crashes take the heavy path (supervisor
//! respawn + checkpoint restore + replay). Either way the final state
//! must be bit-for-bit the fault-free one.
//!
//! ```text
//! cargo run --release --example chaos_soak -- --seeds 32
//! cargo run --release --example chaos_soak -- --start 64 --seeds 64 --report diverging.txt
//! ```
//!
//! Any diverging seed is printed as `JC_CHAOS_SEED=<n>` (and written to
//! the `--report` file for CI artifacts); the seed alone reproduces the
//! schedule. Exit status is nonzero if any seed diverges.

use jungle::amuse::channel::{Channel, LocalChannel};
use jungle::amuse::chaos::{FaultPlan, RetryPolicy, KINDS};
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

const ITERATIONS: u32 = 4;

fn cluster() -> EmbeddedCluster {
    EmbeddedCluster::build(32, 128, 0.5, 23)
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

fn baseline() -> Reference {
    let c = cluster();
    let mut bridge = Bridge::new(
        Box::new(LocalChannel::new(Box::new(GravityWorker::new(
            c.stars.clone(),
            Backend::CpuParallel,
        )))),
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

/// One seeded schedule over a live TCP cluster with `k` coupling
/// shards. `Ok((recoveries, retries))` on bitwise convergence.
fn run_seed(seed: u64, k: usize, reference: &Reference) -> Result<(u32, u64), String> {
    let plan = FaultPlan::seeded(seed);
    let c = cluster();
    let mut handles = Vec::new();
    let respawned: Rc<RefCell<Vec<std::thread::JoinHandle<std::io::Result<()>>>>> =
        Rc::new(RefCell::new(Vec::new()));

    let (stars_ics, gas_ics, imf) = (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
    let (g_addr, g_h) =
        spawn_tcp_worker("grav", move || GravityWorker::new(stars_ics, Backend::CpuParallel));
    let (h_addr, h_h) = spawn_tcp_worker("hydro", move || HydroWorker::new(gas_ics));
    let (s_addr, s_h) = spawn_tcp_worker("sse", move || StellarWorker::new(imf, 0.02));
    handles.extend([g_h, h_h, s_h]);

    let retry =
        RetryPolicy { backoff_base_ms: 1, backoff_max_ms: 8, ..RetryPolicy::standard(seed) };
    let shards: Vec<Box<dyn Channel>> = (0..k)
        .map(|i| {
            let fuse = Arc::new(AtomicI64::new(plan.crash_fuse(k, i).unwrap_or(i64::MAX)));
            let (addr, h) = spawn_flaky_tcp_worker(format!("fi-{i}"), CouplingWorker::fi, fuse);
            handles.push(h);
            let ch = SocketChannel::connect(addr, format!("fi-{i}"))
                .expect("connect shard")
                .with_retry(retry)
                .with_chaos(plan.stream_faults(k, i));
            Box::new(ch) as Box<dyn Channel>
        })
        .collect();

    let respawned_c = respawned.clone();
    let supervisor = move |i: usize| -> Option<Box<dyn Channel>> {
        let (addr, h) = spawn_tcp_worker(format!("fi-{i}-respawn"), CouplingWorker::fi);
        respawned_c.borrow_mut().push(h);
        Some(Box::new(SocketChannel::connect(addr, format!("fi-{i}-respawn")).ok()?)
            as Box<dyn Channel>)
    };
    let pool =
        ShardedChannel::with_counts(shards, vec![0; k]).with_supervisor(Box::new(supervisor));

    let mut bridge = Bridge::new(
        Box::new(SocketChannel::connect(g_addr, "grav").expect("connect gravity")),
        Box::new(SocketChannel::connect(h_addr, "hydro").expect("connect hydro")),
        Box::new(pool),
        Some(Box::new(SocketChannel::connect(s_addr, "sse").expect("connect stellar"))),
        config(&c),
    );

    let policy = RecoveryPolicy { max_retries: 4, checkpoint_interval: 1 };
    let mut checkpoint: Option<Checkpoint> = None;
    let mut recoveries = 0u32;
    for _ in 0..ITERATIONS {
        let (_rep, rec) = bridge
            .iteration_recovering(&mut checkpoint, &policy)
            .map_err(|e| format!("iteration failed: {e}"))?;
        recoveries += rec;
    }

    // Lying-disk leg: a truncated save must fail the CRC-guarded load,
    // and the intact save must still round-trip.
    if let Some(keep) = plan.checkpoint_truncation(k) {
        let ck = checkpoint.as_ref().expect("checkpoint_interval=1 keeps one");
        let mut torn = Vec::new();
        ck.write_to(&mut ChaosWriter::new(&mut torn, keep))
            .map_err(|e| format!("lying disk surfaced: {e}"))?;
        if Checkpoint::read_from(&mut std::io::Cursor::new(&torn)).is_ok() {
            return Err(format!("{keep}-byte truncated checkpoint loaded as valid"));
        }
        let mut good = Vec::new();
        ck.write_to(&mut good).map_err(|e| format!("intact save failed: {e}"))?;
        Checkpoint::read_from(&mut std::io::Cursor::new(&good))
            .map_err(|e| format!("intact checkpoint failed to load: {e}"))?;
    }

    let retries = bridge.channel_stats().2.retries;
    let (stars, gas) = bridge.snapshots();
    if bridge.model_time().to_bits() != reference.time.to_bits() {
        return Err("model time diverged".into());
    }
    if bridge.total_supernovae() != reference.supernovae {
        return Err("supernova count diverged".into());
    }
    if !bitwise_eq(&stars, &reference.stars) {
        return Err("star state diverged".into());
    }
    if !bitwise_eq(&gas, &reference.gas) {
        return Err("gas state diverged".into());
    }

    drop(bridge);
    for h in handles {
        h.join().expect("server thread").map_err(|e| format!("server errored: {e}"))?;
    }
    for h in Rc::try_unwrap(respawned).expect("bridge dropped").into_inner() {
        h.join().expect("respawned thread").map_err(|e| format!("respawn errored: {e}"))?;
    }
    Ok((recoveries, retries))
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos_soak [--start N] [--seeds N] [--report PATH]\n\
         \n\
         --start N     first seed of the sweep           (default 0)\n\
         --seeds N     how many consecutive seeds to run (default 32)\n\
         --report PATH write diverging seeds here        (default chaos-divergence.txt)"
    );
    std::process::exit(2);
}

fn main() {
    let mut start = 0u64;
    let mut seeds = 32u64;
    let mut report = String::from("chaos-divergence.txt");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--start" => start = value(i).parse().unwrap_or_else(|_| usage()),
            "--seeds" => seeds = value(i).parse().unwrap_or_else(|_| usage()),
            "--report" => report = value(i),
            _ => usage(),
        }
        i += 2;
    }

    println!("chaos soak: seeds {start}..{} over loopback TCP", start + seeds);
    println!("  {} fault sites, primary = KINDS[seed % {}]\n", KINDS.len(), KINDS.len());
    let reference = baseline();

    let mut diverging: Vec<String> = Vec::new();
    let (mut total_recoveries, mut total_retries) = (0u64, 0u64);
    for seed in start..start + seeds {
        let k = 1 + (seed as usize % 3);
        let primary = FaultPlan::seeded(seed).schedule(k)[0].kind;
        match run_seed(seed, k, &reference) {
            Ok((recoveries, retries)) => {
                total_recoveries += u64::from(recoveries);
                total_retries += retries;
                println!(
                    "  seed {seed:>4}  k={k}  {primary:<18?} converged  \
                     (retries {retries}, recoveries {recoveries})"
                );
            }
            Err(e) => {
                println!("  seed {seed:>4}  k={k}  {primary:<18?} DIVERGED: {e}");
                diverging.push(format!("JC_CHAOS_SEED={seed} (k={k}, {primary:?}): {e}"));
            }
        }
    }

    println!(
        "\n{} seeds: {} converged, {} diverged  \
         ({total_retries} in-place retries, {total_recoveries} restore recoveries)",
        seeds,
        seeds as usize - diverging.len(),
        diverging.len(),
    );
    if !diverging.is_empty() {
        std::fs::write(&report, diverging.join("\n") + "\n").expect("write divergence report");
        eprintln!("diverging seeds written to {report}");
        std::process::exit(1);
    }
}
