//! jungle-worker — serve one model kernel over TCP.
//!
//! The standalone worker process of the AMUSE deployment story: a
//! coupler (the Bridge) connects a `ReactorChannel` to it (alone, with
//! `SocketChannel::connect`, or on a reactor shared with its other
//! workers) and drives the kernel over the binary wire protocol. One process serves one worker;
//! a sharded pool is K processes plus `--shard i/K` so each holds its
//! contiguous slice of the particle range (the same split rule
//! `ShardedChannel` scatters with).
//!
//! ```text
//! jungle-worker --model gravity   --bind 127.0.0.1:7001
//! jungle-worker --model coupling  --bind 127.0.0.1:7002
//! jungle-worker --model stellar   --bind 127.0.0.1:7003 --shard 0/2
//! jungle-worker --model stellar   --bind 127.0.0.1:7004 --shard 1/2
//! ```
//!
//! Options:
//!
//! * `--model gravity|hydro|coupling|octgrav|stellar` — which kernel
//! * `--bind ADDR:PORT` — listen address (port 0 picks an ephemeral
//!   port; the chosen address is printed on stdout)
//! * `--stars N --gas N --gas-fraction F --seed S` — the embedded
//!   cluster the worker's initial conditions come from (defaults
//!   48/192/0.5/42); every worker of one simulation must use the same
//!   values or the coupler's particle counts will not line up
//! * `--shard I/K` — serve only the I-th of K contiguous particle
//!   ranges (gravity: stars, hydro: gas, stellar: the IMF slice;
//!   coupling is stateless and ignores it)
//! * `--gpu` — pick the GPU-personality kernels (PhiGRAPE-GPU/Octgrav)
//! * `--port-file PATH` — write the bound address to `PATH` once
//!   listening (the supervisor's rendezvous; stdout stays for logs)
//! * `--restarts N` — after a serve error (not a clean Stop/Shutdown),
//!   rebuild the worker from its initial conditions and serve again, up
//!   to N times — in-place self-healing for transient faults; the
//!   coupler is expected to restore model state from a checkpoint

use jc_amuse::worker::{CouplingWorker, GravityWorker, HydroWorker, ModelWorker, StellarWorker};
use jc_amuse::{shard, EmbeddedCluster, WorkerServer};
use jc_nbody::Backend;

struct Args {
    model: String,
    bind: String,
    stars: usize,
    gas: usize,
    gas_fraction: f64,
    seed: u64,
    shard: Option<(usize, usize)>,
    gpu: bool,
    port_file: Option<String>,
    restarts: u32,
}

fn usage() -> ! {
    eprintln!(
        "usage: jungle-worker --model gravity|hydro|coupling|octgrav|stellar \
         [--bind ADDR:PORT] [--stars N] [--gas N] [--gas-fraction F] [--seed S] \
         [--shard I/K] [--gpu] [--port-file PATH] [--restarts N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        model: String::new(),
        bind: "127.0.0.1:0".to_string(),
        stars: 48,
        gas: 192,
        gas_fraction: 0.5,
        seed: 42,
        shard: None,
        gpu: false,
        port_file: None,
        restarts: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--model" => args.model = value(),
            "--bind" => args.bind = value(),
            "--stars" => args.stars = value().parse().unwrap_or_else(|_| usage()),
            "--gas" => args.gas = value().parse().unwrap_or_else(|_| usage()),
            "--gas-fraction" => args.gas_fraction = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--shard" => {
                let v = value();
                let (i, k) = v.split_once('/').unwrap_or_else(|| usage());
                let (i, k): (usize, usize) = match (i.parse(), k.parse()) {
                    (Ok(i), Ok(k)) if k > 0 && i < k => (i, k),
                    _ => usage(),
                };
                args.shard = Some((i, k));
            }
            "--gpu" => args.gpu = true,
            "--port-file" => args.port_file = Some(value()),
            "--restarts" => args.restarts = value().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.model.is_empty() {
        usage();
    }
    args
}

/// `[start, end)` of shard `i` under the `ShardedChannel` split rule.
fn shard_range(total: usize, shard: Option<(usize, usize)>) -> (usize, usize) {
    match shard {
        None => (0, total),
        Some((i, k)) => {
            let counts = shard::partition(total, k);
            let start: usize = counts[..i].iter().sum();
            (start, start + counts[i])
        }
    }
}

fn build_worker(args: &Args) -> Box<dyn ModelWorker> {
    let cluster = EmbeddedCluster::build(args.stars, args.gas, args.gas_fraction, args.seed);
    match args.model.as_str() {
        "gravity" => {
            let (a, b) = shard_range(cluster.stars.len(), args.shard);
            let backend = if args.gpu { Backend::GpuModel } else { Backend::CpuParallel };
            Box::new(GravityWorker::new(cluster.stars.slice(a, b), backend))
        }
        "hydro" => {
            let (a, b) = shard_range(cluster.gas.len(), args.shard);
            Box::new(HydroWorker::new(cluster.gas.slice(a, b)))
        }
        "coupling" => Box::new(CouplingWorker::fi()),
        "octgrav" => Box::new(CouplingWorker::octgrav()),
        "stellar" => {
            let (a, b) = shard_range(cluster.star_masses_msun.len(), args.shard);
            Box::new(StellarWorker::new(cluster.star_masses_msun[a..b].to_vec(), 0.02))
        }
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    let mut worker = build_worker(&args);
    let server = match WorkerServer::bind(&args.bind as &str) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("jungle-worker: cannot bind {}: {e}", args.bind);
            std::process::exit(1);
        }
    };
    let addr = server.local_addr().expect("listener address");
    let shard_note = match args.shard {
        Some((i, k)) => format!(" shard {i}/{k}"),
        None => String::new(),
    };
    println!("jungle-worker serving {}{} ({}) on {addr}", args.model, shard_note, worker.name());
    if let Some(path) = &args.port_file {
        // rendezvous for ProcessSupervisor: the address, nothing else
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("jungle-worker: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    // self-healing serve loop: a serve *error* (transient I/O fault)
    // rebuilds the worker from its initial conditions and listens again
    // on the same socket; a clean Stop/Shutdown always exits
    let mut restarts_left = args.restarts;
    loop {
        match server.serve(worker.as_mut()) {
            Ok(()) => break,
            Err(e) if restarts_left > 0 => {
                restarts_left -= 1;
                eprintln!(
                    "jungle-worker: serve failed ({e}); restarting worker \
                     ({restarts_left} restart(s) left)"
                );
                worker = build_worker(&args);
            }
            Err(e) => {
                eprintln!("jungle-worker: serve failed: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("jungle-worker: stop requested, shutting down");
}
