//! Chaos soak harness: sweep a seed range of deterministic fault
//! schedules through the fault-tolerant bridge over live loopback TCP
//! shards, and verify every run converges bitwise to the naive Fig 7
//! oracle.
//!
//! Each seed derives a `FaultPlan` (`KINDS[seed % 8]` is the primary
//! fault, so 8 consecutive seeds cover every site): connection
//! refusals, read/write timeouts, short reads, torn frames, corrupted
//! headers, worker crashes, and checkpoint truncations. Transient
//! faults are absorbed in place by the socket channel's
//! sequence-numbered resend; crashes take the heavy path (supervisor
//! respawn + checkpoint restore + replay). Either way the final state
//! must be bit for bit the oracle's. The run itself is the test
//! harness's `run_chaos_seed`, on a larger cluster than `tests/chaos.rs`
//! sweeps.
//!
//! ```text
//! cargo run --release --example chaos_soak -- --seeds 32
//! cargo run --release --example chaos_soak -- --start 64 --seeds 64 --report diverging.txt
//! ```
//!
//! Any diverging seed is printed with the command that replays it alone
//! (`--start <n> --seeds 1`), and written to the `--report` file for CI
//! artifacts. Exit status is nonzero if any seed diverges.

#[path = "../tests/common/mod.rs"]
mod common;

use common::{run_chaos_seed, Soak, Transport};
use jungle::amuse::chaos::{FaultPlan, KINDS};
use jungle::amuse::EmbeddedCluster;

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
    // four iterations of two substeps, a stellar exchange every second one
    let soak = Soak::new(EmbeddedCluster::build(32, 128, 0.5, 23), 2, 2, 4);

    let mut diverging: Vec<String> = Vec::new();
    let (mut total_recoveries, mut total_retries) = (0u64, 0u64);
    for seed in start..start + seeds {
        let k = 1 + (seed as usize % 3);
        let primary = FaultPlan::seeded(seed).schedule(k)[0].kind;
        match run_chaos_seed(seed, k, &soak, Transport::Socket) {
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
                diverging.push(format!("{primary:?}: {e}"));
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
