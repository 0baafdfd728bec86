//! jungle-service — the multi-session jobs front-end as a process.
//!
//! Runs a self-contained load campaign against an in-process (default)
//! or process-host pool and prints the shed-vs-served accounting plus
//! latency percentiles; the CI smoke and nightly soak drive exactly
//! this binary. Usage:
//!
//! ```text
//! jungle-service --sessions 300 --pool 4 --stars 8 --gas 24 \
//!     --iterations 2 --substeps 1 --quota 64 --queue-depth 512
//! jungle-service --sessions 40 --process --chaos-seed 7 --chaos-every 2
//! ```
//!
//! Exits nonzero if any session failed, the accounting does not add up
//! (`submitted == completed + failed`, and the service's shed counters
//! equal the client's tally of each rejection kind), or a
//! panic escaped anywhere. `--allow-failures` relaxes the first check
//! for deliberately chaotic soaks. `--json` writes a machine-readable
//! summary to stdout (the nightly soak uploads it as an artifact).

use jc_service::{
    ChaosKillPolicy, HostKind, QuotaPolicy, Service, ServiceConfig, SessionSpec, SubmitError,
};
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    sessions: usize,
    tenants: usize,
    pool: Option<usize>,
    stars: usize,
    gas: usize,
    iterations: u64,
    substeps: u32,
    quota: usize,
    queue_depth: usize,
    deadline_ms: u64,
    process: bool,
    worker_binary: Option<PathBuf>,
    chaos_seed: Option<u64>,
    chaos_every: u64,
    allow_failures: bool,
    json: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            sessions: 200,
            tenants: 4,
            pool: None,
            stars: 8,
            gas: 24,
            iterations: 2,
            substeps: 1,
            quota: 32,
            queue_depth: 256,
            deadline_ms: 0,
            process: false,
            worker_binary: None,
            chaos_seed: None,
            chaos_every: 2,
            allow_failures: false,
            json: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: jungle-service [--sessions N] [--tenants T] [--pool K] [--stars N] [--gas N] \
         [--iterations N] [--substeps N] [--quota Q] [--queue-depth D] [--deadline-ms MS] \
         [--process] [--worker-binary PATH] [--chaos-seed S] [--chaos-every E] \
         [--allow-failures] [--json]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--sessions" => args.sessions = val("--sessions").parse().unwrap_or_else(|_| usage()),
            "--tenants" => args.tenants = val("--tenants").parse().unwrap_or_else(|_| usage()),
            "--pool" => args.pool = Some(val("--pool").parse().unwrap_or_else(|_| usage())),
            "--stars" => args.stars = val("--stars").parse().unwrap_or_else(|_| usage()),
            "--gas" => args.gas = val("--gas").parse().unwrap_or_else(|_| usage()),
            "--iterations" => {
                args.iterations = val("--iterations").parse().unwrap_or_else(|_| usage())
            }
            "--substeps" => args.substeps = val("--substeps").parse().unwrap_or_else(|_| usage()),
            "--quota" => args.quota = val("--quota").parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => {
                args.queue_depth = val("--queue-depth").parse().unwrap_or_else(|_| usage())
            }
            "--deadline-ms" => {
                args.deadline_ms = val("--deadline-ms").parse().unwrap_or_else(|_| usage())
            }
            "--process" => args.process = true,
            "--worker-binary" => args.worker_binary = Some(PathBuf::from(val("--worker-binary"))),
            "--chaos-seed" => {
                args.chaos_seed = Some(val("--chaos-seed").parse().unwrap_or_else(|_| usage()))
            }
            "--chaos-every" => {
                args.chaos_every = val("--chaos-every").parse().unwrap_or_else(|_| usage())
            }
            "--allow-failures" => args.allow_failures = true,
            "--json" => args.json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

/// `jungle-worker` next to this binary (the cargo target dir layout);
/// overridable with `--worker-binary`.
fn sibling_worker_binary() -> Option<PathBuf> {
    let me = std::env::current_exe().ok()?;
    let candidate = me.parent()?.join("jungle-worker");
    candidate.exists().then_some(candidate)
}

/// Percentile of sorted microsecond samples, in milliseconds.
fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1e3
}

fn main() {
    let args = parse_args();
    let mut cfg = ServiceConfig::from_env();
    if let Some(k) = args.pool {
        cfg.pool_size = k;
    }
    cfg.quota = QuotaPolicy { max_queue_depth: args.queue_depth, per_tenant_in_flight: args.quota };
    if args.deadline_ms > 0 {
        cfg.default_deadline_ms = args.deadline_ms;
    }
    if args.process {
        let binary =
            args.worker_binary.clone().or_else(sibling_worker_binary).unwrap_or_else(|| {
                eprintln!(
                    "jungle-service: --process needs jungle-worker next to this binary \
                     or --worker-binary PATH"
                );
                std::process::exit(2)
            });
        cfg.host_kind = HostKind::Process { binary };
    }
    if let Some(seed) = args.chaos_seed {
        cfg.chaos = Some(ChaosKillPolicy {
            plan: jc_amuse::FaultPlan::seeded(seed),
            every_iterations: args.chaos_every.max(1),
        });
    }
    let pool_size = cfg.pool_size;
    let service = Service::new(cfg);

    let t0 = Instant::now();
    let mut ids = Vec::with_capacity(args.sessions);
    let (mut shed_overloaded, mut shed_quota) = (0u64, 0u64);
    for i in 0..args.sessions {
        let tenant = format!("tenant-{}", i % args.tenants.max(1));
        let spec = SessionSpec {
            stars: args.stars,
            gas: args.gas,
            seed: 1 + i as u64,
            iterations: args.iterations,
            substeps: args.substeps,
            ..SessionSpec::default()
        };
        match service.submit(&tenant, spec) {
            Ok(id) => ids.push(id),
            Err(SubmitError::Overloaded { .. }) => shed_overloaded += 1,
            Err(SubmitError::QuotaExceeded { .. }) => shed_quota += 1,
            Err(SubmitError::ShuttingDown) => unreachable!("not shutting down"),
        }
    }

    let mut wall_us: Vec<u64> = Vec::with_capacity(ids.len());
    let mut failed = 0u64;
    let mut migrations = 0u64;
    for id in &ids {
        match service.wait(*id) {
            Some(jc_service::SessionStatus::Completed { wall_us: us, migrations: m, .. }) => {
                wall_us.push(us);
                migrations += m as u64;
            }
            Some(jc_service::SessionStatus::Failed { failure, migrations: m }) => {
                failed += 1;
                migrations += m as u64;
                eprintln!("session {id} failed: {failure}");
            }
            other => {
                eprintln!("session {id} ended in a non-terminal state: {other:?}");
                failed += 1;
            }
        }
        service.forget(*id);
    }
    let elapsed = t0.elapsed();
    let counters = service.counters();
    service.shutdown();

    wall_us.sort_unstable();
    let p50 = percentile_ms(&wall_us, 0.50);
    let p99 = percentile_ms(&wall_us, 0.99);
    let served = wall_us.len() as u64;
    let submitted_total = args.sessions as u64;
    let accounted = served + failed + shed_overloaded + shed_quota == submitted_total
        && counters.submitted == served + failed
        && counters.completed == served
        && counters.failed == failed
        && counters.shed_overloaded == shed_overloaded
        && counters.shed_quota == shed_quota;

    if args.json {
        println!(
            "{{\"schema\":\"jc-service-load/v1\",\"sessions\":{submitted_total},\
             \"pool\":{pool_size},\"served\":{served},\"failed\":{failed},\
             \"shed_overloaded\":{shed_overloaded},\"shed_quota\":{shed_quota},\
             \"migrations\":{migrations},\"chaos_kills\":{},\"rewarms\":{},\
             \"p50_ms\":{p50:.3},\"p99_ms\":{p99:.3},\"elapsed_ms\":{},\"accounting_clean\":{accounted}}}",
            counters.chaos_kills,
            counters.rewarms,
            elapsed.as_millis(),
        );
    } else {
        println!(
            "jungle-service: {submitted_total} submissions over {} tenants onto {pool_size} hosts \
             in {:.2}s",
            args.tenants,
            elapsed.as_secs_f64()
        );
        println!(
            "  served {served}  failed {failed}  shed {} (overloaded {shed_overloaded} / quota {shed_quota})",
            shed_overloaded + shed_quota
        );
        println!(
            "  migrations {migrations}  chaos kills {}  re-warms {}  p50 {p50:.3} ms  p99 {p99:.3} ms",
            counters.chaos_kills, counters.rewarms
        );
        println!("  accounting clean: {accounted}");
    }

    let ok = accounted && (args.allow_failures || failed == 0);
    std::process::exit(if ok { 0 } else { 1 });
}
