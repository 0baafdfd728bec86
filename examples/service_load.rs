//! Jobs-API load generator: push a thousand small sessions from a
//! handful of tenants through the multi-session service on one
//! machine, and report latency percentiles plus the shed-vs-served
//! accounting that must always add up.
//!
//! ```text
//! cargo run --release --example service_load
//! cargo run --release --example service_load -- --sessions 2000 --pool 8
//! ```
//!
//! Every submission ends in exactly one bucket — served, failed
//! (typed), shed on queue depth, or shed on tenant quota — and the
//! service's own counters must agree with the client's view.

use jungle::service::{
    QuotaPolicy, Service, ServiceConfig, SessionSpec, SessionStatus, SubmitError,
};
use std::time::Instant;

fn main() {
    let mut sessions = 1000usize;
    let mut pool = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--sessions", Some(v)) => sessions = v.parse().expect("--sessions N"),
            ("--pool", Some(v)) => pool = v.parse().expect("--pool K"),
            _ => {
                eprintln!("usage: service_load [--sessions N] [--pool K]");
                std::process::exit(2);
            }
        }
    }
    const TENANTS: usize = 8;

    let service = Service::new(ServiceConfig {
        pool_size: pool,
        quota: QuotaPolicy { max_queue_depth: sessions, per_tenant_in_flight: sessions / 4 },
        ..ServiceConfig::default()
    });
    println!("service_load: {sessions} sessions, {TENANTS} tenants, {pool} warm in-process hosts");

    let t0 = Instant::now();
    let mut ids = Vec::with_capacity(sessions);
    let (mut shed_overloaded, mut shed_quota) = (0u64, 0u64);
    for i in 0..sessions {
        let spec = SessionSpec {
            stars: 8,
            gas: 24,
            seed: 1 + i as u64,
            iterations: 2,
            substeps: 1,
            ..SessionSpec::default()
        };
        match service.submit(&format!("tenant-{}", i % TENANTS), spec) {
            Ok(id) => ids.push(id),
            Err(SubmitError::Overloaded { .. }) => shed_overloaded += 1,
            Err(SubmitError::QuotaExceeded { .. }) => shed_quota += 1,
            Err(e @ SubmitError::ShuttingDown) => panic!("unexpected rejection: {e}"),
        }
    }
    let submitted = t0.elapsed();

    let mut wall_us: Vec<u64> = Vec::with_capacity(ids.len());
    let mut failed = 0u64;
    for id in &ids {
        match service.wait(*id) {
            Some(SessionStatus::Completed { wall_us: us, .. }) => wall_us.push(us),
            Some(SessionStatus::Failed { failure, .. }) => {
                eprintln!("session {id} failed: {failure}");
                failed += 1;
            }
            other => panic!("non-terminal end state: {other:?}"),
        }
        service.forget(*id);
    }
    let elapsed = t0.elapsed();
    let counters = service.counters();
    service.shutdown();

    wall_us.sort_unstable();
    let pct = |p: f64| {
        let idx = ((wall_us.len().max(1) as f64 - 1.0) * p).round() as usize;
        wall_us.get(idx).copied().unwrap_or(0) as f64 / 1e3
    };
    let served = wall_us.len() as u64;
    println!(
        "  submitted in {:.0} ms, drained in {:.2} s ({:.0} sessions/s)",
        submitted.as_secs_f64() * 1e3,
        elapsed.as_secs_f64(),
        served as f64 / elapsed.as_secs_f64()
    );
    println!("  latency (submit→complete): p50 {:.3} ms  p99 {:.3} ms", pct(0.50), pct(0.99));
    println!(
        "  served {served}  failed {failed}  shed {} (overloaded {shed_overloaded} / quota {shed_quota})",
        shed_overloaded + shed_quota
    );

    let clean = served + failed + shed_overloaded + shed_quota == sessions as u64
        && counters.completed == served
        && counters.failed == failed
        && counters.shed_overloaded == shed_overloaded
        && counters.shed_quota == shed_quota;
    println!("  accounting clean: {clean}");
    assert!(clean, "every submission must land in exactly one bucket");
    assert_eq!(failed, 0, "a calm pool must not fail sessions");
}
