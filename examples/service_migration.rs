//! Kill-a-host migration demo: start a session on a two-host warm
//! pool, kill the host it is running on, and watch the service restore
//! the session from its last checkpoint on the surviving host — with a
//! final state bitwise identical to a run that never saw the kill.
//!
//! ```text
//! cargo run --release --example service_migration
//! ```

use jungle::service::{Service, ServiceConfig, SessionSpec, SessionStatus};

fn spec() -> SessionSpec {
    SessionSpec { stars: 48, gas: 160, seed: 42, iterations: 12, substeps: 2, ..Default::default() }
}

fn main() {
    // fault-free reference digest, through the same service machinery
    let calm = Service::new(ServiceConfig { pool_size: 1, ..ServiceConfig::default() });
    let id = calm.submit("baseline", spec()).expect("admitted");
    let want = match calm.wait(id) {
        Some(SessionStatus::Completed { digest, .. }) => digest,
        other => panic!("baseline did not complete: {other:?}"),
    };
    calm.shutdown();
    println!("service_migration: fault-free digest {want:#018x}");

    let service = Service::new(ServiceConfig { pool_size: 2, ..ServiceConfig::default() });
    let id = service.submit("victim", spec()).expect("admitted");
    let host = loop {
        match service.status(id) {
            Some(SessionStatus::Running { host, .. }) => break host,
            Some(SessionStatus::Queued) => std::thread::yield_now(),
            other => panic!("session ended before the kill landed: {other:?}"),
        }
    };
    println!("  session {id} running on warm host {host} — killing that host");
    service.kill_host(host);

    match service.wait(id) {
        Some(SessionStatus::Completed { digest, migrations, iterations, wall_us, .. }) => {
            println!(
                "  completed: {iterations} iterations, {migrations} migration(s), {:.3} ms",
                wall_us as f64 / 1e3
            );
            println!("  digest {digest:#018x} — bitwise match: {}", digest == want);
            assert_eq!(digest, want, "migrated run must equal the fault-free run");
        }
        other => panic!("session did not survive the kill: {other:?}"),
    }
    for (i, h) in service.health().iter().enumerate() {
        println!("  host {i}: {h:?}");
    }
    let c = service.counters();
    println!(
        "  counters: kills {}  migrations {}  re-warms {}",
        c.chaos_kills, c.migrations, c.rewarms
    );
    service.shutdown();
}
