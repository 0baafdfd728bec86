//! Checkpoint-based session migration under host kills.
//!
//! The service's core resilience claim: a session whose warm host dies
//! mid-run is migrated — restored from its last good checkpoint on a
//! healthy host — and still finishes **bitwise identical** to a run
//! that never saw a fault. Two ways to kill hosts are covered: a
//! directed `kill_host` (operator-style) and a seeded `FaultPlan`
//! sweep (chaos-style, the same plans `tests/chaos.rs` uses against
//! the supervisor).

use jc_amuse::FaultPlan;
use jc_service::{ChaosKillPolicy, HostHealth, Service, ServiceConfig, SessionSpec, SessionStatus};

/// Long enough that a kill lands mid-flight, small enough to stay fast.
fn long_spec(seed: u64) -> SessionSpec {
    SessionSpec { stars: 24, gas: 96, seed, iterations: 10, substeps: 2, ..SessionSpec::default() }
}

fn finish(status: Option<SessionStatus>) -> (u64, u32) {
    match status {
        Some(SessionStatus::Completed { digest, migrations, .. }) => (digest, migrations),
        other => panic!("expected Completed, got {other:?}"),
    }
}

/// The fault-free reference digest for a spec, computed through the
/// service itself on a calm single-host pool.
fn calm_digest(spec: &SessionSpec) -> u64 {
    let service = Service::new(ServiceConfig { pool_size: 1, ..ServiceConfig::default() });
    let id = service.submit("baseline", spec.clone()).expect("admitted");
    let (digest, migrations) = finish(service.wait(id));
    assert_eq!(migrations, 0, "baseline must be fault-free");
    service.shutdown();
    digest
}

#[test]
fn directed_kill_migrates_session_bitwise_identically() {
    let spec = long_spec(99);
    let want = calm_digest(&spec);

    let service = Service::new(ServiceConfig { pool_size: 2, ..ServiceConfig::default() });
    let id = service.submit("victim", spec).expect("admitted");
    // wait until the session is actually on a host, then pull the rug
    let host = loop {
        match service.status(id) {
            Some(SessionStatus::Running { host, .. }) => break host,
            Some(SessionStatus::Queued) => std::thread::yield_now(),
            other => panic!("session ended before it could be killed: {other:?}"),
        }
    };
    service.kill_host(host);
    // the kill lands on the health board at once; the other slot is
    // untouched
    let health = service.health();
    assert_eq!(health[host], HostHealth::Dead, "a killed slot reads Dead");
    assert_eq!(health[1 - host], HostHealth::Healthy);
    let (digest, migrations) = finish(service.wait(id));
    assert_eq!(digest, want, "migrated session must be bitwise identical to fault-free run");
    // the kill may land after the final iteration, in which case the
    // session completes on the dying host's already-collected state —
    // but a kill mid-run must show up as a migration
    let counters = service.counters();
    assert_eq!(counters.chaos_kills, 1, "the directed kill is recorded");
    assert_eq!(counters.migrations as u32, migrations);
    // either way the killed slot reads Dead until it re-warms: a session
    // that completes on it after the kill does not revive it
    assert_eq!(service.health()[host], HostHealth::Dead, "a kill stands until the re-warm");
    assert_eq!(counters.rewarms, 0);

    // the killed host re-warms and serves again: saturate both hosts
    let a = service.submit("after", long_spec(7)).expect("admitted");
    let b = service.submit("after", long_spec(8)).expect("admitted");
    finish(service.wait(a));
    finish(service.wait(b));
    assert_eq!(service.counters().completed, 3);
    assert_eq!(service.counters().rewarms, 1, "the killed slot re-warmed exactly once");
    assert_eq!(
        service.health(),
        vec![HostHealth::Healthy; 2],
        "a re-warmed slot that served again reads Healthy"
    );
    service.shutdown();
}

#[test]
fn chaos_kill_sweep_preserves_digests_across_migrations() {
    // the satellite soak: seeded FaultPlans self-kill warm hosts at
    // iteration boundaries; every completed session must still match
    // its chaos-free digest, and the sweep must actually exercise the
    // migration path at least once
    let specs: Vec<SessionSpec> = (0..4).map(|i| long_spec(300 + i)).collect();
    let want: Vec<u64> = specs.iter().map(calm_digest).collect();

    let mut total_migrations = 0u64;
    let mut total_kills = 0u64;
    for plan_seed in [1u64, 5, 11] {
        let service = Service::new(ServiceConfig {
            pool_size: 2,
            chaos: Some(ChaosKillPolicy {
                plan: FaultPlan::seeded(plan_seed),
                every_iterations: 3,
            }),
            ..ServiceConfig::default()
        });
        let ids: Vec<_> =
            specs.iter().map(|s| service.submit("chaos", s.clone()).expect("admitted")).collect();
        for (id, want) in ids.iter().zip(&want) {
            let (digest, _) = finish(service.wait(*id));
            assert_eq!(
                digest, *want,
                "plan seed {plan_seed}: session digest drifted under chaos kills"
            );
        }
        let c = service.counters();
        assert_eq!(c.completed, specs.len() as u64, "plan seed {plan_seed}: all must complete");
        assert_eq!(c.failed, 0, "plan seed {plan_seed}: chaos kills must never fail a session");
        total_migrations += c.migrations;
        total_kills += c.chaos_kills;
        service.shutdown();
    }
    assert!(
        total_kills > 0 && total_migrations > 0,
        "sweep must exercise the kill→migrate path (kills {total_kills}, migrations {total_migrations})"
    );
}
