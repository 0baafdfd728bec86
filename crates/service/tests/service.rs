//! Service-layer integration: typed admission control, warm-host
//! reuse equivalence, deadlines, and snapshot streaming.

use jc_amuse::worker::Response;
use jc_amuse::{wire, Bridge, EmbeddedCluster, LocalChannel, ModelState};
use jc_service::session::state_digest;
use jc_service::{
    QuotaPolicy, Service, ServiceConfig, SessionFailure, SessionSpec, SessionStatus, SubmitError,
};

fn small_spec(seed: u64) -> SessionSpec {
    SessionSpec { stars: 16, gas: 48, seed, iterations: 3, substeps: 2, ..SessionSpec::default() }
}

/// The golden reference: the same spec driven by a plain local bridge,
/// no service, no pool, no recovery machinery.
fn baseline_digest(spec: &SessionSpec) -> u64 {
    let cluster = EmbeddedCluster::build(spec.stars, spec.gas, spec.gas_fraction, spec.seed);
    let mut cfg = cluster.bridge_config();
    cfg.substeps = spec.substeps;
    let (g, h, c, s) = cluster.local_workers(false);
    let mut bridge = Bridge::new(
        Box::new(LocalChannel::new(g)),
        Box::new(LocalChannel::new(h)),
        Box::new(LocalChannel::new(c)),
        Some(Box::new(LocalChannel::new(s))),
        cfg,
    );
    for _ in 0..spec.iterations {
        bridge.try_iteration().expect("baseline iteration");
    }
    let ck = bridge.snapshot().expect("baseline snapshot");
    let particles = |state: &ModelState| match state {
        ModelState::Gravity { mass, pos, vel, .. } | ModelState::Hydro { mass, pos, vel, .. } => {
            jc_amuse::worker::ParticleData {
                mass: mass.clone(),
                pos: pos.clone(),
                vel: vel.clone(),
            }
        }
        other => panic!("state without particles: {}", other.kind()),
    };
    state_digest(&particles(&ck.gravity), &particles(&ck.hydro))
}

fn completed(status: Option<SessionStatus>) -> (u64, u32, u64) {
    match status {
        Some(SessionStatus::Completed { digest, migrations, wall_us, .. }) => {
            (digest, migrations, wall_us)
        }
        other => panic!("expected Completed, got {other:?}"),
    }
}

#[test]
fn warm_host_reuse_is_bitwise_equivalent_to_a_dedicated_bridge() {
    let service = Service::new(ServiceConfig { pool_size: 1, ..ServiceConfig::default() });
    let spec_a = small_spec(7);
    let spec_b = SessionSpec { stars: 24, gas: 32, seed: 8, ..small_spec(8) };
    // a → b → a: the second a must not see any residue of b (or of a)
    let a1 = service.submit("t", spec_a.clone()).expect("admit");
    let b = service.submit("t", spec_b.clone()).expect("admit");
    let a2 = service.submit("t", spec_a.clone()).expect("admit");
    let (da1, m1, _) = completed(service.wait(a1));
    let (db, _, _) = completed(service.wait(b));
    let (da2, m2, _) = completed(service.wait(a2));
    assert_eq!(m1, 0, "no migrations in a healthy pool");
    assert_eq!(m2, 0);
    assert_eq!(da1, da2, "same spec on the same warm host must agree bitwise");
    assert_ne!(da1, db, "different specs must not collide");
    assert_eq!(da1, baseline_digest(&spec_a), "service run == dedicated local bridge, bitwise");
    assert_eq!(db, baseline_digest(&spec_b));
    let c = service.counters();
    assert_eq!(c.submitted, 3);
    assert_eq!(c.completed, 3);
    assert_eq!((c.failed, c.migrations, c.chaos_kills), (0, 0, 0));
    service.shutdown();
}

#[test]
fn admission_sheds_typed_and_accounting_adds_up() {
    // one slow host, a tiny queue: the burst must shed — typed, no
    // panic, no unbounded queuing
    let service = Service::new(ServiceConfig {
        pool_size: 1,
        quota: QuotaPolicy { max_queue_depth: 2, per_tenant_in_flight: 100 },
        ..ServiceConfig::default()
    });
    let slow = SessionSpec { stars: 32, gas: 128, iterations: 6, ..SessionSpec::default() };
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for i in 0..12 {
        match service.submit(&format!("tenant-{}", i % 3), slow.clone()) {
            Ok(id) => admitted.push(id),
            Err(SubmitError::Overloaded { queued, limit }) => {
                assert!(queued >= limit, "overload must state its bound ({queued} vs {limit})");
                shed += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(shed > 0, "a 12-burst into a depth-2 queue on one host must shed");
    for id in &admitted {
        completed(service.wait(*id));
    }
    let c = service.counters();
    assert_eq!(c.submitted, admitted.len() as u64);
    assert_eq!(c.completed, admitted.len() as u64);
    assert_eq!(c.shed_overloaded, shed);
    assert_eq!(c.failed, 0);
    service.shutdown();
}

#[test]
fn per_tenant_quota_rejects_typed_and_frees_on_completion() {
    let service = Service::new(ServiceConfig {
        pool_size: 1,
        quota: QuotaPolicy { max_queue_depth: 100, per_tenant_in_flight: 1 },
        ..ServiceConfig::default()
    });
    let slow = SessionSpec { stars: 32, gas: 128, iterations: 6, ..SessionSpec::default() };
    let first = service.submit("greedy", slow.clone()).expect("first in flight");
    match service.submit("greedy", slow.clone()) {
        Err(SubmitError::QuotaExceeded { tenant, in_flight: 1, limit: 1 }) => {
            assert_eq!(tenant, "greedy")
        }
        other => panic!("expected quota rejection, got {other:?}"),
    }
    // an unrelated tenant is unaffected by greedy's cap
    let other = service.submit("modest", small_spec(3)).expect("other tenant admitted");
    completed(service.wait(first));
    completed(service.wait(other));
    // the slot frees once the session is terminal
    let again = service.submit("greedy", small_spec(4)).expect("slot freed");
    completed(service.wait(again));
    assert_eq!(service.counters().shed_quota, 1);
    service.shutdown();
}

#[test]
fn session_deadline_fails_typed_and_host_survives() {
    let service = Service::new(ServiceConfig { pool_size: 1, ..ServiceConfig::default() });
    let doomed = SessionSpec {
        stars: 32,
        gas: 128,
        iterations: 10_000,
        deadline_ms: 1,
        ..SessionSpec::default()
    };
    let id = service.submit("t", doomed).expect("admitted");
    match service.wait(id) {
        Some(SessionStatus::Failed {
            failure: SessionFailure::DeadlineExceeded { budget_ms: 1 },
            ..
        }) => {}
        other => panic!("expected typed deadline failure, got {other:?}"),
    }
    // the host is unharmed: the next session completes normally
    let ok = service.submit("t", small_spec(5)).expect("admitted");
    let (digest, _, _) = completed(service.wait(ok));
    assert_eq!(digest, baseline_digest(&small_spec(5)));
    let c = service.counters();
    assert_eq!((c.completed, c.failed), (1, 1));
    assert_eq!(c.chaos_kills, 0, "a deadline is not a host failure");
    service.shutdown();
}

#[test]
fn completed_snapshot_streams_as_wire_frames() {
    let service = Service::new(ServiceConfig { pool_size: 1, ..ServiceConfig::default() });
    let spec = SessionSpec { keep_snapshot: true, ..small_spec(11) };
    let id = service.submit("t", spec.clone()).expect("admitted");
    let (digest, _, _) = completed(service.wait(id));

    let mut bytes = Vec::new();
    assert!(service.write_snapshot(id, &mut bytes).expect("stream"), "snapshot was kept");
    // the stream is plain wire protocol: two Particles frames
    let mut r: &[u8] = &bytes;
    let mut frame = Vec::new();
    let mut decoded = Vec::new();
    for _ in 0..2 {
        let n = wire::read_frame(&mut r, &mut frame).expect("frame");
        match wire::decode_response(&frame[..n]).expect("decode") {
            Response::Particles(p) => decoded.push(p),
            other => panic!("expected Particles, got {other:?}"),
        }
    }
    assert!(r.is_empty(), "exactly two frames");
    assert_eq!(decoded[0].mass.len(), spec.stars);
    assert_eq!(decoded[1].mass.len(), spec.gas);
    assert_eq!(state_digest(&decoded[0], &decoded[1]), digest, "streamed bytes == digested state");

    // sessions without keep_snapshot stream nothing
    let lean = service.submit("t", small_spec(12)).expect("admitted");
    completed(service.wait(lean));
    assert!(!service.write_snapshot(lean, &mut Vec::new()).expect("no snapshot"));
    // forget drops the record
    service.forget(id);
    assert!(service.status(id).is_none());
    service.shutdown();
}

#[test]
fn pool_of_two_drains_a_burst_deterministically() {
    // placement across two hosts must not leak into results: every
    // session's digest matches its single-host baseline
    let service = Service::new(ServiceConfig { pool_size: 2, ..ServiceConfig::default() });
    let specs: Vec<_> = (0..6).map(|i| small_spec(20 + i)).collect();
    let ids: Vec<_> =
        specs.iter().map(|s| service.submit("t", s.clone()).expect("admitted")).collect();
    for (id, spec) in ids.iter().zip(&specs) {
        let (digest, _, _) = completed(service.wait(*id));
        assert_eq!(digest, baseline_digest(spec), "digest independent of host placement");
    }
    assert_eq!(service.counters().completed, 6);
    service.shutdown();
}
