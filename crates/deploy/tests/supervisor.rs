//! Process-level failover: real `jungle-worker` processes, a real
//! SIGKILL, a real respawn — the deploy half of the fault-tolerance
//! story (the in-process/bitwise half lives in the workspace-root
//! `failover` test).

use jc_amuse::channel::Channel;
use jc_amuse::shard::{ShardSupervisor, ShardedChannel};
use jc_amuse::worker::{Request, Response};
use jc_amuse::{EmbeddedCluster, ModelState};
use jc_deploy::supervise::{ProcessSupervisor, WorkerSpec};

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_jungle-worker")
}

/// The bit patterns of a gravity section: time and column lengths,
/// then every mass, position and velocity component.
fn gravity_bits(state: &ModelState) -> Vec<u64> {
    let ModelState::Gravity { time, mass, pos, vel } = state else {
        panic!("not a gravity section: {state:?}");
    };
    let mut bits = vec![time.to_bits(), mass.len() as u64, pos.len() as u64, vel.len() as u64];
    bits.extend(mass.iter().chain(pos.iter().chain(vel).flatten()).map(|x| x.to_bits()));
    bits
}

#[test]
fn supervisor_spawns_connects_and_shuts_down_cleanly() {
    let specs = vec![
        WorkerSpec::new(worker_bin(), "coupling").with_shard(0, 2),
        WorkerSpec::new(worker_bin(), "coupling").with_shard(1, 2),
    ];
    let mut sup = ProcessSupervisor::new(specs, 0);
    let shards = sup.spawn_all().expect("launch worker processes");
    let mut pool = ShardedChannel::with_counts(shards, Vec::new());
    let r = pool.call(Request::Ping);
    assert!(matches!(r, Response::Ok { .. }), "{r:?}");
    let r = pool.call(Request::ComputeKick {
        targets: vec![[0.0; 3]; 5],
        source_pos: vec![[0.0, 0.0, 1.0]],
        source_mass: vec![1.0],
    });
    match r {
        Response::Accelerations { acc, .. } => assert_eq!(acc.len(), 5),
        other => panic!("{other:?}"),
    }
    drop(pool); // Stop frames end the server sessions
    sup.shutdown_all(); // reaps whatever is left, no SIGKILL needed
}

#[test]
fn killed_worker_process_is_respawned_and_reloads_state() {
    let specs = vec![WorkerSpec::new(worker_bin(), "gravity")];
    let mut sup = ProcessSupervisor::new(specs, 2);
    let mut shards = sup.spawn_all().expect("launch worker process");
    let mut ch = shards.remove(0);

    // grab the authoritative state, then murder the process (SIGKILL —
    // the jungle's native signal)
    let state = match ch.call(Request::SaveState) {
        Response::State(s) => s,
        other => panic!("{other:?}"),
    };
    // the worker's placeholder initial conditions are jungle-worker's
    // defaults (48 stars, 192 gas, gas fraction 0.5, seed 42): the spec
    // passes no cluster flags, so the recipe lives in one place
    let recipe = EmbeddedCluster::build(48, 192, 0.5, 42).initial_checkpoint();
    assert_eq!(gravity_bits(&state), gravity_bits(&recipe.gravity));
    let addr = sup.addr(0).expect("address recorded");
    sup.kill(0);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while std::net::TcpStream::connect(addr).is_ok() {
        assert!(std::time::Instant::now() < deadline, "listener still alive after kill");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // the channel is now dead and cannot heal itself
    assert!(matches!(ch.call(Request::Ping), Response::Error(_)));
    assert!(!ch.heal());

    // the supervisor delivers a fresh process; LoadState re-establishes
    // the exact pre-kill state
    let mut fresh = sup.respawn(0).expect("respawn budget available");
    assert!(matches!(fresh.call(Request::Ping), Response::Ok { .. }));
    let r = fresh.call(Request::LoadState(state.clone()));
    assert!(matches!(r, Response::Ok { .. }), "{r:?}");
    match fresh.call(Request::SaveState) {
        Response::State(back) => assert_eq!(format!("{back:?}"), format!("{state:?}")),
        other => panic!("{other:?}"),
    }
    drop(fresh);
    drop(ch);
    sup.shutdown_all();
}
