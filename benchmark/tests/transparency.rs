//! The tracing wrappers must be invisible to the program: a traced and
//! an untraced run of each coupler workload end in the same state with
//! the same per-role channel accounting, and a shard pool above traced
//! channels still pipelines.

use jc_amuse::channel::{Channel, LocalChannel};
use jc_amuse::worker::CouplingWorker;
use jc_amuse::{Reactor, ReactorChannel, ShardedChannel, WorkerFleet};
use jc_benchmark::coupler::{
    transparency_probe, CouplerSpec, CLUSTER_LOCAL, CLUSTER_TCP_CHATTY, WIRE_BULK_NULL,
};
use jc_benchmark::trace::{traced, Tracer};

/// The workload's topology and sizes, a shorter block: the property
/// does not depend on how long the block is.
fn short(spec: CouplerSpec, block_iters: usize) -> CouplerSpec {
    CouplerSpec { warm_iters: 2, block_iters, ..spec }
}

fn assert_transparent(spec: CouplerSpec) {
    let [(plain_digest, plain), (traced_digest, traced)] = transparency_probe(&spec, 39, 2);
    assert_eq!(plain_digest, traced_digest, "{}: tracing changed the final state", spec.name);
    for role in 0..4 {
        let (a, b) = (plain[role], traced[role]);
        assert_eq!(
            (a.calls, a.bytes_out, a.bytes_in, a.retries),
            (b.calls, b.bytes_out, b.bytes_in, b.retries),
            "{}: tracing changed role {role}'s channel accounting",
            spec.name
        );
        assert_eq!(a.retries, 0, "{}: role {role} retried", spec.name);
    }
    assert!(
        plain[0].calls > 0 && plain[1].calls > 0 && plain[2].calls > 0,
        "every role was driven"
    );
}

#[test]
fn cluster_local_is_unchanged_by_tracing() {
    assert_transparent(short(CLUSTER_LOCAL, 2));
}

#[test]
fn cluster_tcp_chatty_is_unchanged_by_tracing() {
    assert_transparent(short(CLUSTER_TCP_CHATTY, 6));
}

#[test]
fn wire_bulk_null_is_unchanged_by_tracing() {
    assert_transparent(short(WIRE_BULK_NULL, 4));
}

#[test]
fn shard_pool_keeps_pipelining_through_the_wrapper() {
    let tracer = Tracer::shared(1 << 10);
    let mut fleet = WorkerFleet::new();
    let reactor = Reactor::new_shared().unwrap();
    let shards: Vec<Box<dyn Channel>> = (0..2)
        .map(|i| {
            let addr = fleet.spawn(format!("fi-{i}"), CouplingWorker::fi);
            let ch = ReactorChannel::connect(&reactor, addr, format!("fi-{i}")).unwrap();
            traced(&tracer, Box::new(ch), format!("coupling/{i}"), 2, true)
        })
        .collect();
    let pool = ShardedChannel::with_counts(shards, vec![0; 2]);
    assert!(pool.pipelined(), "traced reactor channels must still report `pipelines`");
    drop(pool);
    fleet.join_all().unwrap();

    // and the other way round: an in-process channel must not start
    // claiming it pipelines, or the pool would leave its borrowing paths
    let local: Box<dyn Channel> = Box::new(LocalChannel::new(Box::new(CouplingWorker::fi())));
    let pool =
        ShardedChannel::with_counts(vec![traced(&tracer, local, "coupling/0", 2, true)], vec![0]);
    assert!(!pool.pipelined());
}
