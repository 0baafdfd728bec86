//! `JC_THREADS` is resolved once per worker request, not once per kernel
//! pass.
//!
//! A set `JC_THREADS` makes every worker-count resolution an allocating
//! environment read (`std::env::var` returns a `String`). Resolving per
//! force evaluation / per SPH pass put 47–155 allocations into every
//! gravity `EvolveTo` and 12 into every hydro `EvolveTo` of the
//! benchmark's cluster — in exactly the reproducible configuration CI,
//! README and the benchmark prescribe (`JC_THREADS=1`), and nowhere else.
//! Own test binary with a single `#[test]`: the environment is process
//! state.

#![deny(unsafe_op_in_unsafe_fn)]

mod common;
use common::count_allocs;
use jc_amuse::{EmbeddedCluster, Request, Response};

#[test]
fn a_warm_worker_request_reads_jc_threads_at_most_once() {
    std::env::set_var("JC_THREADS", "1");
    // the benchmark's `cluster_local`: every kernel is past the 64-target
    // grain, so every resolution consults the environment
    let c = EmbeddedCluster::build(128, 512, 0.5, 42);
    let (mut gravity, mut hydro, mut coupling, _) = c.local_workers(false);
    let mut acc = Vec::new();
    // heap allocations of one request to each worker: [gravity, hydro, coupling]
    let mut requests = |t: f64| {
        let evolve = |w: &mut Box<dyn jc_amuse::ModelWorker>| {
            count_allocs(|| assert!(matches!(w.handle(Request::EvolveTo(t)), Response::Ok { .. })))
        };
        let kick = count_allocs(|| {
            coupling
                .compute_kick_into(&c.stars.pos, &c.gas.pos, &c.gas.mass, &mut acc)
                .expect("coupling worker computes kicks");
        });
        [evolve(&mut gravity), evolve(&mut hydro), kick]
    };
    let dt = 1.0 / 64.0;
    requests(dt); // warm: scratch buffers, SoA mirrors and `acc` reach capacity
    let allocs = requests(2.0 * dt);
    std::env::remove_var("JC_THREADS");
    assert!(
        allocs.iter().all(|&n| n <= 1),
        "[gravity EvolveTo, hydro EvolveTo, ComputeKick] made {allocs:?} heap allocations"
    );
}
