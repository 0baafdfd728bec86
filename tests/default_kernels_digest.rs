//! The reproducibility contract on the kernels workers run by default
//! (the SoA/SIMD paths): the end state of a `Gadget` run and of a coupled
//! `Bridge` iteration is bitwise the same under any `JC_THREADS` and any
//! number of coupling shards.
//!
//! Own test binary with a single `#[test]`: `JC_THREADS` is process
//! state, and the runs below must not overlap with anything else that
//! resolves it.

use jungle::amuse::channel::{Channel, LocalChannel};
use jungle::amuse::shard::ShardedChannel;
use jungle::amuse::worker::{CouplingWorker, ParticleData};
use jungle::amuse::{Bridge, EmbeddedCluster};
use jungle::sph::particles::plummer_gas;
use jungle::sph::Gadget;

/// Enough particles that every thread count below really fans out (the
/// kernels' grain is 64 targets per worker).
const STARS: usize = 192;
const GAS: usize = 448;

fn bits(p: &ParticleData) -> Vec<u64> {
    let cols = p.pos.iter().chain(&p.vel).flatten();
    p.mass.iter().chain(cols).map(|x| x.to_bits()).collect()
}

/// One bridge iteration on the workers `local_workers` hands out, the
/// coupling model fanned over `k` shards.
fn bridge_digest(k: usize) -> (Vec<u64>, Vec<u64>) {
    let c = EmbeddedCluster::build(STARS, GAS, 0.5, 17);
    let local = |w| Box::new(LocalChannel::new(w)) as Box<dyn Channel>;
    let (g, h, _, s) = c.local_workers(false);
    let shards = (0..k).map(|_| local(Box::new(CouplingWorker::fi()))).collect();
    let coupling = ShardedChannel::with_counts(shards, vec![0; k]);
    let mut cfg = c.bridge_config();
    (cfg.substeps, cfg.stellar_interval) = (2, 1);
    let mut bridge = Bridge::new(local(g), local(h), Box::new(coupling), Some(local(s)), cfg);
    bridge.iteration();
    let (stars, gas) = bridge.snapshots();
    (bits(&stars), bits(&gas))
}

fn gadget_digest() -> Vec<u64> {
    let mut g = Gadget::new(plummer_gas(GAS, 1.0, 5));
    g.evolve_model(0.012);
    assert!(g.steps > 1);
    let gas = &g.gas;
    let cols = gas.pos.iter().chain(&gas.vel).flatten();
    gas.u.iter().chain(&gas.h).chain(&gas.rho).chain(cols).map(|x| x.to_bits()).collect()
}

#[test]
fn digests_do_not_depend_on_threads_or_shards() {
    std::env::set_var("JC_THREADS", "1");
    let (gadget, bridge) = (gadget_digest(), bridge_digest(1));
    for threads in ["2", "7"] {
        std::env::set_var("JC_THREADS", threads);
        assert_eq!(gadget_digest(), gadget, "Gadget run under JC_THREADS={threads}");
        assert_eq!(bridge_digest(1), bridge, "Bridge iteration under JC_THREADS={threads}");
    }
    for k in [2, 3] {
        assert_eq!(bridge_digest(k), bridge, "Bridge iteration over {k} coupling shards");
    }
    std::env::remove_var("JC_THREADS");
}
