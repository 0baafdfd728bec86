//! The time-step schedule is a function of the particle set alone: the
//! sub-steps taken, the targets evaluated in each and the end state are
//! bitwise the same under any `JC_THREADS`.
//!
//! Own test binary with a single `#[test]`: `JC_THREADS` is process
//! state, and the runs below must not overlap with anything else that
//! resolves it.

use jc_nbody::plummer::plummer_sphere;
use jc_nbody::{Backend, PhiGrape};

/// Enough stars that the full evaluations — the refresh after the kick
/// and every level-0 boundary — really fan out (the grain is 64 targets
/// per worker) while the small active sets in between stay inline.
const STARS: usize = 256;

/// Sub-steps per call, force evaluations, flops (the targets evaluated,
/// summed) and every coordinate, as bits.
fn run() -> (Vec<u64>, u64, u64, Vec<u64>) {
    let mut g = PhiGrape::new(plummer_sphere(STARS, 11), Backend::CpuParallel).with_softening(0.01);
    let mut steps = vec![g.evolve_model(1.0 / 64.0)];
    g.kick(&vec![[1e-3, -2e-3, 5e-4]; STARS]);
    steps.push(g.evolve_model(1.0 / 16.0));
    let p = &g.particles;
    let state = p.pos.iter().chain(&p.vel).flatten().map(|x| x.to_bits()).collect();
    (steps, g.force_evals, g.flops.to_bits(), state)
}

#[test]
fn schedule_and_end_state_do_not_depend_on_threads() {
    std::env::set_var("JC_THREADS", "1");
    let reference = run();
    assert!(reference.0.iter().all(|&s| s > 1), "sanity: several sub-steps per call");
    for threads in ["2", "7"] {
        std::env::set_var("JC_THREADS", threads);
        assert_eq!(run(), reference, "under JC_THREADS={threads}");
    }
    std::env::remove_var("JC_THREADS");
}
