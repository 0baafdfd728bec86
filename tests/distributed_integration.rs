//! Cross-crate integration tests: the full distributed-AMUSE stack.

use jungle::core::scenarios::{run_crash_demo, run_scenario, SUBSTEPS, TOY_GAS, TOY_STARS};
use jungle::core::Scenario;

/// Scenario runs are bit-deterministic: same seed, same virtual time.
#[test]
fn scenario_runs_are_deterministic() {
    let a = run_scenario(Scenario::RemoteGpu, 1).result;
    let b = run_scenario(Scenario::RemoteGpu, 1).result;
    assert_eq!(a.seconds_per_iteration.to_bits(), b.seconds_per_iteration.to_bits());
    assert_eq!(a.wan_ipl_bytes, b.wan_ipl_bytes);
    assert_eq!(a.calls_per_iteration, b.calls_per_iteration);
}

/// The distributed run produces the same *physics* as a purely local run
/// with identical kernels and schedule: the channel must not change the
/// science (the paper's multi-kernel invariant: "Which kernel is used has
/// no influence in the result of the simulation").
#[test]
fn distributed_and_local_physics_agree() {
    use jungle::amuse::channel::LocalChannel;
    use jungle::amuse::cluster::EmbeddedCluster;
    use jungle::amuse::{Bridge, BridgeConfig};

    let cluster = EmbeddedCluster::build(TOY_STARS, TOY_GAS, 0.5, 42);
    let (g, h, c, s) = cluster.local_workers(true);
    let mut cfg: BridgeConfig = cluster.bridge_config();
    cfg.substeps = SUBSTEPS;
    cfg.stellar_interval = 1;
    let mut local = Bridge::new(
        Box::new(LocalChannel::new(g)),
        Box::new(LocalChannel::new(h)),
        Box::new(LocalChannel::new(c)),
        Some(Box::new(LocalChannel::new(s))),
        cfg,
    );
    let local_rep = local.iteration();

    let distributed = run_scenario(Scenario::FullJungle, 1).result;
    assert_eq!(
        distributed.supernovae, local_rep.supernovae,
        "same ICs + same schedule => same stellar events regardless of channel"
    );
}

/// The paper's §5 limitation, reproduced: "If a reservation ends for a
/// resource, and the worker is killed by the scheduler, we cannot recover
/// from this fault, and the entire simulation crashes."
#[test]
fn worker_death_crashes_the_simulation() {
    assert!(run_crash_demo(), "losing a worker host must abort the coupled run");
}
