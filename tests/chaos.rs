//! Chaos soak: seeded fault schedules over live loopback TCP shards,
//! every one asserted bitwise-identical to the naive Fig 7 oracle.
//!
//! Each seed derives a [`FaultPlan`] — connection refusals, read/write
//! timeouts, short reads, torn frames, corrupted headers, worker
//! crashes, checkpoint truncations — and the whole schedule is a pure
//! function of that seed. A consecutive seed range therefore covers
//! every fault site (`KINDS[seed % 8]` is the primary), and a diverging
//! seed is reported with the `chaos_soak` command that replays it alone.
//!
//! Two recovery tiers are exercised and distinguished:
//!
//! * transient faults are absorbed *in place* by the TCP client's
//!   sequence-numbered resend (worker-side dedup makes mutating
//!   requests idempotent) — zero checkpoint restores;
//! * worker crashes surface as fatal and take the heavy path —
//!   supervisor respawn, checkpoint restore, replay.
//!
//! Every test runs over both TCP topologies: each channel alone on a
//! private reactor (`Socket`) and all on one shared reactor (`Reactor`).
//! Chaos draws land at identical frame-op boundaries, so one schedule
//! maps onto either.

mod common;

use common::{assert_same, outcome_of, replay, run_chaos_seed, unlit, Hosts, Soak, Transport};
use jungle::amuse::chaos::{FaultKind, FaultPlan, IoFault, RetryPolicy, StreamFaults, KINDS};
use jungle::amuse::worker::{CouplingWorker, GravityWorker, HydroWorker, StellarWorker};
use jungle::amuse::{Bridge, Checkpoint, EmbeddedCluster, RecoveryPolicy};
use jungle::nbody::Backend;

/// Seeds per soak run: 4 sweeps over the 8 fault sites.
const SEEDS: u64 = 32;

/// The workload every test here runs: three iterations of two substeps,
/// a stellar exchange every second one.
fn soak() -> Soak {
    Soak::new(EmbeddedCluster::build(24, 96, 0.5, 11), 2, 2, 3)
}

fn sweep_all_seeds(transport: Transport) {
    let soak = soak();
    let mut failures = Vec::new();
    let mut covered = [false; KINDS.len()];
    let mut in_place = 0u64;
    let mut heavy = 0u32;
    for seed in 0..SEEDS {
        let k = 1 + (seed as usize % 3);
        let plan = FaultPlan::seeded(seed);
        let primary = plan.schedule(k)[0].kind;
        covered[KINDS.iter().position(|&kk| kk == primary).expect("primary from KINDS")] = true;
        match run_chaos_seed(seed, k, &soak, transport) {
            Ok((recoveries, retries)) => {
                in_place += retries;
                heavy += recoveries;
                // a crash schedule must take the heavy path, not luck out
                if primary == FaultKind::WorkerCrash && recoveries == 0 {
                    failures.push(format!(
                        "seed {seed} (k={k}): crash schedule completed without recovery; \
                         replay: {}",
                        replay(seed)
                    ));
                }
            }
            Err(e) => failures.push(e),
        }
    }
    assert!(failures.is_empty(), "diverging seeds:\n{}", failures.join("\n"));
    assert!(
        covered.iter().all(|&c| c),
        "a {SEEDS}-seed sweep must cover every fault site: {covered:?}"
    );
    // both recovery tiers must actually fire across the sweep
    assert!(in_place > 0, "no in-place retries across {SEEDS} seeds");
    assert!(heavy > 0, "no heal/restore recoveries across {SEEDS} seeds");
}

#[test]
fn every_seeded_fault_schedule_converges_to_the_fault_free_run() {
    sweep_all_seeds(Transport::Socket);
}

/// The same 32 seeds with every channel on one shared reactor: chaos
/// draws land at identical frame-op boundaries, so every schedule must
/// converge bitwise exactly as it does over private reactors —
/// transient faults absorbed by in-place resends, crashes taking the
/// respawn/restore path.
#[test]
fn every_seeded_fault_schedule_converges_over_the_reactor() {
    sweep_all_seeds(Transport::Reactor);
}

// Hand-built schedule of purely transient transport faults — a lost
// response, a torn frame, a corrupted header, a vanished peer — across
// both shards of a K=2 pool. Every one must be absorbed by the in-place
// sequence-numbered resend: zero checkpoint restores, a positive retry
// count, and bitwise-identical output.
fn transient_schedule(transport: Transport) {
    let soak = soak();
    let mut hosts = Hosts::new(transport);
    let [gravity, hydro, stellar] = hosts.models(&soak.cluster);
    let retry = RetryPolicy { backoff_base_ms: 1, backoff_max_ms: 8, ..RetryPolicy::standard(42) };
    let schedules = vec![
        StreamFaults::default()
            .with_read(2, IoFault::ReadTimeout)
            .with_write(5, IoFault::PartialWrite),
        StreamFaults::default()
            .with_read(3, IoFault::CorruptHeader)
            .with_read(6, IoFault::ShortRead)
            .with_write(4, IoFault::WriteTimeout),
    ];
    let pool = hosts.coupling_pool(&unlit(2), Some((retry, schedules)));
    let mut bridge = Bridge::new(gravity, hydro, Box::new(pool), Some(stellar), soak.cfg.clone());

    let policy = RecoveryPolicy { max_retries: 2, checkpoint_interval: 1 };
    let mut checkpoint: Option<Checkpoint> = None;
    let mut recoveries = 0u32;
    for _ in 0..soak.iterations {
        let (_rep, rec) = bridge.iteration_recovering(&mut checkpoint, &policy).expect("iteration");
        recoveries += rec;
    }

    assert_eq!(recoveries, 0, "transient faults must never reach the restore path");
    let retries = bridge.channel_stats().2.retries;
    assert!(retries >= 5, "all five injected faults retry in place (got {retries})");
    assert_same(&outcome_of(&mut bridge), &soak.oracle, &format!("{transport:?}"));

    drop(bridge);
    hosts.join_all().expect("every server exits cleanly");
}

#[test]
fn a_transient_schedule_completes_without_a_single_restore() {
    transient_schedule(Transport::Socket);
}

/// The same hand-built transient schedule absorbed entirely in place by
/// the reactor transport's reconnect-and-resend discipline.
#[test]
fn a_transient_schedule_over_the_reactor_retries_in_place() {
    transient_schedule(Transport::Reactor);
}

// The bridge re-applies a coupling field across the kick→kick boundary
// between substeps: the closing half-kick of substep 1 and the opening
// one of substep 2 are the same vector, and reach a worker as one
// `Step` with `n = 2` — two additions, one evolve, one frame. With two
// substeps the gravity and the hydro connection each carry
// `get step(n=1) step(n=2) kick` per iteration, so that step is frame
// 3 and the last closing `Kick` frame 4. Each schedule below loses the
// response of the step (the coupler resends it: the worker must replay
// the positions it answered, not kick twice more and evolve again) and
// then the request or the response of the kick behind it (the worker
// must apply it exactly once). A swallowed or double-applied half-kick
// changes the digest.
fn identical_kick_pair_schedule(transport: Transport) {
    let soak = soak();
    let c = &soak.cluster;
    // Write draws count submitted frames, read draws receive attempts:
    // the step's lost response costs one extra attempt, so the kick is
    // sent as frame 4 and answered at attempt 5.
    let schedules = [
        StreamFaults::default()
            .with_read(3, IoFault::ReadTimeout)
            .with_write(4, IoFault::WriteTimeout),
        StreamFaults::default()
            .with_read(3, IoFault::ShortRead)
            .with_write(4, IoFault::PartialWrite),
        StreamFaults::default()
            .with_read(3, IoFault::CorruptHeader)
            .with_read(5, IoFault::ReadTimeout),
    ];
    for (seed, faults) in schedules.into_iter().enumerate() {
        let mut hosts = Hosts::new(transport);
        let retry = RetryPolicy {
            backoff_base_ms: 1,
            backoff_max_ms: 8,
            ..RetryPolicy::standard(seed as u64)
        };
        let (stars, gas, imf) = (c.stars.clone(), c.gas.clone(), c.star_masses_msun.clone());
        let addr = hosts.serve("grav", move || GravityWorker::new(stars, Backend::CpuParallel));
        let gravity = hosts.connect(addr, "grav", Some((retry, faults.clone()))).expect("connect");
        let addr = hosts.serve("hydro", move || HydroWorker::new(gas));
        let hydro = hosts.connect(addr, "hydro", Some((retry, faults))).expect("connect");
        let coupling = hosts.spawn("fi", CouplingWorker::fi);
        let stellar =
            hosts.spawn("sse", move || StellarWorker::new(imf, EmbeddedCluster::METALLICITY));

        let mut bridge = Bridge::new(gravity, hydro, coupling, Some(stellar), soak.cfg.clone());
        for i in 0..soak.iterations {
            let rep = bridge.try_iteration().expect("transient faults are absorbed in place");
            assert_eq!(rep.kicks_reapplied, 1, "the schedule needs a step that kicks twice");
            if i == 0 {
                let (g, h, ..) = bridge.channel_stats();
                assert_eq!((g.retries, h.retries), (2, 2), "schedule {seed}: both faults fired");
            }
        }
        assert_same(&outcome_of(&mut bridge), &soak.oracle, &format!("schedule {seed}"));

        drop(bridge);
        hosts.join_all().expect("every server exits cleanly");
    }
}

#[test]
fn identical_consecutive_kick_frames_survive_drops_and_duplicates() {
    identical_kick_pair_schedule(Transport::Socket);
}

/// The same three schedules over the event-driven transport.
#[test]
fn identical_consecutive_kick_frames_survive_over_the_reactor() {
    identical_kick_pair_schedule(Transport::Reactor);
}
