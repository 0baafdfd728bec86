//! End-to-end: the four lab scenarios and the SC11 run produce the paper's
//! ordering and rough factors.

use jc_core::scenarios::{
    format_table1, run_crash_demo, run_failover_demo, run_sc11, run_scenario,
};
use jc_core::Scenario;

#[test]
fn lab_scenarios_reproduce_paper_shape() {
    let results: Vec<_> = Scenario::all().into_iter().map(|s| run_scenario(s, 1).result).collect();
    println!("{}", format_table1(&results));
    let secs: Vec<f64> = results.iter().map(|r| r.seconds_per_iteration).collect();
    // ordering: CPU-only slowest, each subsequent scenario faster
    assert!(secs[0] > secs[1], "local GPU beats CPU: {secs:?}");
    assert!(secs[1] > secs[2], "remote Tesla beats local 9600GT: {secs:?}");
    assert!(secs[2] > secs[3], "full jungle wins: {secs:?}");
    // S1-S3 within 5% of the paper: tight enough that a change to the
    // bridge's call pattern that de-calibrates `PerfProfile::work_gflop`
    // fails here instead of drifting
    assert!((secs[0] - 353.0).abs() / 353.0 < 0.05, "S1 = {}", secs[0]);
    assert!((secs[1] - 89.0).abs() / 89.0 < 0.05, "S2 = {}", secs[1]);
    assert!((secs[2] - 84.0).abs() / 84.0 < 0.05, "S3 = {}", secs[2]);
    // the paper's S4 is 62.4 s; our prototype parallelizes/overlaps better
    // and lands much lower — assert only that it wins and stays sub-S3.
    assert!(secs[3] < 62.4, "S4 = {}", secs[3]);
    // distributed scenarios moved real bytes across the WAN
    assert!(results[2].wan_ipl_bytes > 1 << 20);
    assert!(results[3].mpi_bytes > 0, "8-rank Gadget models MPI traffic");
}

/// The ledger of every simulated run, exact: virtual seconds per
/// iteration (as bits), WAN IPL bytes, modeled MPI bytes, calls per
/// iteration and recoveries. The 5 % band above guards the calibration;
/// this guards everything under it, so a refactor of the channel, the
/// daemon or the proxy that shifts virtual time or traffic by any amount
/// fails here.
#[test]
fn scenario_ledger_is_pinned_bitwise() {
    // (run, seconds bits, IPL bytes, MPI bytes, calls/iteration, recoveries)
    let pinned: [(&str, u64, u64, u64, f64, u32); 6] = [
        ("CpuOnly", 0x4076_1142_c10d_50f6, 0, 0, 31.0, 0),
        ("LocalGpu", 0x4056_3d91_f396_ffd0, 0, 0, 31.0, 0),
        ("RemoteGpu", 0x4054_f897_910b_8092, 332_699_946, 0, 31.0, 0),
        ("FullJungle", 0x4013_1d90_f4af_69e5, 318_309_538, 7_733_328, 31.0, 0),
        ("SC11", 0x401a_a3b5_3f1a_24cd, 159_154_769, 3_866_664, 31.0, 0),
        ("Failover", 0x4056_48f8_743e_7c79, 354_262_428, 0, 40.5, 1),
    ];
    let mut runs: Vec<_> = Scenario::all().into_iter().map(|s| run_scenario(s, 2).result).collect();
    runs.push(run_sc11(1).result);
    runs.push(run_failover_demo(2).result);
    for ((name, bits, ipl, mpi, calls, recoveries), r) in pinned.into_iter().zip(runs) {
        let got = (
            r.seconds_per_iteration.to_bits(),
            r.wan_ipl_bytes,
            r.mpi_bytes,
            r.calls_per_iteration,
            r.recoveries,
        );
        assert_eq!(got, (bits, ipl, mpi, calls, recoveries), "{name}: {r:?}");
    }
}

#[test]
fn sc11_transatlantic_run_completes() {
    let run = run_sc11(1);
    assert!(run.result.seconds_per_iteration > 0.0);
    // the coupler sits in Seattle: transatlantic traffic must exist
    assert!(run.result.wan_ipl_bytes > 1 << 20);
}

#[test]
fn crash_without_recovery_still_aborts_like_the_paper() {
    // §5: "if one worker crashes, the entire simulation crashes"
    assert!(run_crash_demo(), "the unprotected run must abort");
}

#[test]
fn failover_demo_survives_the_same_crash() {
    // the same injected host crash, with restore + re-place + replay:
    // the run completes and reports at least one recovery
    let run = run_failover_demo(2);
    assert!(run.result.recoveries >= 1, "the crash must actually fire mid-run");
    assert!(run.result.seconds_per_iteration > 0.0);
    assert_eq!(run.result.scenario, Scenario::RemoteGpu);
}
