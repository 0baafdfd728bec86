//! Property tests for the chaos layer.
//!
//! Two contracts: (1) a [`FaultPlan`] is a pure function of its seed —
//! every query (schedule, per-stream faults, crash fuses, truncation
//! point, victim selection) replays identically, which is what makes a
//! failing soak seed reproducible; (2) a transient-fault schedule
//! injected into a live K-shard TCP pool is *absorbed*: the gathered
//! final state is bitwise-identical across K = 1, 2, 3 and to a
//! fault-free run, with every fault healed by the in-place
//! sequence-numbered resend (no restore, no supervisor).

use jc_amuse::channel::Channel;
use jc_amuse::chaos::{FaultPlan, RetryPolicy};
use jc_amuse::checkpoint::ModelState;
use jc_amuse::reactor::{Reactor, ReactorChannel};
use jc_amuse::shard::ShardedChannel;
use jc_amuse::socket::spawn_tcp_worker;
use jc_amuse::worker::{GravityWorker, Request, Response};
use jc_amuse::SocketChannel;
use jc_nbody::plummer::plummer_sphere;
use jc_nbody::Backend;
use proptest::prelude::*;

proptest! {
    #[test]
    fn equal_seeds_derive_identical_fault_sequences(seed in any::<u64>(), streams in 1usize..6) {
        let a = FaultPlan::seeded(seed);
        let b = FaultPlan::seeded(seed);
        prop_assert_eq!(a.schedule(streams), b.schedule(streams));
        for i in 0..streams {
            prop_assert_eq!(
                format!("{:?}", a.stream_faults(streams, i)),
                format!("{:?}", b.stream_faults(streams, i))
            );
            prop_assert_eq!(a.crash_fuse(streams, i), b.crash_fuse(streams, i));
        }
        prop_assert_eq!(a.checkpoint_truncation(streams), b.checkpoint_truncation(streams));
        for round in 0..4u64 {
            prop_assert_eq!(a.victim(round, streams), b.victim(round, streams));
        }
    }

    #[test]
    fn backoff_is_a_pure_bounded_function_of_policy_and_attempt(
        seed in any::<u64>(),
        attempt in 1u32..12,
    ) {
        let p = RetryPolicy::standard(seed);
        let d = p.backoff(attempt);
        prop_assert_eq!(d, p.backoff(attempt)); // same attempt, same delay
        let cap = p.backoff_max_ms + p.backoff_base_ms + 1;
        prop_assert!(d.as_millis() as u64 <= cap, "{d:?} exceeds the {cap} ms ceiling");
    }
}

/// The state's f64 columns as raw bit patterns — bitwise comparison,
/// immune to NaN != NaN and -0.0 == 0.0.
fn state_bits(s: &ModelState) -> Vec<u64> {
    let ModelState::Gravity { time, mass, pos, vel } = s else {
        panic!("gravity state expected, got {}", s.kind());
    };
    let mut out = vec![time.to_bits()];
    out.extend(mass.iter().map(|m| m.to_bits()));
    for p in pos {
        out.extend(p.iter().map(|x| x.to_bits()));
    }
    for v in vel {
        out.extend(v.iter().map(|x| x.to_bits()));
    }
    out
}

/// Scatter a Plummer sphere over a K-shard TCP gravity pool, mutate it
/// (kicks, new masses), heartbeat it, and gather the final state. With
/// `chaos`, the seed's transport faults are injected into every shard
/// channel (crash fuses are out of scope here — this pool has no
/// supervisor, so only the in-place retry tier may fire). With
/// `reactor`, the pool runs over [`ReactorChannel`]s on one shared
/// [`Reactor`] instead of each on a private one ([`SocketChannel::connect`]) — the
/// same seeded schedule must be absorbed identically on both.
fn pooled_final_state(seed: u64, k: usize, n: usize, chaos: bool, reactor: bool) -> Vec<u64> {
    let plan = FaultPlan::seeded(seed);
    let retry =
        RetryPolicy { backoff_base_ms: 1, backoff_max_ms: 8, ..RetryPolicy::standard(seed) };
    let shared = Reactor::new_shared().expect("reactor");
    let mut handles = Vec::new();
    let shards: Vec<Box<dyn Channel>> = (0..k)
        .map(|i| {
            let (addr, h) = spawn_tcp_worker(format!("g{i}"), || {
                GravityWorker::new(plummer_sphere(1, 99), Backend::CpuParallel)
            });
            handles.push(h);
            if reactor {
                let mut ch =
                    ReactorChannel::connect(&shared, addr, format!("g{i}")).expect("connect shard");
                if chaos {
                    ch = ch.with_retry(retry).with_chaos(plan.stream_faults(k, i));
                }
                Box::new(ch) as Box<dyn Channel>
            } else {
                let mut ch = SocketChannel::connect(addr, format!("g{i}")).expect("connect shard");
                if chaos {
                    ch = ch.with_retry(retry).with_chaos(plan.stream_faults(k, i));
                }
                Box::new(ch) as Box<dyn Channel>
            }
        })
        .collect();
    let mut pool = ShardedChannel::with_counts(shards, vec![1; k]);

    let full = plummer_sphere(n, 7);
    let state = ModelState::Gravity {
        time: 0.0,
        mass: full.mass.clone(),
        pos: full.pos.clone(),
        vel: full.vel.clone(),
    };
    let ok = |r: Response| matches!(r, Response::Ok { .. });
    assert!(ok(pool.call(Request::LoadState(state))), "scatter");
    let kick1: Vec<[f64; 3]> =
        (0..n).map(|i| [1e-3 * i as f64, -2e-3, 5e-4 * (i % 3) as f64]).collect();
    assert!(ok(pool.call(Request::Kick(kick1))), "kick 1");
    let masses: Vec<f64> = (0..n).map(|i| 1.0 / n as f64 + 1e-6 * i as f64).collect();
    assert!(ok(pool.call(Request::SetMasses(masses))), "set masses");
    let kick2: Vec<[f64; 3]> = (0..n).map(|i| [-5e-4, 1e-3 * (i % 2) as f64, 2e-3]).collect();
    assert!(ok(pool.call(Request::Kick(kick2))), "kick 2");
    assert!(pool.heartbeat().iter().all(|&alive| alive), "heartbeat 1");
    assert!(pool.heartbeat().iter().all(|&alive| alive), "heartbeat 2");
    let Response::State(s) = pool.call(Request::SaveState) else { panic!("gather") };

    drop(pool); // Stop frames shut the servers down
    for h in handles {
        h.join().expect("server thread").expect("server exits cleanly");
    }
    state_bits(&s)
}

proptest! {
    // Each case spins up 1+2+3 chaos pools per transport plus a
    // fault-free reference over real TCP — keep the case count small;
    // the 32-seed soak in tests/chaos.rs carries the breadth.
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn recovered_results_are_bitwise_identical_across_shard_counts(
        seed in any::<u64>(),
        n in 6usize..12,
    ) {
        let reference = pooled_final_state(seed, 1, n, false, false);
        for k in 1..=3usize {
            for reactor in [false, true] {
                let chaotic = pooled_final_state(seed, k, n, true, reactor);
                prop_assert!(
                    chaotic == reference,
                    "seed {} diverged at k={} reactor={}; replay: \
                     cargo run --release --example chaos_soak -- --start {} --seeds 1",
                    seed, k, reactor, seed
                );
            }
        }
    }
}
