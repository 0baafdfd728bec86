//! Per-request deadline regression: a chaos schedule of repeated
//! transient timeouts must not stall a retry-enabled channel past its
//! wall-clock budget (`RetryPolicy::deadline_ms`).
//!
//! Before the deadline existed, `max_retries` only capped *attempts*:
//! a policy generous enough to ride out a flaky link (say 100 000
//! retries) would let one request spin through backoff for minutes.
//! These tests pin the bound in both topologies — a `ReactorChannel` on
//! its private reactor (`SocketChannel::connect`) and one on a shared
//! reactor — with
//! the same deterministic seeded schedule, and pin that the failure
//! surfaces as the *typed*, non-transient `DeadlineExceeded` (so the
//! bridge escalates to heal/restore instead of retrying in place).

use jc_amuse::channel::Channel;
use jc_amuse::chaos::{IoFault, RetryPolicy, StreamFaults};
use jc_amuse::worker::{GravityWorker, Request, Response};
use jc_amuse::{Reactor, ReactorChannel, SocketChannel};
use jc_nbody::plummer::plummer_sphere;
use jc_nbody::Backend;
use std::time::{Duration, Instant};

/// A schedule that times out every one of the next `n` frame reads —
/// the pathological flaky link that attempt-count caps cannot bound in
/// wall-clock.
fn endless_read_timeouts(n: u64) -> StreamFaults {
    let mut f = StreamFaults::default();
    for op in 1..=n {
        f = f.with_read(op, IoFault::ReadTimeout);
    }
    f
}

/// Generous attempts, tiny backoff, hard 150 ms budget: wall-clock is
/// bounded by the deadline, not the attempt cap.
fn deadline_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 100_000,
        backoff_base_ms: 1,
        backoff_max_ms: 4,
        ..RetryPolicy::standard(seed)
    }
    .with_deadline(150)
}

#[test]
fn blocking_channel_honors_request_deadline_under_chaos() {
    let ics = plummer_sphere(8, 3);
    let (addr, handle) =
        jc_amuse::spawn_tcp_worker("grav", move || GravityWorker::new(ics, Backend::Scalar));
    let mut ch = SocketChannel::connect(addr, "grav")
        .expect("connect")
        .with_retry(deadline_policy(11))
        .with_chaos(endless_read_timeouts(4096));
    let t0 = Instant::now();
    let resp = ch.call(Request::Ping);
    let elapsed = t0.elapsed();
    match resp {
        Response::Error(msg) => {
            assert!(msg.contains("deadline of 150 ms exceeded"), "typed deadline error: {msg}")
        }
        other => panic!("expected deadline error, got {other:?}"),
    }
    assert!(ch.stats().retries > 0, "the budget was spent on real retries");
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline must bound wall-clock (took {elapsed:?} for a 150 ms budget)"
    );
    drop(ch); // poisoned: no Stop frame
    assert!(SocketChannel::shutdown_worker(addr), "reap the worker");
    handle.join().unwrap().unwrap();
}

#[test]
fn reactor_channel_honors_request_deadline_under_chaos() {
    let ics = plummer_sphere(8, 3);
    let (addr, handle) =
        jc_amuse::spawn_tcp_worker("grav", move || GravityWorker::new(ics, Backend::Scalar));
    let reactor = Reactor::new_shared().expect("reactor");
    let mut ch = ReactorChannel::connect(&reactor, addr, "grav")
        .expect("connect")
        .with_retry(deadline_policy(11))
        .with_chaos(endless_read_timeouts(4096));
    let t0 = Instant::now();
    let resp = ch.call(Request::Ping);
    let elapsed = t0.elapsed();
    match resp {
        Response::Error(msg) => {
            assert!(msg.contains("deadline of 150 ms exceeded"), "typed deadline error: {msg}")
        }
        other => panic!("expected deadline error, got {other:?}"),
    }
    assert!(ch.stats().retries > 0, "the budget was spent on real retries");
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline must bound wall-clock (took {elapsed:?} for a 150 ms budget)"
    );
    drop(ch);
    assert!(SocketChannel::shutdown_worker(addr), "reap the worker");
    handle.join().unwrap().unwrap();
}

#[test]
fn deadline_is_inert_on_a_healthy_channel_and_under_absorbable_chaos() {
    // A short burst of transient faults *inside* the budget is still
    // absorbed in place — the deadline only trims the tail.
    let ics = plummer_sphere(8, 3);
    let reference = {
        let mut w = GravityWorker::new(ics.clone(), Backend::Scalar);
        use jc_amuse::worker::ModelWorker;
        match w.handle(Request::GetParticles) {
            Response::Particles(p) => p,
            other => panic!("reference snapshot failed: {other:?}"),
        }
    };
    let (addr, handle) =
        jc_amuse::spawn_tcp_worker("grav", move || GravityWorker::new(ics, Backend::Scalar));
    let faults = StreamFaults::default()
        .with_read(1, IoFault::ReadTimeout)
        .with_read(2, IoFault::ReadTimeout);
    let mut ch = SocketChannel::connect(addr, "grav")
        .expect("connect")
        .with_retry(RetryPolicy::standard(5).with_deadline(5_000))
        .with_chaos(faults);
    match ch.call(Request::GetParticles) {
        Response::Particles(p) => {
            assert_eq!(p.pos, reference.pos, "retried snapshot is bitwise clean");
        }
        other => panic!("absorbable faults must still succeed: {other:?}"),
    }
    assert_eq!(ch.stats().retries, 2, "both scheduled faults were absorbed");
    drop(ch);
    handle.join().unwrap().unwrap();
}
