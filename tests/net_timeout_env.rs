//! Regression test: `JC_NET_TIMEOUT_MS` bounds the round trips of
//! retry-enabled channels only.
//!
//! A channel without retry has nothing to do with a timeout but poison
//! itself, and a paper-scale `EvolveTo` legitimately outlasts any fixed
//! bound — so a plain channel waits for its reply indefinitely, in both
//! topologies (a `ReactorChannel` on its private reactor, from
//! `SocketChannel::connect`, and one on a shared reactor). The shared-reactor client used to
//! give up after `JC_NET_TIMEOUT_MS` regardless. With retry enabled the
//! same slow reply takes the transient `TimedOut` path: reconnect,
//! resend, and the server's dedup keeps the evolve applied once. One
//! `#[test]` on purpose: `set_var` is process-global.

use jungle::amuse::channel::Channel;
use jungle::amuse::chaos::RetryPolicy;
use jungle::amuse::reactor::{Reactor, ReactorChannel};
use jungle::amuse::socket::spawn_tcp_worker;
use jungle::amuse::worker::{ModelWorker, Request, Response};
use jungle::amuse::SocketChannel;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Answers everything `Ok`, but takes 300 ms over an `EvolveTo`.
struct SlowWorker {
    evolves: Arc<AtomicU32>,
}

impl ModelWorker for SlowWorker {
    fn handle(&mut self, req: Request) -> Response {
        if matches!(req, Request::EvolveTo(_)) {
            std::thread::sleep(Duration::from_millis(300));
            self.evolves.fetch_add(1, Ordering::SeqCst);
        }
        Response::Ok { flops: 0.0 }
    }

    fn name(&self) -> String {
        "slow".into()
    }
}

/// One slow evolve and a follow-up ping through the channel `connect`
/// builds; returns the channel's retry count and how often the worker
/// ran the evolve.
fn slow_round_trip(connect: impl FnOnce(std::net::SocketAddr) -> Box<dyn Channel>) -> (u64, u32) {
    let evolves = Arc::new(AtomicU32::new(0));
    let counter = Arc::clone(&evolves);
    let (addr, handle) = spawn_tcp_worker("slow", move || SlowWorker { evolves: counter });
    let mut ch = connect(addr);
    let r = ch.call(Request::EvolveTo(1.0));
    assert!(matches!(r, Response::Ok { .. }), "{}: {r:?}", ch.worker_name());
    let r = ch.call(Request::Ping);
    assert!(matches!(r, Response::Ok { .. }), "{} unusable afterwards: {r:?}", ch.worker_name());
    let retries = ch.stats().retries;
    drop(ch); // sends Stop
    handle.join().unwrap().unwrap();
    (retries, evolves.load(Ordering::SeqCst))
}

#[test]
fn net_timeout_bounds_only_retry_enabled_channels() {
    std::env::set_var("JC_NET_TIMEOUT_MS", "50");

    let plain = slow_round_trip(|addr| Box::new(SocketChannel::connect(addr, "private").unwrap()));
    assert_eq!(plain, (0, 1), "a plain channel on a private reactor must simply wait");

    let reactor = Reactor::new_shared().unwrap();
    let plain = slow_round_trip(|addr| {
        Box::new(ReactorChannel::connect(&reactor, addr, "shared").unwrap())
    });
    assert_eq!(plain, (0, 1), "a plain channel on a shared reactor must simply wait");

    let retry = RetryPolicy { max_retries: 12, backoff_base_ms: 1, ..RetryPolicy::standard(1) };
    let (retries, evolves) = slow_round_trip(|addr| {
        Box::new(SocketChannel::connect(addr, "retrying").unwrap().with_retry(retry))
    });
    assert!(retries > 0, "a retry-enabled channel times its waits out and resends");
    assert_eq!(evolves, 1, "the resent EvolveTo is deduplicated, not re-applied");

    std::env::remove_var("JC_NET_TIMEOUT_MS");
}
