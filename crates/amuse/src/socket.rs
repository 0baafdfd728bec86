//! The socket channel: real TCP between coupler and worker.
//!
//! This is the paper's "channel based on sockets": the same
//! [`Channel`] RPC surface and the same frames (see [`crate::wire`]) as
//! [`crate::LocalChannel`], carried over loopback or real TCP.
//!
//! * [`WorkerServer`] serves any [`ModelWorker`] over a
//!   `std::net::TcpListener` — it is what the `jungle-worker` binary
//!   wraps. It is a thin accept-and-read driver: requests are framed by
//!   the same [`FrameDecoder`] the client uses, and each frame goes to
//!   the socket-free [`ServerCore`] (in [`crate::host`], with its
//!   per-worker dedup cache), which reads the frame's bulk columns in
//!   place in the decoder's buffer. Its reply frame is written whole,
//!   bulk columns from where the worker holds them, before the next
//!   frame is read.
//! * [`SocketChannel`] names the stand-alone client: its `connect`
//!   puts one [`ReactorChannel`] on a private [`Reactor`]. The client
//!   protocol is implemented once — the codec, stamping and accounting
//!   in [`crate::channel::ClientCore`], retry, faults, timeouts and
//!   teardown in [`crate::reactor`]; pools that want their round trips
//!   to overlap put `ReactorChannel`s on one shared reactor instead.

use crate::channel::Channel;
use crate::host::{Next, ServerCore};
use crate::reactor::{net_timeout, FrameDecoder, Reactor, ReactorChannel};
use crate::wire::WireError;
use crate::worker::{ModelWorker, Request, Response};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::AtomicI64;
use std::sync::Arc;

/// The stand-alone TCP client, a namespace with no values: a channel to
/// a worker behind a socket is a [`ReactorChannel`] on a reactor of its
/// own. Every `submit*` starts its frame on the wire before returning,
/// so independent channels still overlap their workers' compute.
pub enum SocketChannel {}

impl SocketChannel {
    /// Connect to a worker server on a private reactor. `name` is the
    /// local display name for monitoring (the wire protocol has no name
    /// exchange).
    pub fn connect(
        addr: impl ToSocketAddrs,
        name: impl Into<String>,
    ) -> std::io::Result<ReactorChannel> {
        ReactorChannel::connect(&Reactor::new_shared()?, addr, name)
    }

    /// Ask the server behind `addr` to terminate cleanly: one
    /// [`Request::Shutdown`] round trip on a fresh connection, `true`
    /// iff the worker acknowledged before the server exited. This is
    /// how supervisors and tests reap a worker whose original channel
    /// is poisoned (a poisoned channel cannot deliver `Stop`, and a
    /// server otherwise returns to `accept` and lingers forever).
    pub fn shutdown_worker(addr: impl ToSocketAddrs) -> bool {
        let Ok(mut c) = SocketChannel::connect(addr, "shutdown") else {
            return false;
        };
        // Bounded, like Drop's drain: the server serves connections
        // sequentially, so if another coupler still holds its current
        // session this request waits in the backlog — a supervisor's
        // teardown must not block forever on it.
        c.link.wait = Some(net_timeout());
        c.link.stop_on_drop = false;
        matches!(c.call(Request::Shutdown), Response::Ok { .. })
    }
}

/// A TCP server hosting one [`ModelWorker`].
///
/// Connections are served sequentially (the AMUSE worker model: one
/// coupler drives one worker). A clean disconnect returns the server to
/// `accept`; a [`Request::Stop`] or [`Request::Shutdown`] shuts the
/// server down after replying — `Shutdown` is the deterministic
/// teardown path that also works when the original coupler channel is
/// gone (see [`SocketChannel::shutdown_worker`]).
pub struct WorkerServer {
    listener: TcpListener,
}

impl WorkerServer {
    /// Bind a listener. Use port 0 for an ephemeral port and read it
    /// back with [`WorkerServer::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<WorkerServer> {
        Ok(WorkerServer { listener: TcpListener::bind(addr)? })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve `worker` until a [`Request::Stop`] or [`Request::Shutdown`]
    /// arrives. Frame and encode buffers are reused across requests and
    /// connections, so a steady-state request costs the server no
    /// allocation either (`zero_alloc` pins that on [`ServerCore`]).
    pub fn serve(&self, worker: &mut dyn ModelWorker) -> std::io::Result<()> {
        self.serve_with_fuse(worker, None)
    }

    /// [`WorkerServer::serve`] with failure injection: when `fuse` is
    /// given, each received request burns one unit, and the request
    /// that finds the fuse exhausted is *not* handled — the server
    /// drops the connection without replying and exits, which is the
    /// network-visible signature of a node crash (the coupler sees a
    /// truncated stream, never an error response). The server thread
    /// still terminates deterministically, so tests can join it.
    ///
    /// Protocol errors are connection-fatal: framing can no longer be
    /// trusted, so the server replies with a [`Response::Error`] frame
    /// (best-effort) and drops the connection — it never panics and
    /// stays available for the next `accept`.
    pub fn serve_with_fuse(
        &self,
        worker: &mut dyn ModelWorker,
        fuse: Option<&AtomicI64>,
    ) -> std::io::Result<()> {
        let mut core = ServerCore::new(worker, fuse);
        let mut decoder = FrameDecoder::new();
        loop {
            let (mut stream, _peer) = self.listener.accept()?;
            stream.set_nodelay(true)?;
            decoder.reset();
            match serve_connection(&mut core, &mut decoder, &mut stream) {
                Next::Continue | Next::Hangup => {}
                Next::ShutDown => return Ok(()),
                Next::Crash => {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return Ok(());
                }
            }
        }
    }
}

/// Serve one connection's request frames in turn: each reply is written
/// whole ([`crate::wire::Frame::write_to`]) before the next frame is
/// read. What ended the connection.
fn serve_connection(
    core: &mut ServerCore<'_>,
    decoder: &mut FrameDecoder,
    stream: &mut (impl Read + Write),
) -> Next {
    loop {
        let (reply, next) = match decoder.read_from(stream) {
            Ok(Some(_)) => core.handle(decoder.frame()),
            Ok(None) | Err(WireError::Closed) => return Next::Hangup,
            Err(e) => (core.protocol_error(&e), Next::Hangup),
        };
        if reply.write_to(stream).is_err() || next != Next::Continue {
            return next;
        }
        decoder.advance();
    }
}

/// Spawn a worker on its own thread behind a loopback TCP server bound
/// to an ephemeral port. The factory runs on the server thread (so
/// non-`Send` kernels still work); returns the address to
/// [`SocketChannel::connect`] to and the server thread's handle. The
/// server exits when a `Stop` request arrives — which a dropped
/// [`ReactorChannel`] sends automatically.
pub fn spawn_tcp_worker<F, W>(
    name: impl Into<String>,
    factory: F,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>)
where
    F: FnOnce() -> W + Send + 'static,
    W: ModelWorker + 'static,
{
    spawn_worker(name.into(), factory, None)
}

/// [`spawn_tcp_worker`] with a crash fuse: the worker serves normally
/// until `fuse` requests have been received, then the server "crashes"
/// — connection dropped without a reply, thread exits (see
/// [`WorkerServer::serve_with_fuse`]). Load the fuse with `i64::MAX`
/// for "never" and count it down from the test to kill the worker at a
/// deterministic point mid-run.
pub fn spawn_flaky_tcp_worker<F, W>(
    name: impl Into<String>,
    factory: F,
    fuse: Arc<AtomicI64>,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>)
where
    F: FnOnce() -> W + Send + 'static,
    W: ModelWorker + 'static,
{
    spawn_worker(name.into(), factory, Some(fuse))
}

/// The body of both spawners.
fn spawn_worker<F, W>(
    name: String,
    factory: F,
    fuse: Option<Arc<AtomicI64>>,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>)
where
    F: FnOnce() -> W + Send + 'static,
    W: ModelWorker + 'static,
{
    let server = WorkerServer::bind(("127.0.0.1", 0)).expect("bind loopback listener");
    let addr = server.local_addr().expect("listener address");
    let handle = std::thread::Builder::new()
        .name(format!("tcp-worker-{name}"))
        .spawn(move || {
            let mut worker = factory();
            server.serve_with_fuse(&mut worker, fuse.as_deref())
        })
        .expect("spawn worker server thread");
    (addr, handle)
}

/// A drop-guard over spawned loopback worker servers: no exit path —
/// early return, failed `expect`, panicking assertion — may leak a
/// server thread blocked in `accept`.
///
/// The success path calls [`WorkerFleet::join_all`] after the channels
/// are dropped (their `Stop` frames end the servers) and surfaces any
/// server error. If the harness unwinds before that, `Drop` sends each
/// remaining server a clean v2 `Shutdown` over a fresh connection and
/// joins its thread, so the process ends with every worker reaped.
#[derive(Default)]
pub struct WorkerFleet {
    workers: Vec<(SocketAddr, Option<std::thread::JoinHandle<std::io::Result<()>>>)>,
}

impl WorkerFleet {
    /// An empty fleet.
    pub fn new() -> WorkerFleet {
        WorkerFleet::default()
    }

    /// Take ownership of an already-spawned server (the pair returned
    /// by [`spawn_tcp_worker`] / [`spawn_flaky_tcp_worker`]).
    pub fn adopt(
        &mut self,
        addr: SocketAddr,
        handle: std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        self.workers.push((addr, Some(handle)));
    }

    /// [`spawn_tcp_worker`] straight into the fleet.
    pub fn spawn<F, W>(&mut self, name: impl Into<String>, factory: F) -> SocketAddr
    where
        F: FnOnce() -> W + Send + 'static,
        W: ModelWorker + 'static,
    {
        let (addr, handle) = spawn_tcp_worker(name, factory);
        self.adopt(addr, handle);
        addr
    }

    /// Join every server thread, surfacing the first server error. Call
    /// after the channels are gone — a still-connected server never
    /// exits and this would hang.
    pub fn join_all(&mut self) -> std::io::Result<()> {
        let mut first_err = None;
        for (_, handle) in &mut self.workers {
            if let Some(h) = handle.take() {
                if let Err(e) = h.join().expect("worker server thread panicked") {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        for (addr, handle) in &mut self.workers {
            if let Some(h) = handle.take() {
                // best-effort: an already-stopped server refuses the
                // connection, a live one exits on the Shutdown frame
                let _ = SocketChannel::shutdown_worker(*addr);
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::RetryPolicy;
    use crate::worker::ParticleData;
    use crate::worker::{GravityWorker, StellarWorker};
    use jc_nbody::plummer::plummer_sphere;
    use jc_nbody::Backend;
    use std::net::TcpStream;

    #[test]
    fn socket_channel_round_trips_over_real_tcp() {
        let (addr, handle) = spawn_tcp_worker("grav", || {
            GravityWorker::new(plummer_sphere(8, 1), Backend::CpuParallel)
        });
        let mut c = SocketChannel::connect(addr, "grav").unwrap();
        assert!(matches!(c.call(Request::Ping), Response::Ok { .. }));
        match c.call(Request::GetParticles) {
            Response::Particles(p) => assert_eq!(p.mass.len(), 8),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().calls, 2);
        drop(c); // sends Stop
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn socket_channel_async_overlap() {
        let (a_addr, ah) = spawn_tcp_worker("sse-a", || StellarWorker::new(vec![1.0, 9.0], 0.02));
        let (b_addr, bh) = spawn_tcp_worker("sse-b", || StellarWorker::new(vec![2.0], 0.02));
        let mut a = SocketChannel::connect(a_addr, "sse-a").unwrap();
        let mut b = SocketChannel::connect(b_addr, "sse-b").unwrap();
        a.submit(Request::EvolveStars(5.0));
        b.submit(Request::EvolveStars(5.0));
        match a.collect() {
            Response::StellarUpdate { masses, .. } => assert_eq!(masses.len(), 2),
            other => panic!("{other:?}"),
        }
        match b.collect() {
            Response::StellarUpdate { masses, .. } => assert_eq!(masses.len(), 1),
            other => panic!("{other:?}"),
        }
        drop(a);
        drop(b);
        ah.join().unwrap().unwrap();
        bh.join().unwrap().unwrap();
    }

    #[test]
    fn channel_poisons_itself_after_a_wire_failure() {
        // a server that slams the connection mid-conversation: every
        // later call on the channel must fail fast with the original
        // error, not misparse a desynchronized stream
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let killer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // immediate close, no response ever
        });
        let mut c = SocketChannel::connect(addr, "doomed").unwrap();
        killer.join().unwrap();
        let r1 = c.call(Request::Ping);
        assert!(matches!(r1, Response::Error(_)), "{r1:?}");
        let r2 = c.call(Request::GetParticles);
        match (&r1, &r2) {
            (Response::Error(e1), Response::Error(e2)) => {
                assert_eq!(e1, e2, "poisoned channel echoes the original failure");
            }
            other => panic!("{other:?}"),
        }
        assert!(!c.snapshot_into(&mut crate::worker::ParticleData::default()));
    }

    #[test]
    fn dropping_mid_submit_still_stops_the_server() {
        let (addr, handle) = spawn_tcp_worker("grav", || {
            GravityWorker::new(plummer_sphere(8, 3), Backend::CpuParallel)
        });
        let mut c = SocketChannel::connect(addr, "grav").unwrap();
        c.submit(Request::EvolveTo(1e-3));
        drop(c); // drains the outstanding response, then sends Stop
        handle.join().unwrap().unwrap(); // must not hang on accept()
    }

    #[test]
    fn shutdown_request_terminates_a_lingering_server() {
        // poison the coupler's channel with a hostile frame so its Drop
        // cannot deliver Stop — the old leak scenario — then reap the
        // server with an explicit Shutdown on a fresh connection
        let (addr, handle) = spawn_tcp_worker("grav", || {
            GravityWorker::new(plummer_sphere(4, 5), Backend::CpuParallel)
        });
        {
            let mut c = SocketChannel::connect(addr, "grav").unwrap();
            assert!(matches!(c.call(Request::Ping), Response::Ok { .. }));
            // break the stream from underneath the channel
            c.link.with_stream(|s| s.shutdown(std::net::Shutdown::Both)).unwrap();
            assert!(matches!(c.call(Request::Ping), Response::Error(_)));
            drop(c); // poisoned: sends nothing
        }
        assert!(SocketChannel::shutdown_worker(addr), "worker acknowledges the shutdown");
        handle.join().unwrap().unwrap(); // thread exits deterministically
    }

    #[test]
    fn crash_fuse_kills_the_server_without_a_reply() {
        let fuse = Arc::new(AtomicI64::new(2));
        let (addr, handle) = spawn_flaky_tcp_worker(
            "doomed",
            || GravityWorker::new(plummer_sphere(4, 6), Backend::CpuParallel),
            fuse.clone(),
        );
        let mut c = SocketChannel::connect(addr, "doomed").unwrap();
        assert!(matches!(c.call(Request::Ping), Response::Ok { .. }));
        assert!(matches!(c.call(Request::Ping), Response::Ok { .. }));
        // third request burns the fuse: truncated stream, not an Error frame
        let r = c.call(Request::Ping);
        assert!(matches!(&r, Response::Error(e) if e.contains("wire error")), "{r:?}");
        assert!(!c.heal(), "a poisoned socket channel cannot heal itself");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn lost_response_to_a_mutating_request_is_not_double_applied() {
        use crate::chaos::{IoFault, RetryPolicy, StreamFaults};
        // control: one clean kick
        let (addr, handle) = spawn_tcp_worker("ctrl", || {
            GravityWorker::new(plummer_sphere(4, 9), Backend::CpuParallel)
        });
        let mut ctrl = SocketChannel::connect(addr, "ctrl").unwrap();
        assert!(matches!(ctrl.call(Request::Kick(vec![[0.5, 0.0, 0.0]; 4])), Response::Ok { .. }));
        let expected = match ctrl.call(Request::GetParticles) {
            Response::Particles(p) => p,
            other => panic!("{other:?}"),
        };
        drop(ctrl);
        handle.join().unwrap().unwrap();

        // chaos: the kick's response is lost to an injected read
        // timeout; the retry resends the same sequence number and the
        // server must replay, not re-apply
        let (addr, handle) = spawn_tcp_worker("flaky", || {
            GravityWorker::new(plummer_sphere(4, 9), Backend::CpuParallel)
        });
        let mut c = SocketChannel::connect(addr, "flaky")
            .unwrap()
            .with_retry(RetryPolicy { backoff_base_ms: 1, ..RetryPolicy::standard(7) })
            .with_chaos(StreamFaults::default().with_read(1, IoFault::ReadTimeout));
        assert!(matches!(c.call(Request::Kick(vec![[0.5, 0.0, 0.0]; 4])), Response::Ok { .. }));
        assert_eq!(c.stats().retries, 1, "exactly one in-place retry");
        match c.call(Request::GetParticles) {
            Response::Particles(p) => {
                for (a, b) in p.vel.iter().zip(&expected.vel) {
                    for k in 0..3 {
                        assert_eq!(a[k].to_bits(), b[k].to_bits(), "kick applied exactly once");
                    }
                }
            }
            other => panic!("{other:?}"),
        }
        drop(c);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn lost_response_to_a_step_is_replayed_not_re_applied() {
        use crate::chaos::{IoFault, RetryPolicy, StreamFaults};
        let grav = || GravityWorker::new(plummer_sphere(6, 9), Backend::CpuParallel);
        let dv = vec![[0.5, -0.25, 0.125]; 6];
        let state = |c: &mut ReactorChannel| match c.call(Request::GetParticles) {
            Response::Particles(p) => (p.mass, p.pos, p.vel),
            other => panic!("{other:?}"),
        };
        // control: one clean step that kicks twice
        let (addr, handle) = spawn_tcp_worker("ctrl", grav);
        let mut ctrl = SocketChannel::connect(addr, "ctrl").unwrap();
        let mut expected = ParticleData::default();
        ctrl.submit_step(&dv, 2, 0.01);
        let flops = match ctrl.collect_step_into(&mut expected) {
            Response::Ok { flops } => flops,
            other => panic!("{other:?}"),
        };
        let expected_state = state(&mut ctrl);
        drop(ctrl);
        handle.join().unwrap().unwrap();

        // chaos: the step's response is lost to an injected read
        // timeout; the retry resends the same sequence number and the
        // server must replay the answer it gave — the same positions,
        // the same flops — not kick twice more and evolve again
        let (addr, handle) = spawn_tcp_worker("flaky", grav);
        let mut c = SocketChannel::connect(addr, "flaky")
            .unwrap()
            .with_retry(RetryPolicy { backoff_base_ms: 1, ..RetryPolicy::standard(7) })
            .with_chaos(StreamFaults::default().with_read(1, IoFault::ReadTimeout));
        let mut got = ParticleData::default();
        c.submit_step(&dv, 2, 0.01);
        match c.collect_step_into(&mut got) {
            Response::Ok { flops: f } => assert_eq!(f.to_bits(), flops.to_bits()),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().retries, 1, "exactly one in-place retry");
        assert_eq!((got.mass, got.pos), (expected.mass, expected.pos), "the replayed answer");
        assert!(got.vel.is_empty());
        assert_eq!(state(&mut c), expected_state, "kicked twice and evolved exactly once");
        drop(c);
        handle.join().unwrap().unwrap();
    }

    /// One in-memory connection: the request bytes the server reads, and
    /// the bytes it puts on the wire.
    struct Duplex {
        requests: std::io::Cursor<Vec<u8>>,
        wire: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.requests.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.wire.write(buf)
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.wire.write_vectored(bufs)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serve `requests` as one connection to a fresh worker: what went
    /// on the wire, the reply the dedup cache holds after, and the
    /// worker's state.
    fn serve_bytes(requests: Vec<u8>) -> (Vec<u8>, Vec<u8>, ParticleData) {
        let mut grav = GravityWorker::new(plummer_sphere(6, 9), Backend::CpuParallel);
        let mut core = ServerCore::new(&mut grav, None);
        let mut conn = Duplex { requests: std::io::Cursor::new(requests), wire: Vec::new() };
        let next = serve_connection(&mut core, &mut FrameDecoder::new(), &mut conn);
        assert_eq!(next, Next::Hangup, "the connection ends at the last request");
        let cached = core.cached_reply().to_vec();
        drop(core);
        let mut state = ParticleData::default();
        assert!(grav.snapshot_into(&mut state));
        (conn.wire, cached, state)
    }

    #[test]
    fn a_stamped_step_reply_leaves_from_the_dedup_cache_and_replays_unchanged() {
        let dv = vec![[0.5, -0.25, 0.125]; 6];
        let mut frame = Vec::new();
        crate::wire::step_frame(&dv, 2, 0.01).encode(&mut frame);
        // control: the step unstamped, its reply lent from the worker
        let (unstamped, nothing, stepped_once) = serve_bytes(frame.clone());
        assert!(nothing.is_empty(), "an unstamped step caches nothing");
        assert!(matches!(
            crate::wire::decode_response(&unstamped),
            Ok(Response::Stepped { pos, .. }) if pos.len() == 6
        ));
        // the step stamped, then resent as after a lost reply
        crate::wire::set_seq(&mut frame, 1);
        let (wire, cached, state) = serve_bytes([&frame[..], &frame[..]].concat());
        assert_eq!(cached, unstamped, "the cache holds the reply an unstamped step gets");
        assert_eq!(wire, [&cached[..], &cached[..]].concat(), "the reply and its replay");
        assert_eq!((state.pos, state.vel), (stepped_once.pos, stepped_once.vel), "applied once");
    }

    /// A channel that retries, and so stamps its requests.
    fn retrying(addr: SocketAddr, name: &str) -> ReactorChannel {
        let retry = RetryPolicy { backoff_base_ms: 1, ..RetryPolicy::standard(7) };
        SocketChannel::connect(addr, name).unwrap().with_retry(retry)
    }

    #[test]
    fn stale_dedup_does_not_swallow_a_new_connections_request() {
        // The dedup cache outlives connections on purpose. A fresh
        // retrying channel restarts its numbering at 1, so when the
        // previous connection's first request was mutating, the new
        // channel's first mutating request lands exactly on the stale
        // last_seq — it must still be applied (different bytes: not a
        // resend), not answered from the cache.
        let (addr, handle) = spawn_tcp_worker("ctrl", || {
            GravityWorker::new(plummer_sphere(4, 11), Backend::CpuParallel)
        });
        let mut ctrl = SocketChannel::connect(addr, "ctrl").unwrap();
        assert!(matches!(ctrl.call(Request::Kick(vec![[0.5, 0.0, 0.0]; 4])), Response::Ok { .. }));
        assert!(matches!(ctrl.call(Request::Kick(vec![[0.0, 0.25, 0.0]; 4])), Response::Ok { .. }));
        let expected = match ctrl.call(Request::GetParticles) {
            Response::Particles(p) => p,
            other => panic!("{other:?}"),
        };
        drop(ctrl);
        handle.join().unwrap().unwrap();

        let (addr, handle) = spawn_tcp_worker("grav", || {
            GravityWorker::new(plummer_sphere(4, 11), Backend::CpuParallel)
        });
        {
            let mut a = retrying(addr, "first");
            // first request mutating: seq 1 lands in the dedup cache
            assert!(matches!(a.call(Request::Kick(vec![[0.5, 0.0, 0.0]; 4])), Response::Ok { .. }));
            a.link.stop_on_drop = false; // vanish without Stop, server keeps listening
        }
        let mut b = retrying(addr, "second");
        // b's first request is also seq 1, also mutating, different bytes
        assert!(matches!(b.call(Request::Kick(vec![[0.0, 0.25, 0.0]; 4])), Response::Ok { .. }));
        match b.call(Request::GetParticles) {
            Response::Particles(p) => {
                for (x, y) in p.vel.iter().zip(&expected.vel) {
                    for k in 0..3 {
                        assert_eq!(x[k].to_bits(), y[k].to_bits(), "both kicks applied");
                    }
                }
            }
            other => panic!("{other:?}"),
        }
        drop(b);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_reaps_a_server_whose_stale_dedup_holds_seq_one() {
        // A retrying coupler whose *first* request was mutating dies
        // without Stop, leaving seq 1 in the dedup cache. A fresh
        // retrying channel stamps its Shutdown with seq 1, colliding with
        // the stale cache. The Shutdown must be executed (server exits,
        // join returns), not answered with the cached Kick reply.
        let (addr, handle) = spawn_tcp_worker("grav", || {
            GravityWorker::new(plummer_sphere(4, 12), Backend::CpuParallel)
        });
        {
            let mut a = retrying(addr, "doomed");
            assert!(matches!(a.call(Request::Kick(vec![[0.1, 0.0, 0.0]; 4])), Response::Ok { .. }));
            a.link.stop_on_drop = false;
        }
        let mut reaper = retrying(addr, "reaper");
        reaper.link.stop_on_drop = false;
        let ack = reaper.call(Request::Shutdown);
        assert!(matches!(ack, Response::Ok { .. }), "worker acknowledges the shutdown");
        handle.join().unwrap().unwrap(); // server actually exited
    }

    #[test]
    fn seq_wrap_collision_applies_the_new_request() {
        // A long-lived retrying channel reuses a sequence number after
        // 65535 frames. Simulate the wrap by rewinding the client's
        // counter: the second (different) Kick reuses seq 1 and must be
        // applied.
        let (addr, handle) = spawn_tcp_worker("grav", || {
            GravityWorker::new(plummer_sphere(4, 13), Backend::CpuParallel)
        });
        let mut c = retrying(addr, "wrap");
        assert!(matches!(c.call(Request::Kick(vec![[0.5, 0.0, 0.0]; 4])), Response::Ok { .. }));
        let before = match c.call(Request::GetParticles) {
            Response::Particles(p) => p,
            other => panic!("{other:?}"),
        };
        c.seq = 0; // next stamp is 1 again, as after a full wrap
        assert!(matches!(c.call(Request::Kick(vec![[0.0, 0.25, 0.0]; 4])), Response::Ok { .. }));
        match c.call(Request::GetParticles) {
            Response::Particles(p) => {
                for (x, y) in p.vel.iter().zip(&before.vel) {
                    assert_eq!(x[1].to_bits(), (y[1] + 0.25).to_bits(), "second kick applied");
                    assert_eq!(x[0].to_bits(), y[0].to_bits());
                }
            }
            other => panic!("{other:?}"),
        }
        drop(c);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn bytes_out_is_credited_when_the_response_never_arrives() {
        // send succeeds, recv fails fatally (server crashes without
        // replying): the frame left the machine, so bytes_out must
        // reflect it even though the call failed.
        let fuse = Arc::new(AtomicI64::new(1));
        let (addr, handle) = spawn_flaky_tcp_worker(
            "doomed",
            || GravityWorker::new(plummer_sphere(4, 14), Backend::CpuParallel),
            fuse,
        );
        let mut c = SocketChannel::connect(addr, "doomed").unwrap();
        assert!(matches!(c.call(Request::Ping), Response::Ok { .. }));
        let after_ok = c.stats();
        let r = c.call(Request::Ping);
        assert!(matches!(&r, Response::Error(_)), "{r:?}");
        let after_err = c.stats();
        assert_eq!(
            after_err.bytes_out,
            after_ok.bytes_out + Request::Ping.wire_size(),
            "the failed call's request frame still counts as sent"
        );
        assert_eq!(after_err.bytes_in, after_ok.bytes_in, "no response ever arrived");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn partial_write_is_absorbed_by_an_in_place_retry() {
        use crate::chaos::{IoFault, RetryPolicy, StreamFaults};
        let (addr, handle) = spawn_tcp_worker("torn", || StellarWorker::new(vec![1.0, 9.0], 0.02));
        let mut c = SocketChannel::connect(addr, "torn")
            .unwrap()
            .with_retry(RetryPolicy { backoff_base_ms: 1, ..RetryPolicy::standard(3) })
            .with_chaos(StreamFaults::default().with_write(2, IoFault::PartialWrite));
        assert!(matches!(c.call(Request::Ping), Response::Ok { .. }));
        // second frame is torn mid-write: the server sees a truncated
        // frame, the client reconnects and resends
        match c.call(Request::EvolveStars(5.0)) {
            Response::StellarUpdate { masses, .. } => assert_eq!(masses.len(), 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().retries, 1);
        assert_eq!(c.stats().calls, 2);
        drop(c);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn server_survives_a_dirty_connection() {
        let (addr, handle) = spawn_tcp_worker("grav", || {
            GravityWorker::new(plummer_sphere(4, 2), Backend::CpuParallel)
        });
        // hostile client: garbage bytes, then hang up
        {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(b"definitely not a frame, far more than thirty-two bytes").unwrap();
            let _ = raw.shutdown(std::net::Shutdown::Write);
        }
        // a well-behaved client still gets served afterwards
        let mut c = SocketChannel::connect(addr, "grav").unwrap();
        assert!(matches!(c.call(Request::Ping), Response::Ok { .. }));
        drop(c);
        handle.join().unwrap().unwrap();
    }
}
