//! Channels: how the coupler talks to workers.
//!
//! "AMUSE communicates with workers using a channel, in an RPC-like method.
//! Both synchronous and asynchronous calls are supported. The default
//! channel uses MPI [...] however, a channel based on sockets is also
//! available. For this paper, we added an Ibis channel" (§4.1). Here:
//!
//! * [`LocalChannel`] — worker lives in the caller (stands in for the MPI
//!   channel's same-machine case).
//! * [`ThreadChannel`] — worker runs on its own OS thread behind crossbeam
//!   queues (stands in for the socket channel; gives real async overlap).
//! * The Ibis channel is `jc_core::IbisChannel`, routing these same
//!   requests through the simulated jungle.

use crate::worker::{ModelWorker, ParticleData, Request, Response};
use crossbeam::channel as xchan;

/// Cumulative per-channel accounting (the coupler-side view of traffic).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChannelStats {
    /// Completed calls.
    pub calls: u64,
    /// Request bytes sent.
    pub bytes_out: u64,
    /// Response bytes received.
    pub bytes_in: u64,
    /// Total modeled kernel flops reported by responses.
    pub flops: f64,
    /// In-place transient-fault retries (reconnect + resend of the same
    /// sequence-stamped frame; see [`crate::chaos::RetryPolicy`]). A
    /// retried call still counts once in `calls`; only the bytes of the
    /// winning attempt are accounted. Always 0 for in-process channels.
    pub retries: u64,
}

impl ChannelStats {
    /// Fold `other` into this accumulator. Session-scoped roll-ups (the
    /// service layer sums all of a session's channels, across
    /// migrations, into one ledger) need addition, not replacement.
    pub fn merge(&mut self, other: &ChannelStats) {
        self.calls += other.calls;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.flops += other.flops;
        self.retries += other.retries;
    }
}

/// An RPC channel to one worker.
///
/// The `*_into`/`*_slice` methods are borrowing fast paths used by the
/// bridge's per-step hot loop. The defaults route through the ordinary
/// RPC (a remote channel must move full copies over the wire anyway, and
/// the accounting stays identical); [`LocalChannel`] overrides them to
/// hand borrowed slices straight to the worker, so an in-process bridge
/// step constructs no payload `Vec`s.
pub trait Channel {
    /// Synchronous call.
    fn call(&mut self, req: Request) -> Response;
    /// Fire an asynchronous call. At most one may be outstanding per
    /// channel (AMUSE's per-worker request pipeline is depth-1 too).
    fn submit(&mut self, req: Request);
    /// Wait for the outstanding asynchronous call.
    fn collect(&mut self) -> Response;
    /// Accounting.
    fn stats(&self) -> ChannelStats;
    /// Worker name.
    fn worker_name(&self) -> String;

    /// Liveness check and best-effort repair (the failover hook). The
    /// default is a heartbeat: one [`Request::Ping`] round trip, `true`
    /// iff the worker answers `Ok`. In-process channels are always
    /// alive; a poisoned [`crate::SocketChannel`] reports `false`
    /// (reconnection is a supervisor's job); a
    /// [`crate::ShardedChannel`] additionally respawns or excludes dead
    /// shards. After a successful heal the worker's *state* is not
    /// guaranteed — restore it from a checkpoint before continuing
    /// (see [`crate::bridge::Bridge::restore`]).
    fn heal(&mut self) -> bool {
        matches!(self.call(Request::Ping), Response::Ok { .. })
    }

    /// Set the per-request wall-clock budget
    /// ([`crate::chaos::RetryPolicy::deadline_ms`], 0 = unbounded) on
    /// whatever retry machinery this channel has. The service layer
    /// calls this when it leases a channel for a session, so the
    /// session's remaining deadline propagates into every retry/backoff
    /// loop underneath. In-process channels never retry, hence the
    /// default is a no-op.
    fn set_deadline(&mut self, _deadline_ms: u64) {}

    /// Snapshot the worker's particles into `out` (reusing its buffers).
    /// Counts as one [`Request::GetParticles`] call in the stats.
    fn snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        match self.call(Request::GetParticles) {
            Response::Particles(p) => {
                *out = p;
                true
            }
            _ => false,
        }
    }

    /// Apply velocity kicks from a borrowed slice. Counts as one
    /// [`Request::Kick`] call in the stats.
    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Response {
        self.call(Request::Kick(dv.to_vec()))
    }

    /// Compute coupling accelerations into `out` (cleared and refilled).
    /// Counts as one [`Request::ComputeKick`] call in the stats. Returns
    /// the modeled flops, or `None` on failure.
    fn compute_kick_into(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) -> Option<f64> {
        match self.call(Request::ComputeKick {
            targets: targets.to_vec(),
            source_pos: source_pos.to_vec(),
            source_mass: source_mass.to_vec(),
        }) {
            Response::Accelerations { acc, flops } => {
                *out = acc;
                Some(flops)
            }
            _ => None,
        }
    }

    /// Does this channel overlap in-flight requests? `true` means the
    /// two-phase fast paths below genuinely pipeline (a submitted
    /// request leaves no later than the first collect of the fan-out,
    /// and the worker computes while other channels are collected), so
    /// `submit_*` calls followed by collects overlap all the round
    /// trips. The default `false` keeps in-process channels on the
    /// borrowing one-shot fast paths, which are allocation-free for
    /// them — this observable property, not a user switch, is what
    /// [`crate::ShardedChannel`] picks its scatter-gather mode by.
    fn pipelines(&self) -> bool {
        false
    }

    /// Two-phase [`Channel::snapshot_into`]: start the
    /// [`Request::GetParticles`] round trip.
    fn submit_snapshot(&mut self) {
        self.submit(Request::GetParticles)
    }

    /// Finish a [`Channel::submit_snapshot`]; same result and
    /// accounting as the one-shot `snapshot_into`.
    fn collect_snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        match self.collect() {
            Response::Particles(p) => {
                *out = p;
                true
            }
            _ => false,
        }
    }

    /// Two-phase [`Channel::kick_slice`]: start the [`Request::Kick`]
    /// round trip.
    fn submit_kick_slice(&mut self, dv: &[[f64; 3]]) {
        self.submit(Request::Kick(dv.to_vec()))
    }

    /// Finish a [`Channel::submit_kick_slice`].
    fn collect_kick(&mut self) -> Response {
        self.collect()
    }

    /// Two-phase [`Channel::compute_kick_into`]: start the
    /// [`Request::ComputeKick`] round trip.
    fn submit_compute_kick(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
    ) {
        self.submit(Request::ComputeKick {
            targets: targets.to_vec(),
            source_pos: source_pos.to_vec(),
            source_mass: source_mass.to_vec(),
        })
    }

    /// Finish a [`Channel::submit_compute_kick`]; same result and
    /// accounting as the one-shot `compute_kick_into`.
    fn collect_accelerations_into(&mut self, out: &mut Vec<[f64; 3]>) -> Option<f64> {
        match self.collect() {
            Response::Accelerations { acc, flops } => {
                *out = acc;
                Some(flops)
            }
            _ => None,
        }
    }
}

fn account(stats: &mut ChannelStats, req_bytes: u64, resp: &Response) {
    stats.calls += 1;
    stats.bytes_out += req_bytes;
    stats.bytes_in += resp.wire_size();
    stats.flops += resp.flops();
}

/// The in-process channel: requests execute immediately on the caller's
/// thread. `submit`/`collect` still work (they just buffer the response),
/// so bridge code is oblivious to the channel kind.
pub struct LocalChannel {
    worker: Box<dyn ModelWorker>,
    stats: ChannelStats,
    pending: Option<Response>,
}

impl LocalChannel {
    /// Wrap a worker.
    pub fn new(worker: Box<dyn ModelWorker>) -> LocalChannel {
        LocalChannel { worker, stats: ChannelStats::default(), pending: None }
    }
}

impl Channel for LocalChannel {
    fn call(&mut self, req: Request) -> Response {
        let rb = req.wire_size();
        let resp = self.worker.handle(req);
        account(&mut self.stats, rb, &resp);
        resp
    }

    fn submit(&mut self, req: Request) {
        assert!(self.pending.is_none(), "one outstanding call per channel");
        let resp = self.call(req);
        self.pending = Some(resp);
    }

    fn collect(&mut self) -> Response {
        self.pending.take().expect("no outstanding call")
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn worker_name(&self) -> String {
        self.worker.name()
    }

    fn snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        if self.worker.snapshot_into(out) {
            // account exactly like the Request::GetParticles round trip
            self.stats.calls += 1;
            self.stats.bytes_out += Request::GetParticles.wire_size();
            self.stats.bytes_in += out.wire_size() + 32;
            true
        } else {
            match self.call(Request::GetParticles) {
                Response::Particles(p) => {
                    *out = p;
                    true
                }
                _ => false,
            }
        }
    }

    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Response {
        match self.worker.kick_slice(dv) {
            Some(flops) => {
                let resp = Response::Ok { flops };
                account(&mut self.stats, 24 * dv.len() as u64 + 32, &resp);
                resp
            }
            None => self.call(Request::Kick(dv.to_vec())),
        }
    }

    fn compute_kick_into(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) -> Option<f64> {
        match self.worker.compute_kick_into(targets, source_pos, source_mass, out) {
            Some(flops) => {
                self.stats.calls += 1;
                self.stats.bytes_out += 24 * (targets.len() + source_pos.len()) as u64
                    + 8 * source_mass.len() as u64
                    + 32;
                self.stats.bytes_in += 24 * out.len() as u64 + 32;
                self.stats.flops += flops;
                Some(flops)
            }
            None => match self.call(Request::ComputeKick {
                targets: targets.to_vec(),
                source_pos: source_pos.to_vec(),
                source_mass: source_mass.to_vec(),
            }) {
                Response::Accelerations { acc, flops } => {
                    *out = acc;
                    Some(flops)
                }
                _ => None,
            },
        }
    }
}

enum ThreadMsg {
    Call(Request),
    Shutdown,
}

/// A worker on its own OS thread. Requests travel over crossbeam channels;
/// `submit`/`collect` give true overlap (the paper's parallel evolve of
/// gas and gravity on different resources).
pub struct ThreadChannel {
    tx: xchan::Sender<ThreadMsg>,
    rx: xchan::Receiver<Response>,
    stats: ChannelStats,
    pending_bytes: Option<u64>,
    name: String,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ThreadChannel {
    /// Spawn a worker thread. The factory runs *on the worker thread* so
    /// non-Send kernels still work.
    pub fn spawn<F, W>(name: impl Into<String>, factory: F) -> ThreadChannel
    where
        F: FnOnce() -> W + Send + 'static,
        W: ModelWorker + 'static,
    {
        let (tx, rx_req) = xchan::unbounded::<ThreadMsg>();
        let (tx_resp, rx) = xchan::unbounded::<Response>();
        let name = name.into();
        let handle = std::thread::Builder::new()
            .name(format!("worker-{name}"))
            .spawn(move || {
                let mut worker = factory();
                while let Ok(msg) = rx_req.recv() {
                    match msg {
                        ThreadMsg::Call(req) => {
                            let stop = matches!(req, Request::Stop | Request::Shutdown);
                            let resp = worker.handle(req);
                            if tx_resp.send(resp).is_err() || stop {
                                break;
                            }
                        }
                        ThreadMsg::Shutdown => break,
                    }
                }
            })
            .expect("spawn worker thread");
        ThreadChannel {
            tx,
            rx,
            stats: ChannelStats::default(),
            pending_bytes: None,
            name,
            handle: Some(handle),
        }
    }
}

impl Channel for ThreadChannel {
    fn call(&mut self, req: Request) -> Response {
        self.submit(req);
        self.collect()
    }

    fn submit(&mut self, req: Request) {
        assert!(self.pending_bytes.is_none(), "one outstanding call per channel");
        self.pending_bytes = Some(req.wire_size());
        self.tx.send(ThreadMsg::Call(req)).expect("worker thread alive");
    }

    fn collect(&mut self) -> Response {
        let rb = self.pending_bytes.take().expect("no outstanding call");
        let resp = self.rx.recv().expect("worker thread alive");
        account(&mut self.stats, rb, &resp);
        resp
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn worker_name(&self) -> String {
        self.name.clone()
    }
}

impl Drop for ThreadChannel {
    fn drop(&mut self) {
        let _ = self.tx.send(ThreadMsg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{GravityWorker, StellarWorker};
    use jc_nbody::plummer::plummer_sphere;
    use jc_nbody::Backend;

    #[test]
    fn local_channel_sync_and_async() {
        let mut c =
            LocalChannel::new(Box::new(GravityWorker::new(plummer_sphere(8, 1), Backend::Scalar)));
        assert!(matches!(c.call(Request::Ping), Response::Ok { .. }));
        c.submit(Request::GetParticles);
        match c.collect() {
            Response::Particles(p) => assert_eq!(p.mass.len(), 8),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().calls, 2);
        assert!(c.stats().bytes_in > 0);
    }

    #[test]
    fn thread_channel_runs_worker_remotely() {
        let mut c = ThreadChannel::spawn("sse", || StellarWorker::new(vec![1.0, 9.0], 0.02));
        match c.call(Request::EvolveStars(10.0)) {
            Response::StellarUpdate { masses, .. } => assert_eq!(masses.len(), 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.worker_name(), "sse");
    }

    #[test]
    fn thread_channels_overlap() {
        // two slow workers; total wall time must be near max, not sum
        struct Sleepy;
        impl ModelWorker for Sleepy {
            fn handle(&mut self, _req: Request) -> Response {
                std::thread::sleep(std::time::Duration::from_millis(120));
                Response::Ok { flops: 0.0 }
            }
            fn name(&self) -> String {
                "sleepy".into()
            }
        }
        let mut a = ThreadChannel::spawn("a", || Sleepy);
        let mut b = ThreadChannel::spawn("b", || Sleepy);
        let t0 = std::time::Instant::now();
        a.submit(Request::Ping);
        b.submit(Request::Ping);
        let _ = a.collect();
        let _ = b.collect();
        let el = t0.elapsed();
        assert!(el.as_millis() < 220, "parallel overlap: {el:?}");
    }

    #[test]
    #[should_panic]
    fn double_submit_panics() {
        let mut c =
            LocalChannel::new(Box::new(GravityWorker::new(plummer_sphere(4, 2), Backend::Scalar)));
        c.submit(Request::Ping);
        c.submit(Request::Ping);
    }
}
