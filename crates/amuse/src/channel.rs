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

use crate::host::{self, owned_compute_kick};
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
/// One rule: **two-phase is the primitive.** Every operation is a
/// `submit*` that starts a round trip and the matching `collect*` that
/// finishes it; at most one may be outstanding per channel (AMUSE's
/// per-worker request pipeline is depth-1 too). A channel implements
/// [`Channel::submit`], [`Channel::collect`], [`Channel::stats`] and
/// [`Channel::worker_name`]; everything else is provided.
///
/// * [`Channel::call`] and the one-shots ([`Channel::snapshot_into`],
///   [`Channel::kick_slice`], [`Channel::compute_kick_into`]) are sugar —
///   a submit collected at once. No channel overrides them, so wrapping
///   or instrumenting a channel means covering the two-phase legs only.
/// * The typed legs are the generic legs over borrowed slices. They
///   default to the generic legs with owned payloads; a channel
///   overrides a pair to skip the copies ([`LocalChannel`] hands the
///   slices to its worker, the TCP channels encode from and decode
///   into them) with the same result and the same accounting as the
///   generic request. The bridge's hot loop is `submit_snapshot`/
///   `collect_snapshot_into`, `submit_step`/`collect_step_into`,
///   `submit_field`/`collect_accelerations_into` and
///   `submit_kick_slice`/`collect_kick`, and those are the pairs the
///   channels override; `submit_compute_kick` is the provided default
///   everywhere.
/// * [`Channel::pipelines`] only *reports* whether submitted requests
///   overlap; no code path is selected on it.
pub trait Channel {
    /// Start a call.
    fn submit(&mut self, req: Request);
    /// Wait for the outstanding call.
    fn collect(&mut self) -> Response;
    /// Accounting.
    fn stats(&self) -> ChannelStats;
    /// Worker name.
    fn worker_name(&self) -> String;

    /// Synchronous call: a submit collected at once.
    fn call(&mut self, req: Request) -> Response {
        self.submit(req);
        self.collect()
    }

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
        self.submit_snapshot();
        self.collect_snapshot_into(out)
    }

    /// Apply velocity kicks from a borrowed slice. Counts as one
    /// [`Request::Kick`] call in the stats.
    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Response {
        self.submit_kick_slice(dv);
        self.collect_kick()
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
        self.submit_compute_kick(targets, source_pos, source_mass);
        self.collect_accelerations_into(out)
    }

    /// Does this channel overlap in-flight requests? `true` means a
    /// submitted request leaves no later than the first collect of a
    /// fan-out and the worker computes while other channels are
    /// collected, so K submits followed by K collects cost one round
    /// trip, not K. In-process channels do their work inside `submit*`
    /// and report `false`. A read-only property: every fan-out
    /// scatters then gathers regardless.
    fn pipelines(&self) -> bool {
        false
    }

    /// Start a [`Request::GetParticles`] round trip.
    fn submit_snapshot(&mut self) {
        self.submit(Request::GetParticles)
    }

    /// Finish a [`Channel::submit_snapshot`] into `out`.
    fn collect_snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        match self.collect() {
            Response::Particles(p) => {
                *out = p;
                true
            }
            _ => false,
        }
    }

    /// Start a [`Request::Kick`] round trip from a borrowed slice.
    fn submit_kick_slice(&mut self, dv: &[[f64; 3]]) {
        self.submit(Request::Kick(dv.to_vec()))
    }

    /// Finish a [`Channel::submit_kick_slice`].
    fn collect_kick(&mut self) -> Response {
        self.collect()
    }

    /// Start a [`Request::Step`] round trip from a borrowed half-kick.
    fn submit_step(&mut self, dv: &[[f64; 3]], n: u32, t: f64) {
        self.submit(Request::Step { dv: dv.to_vec(), n, t })
    }

    /// Finish a [`Channel::submit_step`]: `Ok` carries the flops of the
    /// kicks and the evolve, and the stepped masses and positions are in
    /// `out` (velocities are not sent: `out.vel` is left empty). Anything
    /// else is what the worker answered instead.
    fn collect_step_into(&mut self, out: &mut ParticleData) -> Response {
        stepped_into(self.collect(), out)
    }

    /// Start a [`Request::ComputeField`] round trip from borrowed sets
    /// (their velocity columns are not looked at). It is finished by
    /// [`Channel::collect_accelerations_into`]: the star range's
    /// accelerations, then the gas range's.
    fn submit_field(
        &mut self,
        stars: &ParticleData,
        gas: &ParticleData,
        star_range: (usize, usize),
        gas_range: (usize, usize),
    ) {
        self.submit(Request::ComputeField {
            star_pos: stars.pos.clone(),
            star_mass: stars.mass.clone(),
            gas_pos: gas.pos.clone(),
            gas_mass: gas.mass.clone(),
            star_range,
            gas_range,
        })
    }

    /// Start a [`Request::ComputeKick`] round trip from borrowed slices.
    fn submit_compute_kick(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
    ) {
        self.submit(owned_compute_kick(targets, source_pos, source_mass))
    }

    /// Finish a round trip answered by [`Response::Accelerations`]
    /// ([`Channel::submit_field`], [`Channel::submit_compute_kick`]) into
    /// `out` (cleared and refilled); the modeled flops, or `None` on
    /// failure.
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

/// What [`Channel::collect_step_into`] makes of an owned response: a
/// [`Response::Stepped`] moves its columns into `out` and becomes `Ok`.
pub(crate) fn stepped_into(resp: Response, out: &mut ParticleData) -> Response {
    match resp {
        Response::Stepped { mass, pos, flops } => {
            out.mass = mass;
            out.pos = pos;
            out.vel.clear();
            Response::Ok { flops }
        }
        other => other,
    }
}

fn account(stats: &mut ChannelStats, req_bytes: u64, resp: &Response) {
    stats.calls += 1;
    stats.bytes_out += req_bytes;
    stats.bytes_in += resp.wire_size();
    stats.flops += resp.flops();
}

/// What a [`LocalChannel`] holds between a submit and its collect.
enum Parked {
    /// The finished (and accounted) response.
    Response(Response),
    /// A snapshot, taken when it is collected — straight into the
    /// collector's buffer.
    Snapshot,
    /// Accelerations, computed and accounted, waiting in
    /// `LocalChannel::acc` with these modeled flops.
    Accelerations(f64),
    /// A step whose kicks and evolve ran (these flops, this many request
    /// bytes); the answer's columns are copied, and the round trip
    /// accounted, when it is collected — straight into the collector's
    /// buffer.
    Stepped(f64, u64),
}

/// The in-process channel: the worker lives in the caller, so a request
/// executes inside its `submit*` leg (a snapshot inside its collect) and
/// the result is parked until collected. Requests reach the worker
/// through [`crate::host`]; the typed legs hand borrowed slices straight
/// to its borrowed entry points and book exactly what the equivalent
/// [`Request`] would have, so a warm in-process bridge step allocates
/// nothing; a worker that declines a borrowed leg gets the owned request
/// through [`ModelWorker::handle`] instead.
pub struct LocalChannel {
    worker: Box<dyn ModelWorker>,
    stats: ChannelStats,
    pending: Option<Parked>,
    /// Where `submit_field` parks its accelerations;
    /// `collect_accelerations_into` swaps it with the caller's buffer.
    acc: Vec<[f64; 3]>,
    /// Staging for the second half of a field (see [`host::field_into`]).
    tmp: Vec<[f64; 3]>,
}

impl LocalChannel {
    /// Wrap a worker.
    pub fn new(worker: Box<dyn ModelWorker>) -> LocalChannel {
        LocalChannel {
            worker,
            stats: ChannelStats::default(),
            pending: None,
            acc: Vec::new(),
            tmp: Vec::new(),
        }
    }

    /// Every submit leg starts here: one call may be outstanding.
    fn assert_idle(&self) {
        assert!(self.pending.is_none(), "one outstanding call per channel");
    }

    /// One accounted round trip through [`host::serve`].
    fn roundtrip(&mut self, req: Request) -> Response {
        let rb = req.wire_size();
        let resp = host::serve(self.worker.as_mut(), req);
        account(&mut self.stats, rb, &resp);
        resp
    }

    /// Finish a parked step: copy the answer's columns into `out` and
    /// account the round trip like the `Request::Step` it stands for.
    // jc-lint: no-alloc
    fn finish_step(&mut self, flops: f64, req_bytes: u64, out: &mut ParticleData) -> Response {
        match host::positions_into(self.worker.as_mut(), out) {
            Ok(()) => {
                self.stats.calls += 1;
                self.stats.bytes_out += req_bytes;
                self.stats.bytes_in += 32 * out.mass.len() as u64 + 32;
                self.stats.flops += flops;
                Response::Ok { flops }
            }
            Err(resp) => {
                account(&mut self.stats, req_bytes, &resp);
                resp
            }
        }
    }
}

impl Channel for LocalChannel {
    fn submit(&mut self, req: Request) {
        self.assert_idle();
        self.pending = Some(Parked::Response(self.roundtrip(req)));
    }

    fn collect(&mut self) -> Response {
        match self.pending.take().expect("no outstanding call") {
            Parked::Response(resp) => resp,
            Parked::Snapshot => self.roundtrip(Request::GetParticles),
            Parked::Accelerations(flops) => {
                Response::Accelerations { acc: std::mem::take(&mut self.acc), flops }
            }
            Parked::Stepped(flops, req_bytes) => {
                let mut p = ParticleData::default();
                match self.finish_step(flops, req_bytes, &mut p) {
                    Response::Ok { flops } => Response::Stepped { mass: p.mass, pos: p.pos, flops },
                    other => other,
                }
            }
        }
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn worker_name(&self) -> String {
        self.worker.name()
    }

    // jc-lint: no-alloc
    fn submit_snapshot(&mut self) {
        self.assert_idle();
        self.pending = Some(Parked::Snapshot);
    }

    // jc-lint: no-alloc
    fn collect_snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        let resp = match self.pending.take().expect("no outstanding call") {
            Parked::Snapshot if self.worker.snapshot_into(out) => {
                // account exactly like the Request::GetParticles round trip
                self.stats.calls += 1;
                self.stats.bytes_out += Request::GetParticles.wire_size();
                self.stats.bytes_in += out.wire_size() + 32;
                return true;
            }
            // cold path: the worker declined the borrowed leg
            Parked::Snapshot => self.roundtrip(Request::GetParticles),
            Parked::Response(resp) => resp,
            Parked::Accelerations(_) | Parked::Stepped(..) => return false,
        };
        match resp {
            Response::Particles(p) => {
                *out = p;
                true
            }
            _ => false,
        }
    }

    // jc-lint: no-alloc
    fn submit_kick_slice(&mut self, dv: &[[f64; 3]]) {
        self.assert_idle();
        let resp = match self.worker.kick_slice(dv) {
            Some(flops) => {
                let resp = Response::Ok { flops };
                account(&mut self.stats, 24 * dv.len() as u64 + 32, &resp);
                resp
            }
            // jc-lint: allow(no-alloc): cold path — the worker declined the borrowed leg
            None => self.roundtrip(Request::Kick(dv.to_vec())),
        };
        self.pending = Some(Parked::Response(resp));
    }

    // jc-lint: no-alloc
    fn submit_step(&mut self, dv: &[[f64; 3]], n: u32, t: f64) {
        self.assert_idle();
        let req_bytes = 24 * dv.len() as u64 + 8 + 32;
        self.pending = Some(match host::step(self.worker.as_mut(), dv, n, t) {
            Ok(flops) => Parked::Stepped(flops, req_bytes),
            Err(resp) => {
                account(&mut self.stats, req_bytes, &resp);
                Parked::Response(resp)
            }
        });
    }

    // jc-lint: no-alloc
    fn collect_step_into(&mut self, out: &mut ParticleData) -> Response {
        match self.pending.take().expect("no outstanding call") {
            Parked::Stepped(flops, req_bytes) => self.finish_step(flops, req_bytes, out),
            other => {
                self.pending = Some(other);
                // jc-lint: allow(no-alloc): cold path — a generic submit or a refused step
                stepped_into(self.collect(), out)
            }
        }
    }

    // jc-lint: no-alloc
    fn submit_field(
        &mut self,
        stars: &ParticleData,
        gas: &ParticleData,
        star_range: (usize, usize),
        gas_range: (usize, usize),
    ) {
        self.assert_idle();
        let req_bytes = 24 * (stars.pos.len() + gas.pos.len()) as u64
            + 8 * (stars.mass.len() + gas.mass.len()) as u64
            + 32
            + 32;
        let (acc, tmp) = (&mut self.acc, &mut self.tmp);
        let answer = host::field_into(
            self.worker.as_mut(),
            (&stars.pos, &stars.mass),
            (&gas.pos, &gas.mass),
            star_range,
            gas_range,
            acc,
            tmp,
        );
        self.pending = Some(match answer {
            Ok(flops) => {
                self.stats.calls += 1;
                self.stats.bytes_out += req_bytes;
                self.stats.bytes_in += 24 * self.acc.len() as u64 + 32;
                self.stats.flops += flops;
                Parked::Accelerations(flops)
            }
            Err(resp) => {
                account(&mut self.stats, req_bytes, &resp);
                Parked::Response(resp)
            }
        });
    }

    // jc-lint: no-alloc
    fn collect_accelerations_into(&mut self, out: &mut Vec<[f64; 3]>) -> Option<f64> {
        match self.pending.take().expect("no outstanding call") {
            Parked::Accelerations(flops) => {
                std::mem::swap(out, &mut self.acc);
                Some(flops)
            }
            Parked::Response(Response::Accelerations { acc, flops }) => {
                *out = acc;
                Some(flops)
            }
            _ => None,
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
                            let resp = host::serve(&mut worker, req);
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
    use crate::host::tests::HandleOnly;
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

    /// The typed ops through `call(Request::..)` on `by_call` and
    /// through the two-phase legs on `by_legs`: same data, same books.
    fn legs_match_call(mut by_call: LocalChannel, mut by_legs: LocalChannel, n: usize) {
        let same_books = |a: &LocalChannel, b: &LocalChannel, op: &str| {
            assert_eq!(a.stats(), b.stats(), "{op}: accounting diverged");
        };
        let scene = plummer_sphere(n.max(3), 4);
        let dv = vec![[1e-4, -2e-4, 3e-4]; n];

        by_legs.submit_kick_slice(&dv);
        let (a, b) = (by_call.call(Request::Kick(dv)), by_legs.collect_kick());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        same_books(&by_call, &by_legs, "kick");

        let mut snap = ParticleData::default();
        by_legs.submit_snapshot();
        let got = by_legs.collect_snapshot_into(&mut snap);
        match by_call.call(Request::GetParticles) {
            Response::Particles(p) => {
                assert!(got);
                assert_eq!((p.mass, p.pos, p.vel), (snap.mass, snap.pos, snap.vel));
            }
            _ => assert!(!got),
        }
        same_books(&by_call, &by_legs, "snapshot");

        let mut acc = vec![[9.0; 3]; 2];
        by_legs.submit_compute_kick(&scene.pos, &scene.pos, &scene.mass);
        let got = by_legs.collect_accelerations_into(&mut acc);
        match by_call.call(Request::ComputeKick {
            targets: scene.pos.clone(),
            source_pos: scene.pos.clone(),
            source_mass: scene.mass.clone(),
        }) {
            Response::Accelerations { acc: expected, flops } => {
                assert_eq!(got, Some(flops));
                assert_eq!(acc, expected);
            }
            _ => assert_eq!(got, None),
        }
        same_books(&by_call, &by_legs, "compute-kick");

        // a step: refused by a stateless worker, the same either way
        let dv = vec![[1e-4, -2e-4, 3e-4]; n];
        let mut stepped = ParticleData { vel: vec![[7.0; 3]], ..ParticleData::default() };
        by_legs.submit_step(&dv, 2, 0.01);
        let got = by_legs.collect_step_into(&mut stepped);
        match (by_call.call(Request::Step { dv, n: 2, t: 0.01 }), got) {
            (Response::Stepped { mass, pos, flops }, Response::Ok { flops: f }) => {
                assert_eq!((mass, pos, flops), (stepped.mass, stepped.pos, f));
                assert!(stepped.vel.is_empty(), "a step answers no velocities");
            }
            (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
        }
        same_books(&by_call, &by_legs, "step");

        // a field: refused by a dynamics worker, the same either way
        let set = |p: &jc_nbody::ParticleSet| ParticleData {
            mass: p.mass.clone(),
            pos: p.pos.clone(),
            vel: vec![],
        };
        let (stars, gas) = (set(&scene), set(&plummer_sphere(5, 6)));
        let (star_range, gas_range) = ((1, stars.mass.len()), (0, 4));
        by_legs.submit_field(&stars, &gas, star_range, gas_range);
        let got = by_legs.collect_accelerations_into(&mut acc);
        match by_call.call(Request::ComputeField {
            star_pos: stars.pos,
            star_mass: stars.mass,
            gas_pos: gas.pos,
            gas_mass: gas.mass,
            star_range,
            gas_range,
        }) {
            Response::Accelerations { acc: expected, flops } => {
                assert_eq!(got, Some(flops));
                assert_eq!(acc, expected);
            }
            _ => assert_eq!(got, None),
        }
        same_books(&by_call, &by_legs, "field");
        assert_eq!(by_legs.stats().calls, 5);
    }

    #[test]
    fn local_two_phase_legs_match_call_in_data_and_accounting() {
        use crate::worker::CouplingWorker;
        let local = |w: Box<dyn ModelWorker>| LocalChannel::new(w);
        let grav = || GravityWorker::new(plummer_sphere(8, 1), Backend::Scalar);
        // borrowed legs, the same workers without them, and mixed
        legs_match_call(local(Box::new(grav())), local(Box::new(grav())), 8);
        legs_match_call(
            local(Box::new(HandleOnly(grav()))),
            local(Box::new(HandleOnly(grav()))),
            8,
        );
        legs_match_call(local(Box::new(grav())), local(Box::new(HandleOnly(grav()))), 8);
        let fi = CouplingWorker::fi;
        legs_match_call(local(Box::new(fi())), local(Box::new(fi())), 0);
        legs_match_call(local(Box::new(HandleOnly(fi()))), local(Box::new(HandleOnly(fi()))), 0);
        legs_match_call(local(Box::new(fi())), local(Box::new(HandleOnly(fi()))), 0);
    }

    #[test]
    fn local_generic_collect_finishes_a_typed_submit() {
        // a wrapper may pair any submit leg with the generic collect
        let mut c = LocalChannel::new(Box::new(crate::worker::CouplingWorker::fi()));
        let scene = plummer_sphere(5, 2);
        c.submit_compute_kick(&scene.pos, &scene.pos, &scene.mass);
        assert!(matches!(c.collect(), Response::Accelerations { acc, .. } if acc.len() == 5));
        let set = |p: &jc_nbody::ParticleSet| ParticleData {
            mass: p.mass.clone(),
            pos: p.pos.clone(),
            vel: vec![],
        };
        c.submit_field(&set(&scene), &set(&scene), (0, 5), (2, 5));
        assert!(matches!(c.collect(), Response::Accelerations { acc, .. } if acc.len() == 8));
        let mut g =
            LocalChannel::new(Box::new(GravityWorker::new(plummer_sphere(8, 1), Backend::Scalar)));
        g.submit_snapshot();
        assert!(matches!(g.collect(), Response::Particles(p) if p.mass.len() == 8));
        g.submit_step(&[[1e-3; 3]; 8], 1, 0.01);
        assert!(matches!(g.collect(), Response::Stepped { mass, .. } if mass.len() == 8));
        // and the other way round: a typed collect finishes a generic submit
        g.submit(Request::Step { dv: vec![[1e-3; 3]; 8], n: 1, t: 0.02 });
        let mut out = ParticleData::default();
        assert!(matches!(g.collect_step_into(&mut out), Response::Ok { .. }));
        assert_eq!(out.pos.len(), 8);
        assert_eq!((c.stats().calls, g.stats().calls), (2, 3));
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
