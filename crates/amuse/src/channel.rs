//! Channels: how the coupler talks to workers.
//!
//! "AMUSE communicates with workers using a channel, in an RPC-like method.
//! Both synchronous and asynchronous calls are supported. The default
//! channel uses MPI [...] however, a channel based on sockets is also
//! available. For this paper, we added an Ibis channel" (§4.1). As in
//! AMUSE, the protocol is written once and only the transport under it
//! changes: a [`ClientCore`] speaks [`crate::wire`] frames over any
//! [`Link`] that carries them.
//!
//! * [`LocalChannel`] — the client core over the worker's own
//!   [`ServerCore`] in the caller (stands in for the MPI channel's
//!   same-machine case): every request is encoded, served and decoded
//!   as over TCP, with no socket and no thread.
//! * [`crate::ReactorChannel`] — the same client core over a TCP
//!   connection of a [`crate::Reactor`] (the socket channel).
//! * [`ThreadChannel`] — worker runs on its own OS thread behind
//!   `std::sync::mpsc` queues, carrying [`Request`] values, not frames:
//!   the codec-free reference the frame path is tested against.
//! * The Ibis channel, `jc_core::IbisChannel`, is the same client core
//!   over a simulated link: its frames cross `jc_netsim`'s jungle to a
//!   proxy that serves them through the worker's [`ServerCore`].

use crate::host::{self, owned_compute_kick, ServerCore};
use crate::wire::{self, WireError};
use crate::worker::{ModelWorker, ParticleData, Request, Response};
use std::sync::mpsc;

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
///   overrides a pair to skip the copies ([`ClientCore`] encodes from
///   and decodes into them, in process and over TCP alike) with the
///   same result and the same accounting as the generic request. The
///   bridge's hot loop is `submit_snapshot`/`collect_snapshot_into`,
///   `submit_step`/`collect_step_into`,
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
    /// alive; a poisoned [`crate::ReactorChannel`] reports `false`
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
    /// kicks and the evolve, and the stepped positions are in `out.pos`.
    /// Velocities and masses are not sent: `out.vel` is left empty and
    /// `out.mass` as it was (the masses of the mass epoch). Anything else
    /// is what the worker answered instead.
    fn collect_step_into(&mut self, out: &mut ParticleData) -> Response {
        stepped_into(self.collect(), out)
    }

    /// Start a [`Request::ComputeField`] round trip from borrowed sets
    /// (their velocity columns are not looked at). With `prime` the
    /// sets' masses travel and prime the host for a new mass epoch;
    /// without, only positions travel (the mass columns are not looked
    /// at either) and the host evaluates against the masses it holds. It
    /// is finished by [`Channel::collect_accelerations_into`]: the star
    /// range's accelerations, then the gas range's.
    fn submit_field(
        &mut self,
        stars: &ParticleData,
        gas: &ParticleData,
        prime: bool,
        star_range: (usize, usize),
        gas_range: (usize, usize),
    ) {
        self.submit(Request::ComputeField {
            star_pos: stars.pos.clone(),
            gas_pos: gas.pos.clone(),
            masses: prime.then(|| (stars.mass.clone(), gas.mass.clone())),
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
/// [`Response::Stepped`] moves its positions into `out` and becomes `Ok`.
pub(crate) fn stepped_into(resp: Response, out: &mut ParticleData) -> Response {
    match resp {
        Response::Stepped { pos, flops } => {
            out.pos = pos;
            out.vel.clear();
            Response::Ok { flops }
        }
        other => other,
    }
}

/// What carries a [`ClientCore`]'s frames: each request frame to the
/// worker, the reply frame back. In process the worker's own
/// [`ServerCore`] is the link; over TCP it is a
/// [`crate::reactor::ReactorLink`]; across the simulated jungle it is
/// `jc_core`'s `SimLink`. The link only moves bytes: the codec, stamping,
/// the one-outstanding rule and the accounting are the core's.
pub trait Link {
    /// Lend the link's frame buffer to `write`, which fills it with a
    /// whole request, and start that frame toward the worker.
    fn send(&mut self, write: impl FnOnce(&mut Vec<u8>));

    /// Start a request frame given in parts toward the worker. The
    /// default encodes it into the link's frame buffer through
    /// [`Link::send`]; a link that can write the parts where they lie
    /// overrides it.
    fn send_frame(&mut self, frame: &wire::Frame<'_>) {
        self.send(|buf| frame.encode(buf));
    }

    /// Does this link need its requests stamped with sequence numbers? A
    /// link that may resend a frame does (the server deduplicates by the
    /// stamp), and so does one that matches replies by it; the default
    /// says yes. An unstamped request carries seq 0.
    fn stamps(&self) -> bool {
        true
    }

    /// Finish the round trip [`Link::send`] started and hand the reply
    /// frame to `read`. Each transient fault absorbed in place on the way
    /// ticks `retries`. `Err` is the failure the call surfaces and
    /// whether the request frame left (its bytes count as sent then).
    fn recv<T>(
        &mut self,
        retries: &mut u64,
        read: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, (WireError, bool)>;

    /// The worker's display name.
    fn name(&self) -> String;

    /// See [`Channel::set_deadline`]; a link that never retries has no
    /// use for it.
    fn set_deadline(&mut self, _deadline_ms: u64) {}

    /// See [`Channel::pipelines`].
    fn pipelines(&self) -> bool {
        false
    }
}

/// The client half of the protocol, written once for every [`Link`].
///
/// An owned [`Request`] is encoded straight into the link's frame
/// buffer; the step, kick and field legs hand the link their frame in
/// parts, borrowing the caller's columns ([`Link::send_frame`]). On a
/// link that [`Link::stamps`], each request carries the next sequence
/// number. A reply is decoded out of the link's buffer (into the
/// caller's buffers on the typed legs), and a reply of another kind than
/// a typed leg expects is surfaced as what the worker said.
/// [`ChannelStats`] are booked from the frames' actual lengths, so a
/// warm round trip through the typed legs allocates nothing client-side.
///
/// A request the wire cannot frame — columns of different lengths — is
/// refused before it is encoded, with the answer its host or worker
/// gives the owned request. A refused call books nothing.
pub struct ClientCore<L> {
    pub(crate) link: L,
    stats: ChannelStats,
    /// The outstanding call: its request frame's length, or its refusal.
    pending: Option<Result<u64, Response>>,
    /// Sequence stamp of the most recent stamped frame (wraps past
    /// `u16::MAX`, skipping the unsequenced 0). A resend reuses it, which
    /// is what lets the server deduplicate.
    pub(crate) seq: u16,
}

impl<L: Link> ClientCore<L> {
    /// A client over `link`.
    pub fn over(link: L) -> ClientCore<L> {
        ClientCore { link, stats: ChannelStats::default(), pending: None, seq: 0 }
    }

    /// The next request's stamp: the next nonzero sequence number on a
    /// link that needs stamps, the unsequenced 0 on one that does not.
    fn next_seq(&mut self) -> u16 {
        if !self.link.stamps() {
            return 0;
        }
        self.seq = if self.seq == u16::MAX { 1 } else { self.seq + 1 };
        self.seq
    }

    /// Encode a request with `encode`, stamp it and send it.
    // jc-lint: no-alloc
    fn submit_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        assert!(self.pending.is_none(), "one outstanding call per channel");
        let (seq, mut len) = (self.next_seq(), 0);
        self.link.send(|frame| {
            encode(frame);
            wire::set_seq(frame, seq);
            len = frame.len() as u64;
        });
        self.pending = Some(Ok(len));
    }

    /// Stamp a request given in parts and send it.
    // jc-lint: no-alloc
    fn submit_frame(&mut self, mut frame: wire::Frame<'_>) {
        assert!(self.pending.is_none(), "one outstanding call per channel");
        frame.stamp(self.next_seq());
        self.link.send_frame(&frame);
        self.pending = Some(Ok(frame.wire_len() as u64));
    }

    /// Submit a refusal instead of a request: nothing is sent, and the
    /// collect surfaces `refusal`.
    fn refuse(&mut self, refusal: Response) {
        assert!(self.pending.is_none(), "one outstanding call per channel");
        self.pending = Some(Err(refusal));
    }

    /// Finish the outstanding call and decode its reply with `decode`, a
    /// typed leg's decoder or [`wire::decode_response`], booking the
    /// `flops` of what it decoded. A valid frame of another kind than
    /// `decode` expects comes back as the owned response it carries.
    // jc-lint: no-alloc
    // the error is the response the caller surfaces, moved once
    #[allow(clippy::result_large_err)]
    fn collect_with<T>(
        &mut self,
        decode: impl FnOnce(&[u8]) -> Result<T, WireError>,
        flops: impl FnOnce(&T) -> f64,
    ) -> Result<T, Response> {
        let sent_bytes = self.pending.take().expect("no outstanding call")?;
        let stats = &mut self.stats;
        stats.calls += 1;
        let (retries, bytes_in) = (&mut stats.retries, &mut stats.bytes_in);
        let (sent, answer) = match self.link.recv(retries, |frame| {
            *bytes_in += frame.len() as u64;
            decode(frame).map_err(|e| match e {
                WireError::Unexpected(_) => {
                    wire::decode_response(frame).unwrap_or_else(wire_failure)
                }
                e => wire_failure(e),
            })
        }) {
            Ok(answer) => (true, answer),
            Err((e, sent)) => (sent, Err(wire_failure(e))),
        };
        if sent {
            stats.bytes_out += sent_bytes;
        }
        stats.flops += match &answer {
            Ok(decoded) => flops(decoded),
            Err(other) => other.flops(),
        };
        answer
    }
}

/// The failed call's answer.
fn wire_failure(e: WireError) -> Response {
    Response::Error(format!("wire error: {e}"))
}

impl<L: Link> Channel for ClientCore<L> {
    fn submit(&mut self, req: Request) {
        match host::check_columns(&req) {
            Ok(()) => self.submit_with(|buf| wire::encode_request(&req, buf)),
            Err(refusal) => self.refuse(refusal),
        }
    }

    fn collect(&mut self) -> Response {
        self.collect_with(wire::decode_response, Response::flops).unwrap_or_else(|other| other)
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn worker_name(&self) -> String {
        self.link.name()
    }

    fn set_deadline(&mut self, deadline_ms: u64) {
        self.link.set_deadline(deadline_ms);
    }

    fn pipelines(&self) -> bool {
        self.link.pipelines()
    }

    // jc-lint: no-alloc
    fn submit_snapshot(&mut self) {
        self.submit_with(|buf| wire::encode_simple_request(wire::op::GET_PARTICLES, buf));
    }

    // jc-lint: no-alloc
    fn collect_snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        self.collect_with(|frame| wire::decode_particles_into(frame, out), |_| 0.0).is_ok()
    }

    // jc-lint: no-alloc
    fn submit_kick_slice(&mut self, dv: &[[f64; 3]]) {
        self.submit_frame(wire::kick_frame(dv));
    }

    // jc-lint: no-alloc
    fn collect_kick(&mut self) -> Response {
        let answer = self.collect_with(wire::decode_ok, |&flops| flops);
        answer.map_or_else(|other| other, |flops| Response::Ok { flops })
    }

    // jc-lint: no-alloc
    fn submit_step(&mut self, dv: &[[f64; 3]], n: u32, t: f64) {
        self.submit_frame(wire::step_frame(dv, n, t));
    }

    // jc-lint: no-alloc
    fn collect_step_into(&mut self, out: &mut ParticleData) -> Response {
        let answer =
            self.collect_with(|frame| wire::decode_stepped_into(frame, &mut out.pos), |&f| f);
        answer.map_or_else(
            |other| other,
            |flops| {
                out.vel.clear();
                Response::Ok { flops }
            },
        )
    }

    // jc-lint: no-alloc
    fn submit_field(
        &mut self,
        stars: &ParticleData,
        gas: &ParticleData,
        prime: bool,
        star_range: (usize, usize),
        gas_range: (usize, usize),
    ) {
        let (star_pos, gas_pos) = (&stars.pos[..], &gas.pos[..]);
        let masses = prime.then_some((&stars.mass[..], &gas.mass[..]));
        if let Some((star_mass, gas_mass)) = masses {
            if let Err(refusal) = host::check_sets((star_pos, star_mass), (gas_pos, gas_mass)) {
                return self.refuse(refusal);
            }
        }
        self.submit_frame(wire::compute_field_frame(
            star_pos, gas_pos, masses, star_range, gas_range,
        ));
    }

    // jc-lint: no-alloc
    fn collect_accelerations_into(&mut self, out: &mut Vec<[f64; 3]>) -> Option<f64> {
        self.collect_with(|frame| wire::decode_accelerations_into(frame, out), |&f| f).ok()
    }
}

/// The in-process channel: the client core over the worker's own
/// [`ServerCore`], in the caller. A request is encoded and served inside
/// its `submit*` leg and the reply decoded inside the `collect*` leg —
/// the TCP client's frames and the server's fast paths, with no socket,
/// no thread and nothing to retry.
pub type LocalChannel = ClientCore<ServerCore<'static, Box<dyn ModelWorker>>>;

impl LocalChannel {
    /// Wrap a worker.
    pub fn new(worker: Box<dyn ModelWorker>) -> LocalChannel {
        ClientCore::over(ServerCore::with_worker(worker, None))
    }
}

enum ThreadMsg {
    Call(Request),
    Shutdown,
}

/// A worker on its own OS thread. Requests travel over `mpsc` channels
/// as values, never encoded, and are booked at their modeled
/// `wire_size` — the codec-free reference [`LocalChannel`]'s frames are
/// tested against. `submit`/`collect` give true overlap (the paper's
/// parallel evolve of gas and gravity on different resources).
pub struct ThreadChannel {
    tx: mpsc::Sender<ThreadMsg>,
    rx: mpsc::Receiver<Response>,
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
        let (tx, rx_req) = mpsc::channel::<ThreadMsg>();
        let (tx_resp, rx) = mpsc::channel::<Response>();
        let name = name.into();
        let handle = std::thread::Builder::new()
            .name(format!("worker-{name}"))
            .spawn(move || {
                let mut worker = factory();
                let mut field = host::FieldSets::default();
                while let Ok(msg) = rx_req.recv() {
                    match msg {
                        ThreadMsg::Call(req) => {
                            let stop = matches!(req, Request::Stop | Request::Shutdown);
                            let resp = host::serve(&mut worker, &mut field, req);
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
        self.stats.calls += 1;
        self.stats.bytes_out += rb;
        self.stats.bytes_in += resp.wire_size();
        self.stats.flops += resp.flops();
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
            (Response::Stepped { pos, flops }, Response::Ok { flops: f }) => {
                assert_eq!((pos, flops), (stepped.pos, f));
                assert!(stepped.vel.is_empty(), "a step answers no velocities");
                assert!(stepped.mass.is_empty(), "nor masses: the held ones stay");
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
        // the priming request, then a mass-free one
        for prime in [true, false] {
            by_legs.submit_field(&stars, &gas, prime, star_range, gas_range);
            let got = by_legs.collect_accelerations_into(&mut acc);
            match by_call.call(Request::ComputeField {
                star_pos: stars.pos.clone(),
                gas_pos: gas.pos.clone(),
                masses: prime.then(|| (stars.mass.clone(), gas.mass.clone())),
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
        }
        assert_eq!(by_legs.stats().calls, 6);
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

    /// The same worker behind the frame path and behind the value path.
    fn frames_and_values<W: ModelWorker + 'static>(make: fn() -> W) -> [Box<dyn Channel>; 2] {
        [Box::new(LocalChannel::new(Box::new(make()))), Box::new(ThreadChannel::spawn("ref", make))]
    }

    #[test]
    fn local_frames_match_the_thread_reference_bitwise() {
        use crate::worker::{CouplingWorker, HydroWorker};
        let grav = || GravityWorker::new(plummer_sphere(6, 3), Backend::Scalar);
        let dv: Vec<[f64; 3]> = (0..6).map(|i| [1e-3 * i as f64, -2e-4, 5e-4]).collect();
        let (stars, gas) = (plummer_sphere(5, 4), plummer_sphere(7, 5));
        let set = |p: &jc_nbody::ParticleSet| ParticleData {
            mass: p.mass.clone(),
            pos: p.pos.clone(),
            vel: vec![],
        };
        let (star_set, gas_set) = (set(&stars), set(&gas));
        // every request kind by `call`, each to a worker that serves it,
        // plus an `Unsupported` and an `Error` answer
        let scripts = [
            (
                vec![
                    Request::Ping,
                    Request::GetParticles,
                    Request::Kick(dv.clone()),
                    Request::SetMasses(vec![0.2; 6]),
                    Request::EvolveTo(0.01),
                    Request::Step { dv: dv.clone(), n: 1, t: 0.02 },
                    Request::Step { dv: dv.clone(), n: 2, t: 0.03 },
                    Request::EvolveStars(1.0),
                    Request::Kick(vec![[0.0; 3]; 5]),
                ],
                frames_and_values(grav),
            ),
            (
                vec![
                    owned_compute_kick(&gas.pos, &stars.pos, &stars.mass),
                    Request::ComputeField {
                        star_pos: stars.pos.clone(),
                        gas_pos: gas.pos.clone(),
                        masses: Some((stars.mass.clone(), gas.mass.clone())),
                        star_range: (1, 5),
                        gas_range: (0, 6),
                    },
                    Request::ComputeField {
                        star_pos: stars.pos.clone(),
                        gas_pos: gas.pos.clone(),
                        masses: None,
                        star_range: (0, 5),
                        gas_range: (2, 7),
                    },
                ],
                frames_and_values(CouplingWorker::fi),
            ),
            (
                vec![Request::EvolveStars(12.0)],
                frames_and_values(|| StellarWorker::new(vec![1.0, 9.0, 30.0], 0.02)),
            ),
            (
                vec![
                    Request::InjectEnergy { center: [0.0; 3], radius: 0.5, energy: 1e-3 },
                    Request::AddGas { pos: [0.1, 0.0, 0.0], mass: 1e-3, u: 0.05 },
                ],
                frames_and_values(|| HydroWorker::new(jc_sph::particles::plummer_gas(12, 1.0, 6))),
            ),
        ];
        for (requests, channels) in scripts {
            let transcripts = channels.map(|mut ch| {
                let mut said: Vec<String> = Vec::new();
                for req in requests.clone() {
                    said.push(format!("{:?}", ch.call(req)));
                }
                // a state round trip: what was saved loads back
                let state = ch.call(Request::SaveState);
                said.push(format!("{state:?}"));
                if let Response::State(s) = state {
                    said.push(format!("{:?}", ch.call(Request::LoadState(s))));
                }
                // and the typed legs, whatever the worker makes of them
                let mut p = ParticleData::default();
                let ok = ch.snapshot_into(&mut p);
                said.push(format!("{ok} {p:?}"));
                said.push(format!("{:?}", ch.kick_slice(&dv)));
                for n in [1, 2] {
                    ch.submit_step(&dv, n, 0.04 * n as f64);
                    let r = ch.collect_step_into(&mut p);
                    said.push(format!("{r:?} {p:?}"));
                }
                let mut acc = Vec::new();
                let f = ch.compute_kick_into(&gas.pos, &stars.pos, &stars.mass, &mut acc);
                said.push(format!("{f:?} {acc:?}"));
                // the load above began a new epoch: mass-free is refused
                // until a priming request
                for prime in [false, true, false] {
                    ch.submit_field(&star_set, &gas_set, prime, (0, 5), (2, 7));
                    let f = ch.collect_accelerations_into(&mut acc);
                    said.push(format!("{f:?} {acc:?}"));
                }
                (said, ch.stats())
            });
            let [(frames, frame_books), (values, value_books)] = transcripts;
            assert_eq!(frames, values, "the frame path answers what the value path does");
            assert_eq!(frame_books, value_books, "and books the same bytes, calls and flops");
            assert_eq!(frame_books.retries, 0);
        }
    }

    #[test]
    fn ragged_requests_are_refused_alike_on_every_channel() {
        use crate::checkpoint::ModelState;
        use crate::worker::CouplingWorker;
        let (addr, server) = crate::socket::spawn_tcp_worker("fi", CouplingWorker::fi);
        let reactor = crate::reactor::Reactor::new_shared().unwrap();
        let local =
            || -> Box<dyn Channel> { Box::new(LocalChannel::new(Box::new(CouplingWorker::fi()))) };
        let channels: [Box<dyn Channel>; 3] = [
            local(),
            Box::new(crate::ReactorChannel::connect(&reactor, addr, "fi").unwrap()),
            Box::new(crate::ShardedChannel::with_counts(vec![local(), local()], Vec::new())),
        ];
        // columns of different lengths: no frame can carry them
        let (stars, gas) = (plummer_sphere(4, 1), plummer_sphere(3, 2));
        let ragged = ParticleData { mass: stars.mass[..3].to_vec(), pos: stars.pos, vel: vec![] };
        let gas = ParticleData { mass: gas.mass, pos: gas.pos, vel: vec![] };
        let requests = || {
            [
                Request::ComputeField {
                    star_pos: ragged.pos.clone(),
                    gas_pos: gas.pos.clone(),
                    masses: Some((ragged.mass.clone(), gas.mass.clone())),
                    star_range: (0, 3),
                    gas_range: (0, 3),
                },
                Request::ComputeKick {
                    targets: gas.pos.clone(),
                    source_pos: ragged.pos.clone(),
                    source_mass: ragged.mass.clone(),
                },
                Request::LoadState(ModelState::Gravity {
                    time: 0.0,
                    mass: ragged.mass.clone(),
                    pos: ragged.pos.clone(),
                    vel: vec![[0.0; 3]; 3],
                }),
            ]
        };
        let answers = requests().map(|req| match req {
            Request::ComputeKick { .. } => "source arrays length mismatch",
            Request::LoadState(_) => "ragged gravity state",
            _ => "field set arrays length mismatch",
        });
        for mut ch in channels {
            for (req, answer) in requests().into_iter().zip(answers) {
                let r = ch.call(req);
                assert!(matches!(&r, Response::Error(e) if e == answer), "{r:?}");
            }
            let mut acc = vec![[1.0; 3]];
            ch.submit_field(&ragged, &gas, true, (0, 3), (0, 3));
            assert_eq!(ch.collect_accelerations_into(&mut acc), None);
            assert_eq!(ch.compute_kick_into(&gas.pos, &ragged.pos, &ragged.mass, &mut acc), None);
            assert_eq!(ch.stats(), ChannelStats::default(), "a refusal books nothing");
            assert!(matches!(ch.call(Request::Ping), Response::Ok { .. }), "still usable");
        }
        server.join().unwrap().unwrap();
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
        c.submit_field(&set(&scene), &set(&scene), true, (0, 5), (2, 5));
        assert!(matches!(c.collect(), Response::Accelerations { acc, .. } if acc.len() == 8));
        let mut g =
            LocalChannel::new(Box::new(GravityWorker::new(plummer_sphere(8, 1), Backend::Scalar)));
        g.submit_snapshot();
        assert!(matches!(g.collect(), Response::Particles(p) if p.mass.len() == 8));
        g.submit_step(&[[1e-3; 3]; 8], 1, 0.01);
        assert!(matches!(g.collect(), Response::Stepped { pos, .. } if pos.len() == 8));
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
