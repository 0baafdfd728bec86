//! What a worker's *host* does with a request.
//!
//! A [`ModelWorker`] is one kernel behind six methods. Whatever hosts
//! it — a [`ServerCore`] (in the caller behind [`crate::LocalChannel`],
//! behind TCP in [`crate::WorkerServer`], behind `jc_core`'s simulated
//! proxy), or [`crate::ThreadChannel`]'s thread — hands it requests
//! through this module, and the two composite requests of the bridge's
//! substep are decomposed here, once, into those six methods:
//!
//! * [`Request::Step`] = `n` × [`ModelWorker::kick_slice`], then
//!   `handle(EvolveTo)`, then the particle columns
//!   ([`ModelWorker::particles`] / [`ModelWorker::snapshot_into`]);
//! * [`Request::ComputeField`] = two
//!   [`ModelWorker::compute_kick_into`] evaluations, gas on stars first.
//!
//! So a worker never sees a composite, every kernel is called exactly
//! as the six separate round trips called it — same arguments, same
//! order, same f64 results — and a worker that declines a borrowed
//! method gets the owned request through `handle` instead, as the
//! channels have always done. [`ServerCore`] is the host that speaks
//! frames, in process (as a [`Link`]), behind TCP and in the simulated
//! jungle alike.
//!
//! # What a host holds
//!
//! Besides its worker, a host holds one thing for the bridge: the masses
//! of its last *priming* field request, in [`FieldSets`]. A
//! [`Request::ComputeField`] that carries masses replaces them; one that
//! carries positions only is evaluated against them. The host refuses a
//! mass-free request with a typed [`Response::Error`] — never a field —
//! when it holds no masses (a fresh or respawned host, or one that
//! served a [`Request::LoadState`] since, which begins a new epoch) or
//! masses of another shape than the request's positions. Which masses
//! belong to which epoch is the bridge's business: it primes at every
//! cold open ([`crate::bridge`]).

// `Err(Response)` throughout: the error *is* the frame the host answers
// with, moved once on the cold path — boxing it would buy nothing.
#![allow(clippy::result_large_err)]

use crate::channel::Link;
use crate::wire::{self, WireError};
use crate::worker::{ModelWorker, ParticleColumns, ParticleData, Request, Response};
use std::ops::DerefMut;
use std::sync::atomic::{AtomicI64, Ordering};

/// Execute one request on `worker`, whose host holds `field`:
/// composites are decomposed, anything else is the worker's own
/// business.
pub fn serve(worker: &mut dyn ModelWorker, field: &mut FieldSets, req: Request) -> Response {
    match req {
        Request::Step { dv, n, t } => {
            let flops = match step(worker, &dv, n, t) {
                Ok(flops) => flops,
                Err(resp) => return resp,
            };
            match particles(worker, &mut ParticleData::default()) {
                Ok((_, pos, _)) => Response::Stepped { pos: pos.to_vec(), flops },
                Err(resp) => resp,
            }
        }
        Request::ComputeField { star_pos, gas_pos, masses, star_range, gas_range } => {
            // ragged masses are refused as a client refuses them, and
            // prime nothing
            if let Some((star_mass, gas_mass)) = &masses {
                if let Err(refusal) = check_sets((&star_pos, star_mass), (&gas_pos, gas_mass)) {
                    return refusal;
                }
            }
            let primes = masses.is_some();
            if let Some((star_mass, gas_mass)) = masses {
                field.prime(star_mass, gas_mass);
            }
            let at = wire::FieldTargets { star_range, gas_range, primes };
            let request = wire::FieldView { star_pos: &star_pos, gas_pos: &gas_pos, at };
            let (mut acc, mut tmp) = (Vec::new(), Vec::new());
            match field.evaluate(worker, &request, &mut acc, &mut tmp) {
                Ok(flops) => Response::Accelerations { acc, flops },
                Err(resp) => resp,
            }
        }
        Request::LoadState(state) => {
            field.forget();
            worker.handle(Request::LoadState(state))
        }
        other => worker.handle(other),
    }
}

/// A host's field state: the masses of its last priming
/// [`Request::ComputeField`] (see the module docs). The positions of a
/// field request are read where the request holds them.
#[derive(Default)]
pub struct FieldSets {
    /// Star masses of the epoch.
    star_mass: Vec<f64>,
    /// Likewise the gas.
    gas_mass: Vec<f64>,
    /// The mass columns hold a priming request's masses.
    primed: bool,
}

impl FieldSets {
    /// Hold the masses of a new mass epoch.
    fn prime(&mut self, star_mass: Vec<f64>, gas_mass: Vec<f64>) {
        self.star_mass = star_mass;
        self.gas_mass = gas_mass;
        self.primed = true;
    }

    /// Drop the held masses: the next field request must prime.
    fn forget(&mut self) {
        self.primed = false;
        self.star_mass.clear();
        self.gas_mass.clear();
    }

    /// Read a field request frame: its positions in place (see
    /// [`wire::view_compute_field`]), and its masses into these sets when
    /// it primes.
    // jc-lint: no-alloc
    fn view<'a>(
        &mut self,
        frame: &'a [u8],
        scratch: &'a mut [Vec<[f64; 3]>; 2],
    ) -> Result<wire::FieldView<'a>, WireError> {
        let view =
            wire::view_compute_field(frame, scratch, (&mut self.star_mass, &mut self.gas_mass))?;
        self.primed |= view.at.primes;
        Ok(view)
    }

    /// The evaluation of a [`Request::ComputeField`] at its positions
    /// with the held masses: the accelerations of `stars[star_range]`
    /// due to all gas land in `out`, followed by those of
    /// `gas[gas_range]` due to all stars (`tmp` stages the second
    /// evaluation). `Ok` carries the summed flops; `Err` is the typed
    /// refusal of a host that holds no masses, or masses of another
    /// shape, or of ranges outside the sets, or what the worker answered
    /// instead of accelerations.
    // jc-lint: no-alloc
    fn evaluate(
        &self,
        worker: &mut dyn ModelWorker,
        request: &wire::FieldView<'_>,
        out: &mut Vec<[f64; 3]>,
        tmp: &mut Vec<[f64; 3]>,
    ) -> Result<f64, Response> {
        let (star_pos, gas_pos) = (request.star_pos, request.gas_pos);
        let (star_range, gas_range) = (request.at.star_range, request.at.gas_range);
        if !self.primed {
            // jc-lint: allow(no-alloc): cold path — an unprimed host
            return Err(Response::Error(
                "mass-free field request, but this host holds no masses: prime it first".into(),
            ));
        }
        if star_pos.len() != self.star_mass.len() || gas_pos.len() != self.gas_mass.len() {
            // jc-lint: allow(no-alloc): cold path — masses of another epoch's shape
            return Err(Response::Error(format!(
                "field request for {} stars, {} gas, but this host holds masses for {} stars, {} gas",
                star_pos.len(),
                gas_pos.len(),
                self.star_mass.len(),
                self.gas_mass.len()
            )));
        }
        check_ranges(star_pos, gas_pos, star_range, gas_range)?;
        let (stars, gas) = ((star_pos, &self.star_mass[..]), (gas_pos, &self.gas_mass[..]));
        // gas pulls on stars, then stars pull on gas
        let star_flops = kick_into(worker, &stars.0[star_range.0..star_range.1], gas, out)?;
        let gas_flops = kick_into(worker, &gas.0[gas_range.0..gas_range.1], stars, tmp)?;
        out.extend_from_slice(tmp);
        Ok(star_flops + gas_flops)
    }
}

/// The mutating half of a [`Request::Step`]: `dv` added `n` times, one
/// addition per application, then the evolve to `t`. `Ok` carries the
/// summed flops; `Err` is what the worker answered instead of `Ok`, or
/// the refusal of an `n` outside {1, 2} (nothing was applied then).
// jc-lint: no-alloc
pub fn step(
    worker: &mut dyn ModelWorker,
    dv: &[[f64; 3]],
    n: u32,
    t: f64,
) -> Result<f64, Response> {
    if !(1..=2).contains(&n) {
        // jc-lint: allow(no-alloc): cold path — a malformed request
        return Err(Response::Error(format!("step applies its kick 1 or 2 times, not {n}")));
    }
    let mut flops = 0.0;
    for _ in 0..n {
        flops += kick(worker, dv)?;
    }
    match worker.handle(Request::EvolveTo(t)) {
        Response::Ok { flops: f } => Ok(flops + f),
        other => Err(other),
    }
}

/// One [`Request::Kick`]: [`ModelWorker::kick_slice`], or the owned
/// request for a worker without it. `Err` is what the worker answered
/// instead of `Ok`.
// jc-lint: no-alloc
fn kick(worker: &mut dyn ModelWorker, dv: &[[f64; 3]]) -> Result<f64, Response> {
    if let Some(flops) = worker.kick_slice(dv) {
        return Ok(flops);
    }
    // jc-lint: allow(no-alloc): cold path — the worker declined the borrowed leg
    match worker.handle(Request::Kick(dv.to_vec())) {
        Response::Ok { flops } => Ok(flops),
        other => Err(other),
    }
}

/// The worker's particle columns: lent in place when it implements
/// [`ModelWorker::particles`], through `scratch` otherwise. `Err` is
/// what the worker answered to `GetParticles` instead of particles.
// jc-lint: no-alloc
pub fn particles<'a>(
    worker: &'a mut dyn ModelWorker,
    scratch: &'a mut ParticleData,
) -> Result<ParticleColumns<'a>, Response> {
    if worker.particles().is_none() && !worker.snapshot_into(scratch) {
        match worker.handle(Request::GetParticles) {
            Response::Particles(p) => *scratch = p,
            other => return Err(other),
        }
    }
    Ok(worker.particles().unwrap_or((&scratch.mass, &scratch.pos, &scratch.vel)))
}

/// Borrowed `(positions, masses)` of one particle set.
pub type FieldSet<'a> = (&'a [[f64; 3]], &'a [f64]);

/// The typed refusal of a request whose columns disagree in length, the
/// one shape the wire cannot frame (a header counts one column, the
/// payload carries them all). A client refuses it before encoding, with
/// the answer a host or worker gives the owned request.
pub(crate) fn check_columns(req: &Request) -> Result<(), Response> {
    match req {
        Request::ComputeKick { source_pos, source_mass, .. }
            if source_pos.len() != source_mass.len() =>
        {
            Err(Response::Error("source arrays length mismatch".into()))
        }
        Request::ComputeField {
            star_pos, gas_pos, masses: Some((star_mass, gas_mass)), ..
        } => check_sets((star_pos, star_mass), (gas_pos, gas_mass)),
        Request::LoadState(state) => state.check_columns().map_err(Response::Error),
        _ => Ok(()),
    }
}

/// The typed refusal of a priming [`Request::ComputeField`] with ragged
/// sets.
pub(crate) fn check_sets(stars: FieldSet<'_>, gas: FieldSet<'_>) -> Result<(), Response> {
    if stars.0.len() != stars.1.len() || gas.0.len() != gas.1.len() {
        return Err(Response::Error("field set arrays length mismatch".into()));
    }
    Ok(())
}

/// The typed refusal of [`Request::ComputeField`] target ranges reversed
/// or outside the sets' positions.
pub(crate) fn check_ranges(
    star_pos: &[[f64; 3]],
    gas_pos: &[[f64; 3]],
    star_range: (usize, usize),
    gas_range: (usize, usize),
) -> Result<(), Response> {
    let inside = |(a, b): (usize, usize), len: usize| a <= b && b <= len;
    if !inside(star_range, star_pos.len()) || !inside(gas_range, gas_pos.len()) {
        return Err(Response::Error(format!(
            "field target ranges {star_range:?}/{gas_range:?} outside sets of {} stars, {} gas",
            star_pos.len(),
            gas_pos.len()
        )));
    }
    Ok(())
}

/// One direction of the field: [`ModelWorker::compute_kick_into`], or
/// the owned [`Request::ComputeKick`] for a worker without it.
// jc-lint: no-alloc
fn kick_into(
    worker: &mut dyn ModelWorker,
    targets: &[[f64; 3]],
    source: FieldSet<'_>,
    out: &mut Vec<[f64; 3]>,
) -> Result<f64, Response> {
    if let Some(flops) = worker.compute_kick_into(targets, source.0, source.1, out) {
        return Ok(flops);
    }
    // cold path: the worker declined the borrowed leg
    match worker.handle(owned_compute_kick(targets, source.0, source.1)) {
        Response::Accelerations { acc, flops } => {
            *out = acc;
            Ok(flops)
        }
        other => Err(other),
    }
}

/// The owned [`Request::ComputeKick`] of three borrowed slices.
pub(crate) fn owned_compute_kick(
    targets: &[[f64; 3]],
    source_pos: &[[f64; 3]],
    source_mass: &[f64],
) -> Request {
    Request::ComputeKick {
        targets: targets.to_vec(),
        source_pos: source_pos.to_vec(),
        source_mass: source_mass.to_vec(),
    }
}

/// Per-worker idempotency state: the last applied nonzero sequence
/// number, a fingerprint of the exact request frame it was applied
/// for, and, when that request was mutating, the encoded response to
/// replay on a duplicate. Only stamped frames — those of a client that
/// may resend — are recorded. Non-mutating requests are not either:
/// re-executing a pure read of deterministic state yields bit-identical
/// bytes anyway, so caching (possibly megabytes of) snapshot frames
/// would buy nothing. An unstamped mutating request empties the cache:
/// after it changed the state, no earlier frame may be replayed.
///
/// The fingerprint is what makes seq matching sound: this state
/// intentionally outlives connections (a retried frame arrives on a
/// *new* connection) and the 16-bit seq space wraps, so seq equality
/// alone cannot prove the incoming frame is a resend — a fresh channel
/// restarts its numbering at 1 (landing exactly on a stale `last_seq`
/// whenever the previous connection's first request was mutating, e.g.
/// a `Shutdown` or `LoadState` after the prior coupler died), and a
/// long-lived channel reuses a number after 65535 frames. A genuine
/// retry resends the identical bytes (same encode buffer, same stamp),
/// so replay additionally requires the fingerprints to match; a
/// colliding *new* request hashes differently and is applied normally,
/// overwriting the cache.
#[derive(Default)]
struct Dedup {
    last_seq: u16,
    req_fp: u64,
    cached: Vec<u8>,
}

impl Dedup {
    /// Hold no reply to replay.
    fn forget(&mut self) {
        self.last_seq = 0;
        self.cached.clear();
    }
}

/// FNV-1a (64-bit) over a whole request frame — the frame identity the
/// dedup cache keys on alongside `last_seq`. Deterministic and
/// dependency-free; a false replay now needs an accidental 64-bit hash
/// collision on top of a wrapped/reused seq, which is beyond the
/// cooperative failure model here (byte-identical mutating frames that
/// legitimately collide — say, the same `SetMasses` payload exactly
/// 65535 frames apart — remain theoretically indistinguishable from a
/// resend, as they would be under full byte comparison too).
///
/// Folds four independent 8-byte FNV lanes per 32-byte block instead of
/// hashing byte-at-a-time: the hash runs on every mutating request in
/// the worker's serve loop, and the serial `wrapping_mul` dependency
/// chain of single-lane FNV dominated the per-step cost on large kick
/// frames (the four lanes let the multiplies overlap). This is only an
/// in-process cache key — both the compare and the store leg use this
/// same function, so the exact digest values are free to change.
fn frame_fingerprint(frame: &[u8]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [SEED, SEED ^ 1, SEED ^ 2, SEED ^ 3];
    let mut blocks = frame.chunks_exact(32);
    for b in blocks.by_ref() {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane ^= u64::from_le_bytes(b[8 * k..8 * k + 8].try_into().unwrap());
            *lane = lane.wrapping_mul(PRIME);
        }
    }
    let mut h = SEED;
    for &b in blocks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    for lane in lanes {
        h ^= lane;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// What a connection does once [`ServerCore::handle`]'s reply is
/// written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// Read the next request.
    Continue,
    /// Protocol error (or clean disconnect): drop the connection and go
    /// back to `accept`.
    Hangup,
    /// A `Stop`/`Shutdown` asked the whole server to exit.
    ShutDown,
    /// The failure-injection fuse fired: simulated node crash — the
    /// connection is cut with no reply and the server exits.
    Crash,
}

/// Where the reply to the last frame a [`ServerCore`] served lies.
#[derive(Clone, Copy)]
enum Answer {
    /// Encoded in the reply buffer.
    Out,
    /// Encoded in the dedup cache.
    Cached,
    /// A `Particles` frame of the worker's columns.
    Particles,
    /// A `Stepped` frame of the worker's positions, with its flops.
    Stepped(f64),
    /// An `Accelerations` frame of the field scratch, with its flops.
    Accelerations(f64),
}

/// A socket-free worker server: one request frame in, the reply frame
/// and the connection's [`Next`] step out.
///
/// Per frame, in order: the dedup replay of a resent mutating request,
/// decode, the crash fuse, the worker (per-step fast paths or
/// [`serve`]), then the dedup cache. The bulk columns of `Step`, `Kick`
/// and `ComputeField` requests are read in place in the frame when it
/// sits 8-aligned (a frame at the start of a heap buffer does) and
/// copied into scratch otherwise. The bulk replies — `Particles`,
/// `Stepped` and `Accelerations` — go back as a [`wire::Frame`] of
/// columns borrowed where they lie: the worker's
/// ([`ModelWorker::particles`], or a snapshot for a worker that does not
/// lend), or the field's scratch. Every other reply is encoded into the
/// reply buffer, and the reply to a stamped mutating request straight
/// into the dedup cache, to be written from there. Scratch, the reply
/// buffer and the dedup state all live here and are reused, so a warm
/// snapshot/step/field/kick request allocates nothing.
///
/// `W` is how the core holds its worker: borrowed for a
/// [`crate::WorkerServer`]'s serve loop ([`ServerCore::new`]), boxed
/// when a [`crate::LocalChannel`] owns it ([`ServerCore::with_worker`]).
pub struct ServerCore<'a, W = &'a mut dyn ModelWorker> {
    worker: W,
    fuse: Option<&'a AtomicI64>,
    /// Outlives connections on purpose: a coupler that reconnects after
    /// a transient fault resends the same sequence number on the *new*
    /// connection and must still hit the cache.
    dedup: Dedup,
    /// The reply to the last frame handled, when it is encoded here
    /// (empty after a crash).
    out: Vec<u8>,
    /// Where an in-process client writes its request (see [`Link`]).
    inbox: Vec<u8>,
    /// The columns of a worker that does not lend them.
    snap: ParticleData,
    /// The columns of a request frame that cannot be read in place.
    scratch: [Vec<[f64; 3]>; 2],
    /// The held masses.
    field: FieldSets,
    acc: Vec<[f64; 3]>,
    /// Staging for the second half of a field (see [`FieldSets::evaluate`]).
    tmp: Vec<[f64; 3]>,
}

impl<'a> ServerCore<'a> {
    /// A core serving a borrowed `worker`; see
    /// [`crate::WorkerServer::serve_with_fuse`] for `fuse`.
    pub fn new(worker: &'a mut dyn ModelWorker, fuse: Option<&'a AtomicI64>) -> ServerCore<'a> {
        ServerCore::with_worker(worker, fuse)
    }
}

impl<'a, W: DerefMut<Target = dyn ModelWorker + 'a>> ServerCore<'a, W> {
    /// A core serving the worker behind any handle to it.
    pub fn with_worker(worker: W, fuse: Option<&'a AtomicI64>) -> ServerCore<'a, W> {
        ServerCore {
            worker,
            fuse,
            dedup: Dedup::default(),
            out: Vec::new(),
            inbox: Vec::new(),
            snap: ParticleData::default(),
            scratch: [Vec::new(), Vec::new()],
            field: FieldSets::default(),
            acc: Vec::new(),
            tmp: Vec::new(),
        }
    }

    /// The reply the dedup cache holds for a resend.
    #[cfg(test)]
    pub(crate) fn cached_reply(&self) -> &[u8] {
        &self.dedup.cached
    }

    /// The reply to a request that could not be framed or decoded;
    /// the connection then hangs up.
    pub fn protocol_error(&mut self, e: &WireError) -> wire::Frame<'_> {
        wire::encode_response(&Response::Error(format!("protocol error: {e}")), &mut self.out);
        wire::Frame::encoded(&self.out)
    }

    /// Serve one whole request frame: the reply, its bulk columns lent
    /// where they lie, and what the connection does next.
    pub fn handle(&mut self, frame: &[u8]) -> (wire::Frame<'_>, Next) {
        let (answer, next) = self.answer(frame);
        (self.reply(answer), next)
    }

    /// The reply `answer` locates, as a frame.
    fn reply(&self, answer: Answer) -> wire::Frame<'_> {
        let snap = &self.snap;
        let columns = || self.worker.particles().unwrap_or((&snap.mass, &snap.pos, &snap.vel));
        match answer {
            Answer::Out => wire::Frame::encoded(&self.out),
            Answer::Cached => wire::Frame::encoded(&self.dedup.cached),
            Answer::Particles => {
                let (mass, pos, vel) = columns();
                wire::particles_frame(mass, pos, vel)
            }
            Answer::Stepped(flops) => wire::stepped_frame(columns().1, flops),
            Answer::Accelerations(flops) => wire::accelerations_frame(&self.acc, flops),
        }
    }

    /// Serve one whole request frame; where its reply lies.
    fn answer(&mut self, frame: &[u8]) -> (Answer, Next) {
        // Idempotent retry: a duplicate of the last applied mutating
        // request — same nonzero sequence number AND the same frame
        // bytes, i.e. the coupler resent a frame whose response it lost
        // — replays the cached response without re-applying, before the
        // fuse or the worker sees it. The fingerprint check keeps a seq
        // collision from a different channel (or after wrap) from being
        // mistaken for a resend; see `Dedup`.
        let seq = wire::frame_seq(frame);
        if seq != 0
            && seq == self.dedup.last_seq
            && !self.dedup.cached.is_empty()
            && frame_fingerprint(frame) == self.dedup.req_fp
        {
            return (Answer::Cached, Next::Continue);
        }
        // Per-step fast paths: snapshot, kick, step and the coupling
        // field bypass `decode_request`'s owned `Request` and the owned
        // `Response` of `serve`: they read their columns where the frame
        // holds them and answer from the worker's columns. A leg the
        // worker declines answers through the owned types with the exact
        // same frames — byte-for-byte — that a fast-path-less server
        // would produce.
        enum Decoded<'f> {
            Snapshot,
            /// The half-kick.
            Kick(&'f [[f64; 3]]),
            /// The half-kick, its kick count and the target time.
            Step(&'f [[f64; 3]], u32, f64),
            /// The positions (a priming request's masses are in `field`).
            Field(wire::FieldView<'f>),
            Other(Request),
        }
        let scratch = &mut self.scratch;
        let decoded = match frame.get(5).copied() {
            Some(wire::op::GET_PARTICLES) if frame.len() == wire::HEADER_LEN => {
                Ok(Decoded::Snapshot)
            }
            Some(wire::op::KICK) => wire::view_kick(frame, &mut scratch[0]).map(Decoded::Kick),
            Some(wire::op::STEP) => {
                wire::view_step(frame, &mut scratch[0]).map(|(dv, n, t)| Decoded::Step(dv, n, t))
            }
            Some(wire::op::COMPUTE_FIELD) => self.field.view(frame, scratch).map(Decoded::Field),
            _ => wire::decode_request(frame).map(Decoded::Other),
        };
        let decoded = match decoded {
            Ok(d) => d,
            Err(e) => {
                self.protocol_error(&e);
                return (Answer::Out, Next::Hangup);
            }
        };
        if let Some(f) = self.fuse {
            if f.fetch_sub(1, Ordering::SeqCst) <= 0 {
                self.out.clear();
                return (Answer::Out, Next::Crash);
            }
        }
        let mutating = match &decoded {
            Decoded::Kick(_) | Decoded::Step(..) => true,
            Decoded::Snapshot | Decoded::Field(_) => false,
            Decoded::Other(req) => req.mutating(),
        };
        // Cache before the reply leaves: if the write (or the coupler's
        // read of it) fails, the retried frame must find the cache. So a
        // stamped mutating frame's reply is encoded straight into the
        // cache, and written from there. An unstamped mutating frame
        // empties it: no earlier frame may be replayed over the state it
        // changed.
        let cache = seq != 0 && mutating;
        if cache {
            self.dedup.last_seq = seq;
            self.dedup.req_fp = frame_fingerprint(frame);
        } else if mutating {
            self.dedup.forget();
        }
        let (buf, encoded) = if cache {
            (&mut self.dedup.cached, Answer::Cached)
        } else {
            (&mut self.out, Answer::Out)
        };
        let worker: &mut dyn ModelWorker = &mut *self.worker;
        // `Err` is an owned answer, still to be encoded
        let (answer, next) = match decoded {
            Decoded::Snapshot => {
                (particles(worker, &mut self.snap).map(|_| Answer::Particles), Next::Continue)
            }
            Decoded::Kick(dv) => {
                let answer = kick(worker, dv).map(|flops| {
                    wire::encode_ok_frame(flops, buf);
                    encoded
                });
                (answer, Next::Continue)
            }
            Decoded::Step(dv, n, t) => {
                let answer = step(worker, dv, n, t).and_then(|flops| {
                    let (_, pos, _) = particles(worker, &mut self.snap)?;
                    if cache {
                        wire::stepped_frame(pos, flops).encode(buf);
                        return Ok(encoded);
                    }
                    Ok(Answer::Stepped(flops))
                });
                (answer, Next::Continue)
            }
            Decoded::Field(request) => {
                let (acc, tmp) = (&mut self.acc, &mut self.tmp);
                let answer = self.field.evaluate(worker, &request, acc, tmp);
                (answer.map(Answer::Accelerations), Next::Continue)
            }
            Decoded::Other(req) => {
                let next = match req {
                    Request::Stop | Request::Shutdown => Next::ShutDown,
                    _ => Next::Continue,
                };
                (Err(serve(worker, &mut self.field, req)), next)
            }
        };
        let answer = answer.unwrap_or_else(|resp| {
            wire::encode_response(&resp, buf);
            encoded
        });
        (answer, next)
    }
}

/// In process the core is the link: a request is written into its
/// inbox and served as it is sent, and the reply is encoded into the
/// reply buffer and read straight out of it. No byte can be lost on the
/// way, so nothing is ever retried, and no frame is stamped.
impl<'a, W: DerefMut<Target = dyn ModelWorker + 'a>> Link for ServerCore<'a, W> {
    fn send(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let mut frame = std::mem::take(&mut self.inbox);
        write(&mut frame);
        let (answer, _) = self.answer(&frame);
        self.inbox = frame;
        if !matches!(answer, Answer::Out) {
            let mut out = std::mem::take(&mut self.out);
            self.reply(answer).encode(&mut out);
            self.out = out;
        }
    }

    fn recv<T>(
        &mut self,
        _retries: &mut u64,
        read: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, (WireError, bool)> {
        Ok(read(&self.out))
    }

    fn name(&self) -> String {
        self.worker.name()
    }

    /// Nothing is resent in process, so no frame needs a stamp.
    fn stamps(&self) -> bool {
        false
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::worker::{CouplingWorker, GravityWorker};
    use jc_nbody::plummer::plummer_sphere;
    use jc_nbody::Backend;

    /// Forwards only the two required methods: a worker with no
    /// borrowed legs.
    pub(crate) struct HandleOnly<W>(pub(crate) W);

    impl<W: ModelWorker> ModelWorker for HandleOnly<W> {
        fn handle(&mut self, req: Request) -> Response {
            self.0.handle(req)
        }
        fn name(&self) -> String {
            self.0.name()
        }
    }

    /// The bytes of a reply frame.
    fn bytes(reply: &wire::Frame<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        reply.encode(&mut out);
        out
    }

    fn get(w: &mut dyn ModelWorker) -> ParticleData {
        match w.handle(Request::GetParticles) {
            Response::Particles(p) => p,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn step_is_n_kicks_an_evolve_and_the_positions() {
        let grav = || GravityWorker::new(plummer_sphere(12, 3), Backend::CpuParallel);
        let dv: Vec<[f64; 3]> = (0..12).map(|i| [1e-3 * i as f64, -2e-4, 5e-4]).collect();
        for n in [1u32, 2] {
            // the six-method sequence, by hand
            let mut by_hand = grav();
            let mut flops = 0.0;
            for _ in 0..n {
                flops += by_hand.kick_slice(&dv).unwrap();
            }
            match by_hand.handle(Request::EvolveTo(0.03)) {
                Response::Ok { flops: f } => flops += f,
                other => panic!("{other:?}"),
            }
            let want = get(&mut by_hand);

            let with_legs: Box<dyn ModelWorker> = Box::new(grav());
            let without: Box<dyn ModelWorker> = Box::new(HandleOnly(grav()));
            for mut w in [with_legs, without] {
                let step = Request::Step { dv: dv.clone(), n, t: 0.03 };
                match serve(w.as_mut(), &mut FieldSets::default(), step) {
                    Response::Stepped { pos, flops: f } => {
                        assert_eq!(pos, want.pos, "n={n}");
                        assert_eq!(f.to_bits(), flops.to_bits(), "n={n}");
                    }
                    other => panic!("{other:?}"),
                }
                assert_eq!(get(w.as_mut()).vel, want.vel, "n={n}: kicks applied exactly n times");
            }
        }
    }

    #[test]
    fn a_refused_step_applies_nothing() {
        let mut w = GravityWorker::new(plummer_sphere(4, 3), Backend::CpuParallel);
        let before = get(&mut w);
        for (dv, n) in [(vec![[1.0; 3]; 4], 0), (vec![[1.0; 3]; 4], 3), (vec![[1.0; 3]; 3], 1)] {
            let r = serve(&mut w, &mut FieldSets::default(), Request::Step { dv, n, t: 0.5 });
            assert!(matches!(r, Response::Error(_)), "{r:?}");
            let after = get(&mut w);
            assert_eq!((after.pos, after.vel), (before.pos.clone(), before.vel.clone()));
        }
        // a stateless worker has nothing to step
        let step = Request::Step { dv: vec![], n: 1, t: 0.5 };
        let r = serve(&mut CouplingWorker::fi(), &mut FieldSets::default(), step);
        assert!(matches!(r, Response::Unsupported), "{r:?}");
    }

    #[test]
    fn field_is_the_two_compute_kicks_over_the_ranges() {
        let (stars, gas) = (plummer_sphere(9, 1), plummer_sphere(14, 2));
        let kick = |targets: &[[f64; 3]], src: &jc_nbody::ParticleSet| {
            let mut acc = Vec::new();
            let f = CouplingWorker::fi()
                .compute_kick_into(targets, &src.pos, &src.mass, &mut acc)
                .unwrap();
            (acc, f)
        };
        let field = |w: &mut dyn ModelWorker, held: &mut FieldSets, prime: bool, sr, gr| {
            serve(
                w,
                held,
                Request::ComputeField {
                    star_pos: stars.pos.clone(),
                    gas_pos: gas.pos.clone(),
                    masses: prime.then(|| (stars.mass.clone(), gas.mass.clone())),
                    star_range: sr,
                    gas_range: gr,
                },
            )
        };
        for (sr, gr) in [((0, 9), (0, 14)), ((3, 7), (14, 14)), ((0, 0), (5, 6))] {
            let (mut want, fa) = kick(&stars.pos[sr.0..sr.1], &gas);
            let (acc_gas, fb) = kick(&gas.pos[gr.0..gr.1], &stars);
            want.extend(acc_gas);
            let with_legs: Box<dyn ModelWorker> = Box::new(CouplingWorker::fi());
            let without: Box<dyn ModelWorker> = Box::new(HandleOnly(CouplingWorker::fi()));
            for mut w in [with_legs, without] {
                // primed, then against the held masses: the same answer
                let mut held = FieldSets::default();
                for prime in [true, false] {
                    match field(w.as_mut(), &mut held, prime, sr, gr) {
                        Response::Accelerations { acc, flops } => {
                            assert_eq!(acc, want, "{sr:?} {gr:?}");
                            assert_eq!(flops.to_bits(), (fa + fb).to_bits());
                        }
                        other => panic!("{other:?}"),
                    }
                }
            }
        }
        // ranges outside the sets and reversed ranges are refused, typed
        let (mut w, mut held) = (CouplingWorker::fi(), FieldSets::default());
        for prime in [true, false] {
            for (sr, gr) in [((0, 10), (0, 14)), ((0, 9), (13, 15)), ((5, 4), (0, 14))] {
                let r = field(&mut w, &mut held, prime, sr, gr);
                assert!(matches!(r, Response::Error(_)), "{sr:?} {gr:?}: {r:?}");
            }
        }
    }

    /// A request frame's stamp and the dedup state it left behind:
    /// `(seq, last_seq, cached reply bytes)`.
    type Stamped = (u16, u16, usize);

    /// One connection served by a `ServerCore` on its own thread, which
    /// reports what each request frame left ([`Stamped`]).
    fn recording_server() -> (std::net::SocketAddr, std::thread::JoinHandle<Vec<Stamped>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut grav = GravityWorker::new(plummer_sphere(6, 4), Backend::CpuParallel);
            let mut core = ServerCore::new(&mut grav, None);
            let mut decoder = crate::FrameDecoder::new();
            let mut seen = Vec::new();
            while let Ok(Some(_)) = decoder.read_from(&mut stream) {
                let seq = wire::frame_seq(decoder.frame());
                let (reply, next) = core.handle(decoder.frame());
                reply.write_to(&mut stream).unwrap();
                seen.push((seq, core.dedup.last_seq, core.dedup.cached.len()));
                if next != Next::Continue {
                    break;
                }
                decoder.advance();
            }
            seen
        });
        (addr, server)
    }

    #[test]
    fn only_a_retrying_channel_stamps_and_fills_the_dedup_cache() {
        use crate::channel::Channel;
        use crate::chaos::RetryPolicy;
        let dv = vec![[1e-3, -2e-3, 5e-4]; 6];
        // the same mutating calls, typed legs and owned requests alike
        let calls = |ch: &mut crate::ReactorChannel| {
            assert!(matches!(ch.kick_slice(&dv), Response::Ok { .. }));
            ch.submit_step(&dv, 2, 0.01);
            assert!(matches!(
                ch.collect_step_into(&mut ParticleData::default()),
                Response::Ok { .. }
            ));
            assert!(matches!(ch.call(Request::EvolveTo(0.02)), Response::Ok { .. }));
            assert!(matches!(ch.call(Request::GetParticles), Response::Particles(_)));
        };
        let reactor = crate::Reactor::new_shared().unwrap();

        let (addr, server) = recording_server();
        let mut plain = crate::ReactorChannel::connect(&reactor, addr, "plain").unwrap();
        calls(&mut plain);
        drop(plain);
        let seen = server.join().unwrap();
        assert_eq!(seen.len(), 5, "four calls and the Stop: {seen:?}");
        for (i, &(seq, last_seq, cached)) in seen.iter().enumerate() {
            assert_eq!((seq, last_seq, cached), (0, 0, 0), "frame {i}: unstamped, nothing cached");
        }

        let (addr, server) = recording_server();
        let retry = RetryPolicy { backoff_base_ms: 1, ..RetryPolicy::standard(7) };
        let mut retrying =
            crate::ReactorChannel::connect(&reactor, addr, "retrying").unwrap().with_retry(retry);
        calls(&mut retrying);
        drop(retrying);
        let seen = server.join().unwrap();
        let seqs: Vec<u16> = seen.iter().map(|s| s.0).collect();
        assert_eq!(seqs, [1, 2, 3, 4, 0], "each call stamped in turn; the drop's Stop is not");
        for &(seq, last_seq, cached) in &seen[..3] {
            assert_eq!(last_seq, seq, "a stamped mutating frame is cached");
            assert!(cached > 0);
        }
        assert_eq!(seen[3].1, 3, "a read leaves the cache as it was");
    }

    #[test]
    fn an_unstamped_mutating_frame_empties_the_dedup_cache() {
        // kick A stamped 1, kick B unstamped, then A's exact bytes again:
        // B changed the state the cached reply to A answered, so the
        // second A is applied, not replayed
        let (mut a, mut b, mut snapshot) = (Vec::new(), Vec::new(), Vec::new());
        wire::kick_frame(&[[1e-3, -2e-3, 5e-4]; 6]).encode(&mut a);
        wire::kick_frame(&[[-4e-4, 1e-3, 2e-3]; 6]).encode(&mut b);
        wire::encode_simple_request(wire::op::GET_PARTICLES, &mut snapshot);
        let grav = || GravityWorker::new(plummer_sphere(6, 4), Backend::CpuParallel);
        let serve_all = |frames: &[&[u8]]| {
            let mut w = grav();
            let mut core = ServerCore::new(&mut w, None);
            let mut cached = Vec::new();
            for frame in frames {
                assert_eq!(core.handle(frame).1, Next::Continue);
                cached.push((core.dedup.last_seq, core.dedup.cached.len()));
            }
            (bytes(&core.handle(&snapshot).0), cached)
        };
        let mut stamped = a.clone();
        wire::set_seq(&mut stamped, 1);
        let (got, cached) = serve_all(&[&stamped, &b, &stamped]);
        assert_eq!(cached[1], (0, 0), "the unstamped kick emptied the cache");
        let (all_applied, _) = serve_all(&[&a, &b, &a]);
        assert_eq!(got, all_applied, "the second A was applied");
    }

    /// `frame` copied into `store` at `offset` bytes past an 8-aligned
    /// address; the range it occupies there.
    fn placed(frame: &[u8], offset: usize, store: &mut Vec<u8>) -> std::ops::Range<usize> {
        store.clear();
        store.resize(frame.len() + 16, 0);
        let start = store.as_ptr().align_offset(8) + offset;
        store[start..start + frame.len()].copy_from_slice(frame);
        start..start + frame.len()
    }

    /// Serve `frames` (stamped 1, 2, …, so mutating replies go through
    /// the dedup cache), each placed `offset` bytes past an 8-aligned
    /// address, then a snapshot: every reply, and how much column
    /// scratch the core grew.
    fn serve_placed(
        worker: &mut dyn ModelWorker,
        frames: &[Vec<u8>],
        offset: usize,
    ) -> (Vec<Vec<u8>>, usize) {
        let mut core = ServerCore::new(worker, None);
        let (mut store, mut replies) = (Vec::new(), Vec::new());
        let mut snapshot = Vec::new();
        wire::encode_simple_request(wire::op::GET_PARTICLES, &mut snapshot);
        for (seq, frame) in frames.iter().chain([&snapshot]).enumerate() {
            let mut frame = frame.clone();
            wire::set_seq(&mut frame, seq as u16 + 1);
            let at = placed(&frame, offset, &mut store);
            assert_eq!(store[at.clone()].as_ptr().cast::<u64>().is_aligned(), offset == 0);
            let (reply, next) = core.handle(&store[at]);
            assert_eq!(next, Next::Continue);
            replies.push(bytes(&reply));
        }
        (replies, core.scratch.iter().map(Vec::capacity).sum())
    }

    #[test]
    fn a_misaligned_frame_is_answered_as_the_aligned_one_read_in_place() {
        let dv: Vec<[f64; 3]> = (0..7).map(|i| [1e-3 * i as f64, -2e-4, 5e-4]).collect();
        let mut frame = Vec::new();
        let mut dynamics = Vec::new();
        wire::kick_frame(&dv).encode(&mut frame);
        dynamics.push(frame.clone());
        for (k, t) in [(2, 0.01), (1, 0.02)] {
            wire::step_frame(&dv, k, t).encode(&mut frame);
            dynamics.push(frame.clone());
        }
        let (stars, gas) = (plummer_sphere(5, 1), plummer_sphere(6, 2));
        let masses = Some((&stars.mass[..], &gas.mass[..]));
        let mut fields = Vec::new();
        for (masses, sr, gr) in [(masses, (0, 5), (0, 6)), (None, (1, 4), (2, 6))] {
            wire::compute_field_frame(&stars.pos, &gas.pos, masses, sr, gr).encode(&mut frame);
            fields.push(frame.clone());
        }
        fn grav() -> GravityWorker {
            GravityWorker::new(plummer_sphere(7, 3), Backend::CpuParallel)
        }
        // with the borrowed legs, and through `handle` alone
        type Make = fn() -> Box<dyn ModelWorker>;
        let cases: [(Make, &[Vec<u8>]); 4] = [
            (|| Box::new(grav()), &dynamics),
            (|| Box::new(HandleOnly(grav())), &dynamics),
            (|| Box::new(CouplingWorker::fi()), &fields),
            (|| Box::new(HandleOnly(CouplingWorker::fi())), &fields),
        ];
        for (i, (make, frames)) in cases.into_iter().enumerate() {
            let (in_place, scratch) = serve_placed(make().as_mut(), frames, 0);
            assert_eq!(scratch, 0, "case {i}: an aligned frame is read where it landed");
            for offset in [1, 4] {
                let (copied, scratch) = serve_placed(make().as_mut(), frames, offset);
                assert!(scratch > 0, "case {i}: a frame at +{offset} cannot be viewed");
                assert_eq!(copied, in_place, "case {i}: the same replies and state at +{offset}");
            }
        }
    }

    /// A mass-free field request to a host that holds no masses — fresh,
    /// or reloaded since its last priming request — or masses of another
    /// shape is answered with a typed error, never a field: over frames
    /// (`ServerCore`) and over values (`serve`) alike.
    #[test]
    fn a_host_without_the_epochs_masses_refuses_a_mass_free_field() {
        use crate::checkpoint::ModelState;
        let (stars, gas) = (plummer_sphere(6, 1), plummer_sphere(10, 2));
        let request = |stars: &jc_nbody::ParticleSet, prime: bool| Request::ComputeField {
            star_pos: stars.pos.clone(),
            gas_pos: gas.pos.clone(),
            masses: prime.then(|| (stars.mass.clone(), gas.mass.clone())),
            star_range: (0, stars.pos.len()),
            gas_range: (0, 10),
        };
        let fewer = plummer_sphere(5, 1);
        // (request, held masses afterwards answer a field?)
        let script = [
            (request(&stars, false), false),                    // fresh host
            (request(&stars, true), true),                      // primes
            (request(&stars, false), true),                     // evaluated against the held masses
            (request(&fewer, false), false), // another shape than the held masses
            (request(&stars, false), true),  // the held masses survived the refusal
            (Request::LoadState(ModelState::Stateless), false), // a new epoch
            (request(&stars, false), false), // ... forgot them
            (request(&stars, true), true),
        ];
        let mut by_frames = CouplingWorker::fi();
        let mut core = ServerCore::new(&mut by_frames, None);
        let (mut by_values, mut held) = (CouplingWorker::fi(), FieldSets::default());
        let mut frame = Vec::new();
        for (i, (req, answers)) in script.into_iter().enumerate() {
            let field = matches!(req, Request::ComputeField { .. });
            wire::encode_request(&req, &mut frame);
            let framed = wire::decode_response(&bytes(&core.handle(&frame).0)).unwrap();
            let valued = serve(&mut by_values, &mut held, req);
            assert_eq!(format!("{framed:?}"), format!("{valued:?}"), "step {i}");
            match valued {
                Response::Accelerations { .. } => assert!(field && answers, "step {i}"),
                Response::Error(e) => {
                    assert!(field && !answers, "step {i}: {e}");
                    assert!(e.contains("holds"), "step {i}: {e}");
                }
                Response::Ok { .. } => assert!(!field, "step {i}"),
                other => panic!("step {i}: {other:?}"),
            }
        }
        // a ragged priming request (no frame can carry one) is refused
        // as a client refuses it, and primes nothing
        let mut held = FieldSets::default();
        let ragged = Request::ComputeField {
            star_pos: stars.pos.clone(),
            gas_pos: gas.pos.clone(),
            masses: Some((stars.mass[..5].to_vec(), gas.mass.clone())),
            star_range: (0, 6),
            gas_range: (0, 10),
        };
        let r = serve(&mut by_values, &mut held, ragged);
        assert!(
            matches!(&r, Response::Error(e) if e == "field set arrays length mismatch"),
            "{r:?}"
        );
        let r = serve(&mut by_values, &mut held, request(&stars, false));
        assert!(matches!(&r, Response::Error(e) if e.contains("holds no masses")), "{r:?}");
    }

    /// Every bulk reply — `Stepped`, `Particles`, `Accelerations` — is
    /// the owned reply's frame byte for byte, in parts and encoded,
    /// whether the worker lends its columns or answers through `handle`
    /// (the snapshot path). Unstamped, the core copies no column: its
    /// reply buffer and dedup cache stay empty. Stamped, the mutating
    /// step's reply is encoded once, into the cache.
    #[test]
    fn bulk_replies_are_the_owned_replies_frames() {
        let dv: Vec<[f64; 3]> = (0..7).map(|i| [1e-3 * i as f64, -2e-4, 5e-4]).collect();
        let (stars, gas) = (plummer_sphere(5, 1), plummer_sphere(6, 2));
        let requests = [
            Request::Step { dv: dv.clone(), n: 2, t: 0.01 },
            Request::GetParticles,
            Request::ComputeField {
                star_pos: stars.pos.clone(),
                gas_pos: gas.pos.clone(),
                masses: Some((stars.mass.clone(), gas.mass.clone())),
                star_range: (1, 5),
                gas_range: (0, 4),
            },
        ];
        fn grav() -> GravityWorker {
            GravityWorker::new(plummer_sphere(7, 3), Backend::CpuParallel)
        }
        type Make = fn() -> Box<dyn ModelWorker>;
        let cases: [(Make, &Request, u8); 6] = [
            (|| Box::new(grav()), &requests[0], wire::op::RESP_STEPPED),
            (|| Box::new(HandleOnly(grav())), &requests[0], wire::op::RESP_STEPPED),
            (|| Box::new(grav()), &requests[1], wire::op::RESP_PARTICLES),
            (|| Box::new(HandleOnly(grav())), &requests[1], wire::op::RESP_PARTICLES),
            (|| Box::new(CouplingWorker::fi()), &requests[2], wire::op::RESP_ACCELERATIONS),
            (
                || Box::new(HandleOnly(CouplingWorker::fi())),
                &requests[2],
                wire::op::RESP_ACCELERATIONS,
            ),
        ];
        let mut frame = Vec::new();
        for (i, (make, req, opcode)) in cases.into_iter().enumerate() {
            let mut want = Vec::new();
            wire::encode_response(
                &serve(make().as_mut(), &mut FieldSets::default(), req.clone()),
                &mut want,
            );
            assert_eq!(want[5], opcode, "case {i}: the owned reply is the bulk one");
            for seq in [0, 1] {
                let mut worker = make();
                let mut core = ServerCore::new(worker.as_mut(), None);
                wire::encode_request(req, &mut frame);
                wire::set_seq(&mut frame, seq);
                let (reply, next) = core.handle(&frame);
                assert_eq!(next, Next::Continue);
                #[cfg(target_endian = "little")]
                assert_eq!(reply.parts().concat(), want, "case {i}, seq {seq}: the parts");
                assert_eq!(bytes(&reply), want, "case {i}, seq {seq}: encoded");
                let cached = if seq != 0 && req.mutating() { &want[..] } else { &[] };
                assert_eq!(core.dedup.cached, cached, "case {i}, seq {seq}: the cache");
                assert_eq!(
                    core.out.capacity(),
                    0,
                    "case {i}, seq {seq}: no copy into the reply buffer"
                );
            }
        }
    }
}
