//! Tracing from outside the program: spans around every call the
//! coupler makes into a [`Channel`], and busy-time clocks around every
//! call a worker serves.
//!
//! Nothing in the repository is instrumented. [`TracedChannel`] is a
//! benchmark-owned `impl Channel` that forwards all 17 trait methods —
//! including `pipelines`, `set_deadline`, `heal` and every two-phase
//! `submit_*`/`collect_*` — so a [`jc_amuse::ShardedChannel`] above it
//! keeps pipelining and an in-process channel below it keeps its
//! borrowing fast paths. [`TimedWorker`] does the same at the
//! [`ModelWorker`] boundary (all 6 methods), on whichever thread serves
//! the worker, and only adds up nanoseconds.
//!
//! The coupler is one thread, so its spans nest strictly: a span's
//! *self time* is its duration minus the durations of its direct
//! children, and self times over one iteration tree sum to the root
//! span exactly.

use jc_amuse::channel::{Channel, ChannelStats};
use jc_amuse::worker::{ModelWorker, ParticleColumns, ParticleData, Request, Response};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which `Channel` method a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// The benchmark's own span around one `Bridge` iteration.
    Root,
    /// `call`.
    Call,
    /// `submit` / `submit_*`: start a round trip.
    Submit,
    /// `collect` / `collect_*`: wait for a started round trip.
    Collect,
    /// A one-shot fast path: `snapshot_into`, `kick_slice`,
    /// `compute_kick_into`.
    OneShot,
    /// `heal`.
    Heal,
}

/// Which request a span carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// No request (root span, heal).
    None,
    /// `EvolveTo`.
    Evolve,
    /// `EvolveStars`.
    EvolveStars,
    /// `GetParticles`.
    Snapshot,
    /// `Kick`.
    Kick,
    /// `ComputeKick`.
    ComputeKick,
    /// `SetMasses`.
    SetMasses,
    /// `SaveState` / `LoadState`.
    State,
    /// Everything else (`Ping`, feedback injections, teardown).
    Other,
}

impl Op {
    fn of(req: &Request) -> Op {
        match req {
            Request::EvolveTo(_) => Op::Evolve,
            Request::EvolveStars(_) => Op::EvolveStars,
            Request::GetParticles => Op::Snapshot,
            Request::Kick(_) => Op::Kick,
            Request::ComputeKick { .. } => Op::ComputeKick,
            Request::SetMasses(_) => Op::SetMasses,
            Request::SaveState | Request::LoadState(_) => Op::State,
            _ => Op::Other,
        }
    }
}

/// Parent index of a span nobody caused.
pub const NO_PARENT: u32 = u32::MAX;

/// Channel id of the root (iteration) spans.
pub const ROOT_CHAN: u16 = u16::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Method covered.
    pub method: Method,
    /// Request carried.
    pub op: Op,
    /// Which traced channel (index into [`Tracer::chans`]), or
    /// [`ROOT_CHAN`].
    pub chan: u16,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: u32,
    /// The iteration this span belongs to (the shared identifier of one
    /// request tree).
    pub iter: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a traced channel is, for the analysis.
#[derive(Clone, Debug)]
pub struct ChanInfo {
    /// Display label (`gravity`, `coupling/0`, …).
    pub label: String,
    /// Bridge slot this channel serves (0 gravity, 1 hydro, 2 coupling,
    /// 3 stellar).
    pub role: usize,
    /// Sits directly on a transport channel (not on a shard pool).
    pub leaf: bool,
}

/// The in-memory span buffer. Preallocated; when it is full further
/// spans are counted in `dropped` instead of growing the buffer inside
/// a timed region.
pub struct Tracer {
    epoch: Instant,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    iter: u32,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
    /// The traced channels, by id.
    pub chans: Vec<ChanInfo>,
}

/// The handle traced channels share (the coupler is single-threaded).
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A tracer with room for `capacity` spans.
    pub fn shared(capacity: usize) -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            iter: 0,
            dropped: 0,
            chans: Vec::new(),
        }))
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its token for [`Tracer::close`].
    pub fn open(&mut self, chan: u16, method: Method, op: Op) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            method,
            op,
            chan,
            start_ns,
            end_ns: start_ns,
            parent,
            iter: self.iter,
        });
        self.stack.push(idx);
        idx
    }

    /// Close the span `open` returned.
    pub fn close(&mut self, token: u32) {
        if token == NO_PARENT {
            return;
        }
        let end = self.now();
        self.spans[token as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(token), "spans close in LIFO order");
    }

    /// Open the root span of iteration `iter`.
    pub fn open_root(&mut self, iter: u32) -> u32 {
        self.iter = iter;
        self.open(ROOT_CHAN, Method::Root, Op::None)
    }
}

/// Wrap `inner` so every call through it is recorded in `tracer`.
pub fn traced(
    tracer: &SharedTracer,
    inner: Box<dyn Channel>,
    label: impl Into<String>,
    role: usize,
    leaf: bool,
) -> Box<dyn Channel> {
    let mut t = tracer.borrow_mut();
    let id = t.chans.len() as u16;
    t.chans.push(ChanInfo { label: label.into(), role, leaf });
    Box::new(TracedChannel { inner, tracer: Rc::clone(tracer), id, pending: Op::None })
}

/// A [`Channel`] that records a span around every call into `inner`.
pub struct TracedChannel {
    inner: Box<dyn Channel>,
    tracer: SharedTracer,
    id: u16,
    /// Request of the outstanding `submit`, so its `collect` span can
    /// carry the same op.
    pending: Op,
}

impl TracedChannel {
    /// Record a span around `f(inner)`. The tracer borrow is released
    /// while `f` runs: a shard pool below re-enters it for its leaves.
    fn span<R>(&mut self, method: Method, op: Op, f: impl FnOnce(&mut dyn Channel) -> R) -> R {
        let token = self.tracer.borrow_mut().open(self.id, method, op);
        let r = f(self.inner.as_mut());
        self.tracer.borrow_mut().close(token);
        r
    }
}

impl Channel for TracedChannel {
    fn call(&mut self, req: Request) -> Response {
        let op = Op::of(&req);
        self.span(Method::Call, op, |c| c.call(req))
    }

    fn submit(&mut self, req: Request) {
        let op = Op::of(&req);
        self.pending = op;
        self.span(Method::Submit, op, |c| c.submit(req))
    }

    fn collect(&mut self) -> Response {
        let op = self.pending;
        self.span(Method::Collect, op, |c| c.collect())
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }

    fn worker_name(&self) -> String {
        self.inner.worker_name()
    }

    fn heal(&mut self) -> bool {
        self.span(Method::Heal, Op::None, |c| c.heal())
    }

    fn set_deadline(&mut self, deadline_ms: u64) {
        self.inner.set_deadline(deadline_ms)
    }

    fn snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        self.span(Method::OneShot, Op::Snapshot, |c| c.snapshot_into(out))
    }

    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Response {
        self.span(Method::OneShot, Op::Kick, |c| c.kick_slice(dv))
    }

    fn compute_kick_into(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) -> Option<f64> {
        self.span(Method::OneShot, Op::ComputeKick, |c| {
            c.compute_kick_into(targets, source_pos, source_mass, out)
        })
    }

    fn pipelines(&self) -> bool {
        self.inner.pipelines()
    }

    fn submit_snapshot(&mut self) {
        self.span(Method::Submit, Op::Snapshot, |c| c.submit_snapshot())
    }

    fn collect_snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        self.span(Method::Collect, Op::Snapshot, |c| c.collect_snapshot_into(out))
    }

    fn submit_kick_slice(&mut self, dv: &[[f64; 3]]) {
        self.span(Method::Submit, Op::Kick, |c| c.submit_kick_slice(dv))
    }

    fn collect_kick(&mut self) -> Response {
        self.span(Method::Collect, Op::Kick, |c| c.collect_kick())
    }

    fn submit_compute_kick(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
    ) {
        self.span(Method::Submit, Op::ComputeKick, |c| {
            c.submit_compute_kick(targets, source_pos, source_mass)
        })
    }

    fn collect_accelerations_into(&mut self, out: &mut Vec<[f64; 3]>) -> Option<f64> {
        self.span(Method::Collect, Op::ComputeKick, |c| c.collect_accelerations_into(out))
    }
}

/// Busy time of one worker, added up on the thread that serves it.
/// Plain statistics: `Relaxed` is enough, nothing is published through
/// these counters and they are read after the serving threads joined
/// or between blocks when the worker is idle.
#[derive(Debug, Default)]
pub struct WorkerClock {
    /// Nanoseconds inside `EvolveTo` / `EvolveStars`.
    pub evolve_ns: AtomicU64,
    /// Nanoseconds inside `ComputeKick` (either path).
    pub kick_ns: AtomicU64,
    /// Nanoseconds inside every other request.
    pub other_ns: AtomicU64,
}

/// A [`ModelWorker`] that times every request into a [`WorkerClock`]
/// and forwards all six trait methods, so the server's zero-copy
/// snapshot path and the in-process borrowing paths stay in use.
pub struct TimedWorker {
    inner: Box<dyn ModelWorker>,
    clock: Arc<WorkerClock>,
}

impl TimedWorker {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ModelWorker>, clock: Arc<WorkerClock>) -> TimedWorker {
        TimedWorker { inner, clock }
    }

    fn timed<R>(
        &mut self,
        slot: fn(&WorkerClock) -> &AtomicU64,
        f: impl FnOnce(&mut dyn ModelWorker) -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        slot(&self.clock).fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

impl ModelWorker for TimedWorker {
    fn handle(&mut self, req: Request) -> Response {
        let slot: fn(&WorkerClock) -> &AtomicU64 = match req {
            Request::EvolveTo(_) | Request::EvolveStars(_) => |c| &c.evolve_ns,
            Request::ComputeKick { .. } => |c| &c.kick_ns,
            _ => |c| &c.other_ns,
        };
        self.timed(slot, |w| w.handle(req))
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        self.timed(|c| &c.other_ns, |w| w.snapshot_into(out))
    }

    fn particles(&self) -> Option<ParticleColumns<'_>> {
        // a borrow: there is nothing to time (the server's encode of
        // these columns is transport, seen from the coupler side)
        self.inner.particles()
    }

    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Option<f64> {
        self.timed(|c| &c.other_ns, |w| w.kick_slice(dv))
    }

    fn compute_kick_into(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) -> Option<f64> {
        self.timed(|c| &c.kick_ns, |w| w.compute_kick_into(targets, source_pos, source_mass, out))
    }
}

/// Per-iteration layer times derived from the spans (milliseconds).
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Root (iteration) spans analysed.
    pub iterations: usize,
    /// Spans inside those iterations, roots included.
    pub spans: usize,
    /// Mean root span.
    pub iter_ms: f64,
    /// Mean root self time: the coupler's own work between calls.
    pub bridge_self_ms: f64,
    /// Mean time blocked in each role's channel (gravity, hydro,
    /// coupling, stellar).
    pub rpc_ms: [f64; 4],
    /// Mean self time of shard-pool spans: scatter, gather, merge.
    pub shard_self_ms: f64,
    /// Σ per-shard in-flight intervals ÷ Σ pool spans that fanned out.
    pub shard_overlap: f64,
    /// Mean time in leaf `submit*` spans.
    pub leaf_submit_ms: f64,
    /// Mean time in leaf `collect*` spans.
    pub leaf_wait_ms: f64,
    /// Mean time in leaf one-shot and `call` spans.
    pub leaf_call_ms: f64,
    /// Σ self times over all spans ÷ Σ root spans (1.0 by construction
    /// unless spans were dropped or nested wrongly).
    pub self_sum_share: f64,
}

/// Reduce the span buffer to per-iteration layer times. Only spans
/// inside an iteration (a root span among their ancestors) count: the
/// restore, checkpoint and digest calls between blocks are recorded
/// too, but belong to no iteration.
pub fn analyze(t: &Tracer) -> LayerTimes {
    let spans = &t.spans;
    let mut in_iter = vec![false; spans.len()];
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // parents are recorded before their children
        in_iter[i] = s.chan == ROOT_CHAN || (s.parent != NO_PARENT && in_iter[s.parent as usize]);
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur();
        }
    }
    let self_ns = |i: usize| spans[i].dur().saturating_sub(child_ns[i]);

    let mut out = LayerTimes::default();
    let (mut root_ns, mut root_self, mut all_self) = (0u64, 0u64, 0u64);
    let (mut rpc, mut shard_self) = ([0u64; 4], 0u64);
    let (mut submit, mut wait, mut call) = (0u64, 0u64, 0u64);
    // shard overlap: per pool span, each leaf's in-flight interval runs
    // from its first child span's start to its last child span's end
    let (mut inflight, mut pool_ns) = (0u64, 0u64);
    let mut windows: Vec<(u16, u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if !in_iter[i] {
            continue;
        }
        out.spans += 1;
        all_self += self_ns(i);
        if s.chan == ROOT_CHAN {
            out.iterations += 1;
            root_ns += s.dur();
            root_self += self_ns(i);
            continue;
        }
        let info = &t.chans[s.chan as usize];
        if spans[s.parent as usize].chan == ROOT_CHAN {
            rpc[info.role] += s.dur();
        }
        if info.leaf {
            match s.method {
                Method::Submit => submit += s.dur(),
                Method::Collect => wait += s.dur(),
                _ => call += s.dur(),
            }
            continue;
        }
        shard_self += self_ns(i);
        // a pool's children are leaf spans, recorded contiguously after it
        windows.clear();
        for c in spans[i + 1..].iter().take_while(|c| c.parent == i as u32) {
            match windows.iter_mut().find(|w| w.0 == c.chan) {
                Some(w) => w.2 = c.end_ns,
                None => windows.push((c.chan, c.start_ns, c.end_ns)),
            }
        }
        if windows.len() > 1 {
            pool_ns += s.dur();
            inflight += windows.iter().map(|w| w.2 - w.1).sum::<u64>();
        }
    }

    let n = out.iterations.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    out.iter_ms = ms(root_ns);
    out.bridge_self_ms = ms(root_self);
    out.rpc_ms = [ms(rpc[0]), ms(rpc[1]), ms(rpc[2]), ms(rpc[3])];
    out.shard_self_ms = ms(shard_self);
    out.shard_overlap = if pool_ns > 0 { inflight as f64 / pool_ns as f64 } else { 0.0 };
    out.leaf_submit_ms = ms(submit);
    out.leaf_wait_ms = ms(wait);
    out.leaf_call_ms = ms(call);
    out.self_sum_share = if root_ns > 0 { all_self as f64 / root_ns as f64 } else { 0.0 };
    out
}

/// Most spans written to a trace file; the analysis always sees all of
/// them, the file is for reading one stretch of iterations by eye.
const DUMP_LIMIT: usize = 20_000;

/// Render the spans as JSON (`{name, chan, start_ns, end_ns, parent,
/// iter}` per span).
pub fn to_json(t: &Tracer, workload: &str) -> String {
    let mut s = String::with_capacity(64 + 110 * t.spans.len().min(DUMP_LIMIT));
    s.push_str(&format!(
        "{{\"workload\": \"{workload}\", \"recorded\": {}, \"dropped\": {}, \"truncated\": {}, \"spans\": [\n",
        t.spans.len(),
        t.dropped,
        t.spans.len() > DUMP_LIMIT
    ));
    for (i, sp) in t.spans.iter().take(DUMP_LIMIT).enumerate() {
        let chan = if sp.chan == ROOT_CHAN { "bridge" } else { &t.chans[sp.chan as usize].label };
        let parent =
            if sp.parent == NO_PARENT { "null".to_string() } else { sp.parent.to_string() };
        s.push_str(&format!(
            "{}{{\"name\": \"{:?}:{:?}\", \"chan\": \"{chan}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"iter\": {}}}",
            if i == 0 { "" } else { ",\n" },
            sp.method,
            sp.op,
            sp.start_ns,
            sp.end_ns,
            sp.iter
        ));
    }
    s.push_str("\n]}\n");
    s
}
