//! The `service_open` workload: the multi-session service under an
//! open-loop load.
//!
//! Tenants are independent, so arrivals are an open loop: a seeded
//! Poisson schedule at a *fixed* rate, sent whether or not earlier
//! sessions have finished. A run is [`crate::SEGMENTS`] segments, each
//! a freshly set-up service put through two kinds of phase:
//!
//! * **steady** — [`STEADY_RATE`] sessions/s, about an eighth of what
//!   one host serves: nearly nine sessions in ten find the host idle,
//!   nothing may be shed or fail, and the latency percentiles are the
//!   product's latency. One schedule per run, replayed
//!   [`STEADY_REPLAYS`] times per segment;
//! * **overload** — [`OVERLOAD_RATE`] sessions/s, about twice capacity:
//!   the queue stays full, admission control sheds typed, and sessions
//!   completed per second *is* the capacity under pressure. One burst
//!   per segment.
//!
//! A session's latency runs from the instant it was *due* to the
//! instant `Service::wait` observed it terminal, measured out here (the
//! service's own `wall_ms` is whole milliseconds), so a stalled
//! generator counts against the sessions it delayed. Load is one
//! generator thread plus one collector thread; the service adds one
//! executor thread for its single in-process host.

use crate::metrics::{end_to_end, LayerSheet};
use crate::stats::{self, RunOutput};
use jc_amuse::channel::{Channel, LocalChannel};
use jc_amuse::chaos::ChaosRng;
use jc_amuse::worker::{ModelWorker, Request, Response};
use jc_amuse::{Bridge, Checkpoint, EmbeddedCluster, RecoveryPolicy};
use jc_service::session::state_digest;
use jc_service::{
    HostKind, QuotaPolicy, Service, ServiceConfig, SessionId, SessionSpec, SessionStatus,
    SubmitError,
};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Steady-phase arrival rate (sessions/s): ≈ 0.125 × the closed-loop
/// capacity (≈ 1000/s) of one in-process host on the machine that sized
/// it. At 0.25 × the median sat on the edge between the sessions that
/// found the host idle and those that queued, and moved 21 % between
/// identical runs; at 0.125 × it sits inside the first group (5 %).
pub const STEADY_RATE: f64 = 125.0;
/// Overload-phase arrival rate (sessions/s): ≈ 2 × that capacity.
pub const OVERLOAD_RATE: f64 = 2000.0;
/// Share of a run's measured time spent in the steady phase.
pub const STEADY_SHARE: f64 = 0.7;
/// Tenants the arrivals rotate over.
pub const TENANTS: usize = 4;
/// The service's global queue bound.
pub const QUEUE_DEPTH: usize = 64;
/// Times each segment replays the steady schedule.
pub const STEADY_REPLAYS: usize = 4;
/// Spec seed of the first session of the fixed set every run draws from.
const SESSION_BASE: u64 = 39_000;
/// Sessions of that set an overload burst cycles over.
const SESSION_POOL: u64 = 256;
/// Completions per stretch of an overload burst whose rate is taken:
/// long against the scheduler's time slice (completions are observed in
/// batches of a few), short enough that a burst has several.
const SERVED_CHUNK: usize = 200;
/// Mixed into the run seed so the two phases draw different arrival
/// schedules.
const STEADY_STREAM: u64 = 0x57ea_d157;
/// See [`STEADY_STREAM`].
const OVERLOAD_STREAM: u64 = 0x0e71_0ad5;
/// One position in this many of every phase has its digest re-derived
/// by a direct `Bridge` run of the same spec.
const VERIFY_EVERY: u64 = 100;
/// Sessions run through a fresh service before it counts as set up.
const WARM_SESSIONS: u64 = 50;

/// The repository's own load spec (`jungle-service` defaults): small
/// enough that the service, not the kernels, is the work.
pub fn session_spec(seed: u64) -> SessionSpec {
    SessionSpec { stars: 8, gas: 24, seed, iterations: 2, substeps: 1, ..SessionSpec::default() }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        pool_size: 1,
        host_kind: HostKind::InProcess,
        // the per-tenant cap sits above the queue bound on purpose:
        // overload must be shed by queue depth, the bound under test
        quota: QuotaPolicy { max_queue_depth: QUEUE_DEPTH, per_tenant_in_flight: QUEUE_DEPTH + 2 },
        ..ServiceConfig::default()
    }
}

/// A service that has served [`WARM_SESSIONS`] sessions.
fn warm_service(seed: u64) -> Service {
    let service = Service::new(service_config());
    for i in 0..WARM_SESSIONS {
        let id = service.submit("warm", session_spec(seed ^ (0x5eed << 32) ^ i)).expect("admitted");
        service.wait(id);
        service.forget(id);
    }
    service
}

// --------------------------------------------------------------------------
// direct Bridge runs of a session spec

/// A warm in-process worker quad, re-used across sessions the way a
/// service host is: each session restores its own initial checkpoint.
struct BareHost {
    channels: Option<[Box<dyn Channel>; 4]>,
}

fn save(w: &mut Box<dyn ModelWorker>) -> jc_amuse::ModelState {
    match w.handle(Request::SaveState) {
        Response::State(s) => s,
        other => panic!("SaveState answered {other:?}"),
    }
}

impl BareHost {
    fn new() -> BareHost {
        let spec = session_spec(1);
        let cluster = EmbeddedCluster::build(spec.stars, spec.gas, spec.gas_fraction, spec.seed);
        let (g, h, c, s) = cluster.local_workers(false);
        let ch = |w| Box::new(LocalChannel::new(w)) as Box<dyn Channel>;
        BareHost { channels: Some([ch(g), ch(h), ch(c), ch(s)]) }
    }

    /// Everything a session costs without the service around it: build
    /// the spec's initial checkpoint, restore it onto the warm quad,
    /// run the iterations with the recovery driver (a checkpoint per
    /// iteration, as the service does), digest the final state.
    fn run(&mut self, spec: &SessionSpec) -> u64 {
        let cluster = EmbeddedCluster::build(spec.stars, spec.gas, spec.gas_fraction, spec.seed);
        let mut cfg = cluster.bridge_config();
        cfg.substeps = spec.substeps;
        let (mut g, mut h, mut c, mut s) = cluster.local_workers(false);
        let ck = Checkpoint {
            time: 0.0,
            iterations: 0,
            total_supernovae: 0,
            gravity: save(&mut g),
            hydro: save(&mut h),
            coupling: save(&mut c),
            stellar: Some(save(&mut s)),
        };
        let [g, h, c, s] = self.channels.take().expect("host quad is home");
        let mut bridge = Bridge::new(g, h, c, Some(s), cfg);
        bridge.restore(&ck).expect("restore the session's initial state");
        let mut last = Some(ck);
        let policy = RecoveryPolicy::default();
        while bridge.iterations() < spec.iterations {
            bridge.iteration_recovering(&mut last, &policy).expect("in-process iteration");
        }
        let (stars, gas) = bridge.snapshots();
        let (g, h, c, s) = bridge.into_channels();
        self.channels = Some([g, h, c, s.expect("stellar channel")]);
        state_digest(&stars, &gas)
    }
}

// --------------------------------------------------------------------------
// the open loop

/// One session's life, in nanoseconds since the phase began (`done` is
/// 0 for a shed one).
struct SessionTrace {
    due: u64,
    submit_start: u64,
    submit_end: u64,
    done: u64,
}

/// What one open-loop phase observed.
#[derive(Default)]
struct Phase {
    offered: u64,
    shed: u64,
    completed: u64,
    failed: u64,
    /// Cost of an admitting `submit` (µs).
    submit_us: Vec<f64>,
    /// Cost of a shedding `submit` (µs).
    shed_us: Vec<f64>,
    /// How late the generator ran at worst (ms).
    gen_lag_ms_max: f64,
    /// Phase start to last completion (s).
    span_s: f64,
    /// `(spec seed, digest)` of the sessions sampled for verification.
    sampled: Vec<(u64, u64)>,
    /// Per-session timeline, for the trace file.
    sessions: Vec<SessionTrace>,
    /// Does `completed + failed + shed == offered` hold, by the
    /// service's own counters as well as by ours?
    accounting_closed: bool,
}

impl Phase {
    /// Latency of each position of the schedule, from its due time to
    /// the moment `wait` saw it terminal (ms); `None` if it was shed.
    fn latency_ms(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        self.sessions.iter().map(|t| (t.done != 0).then(|| (t.done - t.due) as f64 / 1e6))
    }

    /// Latencies of the sessions that were admitted (ms).
    fn completed_ms(&self) -> Vec<f64> {
        self.latency_ms().flatten().collect()
    }

    /// Sessions completed per second, start of phase to last completion.
    fn served_per_s(&self) -> f64 {
        self.completed as f64 / self.span_s
    }

    /// Sessions completed per second over the quietest stretch of
    /// [`SERVED_CHUNK`] consecutive completions (the whole phase if it
    /// completed fewer).
    fn peak_served_per_s(&self) -> f64 {
        let mut done: Vec<u64> = self.sessions.iter().map(|t| t.done).filter(|d| *d != 0).collect();
        done.sort_unstable();
        done.chunks_exact(SERVED_CHUNK + 1)
            .map(|c| SERVED_CHUNK as f64 * 1e9 / (c[SERVED_CHUNK] - c[0]) as f64)
            .reduce(f64::max)
            .unwrap_or_else(|| self.served_per_s())
    }
}

/// One open-loop phase to drive: when each session is due (seconds from
/// the phase's start), which spec it runs, how the generator waits.
struct Schedule {
    due: Vec<f64>,
    spec_seeds: Vec<u64>,
    pacing: Pacing,
}

/// Exponential gaps at `rate` for `seconds`, a pure function of `seed`.
fn arrivals(rate: f64, seconds: f64, rng: &mut ChaosRng) -> Vec<f64> {
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -(1.0 - stats::uniform(rng)).ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(t);
    }
}

/// The steady schedule of run `seed`: Poisson arrivals over `seconds`,
/// running the sessions `SESSION_BASE..` in an order shuffled by the
/// seed. Every run draws (nearly) the same set of sessions — what a
/// session costs depends on its cluster, and a fresh set per run would
/// make a comparison across seeds a comparison of inputs — but meets
/// them in another order, at other times.
fn steady_schedule(seconds: f64, seed: u64) -> Schedule {
    let mut rng = ChaosRng::new(seed ^ STEADY_STREAM);
    let due = arrivals(STEADY_RATE, seconds, &mut rng);
    let mut spec_seeds: Vec<u64> = (0..due.len() as u64).map(|k| SESSION_BASE + k).collect();
    for i in (1..spec_seeds.len()).rev() {
        spec_seeds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    Schedule { due, spec_seeds, pacing: Pacing::Awake }
}

/// The overload burst of run `seed`, cycling over the same sessions.
fn overload_schedule(seconds: f64, seed: u64) -> Schedule {
    let mut rng = ChaosRng::new(seed ^ OVERLOAD_STREAM);
    let due = arrivals(OVERLOAD_RATE, seconds, &mut rng);
    let spec_seeds = (0..due.len() as u64).map(|k| SESSION_BASE + k % SESSION_POOL).collect();
    Schedule { due, spec_seeds, pacing: Pacing::Sleepy }
}

/// How the generator passes the time to the next arrival.
#[derive(Clone, Copy, PartialEq)]
enum Pacing {
    /// Yield in a loop, never sleep. The steady phase leaves the CPU
    /// idle seven eighths of the time, and a virtual CPU that halts
    /// comes back slow here (clock and caches): the same session took
    /// 0.96 ms back to back and 1.0 *or* 1.6 ms after a 7 ms nap, the
    /// mix changing by the minute, so the median of identical runs
    /// moved 1.1…1.5 ms. Kept awake it stays within a few percent. A
    /// yield hands the CPU to the executor whenever it has work.
    Awake,
    /// Sleep most of the way, then yield the rest: under overload the
    /// executor never idles and needs the CPU more than the generator.
    Sleepy,
}

fn wait_until(when: Instant, pacing: Pacing) {
    loop {
        let now = Instant::now();
        if now >= when {
            return;
        }
        let left = when - now;
        if pacing == Pacing::Sleepy && left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Drive one open-loop phase against `service`: session `i` is due at
/// `plan.due[i]`, runs `plan.spec_seeds[i]`, for tenant `i % TENANTS`.
fn open_loop(service: &Service, plan: &Schedule) -> Phase {
    let before = service.counters();
    let mut phase = Phase { offered: plan.due.len() as u64, ..Phase::default() };
    phase.sessions.reserve(plan.due.len());
    let (tx, rx) = mpsc::channel::<(usize, SessionId)>();
    let t0 = Instant::now();
    let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;

    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            // one host serves in submission order, so waiting in that
            // order observes each completion as it happens
            let mut done: Vec<(usize, Instant, Option<u64>)> = Vec::new();
            for (index, id) in rx {
                let status = service.wait(id);
                let at = Instant::now();
                service.forget(id);
                let digest = match status {
                    Some(SessionStatus::Completed { digest, .. }) => Some(digest),
                    _ => None,
                };
                done.push((index, at, digest));
            }
            done
        });

        for (i, (offset, spec_seed)) in plan.due.iter().zip(&plan.spec_seeds).enumerate() {
            let when = t0 + Duration::from_secs_f64(*offset);
            wait_until(when, plan.pacing);
            let tenant = ["tenant-0", "tenant-1", "tenant-2", "tenant-3"][i % TENANTS];
            let submit_start = Instant::now();
            let result = service.submit(tenant, session_spec(*spec_seed));
            let submit_end = Instant::now();
            let lag_ms = submit_start.duration_since(when).as_secs_f64() * 1e3;
            phase.gen_lag_ms_max = phase.gen_lag_ms_max.max(lag_ms);
            let cost_us = (submit_end - submit_start).as_secs_f64() * 1e6;
            phase.sessions.push(SessionTrace {
                due: ns(when),
                submit_start: ns(submit_start),
                submit_end: ns(submit_end),
                done: 0,
            });
            match result {
                Ok(id) => {
                    phase.submit_us.push(cost_us);
                    tx.send((i, id)).expect("collector is alive");
                }
                Err(SubmitError::Overloaded { .. } | SubmitError::QuotaExceeded { .. }) => {
                    phase.shed += 1;
                    phase.shed_us.push(cost_us);
                }
                Err(SubmitError::ShuttingDown) => phase.failed += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });

    let mut last = t0;
    for (index, at, digest) in collected {
        last = last.max(at);
        phase.sessions[index].done = ns(at);
        match digest {
            Some(d) => {
                phase.completed += 1;
                if (index as u64).is_multiple_of(VERIFY_EVERY) {
                    phase.sampled.push((plan.spec_seeds[index], d));
                }
            }
            None => phase.failed += 1,
        }
    }
    phase.span_s = last.duration_since(t0).as_secs_f64();
    let after = service.counters();
    let service_shed =
        (after.shed_overloaded + after.shed_quota) - (before.shed_overloaded + before.shed_quota);
    let service_done = (after.completed + after.failed) - (before.completed + before.failed);
    phase.accounting_closed = phase.completed + phase.failed + phase.shed == phase.offered
        && service_shed == phase.shed
        && service_done == phase.completed + phase.failed
        && after.submitted - before.submitted == service_done;
    phase
}

/// Everything one run put the service through.
#[derive(Default)]
struct Load {
    /// Wall time of each segment's set-up (s).
    setup_s: Vec<f64>,
    /// Every replay of the steady schedule, in order.
    steady: Vec<Phase>,
    /// Every overload burst, in order.
    overload: Vec<Phase>,
    /// The quiet latency of each position of the steady schedule (ms):
    /// the shortest over all replays. A position never completed stays
    /// infinite.
    quiet_ms: Vec<f64>,
}

impl Load {
    /// Latencies of every completed steady session, as measured (ms).
    fn steady_ms(&self) -> Vec<f64> {
        self.steady.iter().flat_map(|p| p.latency_ms()).flatten().collect()
    }

    /// How late the generator ran at worst, any phase (ms).
    fn gen_lag_ms_max(&self) -> f64 {
        self.steady.iter().chain(&self.overload).map(|p| p.gen_lag_ms_max).fold(0.0, f64::max)
    }

    /// `rate` of each overload burst that completed anything.
    fn served(&self, rate: fn(&Phase) -> f64) -> Vec<f64> {
        self.overload.iter().filter(|p| p.completed > 0).map(rate).collect()
    }
}

/// One run's load: [`crate::SEGMENTS`] segments, each a freshly set-up
/// and warmed service, [`STEADY_REPLAYS`] replays of the steady schedule
/// and one overload burst. `failed`/`attempted` and failed checks go to
/// `out`.
fn run_load(seed: u64, seconds: f64, out: &mut RunOutput) -> Load {
    let segment_s = seconds / crate::SEGMENTS as f64;
    let steady = steady_schedule(segment_s * STEADY_SHARE / STEADY_REPLAYS as f64, seed);
    let burst = overload_schedule(segment_s * (1.0 - STEADY_SHARE), seed);
    let mut load = Load { quiet_ms: vec![f64::INFINITY; steady.due.len()], ..Load::default() };
    for _ in 0..crate::SEGMENTS {
        let t0 = Instant::now();
        let service = warm_service(seed);
        load.setup_s.push(t0.elapsed().as_secs_f64());
        for _ in 0..STEADY_REPLAYS {
            let phase = open_loop(&service, &steady);
            for (quiet, ms) in load.quiet_ms.iter_mut().zip(phase.latency_ms()) {
                *quiet = quiet.min(ms.unwrap_or(f64::INFINITY));
            }
            load.steady.push(phase);
        }
        load.overload.push(open_loop(&service, &burst));
        service.shutdown();
    }

    let mut host = BareHost::new();
    for (name, phases, must_admit) in
        [("steady", &load.steady, true), ("overload", &load.overload, false)]
    {
        for (i, p) in phases.iter().enumerate() {
            if !p.accounting_closed {
                out.fail(format!(
                    "{name} {i}: completed {} + failed {} + shed {} != offered {} (or the \
                     service's counters disagree)",
                    p.completed, p.failed, p.shed, p.offered
                ));
            }
            if p.failed > 0 || (must_admit && p.shed > 0) {
                out.fail(format!(
                    "{name} {i}: shed {} and failed {} of {} sessions",
                    p.shed, p.failed, p.offered
                ));
            }
            for (spec_seed, digest) in &p.sampled {
                if host.run(&session_spec(*spec_seed)) != *digest {
                    out.fail(format!(
                        "{name} {i}, session seed {spec_seed}: digest differs from a direct \
                         Bridge run"
                    ));
                }
            }
            // overload sheds by design: those submissions were refused,
            // everything else was attempted
            out.attempted += if must_admit { p.offered } else { p.completed + p.failed };
            out.failed += p.failed + if must_admit { p.shed } else { 0 };
        }
    }
    load
}

/// `--trace 0`: the end-to-end metrics of `service_open`.
///
/// Both timing metrics are quiet-time estimates, for the reason given
/// at `coupler::run_end_to_end`: the steady schedule is replayed
/// [`STEADY_REPLAYS`] × [`crate::SEGMENTS`] times, a position's latency
/// is the shortest of its replays (its queueing behind the session
/// before it included — the schedule fixes that), and `latency_ms_p50`
/// is the median over positions; `throughput_per_s` is the rate over the
/// quietest [`SERVED_CHUNK`] consecutive completions of any burst.
pub fn run_end_to_end(seed: u64, seconds: f64) -> RunOutput {
    let mut out = RunOutput { correct: true, ..RunOutput::default() };
    let load = run_load(seed, seconds, &mut out);
    let served = load.served(Phase::served_per_s);
    let peak = load.served(Phase::peak_served_per_s);
    if load.quiet_ms.iter().any(|ms| ms.is_infinite()) || served.is_empty() {
        out.fail("a steady position or an overload burst completed no session");
        return out;
    }
    let mut ms = load.steady_ms();
    let ms = stats::sorted(&mut ms);
    let (offered, shed) =
        load.overload.iter().fold((0, 0), |(o, s), p| (o + p.offered, s + p.shed));
    eprintln!(
        "[service_open] steady {STEADY_RATE}/s: {} positions x {} replays, quiet ms p50 {:.4}; as \
         measured p50 {:.4} p90 {:.4} p99 {:.4} max {:.4}, generator lag max {:.3} ms; overload \
         {OVERLOAD_RATE}/s: offered {offered} shed {shed} ({:.1}%), served/s per burst {:.1?}, peak \
         {:.1?}; set-up s {:?}",
        load.quiet_ms.len(),
        load.steady.len(),
        stats::median(&load.quiet_ms),
        stats::percentile(ms, 0.5),
        stats::percentile(ms, 0.9),
        stats::percentile(ms, 0.99),
        ms[ms.len() - 1],
        load.gen_lag_ms_max(),
        100.0 * shed as f64 / offered.max(1) as f64,
        served,
        peak,
        load.setup_s,
    );
    out.metrics = end_to_end(&[
        ("latency_ms_p50", stats::median(&load.quiet_ms), load.quiet_ms.len()),
        ("throughput_per_s", stats::max(&peak), peak.len()),
        ("peak_rss_mb", stats::peak_rss_mb(), 0),
        ("setup_s", stats::min(&load.setup_s), load.setup_s.len()),
    ]);
    // the noise estimate inside the run: each replay's own median
    let replay_p50 = load.steady.iter().map(|p| stats::median(&p.completed_ms())).collect();
    out.blocks.push(("latency_ms_p50", replay_p50));
    out.blocks.push(("throughput_per_s", peak));
    out.blocks.push(("setup_s", load.setup_s));
    out.blocks.push((
        "measured_session_ms_quantiles",
        stats::QUANTILES.iter().map(|q| stats::percentile(ms, *q)).collect(),
    ));
    out
}

/// `--trace 1`, service part: the same load, reduced into `sheet`, with
/// the first segment's session timelines written as spans.
pub fn run_layers(seed: u64, seconds: f64, sheet: &mut LayerSheet, out: &mut RunOutput) {
    let load = run_load(seed, seconds, out);
    let served = load.served(Phase::served_per_s);
    let mut ms = load.steady_ms();
    if ms.is_empty() || served.is_empty() {
        out.fail("a phase completed no session");
        return;
    }
    let ms = stats::sorted(&mut ms);
    let n = ms.len();
    let all = |pick: fn(&Phase) -> &Vec<f64>, phases: &[Phase]| -> Vec<f64> {
        phases.iter().flat_map(|p| pick(p).iter().copied()).collect()
    };
    let count = |pick: fn(&Phase) -> u64| load.overload.iter().map(pick).sum::<u64>();
    sheet.set("service.session_ms_p50", stats::percentile(ms, 0.5), n);
    sheet.set("service.session_ms_p99", stats::percentile(ms, 0.99), n);
    let submit_us = all(|p| &p.submit_us, &load.steady);
    sheet.set("service.submit_us", stats::median(&submit_us), submit_us.len());
    let shed_us = all(|p| &p.shed_us, &load.overload);
    if !shed_us.is_empty() {
        sheet.set("service.shed_us", stats::median(&shed_us), shed_us.len());
    }
    sheet.set("service.served_per_s_overload", stats::median(&served), served.len());
    sheet.set(
        "service.shed_share_overload",
        count(|p| p.shed) as f64 / count(|p| p.offered).max(1) as f64,
        count(|p| p.offered) as usize,
    );
    let overload_ms: Vec<f64> = load.overload.iter().flat_map(Phase::completed_ms).collect();
    sheet.set("service.overload_session_ms_p50", stats::median(&overload_ms), overload_ms.len());
    sheet.set("service.gen_lag_ms_max", load.gen_lag_ms_max(), 0);

    let spans = sessions_json(&[("steady", &load.steady[0]), ("overload", &load.overload[0])]);
    if let Err(e) = crate::write_out("trace-service_open.json", &spans) {
        out.notes.push(e);
    }
}

/// Service probes that need no load: one client, no queue. Run in every
/// traced run, whatever the workload.
pub fn probes(sheet: &mut LayerSheet, budget: Duration) {
    let service = warm_service(7);
    let mut next = 1u64 << 40;
    let (solo_ns, n) = stats::median_ns(budget, 50, || {
        next += 1;
        let id = service.submit("solo", session_spec(next)).expect("admitted");
        service.wait(id);
        service.forget(id);
    });
    service.shutdown();
    sheet.set("service.solo_session_ms", solo_ns / 1e6, n);

    let mut host = BareHost::new();
    let (bare_ns, n) = stats::median_ns(budget, 50, || {
        next += 1;
        std::hint::black_box(host.run(&session_spec(next)));
    });
    sheet.set("service.bare_session_ms", bare_ns / 1e6, n);
    // Against the bare run, not the solo one: solo already contains the
    // service's own per-session cost, which belongs on this side.
    let p50 = sheet.get("service.session_ms_p50");
    if p50 > 0.0 {
        sheet.set("service.queue_wait_ms_p50", p50 - bare_ns / 1e6, 0);
    }
}

/// Most sessions written per phase to the trace file.
const DUMP_LIMIT: usize = 10_000;

/// Each session as a span tree: `session` (due → done) with children
/// `submit` and `queue+run`; a shed session is a `submit` alone.
fn sessions_json(phases: &[(&str, &Phase)]) -> String {
    let mut s = String::from("{\"workload\": \"service_open\", \"spans\": [\n");
    let mut first = true;
    let mut push =
        |s: &mut String, name: &str, phase: &str, id: usize, a: u64, b: u64, parent: bool| {
            s.push_str(&format!(
            "{}{{\"name\": \"{name}\", \"chan\": \"{phase}\", \"start_ns\": {a}, \"end_ns\": {b}, \
             \"parent\": {}, \"iter\": {id}}}",
            if first { "" } else { ",\n" },
            if parent { "\"session\"" } else { "null" },
        ));
            first = false;
        };
    for (phase, p) in phases {
        for (id, t) in p.sessions.iter().take(DUMP_LIMIT).enumerate() {
            if t.done == 0 {
                push(&mut s, "shed", phase, id, t.submit_start, t.submit_end, false);
                continue;
            }
            push(&mut s, "session", phase, id, t.due, t.done, false);
            push(&mut s, "submit", phase, id, t.submit_start, t.submit_end, true);
            push(&mut s, "queue+run", phase, id, t.submit_end, t.done, true);
        }
    }
    s.push_str("\n]}\n");
    s
}
