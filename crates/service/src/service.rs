//! The session scheduler: a jobs API over a pool of warm hosts.
//!
//! One executor thread per pool slot owns one warm host (channels
//! never cross threads — only checkpoints, specs, and statuses do,
//! which is exactly the set of things that must survive a migration
//! anyway). Executors pull admitted sessions from a shared bounded
//! queue; a session whose host dies is re-queued with its last good
//! checkpoint and an exclusion for that host, and whichever other
//! executor picks it up restores and replays it — bitwise-identically,
//! because checkpoint restore is bitwise-transparent.

use crate::pool::{HealthBoard, HostChannels, HostHealth, HostKind, WarmHost};
use crate::quota::{QuotaPolicy, TenantLedger};
use crate::session::{
    state_digest, SessionFailure, SessionId, SessionSpec, SessionStatus, SubmitError,
};
use jc_amuse::channel::ChannelStats;
use jc_amuse::chaos::{FaultPlan, RetryPolicy};
use jc_amuse::worker::ParticleData;
use jc_amuse::{
    wire, Bridge, BridgeConfig, Checkpoint, EmbeddedCluster, ModelState, RecoveryPolicy,
};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Seeded host-kill schedule: every `every_iterations` completed
/// iterations of a session, the [`FaultPlan`] picks a pool-wide victim;
/// if that victim is the host the session is running on, its kill
/// switch trips and the session must migrate to survive. Same plan
/// seed + session seed → same kills, so a soak failure replays exactly.
#[derive(Clone, Copy, Debug)]
pub struct ChaosKillPolicy {
    /// The deterministic fault plan supplying victims.
    pub plan: FaultPlan,
    /// Kill-decision cadence in completed iterations (≥ 1).
    pub every_iterations: u64,
}

/// Checkpoint migrations a session may spend before it fails typed
/// (ladder rung 4).
const MAX_MIGRATIONS: u32 = 3;

/// Jitter seed of the retry policy armed on every process-host channel
/// (ladder rung 1: [`RetryPolicy::standard`]). The session deadline is
/// propagated into its `deadline_ms` at lease time.
const CHANNEL_RETRY_SEED: u64 = 42;

/// Everything a [`Service`] is configured with.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Warm hosts (= executor threads). Env default: `JC_POOL_SIZE`.
    pub pool_size: usize,
    /// What the hosts are made of.
    pub host_kind: HostKind,
    /// Admission bounds.
    pub quota: QuotaPolicy,
    /// Session deadline applied when a spec leaves its own at 0, in
    /// milliseconds (0 = unbounded). Env default: `JC_SESSION_DEADLINE_MS`.
    pub default_deadline_ms: u64,
    /// Optional seeded chaos kills.
    pub chaos: Option<ChaosKillPolicy>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            pool_size: 2,
            host_kind: HostKind::InProcess,
            quota: QuotaPolicy::default(),
            default_deadline_ms: 0,
            chaos: None,
        }
    }
}

impl ServiceConfig {
    /// Defaults with the environment knobs applied: `JC_POOL_SIZE`
    /// (pool size) and `JC_SESSION_DEADLINE_MS` (default session
    /// deadline).
    pub fn from_env() -> ServiceConfig {
        let mut cfg = ServiceConfig::default();
        if let Ok(v) = std::env::var("JC_POOL_SIZE") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    cfg.pool_size = n;
                }
            }
        }
        if let Ok(v) = std::env::var("JC_SESSION_DEADLINE_MS") {
            if let Ok(ms) = v.trim().parse::<u64>() {
                cfg.default_deadline_ms = ms;
            }
        }
        cfg
    }
}

/// A monotonic snapshot of the service's shed-vs-served accounting.
/// Invariant (once in-flight work drains):
/// `submitted == completed + failed` and sheds are counted separately —
/// a shed submission is *not* a session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Sessions admitted.
    pub submitted: u64,
    /// Sessions that reached `Completed`.
    pub completed: u64,
    /// Sessions that reached `Failed`.
    pub failed: u64,
    /// Submissions shed with [`SubmitError::Overloaded`].
    pub shed_overloaded: u64,
    /// Submissions shed with [`SubmitError::QuotaExceeded`].
    pub shed_quota: u64,
    /// Checkpoint migrations performed.
    pub migrations: u64,
    /// Host kills recorded (chaos policy and [`Service::kill_host`]).
    pub chaos_kills: u64,
    /// Host re-warms performed (fresh worker quads after a death).
    pub rewarms: u64,
}

/// One unit of schedulable work: a session, fresh or resuming from a
/// migrated checkpoint.
struct Work {
    id: SessionId,
    /// What a migrated session resumes from: its last good checkpoint
    /// and the bridge config its first placement derived from the spec.
    resume: Option<Box<(BridgeConfig, Checkpoint)>>,
    /// Hosts this session must not run on again (each failed it once).
    exclude: Vec<usize>,
    migrations: u32,
    /// Channel traffic accumulated on hosts it already ran on.
    stats: ChannelStats,
    /// Submission instant — deadlines are SLAs measured from here.
    enqueued: Instant,
}

struct SessionRecord {
    tenant: String,
    spec: SessionSpec,
    status: SessionStatus,
    snapshot: Option<(ParticleData, ParticleData)>,
}

struct SchedState {
    next_id: SessionId,
    queue: VecDeque<Work>,
    sessions: BTreeMap<SessionId, SessionRecord>,
    ledger: TenantLedger,
    /// Executor liveness by pool index (an exited executor serves
    /// nothing; eligibility must know).
    active: Vec<bool>,
    shutting_down: bool,
}

struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_quota: AtomicU64,
    migrations: AtomicU64,
}

struct Shared {
    cfg: ServiceConfig,
    state: Mutex<SchedState>,
    work_cv: Condvar,
    done_cv: Condvar,
    health: HealthBoard,
    kill_switches: Vec<Arc<AtomicBool>>,
    counters: Counters,
}

/// The multi-session service: admission control in front, a warm host
/// pool behind, the supervision ladder in between. See the crate docs
/// for the ladder; see [`ServiceCounters`] for the accounting contract.
pub struct Service {
    shared: Arc<Shared>,
    executors: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Start the service: spawn one executor per pool slot and warm
    /// every host.
    pub fn new(cfg: ServiceConfig) -> Service {
        assert!(cfg.pool_size > 0, "a service needs at least one host");
        let kill_switches: Vec<Arc<AtomicBool>> =
            (0..cfg.pool_size).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let shared = Arc::new(Shared {
            health: HealthBoard::new(cfg.pool_size),
            state: Mutex::new(SchedState {
                next_id: 1,
                queue: VecDeque::new(),
                sessions: BTreeMap::new(),
                ledger: TenantLedger::default(),
                active: vec![true; cfg.pool_size],
                shutting_down: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            kill_switches: kill_switches.clone(),
            counters: Counters {
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                shed_overloaded: AtomicU64::new(0),
                shed_quota: AtomicU64::new(0),
                migrations: AtomicU64::new(0),
            },
            cfg,
        });
        let executors = (0..shared.cfg.pool_size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let kill = Arc::clone(&kill_switches[i]);
                std::thread::Builder::new()
                    .name(format!("jungle-host-{i}"))
                    .spawn(move || executor_main(shared, i, kill))
                    .expect("spawn executor thread")
            })
            .collect();
        Service { shared, executors }
    }

    /// Submit a session for `tenant`. Never blocks, never queues past
    /// the configured bounds — rejections are immediate and typed.
    pub fn submit(&self, tenant: &str, spec: SessionSpec) -> Result<SessionId, SubmitError> {
        let mut st = self.shared.state.lock().unwrap();
        if st.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        let queued_now = st.queue.len();
        if let Err(e) = st.ledger.try_admit(tenant, &self.shared.cfg.quota, queued_now) {
            match &e {
                SubmitError::Overloaded { .. } => {
                    self.shared.counters.shed_overloaded.fetch_add(1, Ordering::Relaxed)
                }
                _ => self.shared.counters.shed_quota.fetch_add(1, Ordering::Relaxed),
            };
            return Err(e);
        }
        let id = st.next_id;
        st.next_id += 1;
        st.sessions.insert(
            id,
            SessionRecord {
                tenant: tenant.to_string(),
                spec,
                status: SessionStatus::Queued,
                snapshot: None,
            },
        );
        st.queue.push_back(Work {
            id,
            resume: None,
            exclude: Vec::new(),
            migrations: 0,
            stats: ChannelStats::default(),
            enqueued: Instant::now(),
        });
        self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.work_cv.notify_one();
        Ok(id)
    }

    /// Current status of a session (`None` for unknown / forgotten ids).
    pub fn status(&self, id: SessionId) -> Option<SessionStatus> {
        self.shared.state.lock().unwrap().sessions.get(&id).map(|r| r.status.clone())
    }

    /// Block until the session reaches a terminal status and return it.
    pub fn wait(&self, id: SessionId) -> Option<SessionStatus> {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            match st.sessions.get(&id) {
                None => return None,
                Some(r) if r.status.is_terminal() => return Some(r.status.clone()),
                Some(_) => st = self.shared.done_cv.wait(st).unwrap(),
            }
        }
    }

    /// Drop a terminal session's record (status and kept snapshot) so a
    /// long-lived service stays memory-bounded. No-op while the session
    /// is still in flight.
    pub fn forget(&self, id: SessionId) {
        let mut st = self.shared.state.lock().unwrap();
        if st.sessions.get(&id).is_some_and(|r| r.status.is_terminal()) {
            st.sessions.remove(&id);
        }
    }

    /// Stream a completed session's final snapshot as two wire-protocol
    /// `Particles` frames (stars, then gas) — the same bytes a worker
    /// puts on a socket, so any [`jc_amuse::wire::read_frame`] /
    /// [`jc_amuse::wire::decode_response`] consumer can read them.
    /// Returns `Ok(false)` when there is nothing to stream (unknown id,
    /// not completed, or the spec did not set
    /// [`SessionSpec::keep_snapshot`]).
    pub fn write_snapshot(&self, id: SessionId, w: &mut impl io::Write) -> io::Result<bool> {
        let (mut star_frame, mut gas_frame) = (Vec::new(), Vec::new());
        {
            // encoded straight from the kept columns: the lock covers
            // the encodes, not a clone of either set
            let st = self.shared.state.lock().unwrap();
            let Some((stars, gas)) = st.sessions.get(&id).and_then(|r| r.snapshot.as_ref()) else {
                return Ok(false);
            };
            wire::particles_frame(&stars.mass, &stars.pos, &stars.vel).encode(&mut star_frame);
            wire::particles_frame(&gas.mass, &gas.pos, &gas.vel).encode(&mut gas_frame);
        }
        w.write_all(&star_frame)?;
        w.write_all(&gas_frame)?;
        Ok(true)
    }

    /// Trip host `i`'s kill switch: every call on it fails from now
    /// until its executor re-warms a fresh worker quad. Sessions on it
    /// migrate; this is the operator-facing end of the same path the
    /// chaos policy uses.
    pub fn kill_host(&self, i: usize) {
        if let Some(k) = self.shared.kill_switches.get(i) {
            k.store(true, Ordering::SeqCst);
            self.shared.health.record_kill(i);
        }
    }

    /// Current health of every pool slot.
    pub fn health(&self) -> Vec<HostHealth> {
        self.shared.health.snapshot()
    }

    /// Accounting snapshot.
    pub fn counters(&self) -> ServiceCounters {
        let c = &self.shared.counters;
        ServiceCounters {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed_overloaded: c.shed_overloaded.load(Ordering::Relaxed),
            shed_quota: c.shed_quota.load(Ordering::Relaxed),
            migrations: c.migrations.load(Ordering::Relaxed),
            chaos_kills: self.shared.health.chaos_kills(),
            rewarms: self.shared.health.generations(),
        }
    }

    /// Drain and stop: no new submissions, queued and running sessions
    /// finish (migrations included), executors exit, hosts are reaped.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutting_down = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        self.shared.done_cv.notify_all();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Mark terminal, release the tenant's quota slot, bump counters, wake
/// waiters. The single funnel for both terminal states — quota release
/// happens exactly once per session.
fn finish(shared: &Shared, st: &mut SchedState, id: SessionId, status: SessionStatus) {
    let completed = matches!(status, SessionStatus::Completed { .. });
    if let Some(rec) = st.sessions.get_mut(&id) {
        let tenant = rec.tenant.clone();
        rec.status = status;
        st.ledger.release(&tenant);
    }
    if completed {
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
    }
    shared.done_cv.notify_all();
}

/// Does any active, non-excluded host remain for this work item?
fn has_eligible_host(st: &SchedState, w: &Work) -> bool {
    st.active.iter().enumerate().any(|(i, alive)| *alive && !w.exclude.contains(&i))
}

/// Fail every queued item that no host can serve any more — the queue
/// must never hold work that cannot make progress.
fn fail_stranded(shared: &Shared, st: &mut SchedState) {
    let any_active = st.active.iter().any(|a| *a);
    let mut i = 0;
    while i < st.queue.len() {
        if has_eligible_host(st, &st.queue[i]) {
            i += 1;
            continue;
        }
        if any_active {
            // stale exclude list, not a dead pool: hosts re-warm, so
            // make the item eligible again instead of failing it
            st.queue[i].exclude.clear();
            i += 1;
            continue;
        }
        let w = st.queue.remove(i).expect("index in bounds");
        let status = SessionStatus::Failed {
            failure: SessionFailure::NoHealthyHost,
            migrations: w.migrations,
        };
        finish(shared, st, w.id, status);
    }
}

fn executor_main(shared: Arc<Shared>, index: usize, kill: Arc<AtomicBool>) {
    let retry = RetryPolicy::standard(CHANNEL_RETRY_SEED);
    let mut host = WarmHost::new(index, shared.cfg.host_kind.clone(), kill, retry);
    if let Err(e) = host.warm_up() {
        // stay in the loop: re-warm is retried per dequeued session
        eprintln!("jungle-service: host {index} failed to warm up: {e}");
        shared.health.record_failure(index);
    }
    loop {
        let work = {
            let mut st = shared.state.lock().unwrap();
            loop {
                fail_stranded(&shared, &mut st);
                if let Some(pos) = st.queue.iter().position(|w| !w.exclude.contains(&index)) {
                    break st.queue.remove(pos);
                }
                if st.shutting_down {
                    // drain complete for this executor (items excluding
                    // it belong to the others); retire from eligibility
                    st.active[index] = false;
                    fail_stranded(&shared, &mut st);
                    shared.work_cv.notify_all();
                    break None;
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        match work {
            Some(w) => run_session(&shared, index, &mut host, w),
            None => return,
        }
    }
}

/// Bridge config + t=0 checkpoint for a spec, so fresh placement and
/// migration are the *same* operation: restore onto a warm host.
fn initial_checkpoint(spec: &SessionSpec) -> (BridgeConfig, Checkpoint) {
    let cluster = EmbeddedCluster::build(spec.stars, spec.gas, spec.gas_fraction, spec.seed);
    let mut cfg = cluster.bridge_config();
    cfg.substeps = spec.substeps;
    (cfg, cluster.initial_checkpoint())
}

fn particles_of(state: &ModelState) -> Option<ParticleData> {
    match state {
        ModelState::Gravity { mass, pos, vel, .. } => {
            Some(ParticleData { mass: mass.clone(), pos: pos.clone(), vel: vel.clone() })
        }
        ModelState::Hydro { mass, pos, vel, .. } => {
            Some(ParticleData { mass: mass.clone(), pos: pos.clone(), vel: vel.clone() })
        }
        _ => None,
    }
}

/// How one placement of a session ended (before the scheduler decides
/// what that means for the session).
enum RunOutcome {
    /// All iterations done; final digest and optional kept snapshot.
    Done { iterations: u64, digest: u64, snapshot: Option<(ParticleData, ParticleData)> },
    /// The wall-clock budget ran out mid-run (host is healthy).
    OutOfTime,
}

/// Drive a leased bridge through the session. Any `Err` means this
/// *placement* failed (dead host, unrecoverable iteration) and the
/// scheduler should consult `ck_opt` for the last good checkpoint to
/// migrate with.
#[allow(clippy::too_many_arguments)]
fn drive(
    shared: &Shared,
    index: usize,
    host: &WarmHost,
    bridge: &mut Bridge,
    spec: &SessionSpec,
    deadline: Option<Instant>,
    ck: Checkpoint,
    ck_opt: &mut Option<Checkpoint>,
) -> Result<RunOutcome, String> {
    bridge.restore(&ck).map_err(|e| format!("restore failed: {e}"))?;
    *ck_opt = Some(ck);
    // a freshly restored session must not be re-killed at the exact
    // boundary it resumes from — only boundaries crossed on THIS host
    // count, or a migrated session could die on arrival forever
    let start = bridge.iterations();
    // in-place recovery per iteration (ladder rung 2)
    let recovery = RecoveryPolicy::default();
    let over_deadline = || deadline.is_some_and(|d| Instant::now() >= d);
    while bridge.iterations() < spec.iterations {
        if over_deadline() {
            return Ok(RunOutcome::OutOfTime);
        }
        if let Some(chaos) = &shared.cfg.chaos {
            let done = bridge.iterations();
            let every = chaos.every_iterations.max(1);
            if done > start && done.is_multiple_of(every) {
                let round = spec.seed.wrapping_mul(1_000_003).wrapping_add(done / every);
                if chaos.plan.victim(round, shared.cfg.pool_size) == index {
                    host.trip_kill();
                    shared.health.record_kill(index);
                }
            }
        }
        bridge.iteration_recovering(ck_opt, &recovery).map_err(|e| e.to_string())?;
    }
    // final state via the checkpoint path (never panics on a dead host —
    // errors escalate to migration like any other failure)
    let final_ck = bridge.snapshot().map_err(|e| format!("final snapshot failed: {e}"))?;
    let stars = particles_of(&final_ck.gravity)
        .ok_or_else(|| "gravity state has no particles".to_string())?;
    let gas =
        particles_of(&final_ck.hydro).ok_or_else(|| "hydro state has no particles".to_string())?;
    let digest = state_digest(&stars, &gas);
    let snapshot = spec.keep_snapshot.then_some((stars, gas));
    Ok(RunOutcome::Done { iterations: final_ck.iterations, digest, snapshot })
}

fn run_session(shared: &Shared, index: usize, host: &mut WarmHost, mut work: Work) {
    let spec = {
        let mut st = shared.state.lock().unwrap();
        let Some(rec) = st.sessions.get_mut(&work.id) else { return };
        rec.status = SessionStatus::Running { host: index, migrations: work.migrations };
        rec.spec.clone()
    };
    let budget_ms =
        if spec.deadline_ms > 0 { spec.deadline_ms } else { shared.cfg.default_deadline_ms };
    let deadline = (budget_ms > 0).then(|| work.enqueued + Duration::from_millis(budget_ms));
    let fail = |shared: &Shared, work: &Work, failure: SessionFailure| {
        let mut st = shared.state.lock().unwrap();
        let status = SessionStatus::Failed { failure, migrations: work.migrations };
        finish(shared, &mut st, work.id, status);
    };
    let over_deadline = |deadline: &Option<Instant>| deadline.is_some_and(|d| Instant::now() >= d);

    if over_deadline(&deadline) {
        return fail(shared, &work, SessionFailure::DeadlineExceeded { budget_ms });
    }

    // rung 0: make sure this host is a live worker quad at all
    if host.is_killed() || !host.is_warm() {
        match host.warm_up() {
            Ok(()) => shared.health.record_rewarm(index),
            Err(e) => {
                shared.health.record_failure(index);
                return migrate_or_fail(shared, index, work, e);
            }
        }
    }

    // checkpoint to place: the migrated state, or a fresh one
    let (cfg, ck) = match work.resume.take() {
        Some(resume) => *resume,
        None => initial_checkpoint(&spec),
    };

    let quad = host.lease().expect("a warm host has its channel quad");
    let mut bridge =
        Bridge::new(quad.gravity, quad.hydro, quad.coupling, quad.stellar, cfg.clone());
    if let Some(d) = deadline {
        let remaining = d.saturating_duration_since(Instant::now()).as_millis() as u64;
        bridge.set_request_deadline(remaining.max(1));
    }

    let mut ck_opt: Option<Checkpoint> = None;
    let outcome = drive(shared, index, host, &mut bridge, &spec, deadline, ck, &mut ck_opt);

    match outcome {
        Ok(RunOutcome::OutOfTime) => {
            // ran out of budget mid-run: the host is fine — return the
            // quad — but the session fails typed
            merge_bridge_stats(&mut work.stats, &bridge);
            release_quad(host, bridge);
            fail(shared, &work, SessionFailure::DeadlineExceeded { budget_ms });
        }
        Ok(RunOutcome::Done { iterations, digest, snapshot }) => {
            merge_bridge_stats(&mut work.stats, &bridge);
            release_quad(host, bridge);
            shared.health.record_success(index);
            let mut st = shared.state.lock().unwrap();
            if let Some(rec) = st.sessions.get_mut(&work.id) {
                rec.snapshot = snapshot;
            }
            let status = SessionStatus::Completed {
                iterations,
                migrations: work.migrations,
                digest,
                wall_us: work.enqueued.elapsed().as_micros() as u64,
                stats: work.stats,
            };
            finish(shared, &mut st, work.id, status);
        }
        Err(detail) => {
            merge_bridge_stats(&mut work.stats, &bridge);
            // dead or untrusted quad: drop it with the bridge; the next
            // lease on this host re-warms a fresh one
            drop(bridge);
            if !host.is_killed() {
                // not a kill-switch death — strike the host on the board
                shared.health.record_failure(index);
            }
            // migrate with the last good checkpoint (None only if the
            // restore itself failed — then the next host rebuilds the
            // initial state from the spec, same result)
            work.resume = ck_opt.take().map(|ck| Box::new((cfg, ck)));
            migrate_or_fail(shared, index, work, detail);
        }
    }
}

/// Ladder rung 3→4: re-queue the session (with its last good
/// checkpoint) for any other host, or fail it typed. The failed host
/// re-warms lazily on its next dequeue.
fn migrate_or_fail(shared: &Shared, index: usize, mut work: Work, detail: String) {
    work.migrations += 1;
    if !work.exclude.contains(&index) {
        work.exclude.push(index);
    }
    let mut st = shared.state.lock().unwrap();
    if work.migrations > MAX_MIGRATIONS {
        let status = SessionStatus::Failed {
            failure: SessionFailure::Unrecoverable {
                detail: format!("migration budget spent ({MAX_MIGRATIONS}): {detail}"),
            },
            migrations: work.migrations,
        };
        return finish(shared, &mut st, work.id, status);
    }
    if !has_eligible_host(&st, &work) {
        if st.active.iter().any(|a| *a) {
            // every active host is on the exclude list, but killed
            // hosts re-warm on their next dequeue — the list is stale,
            // not the pool. Clear it and let the migration budget
            // bound the retries.
            work.exclude.clear();
        } else {
            let status = SessionStatus::Failed {
                failure: SessionFailure::NoHealthyHost,
                migrations: work.migrations,
            };
            return finish(shared, &mut st, work.id, status);
        }
    }
    if let Some(rec) = st.sessions.get_mut(&work.id) {
        rec.status = SessionStatus::Queued;
    }
    shared.counters.migrations.fetch_add(1, Ordering::Relaxed);
    st.queue.push_back(work);
    drop(st);
    shared.work_cv.notify_all();
}

fn merge_bridge_stats(total: &mut ChannelStats, bridge: &Bridge) {
    let (g, h, c, s) = bridge.channel_stats();
    total.merge(&g);
    total.merge(&h);
    total.merge(&c);
    if let Some(s) = s {
        total.merge(&s);
    }
}

fn release_quad(host: &mut WarmHost, bridge: Bridge) {
    let (gravity, hydro, coupling, stellar) = bridge.into_channels();
    host.release(HostChannels { gravity, hydro, coupling, stellar });
}
