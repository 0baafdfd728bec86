//! Warm hosts: reusable worker quads, their guarded channels, and the
//! escalation-aware health board.
//!
//! A *host* is one warm quad of model workers (gravity, hydro,
//! coupling, stellar) that outlives the sessions it runs. Placement is
//! uniform across host kinds because every worker accepts
//! [`jc_amuse::worker::Request::LoadState`]: starting a session on a
//! warm host *is* a checkpoint restore, and migrating it to another
//! host is the same restore from the last good checkpoint.
//!
//! Every channel a host hands out is wrapped in a `GuardedChannel`
//! carrying the host's kill switch: chaos (or an operator) flips one
//! `AtomicBool` and every subsequent call on that host fails through
//! the *real* error path — the bridge sees worker errors, in-place
//! recovery finds `heal` refusing, and the scheduler's migration rung
//! takes over. No special-cased shortcuts.

use jc_amuse::channel::{Channel, ChannelStats};
use jc_amuse::worker::{ModelWorker, ParticleData, Request, Response};
use jc_amuse::{EmbeddedCluster, LocalChannel};
use jc_deploy::supervise::{ProcessSupervisor, WorkerSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// What kind of workers a pool warms up.
#[derive(Clone, Debug)]
pub enum HostKind {
    /// Worker quads living in the service process (one per pool slot,
    /// each owned by its executor thread). The default: zero deploy
    /// footprint, ideal for tests and load generation.
    InProcess,
    /// Real `jungle-worker` processes, four per host, launched and
    /// reaped by a [`ProcessSupervisor`] with a port-file rendezvous.
    Process {
        /// Path to the `jungle-worker` binary.
        binary: PathBuf,
    },
}

/// One host's leased channel set, in [`jc_amuse::Bridge::new`] order.
pub(crate) struct HostChannels {
    pub(crate) gravity: Box<dyn Channel>,
    pub(crate) hydro: Box<dyn Channel>,
    pub(crate) coupling: Box<dyn Channel>,
    pub(crate) stellar: Option<Box<dyn Channel>>,
}

/// Channel wrapper enforcing the host kill switch on both legs of every
/// round trip (`call` and the one-shots are those legs by default).
/// While the switch is off it is a transparent delegate, typed legs
/// included, so warm in-process hosts keep their allocation-free hot
/// loop.
pub(crate) struct GuardedChannel {
    inner: Box<dyn Channel>,
    dead: Arc<AtomicBool>,
    /// A submit that found the host dead was not forwarded: the
    /// matching collect must fail without touching the inner channel.
    pending_dead: bool,
}

impl GuardedChannel {
    pub(crate) fn new(inner: Box<dyn Channel>, dead: Arc<AtomicBool>) -> GuardedChannel {
        GuardedChannel { inner, dead, pending_dead: false }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn dead_response(&self) -> Response {
        Response::Error(format!("host killed ({})", self.inner.worker_name()))
    }

    /// The submit gate: a dead host is not addressed at all.
    fn gate_submit(&mut self, submit: impl FnOnce(&mut dyn Channel)) {
        if self.is_dead() {
            self.pending_dead = true;
        } else {
            submit(self.inner.as_mut());
        }
    }

    /// The collect gate: `None` when the host is dead. A request that
    /// was forwarded is always collected — the inner channel stays in
    /// step — but the answer of a host killed meanwhile is dropped.
    fn gate_collect<R>(&mut self, collect: impl FnOnce(&mut dyn Channel) -> R) -> Option<R> {
        if std::mem::take(&mut self.pending_dead) {
            return None;
        }
        let answer = collect(self.inner.as_mut());
        (!self.is_dead()).then_some(answer)
    }
}

impl Channel for GuardedChannel {
    fn submit(&mut self, req: Request) {
        self.gate_submit(|c| c.submit(req))
    }

    fn collect(&mut self) -> Response {
        self.gate_collect(|c| c.collect()).unwrap_or_else(|| self.dead_response())
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }

    fn worker_name(&self) -> String {
        self.inner.worker_name()
    }

    /// A killed host must not look healable — in-place recovery has to
    /// give up so the scheduler escalates to migration.
    fn heal(&mut self) -> bool {
        !self.is_dead() && self.inner.heal()
    }

    fn set_deadline(&mut self, deadline_ms: u64) {
        self.inner.set_deadline(deadline_ms)
    }

    fn pipelines(&self) -> bool {
        self.inner.pipelines()
    }

    fn submit_snapshot(&mut self) {
        self.gate_submit(|c| c.submit_snapshot())
    }

    fn collect_snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        self.gate_collect(|c| c.collect_snapshot_into(out)).unwrap_or(false)
    }

    fn submit_kick_slice(&mut self, dv: &[[f64; 3]]) {
        self.gate_submit(|c| c.submit_kick_slice(dv))
    }

    fn collect_kick(&mut self) -> Response {
        self.gate_collect(|c| c.collect_kick()).unwrap_or_else(|| self.dead_response())
    }

    fn submit_step(&mut self, dv: &[[f64; 3]], n: u32, t: f64) {
        self.gate_submit(|c| c.submit_step(dv, n, t))
    }

    fn collect_step_into(&mut self, out: &mut ParticleData) -> Response {
        self.gate_collect(|c| c.collect_step_into(out)).unwrap_or_else(|| self.dead_response())
    }

    fn submit_field(
        &mut self,
        stars: &ParticleData,
        gas: &ParticleData,
        prime: bool,
        star_range: (usize, usize),
        gas_range: (usize, usize),
    ) {
        self.gate_submit(|c| c.submit_field(stars, gas, prime, star_range, gas_range))
    }

    fn collect_accelerations_into(&mut self, out: &mut Vec<[f64; 3]>) -> Option<f64> {
        self.gate_collect(|c| c.collect_accelerations_into(out)).flatten()
    }
}

/// One pool slot's health, as the board records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostHealth {
    /// Serving normally.
    Healthy,
    /// Failed its last session; still schedulable, and declared dead
    /// at the next failure.
    Suspect,
    /// Declared dead (kill switch or strike-out). Its executor re-warms
    /// a fresh worker quad before serving again.
    Dead,
}

/// The escalation-aware health registry: every host failure lands here,
/// and the scheduler consults it when deciding whether a session can
/// still go anywhere. Chaos kills are recorded per host so a soak can
/// audit that the fault plan actually bit.
pub(crate) struct HealthBoard {
    slots: Mutex<Vec<SlotHealth>>,
}

struct SlotHealth {
    health: HostHealth,
    /// Warm-up incarnation (bumped by every re-warm).
    generation: u64,
    chaos_kills: u64,
}

impl HealthBoard {
    pub(crate) fn new(size: usize) -> HealthBoard {
        let slots = (0..size)
            .map(|_| SlotHealth { health: HostHealth::Healthy, generation: 0, chaos_kills: 0 })
            .collect();
        HealthBoard { slots: Mutex::new(slots) }
    }

    /// A session failed on host `i`: escalate Healthy → Suspect → Dead.
    pub(crate) fn record_failure(&self, i: usize) -> HostHealth {
        let mut slots = self.slots.lock().unwrap();
        let h = &mut slots[i].health;
        *h = match *h {
            HostHealth::Healthy => HostHealth::Suspect,
            HostHealth::Suspect | HostHealth::Dead => HostHealth::Dead,
        };
        *h
    }

    /// Host `i` was killed outright (chaos or operator): straight to
    /// Dead, no strike accounting.
    pub(crate) fn record_kill(&self, i: usize) {
        let mut slots = self.slots.lock().unwrap();
        slots[i].health = HostHealth::Dead;
        slots[i].chaos_kills += 1;
    }

    /// Host `i` completed a session cleanly. A Dead slot stays Dead: a
    /// kill that lands while its last session finishes stands until the
    /// slot re-warms ([`HealthBoard::record_rewarm`]).
    pub(crate) fn record_success(&self, i: usize) {
        let h = &mut self.slots.lock().unwrap()[i].health;
        if *h != HostHealth::Dead {
            *h = HostHealth::Healthy;
        }
    }

    /// Host `i` re-warmed a fresh worker quad.
    pub(crate) fn record_rewarm(&self, i: usize) {
        let mut slots = self.slots.lock().unwrap();
        slots[i].health = HostHealth::Healthy;
        slots[i].generation += 1;
    }

    /// Current health of every slot.
    pub(crate) fn snapshot(&self) -> Vec<HostHealth> {
        self.slots.lock().unwrap().iter().map(|s| s.health).collect()
    }

    /// Total chaos kills recorded across the pool.
    pub(crate) fn chaos_kills(&self) -> u64 {
        self.slots.lock().unwrap().iter().map(|s| s.chaos_kills).sum()
    }

    /// Total re-warm incarnations across the pool.
    pub(crate) fn generations(&self) -> u64 {
        self.slots.lock().unwrap().iter().map(|s| s.generation).sum()
    }
}

/// One warm host, owned by exactly one executor thread (channels never
/// cross threads; only checkpoints do). Holds the live channel quad
/// between leases and the supervisor for process-kind workers.
pub(crate) struct WarmHost {
    index: usize,
    kind: HostKind,
    kill: Arc<AtomicBool>,
    channels: Option<HostChannels>,
    supervisor: Option<ProcessSupervisor>,
    retry: jc_amuse::chaos::RetryPolicy,
}

impl WarmHost {
    pub(crate) fn new(
        index: usize,
        kind: HostKind,
        kill: Arc<AtomicBool>,
        retry: jc_amuse::chaos::RetryPolicy,
    ) -> WarmHost {
        WarmHost { index, kind, kill, channels: None, supervisor: None, retry }
    }

    /// Build (or rebuild) the worker quad. Clears the kill switch: a
    /// fresh incarnation starts alive.
    pub(crate) fn warm_up(&mut self) -> Result<(), String> {
        // reap any previous incarnation first (processes included)
        self.channels = None;
        self.supervisor = None;
        let guard = |inner: Box<dyn Channel>, kill: &Arc<AtomicBool>| -> Box<dyn Channel> {
            Box::new(GuardedChannel::new(inner, Arc::clone(kill)))
        };
        match &self.kind {
            HostKind::InProcess => {
                // placeholder initial conditions — every session restores
                // its own state over these before running
                let cluster = EmbeddedCluster::build(8, 32, 0.5, 0xC0FFEE + self.index as u64);
                let (g, h, c, s) = cluster.local_workers(false);
                let local = |w: Box<dyn ModelWorker>| -> Box<dyn Channel> {
                    Box::new(LocalChannel::new(w))
                };
                self.channels = Some(HostChannels {
                    gravity: guard(local(g), &self.kill),
                    hydro: guard(local(h), &self.kill),
                    coupling: guard(local(c), &self.kill),
                    stellar: Some(guard(local(s), &self.kill)),
                });
            }
            HostKind::Process { binary } => {
                let specs = ["gravity", "hydro", "coupling", "stellar"]
                    .into_iter()
                    .map(|model| WorkerSpec::new(binary.clone(), model))
                    .collect();
                let mut sup = ProcessSupervisor::new(specs, 0).with_retry(self.retry);
                let mut chans = sup.spawn_all().map_err(|e| {
                    format!("host {}: worker processes failed to launch: {e}", self.index)
                })?;
                // spawn_all returns spec order: gravity, hydro, coupling, stellar
                let stellar = chans.pop().unwrap();
                let coupling = chans.pop().unwrap();
                let hydro = chans.pop().unwrap();
                let gravity = chans.pop().unwrap();
                self.channels = Some(HostChannels {
                    gravity: guard(gravity, &self.kill),
                    hydro: guard(hydro, &self.kill),
                    coupling: guard(coupling, &self.kill),
                    stellar: Some(guard(stellar, &self.kill)),
                });
                self.supervisor = Some(sup);
            }
        }
        self.kill.store(false, Ordering::SeqCst);
        Ok(())
    }

    pub(crate) fn is_killed(&self) -> bool {
        self.kill.load(Ordering::SeqCst)
    }

    /// Trip this host's own kill switch (the chaos policy's self-kill).
    pub(crate) fn trip_kill(&self) {
        self.kill.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_warm(&self) -> bool {
        self.channels.is_some()
    }

    /// Lease the channel quad for one session.
    pub(crate) fn lease(&mut self) -> Option<HostChannels> {
        self.channels.take()
    }

    /// Return the quad after a clean session.
    pub(crate) fn release(&mut self, channels: HostChannels) {
        self.channels = Some(channels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn local_guarded(dead: &Arc<AtomicBool>) -> GuardedChannel {
        let cluster = EmbeddedCluster::build(4, 8, 0.5, 1);
        let (g, _, _, _) = cluster.local_workers(false);
        GuardedChannel::new(Box::new(LocalChannel::new(g)), Arc::clone(dead))
    }

    #[test]
    fn guard_is_transparent_until_killed_then_fails_and_refuses_heal() {
        let dead = Arc::new(AtomicBool::new(false));
        let mut ch = local_guarded(&dead);
        assert!(matches!(ch.call(Request::Ping), Response::Ok { .. }));
        assert!(ch.heal());
        dead.store(true, Ordering::SeqCst);
        assert!(matches!(ch.call(Request::Ping), Response::Error(_)));
        assert!(!ch.heal(), "a killed host must not look healable");
        // two-phase paths fail without desyncing
        ch.submit(Request::Ping);
        assert!(matches!(ch.collect(), Response::Error(_)));
        let mut out = ParticleData::default();
        ch.submit_snapshot();
        assert!(!ch.collect_snapshot_into(&mut out));
    }

    #[test]
    fn a_kill_before_or_during_a_round_trip_fails_it_without_desync() {
        let dead = Arc::new(AtomicBool::new(false));
        let cluster = EmbeddedCluster::build(4, 8, 0.5, 1);
        let (_, _, c, _) = cluster.local_workers(false);
        let mut grav = local_guarded(&dead);
        let mut fi = GuardedChannel::new(Box::new(LocalChannel::new(c)), Arc::clone(&dead));
        let (pos, mass) = (cluster.stars.pos.clone(), cluster.stars.mass.clone());
        let dv = vec![[0.0; 3]; 4];
        let mut snap = ParticleData::default();
        let mut acc = Vec::new();

        // killed before the submit: the inner channel never sees the request
        dead.store(true, Ordering::SeqCst);
        grav.submit_snapshot();
        assert!(!grav.collect_snapshot_into(&mut snap));
        grav.submit_kick_slice(&dv);
        assert!(matches!(grav.collect_kick(), Response::Error(_)));
        fi.submit_compute_kick(&pos, &pos, &mass);
        assert_eq!(fi.collect_accelerations_into(&mut acc), None);
        assert!(!grav.snapshot_into(&mut snap), "the one-shots are the same two legs");
        assert_eq!((grav.stats().calls, fi.stats().calls), (0, 0));

        // killed between submit and collect: the request is in flight, so
        // it is collected (an uncollected one would trip the inner
        // channel's one-outstanding-call assert below) and then failed
        for leg in 0..4 {
            dead.store(false, Ordering::SeqCst);
            match leg {
                0 => grav.submit_snapshot(),
                1 => grav.submit_kick_slice(&dv),
                2 => grav.submit(Request::Ping),
                _ => fi.submit_compute_kick(&pos, &pos, &mass),
            }
            dead.store(true, Ordering::SeqCst);
            match leg {
                0 => assert!(!grav.collect_snapshot_into(&mut snap)),
                1 => assert!(matches!(grav.collect_kick(), Response::Error(_))),
                2 => assert!(matches!(grav.collect(), Response::Error(_))),
                _ => assert_eq!(fi.collect_accelerations_into(&mut acc), None),
            }
        }
        assert_eq!((grav.stats().calls, fi.stats().calls), (3, 1));

        // a re-warmed host: both channels answer again, in step
        dead.store(false, Ordering::SeqCst);
        assert!(grav.snapshot_into(&mut snap));
        assert!(matches!(grav.kick_slice(&dv), Response::Ok { .. }));
        assert!(fi.compute_kick_into(&pos, &pos, &mass, &mut acc).is_some());
        assert_eq!((snap.mass.len(), acc.len()), (4, 4));
    }

    #[test]
    fn health_board_escalates_and_recovers() {
        let board = HealthBoard::new(2);
        assert_eq!(board.record_failure(0), HostHealth::Suspect);
        assert_eq!(board.record_failure(0), HostHealth::Dead);
        assert_eq!(board.record_failure(0), HostHealth::Dead, "dead stays dead");
        assert_eq!(board.snapshot()[1], HostHealth::Healthy);
        board.record_rewarm(0);
        assert_eq!(board.snapshot()[0], HostHealth::Healthy);
        assert_eq!(board.generations(), 1);
        board.record_kill(1);
        assert_eq!(board.snapshot()[1], HostHealth::Dead);
        assert_eq!(board.chaos_kills(), 1);
    }

    #[test]
    fn a_success_after_a_kill_leaves_the_slot_dead_until_it_rewarms() {
        let board = HealthBoard::new(1);
        board.record_failure(0);
        board.record_success(0);
        assert_eq!(board.snapshot()[0], HostHealth::Healthy, "a success clears a strike");
        board.record_kill(0);
        board.record_success(0);
        assert_eq!(board.snapshot()[0], HostHealth::Dead, "a kill stands");
        board.record_rewarm(0);
        assert_eq!(board.snapshot()[0], HostHealth::Healthy);
    }

    #[test]
    fn warm_host_leases_and_rewarm_resets_kill() {
        let kill = Arc::new(AtomicBool::new(false));
        let mut host = WarmHost::new(
            0,
            HostKind::InProcess,
            Arc::clone(&kill),
            jc_amuse::chaos::RetryPolicy::none(),
        );
        host.warm_up().expect("in-process warm-up is infallible");
        let quad = host.lease().expect("warm host has channels");
        assert!(host.lease().is_none(), "one lease at a time");
        host.release(quad);
        kill.store(true, Ordering::SeqCst);
        assert!(host.is_killed());
        host.warm_up().expect("re-warm");
        assert!(!host.is_killed(), "re-warm clears the kill switch");
        assert!(host.is_warm());
    }

    /// Records whether each field request it forwards primes the host.
    struct FieldLog {
        inner: Box<dyn Channel>,
        primes: Rc<RefCell<Vec<bool>>>,
    }

    impl Channel for FieldLog {
        fn submit(&mut self, req: Request) {
            self.inner.submit(req)
        }
        fn collect(&mut self) -> Response {
            self.inner.collect()
        }
        fn stats(&self) -> ChannelStats {
            self.inner.stats()
        }
        fn worker_name(&self) -> String {
            self.inner.worker_name()
        }
        fn submit_field(
            &mut self,
            stars: &ParticleData,
            gas: &ParticleData,
            prime: bool,
            star_range: (usize, usize),
            gas_range: (usize, usize),
        ) {
            self.primes.borrow_mut().push(prime);
            self.inner.submit_field(stars, gas, prime, star_range, gas_range)
        }
        fn collect_accelerations_into(&mut self, out: &mut Vec<[f64; 3]>) -> Option<f64> {
            self.inner.collect_accelerations_into(out)
        }
    }

    /// A leased host's coupling worker holds the masses of the last
    /// session it served. The next session's restore makes it forget
    /// them — a mass-free field request is refused — and that session's
    /// first field request primes it, so it runs the bits of a dedicated
    /// bridge.
    #[test]
    fn a_reused_host_primes_before_its_first_mass_free_field() {
        use jc_amuse::Bridge;
        let mut host = WarmHost::new(
            0,
            HostKind::InProcess,
            Arc::new(AtomicBool::new(false)),
            jc_amuse::chaos::RetryPolicy::none(),
        );
        host.warm_up().expect("in-process warm-up is infallible");
        let primes: Rc<RefCell<Vec<bool>>> = Rc::default();
        let mut quad = host.lease().expect("warm host has channels");
        quad.coupling = Box::new(FieldLog { inner: quad.coupling, primes: primes.clone() });
        host.release(quad);
        // two sessions of the same shape: held masses of the first would
        // fit the second's positions
        let session = |seed: u64| {
            let cluster = EmbeddedCluster::build(12, 36, 0.5, seed);
            let cfg = jc_amuse::BridgeConfig { substeps: 2, ..cluster.bridge_config() };
            (cluster, cfg)
        };
        for seed in [31, 32] {
            primes.borrow_mut().clear();
            let (cluster, cfg) = session(seed);
            let q = host.lease().expect("released after the last session");
            let mut bridge = Bridge::new(q.gravity, q.hydro, q.coupling, q.stellar, cfg.clone());
            bridge.restore(&cluster.initial_checkpoint()).expect("restore");
            let (gravity, hydro, mut coupling, stellar) = bridge.into_channels();
            let (stars, gas) = (cluster.stars.clone(), cluster.gas.clone());
            let set = |mass: &[f64], pos: &[[f64; 3]]| ParticleData {
                mass: mass.to_vec(),
                pos: pos.to_vec(),
                vel: Vec::new(),
            };
            let (stars, gas) = (set(&stars.mass, &stars.pos), set(&gas.mass, &gas.pos));
            coupling.submit_field(&stars, &gas, false, (0, 12), (0, 36));
            let refused = coupling.collect_accelerations_into(&mut Vec::new());
            assert_eq!(refused, None, "seed {seed}: the restore began a new mass epoch");
            primes.borrow_mut().clear();

            let mut bridge = Bridge::new(gravity, hydro, coupling, stellar, cfg.clone());
            for _ in 0..3 {
                bridge.iteration();
            }
            // the cold open primes; its substeps and two warm
            // iterations' substeps do not
            assert_eq!(*primes.borrow(), [true, false, false, false, false, false, false]);
            let (got_stars, got_gas) = bridge.snapshots();
            let (g, h, c, s) = bridge.into_channels();
            host.release(HostChannels { gravity: g, hydro: h, coupling: c, stellar: s });

            let (g, h, c, s) = cluster.local_workers(false);
            let local =
                |w: Box<dyn ModelWorker>| -> Box<dyn Channel> { Box::new(LocalChannel::new(w)) };
            let mut dedicated = Bridge::new(local(g), local(h), local(c), Some(local(s)), cfg);
            for _ in 0..3 {
                dedicated.iteration();
            }
            let (want_stars, want_gas) = dedicated.snapshots();
            assert_eq!((got_stars.pos, got_stars.vel), (want_stars.pos, want_stars.vel));
            assert_eq!((got_gas.pos, got_gas.vel), (want_gas.pos, want_gas.vel));
        }
    }
}
