//! The BRIDGE combined gravitational/hydro/stellar solver (Fig 7).
//!
//! The paper's Fig 7 shows one time step of the combined solver: the gas
//! dynamics and gravitational (stellar) dynamics models *evolve in
//! parallel*, coupled by "p-kick" phases computed by the coupling model;
//! the stellar-evolution model exchanges state only every n-th step,
//! "at a slower rate". This module reproduces that calling sequence over
//! [`Channel`]s, so the identical bridge runs against in-process workers,
//! thread workers, or workers spread across the simulated jungle.
//!
//! # One coupling field per position epoch, one round trip per dependency
//!
//! A p-kick only changes velocities, and the coupling field depends only
//! on positions and masses. A *position epoch* therefore ends only at a
//! request that moves or re-weights particles — an evolve,
//! [`Request::LoadState`], [`Request::SetMasses`], [`Request::AddGas`] —
//! and none of those can occur between the closing kick of substep *i*
//! and the opening kick of substep *i+1*: the two half-kicks are the
//! same vector. So the dataflow of an iteration of `s` substeps is
//! three-deep per substep, and the bridge sends exactly that:
//!
//! ```text
//! open     GetParticles → gravity ‖ GetParticles → hydro     both in flight together
//!   cold   ComputeField{pos, mass} → coupling (K shards)      dv = field · dt/2; primes
//!                                                             the coupling hosts
//! open     nothing sent                                       dv and pos from the previous
//!   warm                                                      iteration's last step
//! substep  Step{dv, n, t} → gravity ‖ Step{dv, n, t} → hydro  kick n times, evolve,
//!   1..s                                                      answer pos
//!          ComputeField{pos} → coupling                       field at the new positions
//! close    Kick(dv) → gravity ‖ Kick(dv) → hydro              the last closing half-kick
//! ```
//!
//! * [`Request::ComputeField`] carries both sets once and is answered by
//!   both acceleration slices, so a field evaluation is one call per
//!   coupling shard and no position travels as a target beside itself
//!   as a source.
//! * [`Request::Step`] is the opening half-kick, the evolve and the
//!   snapshot that opens the next field in one round trip; the answer
//!   carries positions only — the bridge never reads velocities, and
//!   masses cannot change in a step (see the mass epoch below). Substep 1 sends
//!   `n = 1`. From substep 2 on the closing half-kick of the previous
//!   substep rides along as `n = 2`: the worker adds `dv` twice, *as two
//!   separate additions* — `(v + dv) + dv`, not `v + 2·dv`, which rounds
//!   differently — so every velocity sees the same sequence of f64
//!   additions as under the naive kick–evolve–kick loop and all state
//!   stays bitwise equal to it (the naive loop survives as a test
//!   oracle, `tests/bridge_field_reuse.rs`).
//!
//! That is `4 + 2s + K(s+1)` calls per cold iteration over `K` coupling
//! shards (`s+1` field evaluations, `s` steps per dynamics worker, two
//! snapshots, two kicks) at a serial depth of `2s + 3` round trips; the
//! six single-purpose round trips per phase it replaces cost `10s + 4`
//! calls unsharded at depth `10s`. Both composites are served by the
//! worker's *host* ([`crate::host`]), which decomposes them into the
//! same [`crate::worker::ModelWorker`] calls the separate requests
//! made, in the same order: no kernel, digest or flop count can tell
//! the difference. An empty particle set is not a special case — its
//! field is the kernel's answer for no sources, as in the naive loop.
//!
//! The epoch rule holds across iteration boundaries too. After the last
//! step of an iteration only the closing `Kick` runs, and it moves and
//! re-weights nothing, so unless a stellar exchange followed
//! ([`Request::SetMasses`], [`Request::AddGas`]) the next iteration's
//! positions and masses are the ones the bridge holds from that step,
//! and its field is the `dv` it just applied. Such an iteration opens
//! *warm*: it sends nothing and its first step applies that `dv`. After
//! an exchange, and in the first iteration, it opens *cold* with both
//! snapshots and a fresh evaluation. A warm iteration makes
//! `2 + 2s + Ks` calls at a serial depth of `2s + 1`; every kick is the
//! same vector either way, so no bit of state moves.
//!
//! Warm or cold is a pure function of the iteration index — iteration
//! `k + 1` opens warm iff `k ≥ 1` and no exchange ran at `k` — so call
//! and byte accounting stay a pure function of the iterations run. A
//! failed iteration, [`Bridge::heal_channels`] and
//! [`Bridge::replace_channel`] leave the bridge cold. [`Bridge::restore`]
//! runs the open itself when a straight run would open the next
//! iteration warm: the field is a pure function of the restored
//! `(pos, mass)`, so the restored run makes the calls and bytes of the
//! straight run and reaches its bits.
//!
//! # Masses travel once per mass epoch
//!
//! A *mass epoch* runs from a cold open to the next stellar exchange.
//! Nothing inside it re-weights or adds a particle: [`Request::SetMasses`]
//! and [`Request::AddGas`] come only from the exchange, an exchange
//! always makes the next iteration open cold, and a step's evolve may
//! not change masses ([`crate::worker::ModelWorker`]). So the policy is
//! one line: *the open primes, substeps don't*. The cold open's
//! snapshots give the bridge the epoch's masses, which it keeps; its
//! field request is the only one that carries masses, and it primes
//! every coupling host (each shard of a pool) to hold them. Every
//! substep's field request carries positions only, and so does every
//! step's answer. Failures and restores reset nothing by hand: a failed
//! iteration, a heal and a restore all leave the bridge cold (a restore
//! that opens does so through the same priming open), and a respawned
//! or restored host that holds no masses refuses a mass-free request
//! with a typed error instead of answering with another epoch's field.
//!
//! Beyond the paper: the bridge is *fault-tolerant*, removing the §5
//! limitation ("if one worker crashes, the entire simulation crashes").
//! [`Bridge::snapshot`] captures the complete solver state as a
//! [`Checkpoint`] (saveable to a framed binary file);
//! [`Bridge::try_iteration`] reports a dead worker as a [`BridgeError`]
//! instead of aborting; and [`Bridge::iteration_recovering`] closes the
//! loop — heal the channels (shard pools respawn or exclude dead
//! workers), [`Bridge::restore`] the last checkpoint, and replay the
//! iteration. Because every kernel's state is bitwise-restorable at
//! iteration boundaries, a recovered run is bitwise-identical to one
//! that never failed.
//!
//! Recovery is two-tiered. *Transient* transport faults never reach
//! this module: a [`crate::reactor::ReactorChannel`] under a
//! [`crate::chaos::RetryPolicy`] absorbs them by resending the same
//! sequence-numbered frame (deduplicated worker-side, so even mutating
//! requests retry safely). What does reach the bridge is *fatal* —
//! a crashed worker or exhausted retries — and takes the restore
//! path above. See the "Failure model" section of ARCHITECTURE.md for
//! the full fault-site table.

use crate::channel::Channel;
use crate::checkpoint::{Checkpoint, CheckpointError, ModelState, Role};
use crate::worker::{ParticleData, Request, Response};
use jc_stellar::StellarEvent;
use std::time::{Duration, Instant};

/// Supernova thermal energy deposited per event (N-body energy units).
const SN_ENERGY: f64 = 0.2;
/// Supernova deposition radius (N-body length units).
const SN_RADIUS: f64 = 0.2;

/// Bridge configuration.
#[derive(Clone, Debug)]
pub struct BridgeConfig {
    /// Inner bridge timestep (N-body units).
    pub dt: f64,
    /// Substeps per outer iteration (the paper's "single iteration (time
    /// step) of the simulation" contains many inner bridge steps).
    pub substeps: u32,
    /// Exchange stellar-evolution state every this many outer iterations
    /// ("it is performed at a slower rate, only exchanging state every
    /// n-th time step").
    pub stellar_interval: u32,
    /// Myr per N-body time unit (from the cluster's unit converter).
    pub time_unit_myr: f64,
    /// MSun per N-body mass unit.
    pub mass_unit_msun: f64,
    /// Record the call sequence of the next iteration (Fig 7 trace).
    pub trace: bool,
}

impl Default for BridgeConfig {
    fn default() -> BridgeConfig {
        BridgeConfig {
            dt: 1.0 / 64.0,
            substeps: 8,
            stellar_interval: 4,
            time_unit_myr: 1.0,
            mass_unit_msun: 1000.0,
            trace: false,
        }
    }
}

/// A bridge-level failure (a worker died, answered wrongly, or a
/// checkpoint operation failed). Carried by [`Bridge::try_iteration`]
/// so the caller can decide between aborting (the paper's §5 behavior)
/// and recovering ([`Bridge::iteration_recovering`]).
///
/// By the time a failure reaches this type it is *fatal* by
/// definition: transient transport faults (timeouts, dropped
/// connections, torn frames) are absorbed one layer down, where a
/// [`crate::reactor::ReactorChannel`] under a
/// [`crate::chaos::RetryPolicy`] resends the identical sequence-
/// numbered frame in place and the worker deduplicates it. A
/// `BridgeError` therefore means in-place retry was exhausted (or
/// disabled) and the only remaining recovery is the heavy path: heal
/// the channels, restore the last checkpoint, replay the iteration.
#[derive(Clone, Debug)]
pub enum BridgeError {
    /// A worker call failed or answered with the wrong response kind.
    Worker {
        /// Which bridge slot failed.
        role: Role,
        /// The operation that failed ("evolve", "kick", …).
        op: &'static str,
        /// The offending response or error text.
        detail: String,
    },
    /// Serializing or applying a checkpoint failed.
    Checkpoint(String),
    /// Recovery was attempted and gave up (channels could not be healed
    /// or retries were exhausted).
    Unrecoverable {
        /// Recovery attempts made.
        attempts: u32,
        /// The final underlying failure.
        detail: String,
    },
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::Worker { role, op, detail } => {
                write!(f, "{} {op} failed: {detail}", role.label())
            }
            BridgeError::Checkpoint(s) => write!(f, "checkpoint failed: {s}"),
            BridgeError::Unrecoverable { attempts, detail } => {
                write!(f, "unrecoverable after {attempts} recovery attempt(s): {detail}")
            }
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<CheckpointError> for BridgeError {
    fn from(e: CheckpointError) -> BridgeError {
        BridgeError::Checkpoint(e.to_string())
    }
}

/// How [`Bridge::iteration_recovering`] responds to failures.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// Recovery attempts per iteration before giving up.
    pub max_retries: u32,
    /// Take a fresh checkpoint every this many completed iterations
    /// (1 = every iteration; larger trades checkpoint overhead for a
    /// longer replay after a failure).
    pub checkpoint_interval: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy { max_retries: 2, checkpoint_interval: 1 }
    }
}

/// What one outer iteration did.
#[derive(Clone, Debug, Default)]
pub struct IterationReport {
    /// Model time after the iteration (N-body units).
    pub time: f64,
    /// RPC calls made during the iteration.
    pub calls: u64,
    /// Supernovae that fired.
    pub supernovae: u32,
    /// Wind mass-loss events applied.
    pub wind_events: u32,
    /// Coupling fields evaluated (one [`Request::ComputeField`] each):
    /// `substeps + 1` when the iteration opens cold, `substeps` when it
    /// opens warm on the field of the previous closing p-kick (see the
    /// module docs).
    pub coupling_fields: u32,
    /// Opening p-kicks that re-applied the field of the closing p-kick
    /// before them — the [`Request::Step`]s sent with `n = 2`
    /// (`substeps - 1`).
    pub kicks_reapplied: u32,
    /// Call-sequence trace (only when `cfg.trace`).
    pub trace: Vec<String>,
    /// Per-role wall time, indexed by role tag ([`IterationReport::wall`]).
    role_wall: [Duration; 4],
}

impl IterationReport {
    /// Wall time the iteration spent on `role`'s requests: for each
    /// request, the time inside its submit plus the time from the end of
    /// its phase's submits to its collect. Over a pipelined channel the
    /// second part is the model's turnaround; over an in-process one,
    /// which serves a request inside its submit, the first part is the
    /// model's compute. Gravity and hydro are outstanding together over a
    /// pipelined channel, so the roles can sum to more than the
    /// iteration's wall time. Booked at the channel boundaries only: no
    /// clock is read inside a model.
    pub fn wall(&self, role: Role) -> Duration {
        self.role_wall[role.tag() as usize]
    }

    /// Book one request of `role`: `submit` spent in its submit, and the
    /// wait from `submitted` (the end of its phase's submits) to now.
    fn book(&mut self, role: Role, submit: Duration, submitted: Instant) {
        self.role_wall[role.tag() as usize] += submit + submitted.elapsed();
    }

    /// Run one whole request of `role`, submit to collect, and book it.
    fn timed<T>(&mut self, role: Role, request: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let answer = request();
        self.book(role, Duration::ZERO, t0);
        answer
    }
}

/// Reusable buffers for the substeps, held across steps so an iteration
/// over in-process channels constructs no `Vec`s: snapshots and step
/// answers land in reused [`ParticleData`]s, the coupling accelerations
/// in a reused buffer that is then scaled to velocity kicks in place.
#[derive(Default)]
struct KickScratch {
    /// Where the stars are in the current position epoch, with the
    /// masses of the current mass epoch (after the first step: no
    /// velocities).
    stars: ParticleData,
    /// Likewise the gas.
    gas: ParticleData,
    /// The current epoch's half-kick: one entry per star, then one per
    /// gas particle.
    dv: Vec<[f64; 3]>,
}

/// The combined solver.
pub struct Bridge {
    gravity: Box<dyn Channel>,
    hydro: Box<dyn Channel>,
    coupling: Box<dyn Channel>,
    stellar: Option<Box<dyn Channel>>,
    cfg: BridgeConfig,
    time: f64,
    iterations: u64,
    total_supernovae: u32,
    scratch: KickScratch,
    /// `scratch` holds the current position epoch: `pos` from the last
    /// step, the masses of the cold open, and `dv`, the field of the
    /// last closing p-kick, so the next iteration opens warm.
    warm: bool,
}

impl Bridge {
    /// Assemble a bridge from its four workers' channels.
    pub fn new(
        gravity: Box<dyn Channel>,
        hydro: Box<dyn Channel>,
        coupling: Box<dyn Channel>,
        stellar: Option<Box<dyn Channel>>,
        cfg: BridgeConfig,
    ) -> Bridge {
        assert!(cfg.dt > 0.0 && cfg.substeps > 0 && cfg.stellar_interval > 0);
        Bridge {
            gravity,
            hydro,
            coupling,
            stellar,
            cfg,
            time: 0.0,
            iterations: 0,
            total_supernovae: 0,
            scratch: KickScratch::default(),
            warm: false,
        }
    }

    /// Dismantle the bridge and hand back its channels in
    /// [`Bridge::new`] argument order. This is the warm-pool hook: a
    /// service that leases a pooled host's channels for one session
    /// returns them afterwards so the next session reuses the live
    /// workers (their state is overwritten by that session's own
    /// [`Bridge::restore`]).
    #[allow(clippy::type_complexity)]
    pub fn into_channels(
        self,
    ) -> (Box<dyn Channel>, Box<dyn Channel>, Box<dyn Channel>, Option<Box<dyn Channel>>) {
        (self.gravity, self.hydro, self.coupling, self.stellar)
    }

    /// Propagate a per-request wall-clock budget
    /// ([`crate::chaos::RetryPolicy::deadline_ms`], 0 = unbounded) to
    /// every channel, so a session-level deadline bounds each retry
    /// loop underneath the coupler.
    pub fn set_request_deadline(&mut self, deadline_ms: u64) {
        self.gravity.set_deadline(deadline_ms);
        self.hydro.set_deadline(deadline_ms);
        self.coupling.set_deadline(deadline_ms);
        if let Some(s) = &mut self.stellar {
            s.set_deadline(deadline_ms);
        }
    }

    /// Current model time (N-body units).
    pub fn model_time(&self) -> f64 {
        self.time
    }

    /// Iterations completed.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Supernovae so far.
    pub fn total_supernovae(&self) -> u32 {
        self.total_supernovae
    }

    /// Channel statistics: (gravity, hydro, coupling, stellar).
    pub fn channel_stats(
        &self,
    ) -> (
        crate::channel::ChannelStats,
        crate::channel::ChannelStats,
        crate::channel::ChannelStats,
        Option<crate::channel::ChannelStats>,
    ) {
        (
            self.gravity.stats(),
            self.hydro.stats(),
            self.coupling.stats(),
            self.stellar.as_ref().map(|s| s.stats()),
        )
    }

    /// Fetch current snapshots (stars, gas) — for diagnostics between
    /// iterations.
    pub fn snapshots(&mut self) -> (ParticleData, ParticleData) {
        let stars = match self.gravity.call(Request::GetParticles) {
            Response::Particles(p) => p,
            other => panic!("gravity snapshot failed: {other:?}"),
        };
        let gas = match self.hydro.call(Request::GetParticles) {
            Response::Particles(p) => p,
            other => panic!("hydro snapshot failed: {other:?}"),
        };
        (stars, gas)
    }

    /// Run one outer iteration (the unit the paper reports seconds for).
    /// Panics on worker failure — the paper's §5 behavior; use
    /// [`Bridge::try_iteration`] or [`Bridge::iteration_recovering`]
    /// when a failure should be survivable.
    pub fn iteration(&mut self) -> IterationReport {
        self.try_iteration().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run one outer iteration, reporting worker failures instead of
    /// panicking. On `Err` the solver state is *indeterminate* (the
    /// iteration stopped mid-scatter); continue only after healing the
    /// channels and restoring a [`Checkpoint`] — which is exactly what
    /// [`Bridge::iteration_recovering`] does. Channel pipelines are
    /// always left drained, so recovery can issue new calls.
    pub fn try_iteration(&mut self) -> Result<IterationReport, BridgeError> {
        let mut rep = IterationReport::default();
        let calls0 = self.total_calls();
        let half_dt = 0.5 * self.cfg.dt;
        // taken, so a failed iteration leaves the bridge cold
        if std::mem::take(&mut self.warm) {
            self.trace(&mut rep, || "open (warm: field of the previous closing p-kick)".into());
        } else {
            self.open(&mut rep)?;
        }
        for substep in 0..self.cfg.substeps {
            // nothing has moved since the previous substep's closing
            // p-kick: it and this substep's opening p-kick are the same
            // vector, applied twice
            let n = if substep == 0 { 1 } else { 2 };
            rep.kicks_reapplied += n - 1;
            let t_next = self.time + self.cfg.dt;
            self.trace(&mut rep, || {
                let note = if n == 2 { ", field reused" } else { "" };
                format!("p-kick (dt/2 = {half_dt:.5}{note})")
            });
            self.trace(&mut rep, || {
                format!("evolve gravity -> t={t_next:.5} || evolve hydro -> t={t_next:.5}")
            });
            // parallel kick + evolve ("The evolve step can be done in
            // parallel"); both responses are collected before either is
            // judged so the pipelines stay clean even when one worker died
            let (dv_stars, dv_gas) = self.scratch.dv.split_at(self.scratch.stars.mass.len());
            let t0 = Instant::now();
            self.gravity.submit_step(dv_stars, n, t_next);
            let t1 = Instant::now();
            self.hydro.submit_step(dv_gas, n, t_next);
            let t2 = Instant::now();
            let rg = self.gravity.collect_step_into(&mut self.scratch.stars);
            rep.book(Role::Gravity, t1 - t0, t2);
            let rh = self.hydro.collect_step_into(&mut self.scratch.gas);
            rep.book(Role::Hydro, t2 - t1, t2);
            expect_stepped(Role::Gravity, rg, &self.scratch.stars)?;
            expect_stepped(Role::Hydro, rh, &self.scratch.gas)?;
            // the closing p-kick's field; it is applied by the next
            // substep's step, or below
            self.trace(&mut rep, || format!("p-kick (dt/2 = {half_dt:.5})"));
            self.evaluate_field(&mut rep, false)?;
            self.time = t_next;
        }
        let (dv_stars, dv_gas) = self.scratch.dv.split_at(self.scratch.stars.mass.len());
        let t0 = Instant::now();
        self.gravity.submit_kick_slice(dv_stars);
        let t1 = Instant::now();
        self.hydro.submit_kick_slice(dv_gas);
        let t2 = Instant::now();
        let rg = self.gravity.collect_kick();
        rep.book(Role::Gravity, t1 - t0, t2);
        let rh = self.hydro.collect_kick();
        rep.book(Role::Hydro, t2 - t1, t2);
        expect_ok(Role::Gravity, "kick", rg)?;
        expect_ok(Role::Hydro, "kick", rh)?;
        self.iterations += 1;
        let exchange = self.exchange_due(self.iterations);
        if exchange {
            self.stellar_exchange(&mut rep)?;
        }
        // only the exchange moves or re-weights anything after the last step
        self.warm = !exchange;
        rep.time = self.time;
        rep.calls = self.total_calls() - calls0;
        self.total_supernovae += rep.supernovae;
        Ok(rep)
    }

    /// Whether iteration `k` ends with a stellar exchange.
    fn exchange_due(&self, k: u64) -> bool {
        self.stellar.is_some() && k.is_multiple_of(self.cfg.stellar_interval as u64)
    }

    fn total_calls(&self) -> u64 {
        self.gravity.stats().calls
            + self.hydro.stats().calls
            + self.coupling.stats().calls
            + self.stellar.as_ref().map(|s| s.stats().calls).unwrap_or(0)
    }

    /// Record one line of the Fig 7 call sequence (only when
    /// `cfg.trace`).
    fn trace(&self, rep: &mut IterationReport, line: impl FnOnce() -> String) {
        if self.cfg.trace && rep.trace.len() < 64 {
            rep.trace.push(line());
        }
    }

    /// Open cold: where both systems are now and what they weigh, and
    /// the field there — the one field request of the mass epoch that
    /// carries masses, priming the coupling hosts.
    fn open(&mut self, rep: &mut IterationReport) -> Result<(), BridgeError> {
        let t0 = Instant::now();
        self.gravity.submit_snapshot();
        let t1 = Instant::now();
        self.hydro.submit_snapshot();
        let t2 = Instant::now();
        let got_stars = self.gravity.collect_snapshot_into(&mut self.scratch.stars);
        rep.book(Role::Gravity, t1 - t0, t2);
        let got_gas = self.hydro.collect_snapshot_into(&mut self.scratch.gas);
        rep.book(Role::Hydro, t2 - t1, t2);
        if !got_stars {
            return Err(worker_err(Role::Gravity, "snapshot", "no particles"));
        }
        if !got_gas {
            return Err(worker_err(Role::Hydro, "snapshot", "no particles"));
        }
        self.evaluate_field(rep, true)
    }

    /// Evaluate the coupling field at the positions in the scratch —
    /// gas pulling on stars, stars pulling on gas — and scale it to this
    /// epoch's half-kick (`dt/2`) in place. With `prime` the masses
    /// travel too (the cold open). All buffers are the bridge-held
    /// scratch, so over in-process channels this allocates nothing once
    /// warm.
    fn evaluate_field(
        &mut self,
        rep: &mut IterationReport,
        prime: bool,
    ) -> Result<(), BridgeError> {
        let KickScratch { stars, gas, dv } = &mut self.scratch;
        let (n_stars, n_gas) = (stars.pos.len(), gas.pos.len());
        rep.timed(Role::Coupling, || {
            self.coupling.submit_field(stars, gas, prime, (0, n_stars), (0, n_gas));
            self.coupling.collect_accelerations_into(dv)
        })
        .ok_or_else(|| worker_err(Role::Coupling, "compute-field", "no accelerations"))?;
        if dv.len() != n_stars + n_gas {
            return Err(worker_err(
                Role::Coupling,
                "compute-field",
                format!("{} accelerations for {n_stars} stars + {n_gas} gas", dv.len()),
            ));
        }
        let half_dt = 0.5 * self.cfg.dt;
        for a in dv.iter_mut() {
            for k in a {
                *k *= half_dt;
            }
        }
        rep.coupling_fields += 1;
        Ok(())
    }

    /// The slower stellar-evolution exchange.
    fn stellar_exchange(&mut self, rep: &mut IterationReport) -> Result<(), BridgeError> {
        let Some(stellar) = self.stellar.as_mut() else { return Ok(()) };
        if self.cfg.trace && rep.trace.len() < 64 {
            rep.trace.push("stellar exchange (every n-th step)".into());
        }
        let t_myr = self.time * self.cfg.time_unit_myr;
        let update = rep.timed(Role::Stellar, || stellar.call(Request::EvolveStars(t_myr)));
        let (masses_msun, events) = match update {
            Response::StellarUpdate { masses, events } => (masses, events),
            other => return Err(worker_err(Role::Stellar, "evolve", format!("{other:?}"))),
        };
        // where the last step left the stars: same position epoch, no
        // new fetch
        let stars = &self.scratch.stars;
        if masses_msun.len() != stars.mass.len() {
            return Err(worker_err(
                Role::Stellar,
                "evolve",
                format!("population mismatch: {} stars vs {}", masses_msun.len(), stars.mass.len()),
            ));
        }
        // push updated masses into the dynamics (MSun -> N-body units)
        let masses_nb: Vec<f64> = masses_msun.iter().map(|m| m / self.cfg.mass_unit_msun).collect();
        let r = rep.timed(Role::Gravity, || self.gravity.call(Request::SetMasses(masses_nb)));
        expect_ok(Role::Gravity, "set-masses", r)?;
        // feedback into the gas; a lost supernova or wind particle is a
        // failed iteration, not a quieter one
        let mut feedback = |rep: &mut IterationReport, req: Request| {
            let r = rep.timed(Role::Hydro, || self.hydro.call(req));
            expect_ok(Role::Hydro, "feedback", r)
        };
        for ev in events {
            match ev {
                StellarEvent::Supernova { star, ejected_mass, energy_foe: _ } => {
                    rep.supernovae += 1;
                    let pos = stars.pos[star];
                    feedback(
                        rep,
                        Request::InjectEnergy { center: pos, radius: SN_RADIUS, energy: SN_ENERGY },
                    )?;
                    let m_nb = ejected_mass / self.cfg.mass_unit_msun;
                    if m_nb > 0.0 {
                        feedback(
                            rep,
                            Request::AddGas {
                                pos,
                                mass: m_nb,
                                u: SN_ENERGY / m_nb.max(1e-9) * 0.1,
                            },
                        )?;
                    }
                }
                StellarEvent::WindMassLoss { star, mass } => {
                    rep.wind_events += 1;
                    let m_nb = mass / self.cfg.mass_unit_msun;
                    if m_nb > 1e-12 {
                        feedback(
                            rep,
                            Request::AddGas { pos: stars.pos[star], mass: m_nb, u: 1e-3 },
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    // --- checkpoint / restore / failover --------------------------------

    /// Serialize the complete solver state: one [`Request::SaveState`]
    /// round trip per worker plus the coupler's own clock. The result is
    /// bitwise-restorable (see [`Bridge::restore`]) and file-portable
    /// via [`Checkpoint::save`] / [`Bridge::snapshot_to`].
    pub fn snapshot(&mut self) -> Result<Checkpoint, BridgeError> {
        fn save(ch: &mut Box<dyn Channel>, role: Role) -> Result<ModelState, BridgeError> {
            match ch.call(Request::SaveState) {
                Response::State(s) => Ok(s),
                other => Err(worker_err(role, "save-state", format!("{other:?}"))),
            }
        }
        Ok(Checkpoint {
            time: self.time,
            iterations: self.iterations,
            total_supernovae: self.total_supernovae,
            gravity: save(&mut self.gravity, Role::Gravity)?,
            hydro: save(&mut self.hydro, Role::Hydro)?,
            coupling: save(&mut self.coupling, Role::Coupling)?,
            stellar: match &mut self.stellar {
                Some(s) => Some(save(s, Role::Stellar)?),
                None => None,
            },
        })
    }

    /// [`Bridge::snapshot`] straight into a checkpoint container file.
    pub fn snapshot_to(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), BridgeError> {
        let ck = self.snapshot()?;
        ck.save(path).map_err(BridgeError::from)
    }

    /// Overwrite the complete solver state from a checkpoint: one
    /// [`Request::LoadState`] per worker (a sharded pool re-scatters the
    /// state over its live shards) plus the coupler's clock. When a run
    /// that reached the checkpoint straight would open its next
    /// iteration warm (no stellar exchange at `ck.iterations`), the
    /// restore then runs that iteration's open itself — two snapshots
    /// and one field — so the bridge is warm too. After a successful
    /// restore the run continues bitwise-identically to the straight
    /// run, with the same calls and bytes per iteration.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), BridgeError> {
        fn load(
            ch: &mut Box<dyn Channel>,
            role: Role,
            state: &ModelState,
        ) -> Result<(), BridgeError> {
            let r = ch.call(Request::LoadState(state.clone()));
            expect_ok(role, "load-state", r)
        }
        self.warm = false;
        load(&mut self.gravity, Role::Gravity, &ck.gravity)?;
        load(&mut self.hydro, Role::Hydro, &ck.hydro)?;
        load(&mut self.coupling, Role::Coupling, &ck.coupling)?;
        match (&mut self.stellar, &ck.stellar) {
            (Some(ch), Some(state)) => load(ch, Role::Stellar, state)?,
            (None, None) => {}
            (have, want) => {
                return Err(BridgeError::Checkpoint(format!(
                    "stellar worker {} but checkpoint {} a stellar section",
                    if have.is_some() { "present" } else { "absent" },
                    if want.is_some() { "has" } else { "lacks" },
                )))
            }
        }
        self.time = ck.time;
        self.iterations = ck.iterations;
        self.total_supernovae = ck.total_supernovae;
        if ck.iterations > 0 && !self.exchange_due(ck.iterations) {
            // the field is a pure function of the restored (pos, mass)
            self.open(&mut IterationReport::default())?;
            self.warm = true;
        }
        Ok(())
    }

    /// [`Bridge::restore`] from a checkpoint container file.
    pub fn restore_from(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), BridgeError> {
        let ck = Checkpoint::load(path)?;
        self.restore(&ck)
    }

    /// Replace one worker channel (failover for non-sharded channels:
    /// the §6 scenario layer swaps in a channel to a re-deployed worker
    /// after a host crash). The new worker's state is undefined until
    /// the next [`Bridge::restore`].
    pub fn replace_channel(&mut self, role: Role, ch: Box<dyn Channel>) {
        self.warm = false;
        match role {
            Role::Gravity => self.gravity = ch,
            Role::Hydro => self.hydro = ch,
            Role::Coupling => self.coupling = ch,
            Role::Stellar => self.stellar = Some(ch),
        }
    }

    /// Heal every channel (heartbeat + shard respawn/exclusion); `true`
    /// when all four ended up alive.
    pub fn heal_channels(&mut self) -> bool {
        self.warm = false;
        // probe all of them even after a failure, so one heal pass
        // repairs as much as it can
        let g = self.gravity.heal();
        let h = self.hydro.heal();
        let c = self.coupling.heal();
        let s = self.stellar.as_mut().map(|s| s.heal()).unwrap_or(true);
        g && h && c && s
    }

    /// One fault-tolerant outer iteration: run, and on failure heal →
    /// restore `checkpoint` → replay, up to `policy.max_retries` times.
    ///
    /// `checkpoint` is the caller-held last-known-good state; it is
    /// taken automatically before the first iteration and refreshed
    /// every `policy.checkpoint_interval` completed iterations. With an
    /// interval above 1 a recovery rewinds several iterations; the
    /// replay then catches back up to the iteration this call was asked
    /// to run, so the caller's iteration count stays truthful whatever
    /// the interval. Returns the iteration report plus the number of
    /// recoveries it needed (0 = clean run).
    pub fn iteration_recovering(
        &mut self,
        checkpoint: &mut Option<Checkpoint>,
        policy: &RecoveryPolicy,
    ) -> Result<(IterationReport, u32), BridgeError> {
        if checkpoint.is_none() {
            *checkpoint = Some(self.snapshot()?);
        }
        let target = self.iterations + 1;
        let mut attempts = 0u32;
        loop {
            let result = (|| -> Result<IterationReport, BridgeError> {
                // after a rewind to an older checkpoint this replays
                // every lost iteration, not just the one that failed
                let mut rep = self.try_iteration()?;
                while self.iterations < target {
                    rep = self.try_iteration()?;
                }
                let due = policy.checkpoint_interval <= 1
                    || self.iterations.is_multiple_of(policy.checkpoint_interval);
                if due {
                    *checkpoint = Some(self.snapshot()?);
                }
                Ok(rep)
            })();
            match result {
                Ok(rep) => return Ok((rep, attempts)),
                Err(e) => {
                    attempts += 1;
                    if attempts > policy.max_retries {
                        return Err(BridgeError::Unrecoverable {
                            attempts: attempts - 1,
                            detail: e.to_string(),
                        });
                    }
                    if !self.heal_channels() {
                        return Err(BridgeError::Unrecoverable {
                            attempts,
                            detail: format!("channels could not be healed after: {e}"),
                        });
                    }
                    let ck = checkpoint.as_ref().expect("checkpoint taken above");
                    self.restore(ck)?;
                }
            }
        }
    }
}

fn worker_err(role: Role, op: &'static str, detail: impl Into<String>) -> BridgeError {
    BridgeError::Worker { role, op, detail: detail.into() }
}

/// Require an `Ok` step answer with one position per mass the bridge
/// holds: a step that changed the particle count broke the worker
/// contract the mass epoch relies on.
fn expect_stepped(role: Role, resp: Response, set: &ParticleData) -> Result<(), BridgeError> {
    expect_ok(role, "step", resp)?;
    if set.pos.len() != set.mass.len() {
        return Err(worker_err(
            role,
            "step",
            format!(
                "{} positions for the {} masses of the mass epoch",
                set.pos.len(),
                set.mass.len()
            ),
        ));
    }
    Ok(())
}

/// Require an `Ok` response; anything else becomes a [`BridgeError`].
fn expect_ok(role: Role, op: &'static str, resp: Response) -> Result<(), BridgeError> {
    match resp {
        Response::Ok { .. } => Ok(()),
        other => Err(worker_err(role, op, format!("{other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::LocalChannel;
    use crate::cluster::EmbeddedCluster;

    fn small_bridge(trace: bool) -> Bridge {
        let cluster = EmbeddedCluster::build(32, 128, 0.5, 5);
        let mut cfg = cluster.bridge_config();
        cfg.substeps = 2;
        cfg.stellar_interval = 1;
        cfg.trace = trace;
        let (g, h, c, s) = cluster.local_workers(false);
        Bridge::new(
            Box::new(LocalChannel::new(g)),
            Box::new(LocalChannel::new(h)),
            Box::new(LocalChannel::new(c)),
            Some(Box::new(LocalChannel::new(s))),
            cfg,
        )
    }

    #[test]
    fn iteration_advances_time_and_counts_calls() {
        let mut b = small_bridge(false);
        let rep = b.iteration();
        assert!(rep.time > 0.0);
        assert!(rep.calls > 10, "calls = {}", rep.calls);
        assert_eq!(b.iterations(), 1);
    }

    #[test]
    fn every_role_books_wall_time_in_process() {
        let mut b = small_bridge(false);
        for _ in 0..2 {
            let rep = b.iteration();
            for role in [Role::Gravity, Role::Hydro, Role::Coupling, Role::Stellar] {
                assert!(rep.wall(role) > Duration::ZERO, "{}: {:?}", role.label(), rep);
            }
        }
    }

    /// What each line of an iteration's trace records.
    fn trace_kinds(rep: &IterationReport) -> Vec<&'static str> {
        rep.trace
            .iter()
            .map(|l| match l {
                l if l.starts_with("open (warm") => "warm-open",
                l if l.contains("field reused") => "reuse",
                l if l.starts_with("p-kick") => "kick",
                l if l.starts_with("evolve") => "evolve",
                _ => "stellar",
            })
            .collect()
    }

    #[test]
    fn trace_shows_fig7_sequence() {
        let mut b = small_bridge(true);
        let rep = b.iteration();
        let joined = rep.trace.join("\n");
        assert!(joined.contains("p-kick"), "{joined}");
        assert!(joined.contains("evolve gravity"), "{joined}");
        assert!(joined.contains("||"), "parallel marker: {joined}");
        assert!(joined.contains("stellar exchange"), "{joined}");
        // kick-evolve-kick within each of the two substeps; only the
        // second substep's opening kick reuses the field
        assert_eq!(
            trace_kinds(&rep),
            ["kick", "evolve", "kick", "reuse", "evolve", "kick", "stellar"]
        );
        assert_eq!((rep.coupling_fields, rep.kicks_reapplied), (3, 1));
    }

    #[test]
    fn trace_shows_a_warm_open_after_an_iteration_without_exchange() {
        let mut b = small_bridge(true);
        b.cfg.stellar_interval = 2;
        // iteration 1 opens cold and ends without an exchange ...
        let rep = b.iteration();
        assert_eq!(trace_kinds(&rep), ["kick", "evolve", "kick", "reuse", "evolve", "kick"]);
        assert_eq!((rep.coupling_fields, rep.kicks_reapplied), (3, 1));
        // ... so iteration 2 opens on its last field
        let rep = b.iteration();
        assert_eq!(rep.trace[0], "open (warm: field of the previous closing p-kick)");
        assert_eq!(
            trace_kinds(&rep),
            ["warm-open", "kick", "evolve", "kick", "reuse", "evolve", "kick", "stellar"]
        );
        assert_eq!((rep.coupling_fields, rep.kicks_reapplied), (2, 1));
    }

    #[test]
    fn stellar_exchange_respects_interval() {
        let cluster = EmbeddedCluster::build(16, 64, 0.5, 6);
        let mut cfg = cluster.bridge_config();
        cfg.substeps = 1;
        cfg.stellar_interval = 3;
        let (g, h, c, s) = cluster.local_workers(false);
        let mut b = Bridge::new(
            Box::new(LocalChannel::new(g)),
            Box::new(LocalChannel::new(h)),
            Box::new(LocalChannel::new(c)),
            Some(Box::new(LocalChannel::new(s))),
            cfg,
        );
        b.iteration();
        b.iteration();
        let (.., stellar) = b.channel_stats();
        assert_eq!(stellar.unwrap().calls, 0, "no stellar exchange before 3rd iteration");
        b.iteration();
        let (.., stellar) = b.channel_stats();
        assert_eq!(stellar.unwrap().calls, 1);
    }

    #[test]
    fn checkpoint_restore_is_bitwise_transparent() {
        // reference: run 4 iterations straight through
        let mut reference = small_bridge(false);
        for _ in 0..4 {
            reference.iteration();
        }
        let (ref_stars, ref_gas) = reference.snapshots();

        // replayed: run 2, checkpoint, run 2, rewind, run the last 2 again
        let mut b = small_bridge(false);
        b.iteration();
        b.iteration();
        let ck = b.snapshot().unwrap();
        b.iteration();
        b.iteration();
        b.restore(&ck).unwrap();
        assert_eq!(b.iterations(), 2);
        assert_eq!(b.model_time(), ck.time);
        b.iteration();
        b.iteration();
        let (stars, gas) = b.snapshots();
        assert_eq!(stars.pos, ref_stars.pos, "star positions replay bitwise");
        assert_eq!(stars.vel, ref_stars.vel);
        assert_eq!(stars.mass, ref_stars.mass);
        assert_eq!(gas.pos, ref_gas.pos, "gas positions replay bitwise");
        assert_eq!(gas.vel, ref_gas.vel);
        assert_eq!(b.total_supernovae(), reference.total_supernovae());
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let mut b = small_bridge(false);
        b.iteration();
        let ck = b.snapshot().unwrap();
        let path = std::env::temp_dir().join(format!("jc-ck-{}.bin", std::process::id()));
        ck.save(&path).unwrap();
        let back = crate::checkpoint::Checkpoint::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(format!("{ck:?}"), format!("{back:?}"));
        b.restore(&back).unwrap();
    }

    #[test]
    fn bridge_conserves_momentum_reasonably() {
        let mut b = small_bridge(false);
        for _ in 0..2 {
            b.iteration();
        }
        let (stars, gas) = b.snapshots();
        let mut p = [0.0f64; 3];
        for (m, v) in stars.mass.iter().zip(&stars.vel) {
            for k in 0..3 {
                p[k] += m * v[k];
            }
        }
        for (m, v) in gas.mass.iter().zip(&gas.vel) {
            for k in 0..3 {
                p[k] += m * v[k];
            }
        }
        // tree-approximated kicks are not exactly antisymmetric; allow a
        // small tolerance relative to the system's momentum scale (~sigma)
        let ptot = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
        assert!(ptot < 0.05, "momentum drift {ptot}");
    }
}
