//! The worker RPC surface and the kernel-wrapping workers.

use crate::checkpoint::ModelState;
use jc_nbody::{Backend, ParticleSet, PhiGrape};
use jc_sph::{Gadget, GasParticles};
use jc_stellar::{SseModel, StellarEvent};
use jc_treegrav::TreeGravity;

/// A particle snapshot crossing the coupler↔worker boundary.
#[derive(Clone, Debug, Default)]
pub struct ParticleData {
    /// Masses (kernel units).
    pub mass: Vec<f64>,
    /// Positions.
    pub pos: Vec<[f64; 3]>,
    /// Velocities.
    pub vel: Vec<[f64; 3]>,
}

impl ParticleData {
    /// Wire size: 7 f64 per particle.
    pub fn wire_size(&self) -> u64 {
        (self.mass.len() * 7 * 8) as u64
    }

    /// Overwrite with a copy of the given columns, reusing this
    /// snapshot's buffers (no allocation once warm).
    pub fn copy_from(&mut self, mass: &[f64], pos: &[[f64; 3]], vel: &[[f64; 3]]) {
        self.mass.clear();
        self.mass.extend_from_slice(mass);
        self.pos.clear();
        self.pos.extend_from_slice(pos);
        self.vel.clear();
        self.vel.extend_from_slice(vel);
    }
}

/// An RPC request to a worker (the union over all model types; workers
/// answer [`Response::Unsupported`] for requests outside their interface,
/// like an AMUSE worker missing a function).
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Evolve the model to absolute time `t` (model units: N-body time for
    /// dynamics/hydro, Myr for stellar evolution).
    EvolveTo(f64),
    /// Get a full particle snapshot.
    GetParticles,
    /// Overwrite particle masses (stellar-evolution feedback).
    SetMasses(Vec<f64>),
    /// Apply velocity kicks.
    Kick(Vec<[f64; 3]>),
    /// Compute accelerations of `targets` due to `(source_pos,
    /// source_mass)` — the coupling model's job.
    ComputeKick {
        /// Positions to evaluate at.
        targets: Vec<[f64; 3]>,
        /// Source positions.
        source_pos: Vec<[f64; 3]>,
        /// Source masses.
        source_mass: Vec<f64>,
    },
    /// One bridge substep on a dynamics worker: apply the half-kick `dv`
    /// `n` times — as `n` separate additions, so velocities see the f64
    /// sequence of `n` [`Request::Kick`]s — then evolve to `t`, and
    /// answer [`Response::Stepped`] with the positions the next coupling
    /// field is evaluated at. Served by the worker's host (see
    /// [`crate::host`]), never by [`ModelWorker::handle`].
    Step {
        /// The half-kick, one velocity increment per particle.
        dv: Vec<[f64; 3]>,
        /// Applications of `dv`: 1, or 2 when the closing half-kick of
        /// the previous substep and the opening one of this substep are
        /// the same vector.
        n: u32,
        /// Absolute time to evolve to after the kicks.
        t: f64,
    },
    /// The mutual coupling field of two particle sets, both shipped
    /// once: the accelerations of the stars in `star_range` due to all
    /// gas, followed by those of the gas in `gas_range` due to all
    /// stars, in one [`Response::Accelerations`]. Served by the worker's
    /// host (see [`crate::host`]) as two
    /// [`ModelWorker::compute_kick_into`] evaluations.
    ///
    /// The masses travel once per *mass epoch*: the request that opens
    /// the epoch carries them and *primes* the host, which keeps them;
    /// every later request of the epoch carries positions only and is
    /// evaluated against the masses the host holds. A host that holds
    /// none, or masses of another shape, refuses a mass-free request
    /// with a typed [`Response::Error`].
    ComputeField {
        /// Star positions.
        star_pos: Vec<[f64; 3]>,
        /// Gas positions.
        gas_pos: Vec<[f64; 3]>,
        /// `(star masses, gas masses)` on the priming request of a mass
        /// epoch; `None` on a mass-free one.
        masses: Option<(Vec<f64>, Vec<f64>)>,
        /// `[start, end)` of the star targets to evaluate.
        star_range: (usize, usize),
        /// `[start, end)` of the gas targets to evaluate.
        gas_range: (usize, usize),
    },
    /// Evolve the stellar population to `t_myr`.
    EvolveStars(f64),
    /// Inject thermal energy (supernova feedback).
    InjectEnergy {
        /// Explosion site.
        center: [f64; 3],
        /// Deposition radius.
        radius: f64,
        /// Energy in kernel units.
        energy: f64,
    },
    /// Add a gas particle (stellar winds).
    AddGas {
        /// Position.
        pos: [f64; 3],
        /// Mass.
        mass: f64,
        /// Specific internal energy.
        u: f64,
    },
    /// Serialize the worker's complete model state (checkpoint).
    SaveState,
    /// Overwrite the worker's model state (restore/failover replay).
    LoadState(ModelState),
    /// Shut the worker down.
    Stop,
    /// Terminate the worker's *host* cleanly: a [`crate::WorkerServer`]
    /// exits its accept loop (not just the current session) and a
    /// [`crate::ThreadChannel`] joins its thread. Unlike a kill, the
    /// worker acknowledges first, so teardown is deterministic.
    Shutdown,
}

impl Request {
    /// Simulated wire size of the request.
    pub fn wire_size(&self) -> u64 {
        let body = match self {
            Request::Ping | Request::Stop | Request::Shutdown | Request::GetParticles => 0,
            Request::SaveState => 0,
            Request::LoadState(s) => s.wire_body_size(),
            Request::EvolveTo(_) | Request::EvolveStars(_) => 8,
            Request::SetMasses(m) => 8 * m.len() as u64,
            Request::Kick(k) => 24 * k.len() as u64,
            Request::ComputeKick { targets, source_pos, source_mass } => {
                24 * (targets.len() + source_pos.len()) as u64 + 8 * source_mass.len() as u64
            }
            Request::Step { dv, .. } => 8 + 24 * dv.len() as u64,
            // four range bounds, both sets' positions, then the masses of
            // a priming request
            Request::ComputeField { star_pos, gas_pos, masses, .. } => {
                let mass = masses.as_ref().map_or(0, |(s, g)| s.len() + g.len());
                32 + 24 * (star_pos.len() + gas_pos.len()) as u64 + 8 * mass as u64
            }
            Request::InjectEnergy { .. } => 40,
            Request::AddGas { .. } => 40,
        };
        body + 32 // header
    }

    /// Does handling this request change worker state (or drain
    /// one-shot results, like stellar events)?
    ///
    /// This is the worker-side hook of the idempotent-retry scheme: the
    /// server caches its response to a *mutating* request keyed by the
    /// frame's sequence number, and a resend of the same sequence
    /// number replays the cache instead of re-applying. Non-mutating
    /// requests are pure reads of deterministic state — re-executing
    /// them yields bit-identical bytes, so they need no cache.
    /// `EvolveTo`/`EvolveStars` count as mutating even though the
    /// target time is absolute: a re-run would report different flops
    /// (and `EvolveStars` drains the event queue exactly once). A
    /// priming `ComputeField` sets the host's masses, but to the same
    /// values however often it runs, so a re-run is as good as a replay.
    pub fn mutating(&self) -> bool {
        match self {
            Request::Ping
            | Request::GetParticles
            | Request::ComputeKick { .. }
            | Request::ComputeField { .. }
            | Request::SaveState
            | Request::Stop
            | Request::Shutdown => false,
            Request::EvolveTo(_)
            | Request::EvolveStars(_)
            | Request::SetMasses(_)
            | Request::Kick(_)
            | Request::Step { .. }
            | Request::InjectEnergy { .. }
            | Request::AddGas { .. }
            | Request::LoadState(_) => true,
        }
    }
}

/// A worker's answer.
#[derive(Clone, Debug)]
pub enum Response {
    /// Success without data. Carries the modeled flop cost of the call.
    Ok {
        /// Floating-point work performed.
        flops: f64,
    },
    /// Particle snapshot.
    Particles(ParticleData),
    /// Accelerations (coupling kick result).
    Accelerations {
        /// One acceleration per target.
        acc: Vec<[f64; 3]>,
        /// Work performed.
        flops: f64,
    },
    /// The answer to [`Request::Step`]: where the particles are after
    /// the evolve. Velocities are not sent — the coupling field does not
    /// depend on them — and neither are masses: a step cannot change
    /// them (see [`ModelWorker`]), so the bridge keeps those of its cold
    /// open.
    Stepped {
        /// Positions.
        pos: Vec<[f64; 3]>,
        /// Work performed by the kicks and the evolve.
        flops: f64,
    },
    /// Stellar update.
    StellarUpdate {
        /// Current masses, MSun, per star.
        masses: Vec<f64>,
        /// Events since the last call.
        events: Vec<StellarEvent>,
    },
    /// A serialized model state (checkpoint section).
    State(ModelState),
    /// The worker does not implement this request.
    Unsupported,
    /// The request failed.
    Error(String),
}

impl Response {
    /// Simulated wire size of the response.
    pub fn wire_size(&self) -> u64 {
        let body = match self {
            Response::Ok { .. } => 8,
            Response::Particles(p) => p.wire_size(),
            Response::Accelerations { acc, .. } => 24 * acc.len() as u64,
            Response::Stepped { pos, .. } => 24 * pos.len() as u64,
            Response::StellarUpdate { masses, events } => {
                8 * masses.len() as u64 + 32 * events.len() as u64
            }
            Response::State(s) => s.wire_body_size(),
            Response::Unsupported => 0,
            Response::Error(e) => e.len() as u64,
        };
        body + 32
    }

    /// The modeled flop cost carried by the response (0 when none).
    pub fn flops(&self) -> f64 {
        match self {
            Response::Ok { flops } => *flops,
            Response::Accelerations { flops, .. } => *flops,
            Response::Stepped { flops, .. } => *flops,
            _ => 0.0,
        }
    }
}

/// Borrowed particle columns (mass, position, velocity) as returned by
/// [`ModelWorker::particles`].
pub type ParticleColumns<'a> = (&'a [f64], &'a [[f64; 3]], &'a [[f64; 3]]);

/// A model worker: one kernel behind the RPC boundary.
///
/// A worker is reached through a *host* ([`crate::host::serve`]), which
/// decomposes the composite requests [`Request::Step`] and
/// [`Request::ComputeField`] into the methods below: a worker never
/// sees either, and implements neither.
///
/// [`Request::EvolveTo`] moves particles and must neither change their
/// masses nor their number: only [`Request::SetMasses`],
/// [`Request::AddGas`] and [`Request::LoadState`] may. The bridge relies
/// on this — a [`Response::Stepped`] carries no masses, and the coupling
/// hosts evaluate every substep's field against the masses of the cold
/// open (see [`crate::bridge`]).
///
/// The four borrowed methods — [`ModelWorker::snapshot_into`],
/// [`ModelWorker::particles`], [`ModelWorker::kick_slice`] and
/// [`ModelWorker::compute_kick_into`] — are fast paths every host calls,
/// over every transport: same semantics as the corresponding
/// [`Request`]s but without constructing request/response payload
/// `Vec`s, so the bridge's per-step phases stay allocation-free. A
/// worker that doesn't implement one returns `false`/`None`, and the
/// host falls back to [`ModelWorker::handle`] with the owned request
/// ([`crate::host::step`], [`crate::host::particles`] and the field's
/// kicks).
pub trait ModelWorker {
    /// Execute one request.
    fn handle(&mut self, req: Request) -> Response;
    /// Worker name (shows up in monitoring and job tables).
    fn name(&self) -> String;
    /// Write a particle snapshot into `out` ([`Request::GetParticles`]
    /// fast path).
    fn snapshot_into(&mut self, _out: &mut ParticleData) -> bool {
        false
    }
    /// Borrow the worker's particle arrays in place — the zero-copy
    /// [`Request::GetParticles`] path: the server encodes the snapshot
    /// frame straight from these slices, skipping the intermediate
    /// [`ParticleData`] copy that [`ModelWorker::snapshot_into`] pays.
    /// Must describe exactly the state `snapshot_into` would write.
    fn particles(&self) -> Option<ParticleColumns<'_>> {
        None
    }
    /// Apply velocity kicks from a borrowed slice ([`Request::Kick`] fast
    /// path). Returns the modeled flops, or `None` if unsupported or the
    /// length does not match (the RPC fallback then reports the error).
    fn kick_slice(&mut self, _dv: &[[f64; 3]]) -> Option<f64> {
        None
    }
    /// Compute coupling accelerations into `out`
    /// ([`Request::ComputeKick`] fast path). Returns the modeled flops.
    fn compute_kick_into(
        &mut self,
        _targets: &[[f64; 3]],
        _source_pos: &[[f64; 3]],
        _source_mass: &[f64],
        _out: &mut Vec<[f64; 3]>,
    ) -> Option<f64> {
        None
    }
}

// ---------------------------------------------------------------------------

/// The gravitational-dynamics worker (PhiGRAPE).
pub struct GravityWorker {
    model: PhiGrape,
    label: String,
}

impl GravityWorker {
    /// Wrap a particle set. Every backend runs the same force kernel;
    /// `backend` only names the worker (`phigrape-cpu` or
    /// `phigrape-gpu`).
    pub fn new(particles: ParticleSet, backend: Backend) -> GravityWorker {
        let label = match backend {
            Backend::GpuModel => "phigrape-gpu",
            _ => "phigrape-cpu",
        };
        GravityWorker {
            model: PhiGrape::new(particles).with_softening(0.01),
            label: label.to_string(),
        }
    }

    /// Access the underlying model (diagnostics).
    pub fn model(&self) -> &PhiGrape {
        &self.model
    }
}

impl ModelWorker for GravityWorker {
    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping | Request::Stop | Request::Shutdown => Response::Ok { flops: 0.0 },
            Request::SaveState => {
                let p = &self.model.particles;
                Response::State(ModelState::Gravity {
                    time: self.model.model_time(),
                    mass: p.mass.clone(),
                    pos: p.pos.clone(),
                    vel: p.vel.clone(),
                })
            }
            Request::LoadState(ModelState::Gravity { time, mass, pos, vel }) => {
                if pos.len() != mass.len() || vel.len() != mass.len() {
                    return Response::Error("ragged gravity state".into());
                }
                self.model.restore_state(ParticleSet { mass, pos, vel }, time);
                Response::Ok { flops: 0.0 }
            }
            Request::LoadState(other) => {
                Response::Error(format!("gravity worker cannot load {} state", other.kind()))
            }
            Request::EvolveTo(t) => {
                let f0 = self.model.flops;
                self.model.evolve_model(t);
                Response::Ok { flops: self.model.flops - f0 }
            }
            Request::GetParticles => Response::Particles(ParticleData {
                mass: self.model.particles.mass.clone(),
                pos: self.model.particles.pos.clone(),
                vel: self.model.particles.vel.clone(),
            }),
            Request::SetMasses(m) => {
                if m.len() != self.model.particles.len() {
                    return Response::Error("mass vector length mismatch".into());
                }
                for (i, mi) in m.into_iter().enumerate() {
                    self.model.set_mass(i, mi);
                }
                Response::Ok { flops: 0.0 }
            }
            Request::Kick(dv) => {
                if dv.len() != self.model.particles.len() {
                    return Response::Error("kick vector length mismatch".into());
                }
                self.model.kick(&dv);
                Response::Ok { flops: dv.len() as f64 * 3.0 }
            }
            _ => Response::Unsupported,
        }
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        let p = &self.model.particles;
        out.copy_from(&p.mass, &p.pos, &p.vel);
        true
    }

    fn particles(&self) -> Option<ParticleColumns<'_>> {
        let p = &self.model.particles;
        Some((&p.mass, &p.pos, &p.vel))
    }

    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Option<f64> {
        if dv.len() != self.model.particles.len() {
            return None;
        }
        self.model.kick(dv);
        Some(dv.len() as f64 * 3.0)
    }
}

/// The SPH gas-dynamics worker (Gadget).
pub struct HydroWorker {
    model: Gadget,
}

impl HydroWorker {
    /// Wrap a gas set.
    pub fn new(gas: GasParticles) -> HydroWorker {
        HydroWorker { model: Gadget::new(gas) }
    }

    /// Access the underlying model.
    pub fn model(&self) -> &Gadget {
        &self.model
    }
}

impl ModelWorker for HydroWorker {
    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping | Request::Stop | Request::Shutdown => Response::Ok { flops: 0.0 },
            Request::SaveState => {
                let g = &self.model.gas;
                Response::State(ModelState::Hydro {
                    time: self.model.model_time(),
                    mass: g.mass.clone(),
                    pos: g.pos.clone(),
                    vel: g.vel.clone(),
                    u: g.u.clone(),
                    rho: g.rho.clone(),
                    h: g.h.clone(),
                })
            }
            Request::LoadState(ModelState::Hydro { time, mass, pos, vel, u, rho, h }) => {
                let n = mass.len();
                if [pos.len(), vel.len(), u.len(), rho.len(), h.len()] != [n; 5] {
                    return Response::Error("ragged hydro state".into());
                }
                self.model.restore_state(GasParticles { mass, pos, vel, u, rho, h }, time);
                Response::Ok { flops: 0.0 }
            }
            Request::LoadState(other) => {
                Response::Error(format!("hydro worker cannot load {} state", other.kind()))
            }
            Request::EvolveTo(t) => {
                let f0 = self.model.flops;
                self.model.evolve_model(t);
                Response::Ok { flops: self.model.flops - f0 }
            }
            Request::GetParticles => Response::Particles(ParticleData {
                mass: self.model.gas.mass.clone(),
                pos: self.model.gas.pos.clone(),
                vel: self.model.gas.vel.clone(),
            }),
            Request::Kick(dv) => {
                if dv.len() != self.model.gas.len() {
                    return Response::Error("kick vector length mismatch".into());
                }
                self.model.kick(&dv);
                Response::Ok { flops: dv.len() as f64 * 3.0 }
            }
            Request::InjectEnergy { center, radius, energy } => {
                let n = self.model.inject_energy(center, radius, energy);
                Response::Ok { flops: n as f64 * 10.0 }
            }
            Request::AddGas { pos, mass, u } => {
                self.model.add_mass(pos, mass, u);
                Response::Ok { flops: 10.0 }
            }
            _ => Response::Unsupported,
        }
    }

    fn name(&self) -> String {
        "gadget".into()
    }

    fn snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        let g = &self.model.gas;
        out.copy_from(&g.mass, &g.pos, &g.vel);
        true
    }

    fn particles(&self) -> Option<ParticleColumns<'_>> {
        let g = &self.model.gas;
        Some((&g.mass, &g.pos, &g.vel))
    }

    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Option<f64> {
        if dv.len() != self.model.gas.len() {
            return None;
        }
        self.model.kick(dv);
        Some(dv.len() as f64 * 3.0)
    }
}

/// The stellar-evolution worker (SSE).
pub struct StellarWorker {
    model: SseModel,
}

impl StellarWorker {
    /// Wrap a population of ZAMS masses (MSun) at metallicity `z`.
    pub fn new(masses_msun: Vec<f64>, z: f64) -> StellarWorker {
        StellarWorker { model: SseModel::new(masses_msun, z) }
    }

    /// Access the underlying model.
    pub fn model(&self) -> &SseModel {
        &self.model
    }
}

impl ModelWorker for StellarWorker {
    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping | Request::Stop | Request::Shutdown => Response::Ok { flops: 0.0 },
            Request::SaveState => Response::State(ModelState::Stellar {
                time_myr: self.model.model_time_myr(),
                z: self.model.metallicity(),
                initial_masses: self.model.initial_masses().to_vec(),
                exploded: self.model.exploded().to_vec(),
            }),
            Request::LoadState(ModelState::Stellar { time_myr, z, initial_masses, exploded }) => {
                if initial_masses.len() != exploded.len() {
                    return Response::Error("ragged stellar state".into());
                }
                // the fits assert on these; a bad frame must cost an
                // error response, not the worker
                if let Some(m) = initial_masses.iter().find(|m| !(m.is_finite() && **m > 0.0)) {
                    return Response::Error(format!("invalid stellar state: initial mass {m}"));
                }
                if !(z.is_finite() && z > 0.0) {
                    return Response::Error(format!("invalid stellar state: metallicity {z}"));
                }
                if !(time_myr.is_finite() && time_myr >= 0.0) {
                    return Response::Error(format!("invalid stellar state: time {time_myr} Myr"));
                }
                self.model.restore_state(initial_masses, z, time_myr, exploded);
                Response::Ok { flops: 0.0 }
            }
            Request::LoadState(other) => {
                Response::Error(format!("stellar worker cannot load {} state", other.kind()))
            }
            Request::EvolveStars(t_myr) => {
                let events = self.model.evolve_to(t_myr);
                Response::StellarUpdate {
                    masses: self.model.states().iter().map(|s| s.mass).collect(),
                    events,
                }
            }
            _ => Response::Unsupported,
        }
    }

    fn name(&self) -> String {
        "sse".into()
    }
}

/// The coupling worker: tree gravity of one set acting on another
/// (Octgrav on GPUs, Fi on CPUs — same physics, different placement).
pub struct CouplingWorker {
    solver: TreeGravity,
    label: String,
}

impl CouplingWorker {
    /// The Octgrav personality (GPU-hosted, θ = 0.75).
    pub fn octgrav() -> CouplingWorker {
        CouplingWorker { solver: jc_treegrav::Octgrav::new().solver, label: "octgrav".into() }
    }

    /// The Fi personality (CPU-hosted, θ = 0.5).
    pub fn fi() -> CouplingWorker {
        CouplingWorker { solver: jc_treegrav::Fi::new().solver, label: "fi".into() }
    }
}

impl ModelWorker for CouplingWorker {
    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping | Request::Stop | Request::Shutdown => Response::Ok { flops: 0.0 },
            Request::SaveState => Response::State(ModelState::Stateless),
            Request::LoadState(ModelState::Stateless) => Response::Ok { flops: 0.0 },
            Request::LoadState(other) => {
                Response::Error(format!("coupling worker cannot load {} state", other.kind()))
            }
            Request::ComputeKick { targets, source_pos, source_mass } => {
                if source_pos.len() != source_mass.len() {
                    return Response::Error("source arrays length mismatch".into());
                }
                // the walk `compute_kick_into` runs: owned and borrowed
                // requests must answer bitwise alike
                let mut acc = Vec::new();
                self.solver.accelerations_into(&targets, &source_pos, &source_mass, &mut acc);
                Response::Accelerations { acc, flops: self.solver.last_flops() }
            }
            _ => Response::Unsupported,
        }
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn compute_kick_into(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) -> Option<f64> {
        if source_pos.len() != source_mass.len() {
            return None;
        }
        self.solver.accelerations_into(targets, source_pos, source_mass, out);
        Some(self.solver.last_flops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jc_nbody::plummer::plummer_sphere;
    use jc_sph::particles::plummer_gas;

    #[test]
    fn gravity_worker_round_trip() {
        let mut w = GravityWorker::new(plummer_sphere(16, 1), Backend::CpuParallel);
        match w.handle(Request::GetParticles) {
            Response::Particles(p) => assert_eq!(p.mass.len(), 16),
            other => panic!("{other:?}"),
        }
        match w.handle(Request::EvolveTo(0.05)) {
            Response::Ok { flops } => assert!(flops > 0.0),
            other => panic!("{other:?}"),
        }
        assert!(matches!(w.handle(Request::EvolveStars(1.0)), Response::Unsupported));
    }

    #[test]
    fn hydro_worker_feedback_interface() {
        let mut w = HydroWorker::new(plummer_gas(64, 0.5, 2));
        assert!(matches!(
            w.handle(Request::InjectEnergy { center: [0.0; 3], radius: 0.2, energy: 1.0 }),
            Response::Ok { .. }
        ));
        assert!(matches!(
            w.handle(Request::AddGas { pos: [0.1; 3], mass: 0.01, u: 0.5 }),
            Response::Ok { .. }
        ));
        match w.handle(Request::GetParticles) {
            Response::Particles(p) => assert_eq!(p.mass.len(), 65),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stellar_worker_reports_masses() {
        let mut w = StellarWorker::new(vec![1.0, 20.0], 0.02);
        match w.handle(Request::EvolveStars(5.0)) {
            Response::StellarUpdate { masses, .. } => assert_eq!(masses.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_stellar_state_is_an_error_not_a_panic() {
        use crate::channel::{Channel, LocalChannel};
        let mut ch = LocalChannel::new(Box::new(StellarWorker::new(vec![1.0, 20.0], 0.02)));
        let load = |initial_masses: Vec<f64>, z: f64, time_myr: f64| {
            let exploded = vec![false; initial_masses.len()];
            Request::LoadState(ModelState::Stellar { time_myr, z, initial_masses, exploded })
        };
        let bad = [
            load(vec![1.0, -3.0], 0.02, 5.0),
            load(vec![0.0], 0.02, 5.0),
            load(vec![f64::NAN], 0.02, 5.0),
            load(vec![f64::INFINITY], 0.02, 5.0),
            load(vec![1.0], 0.0, 5.0),
            load(vec![1.0], -0.02, 5.0),
            load(vec![1.0], f64::NAN, 5.0),
            load(vec![1.0], 0.02, -1.0),
            load(vec![1.0], 0.02, f64::NAN),
            load(vec![1.0], 0.02, f64::INFINITY),
        ];
        for req in bad {
            let what = format!("{req:?}");
            match ch.call(req) {
                Response::Error(e) => assert!(e.starts_with("invalid stellar state: "), "{e}"),
                other => panic!("{what} answered {other:?}"),
            }
            // the worker survived, with the state it had
            assert!(matches!(ch.call(Request::Ping), Response::Ok { .. }));
            match ch.call(Request::SaveState) {
                Response::State(ModelState::Stellar { initial_masses, .. }) => {
                    assert_eq!(initial_masses, vec![1.0, 20.0])
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(ch.call(load(vec![2.0, 9.0, 30.0], 0.02, 5.0)), Response::Ok { .. }));
        match ch.call(Request::EvolveStars(6.0)) {
            Response::StellarUpdate { masses, .. } => assert_eq!(masses.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn coupling_worker_computes_kicks() {
        let mut w = CouplingWorker::fi();
        let resp = w.handle(Request::ComputeKick {
            targets: vec![[0.0; 3]],
            source_pos: vec![[0.0, 0.0, 1.0]],
            source_mass: vec![1.0],
        });
        match resp {
            Response::Accelerations { acc, flops } => {
                assert!(acc[0][2] > 0.5);
                assert!(flops > 0.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mismatched_kick_is_error() {
        let mut w = GravityWorker::new(plummer_sphere(4, 3), Backend::CpuParallel);
        assert!(matches!(w.handle(Request::Kick(vec![[0.0; 3]; 2])), Response::Error(_)));
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = Request::Kick(vec![[0.0; 3]; 1]);
        let big = Request::Kick(vec![[0.0; 3]; 100]);
        assert!(big.wire_size() > small.wire_size());
        let p = Response::Particles(ParticleData {
            mass: vec![0.0; 10],
            pos: vec![[0.0; 3]; 10],
            vel: vec![[0.0; 3]; 10],
        });
        assert_eq!(p.wire_size(), 10 * 56 + 32);
    }
}
