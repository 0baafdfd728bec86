//! The 4th-order Hermite predictor–corrector integrator (PhiGRAPE), on
//! block time steps.

use crate::kernels::{acc_jerk_scalar, acc_jerk_soa, eval_flops, Backend, Targets, PAR_GRAIN};
use crate::particle::ParticleSet;
use jc_compute::par;
use jc_compute::soa::SoaBodies;

/// No star steps further than this at once (N-body time units).
const DT_MAX: f64 = 1.0e-2;
/// No level is shorter than this; a star that wants less takes the
/// finest level.
const DT_MIN: f64 = 1.0e-8;

/// The block-step clock of one [`PhiGrape::evolve_model`] call. Time is
/// counted in integer ticks of the call's span — one tick is the finest
/// level's step, every level a power-of-two number of them — so "whose
/// step ends first" and "is this tick a multiple of that step" are exact
/// integer questions, and the last block ends on `t_end` itself.
struct Blocks {
    /// Length of one tick: the span over a power of two (exact).
    tick_len: f64,
    /// Ticks in one level-0 step, the largest `span / 2^k <= DT_MAX`.
    top: u64,
    /// The tick of `t_end`.
    end: u64,
    /// The tick every star has been predicted to; all stars are
    /// synchronised there when it is a multiple of `top`.
    now: u64,
}

impl Blocks {
    fn new(span: f64) -> Blocks {
        assert!(span / DT_MIN < (1u64 << 62) as f64, "span {span} overflows the tick clock");
        let mut blocks = 1u64;
        while span / blocks as f64 > DT_MAX {
            blocks *= 2;
        }
        let mut top = 1u64;
        while span / (blocks * top * 2) as f64 >= DT_MIN {
            top *= 2;
        }
        let end = blocks * top;
        Blocks { tick_len: span / end as f64, top, end, now: 0 }
    }

    /// The step, in ticks, of a star that synchronises at `self.now`
    /// with forces `a`, `j`, having just taken `step`: the longest level
    /// within its own Aarseth limit `eta |a| / |j|` — a pure function of
    /// the star's own state, so the schedule depends on the particle set
    /// alone. A step halves freely but doubles at most once, and only
    /// onto a tick that is a multiple of the doubled step, which keeps
    /// every star's steps nested inside the level-0 blocks.
    fn next_step(&self, step: u64, eta: f64, a: &[f64; 3], j: &[f64; 3]) -> u64 {
        let an = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
        let jn = (j[0] * j[0] + j[1] * j[1] + j[2] * j[2]).sqrt();
        let limit = if jn > 0.0 && an > 0.0 { eta * an / jn } else { f64::INFINITY };
        let too_long = |s: u64| s as f64 * self.tick_len > limit;
        if step < self.top && self.now.is_multiple_of(2 * step) && !too_long(2 * step) {
            return 2 * step;
        }
        let mut s = step;
        while s > 1 && too_long(s) {
            s /= 2;
        }
        s
    }
}

/// Reusable per-integrator buffers, held across calls so the
/// steady-state block loop performs no heap allocation on any backend.
#[derive(Default)]
struct HermiteScratch {
    /// Every star predicted to the current block time, in the layout the
    /// backend's kernel scans: SoA columns (with the masses) for the SoA
    /// backends, …
    soa: SoaBodies,
    /// … rows for [`Backend::Scalar`].
    pos: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    /// The tick each star's `particles`/`acc`/`jerk` rows are valid at.
    tick: Vec<u64>,
    /// Each star's current step, in ticks (a power of two).
    step: Vec<u64>,
    /// The stars whose step ends at the current block time, ascending.
    active: Vec<u32>,
    /// Their forces at the predicted state, in `active` order.
    acc1: Vec<[f64; 3]>,
    jerk1: Vec<[f64; 3]>,
}

impl HermiteScratch {
    /// Size every buffer for the particle set — once per call, not per
    /// sub-step.
    fn ensure(&mut self, backend: Backend, mass: &[f64]) {
        let n = mass.len();
        assert!(u32::try_from(n).is_ok(), "active list indexes stars by u32");
        match backend {
            Backend::Scalar => {
                self.pos.resize(n, [0.0; 3]);
                self.vel.resize(n, [0.0; 3]);
            }
            _ => {
                self.soa.mass.copy_from(mass);
                let (p, v) = (&mut self.soa.pos, &mut self.soa.vel);
                for column in [&mut p.x, &mut p.y, &mut p.z, &mut v.x, &mut v.y, &mut v.z] {
                    column.resize(n);
                }
            }
        }
        self.tick.resize(n, 0);
        self.step.resize(n, 0);
        self.active.clear();
        self.active.reserve(n);
        self.acc1.resize(n, [0.0; 3]);
        self.jerk1.resize(n, [0.0; 3]);
    }
}

/// The Hermite predictor: `(pos, vel)` a time `dt` after the state
/// `(p, v)` with forces `(a, j)`.
#[inline(always)]
fn predict(
    p: &[f64; 3],
    v: &[f64; 3],
    a: &[f64; 3],
    j: &[f64; 3],
    dt: f64,
) -> ([f64; 3], [f64; 3]) {
    let (mut pp, mut pv) = ([0.0; 3], [0.0; 3]);
    for k in 0..3 {
        pp[k] = p[k] + v[k] * dt + 0.5 * a[k] * dt * dt + j[k] * dt * dt * dt / 6.0;
        pv[k] = v[k] + a[k] * dt + 0.5 * j[k] * dt * dt;
    }
    (pp, pv)
}

/// The PhiGRAPE-equivalent gravitational dynamics model.
///
/// 4th-order Hermite scheme on block time steps, Plummer softening. Each
/// star steps on its own power-of-two level `dt_0 / 2^k`, the longest
/// within its Aarseth limit `eta |a| / |j|` (level 0 is the largest
/// `span / 2^k <= 1e-2` of the [`PhiGrape::evolve_model`] call, no level
/// is shorter than 1e-8). A sub-step advances to the earliest end of any
/// star's step: every star is predicted there, but only the stars whose
/// step ends there — the *active* ones — have their forces evaluated
/// (active targets × all sources) and are corrected. All quantities in
/// N-body units (G = 1).
pub struct PhiGrape {
    /// The particles. Between calls every star is at
    /// [`PhiGrape::model_time`].
    pub particles: ParticleSet,
    /// Which force backend runs the pair loop.
    pub backend: Backend,
    /// Softening length squared.
    pub eps2: f64,
    /// Timestep accuracy parameter (0.01–0.02 typical).
    pub eta: f64,
    time: f64,
    acc: Vec<[f64; 3]>,
    jerk: Vec<[f64; 3]>,
    scratch: HermiteScratch,
    forces_valid: bool,
    /// Count of force evaluations — one per sub-step, over that
    /// sub-step's active stars only, plus one over every star whenever
    /// the cached forces were invalid at the start of a call.
    pub force_evals: u64,
    /// Accumulated modeled flops: `eval_flops(targets, n)` of every
    /// force evaluation, counting the targets actually evaluated.
    pub flops: f64,
}

impl PhiGrape {
    /// Create an integrator over a particle set.
    pub fn new(particles: ParticleSet, backend: Backend) -> PhiGrape {
        PhiGrape {
            particles,
            backend,
            eps2: 1e-4,
            eta: 0.01,
            time: 0.0,
            acc: Vec::new(),
            jerk: Vec::new(),
            scratch: HermiteScratch::default(),
            forces_valid: false,
            force_evals: 0,
            flops: 0.0,
        }
    }

    /// Set softening length (not squared).
    pub fn with_softening(mut self, eps: f64) -> PhiGrape {
        self.eps2 = eps * eps;
        self
    }

    /// Set the timestep parameter.
    pub fn with_eta(mut self, eta: f64) -> PhiGrape {
        assert!(eta > 0.0 && eta < 1.0);
        self.eta = eta;
        self
    }

    /// Current model time (N-body units).
    pub fn model_time(&self) -> f64 {
        self.time
    }

    /// Forces on the first `scratch.active.len()` rows of
    /// `scratch.acc1`/`jerk1`: the active stars in the field of the
    /// whole predicted set, on at most `threads` workers.
    fn evaluate(&mut self, threads: usize) {
        let s = &mut self.scratch;
        let targets = Targets::Sources(&s.active);
        let na = s.active.len();
        let (acc1, jerk1) = (&mut s.acc1[..na], &mut s.jerk1[..na]);
        match self.backend {
            Backend::Scalar => {
                let mass = &self.particles.mass;
                acc_jerk_scalar(targets, mass, &s.pos, &s.vel, self.eps2, acc1, jerk1)
            }
            _ => acc_jerk_soa(targets, &s.soa, self.eps2, acc1, jerk1, threads),
        }
        self.force_evals += 1;
        self.flops += eval_flops(na, self.particles.len());
    }

    /// Forces on every star at the current state (`scratch` sized by
    /// [`HermiteScratch::ensure`]): the predicted set is the state
    /// itself and every star is active.
    fn refresh_forces(&mut self, threads: usize) {
        let (n, s) = (self.particles.len(), &mut self.scratch);
        match self.backend {
            Backend::Scalar => {
                s.pos.copy_from_slice(&self.particles.pos);
                s.vel.copy_from_slice(&self.particles.vel);
            }
            _ => {
                s.soa.pos.fill_from(&self.particles.pos);
                s.soa.vel.fill_from(&self.particles.vel);
            }
        }
        s.active.clear();
        s.active.extend(0..n as u32);
        self.evaluate(threads);
        self.acc.clone_from(&self.scratch.acc1);
        self.jerk.clone_from(&self.scratch.jerk1);
        self.forces_valid = true;
    }

    /// Start the block clock over `span`: size the scratch, make the
    /// forces valid, and put every star on the level its forces ask for.
    fn begin(&mut self, span: f64, threads: usize) -> Blocks {
        self.scratch.ensure(self.backend, &self.particles.mass);
        if !self.forces_valid {
            self.refresh_forces(threads);
        }
        let blocks = Blocks::new(span);
        self.scratch.tick.fill(0);
        let forces = self.acc.iter().zip(&self.jerk);
        for (step, (a, j)) in self.scratch.step.iter_mut().zip(forces) {
            *step = blocks.next_step(blocks.top, self.eta, a, j);
        }
        blocks
    }

    /// One sub-step: advance the clock to the earliest end of any star's
    /// step, predict every star there, and evaluate and correct the
    /// stars whose step ends there. Forces at the new time are kept for
    /// each corrected star's next step.
    // jc-lint: no-alloc
    fn sub_step(&mut self, blocks: &mut Blocks, threads: usize) {
        let s = &mut self.scratch;
        let ends = s.tick.iter().zip(&s.step).map(|(t, d)| t + d);
        let now = ends.min().expect("evolve_model returns early on an empty set");
        blocks.now = now;

        s.active.clear();
        let p = &self.particles;
        let state = p.pos.iter().zip(&p.vel).zip(self.acc.iter().zip(&self.jerk));
        let mut soa = match self.backend {
            Backend::Scalar => None,
            _ => {
                let (sp, sv) = (&mut s.soa.pos, &mut s.soa.vel);
                let pos = [sp.x.as_mut_slice(), sp.y.as_mut_slice(), sp.z.as_mut_slice()];
                Some((pos, [sv.x.as_mut_slice(), sv.y.as_mut_slice(), sv.z.as_mut_slice()]))
            }
        };
        for (i, ((p0, v0), (a0, j0))) in state.enumerate() {
            if s.tick[i] + s.step[i] == now {
                s.active.push(i as u32);
            }
            let (pp, pv) = predict(p0, v0, a0, j0, (now - s.tick[i]) as f64 * blocks.tick_len);
            match &mut soa {
                None => (s.pos[i], s.vel[i]) = (pp, pv),
                Some((pos, vel)) => {
                    for k in 0..3 {
                        (pos[k][i], vel[k][i]) = (pp[k], pv[k]);
                    }
                }
            }
        }
        self.evaluate(threads);

        // corrector (Hermite 4th order, Makino form) over the active stars
        let s = &mut self.scratch;
        for (&i, (a1, j1)) in s.active.iter().zip(s.acc1.iter().zip(&s.jerk1)) {
            let i = i as usize;
            let dt = s.step[i] as f64 * blocks.tick_len;
            let (pos, vel) = (&mut self.particles.pos[i], &mut self.particles.vel[i]);
            let (a0, j0) = (&mut self.acc[i], &mut self.jerk[i]);
            for k in 0..3 {
                let v0 = vel[k];
                vel[k] = v0 + 0.5 * (a0[k] + a1[k]) * dt + (j0[k] - j1[k]) * dt * dt / 12.0;
                pos[k] = pos[k] + 0.5 * (v0 + vel[k]) * dt + (a0[k] - a1[k]) * dt * dt / 12.0;
            }
            (*a0, *j0) = (*a1, *j1);
            s.tick[i] = now;
            s.step[i] = blocks.next_step(s.step[i], self.eta, a1, j1);
        }
    }

    /// Evolve to absolute model time `t_end` (the AMUSE `evolve_model`
    /// call). The last block ends exactly on `t_end`, so on return every
    /// star is synchronised there and [`PhiGrape::model_time`] is
    /// `t_end` bitwise. Returns the number of sub-steps taken.
    // jc-lint: no-alloc
    pub fn evolve_model(&mut self, t_end: f64) -> u64 {
        assert!(t_end + 1e-15 >= self.time, "cannot integrate backwards");
        let span = t_end - self.time;
        if self.particles.is_empty() || span <= 0.0 {
            self.time = t_end;
            return 0;
        }
        // The worker count is resolved once per request, not once per
        // force evaluation: with `JC_THREADS` set the resolution is an
        // allocating environment read, and the particle count cannot
        // change under an evolve. (`Scalar` never fans out.)
        let threads = match self.backend {
            Backend::Scalar => 1,
            _ => par::threads_for(self.particles.len(), 0, PAR_GRAIN),
        };
        let mut blocks = self.begin(span, threads);
        let mut steps = 0;
        while blocks.now < blocks.end {
            self.sub_step(&mut blocks, threads);
            steps += 1;
            assert!(steps < 10_000_000, "timestep collapse");
        }
        self.time = t_end;
        steps
    }

    /// Overwrite the dynamical state from a checkpoint: replace the
    /// particle columns and set the model clock (which may move
    /// *backwards* — restoring rewinds). Cached forces are discarded, so
    /// the next [`PhiGrape::evolve_model`] refreshes them from the
    /// restored positions exactly as a freshly built integrator would —
    /// restoration is bitwise-transparent at any point where the force
    /// cache is already invalid (after a kick or a mass update, i.e.
    /// every bridge iteration boundary).
    pub fn restore_state(&mut self, particles: ParticleSet, time: f64) {
        self.particles = particles;
        self.time = time;
        self.forces_valid = false;
    }

    /// Apply external velocity kicks (BRIDGE coupling); invalidates the
    /// cached jerk consistency, so forces are refreshed on the next evolve.
    pub fn kick(&mut self, dv: &[[f64; 3]]) {
        self.particles.kick(dv);
        self.forces_valid = false;
    }

    /// Replace a particle's mass (stellar evolution feedback); forces are
    /// refreshed on the next evolve.
    pub fn set_mass(&mut self, i: usize, mass: f64) {
        assert!(mass.is_finite() && mass >= 0.0);
        self.particles.mass[i] = mass;
        self.forces_valid = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::total_energy;
    use crate::plummer::plummer_sphere;

    impl PhiGrape {
        /// The shared-step integrator the block scheme replaced, kept as
        /// the oracle: one Hermite step of size `dt` for *every* star —
        /// predict all, evaluate all, correct all.
        fn step(&mut self, dt: f64) {
            let n = self.particles.len();
            let (pos0, vel0) = (self.particles.pos.clone(), self.particles.vel.clone());
            let (acc0, jerk0) = (self.acc.clone(), self.jerk.clone());
            // predictor
            for i in 0..n {
                for k in 0..3 {
                    self.particles.pos[i][k] = pos0[i][k]
                        + vel0[i][k] * dt
                        + 0.5 * acc0[i][k] * dt * dt
                        + jerk0[i][k] * dt * dt * dt / 6.0;
                    self.particles.vel[i][k] =
                        vel0[i][k] + acc0[i][k] * dt + 0.5 * jerk0[i][k] * dt * dt;
                }
            }
            // evaluate at predicted state
            self.refresh_forces(1);
            // corrector (Hermite 4th order, Makino form)
            for i in 0..n {
                for k in 0..3 {
                    let (a0, a1) = (acc0[i][k], self.acc[i][k]);
                    let (j0, j1) = (jerk0[i][k], self.jerk[i][k]);
                    self.particles.vel[i][k] =
                        vel0[i][k] + 0.5 * (a0 + a1) * dt + (j0 - j1) * dt * dt / 12.0;
                    self.particles.pos[i][k] = pos0[i][k]
                        + 0.5 * (vel0[i][k] + self.particles.vel[i][k]) * dt
                        + (a0 - a1) * dt * dt / 12.0;
                }
            }
            self.time += dt;
        }
    }

    fn state_bits(g: &PhiGrape) -> Vec<u64> {
        let p = &g.particles;
        p.pos.iter().chain(&p.vel).flatten().map(|x| x.to_bits()).collect()
    }

    /// Circular two-body orbit: period 2π for a=1, M=1 (G=1).
    fn binary() -> ParticleSet {
        let mut s = ParticleSet::new();
        // masses 0.5 each, separation 1, circular velocity of each = 0.5·v_rel
        // v_rel = sqrt(M/a) = 1
        s.push(0.5, [-0.5, 0.0, 0.0], [0.0, -0.5, 0.0]);
        s.push(0.5, [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]);
        s
    }

    #[test]
    fn binary_orbit_closes_after_a_period() {
        let mut g = PhiGrape::new(binary(), Backend::Scalar).with_softening(0.0).with_eta(0.005);
        let period = 2.0 * std::f64::consts::PI;
        g.evolve_model(period);
        // back near the start
        let p = &g.particles.pos;
        assert!((p[0][0] + 0.5).abs() < 2e-3, "x0 = {}", p[0][0]);
        assert!(p[0][1].abs() < 2e-3, "y0 = {}", p[0][1]);
    }

    #[test]
    fn energy_conserved_for_plummer_sphere() {
        let ics = plummer_sphere(64, 42);
        let mut g = PhiGrape::new(ics, Backend::CpuParallel).with_softening(0.01).with_eta(0.01);
        let e0 = total_energy(&g.particles, g.eps2);
        g.evolve_model(1.0);
        let e1 = total_energy(&g.particles, g.eps2);
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 1e-3, "energy drift {drift}");
    }

    #[test]
    fn evolve_is_deterministic_across_backends() {
        let run = |b: Backend| {
            let ics = plummer_sphere(32, 7);
            let mut g = PhiGrape::new(ics, b).with_softening(0.01);
            g.evolve_model(0.25);
            g.particles.pos.clone()
        };
        assert_eq!(run(Backend::CpuParallel), run(Backend::GpuModel));
        assert_eq!(run(Backend::CpuParallel), run(Backend::SimdSoa));
        // the in-order reference agrees to rounding, not bitwise
        let (scalar, soa) = (run(Backend::Scalar), run(Backend::CpuParallel));
        for (a, b) in scalar.iter().flatten().zip(soa.iter().flatten()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn kick_changes_momentum_and_invalidates_forces() {
        let mut g = PhiGrape::new(binary(), Backend::Scalar);
        g.evolve_model(0.1);
        let before = g.particles.vel[0];
        g.kick(&[[0.1, 0.0, 0.0], [0.0, 0.0, 0.0]]);
        assert!((g.particles.vel[0][0] - (before[0] + 0.1)).abs() < 1e-15);
        g.evolve_model(0.2); // must not panic; forces refreshed
    }

    #[test]
    fn empty_set_fast_forwards() {
        let mut g = PhiGrape::new(ParticleSet::new(), Backend::Scalar);
        assert_eq!(g.evolve_model(5.0), 0);
        assert_eq!(g.model_time(), 5.0);
    }

    #[test]
    fn flops_accumulate_with_steps() {
        let mut g = PhiGrape::new(binary(), Backend::Scalar);
        g.evolve_model(0.5);
        assert!(g.force_evals > 0);
        assert!(g.flops > 0.0);
    }

    #[test]
    fn every_call_ends_synchronised_on_t_end() {
        let mut g = PhiGrape::new(plummer_sphere(16, 5), Backend::CpuParallel).with_softening(0.01);
        let mut t_end = 0.0;
        for span in [1.0 / 64.0, 1.0 / 3.0, 2.0 * std::f64::consts::PI, 5e-9] {
            t_end += span;
            let steps = g.evolve_model(t_end);
            assert!(steps >= 1, "span {span} took no step");
            assert_eq!(g.model_time().to_bits(), t_end.to_bits(), "after span {span}");
            let tick = g.scratch.tick[0];
            assert!(g.scratch.tick.iter().all(|&t| t == tick), "stars apart after span {span}");
        }
        // a span under the shortest level is one step for everyone
        assert_eq!(g.evolve_model(t_end + 5e-9), 1);
        // and no span is no step
        assert_eq!(g.evolve_model(t_end + 5e-9), 0);
    }

    #[test]
    fn one_level_blocks_reproduce_the_shared_step_integrator_bitwise() {
        // equal masses on a circular orbit: both stars always ask for
        // the same level, so every sub-step is a shared step — and fed
        // the scheduler's own `dt` sequence, the old integrator lands on
        // the same bits
        for backend in [Backend::Scalar, Backend::CpuParallel] {
            let mut block = PhiGrape::new(binary(), backend);
            let mut shared = PhiGrape::new(binary(), backend);
            shared.scratch.ensure(backend, &shared.particles.mass);
            shared.refresh_forces(1);
            let mut blocks = block.begin(0.5, 1);
            while blocks.now < blocks.end {
                let from = blocks.now;
                block.sub_step(&mut blocks, 1);
                assert_eq!(block.scratch.active, [0, 1], "the stars left their shared level");
                shared.step((blocks.now - from) as f64 * blocks.tick_len);
                assert_eq!(state_bits(&block), state_bits(&shared), "{backend:?} at {from}");
            }
            assert!(block.force_evals > 32, "{backend:?} took {} steps", block.force_evals);
        }
    }

    #[test]
    fn unsoftened_binary_closes_its_orbit_on_the_worker_backend() {
        // the SoA kernel reads its targets out of the source columns by
        // index: the self-pair of an unsoftened star has zero separation
        // and must be masked by that index
        let mut g =
            PhiGrape::new(binary(), Backend::CpuParallel).with_softening(0.0).with_eta(0.005);
        g.evolve_model(2.0 * std::f64::consts::PI);
        assert!(state_bits(&g).iter().all(|&b| f64::from_bits(b).is_finite()));
        let p = &g.particles.pos;
        assert!((p[0][0] + 0.5).abs() < 2e-3, "x0 = {}", p[0][0]);
        assert!(p[0][1].abs() < 2e-3, "y0 = {}", p[0][1]);
    }

    #[test]
    fn restore_at_a_kick_boundary_replays_bitwise() {
        let dv: Vec<[f64; 3]> = (0..48).map(|i| [1e-3 * i as f64, -2e-3, 5e-4]).collect();
        let mut g = PhiGrape::new(plummer_sphere(48, 9), Backend::CpuParallel).with_softening(0.01);
        g.evolve_model(0.05);
        g.kick(&dv);
        let (saved, t) = (g.particles.clone(), g.model_time());
        let steps = g.evolve_model(0.1);
        // a fresh integrator restored at the boundary ...
        let mut fresh =
            PhiGrape::new(ParticleSet::new(), Backend::CpuParallel).with_softening(0.01);
        fresh.restore_state(saved.clone(), t);
        assert_eq!(fresh.evolve_model(0.1), steps, "the schedule is a function of the state");
        assert_eq!(state_bits(&fresh), state_bits(&g));
        // ... and the same integrator rewound to it
        g.restore_state(saved, t);
        assert_eq!(g.evolve_model(0.1), steps);
        assert_eq!(state_bits(&fresh), state_bits(&g));
    }

    #[test]
    fn most_stars_sit_out_most_sub_steps() {
        // a regression to "everyone is always active" fails here, not
        // only in a benchmark
        let n = 128;
        let mut g = PhiGrape::new(plummer_sphere(n, 3), Backend::CpuParallel).with_softening(0.01);
        let e0 = total_energy(&g.particles, g.eps2);
        let steps: u64 = (1..=64).map(|i| g.evolve_model(i as f64 / 64.0)).sum();
        let everyone = eval_flops(n, n) * steps as f64;
        assert!(g.flops * 4.0 <= everyone, "{} flops over {steps} sub-steps", g.flops);
        let drift = ((total_energy(&g.particles, g.eps2) - e0) / e0).abs();
        assert!(drift < 1e-3, "energy drift {drift}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The shape of every schedule: each step a star takes starts on
        /// a multiple of its own length, none is longer than the cap,
        /// and a star's step at most doubles from one to the next.
        #[test]
        fn steps_are_nested_capped_and_rise_one_level_at_a_time(
            seed in 0u64..1000,
            n in 2usize..40,
            span in 1e-3f64..0.1,
        ) {
            let mut g = PhiGrape::new(plummer_sphere(n, seed), Backend::Scalar).with_softening(0.01);
            let mut blocks = g.begin(span, 1);
            proptest::prop_assert!(blocks.top as f64 * blocks.tick_len <= DT_MAX);
            proptest::prop_assert!(blocks.tick_len >= DT_MIN);
            while blocks.now < blocks.end {
                let (tick, step) = (g.scratch.tick.clone(), g.scratch.step.clone());
                g.sub_step(&mut blocks, 1);
                proptest::prop_assert!(!g.scratch.active.is_empty());
                for i in 0..n {
                    let took = g.scratch.tick[i] - tick[i];
                    if took == 0 {
                        proptest::prop_assert_eq!(g.scratch.step[i], step[i]);
                        continue;
                    }
                    proptest::prop_assert_eq!(took, step[i]);
                    proptest::prop_assert_eq!(g.scratch.tick[i], blocks.now);
                    proptest::prop_assert!(step[i].is_power_of_two() && step[i] <= blocks.top);
                    proptest::prop_assert_eq!(tick[i] % step[i], 0);
                    proptest::prop_assert!(g.scratch.step[i] <= 2 * step[i]);
                    proptest::prop_assert_eq!(blocks.now % g.scratch.step[i], 0);
                }
            }
            proptest::prop_assert!(g.scratch.tick.iter().all(|&t| t == blocks.end));
        }
    }

    #[test]
    #[should_panic]
    fn backwards_evolution_panics() {
        let mut g = PhiGrape::new(binary(), Backend::Scalar);
        g.evolve_model(1.0);
        g.evolve_model(0.5);
    }
}
