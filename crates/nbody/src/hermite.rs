//! The 4th-order Hermite predictor–corrector integrator (PhiGRAPE).

use crate::kernels::{acc_jerk_into_capped, eval_flops, Backend, PAR_GRAIN};
use crate::particle::ParticleSet;
use jc_compute::par;

/// Reusable per-integrator step buffers: saved state for the
/// predictor–corrector plus the force/jerk output slices. Held across
/// steps so the steady-state Hermite step performs no heap allocation
/// on any backend.
#[derive(Default)]
struct HermiteScratch {
    pos0: Vec<[f64; 3]>,
    vel0: Vec<[f64; 3]>,
    acc0: Vec<[f64; 3]>,
    jerk0: Vec<[f64; 3]>,
}

impl HermiteScratch {
    /// Validate/resize every buffer for `n` particles — called once per
    /// step (not per force evaluation).
    fn ensure(&mut self, n: usize) {
        self.pos0.resize(n, [0.0; 3]);
        self.vel0.resize(n, [0.0; 3]);
        self.acc0.resize(n, [0.0; 3]);
        self.jerk0.resize(n, [0.0; 3]);
    }
}

/// The PhiGRAPE-equivalent gravitational dynamics model.
///
/// Shared adaptive timestep (Aarseth criterion over the whole set),
/// Plummer softening, 4th-order Hermite scheme. All quantities in N-body
/// units (G = 1).
pub struct PhiGrape {
    /// The particles.
    pub particles: ParticleSet,
    /// Which force backend runs the N² loop.
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
    /// Count of force evaluations (each is one N² pass), for the
    /// performance model.
    pub force_evals: u64,
    /// Accumulated modeled flops.
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

    /// One force evaluation on `threads` workers (the count
    /// [`PhiGrape::evolve_model`] resolved for the whole request).
    fn refresh_forces(&mut self, threads: usize) {
        let n = self.particles.len();
        self.acc.resize(n, [0.0; 3]);
        self.jerk.resize(n, [0.0; 3]);
        acc_jerk_into_capped(
            self.backend,
            &self.particles.pos,
            &self.particles.vel,
            &self.particles.mass,
            &self.particles.pos,
            &self.particles.vel,
            self.eps2,
            true,
            &mut self.acc,
            &mut self.jerk,
            threads,
        );
        self.force_evals += 1;
        self.flops += eval_flops(n, n);
        self.forces_valid = true;
    }

    /// Aarseth shared timestep from current acc/jerk.
    fn shared_dt(&self) -> f64 {
        let mut dt: f64 = 1.0e-2; // cap
        for (a, j) in self.acc.iter().zip(&self.jerk) {
            let an = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
            let jn = (j[0] * j[0] + j[1] * j[1] + j[2] * j[2]).sqrt();
            if jn > 0.0 && an > 0.0 {
                dt = dt.min(self.eta * an / jn);
            }
        }
        dt.max(1.0e-8)
    }

    /// One Hermite step of size `dt`. Invalidates nothing; forces at the
    /// new time are kept for the next step. State is staged in the
    /// reusable scratch (lengths validated once here, not per force
    /// call), so the steady-state step allocates nothing.
    fn step(&mut self, dt: f64, threads: usize) {
        let n = self.particles.len();
        self.scratch.ensure(n);
        self.scratch.pos0.copy_from_slice(&self.particles.pos);
        self.scratch.vel0.copy_from_slice(&self.particles.vel);
        // the current forces become the step's t0 forces; refresh_forces
        // then overwrites acc/jerk in place at the predicted state
        std::mem::swap(&mut self.scratch.acc0, &mut self.acc);
        std::mem::swap(&mut self.scratch.jerk0, &mut self.jerk);

        // predictor
        for i in 0..n {
            let (pos0, vel0) = (&self.scratch.pos0, &self.scratch.vel0);
            let (acc0, jerk0) = (&self.scratch.acc0, &self.scratch.jerk0);
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
        self.refresh_forces(threads);
        // corrector (Hermite 4th order, Makino form)
        for i in 0..n {
            let (pos0, vel0) = (&self.scratch.pos0, &self.scratch.vel0);
            let (acc0, jerk0) = (&self.scratch.acc0, &self.scratch.jerk0);
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

    /// Evolve to absolute model time `t_end` (the AMUSE `evolve_model`
    /// call). Returns the number of steps taken.
    pub fn evolve_model(&mut self, t_end: f64) -> u64 {
        assert!(t_end + 1e-15 >= self.time, "cannot integrate backwards");
        if self.particles.is_empty() {
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
        if !self.forces_valid {
            self.refresh_forces(threads);
        }
        let mut steps = 0;
        while self.time < t_end - 1e-12 {
            let dt = self.shared_dt().min(t_end - self.time);
            self.step(dt, threads);
            steps += 1;
            assert!(steps < 10_000_000, "timestep collapse");
        }
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
    #[should_panic]
    fn backwards_evolution_panics() {
        let mut g = PhiGrape::new(binary(), Backend::Scalar);
        g.evolve_model(1.0);
        g.evolve_model(0.5);
    }
}
