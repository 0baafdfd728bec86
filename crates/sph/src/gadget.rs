//! The Gadget model: leapfrog KDK over hydro + self-gravity.

use crate::density::{compute_density_with, SphScratch, PAR_GRAIN};
use crate::forces::{hydro_rates_into, HydroRates};
use crate::particles::GasParticles;
use jc_compute::par;
use jc_treegrav::TreeGravity;

/// Courant factor.
const C_COURANT: f64 = 0.25;

/// The Gadget-equivalent SPH model.
pub struct Gadget {
    /// The gas. Read freely; write only through the methods below, which
    /// keep the cached rates and self-gravity in step with it.
    pub gas: GasParticles,
    /// The self-gravity solver. At every gas count a run holds (below
    /// its 4096 crossover) it sums each pair once in mixed precision —
    /// f32 pair math, as the paper's GPU kernels and Gadget-2's `float`
    /// particle data do, with f64 sums — within the error budget of an
    /// f64 direct sum stated in `jc_compute::gravity`.
    gravity: TreeGravity,
    /// Gas self-gravity; only the pure-hydro unit tests turn it off.
    self_gravity: bool,
    /// Configured worker cap (0 = auto); [`Gadget::evolve_model`]
    /// resolves it once per call and hands the result to `scratch` and
    /// `gravity`.
    max_threads: usize,
    time: f64,
    /// Accumulated modeled flops (density + forces + every self-gravity
    /// evaluation actually made — a refresh that reuses `g_acc` charges
    /// none).
    pub flops: f64,
    /// Steps taken.
    pub steps: u64,
    /// Reusable kernel scratch: CSR grid, candidate buffers, neighbour
    /// cache. Held across steps so the hot loop never allocates.
    scratch: SphScratch,
    rates: HydroRates,
    /// Self-gravity of the gas on itself: a pure function of `(pos, mass)`
    /// (bitwise, for any thread count), so it is valid for a *position
    /// epoch* — `g_acc_valid` holds from the refresh that filled it until
    /// positions, masses or the particle count change (the drift,
    /// [`Gadget::restore_state`], [`Gadget::add_mass`]). [`Gadget::kick`]
    /// and [`Gadget::inject_energy`] move no particle and do not end it.
    g_acc: Vec<[f64; 3]>,
    g_acc_valid: bool,
    rates_valid: bool,
}

impl Gadget {
    /// New model over a gas set. Self-gravity on by default.
    pub fn new(gas: GasParticles) -> Gadget {
        Gadget {
            gas,
            gravity: TreeGravity::new(0.6, 0.05),
            self_gravity: true,
            max_threads: 0,
            time: 0.0,
            flops: 0.0,
            steps: 0,
            scratch: SphScratch::new(),
            rates: HydroRates::new(),
            g_acc: Vec::new(),
            g_acc_valid: false,
            rates_valid: false,
        }
    }

    /// Cap the kernel worker threads (1 = strictly sequential; the
    /// steady-state step then performs zero heap allocations).
    pub fn with_max_threads(mut self, threads: usize) -> Gadget {
        self.max_threads = threads;
        self
    }

    /// Current model time.
    pub fn model_time(&self) -> f64 {
        self.time
    }

    fn refresh_rates(&mut self) -> f64 {
        let n = self.gas.len();
        let inter_d = compute_density_with(&mut self.gas, &mut self.scratch);
        hydro_rates_into(&self.gas, &mut self.scratch, &mut self.rates);
        self.flops += inter_d as f64 * 30.0 + self.rates.interactions as f64 * 60.0;
        if self.self_gravity && n > 1 {
            if !self.g_acc_valid {
                self.gravity.self_accelerations_into(
                    &self.gas.pos,
                    &self.gas.mass,
                    &mut self.g_acc,
                );
                self.flops += self.gravity.last_flops();
                self.g_acc_valid = true;
            }
            for (a, ga) in self.rates.acc.iter_mut().zip(&self.g_acc) {
                for k in 0..3 {
                    a[k] += ga[k];
                }
            }
        }
        self.rates_valid = true;
        self.rates.v_signal_max
    }

    fn timestep(&self, v_signal: f64) -> f64 {
        let mut dt: f64 = 5e-3; // cap
        for i in 0..self.gas.len() {
            let h = self.gas.h[i];
            let vs = v_signal.max(self.gas.sound_speed(i)).max(1e-8);
            dt = dt.min(C_COURANT * h / vs);
            let a = self.rates.acc[i];
            let an = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
            if an > 0.0 {
                dt = dt.min(C_COURANT * (h / an).sqrt());
            }
        }
        dt.max(1e-7)
    }

    /// Evolve to absolute time `t_end` (AMUSE `evolve_model`). Returns the
    /// number of KDK steps.
    pub fn evolve_model(&mut self, t_end: f64) -> u64 {
        assert!(t_end + 1e-15 >= self.time, "cannot integrate backwards");
        if self.gas.is_empty() {
            self.time = t_end;
            return 0;
        }
        // The worker count is resolved once per request, not once per
        // kernel pass: with `JC_THREADS` set the resolution is an
        // allocating environment read, and the particle count cannot
        // change under an evolve.
        let threads = par::threads_for(self.gas.len(), self.max_threads, PAR_GRAIN);
        self.scratch.max_threads = threads;
        self.gravity.max_threads = threads;
        let mut vsig =
            if self.rates_valid { self.rates.v_signal_max } else { self.refresh_rates() };
        let mut steps = 0;
        while self.time < t_end - 1e-12 {
            let dt = self.timestep(vsig.max(1e-8)).min(t_end - self.time);
            // kick (half) + drift
            for i in 0..self.gas.len() {
                for k in 0..3 {
                    self.gas.vel[i][k] += 0.5 * dt * self.rates.acc[i][k];
                    self.gas.pos[i][k] += dt * self.gas.vel[i][k];
                }
                self.gas.u[i] = (self.gas.u[i] + 0.5 * dt * self.rates.du[i]).max(1e-10);
            }
            self.g_acc_valid = false;
            // re-evaluate at the drifted state
            vsig = self.refresh_rates();
            // kick (half)
            for i in 0..self.gas.len() {
                for k in 0..3 {
                    self.gas.vel[i][k] += 0.5 * dt * self.rates.acc[i][k];
                }
                self.gas.u[i] = (self.gas.u[i] + 0.5 * dt * self.rates.du[i]).max(1e-10);
            }
            self.time += dt;
            steps += 1;
            self.steps += 1;
            assert!(steps < 10_000_000, "timestep collapse");
        }
        steps
    }

    /// Overwrite the gas state from a checkpoint: replace every particle
    /// column (including the adapted smoothing lengths `h`, which seed
    /// the next density iteration) and set the model clock, which may
    /// move backwards. Cached rates and the cached self-gravity are
    /// discarded, so the next [`Gadget::evolve_model`] re-derives
    /// density/forces/gravity from the restored columns —
    /// bitwise-identical to an uninterrupted run at any point where the
    /// rates cache is already invalid (after a kick or feedback, i.e.
    /// every bridge iteration boundary): self-gravity is a pure function
    /// of the restored `(pos, mass)`, so re-evaluating it reproduces what
    /// the uninterrupted run still holds.
    pub fn restore_state(&mut self, gas: GasParticles, time: f64) {
        self.gas = gas;
        self.time = time;
        self.rates_valid = false;
        self.g_acc_valid = false;
    }

    /// Apply external velocity kicks (BRIDGE coupling). Invalidates the
    /// cached rates (viscosity reads velocities) but moves no particle, so
    /// the cached self-gravity stays valid.
    pub fn kick(&mut self, dv: &[[f64; 3]]) {
        assert_eq!(dv.len(), self.gas.len());
        for (v, d) in self.gas.vel.iter_mut().zip(dv) {
            for k in 0..3 {
                v[k] += d[k];
            }
        }
        self.rates_valid = false;
    }

    /// Inject `energy` (specific-energy × mass units) thermally into the
    /// gas within `radius` of `center` — supernova feedback. Falls back to
    /// the nearest particle when none are in range. Returns the number of
    /// particles heated.
    pub fn inject_energy(&mut self, center: [f64; 3], radius: f64, energy: f64) -> usize {
        if self.gas.is_empty() || energy <= 0.0 {
            return 0;
        }
        // one linear pass: a grid could never amortise a single query
        let d2_of = |p: &[f64; 3]| {
            (p[0] - center[0]).powi(2) + (p[1] - center[1]).powi(2) + (p[2] - center[2]).powi(2)
        };
        let r2 = radius * radius;
        let (mut heated, mut m_tot, mut nearest) = (0usize, 0.0f64, (f64::INFINITY, 0usize));
        for (i, p) in self.gas.pos.iter().enumerate() {
            let d2 = d2_of(p);
            if d2 <= r2 {
                heated += 1;
                m_tot += self.gas.mass[i];
            } else if d2 < nearest.0 {
                nearest = (d2, i);
            }
        }
        if heated == 0 {
            // nothing in range: the nearest particle takes it all
            self.gas.u[nearest.1] += energy / self.gas.mass[nearest.1];
            heated = 1;
        } else {
            for (p, u) in self.gas.pos.iter().zip(&mut self.gas.u) {
                if d2_of(p) <= r2 {
                    // mass-weighted share, converted to specific energy
                    *u += energy / m_tot;
                }
            }
        }
        self.rates_valid = false;
        heated
    }

    /// Add gas mass at a position (stellar winds returning mass to the
    /// ISM). The new particle inherits the local velocity field (zero if
    /// the set is empty).
    pub fn add_mass(&mut self, pos: [f64; 3], mass: f64, u: f64) {
        self.gas.push(mass, pos, [0.0; 3], u.max(1e-10));
        self.rates_valid = false;
        self.g_acc_valid = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::plummer_gas;

    /// A model with gas self-gravity off, for pure hydro tests.
    fn hydro_only(gas: GasParticles) -> Gadget {
        Gadget { self_gravity: false, ..Gadget::new(gas) }
    }

    #[test]
    fn static_uniform_gas_stays_put_briefly() {
        // A pressure-supported ball without gravity expands; with only a
        // short evolution the center of mass must not move.
        let gas = plummer_gas(200, 1.0, 11);
        let mut g = hydro_only(gas);
        g.evolve_model(0.01);
        let mut com = [0.0; 3];
        for (m, p) in g.gas.mass.iter().zip(&g.gas.pos) {
            for k in 0..3 {
                com[k] += m * p[k];
            }
        }
        for c in com {
            assert!(c.abs() < 1e-3, "com drifted: {com:?}");
        }
        assert!(g.steps > 0);
    }

    #[test]
    fn hot_ball_expands() {
        let mut gas = plummer_gas(300, 1.0, 13);
        // superheat it
        for u in &mut gas.u {
            *u *= 50.0;
        }
        let r0 = mean_radius(&gas);
        let mut g = hydro_only(gas);
        g.evolve_model(0.05);
        let r1 = mean_radius(&g.gas);
        assert!(r1 > r0 * 1.02, "expansion: {r0} -> {r1}");
    }

    #[test]
    fn energy_injection_heats_neighborhood() {
        let gas = plummer_gas(300, 1.0, 17);
        let mut g = Gadget::new(gas);
        let e0 = g.gas.thermal_energy();
        let heated = g.inject_energy([0.0, 0.0, 0.0], 0.3, 5.0);
        assert!(heated > 0);
        let e1 = g.gas.thermal_energy();
        assert!(e1 > e0 + 4.0, "thermal energy went {e0} -> {e1}");
    }

    #[test]
    fn injection_far_away_hits_nearest() {
        let gas = plummer_gas(50, 1.0, 19);
        let mut g = Gadget::new(gas);
        let heated = g.inject_energy([100.0, 0.0, 0.0], 0.01, 1.0);
        assert_eq!(heated, 1);
    }

    #[test]
    fn kick_and_add_mass() {
        let gas = plummer_gas(10, 1.0, 23);
        let mut g = Gadget::new(gas);
        let dv = vec![[0.1, 0.0, 0.0]; 10];
        g.kick(&dv);
        assert!(g.gas.kinetic_energy() > 0.0);
        g.add_mass([0.0; 3], 0.05, 0.5);
        assert_eq!(g.gas.len(), 11);
    }

    #[test]
    fn empty_model_fast_forwards() {
        let mut g = Gadget::new(GasParticles::new());
        assert_eq!(g.evolve_model(2.0), 0);
        assert_eq!(g.model_time(), 2.0);
    }

    /// Every bit of dynamical state: all six columns and the clock.
    fn state_bits(g: &Gadget) -> Vec<u64> {
        let gas = &g.gas;
        let scalars = gas.mass.iter().chain(&gas.u).chain(&gas.h).chain(&gas.rho);
        let vectors = gas.pos.iter().chain(&gas.vel).flatten();
        scalars.chain(vectors).chain([&g.time]).map(|v| v.to_bits()).collect()
    }

    #[test]
    fn back_to_back_evolve_keeps_the_signal_velocity() {
        // Split an evolve exactly where its first step ends: the second
        // call must open with the Courant step the uninterrupted loop
        // takes there, i.e. with the signal velocity of the last refresh.
        // The ball is hot outside and cool inside, so the fastest signal
        // belongs to a pair far from the particle whose `h` sets the step
        // and a call that forgets it takes a visibly longer first step.
        let hot_ball = || {
            let mut gas = plummer_gas(200, 1.0, 13);
            for (u, p) in gas.u.iter_mut().zip(&gas.pos) {
                *u *= 1.0 + 200.0 * (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]);
            }
            hydro_only(gas)
        };
        let mut split = hot_ball();
        let v0 = split.refresh_rates();
        let dt1 = split.timestep(v0.max(1e-8));
        assert!(dt1 < 5e-3, "the Courant condition, not the cap, must set the step");
        let t_end = 3.5 * dt1;
        let mut whole = hot_ball();
        whole.evolve_model(t_end);
        assert_eq!(split.evolve_model(dt1), 1);
        assert_eq!(split.model_time(), dt1);
        assert_ne!(
            split.timestep(split.rates.v_signal_max),
            split.timestep(1e-8),
            "the measured signal velocity must be what limits the next step"
        );
        split.evolve_model(t_end);
        assert_eq!(split.steps, whole.steps);
        assert_eq!(state_bits(&split), state_bits(&whole));
    }

    #[test]
    fn gravity_epoch_is_transparent() {
        // One op sequence through three models: `cached` reuses `g_acc`
        // within a position epoch; `fresh` drops it before every op, so
        // each of its refreshes evaluates gravity (all but an evolve's
        // first follow a drift, which ends the epoch anyway); `restored`
        // is `cached` rebuilt from a checkpoint at every point where the
        // rates are invalid.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut cached = Gadget::new(plummer_gas(96, 1.0, 29));
        let mut fresh = Gadget::new(plummer_gas(96, 1.0, 29));
        let mut restored = Gadget::new(GasParticles::new());
        restored.restore_state(cached.gas.clone(), cached.model_time());
        let mut t = 0.0;
        for _ in 0..40 {
            let op = (rnd() * 5.0) as usize;
            fresh.g_acc_valid = false;
            for g in [&mut cached, &mut fresh, &mut restored] {
                match op {
                    0 => {
                        let dv: Vec<[f64; 3]> =
                            (0..g.gas.len()).map(|i| [1e-3 * i as f64, -2e-3, 5e-4]).collect();
                        g.kick(&dv);
                    }
                    1 => assert!(g.inject_energy([0.1, -0.2, 0.0], 0.4, 0.5) > 0),
                    2 => g.add_mass([0.3, 0.1, -0.2], 1e-3, 0.8),
                    3 => g.restore_state(g.gas.clone(), g.model_time()),
                    _ => {
                        g.evolve_model(t + 7e-3);
                    }
                }
            }
            if op >= 4 {
                t += 7e-3;
            } else {
                restored.restore_state(cached.gas.clone(), cached.model_time());
            }
            assert_eq!(state_bits(&cached), state_bits(&fresh), "op {op}: cache changed a result");
            assert_eq!(state_bits(&cached), state_bits(&restored), "op {op}: restore diverged");
        }
        // flops charge the gravity evaluations made, so the gap is the reuse
        assert!(fresh.flops > cached.flops, "no refresh reused the cached gravity");
    }

    #[test]
    fn soa_steps_build_no_neighbour_list() {
        // the SoA force pass stages its pairs straight from the density
        // pass's candidate sets: after warm steps at the benchmark's 512
        // gas and a session's 24, no list was built and none ever sized
        for n in [512, 24] {
            let mut g = Gadget::new(plummer_gas(n, 1.0, 5)).with_max_threads(1);
            g.evolve_model(0.02);
            g.evolve_model(0.025);
            assert!(g.steps > 1, "n={n}: sanity, steps ran");
            assert_eq!(g.scratch.cached_for(), None, "n={n}: a neighbour list was built");
            assert_eq!(g.scratch.list_capacity(), 0, "n={n}: list buffers were sized");
        }
    }

    /// Kinetic, thermal and the gas's own Plummer-softened potential
    /// energy, the potential summed over every pair in f64.
    fn total_energy(g: &Gadget) -> f64 {
        let (gas, eps2) = (&g.gas, g.gravity.eps2);
        let mut potential = 0.0;
        for i in 0..gas.len() {
            for j in i + 1..gas.len() {
                let d: [f64; 3] = std::array::from_fn(|k| gas.pos[j][k] - gas.pos[i][k]);
                let r2s = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2;
                potential -= gas.mass[i] * gas.mass[j] / r2s.sqrt();
            }
        }
        gas.kinetic_energy() + gas.thermal_energy() + potential
    }

    #[test]
    fn mixed_precision_self_gravity_keeps_the_f64_energy_drift() {
        // `(gas, steps, relative energy drift)` of a self-gravitating
        // Plummer ball (seed 7, no kicks, one capped 5e-3 step per call)
        // while self-gravity still summed every pair in f64
        const F64_DRIFT: [(usize, u64, f64); 2] =
            [(512, 60, 0.024333272883873266), (24, 100, -0.0032226244463848318)];
        for (n, steps, f64_drift) in F64_DRIFT {
            let mut g = Gadget::new(plummer_gas(n, 1.0, 7)).with_max_threads(1);
            let e0 = total_energy(&g);
            for _ in 0..steps {
                g.evolve_model(g.model_time() + 5e-3);
            }
            assert_eq!(g.steps, steps, "n={n}: every step sits on the cap");
            let drift = (total_energy(&g) - e0) / e0.abs();
            assert!((drift - f64_drift).abs() <= 1e-5, "n={n}: drift {drift:e}, f64 {f64_drift:e}");
            let mut p = [0.0f64; 3];
            for (m, v) in g.gas.mass.iter().zip(&g.gas.vel) {
                for k in 0..3 {
                    p[k] += m * v[k];
                }
            }
            let p = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
            assert!(p <= 1e-8, "n={n}: total momentum {p:e}");
        }
    }

    fn mean_radius(gas: &GasParticles) -> f64 {
        gas.pos.iter().map(|p| (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt()).sum::<f64>()
            / gas.len() as f64
    }
}
