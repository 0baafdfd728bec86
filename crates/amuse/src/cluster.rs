//! The embedded-star-cluster experiment (§6, Fig 6).
//!
//! "an early star cluster is simulated, including the gas from which the
//! stars formed. The stars interact with the gas, which is eventually
//! pushed out of the cluster completely. Also, the stars themselves evolve,
//! leading to several of the bigger stars exploding in a supernova during
//! the simulation."

use crate::bridge::BridgeConfig;
use crate::checkpoint::{Checkpoint, ModelState};
use crate::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ModelWorker, ParticleData, StellarWorker,
};
use jc_nbody::plummer::{plummer_sphere, salpeter_imf, virialize};
use jc_nbody::{Backend, ParticleSet};
use jc_sph::particles::plummer_gas;
use jc_sph::GasParticles;

/// The assembled initial conditions plus their physical scales.
pub struct EmbeddedCluster {
    /// Star dynamics initial conditions (N-body units).
    pub stars: ParticleSet,
    /// ZAMS masses of the same stars, MSun (for SSE).
    pub star_masses_msun: Vec<f64>,
    /// Gas initial conditions (N-body units).
    pub gas: GasParticles,
    /// MSun per N-body mass unit.
    pub mass_unit_msun: f64,
    /// Myr per N-body time unit.
    pub time_unit_myr: f64,
}

impl EmbeddedCluster {
    /// Metallicity of the stellar population (solar).
    pub const METALLICITY: f64 = 0.02;

    /// Build a cluster of `n_stars` stars embedded in `n_gas` gas
    /// particles, with `gas_fraction` of the total mass in gas.
    ///
    /// Stellar masses are drawn from a Salpeter IMF in [0.3, 60] MSun; the
    /// total cluster mass (stars + gas) sets the N-body mass unit; the
    /// length unit is 1 parsec.
    pub fn build(n_stars: usize, n_gas: usize, gas_fraction: f64, seed: u64) -> EmbeddedCluster {
        assert!(n_stars > 0 && n_gas > 0);
        assert!((0.0..1.0).contains(&gas_fraction));
        // physical stellar masses
        let star_masses_msun = salpeter_imf(n_stars, 0.3, 60.0, seed);
        let stars_total_msun: f64 = star_masses_msun.iter().sum();
        let total_msun = stars_total_msun / (1.0 - gas_fraction);
        let gas_total_msun = total_msun * gas_fraction;

        // star dynamics: Plummer positions/velocities, IMF masses scaled
        // so the stars sum to (1 - f) in N-body units
        let mut stars = plummer_sphere(n_stars, seed);
        for (m, msun) in stars.mass.iter_mut().zip(&star_masses_msun) {
            *m = msun / total_msun;
        }
        virialize(&mut stars, 1e-4);

        // gas: Plummer sphere of total mass f
        let gas = plummer_gas(n_gas, gas_total_msun / total_msun, seed.wrapping_add(1));

        EmbeddedCluster {
            stars,
            star_masses_msun,
            gas,
            mass_unit_msun: total_msun,
            time_unit_myr: nbody_time_unit_myr(total_msun),
        }
    }

    /// A bridge configuration consistent with this cluster's units.
    pub fn bridge_config(&self) -> BridgeConfig {
        BridgeConfig {
            time_unit_myr: self.time_unit_myr,
            mass_unit_msun: self.mass_unit_msun,
            ..BridgeConfig::default()
        }
    }

    /// Instantiate the four workers locally. `use_gpu` picks the
    /// GPU-flavoured kernels (PhiGRAPE-GPU + Octgrav) versus the CPU pair
    /// (PhiGRAPE-CPU + Fi) — the §6.2 kernel switch.
    #[allow(clippy::type_complexity)]
    pub fn local_workers(
        &self,
        use_gpu: bool,
    ) -> (Box<dyn ModelWorker>, Box<dyn ModelWorker>, Box<dyn ModelWorker>, Box<dyn ModelWorker>)
    {
        let backend = if use_gpu { Backend::GpuModel } else { Backend::CpuParallel };
        let gravity = Box::new(GravityWorker::new(self.stars.clone(), backend));
        let hydro = Box::new(HydroWorker::new(self.gas.clone()));
        let coupling: Box<dyn ModelWorker> = if use_gpu {
            Box::new(CouplingWorker::octgrav())
        } else {
            Box::new(CouplingWorker::fi())
        };
        let stellar =
            Box::new(StellarWorker::new(self.star_masses_msun.clone(), Self::METALLICITY));
        (gravity, hydro, coupling, stellar)
    }

    /// The t=0 checkpoint of this cluster: exactly what a `SaveState` of
    /// freshly built [`EmbeddedCluster::local_workers`] (either kernel
    /// flavour) answers, assembled from the columns without building a
    /// worker. Restoring it onto warm workers *is* placing the cluster.
    pub fn initial_checkpoint(&self) -> Checkpoint {
        let (stars, gas) = (&self.stars, &self.gas);
        Checkpoint {
            time: 0.0,
            iterations: 0,
            total_supernovae: 0,
            gravity: ModelState::Gravity {
                time: 0.0,
                mass: stars.mass.clone(),
                pos: stars.pos.clone(),
                vel: stars.vel.clone(),
            },
            hydro: ModelState::Hydro {
                time: 0.0,
                mass: gas.mass.clone(),
                pos: gas.pos.clone(),
                vel: gas.vel.clone(),
                u: gas.u.clone(),
                rho: gas.rho.clone(),
                h: gas.h.clone(),
            },
            coupling: ModelState::Stateless,
            stellar: Some(ModelState::Stellar {
                time_myr: 0.0,
                z: Self::METALLICITY,
                initial_masses: self.star_masses_msun.clone(),
                exploded: vec![false; self.star_masses_msun.len()],
            }),
        }
    }
}

/// Myr per N-body (Hénon) time unit for a mass unit of `mass_msun` MSun
/// and a length unit of 1 pc: G = 1 in code units fixes
/// `t = sqrt(L³ / (G·M))`. The cluster's coupler carries N-body units, so
/// this one scale (for stellar-evolution time) is all it converts.
fn nbody_time_unit_myr(mass_msun: f64) -> f64 {
    const PC_M: f64 = 3.085_677_581_49e16;
    const MSUN_KG: f64 = 1.988_47e30;
    const MYR_S: f64 = 3.155_76e13;
    const G_SI: f64 = 6.674_30e-11; // m³ kg⁻¹ s⁻²
    (PC_M.powi(3) / (G_SI * (mass_msun * MSUN_KG))).sqrt() / MYR_S
}

/// Fraction of the gas mass that is energetically bound to the combined
/// (stars + gas) system: specific energy ½v² + φ < 0. This is the Fig 6
/// observable — it decays towards zero as feedback expels the gas.
pub fn bound_gas_fraction(stars: &ParticleData, gas: &ParticleData) -> f64 {
    if gas.mass.is_empty() {
        return 0.0;
    }
    // potential from all matter, direct sum (diagnostic-only O(N²))
    let mut src_pos: Vec<[f64; 3]> = Vec::with_capacity(stars.pos.len() + gas.pos.len());
    let mut src_mass: Vec<f64> = Vec::with_capacity(src_pos.capacity());
    src_pos.extend_from_slice(&stars.pos);
    src_pos.extend_from_slice(&gas.pos);
    src_mass.extend_from_slice(&stars.mass);
    src_mass.extend_from_slice(&gas.mass);
    let eps2 = 1e-4;
    let mut bound_mass = 0.0;
    let total: f64 = gas.mass.iter().sum();
    for i in 0..gas.mass.len() {
        let p = gas.pos[i];
        let v = gas.vel[i];
        let mut phi = 0.0;
        for (sp, sm) in src_pos.iter().zip(&src_mass) {
            let d = [sp[0] - p[0], sp[1] - p[1], sp[2] - p[2]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2;
            phi -= sm / r2.sqrt();
        }
        // remove self-interaction (gas particle i is in the source list)
        phi += gas.mass[i] / eps2.sqrt();
        let e = 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) + phi;
        if e < 0.0 {
            bound_mass += gas.mass[i];
        }
    }
    bound_mass / total
}

/// Half-mass radius of a snapshot (about its center of mass).
pub fn half_mass_radius(data: &ParticleData) -> f64 {
    if data.mass.is_empty() {
        return 0.0;
    }
    let mt: f64 = data.mass.iter().sum();
    let mut com = [0.0; 3];
    for (m, p) in data.mass.iter().zip(&data.pos) {
        for k in 0..3 {
            com[k] += m * p[k] / mt;
        }
    }
    let mut rm: Vec<(f64, f64)> = data
        .pos
        .iter()
        .zip(&data.mass)
        .map(|(p, m)| {
            let d = [p[0] - com[0], p[1] - com[1], p[2] - com[2]];
            ((d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt(), *m)
        })
        .collect();
    rm.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut acc = 0.0;
    for (r, m) in rm {
        acc += m;
        if acc >= 0.5 * mt {
            return r;
        }
    }
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_mass_budget() {
        let c = EmbeddedCluster::build(100, 400, 0.6, 3);
        let star_mass: f64 = c.stars.mass.iter().sum();
        let gas_mass = c.gas.total_mass();
        assert!((star_mass - 0.4).abs() < 1e-9, "stars {star_mass}");
        assert!((gas_mass - 0.6).abs() < 1e-9, "gas {gas_mass}");
        assert!((star_mass + gas_mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn units_are_sensible_for_a_young_cluster() {
        let c = EmbeddedCluster::build(200, 200, 0.5, 4);
        // A few-hundred-MSun cluster at 1 pc: the crossing time is of
        // order a Myr, so SNe (at ~10 Myr) happen within tens of crossing
        // times — the regime of the paper's simulation.
        assert!(c.time_unit_myr > 0.05 && c.time_unit_myr < 50.0, "{}", c.time_unit_myr);
        assert!(c.mass_unit_msun > 50.0, "{}", c.mass_unit_msun);
    }

    /// The physical scales of the Fig 6 cluster (48/192) and the
    /// benchmark's coupler clusters, bit for bit: `time_unit_myr` scales
    /// stellar-evolution time in the bridge, so a moved bit would move
    /// every digest that runs SSE.
    #[test]
    fn units_are_pinned_bitwise() {
        for (n_stars, n_gas, t_bits, m_bits) in [
            (48, 192, 0x3ff7_b3ba_ced9_258d_u64, 0x4059_52db_0a57_1b79_u64),
            (128, 512, 0x3fee_e4fe_5933_3ff1, 0x406d_cf70_06c7_86d3),
            (8, 16, 0x4013_eea9_67b5_19e4, 0x4021_e77a_a2a6_9a28),
            (1024, 4096, 0x3fd6_c8d7_09fd_e01b, 0x409b_6780_340a_d2f5),
        ] {
            let c = EmbeddedCluster::build(n_stars, n_gas, 0.5, 39);
            let (t, m) = (c.time_unit_myr, c.mass_unit_msun);
            assert_eq!(t.to_bits(), t_bits, "{n_stars}/{n_gas}: time unit {t} Myr");
            assert_eq!(m.to_bits(), m_bits, "{n_stars}/{n_gas}: mass unit {m} MSun");
        }
    }

    #[test]
    fn initial_gas_is_mostly_bound() {
        let c = EmbeddedCluster::build(64, 256, 0.5, 7);
        let stars = ParticleData {
            mass: c.stars.mass.clone(),
            pos: c.stars.pos.clone(),
            vel: c.stars.vel.clone(),
        };
        let gas = ParticleData {
            mass: c.gas.mass.clone(),
            pos: c.gas.pos.clone(),
            vel: c.gas.vel.clone(),
        };
        let f = bound_gas_fraction(&stars, &gas);
        assert!(f > 0.8, "initial bound fraction {f}");
    }

    #[test]
    fn half_mass_radius_of_plummer_near_expected() {
        let c = EmbeddedCluster::build(500, 100, 0.2, 9);
        let stars = ParticleData {
            mass: c.stars.mass.clone(),
            pos: c.stars.pos.clone(),
            vel: c.stars.vel.clone(),
        };
        let r = half_mass_radius(&stars);
        // Plummer half-mass radius ≈ 1.3 a ≈ 0.77 for virial radius 1
        assert!(r > 0.3 && r < 1.5, "r_h = {r}");
    }

    #[test]
    fn initial_checkpoint_is_the_save_state_of_fresh_workers() {
        use crate::channel::{Channel, LocalChannel};
        let container = |ck: &Checkpoint| {
            let mut bytes = Vec::new();
            ck.write_to(&mut bytes).expect("write to a Vec");
            bytes
        };
        let local = |w: Box<dyn ModelWorker>| Box::new(LocalChannel::new(w)) as Box<dyn Channel>;
        for (n_stars, n_gas) in [(8, 24), (8, 32), (128, 512)] {
            for seed in [1, 7, 42, 301] {
                let c = EmbeddedCluster::build(n_stars, n_gas, 0.5, seed);
                let direct = container(&c.initial_checkpoint());
                for use_gpu in [false, true] {
                    let (g, h, k, s) = c.local_workers(use_gpu);
                    let mut fresh = crate::Bridge::new(
                        local(g),
                        local(h),
                        local(k),
                        Some(local(s)),
                        c.bridge_config(),
                    );
                    let saved = fresh.snapshot().expect("SaveState gather");
                    assert_eq!(
                        direct,
                        container(&saved),
                        "({n_stars},{n_gas}) seed {seed} gpu {use_gpu}"
                    );
                }
            }
        }
    }

    /// "What a worker runs": `local_workers(false)` hands out exactly the
    /// workers a caller gets from the plain constructors — the contract a
    /// remote deployment (and the benchmark's TCP twin) relies on when it
    /// builds its own and expects the local digest.
    #[test]
    fn local_workers_are_the_plainly_constructed_workers() {
        use crate::worker::{Request, Response};
        let c = EmbeddedCluster::build(24, 96, 0.5, 5);
        let (mut g, mut h, mut k, _) = c.local_workers(false);
        let mut plain_g = GravityWorker::new(c.stars.clone(), Backend::CpuParallel);
        let mut plain_h = HydroWorker::new(c.gas.clone());
        let mut plain_k = CouplingWorker::fi();
        let state_after = |w: &mut dyn ModelWorker, t: f64| {
            assert!(matches!(w.handle(Request::EvolveTo(t)), Response::Ok { .. }));
            match w.handle(Request::SaveState) {
                Response::State(s) => s,
                other => panic!("no state: {other:?}"),
            }
        };
        assert_eq!(state_after(g.as_mut(), 0.02), state_after(&mut plain_g, 0.02), "gravity");
        assert_eq!(state_after(h.as_mut(), 0.02), state_after(&mut plain_h, 0.02), "hydro");
        let kick = |w: &mut dyn ModelWorker| {
            let mut borrowed = Vec::new();
            w.compute_kick_into(&c.stars.pos, &c.gas.pos, &c.gas.mass, &mut borrowed)
                .expect("coupling worker computes kicks");
            let owned = w.handle(Request::ComputeKick {
                targets: c.stars.pos.clone(),
                source_pos: c.gas.pos.clone(),
                source_mass: c.gas.mass.clone(),
            });
            match owned {
                Response::Accelerations { acc, .. } => {
                    assert_eq!(acc, borrowed, "owned vs borrowed")
                }
                other => panic!("no accelerations: {other:?}"),
            }
            borrowed
        };
        assert_eq!(kick(k.as_mut()), kick(&mut plain_k), "coupling");
        // 96 sources sit below the gravity crossover, where both
        // personalities sum every pair exactly — §6.2's "which kernel is
        // used has no influence in the result", bitwise
        assert_eq!(kick(&mut CouplingWorker::octgrav()), kick(&mut plain_k), "octgrav vs fi");
    }

    #[test]
    fn deterministic_by_seed() {
        let a = EmbeddedCluster::build(32, 32, 0.5, 11);
        let b = EmbeddedCluster::build(32, 32, 0.5, 11);
        assert_eq!(a.stars.pos, b.stars.pos);
        assert_eq!(a.star_masses_msun, b.star_masses_msun);
    }
}
