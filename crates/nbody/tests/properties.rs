//! Property tests: N-body integrator invariants.

mod reference;

use jc_nbody::diagnostics::{angular_momentum, total_energy};
use jc_nbody::kernels::{acc_jerk, potential_into};
use jc_nbody::plummer::{plummer_sphere, salpeter_imf};
use jc_nbody::PhiGrape;
use proptest::prelude::*;

/// A random particle cloud whose pathologies are chosen by the
/// strategy: position scale sweeps ±10^±6 (±large coordinates), some
/// particles are exact duplicates of earlier ones (coincident pairs)
/// and some masses are exactly zero.
#[allow(clippy::type_complexity)]
fn degenerate_cloud(n: usize) -> impl Strategy<Value = (Vec<f64>, Vec<[f64; 3]>, Vec<[f64; 3]>)> {
    (
        proptest::collection::vec((0.0f64..1.0, (-1.0f64..1.0), (-1.0f64..1.0), (-1.0f64..1.0)), n),
        -6i32..=6,
        proptest::collection::vec((0usize..n.max(1), 0usize..n.max(1)), 0..4),
    )
        .prop_map(move |(raw, scale_exp, dups)| {
            let scale = 10.0f64.powi(scale_exp);
            let mut m = Vec::with_capacity(n);
            let mut p = Vec::with_capacity(n);
            let mut v = Vec::with_capacity(n);
            for (i, &(mm, x, y, z)) in raw.iter().enumerate() {
                // every 5th particle is massless
                m.push(if i % 5 == 4 { 0.0 } else { mm });
                p.push([x * scale, y * scale, z * scale]);
                v.push([y, z, x]);
            }
            for &(a, b) in &dups {
                p[a] = p[b]; // exact coincidence
            }
            (m, p, v)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The SoA kernel matches the in-order reference loop within a stated
    /// relative tolerance (1e-10 of the largest magnitude in the set)
    /// on random particle sets including degenerate inputs: coincident
    /// particles, zero masses, ±large coordinates.
    #[test]
    fn simd_soa_matches_scalar_within_tolerance((m, p, v) in degenerate_cloud(60)) {
        let eps2 = 1e-4;
        let (a0, j0) = reference::acc_jerk(&p, &v, &m, &p, &v, eps2, true);
        let (a1, j1) = acc_jerk(&p, &v, &m, &p, &v, eps2, true);
        let scale = |rows: &[[f64; 3]]| {
            rows.iter().flatten().fold(0.0f64, |s, x| s.max(x.abs())).max(1e-300)
        };
        let (sa, sj) = (scale(&a0), scale(&j0));
        for i in 0..p.len() {
            for k in 0..3 {
                prop_assert!(a1[i][k].is_finite(), "acc[{}][{}] not finite", i, k);
                prop_assert!(
                    (a1[i][k] - a0[i][k]).abs() <= 1e-10 * sa,
                    "acc[{}][{}]: {} vs {} (scale {})", i, k, a1[i][k], a0[i][k], sa
                );
                prop_assert!(
                    (j1[i][k] - j0[i][k]).abs() <= 1e-10 * sj,
                    "jerk[{}][{}]: {} vs {} (scale {})", i, k, j1[i][k], j0[i][k], sj
                );
            }
        }
        let phi0 = reference::potential(&p, &m, &p, eps2, true);
        let mut phi1 = vec![0.0; p.len()];
        potential_into(&p, &m, &p, eps2, true, &mut phi1);
        let sp = phi0.iter().fold(0.0f64, |s, x| s.max(x.abs())).max(1e-300);
        for i in 0..p.len() {
            prop_assert!(
                (phi1[i] - phi0[i]).abs() <= 1e-10 * sp,
                "phi[{}]: {} vs {}", i, phi1[i], phi0[i]
            );
        }
    }

    /// The SoA kernel is bitwise stable from run to run on arbitrary
    /// inputs (the deterministic-reduction contract).
    #[test]
    fn simd_soa_is_run_to_run_stable((m, p, v) in degenerate_cloud(40)) {
        let (a0, j0) = acc_jerk(&p, &v, &m, &p, &v, 1e-4, true);
        let (a1, j1) = acc_jerk(&p, &v, &m, &p, &v, 1e-4, true);
        prop_assert_eq!(a0, a1);
        prop_assert_eq!(j0, j1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Short integrations of any Plummer sphere conserve energy and
    /// angular momentum to integrator accuracy.
    #[test]
    fn conservation_laws(seed in 0u64..1000, n in 16usize..64) {
        let ics = plummer_sphere(n, seed);
        let mut g = PhiGrape::new(ics).with_softening(0.02).with_eta(0.01);
        let e0 = total_energy(&g.particles, g.eps2);
        let l0 = angular_momentum(&g.particles);
        g.evolve_model(0.2);
        let e1 = total_energy(&g.particles, g.eps2);
        let l1 = angular_momentum(&g.particles);
        prop_assert!(((e1 - e0) / e0).abs() < 5e-3, "dE/E = {}", (e1 - e0) / e0);
        for k in 0..3 {
            prop_assert!((l1[k] - l0[k]).abs() < 1e-4, "dL = {:?}", l1);
        }
    }

    /// Kicks are exactly additive in velocity.
    #[test]
    fn kick_linearity(seed in 0u64..100, dvx in -1.0f64..1.0) {
        let ics = plummer_sphere(8, seed);
        let mut g = PhiGrape::new(ics);
        let v0: Vec<[f64; 3]> = g.particles.vel.clone();
        let dv = vec![[dvx, 0.0, 0.0]; 8];
        g.kick(&dv);
        for (v, old) in g.particles.vel.iter().zip(&v0) {
            prop_assert!((v[0] - (old[0] + dvx)).abs() < 1e-15);
        }
    }

    /// Salpeter samples always respect their bounds and are reproducible.
    #[test]
    fn imf_bounds(seed in 0u64..5000, n in 1usize..200) {
        let m = salpeter_imf(n, 0.3, 60.0, seed);
        prop_assert_eq!(m.len(), n);
        prop_assert!(m.iter().all(|&x| (0.3..=60.0).contains(&x)));
        prop_assert_eq!(m, salpeter_imf(n, 0.3, 60.0, seed));
    }
}
