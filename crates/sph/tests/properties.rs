//! Property tests: SPH invariants under random gas configurations.

use jc_sph::density::compute_density;
use jc_sph::forces::hydro_rates;
use jc_sph::particles::GasParticles;
use proptest::prelude::*;

fn arb_gas(n: usize) -> impl Strategy<Value = GasParticles> {
    proptest::collection::vec(
        (
            (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
            (-0.5f64..0.5, -0.5f64..0.5, -0.5f64..0.5),
            0.01f64..2.0,
        ),
        n,
    )
    .prop_map(|v| {
        let mut g = GasParticles::new();
        for ((x, y, z), (vx, vy, vz), u) in v {
            g.push(1.0 / 64.0, [x, y, z], [vx, vy, vz], u);
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pressure + viscosity forces conserve linear momentum exactly
    /// (pairwise antisymmetry), for any state.
    #[test]
    fn momentum_conserved(mut gas in arb_gas(96)) {
        compute_density(&mut gas);
        let rates = hydro_rates(&gas);
        let mut p = [0.0f64; 3];
        let mut scale = 0.0f64;
        for (m, a) in gas.mass.iter().zip(&rates.acc) {
            for k in 0..3 { p[k] += m * a[k]; }
            scale += m * (a[0]*a[0]+a[1]*a[1]+a[2]*a[2]).sqrt();
        }
        for k in 0..3 {
            prop_assert!(p[k].abs() <= 1e-9 * scale.max(1e-12), "leak {p:?}");
        }
    }

    /// Densities are strictly positive and smoothing lengths finite.
    #[test]
    fn density_positive(mut gas in arb_gas(64)) {
        compute_density(&mut gas);
        for i in 0..gas.len() {
            prop_assert!(gas.rho[i] > 0.0);
            prop_assert!(gas.h[i].is_finite() && gas.h[i] > 0.0);
        }
    }

    /// Shear-free uniform expansion cools the gas (du < 0 for diverging
    /// flows): the adiabatic energy equation has the right sign.
    #[test]
    fn expansion_cools(seed in 1u64..1000) {
        let mut gas = jc_sph::particles::plummer_gas(128, 1.0, seed);
        // radial outflow
        for i in 0..gas.len() {
            let p = gas.pos[i];
            gas.vel[i] = [p[0], p[1], p[2]];
        }
        compute_density(&mut gas);
        let rates = hydro_rates(&gas);
        let du_tot: f64 = rates.du.iter().sum();
        prop_assert!(du_tot < 0.0, "expanding gas must cool: {du_tot}");
    }

    /// The SoA density/force paths track the scalar reference within a
    /// tight relative tolerance on any Plummer gas, with identical
    /// h-adaptation trajectories and interaction counts.
    #[test]
    fn simd_paths_match_scalar(seed in 1u64..500, n in 64usize..400) {
        let mut a = jc_sph::particles::plummer_gas(n, 1.0, seed);
        let mut b = a.clone();
        let mut scalar = jc_sph::SphScratch::new();
        scalar.simd = false;
        let mut simd = jc_sph::SphScratch::new();
        let ia = jc_sph::density::compute_density_with(&mut a, &mut scalar);
        let ib = jc_sph::density::compute_density_with(&mut b, &mut simd);
        prop_assert_eq!(ia, ib);
        for i in 0..a.len() {
            prop_assert_eq!(a.h[i].to_bits(), b.h[i].to_bits());
            let rel = (a.rho[i] - b.rho[i]).abs() / a.rho[i].abs().max(1e-300);
            prop_assert!(rel < 1e-11, "rho[{}]: {} vs {}", i, a.rho[i], b.rho[i]);
        }
        let mut ra = jc_sph::HydroRates::new();
        let mut rb = jc_sph::HydroRates::new();
        jc_sph::forces::hydro_rates_into(&a, &mut scalar, &mut ra);
        jc_sph::forces::hydro_rates_into(&b, &mut simd, &mut rb);
        prop_assert_eq!(ra.interactions, rb.interactions);
        let scale = ra
            .acc
            .iter()
            .flatten()
            .fold(0.0f64, |s, x| s.max(x.abs()))
            .max(1e-300);
        for (i, (x, y)) in rb.acc.iter().zip(&ra.acc).enumerate() {
            for k in 0..3 {
                prop_assert!(
                    (x[k] - y[k]).abs() <= 1e-9 * scale,
                    "acc[{}][{}]: {} vs {}", i, k, x[k], y[k]
                );
            }
        }
    }

    /// One neighbour search per step: the lists the force pass gathers
    /// from hold exactly the ordered pairs the reference predicate
    /// (`0 < r < (h_i + h_j)/2`) accepts — counted by brute force — on
    /// both kernels, with the same interaction count and signal speed.
    #[test]
    fn force_lists_are_exactly_the_interacting_pairs(mut gas in arb_gas(96), dup in 0usize..3) {
        for k in 0..dup {
            let (p, v) = (gas.pos[k], gas.vel[k]);
            gas.push(1.0 / 64.0, p, v, 1.0); // coincident pairs never interact
        }
        let mut scratch = jc_sph::SphScratch::new();
        scratch.simd = false;
        jc_sph::density::compute_density_with(&mut gas, &mut scratch);
        let n = gas.len();
        let brute = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                let d = [
                    gas.pos[i][0] - gas.pos[j][0],
                    gas.pos[i][1] - gas.pos[j][1],
                    gas.pos[i][2] - gas.pos[j][2],
                ];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                let h_ij = 0.5 * (gas.h[i] + gas.h[j]);
                r2 < h_ij * h_ij && r2 != 0.0
            })
            .count();
        let mut scalar = jc_sph::HydroRates::new();
        jc_sph::forces::hydro_rates_into(&gas, &mut scratch, &mut scalar);
        prop_assert_eq!(scalar.interactions, brute as u64);
        prop_assert_eq!(scratch.cached_neighbor_entries(), brute);
        scratch.simd = true; // same densities, same lists, the SoA gather
        let mut soa = jc_sph::HydroRates::new();
        jc_sph::forces::hydro_rates_into(&gas, &mut scratch, &mut soa);
        prop_assert_eq!(soa.interactions, brute as u64);
        prop_assert_eq!(soa.v_signal_max.to_bits(), scalar.v_signal_max.to_bits());
    }
}
