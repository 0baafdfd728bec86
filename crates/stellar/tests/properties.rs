//! Property tests: stellar evolution invariants over the full fit range.

use jc_stellar::fits;
use jc_stellar::{EvolutionTable, SseModel, StarState};
use proptest::prelude::*;

/// Every bit of a star's reported state.
type StarBits = (u64, u64, u64, u64, jc_stellar::StellarPhase, u64);

fn star_bits(s: &StarState) -> StarBits {
    (
        s.initial_mass.to_bits(),
        s.mass.to_bits(),
        s.radius.to_bits(),
        s.luminosity.to_bits(),
        s.phase,
        s.age_myr.to_bits(),
    )
}

/// Every star's bits plus the model clock's.
fn model_bits(m: &SseModel) -> (Vec<StarBits>, u64) {
    (m.states().iter().map(star_bits).collect(), m.model_time_myr().to_bits())
}

proptest! {
    /// Mass never increases along any track.
    #[test]
    fn mass_monotone(m0 in 0.3f64..60.0, z in 0.004f64..0.03) {
        let total = fits::t_total_myr(m0, z);
        let mut last = f64::INFINITY;
        for i in 0..64 {
            let age = total * 1.2 * i as f64 / 63.0;
            let p = fits::evaluate(m0, z, age);
            prop_assert!(p.mass <= last + 1e-9);
            last = p.mass;
        }
    }

    /// Radius and luminosity stay positive and finite pre-collapse.
    #[test]
    fn track_fields_sane(m0 in 0.3f64..60.0, frac in 0.0f64..0.99) {
        let age = frac * fits::t_total_myr(m0, 0.02);
        let p = fits::evaluate(m0, 0.02, age);
        prop_assert!(p.radius > 0.0 && p.radius.is_finite());
        prop_assert!(p.luminosity >= 0.0 && p.luminosity.is_finite());
    }

    /// Table lookups agree with the analytic fit to interpolation error.
    #[test]
    fn table_tracks_fit(m0 in 0.5f64..50.0, frac in 0.05f64..0.9) {
        let table = EvolutionTable::standard(0.02);
        let age = frac * fits::t_total_myr(m0, 0.02);
        let a = table.lookup(m0, age);
        let b = fits::evaluate(m0, 0.02, age);
        // interpolation across phase boundaries is coarse; require the
        // same phase and same order of magnitude
        if a.phase == b.phase && b.luminosity > 0.0 {
            let ratio = a.luminosity / b.luminosity;
            prop_assert!(ratio > 0.2 && ratio < 5.0, "L ratio {ratio}");
        }
    }

    /// A population never gains mass and each massive star explodes at
    /// most once, whatever the evolve schedule.
    #[test]
    fn population_invariants(
        masses in proptest::collection::vec(0.3f64..40.0, 1..20),
        steps in proptest::collection::vec(0.1f64..50.0, 1..12),
    ) {
        let n = masses.len();
        let mut model = SseModel::new(masses, 0.02);
        let mut t = 0.0;
        let mut total_sn = 0usize;
        let mut last_mass = model.total_mass();
        for dt in steps {
            t += dt;
            let events = model.evolve_to(t);
            total_sn += events
                .iter()
                .filter(|e| matches!(e, jc_stellar::StellarEvent::Supernova { .. }))
                .count();
            let now = model.total_mass();
            prop_assert!(now <= last_mass + 1e-9);
            last_mass = now;
        }
        prop_assert!(total_sn <= n);
    }

    /// An in-place restore leaves no residue of the model it overwrote:
    /// a *used* model (other population size, later clock, stars already
    /// exploded) restored to a checkpoint equals a fresh `restored` in
    /// every bit, and both equal the `new` + `evolve_to` recipe. The
    /// clock may move backwards; a metallicity mismatch rebuilds the
    /// table and still lands on the fresh-model result.
    #[test]
    fn restore_state_in_place_equals_fresh_restored(
        used_masses in proptest::collection::vec(0.3f64..60.0, 1..24),
        used_t in 1.0f64..200.0,
        stars in proptest::collection::vec((0.3f64..60.0, any::<bool>()), 0..24),
        t in prop_oneof![Just(0.0f64), 0.0f64..120.0],
        dt in 0.0f64..60.0,
        same_z in any::<bool>(),
    ) {
        let z = 0.02;
        let (masses, exploded): (Vec<f64>, Vec<bool>) = stars.into_iter().unzip();
        let mut used = SseModel::new(used_masses, if same_z { z } else { 0.008 });
        let _ = used.evolve_to(used_t);
        used.restore_state(masses.clone(), z, t, exploded.clone());
        let mut fresh = SseModel::restored(masses.clone(), z, t, exploded.clone());

        prop_assert_eq!(model_bits(&used), model_bits(&fresh));
        prop_assert_eq!(used.exploded(), fresh.exploded());
        prop_assert_eq!(used.exploded(), &exploded[..]);
        prop_assert_eq!(used.lookups, fresh.lookups);
        prop_assert_eq!(used.metallicity().to_bits(), z.to_bits());
        prop_assert_eq!(used.initial_masses(), &masses[..]);

        let mut recipe = SseModel::new(masses, z);
        if t > 0.0 {
            let _ = recipe.evolve_to(t);
        }
        prop_assert_eq!(model_bits(&used), model_bits(&recipe));
        prop_assert_eq!(used.lookups, recipe.lookups);

        prop_assert_eq!(used.evolve_to(t + dt), fresh.evolve_to(t + dt));
        prop_assert_eq!(model_bits(&used), model_bits(&fresh));
        prop_assert_eq!(used.exploded(), fresh.exploded());
        prop_assert_eq!(used.lookups, fresh.lookups);
    }
}
