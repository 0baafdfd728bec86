//! The SSE worker model: a star population evolved on demand.

use crate::fits;
use crate::table::{supernova_between, EvolutionTable};
use crate::StellarPhase;

/// State of one star as reported to the coupler.
#[derive(Clone, Copy, Debug)]
pub struct StarState {
    /// Initial (ZAMS) mass, MSun.
    pub initial_mass: f64,
    /// Current mass, MSun.
    pub mass: f64,
    /// Radius, RSun.
    pub radius: f64,
    /// Luminosity, LSun.
    pub luminosity: f64,
    /// Phase.
    pub phase: StellarPhase,
    /// Current age, Myr.
    pub age_myr: f64,
}

/// Events produced while evolving the population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StellarEvent {
    /// A star went supernova between the previous and the new model time.
    Supernova {
        /// Index of the star.
        star: usize,
        /// Mass ejected into the surrounding gas, MSun.
        ejected_mass: f64,
        /// Energy injected, in units of 1e44 J (≈ one canonical SN is 10).
        energy_foe: f64,
    },
    /// Wind mass loss of at least 1e-4 MSun since the last step.
    WindMassLoss {
        /// Index of the star.
        star: usize,
        /// Mass lost, MSun.
        mass: f64,
    },
}

/// The one place a star's reported state is derived: a table lookup at
/// (`m0`, `age_myr`).
fn star_at(table: &EvolutionTable, m0: f64, age_myr: f64) -> StarState {
    let p = table.lookup(m0, age_myr);
    StarState {
        initial_mass: m0,
        mass: p.mass,
        radius: p.radius,
        luminosity: p.luminosity,
        phase: p.phase,
        age_myr,
    }
}

/// The SSE model: owns a population, a lookup table, and the model clock.
pub struct SseModel {
    table: EvolutionTable,
    z: f64,
    initial_masses: Vec<f64>,
    states: Vec<StarState>,
    time_myr: f64,
    /// Supernovae that already fired (indices), so each fires once.
    exploded: Vec<bool>,
    /// Cumulative lookup count (for the performance model).
    pub lookups: u64,
}

impl SseModel {
    /// Create a model from ZAMS masses at metallicity `z`.
    pub fn new(initial_masses: Vec<f64>, z: f64) -> SseModel {
        let table = EvolutionTable::standard(z);
        let states = initial_masses.iter().map(|&m| star_at(&table, m, 0.0)).collect();
        let n = initial_masses.len();
        SseModel {
            table,
            z,
            initial_masses,
            states,
            time_myr: 0.0,
            exploded: vec![false; n],
            lookups: 0,
        }
    }

    /// Rebuild a model at a checkpointed time: [`SseModel::new`] followed
    /// by [`SseModel::restore_state`].
    pub fn restored(
        initial_masses: Vec<f64>,
        z: f64,
        time_myr: f64,
        exploded: Vec<bool>,
    ) -> SseModel {
        let mut m = SseModel::new(Vec::new(), z);
        m.restore_state(initial_masses, z, time_myr, exploded);
        m
    }

    /// Overwrite the population from a checkpoint and set the model clock,
    /// which may move backwards. Star states are a pure function of
    /// (initial mass, metallicity, age), so the lookup at `time_myr`
    /// reproduces them bitwise; the `exploded` flags are the only
    /// evolution history that must be carried explicitly (each supernova
    /// fires exactly once). Restoring re-derives per-star state, never
    /// the per-metallicity table: the table is kept when `z` is bitwise
    /// the one it was built for, so a restore costs N lookups. The result
    /// is what a fresh model evolved once to `time_myr` holds (`lookups`
    /// included); a `time_myr` that is not positive restores the t=0
    /// model.
    pub fn restore_state(
        &mut self,
        initial_masses: Vec<f64>,
        z: f64,
        time_myr: f64,
        exploded: Vec<bool>,
    ) {
        assert_eq!(initial_masses.len(), exploded.len(), "one exploded flag per star");
        if z.to_bits() != self.z.to_bits() {
            self.table = EvolutionTable::standard(z);
            self.z = z;
        }
        let evolved = time_myr > 0.0;
        let t = if evolved { time_myr } else { 0.0 };
        self.states.clear();
        self.states.extend(initial_masses.iter().map(|&m| star_at(&self.table, m, t)));
        self.lookups = if evolved { initial_masses.len() as u64 } else { 0 };
        self.time_myr = t;
        self.initial_masses = initial_masses;
        self.exploded = exploded;
    }

    /// Metallicity the population was built with.
    pub fn metallicity(&self) -> f64 {
        self.z
    }

    /// ZAMS masses, MSun.
    pub fn initial_masses(&self) -> &[f64] {
        &self.initial_masses
    }

    /// Which stars have already gone supernova.
    pub fn exploded(&self) -> &[bool] {
        &self.exploded
    }

    /// Number of stars.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Is the population empty?
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Current model time, Myr.
    pub fn model_time_myr(&self) -> f64 {
        self.time_myr
    }

    /// Star states.
    pub fn states(&self) -> &[StarState] {
        &self.states
    }

    /// Total stellar mass, MSun.
    pub fn total_mass(&self) -> f64 {
        self.states.iter().map(|s| s.mass).sum()
    }

    /// Evolve the population to `t_myr` (must not go backwards), returning
    /// the events that occurred in `(previous_time, t_myr]`.
    pub fn evolve_to(&mut self, t_myr: f64) -> Vec<StellarEvent> {
        assert!(
            t_myr + 1e-12 >= self.time_myr,
            "stellar evolution cannot run backwards ({} -> {})",
            self.time_myr,
            t_myr
        );
        let mut events = Vec::new();
        let t0 = self.time_myr;
        for i in 0..self.states.len() {
            let m0 = self.initial_masses[i];
            let before = self.states[i].mass;
            self.states[i] = star_at(&self.table, m0, t_myr);
            self.lookups += 1;
            if !self.exploded[i] && supernova_between(m0, self.z, t0, t_myr) {
                self.exploded[i] = true;
                let (_, remnant) = fits::remnant_of(m0);
                // everything above the remnant that wasn't already blown
                // off in winds is ejected now
                let ejected = (before - remnant).max(0.0);
                events.push(StellarEvent::Supernova {
                    star: i,
                    ejected_mass: ejected,
                    energy_foe: 10.0,
                });
            } else {
                let lost = before - self.states[i].mass;
                if lost > 1e-4 {
                    events.push(StellarEvent::WindMassLoss { star: i, mass: lost });
                }
            }
        }
        self.time_myr = t_myr;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_evolves_forward() {
        let mut m = SseModel::new(vec![1.0, 5.0, 20.0], 0.02);
        assert_eq!(m.len(), 3);
        let ev = m.evolve_to(1.0);
        assert!(ev.is_empty(), "{ev:?}");
        assert_eq!(m.model_time_myr(), 1.0);
        for s in m.states() {
            assert_eq!(s.phase, StellarPhase::MainSequence);
        }
    }

    #[test]
    #[should_panic]
    fn backwards_evolution_panics() {
        let mut m = SseModel::new(vec![1.0], 0.02);
        m.evolve_to(5.0);
        m.evolve_to(1.0);
    }

    #[test]
    fn massive_star_explodes_once() {
        let mut m = SseModel::new(vec![20.0], 0.02);
        let t_end = fits::t_total_myr(20.0, 0.02);
        let mut sn = 0;
        let mut ejected = 0.0;
        // step across the explosion in small increments
        let mut t = 0.0;
        while t < t_end * 1.5 {
            t += t_end / 20.0;
            for ev in m.evolve_to(t) {
                if let StellarEvent::Supernova { ejected_mass, .. } = ev {
                    sn += 1;
                    ejected = ejected_mass;
                }
            }
        }
        assert_eq!(sn, 1, "exactly one supernova");
        assert!(ejected > 10.0, "a 20 MSun star ejects most of itself: {ejected}");
        assert_eq!(m.states()[0].phase, StellarPhase::NeutronStar);
        assert!((m.states()[0].mass - 1.4).abs() < 1e-6);
    }

    #[test]
    fn winds_reported_during_giant_phase() {
        let mut m = SseModel::new(vec![5.0], 0.02);
        let tms = fits::t_ms_myr(5.0, 0.02);
        m.evolve_to(tms * 1.001);
        let ev = m.evolve_to(tms * 1.05);
        assert!(ev.iter().any(|e| matches!(e, StellarEvent::WindMassLoss { .. })), "{ev:?}");
    }

    #[test]
    fn total_mass_never_increases() {
        let mut m = SseModel::new(vec![0.5, 1.0, 3.0, 9.0, 30.0], 0.02);
        let mut last = m.total_mass();
        for k in 1..100 {
            m.evolve_to(k as f64 * 2.0);
            let now = m.total_mass();
            assert!(now <= last + 1e-9);
            last = now;
        }
    }

    #[test]
    fn lookup_cost_scales_with_population() {
        let mut m = SseModel::new(vec![1.0; 100], 0.02);
        m.evolve_to(1.0);
        assert_eq!(m.lookups, 100);
    }
}
