//! The SSE lookup table: (initial mass × age fraction) → track point.
//!
//! SSE's defining trait in the paper is that evolution is "a simple lookup
//! of a star's age and initial mass". We tabulate the analytic fits on a
//! log-mass × age-fraction grid at construction and bilinearly interpolate
//! at query time — the same speed/accuracy trade a real parameterized model
//! makes.

use crate::fits::{self, TrackPoint};

/// A precomputed evolution table for one metallicity.
pub struct EvolutionTable {
    z: f64,
    masses: Vec<f64>,    // grid of initial masses (MSun), log-spaced
    age_fracs: Vec<f64>, // grid of age / t_total in [0, 1.1]
    // rows: mass-major [mass][age_frac]
    lum: Vec<f64>,
    rad: Vec<f64>,
    mass_now: Vec<f64>,
}

impl EvolutionTable {
    /// Build a table with `nm` mass points in `[m_lo, m_hi]` and `na` age
    /// fractions.
    pub fn new(z: f64, m_lo: f64, m_hi: f64, nm: usize, na: usize) -> EvolutionTable {
        assert!(m_lo > 0.0 && m_hi > m_lo && nm >= 2 && na >= 2);
        let masses: Vec<f64> = (0..nm)
            .map(|i| {
                let f = i as f64 / (nm - 1) as f64;
                (m_lo.ln() + f * (m_hi / m_lo).ln()).exp()
            })
            .collect();
        let age_fracs: Vec<f64> = (0..na).map(|j| 1.1 * j as f64 / (na - 1) as f64).collect();
        let mut lum = Vec::with_capacity(nm * na);
        let mut rad = Vec::with_capacity(nm * na);
        let mut mass_now = Vec::with_capacity(nm * na);
        for &m in &masses {
            let total = fits::t_total_myr(m, z);
            for &f in &age_fracs {
                let p = fits::evaluate(m, z, f * total);
                lum.push(p.luminosity);
                rad.push(p.radius);
                mass_now.push(p.mass);
            }
        }
        EvolutionTable { z, masses, age_fracs, lum, rad, mass_now }
    }

    /// Default table for the embedded-cluster simulation: 0.1–100 MSun.
    pub fn standard(z: f64) -> EvolutionTable {
        EvolutionTable::new(z, 0.1, 100.0, 64, 64)
    }

    /// Metallicity this table was built for.
    pub fn metallicity(&self) -> f64 {
        self.z
    }

    fn bracket(grid: &[f64], x: f64) -> (usize, f64) {
        if x <= grid[0] {
            return (0, 0.0);
        }
        if x >= *grid.last().unwrap() {
            return (grid.len() - 2, 1.0);
        }
        // grids are tiny (≤ 64): linear scan beats binary search here and
        // is simpler (perf-book: handle the common small case directly)
        for i in 0..grid.len() - 1 {
            if x < grid[i + 1] {
                let t = (x - grid[i]) / (grid[i + 1] - grid[i]);
                return (i, t);
            }
        }
        (grid.len() - 2, 1.0)
    }

    /// Interpolated lookup. `phase` is taken from the analytic fit (phases
    /// are discrete and interpolate badly); the continuous fields come from
    /// the table.
    pub fn lookup(&self, m0: f64, age_myr: f64) -> TrackPoint {
        let total = fits::t_total_myr(m0, self.z);
        let frac = (age_myr / total).min(1.1);
        let (i, tm) = Self::bracket(&self.masses, m0);
        let (j, ta) = Self::bracket(&self.age_fracs, frac);
        let na = self.age_fracs.len();
        let idx = |i: usize, j: usize| i * na + j;
        let bilerp = |v: &[f64]| -> f64 {
            let v00 = v[idx(i, j)];
            let v01 = v[idx(i, j + 1)];
            let v10 = v[idx(i + 1, j)];
            let v11 = v[idx(i + 1, j + 1)];
            (v00 * (1.0 - tm) + v10 * tm) * (1.0 - ta) + (v01 * (1.0 - tm) + v11 * tm) * ta
        };
        let phase = fits::evaluate(m0, self.z, age_myr).phase;
        // Remnant fields must not be smeared by interpolation across the
        // collapse: take them analytically.
        if phase.is_remnant() {
            return fits::evaluate(m0, self.z, age_myr);
        }
        TrackPoint {
            phase,
            mass: bilerp(&self.mass_now).min(m0),
            radius: bilerp(&self.rad).max(1e-6),
            luminosity: bilerp(&self.lum).max(0.0),
        }
    }
}

/// Convenience: does the phase transition between two ages include a
/// supernova for this star?
pub fn supernova_between(m0: f64, z: f64, age0: f64, age1: f64) -> bool {
    if !fits::explodes(m0) {
        return false;
    }
    let t_end = fits::t_total_myr(m0, z);
    age0 < t_end && age1 >= t_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fits::StellarPhase;

    #[test]
    fn table_matches_fits_on_grid_points() {
        let t = EvolutionTable::standard(0.02);
        for &m in &[0.5, 1.0, 5.0, 20.0] {
            let age = 0.4 * fits::t_ms_myr(m, 0.02);
            let table = t.lookup(m, age);
            let exact = fits::evaluate(m, 0.02, age);
            let rel = (table.luminosity - exact.luminosity).abs() / exact.luminosity;
            assert!(rel < 0.35, "m={m}: table {} vs fit {}", table.luminosity, exact.luminosity);
            assert_eq!(table.phase, exact.phase);
        }
    }

    #[test]
    fn remnants_not_interpolated() {
        let t = EvolutionTable::standard(0.02);
        let p = t.lookup(30.0, 1e5);
        assert_eq!(p.phase, StellarPhase::BlackHole);
        assert_eq!(p.mass, 10.0);
    }

    #[test]
    fn lookup_clamps_out_of_range_mass() {
        let t = EvolutionTable::standard(0.02);
        let p = t.lookup(0.05, 1.0);
        assert!(p.luminosity >= 0.0 && p.radius > 0.0);
    }

    #[test]
    fn supernova_window_detection() {
        let m = 20.0;
        let z = 0.02;
        let t_end = fits::t_total_myr(m, z);
        assert!(supernova_between(m, z, t_end - 1.0, t_end + 1.0));
        assert!(!supernova_between(m, z, 0.0, t_end - 1.0));
        assert!(!supernova_between(5.0, z, 0.0, 1e5)); // no SN below 8 MSun
    }

    #[test]
    fn bracket_endpoints() {
        let grid = [1.0, 2.0, 4.0];
        assert_eq!(EvolutionTable::bracket(&grid, 0.5), (0, 0.0));
        assert_eq!(EvolutionTable::bracket(&grid, 8.0), (1, 1.0));
        let (i, t) = EvolutionTable::bracket(&grid, 3.0);
        assert_eq!(i, 1);
        assert!((t - 0.5).abs() < 1e-12);
    }
}
