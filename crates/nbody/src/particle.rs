//! Particle storage (structure-of-arrays, N-body units).

/// A set of gravitating particles in dimensionless N-body units (G = 1).
///
/// Structure-of-arrays layout: the force loops stream over contiguous
/// `f64` arrays (perf-book: keep hot data dense and iterable).
#[derive(Clone, Debug, Default)]
pub struct ParticleSet {
    /// Masses.
    pub mass: Vec<f64>,
    /// Positions, xyz interleaved per particle.
    pub pos: Vec<[f64; 3]>,
    /// Velocities.
    pub vel: Vec<[f64; 3]>,
}

impl ParticleSet {
    /// Empty set.
    pub fn new() -> ParticleSet {
        ParticleSet::default()
    }

    /// With capacity.
    pub fn with_capacity(n: usize) -> ParticleSet {
        ParticleSet {
            mass: Vec::with_capacity(n),
            pos: Vec::with_capacity(n),
            vel: Vec::with_capacity(n),
        }
    }

    /// Add a particle; returns its index.
    pub fn push(&mut self, mass: f64, pos: [f64; 3], vel: [f64; 3]) -> usize {
        assert!(mass.is_finite() && mass >= 0.0, "bad mass {mass}");
        self.mass.push(mass);
        self.pos.push(pos);
        self.vel.push(vel);
        self.mass.len() - 1
    }

    /// Copy of the contiguous particle range `[start, end)` — the
    /// shard-worker slice (every column cut identically).
    pub fn slice(&self, start: usize, end: usize) -> ParticleSet {
        ParticleSet {
            mass: self.mass[start..end].to_vec(),
            pos: self.pos[start..end].to_vec(),
            vel: self.vel[start..end].to_vec(),
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.mass.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.mass.is_empty()
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// Center of mass position.
    pub fn center_of_mass(&self) -> [f64; 3] {
        let mut c = [0.0; 3];
        let mt = self.total_mass();
        if mt == 0.0 {
            return c;
        }
        for (m, p) in self.mass.iter().zip(&self.pos) {
            for k in 0..3 {
                c[k] += m * p[k];
            }
        }
        for ck in &mut c {
            *ck /= mt;
        }
        c
    }

    /// Center-of-mass velocity.
    pub fn com_velocity(&self) -> [f64; 3] {
        let mut c = [0.0; 3];
        let mt = self.total_mass();
        if mt == 0.0 {
            return c;
        }
        for (m, v) in self.mass.iter().zip(&self.vel) {
            for k in 0..3 {
                c[k] += m * v[k];
            }
        }
        for ck in &mut c {
            *ck /= mt;
        }
        c
    }

    /// Shift to the center-of-mass frame (position and velocity).
    pub fn to_com_frame(&mut self) {
        let c = self.center_of_mass();
        let cv = self.com_velocity();
        for p in &mut self.pos {
            for k in 0..3 {
                p[k] -= c[k];
            }
        }
        for v in &mut self.vel {
            for k in 0..3 {
                v[k] -= cv[k];
            }
        }
    }

    /// Apply velocity kicks: `vel[i] += dv[i]` (the BRIDGE coupling
    /// operation).
    pub fn kick(&mut self, dv: &[[f64; 3]]) {
        assert_eq!(dv.len(), self.len(), "kick size mismatch");
        for (v, d) in self.vel.iter_mut().zip(dv) {
            for k in 0..3 {
                v[k] += d[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_totals() {
        let mut s = ParticleSet::new();
        s.push(1.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]);
        s.push(3.0, [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_mass(), 4.0);
        let c = s.center_of_mass();
        assert!((c[0] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn com_frame_zeroes_momenta() {
        let mut s = ParticleSet::new();
        s.push(1.0, [1.0, 2.0, 3.0], [0.5, 0.0, 0.0]);
        s.push(2.0, [0.0, 0.0, 0.0], [0.0, 0.25, 0.0]);
        s.to_com_frame();
        let c = s.center_of_mass();
        let cv = s.com_velocity();
        for k in 0..3 {
            assert!(c[k].abs() < 1e-12);
            assert!(cv[k].abs() < 1e-12);
        }
    }

    #[test]
    fn kick_adds_velocity() {
        let mut s = ParticleSet::new();
        s.push(1.0, [0.0; 3], [1.0, 0.0, 0.0]);
        s.kick(&[[0.0, 2.0, 0.0]]);
        assert_eq!(s.vel[0], [1.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn kick_size_mismatch_panics() {
        let mut s = ParticleSet::new();
        s.push(1.0, [0.0; 3], [0.0; 3]);
        s.kick(&[]);
    }

    #[test]
    #[should_panic]
    fn negative_mass_rejected() {
        let mut s = ParticleSet::new();
        s.push(-1.0, [0.0; 3], [0.0; 3]);
    }
}
