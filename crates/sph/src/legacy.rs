//! The pre-CSR neighbour search and density pass, kept verbatim as the
//! measured baseline for `perfsuite` (the `sph_density_legacy` rows in
//! `BENCH_*.json`) and as the order-reference the CSR grid must reproduce
//! bitwise. Not used by any production code path.

// jc-lint: allow-file(determinism): frozen measured baseline — the HashMap
// is only ever read through `get` (cells are visited in fixed loop order
// and buckets hold insertion order), never iterated, so the hash seed
// cannot reach the densities. Kept verbatim so the perfsuite baseline
// rows stay comparable across history.

use crate::kernel::w;
use crate::particles::GasParticles;
use rayon::prelude::*;
use std::collections::HashMap;

/// A uniform cell grid for fixed-radius neighbour queries (HashMap of
/// per-cell `Vec`s; `within` allocates a fresh `Vec` per query).
pub struct NeighborGrid {
    cell: f64,
    map: HashMap<(i32, i32, i32), Vec<u32>>,
}

impl NeighborGrid {
    /// Build over positions with the given cell size.
    pub fn build(pos: &[[f64; 3]], cell: f64) -> NeighborGrid {
        assert!(cell > 0.0);
        let mut map: HashMap<(i32, i32, i32), Vec<u32>> = HashMap::new();
        for (i, p) in pos.iter().enumerate() {
            map.entry(Self::key(p, cell)).or_default().push(i as u32);
        }
        NeighborGrid { cell, map }
    }

    fn key(p: &[f64; 3], cell: f64) -> (i32, i32, i32) {
        ((p[0] / cell).floor() as i32, (p[1] / cell).floor() as i32, (p[2] / cell).floor() as i32)
    }

    /// Indices of particles within `radius` of `center` (inclusive of the
    /// querying particle if it lies in range).
    pub fn within(&self, pos: &[[f64; 3]], center: &[f64; 3], radius: f64) -> Vec<u32> {
        let r = (radius / self.cell).ceil() as i32;
        let (cx, cy, cz) = Self::key(center, self.cell);
        let r2 = radius * radius;
        let mut out = Vec::new();
        for dx in -r..=r {
            for dy in -r..=r {
                for dz in -r..=r {
                    if let Some(bucket) = self.map.get(&(cx + dx, cy + dy, cz + dz)) {
                        for &i in bucket {
                            let p = &pos[i as usize];
                            let d = [p[0] - center[0], p[1] - center[1], p[2] - center[2]];
                            if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= r2 {
                                out.push(i);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// The pre-refactor adaptive density pass (allocating hot loop). Same
/// physics and same results as [`crate::density::compute_density`]; kept
/// only so the perf harness can measure the speedup against it.
pub fn compute_density(gas: &mut GasParticles) -> u64 {
    let n = gas.len();
    if n == 0 {
        return 0;
    }
    let h_mean = crate::density::h_mean_of(&gas.pos);
    for h in &mut gas.h {
        if *h <= 0.0 || !h.is_finite() {
            *h = h_mean;
        }
    }
    let grid = NeighborGrid::build(&gas.pos, h_mean.max(1e-6));
    let pos = &gas.pos;
    let mass = &gas.mass;
    let results: Vec<(f64, f64, u64)> = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut h = gas.h[i].min(h_mean * 8.0).max(h_mean * 0.05);
            let mut rho = 0.0;
            let mut inter = 0u64;
            for _ in 0..crate::density::H_ITERS {
                let nbr = grid.within(pos, &pos[i], h);
                inter += nbr.len() as u64;
                let found = nbr.len().max(1);
                if found as f64 > 0.8 * crate::density::N_NEIGHBORS as f64
                    && (found as f64) < 1.3 * crate::density::N_NEIGHBORS as f64
                {
                    rho = sum_density(&nbr, pos, mass, &pos[i], h);
                    break;
                }
                // adapt towards the target count
                h *= (crate::density::N_NEIGHBORS as f64 / found as f64).cbrt().clamp(0.5, 2.0);
                h = h.clamp(h_mean * 0.05, h_mean * 8.0);
                rho = sum_density(&grid.within(pos, &pos[i], h), pos, mass, &pos[i], h);
            }
            if rho <= 0.0 {
                // lone particle: density of itself
                rho = mass[i] * w(0.0, h);
            }
            (rho, h, inter)
        })
        .collect();
    let mut total = 0;
    for (i, (rho, h, inter)) in results.into_iter().enumerate() {
        gas.rho[i] = rho;
        gas.h[i] = h;
        total += inter;
    }
    total
}

fn sum_density(nbr: &[u32], pos: &[[f64; 3]], mass: &[f64], c: &[f64; 3], h: f64) -> f64 {
    let mut rho = 0.0;
    for &j in nbr {
        let p = &pos[j as usize];
        let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        rho += mass[j as usize] * w(r, h);
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_within_finds_all_in_radius() {
        let pos = vec![[0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.2, 0.0, 0.0], [1.0, 1.0, 1.0]];
        let grid = NeighborGrid::build(&pos, 0.1);
        let mut got = grid.within(&pos, &[0.0, 0.0, 0.0], 0.1);
        got.sort();
        assert_eq!(got, vec![0, 1]);
        let all = grid.within(&pos, &[0.0, 0.0, 0.0], 2.0);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn legacy_density_matches_csr_density_bitwise() {
        let mut a = crate::particles::plummer_gas(400, 1.0, 21);
        let mut b = a.clone();
        let ia = compute_density(&mut a);
        // the scalar reference path is the one pinned to this pass
        let mut scalar = crate::density::SphScratch::new();
        scalar.simd = false;
        let ib = crate::density::compute_density_with(&mut b, &mut scalar);
        assert_eq!(ia, ib, "interaction counts diverge");
        for i in 0..a.len() {
            assert_eq!(a.rho[i].to_bits(), b.rho[i].to_bits(), "rho[{i}]");
            assert_eq!(a.h[i].to_bits(), b.h[i].to_bits(), "h[{i}]");
        }
    }
}
