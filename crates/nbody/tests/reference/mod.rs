//! The in-order reference the SoA force kernel is checked against: each
//! target sums its sources strictly in order, one row at a time, on the
//! calling thread. No integrator runs it. It reproduces the original
//! allocating kernel bitwise (`GOLDEN_ACC`/`GOLDEN_JERK` in
//! `tests/golden.rs`), and the tolerance suites bind the production path
//! to it (`tests/properties.rs`, and `jc_nbody::kernels`' unit tests,
//! which include this file by `#[path]`).
//!
//! The shapes match `jc_nbody::kernels::{acc_jerk, potential}`: `same_set`
//! skips the self-pair by index, and ragged source columns are refused.

#![allow(dead_code)] // each includer uses its own subset

/// Accelerations and jerks of every target row, sources summed in order.
pub(crate) fn acc_jerk(
    t_pos: &[[f64; 3]],
    t_vel: &[[f64; 3]],
    s_mass: &[f64],
    s_pos: &[[f64; 3]],
    s_vel: &[[f64; 3]],
    eps2: f64,
    same_set: bool,
) -> (Vec<[f64; 3]>, Vec<[f64; 3]>) {
    assert_eq!(s_pos.len(), s_mass.len(), "source column length mismatch");
    assert_eq!(s_vel.len(), s_mass.len(), "source column length mismatch");
    let mut acc = vec![[0.0f64; 3]; t_pos.len()];
    let mut jerk = vec![[0.0f64; 3]; t_pos.len()];
    for (i, (a, j)) in acc.iter_mut().zip(jerk.iter_mut()).enumerate() {
        let (pi, vi) = (t_pos[i], t_vel[i]);
        for (jj, (&mj, (pj, vj))) in s_mass.iter().zip(s_pos.iter().zip(s_vel)).enumerate() {
            if same_set && jj == i {
                continue;
            }
            let dx = [pj[0] - pi[0], pj[1] - pi[1], pj[2] - pi[2]];
            let dv = [vj[0] - vi[0], vj[1] - vi[1], vj[2] - vi[2]];
            let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + eps2;
            let r = r2.sqrt();
            let inv_r3 = 1.0 / (r2 * r);
            let rv = dx[0] * dv[0] + dx[1] * dv[1] + dx[2] * dv[2];
            let alpha = 3.0 * rv / r2;
            for k in 0..3 {
                a[k] += mj * dx[k] * inv_r3;
                j[k] += mj * (dv[k] - alpha * dx[k]) * inv_r3;
            }
        }
    }
    (acc, jerk)
}

/// Gravitational potential of every target (G = 1), sources summed in
/// order.
pub(crate) fn potential(
    t_pos: &[[f64; 3]],
    s_mass: &[f64],
    s_pos: &[[f64; 3]],
    eps2: f64,
    same_set: bool,
) -> Vec<f64> {
    assert_eq!(s_pos.len(), s_mass.len(), "source column length mismatch");
    let one = |i: usize| {
        let pi = t_pos[i];
        let mut phi = 0.0;
        for (jj, (&mj, pj)) in s_mass.iter().zip(s_pos).enumerate() {
            if same_set && jj == i {
                continue;
            }
            let dx = [pj[0] - pi[0], pj[1] - pi[1], pj[2] - pi[2]];
            let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + eps2;
            phi -= mj / r2.sqrt();
        }
        phi
    };
    (0..t_pos.len()).map(one).collect()
}
