//! SPH pressure forces, artificial viscosity and the energy equation.
//!
//! The force pass gathers from the per-particle neighbour lists built from
//! what the density pass's search already found
//! ([`crate::density::SphScratch`]) — it never searches itself — and
//! writes into a caller-owned [`HydroRates`], allocation-free in steady
//! state.

use crate::density::{PairCols, SphScratch};
use crate::kernel::grad_w;
use crate::particles::GasParticles;
use jc_compute::par;
use jc_compute::soa::{reduce_lanes, LANES};

/// Monaghan viscosity α.
const ALPHA: f64 = 1.0;
/// Monaghan viscosity β.
const BETA: f64 = 2.0;

/// Hydrodynamic accelerations and energy derivatives. Reused across steps
/// by [`hydro_rates_into`]; the vectors keep their capacity.
#[derive(Default)]
pub struct HydroRates {
    /// dv/dt per particle.
    pub acc: Vec<[f64; 3]>,
    /// du/dt per particle.
    pub du: Vec<f64>,
    /// Pairwise interactions performed (cost model).
    pub interactions: u64,
    /// Maximum signal speed seen (for the Courant condition).
    pub v_signal_max: f64,
}

impl HydroRates {
    /// Empty rates (no allocation until first use).
    pub fn new() -> HydroRates {
        HydroRates::default()
    }
}

/// Compute SPH rates for the current state (densities must be fresh).
/// Convenience wrapper over [`hydro_rates_into`] with temporary buffers.
pub fn hydro_rates(gas: &GasParticles) -> HydroRates {
    let mut scratch = SphScratch::new();
    scratch.cache_neighbors(gas);
    let mut out = HydroRates::new();
    hydro_rates_into(gas, &mut scratch, &mut out);
    out
}

/// Compute SPH rates into `out`, gathering from the per-particle
/// neighbour lists cached in `scratch`. The lists are rebuilt lazily
/// from the candidate sets the density pass staged (validated once per
/// call: they must have been staged for this particle count by
/// [`crate::density::compute_density_with`] or
/// [`SphScratch::cache_neighbors`]).
///
/// Symmetrized Monaghan form: both sides of a pair use the h-averaged
/// kernel gradient, so momentum is conserved to round-off (property-tested
/// in this crate's test suite).
// jc-lint: no-alloc
pub fn hydro_rates_into(gas: &GasParticles, scratch: &mut SphScratch, out: &mut HydroRates) {
    let n = gas.len();
    out.acc.clear();
    out.acc.resize(n, [0.0; 3]);
    out.du.clear();
    out.du.resize(n, 0.0);
    out.interactions = 0;
    out.v_signal_max = 0.0;
    if n == 0 {
        return;
    }
    scratch.ensure_cache(gas);
    if scratch.simd {
        scratch.soa.fill_all(gas);
    }
    let simd = scratch.simd;
    let threads = scratch.threads_for(n);
    let (soa, nbr_off, nbr_idx, scratch_pairs) = scratch.force_view();
    let nbrs = |i: usize| &nbr_idx[nbr_off[i] as usize..nbr_off[i + 1] as usize];
    let one = |i: usize, acc: &mut [f64; 3], du: &mut f64| -> (u64, f64) {
        let pi = gas.pressure(i);
        let ci = gas.sound_speed(i);
        let rhoi = gas.rho[i].max(1e-12);
        let pos = &gas.pos;
        let mut vsig: f64 = ci;
        let mut inter = 0u64;
        for &j32 in nbrs(i) {
            let j = j32 as usize;
            if j == i {
                continue;
            }
            let dx = [pos[i][0] - pos[j][0], pos[i][1] - pos[j][1], pos[i][2] - pos[j][2]];
            let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
            let h_ij = 0.5 * (gas.h[i] + gas.h[j]);
            if r2 >= h_ij * h_ij || r2 == 0.0 {
                continue;
            }
            inter += 1;
            let r = r2.sqrt();
            let dv = [
                gas.vel[i][0] - gas.vel[j][0],
                gas.vel[i][1] - gas.vel[j][1],
                gas.vel[i][2] - gas.vel[j][2],
            ];
            let vr = dv[0] * dx[0] + dv[1] * dx[1] + dv[2] * dx[2];
            let rhoj = gas.rho[j].max(1e-12);
            let pj = gas.pressure(j);
            // artificial viscosity
            let mut visc = 0.0;
            if vr < 0.0 {
                let cj = gas.sound_speed(j);
                let mu = h_ij * vr / (r2 + 0.01 * h_ij * h_ij);
                let c_mean = 0.5 * (ci + cj);
                let rho_mean = 0.5 * (rhoi + rhoj);
                visc = (-ALPHA * c_mean * mu + BETA * mu * mu) / rho_mean;
                vsig = vsig.max(c_mean - mu);
            }
            let gw = grad_w(dx, r, h_ij);
            let coeff = pi / (rhoi * rhoi) + pj / (rhoj * rhoj) + visc;
            let mj = gas.mass[j];
            for k in 0..3 {
                acc[k] -= mj * coeff * gw[k];
            }
            *du += 0.5 * mj * coeff * (dv[0] * gw[0] + dv[1] * gw[1] + dv[2] * gw[2]);
        }
        (inter, vsig)
    };
    // per-worker staged-pair columns for the SoA path (reused across
    // calls; scalar workers carry them untouched)
    // jc-lint: allow(no-alloc): PairCols::default is the resize_with element factory — empty columns don't allocate
    scratch_pairs.resize_with(threads, PairCols::default);
    let (inter, vsig) = par::chunked(
        threads,
        (out.acc.as_mut_slice(), out.du.as_mut_slice()),
        scratch_pairs,
        (0u64, 0.0f64),
        |s0, (ac, dc): (&mut [[f64; 3]], &mut [f64]), cols| {
            let mut inter = 0u64;
            let mut vsig = 0.0f64;
            for (k, (a, d)) in ac.iter_mut().zip(dc.iter_mut()).enumerate() {
                let i = s0 + k;
                let (it, vs) =
                    if simd { hydro_one_simd(i, soa, nbrs(i), cols, a, d) } else { one(i, a, d) };
                inter += it;
                vsig = vsig.max(vs);
            }
            (inter, vsig)
        },
        |(i1, v1), (i2, v2)| (i1 + i2, v1.max(v2)),
    );
    out.interactions = inter;
    out.v_signal_max = vsig;
}

/// Per-target scalars shared by the staged-pair evaluators.
struct TargetCtx {
    /// Velocity of particle `i`.
    vi: [f64; 3],
    /// Sound speed of particle `i`.
    ci: f64,
    /// Clamped density of particle `i`.
    rhoi: f64,
    /// `P_i / ρ_i²`, hoisted out of the pair loop.
    pi_rho2: f64,
}

/// One particle's rates on the SoA path
/// ([`crate::density::SphScratch::simd`]).
///
/// Two phases. The *filter* pass ([`filter_stage`], one portable body,
/// no dispatch) runs the pair predicate (`r² < h_ij²`, non-coincident)
/// over the cached list — which holds exactly the active pairs when it
/// comes from the density pass, so this is where the pair geometry is
/// derived, not where pairs are found — and stages the survivors'
/// `(j, dx, dy, dz, r², h_ij)`, values the predicate already computed,
/// as parallel columns in the per-worker [`PairCols`]. The *interaction*
/// pass ([`eval_pair_cols`]) then runs the expensive pair math over
/// actives only: staged columns come back as sequential vector loads,
/// per-neighbour values as single-line [`crate::density::EvalRow`] reads
/// (prefetched at staging time), the viscosity branch becomes a select
/// on `vr < 0`, and the spline gradient evaluates both pieces and
/// selects by `q`. Accumulation is lane-wise with the fixed
/// [`reduce_lanes`] reduction — bitwise stable run to run and on either
/// side of `eval_pair_cols`'s dispatch, equal to the scalar path only to
/// rounding. The interaction count and `v_signal_max` match the scalar
/// path *exactly* (same predicate, same signal-speed values,
/// order-independent max).
fn hydro_one_simd(
    i: usize,
    soa: &crate::density::GasSoa,
    nbr: &[u32],
    cols: &mut PairCols,
    acc: &mut [f64; 3],
    du: &mut f64,
) -> (u64, f64) {
    let evalr = soa.evalr.as_slice();
    cols.clear();
    filter_stage(i, soa.filt.as_slice(), evalr, nbr, cols);
    let ei = &evalr[i];
    let rhoi = ei.rho.max(1e-12);
    let ctx =
        TargetCtx { vi: [ei.vx, ei.vy, ei.vz], ci: ei.cs, rhoi, pi_rho2: ei.pres / (rhoi * rhoi) };
    let vsig = eval_pair_cols(cols, &ctx, soa, acc, du);
    (cols.len() as u64, vsig)
}

/// Filter phase of [`hydro_one_simd`]: one packed
/// [`crate::density::FiltRow`] probe per candidate of `nbr` (the split
/// SoA columns would cost four lines; prefetched `PF` candidates ahead),
/// the survivors appended to `cols` in list order; each accepted pair
/// prefetches its [`crate::density::EvalRow`] so the interaction pass
/// finds the line resident. The `j != i` clause is redundant with
/// `r2 != 0.0` (a self-pair has zero separation) but kept so the
/// predicate reads exactly like the scalar path's.
fn filter_stage(
    i: usize,
    filt: &[crate::density::FiltRow],
    evalr: &[crate::density::EvalRow],
    nbr: &[u32],
    cols: &mut PairCols,
) {
    let crate::density::FiltRow { x: pix, y: piy, z: piz, h: hi } = filt[i];
    const PF: usize = 16;
    let last = nbr.len().saturating_sub(1);
    for (k, &j32) in nbr.iter().enumerate() {
        prefetch_row(filt, nbr[(k + PF).min(last)] as usize);
        let j = j32 as usize;
        let f = &filt[j];
        let dx = pix - f.x;
        let dy = piy - f.y;
        let dz = piz - f.z;
        let r2 = dx * dx + dy * dy + dz * dz;
        let h_ij = 0.5 * (hi + f.h);
        if r2 < h_ij * h_ij && r2 != 0.0 && j != i {
            prefetch_row(evalr, j);
            cols.push(j32, dx, dy, dz, r2, h_ij);
        }
    }
}

/// Hint the cache to pull `rows[i]` (a pure hint: no-op off x86_64,
/// never faults, `i` is always in bounds here).
#[inline(always)]
fn prefetch_row<T>(rows: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `i` is in bounds of `rows`, so the address is valid to
    // form; prefetch itself is a hint and cannot fault.
    unsafe {
        std::arch::x86_64::_mm_prefetch(
            rows.as_ptr().add(i) as *const i8,
            std::arch::x86_64::_MM_HINT_T0,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (rows, i);
}

/// Evaluate the staged active pairs for one target (see
/// [`hydro_one_simd`]): the hand-written AVX2 clone where the CPU reports
/// AVX2 at runtime, the portable body otherwise. Both execute the
/// identical IEEE operation sequence, so results are machine-independent.
/// Returns the target's signal-speed maximum.
fn eval_pair_cols(
    cols: &PairCols,
    ctx: &TargetCtx,
    soa: &crate::density::GasSoa,
    acc: &mut [f64; 3],
    du: &mut f64,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the avx2 clone is only reached when the CPU reports the
        // feature at runtime.
        return unsafe { eval_pair_cols_avx2(cols, ctx, soa, acc, du) };
    }
    eval_pair_cols_body(cols, ctx, soa, acc, du)
}

/// The [`LANES`]-wide accumulators of the staged-pair evaluators: staged
/// pair `p` always folds into lane `p % LANES`.
struct PairLanes {
    ax: [f64; LANES],
    ay: [f64; LANES],
    az: [f64; LANES],
    du: [f64; LANES],
    vsig: [f64; LANES],
}

impl PairLanes {
    /// Zeroed accumulators; every lane's signal speed starts at the
    /// target's sound speed `ci`.
    #[inline(always)]
    fn new(ci: f64) -> PairLanes {
        let zero = [0.0; LANES];
        PairLanes { ax: zero, ay: zero, az: zero, du: zero, vsig: [ci; LANES] }
    }

    /// Reduce the lanes in the fixed [`reduce_lanes`] order into the
    /// target's rates; returns its signal-speed maximum.
    #[inline(always)]
    fn finish(&self, acc: &mut [f64; 3], du: &mut f64) -> f64 {
        *acc = [reduce_lanes(self.ax), reduce_lanes(self.ay), reduce_lanes(self.az)];
        *du = reduce_lanes(self.du);
        self.vsig[0].max(self.vsig[1]).max(self.vsig[2]).max(self.vsig[3])
    }
}

/// Fold staged pair `p` into its lane — the per-pair arithmetic of the
/// staged-pair evaluators, written once: the portable body runs it for
/// every pair, the AVX2 clone for its fewer-than-[`LANES`] tail.
#[inline(always)]
fn pair_into(
    lanes: &mut PairLanes,
    cols: &PairCols,
    p: usize,
    ctx: &TargetCtx,
    evalr: &[crate::density::EvalRow],
) {
    let l = p % LANES;
    let [vix, viy, viz] = ctx.vi;
    let (ci, rhoi, pi_rho2) = (ctx.ci, ctx.rhoi, ctx.pi_rho2);
    let e = &evalr[cols.j[p] as usize];
    let dx = cols.dx[p];
    let dy = cols.dy[p];
    let dz = cols.dz[p];
    let r2 = cols.r2[p];
    let h_ij = cols.h[p];
    let r = r2.sqrt();
    let dvx = vix - e.vx;
    let dvy = viy - e.vy;
    let dvz = viz - e.vz;
    let vr = dvx * dx + dvy * dy + dvz * dz;
    let rhoj = e.rho.max(1e-12);
    // artificial viscosity as a select on approach
    let cj = e.cs;
    let mu = h_ij * vr / (r2 + 0.01 * h_ij * h_ij);
    let c_mean = 0.5 * (ci + cj);
    let rho_mean = 0.5 * (rhoi + rhoj);
    let visc_full = (-ALPHA * c_mean * mu + BETA * mu * mu) / rho_mean;
    let approaching = vr < 0.0;
    let visc = if approaching { visc_full } else { 0.0 };
    let vsig_cand = if approaching { c_mean - mu } else { ci };
    // cubic-spline gradient, both pieces evaluated and selected
    let sigma_h = 8.0 / (std::f64::consts::PI * h_ij * h_ij * h_ij) / h_ij;
    let q = r / h_ij;
    let t = 1.0 - q;
    let near = -12.0 * q + 18.0 * q * q;
    let far = -6.0 * t * t;
    let piece = if q < 0.5 { near } else { far };
    let dwr_over_r = sigma_h * piece / r;
    let coeff = pi_rho2 + e.pres / (rhoj * rhoj) + visc;
    let scale = e.m * coeff * dwr_over_r;
    lanes.ax[l] -= scale * dx;
    lanes.ay[l] -= scale * dy;
    lanes.az[l] -= scale * dz;
    lanes.du[l] += 0.5 * scale * vr;
    lanes.vsig[l] = lanes.vsig[l].max(vsig_cand);
}

/// Portable staged-pair evaluation (the non-AVX2 side of
/// [`eval_pair_cols`]): [`pair_into`] over every staged pair.
fn eval_pair_cols_body(
    cols: &PairCols,
    ctx: &TargetCtx,
    soa: &crate::density::GasSoa,
    acc: &mut [f64; 3],
    du: &mut f64,
) -> f64 {
    let evalr = soa.evalr.as_slice();
    let mut lanes = PairLanes::new(ctx.ci);
    for p in 0..cols.len() {
        pair_into(&mut lanes, cols, p, ctx, evalr);
    }
    lanes.finish(acc, du)
}

/// AVX2 implementation of [`eval_pair_cols_body`]: four staged pairs per
/// iteration — sequential column loads for the pre-staged geometry, and
/// the per-neighbour values packed lane-wise from the single-line
/// [`crate::density::EvalRow`]s (prefetched by the filter phase; four
/// resident lines per batch, where per-column gathers cost 28),
/// branches as blends; the tail goes through [`pair_into`]. Every
/// operation is elementwise and in the portable body's exact order, so
/// results are bitwise identical to it.
// SAFETY: `#[target_feature(enable = "avx2")]` makes this fn unsafe to
// call; the only call site is gated on `is_x86_feature_detected!("avx2")`,
// so the AVX2 instructions are never executed on a CPU without them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn eval_pair_cols_avx2(
    cols: &PairCols,
    ctx: &TargetCtx,
    soa: &crate::density::GasSoa,
    acc: &mut [f64; 3],
    du: &mut f64,
) -> f64 {
    use std::arch::x86_64::*;
    let evalr = soa.evalr.as_slice();
    let n = cols.len();
    let batches = n / LANES;
    let mut lanes = PairLanes::new(ctx.ci);
    // SAFETY: column loads read indices `o .. o + 3` with
    // `o = b * LANES` and `b < n / LANES`, in bounds of every column
    // (all columns share length `n`); row indices come from `cols.j`,
    // which stages only valid particle indices, so they index `evalr`
    // in bounds (checked indexing regardless); the `storeu` spills
    // target the `LANES`-long lane arrays. The AVX2 intrinsics are
    // available per the `#[target_feature]` contract discharged at the
    // detection-gated call site.
    unsafe {
        let zero = _mm256_setzero_pd();
        let half = _mm256_set1_pd(0.5);
        let onev = _mm256_set1_pd(1.0);
        let c001 = _mm256_set1_pd(0.01);
        let eight = _mm256_set1_pd(8.0);
        let piv = _mm256_set1_pd(std::f64::consts::PI);
        let neg_alpha = _mm256_set1_pd(-ALPHA);
        let betav = _mm256_set1_pd(BETA);
        let neg12 = _mm256_set1_pd(-12.0);
        let p18 = _mm256_set1_pd(18.0);
        let neg6 = _mm256_set1_pd(-6.0);
        let rho_floor = _mm256_set1_pd(1e-12);
        let civ = _mm256_set1_pd(ctx.ci);
        let rhoiv = _mm256_set1_pd(ctx.rhoi);
        let pi_rho2v = _mm256_set1_pd(ctx.pi_rho2);
        let vixv = _mm256_set1_pd(ctx.vi[0]);
        let viyv = _mm256_set1_pd(ctx.vi[1]);
        let vizv = _mm256_set1_pd(ctx.vi[2]);
        let mut axv = zero;
        let mut ayv = zero;
        let mut azv = zero;
        let mut duv = zero;
        let mut vsigv = civ;
        for b in 0..batches {
            let o = b * LANES;
            let e0 = &evalr[cols.j[o] as usize];
            let e1 = &evalr[cols.j[o + 1] as usize];
            let e2 = &evalr[cols.j[o + 2] as usize];
            let e3 = &evalr[cols.j[o + 3] as usize];
            let dx = _mm256_loadu_pd(cols.dx.as_ptr().add(o));
            let dy = _mm256_loadu_pd(cols.dy.as_ptr().add(o));
            let dz = _mm256_loadu_pd(cols.dz.as_ptr().add(o));
            let r2 = _mm256_loadu_pd(cols.r2.as_ptr().add(o));
            let hv = _mm256_loadu_pd(cols.h.as_ptr().add(o));
            let r = _mm256_sqrt_pd(r2);
            let dvx = _mm256_sub_pd(vixv, _mm256_set_pd(e3.vx, e2.vx, e1.vx, e0.vx));
            let dvy = _mm256_sub_pd(viyv, _mm256_set_pd(e3.vy, e2.vy, e1.vy, e0.vy));
            let dvz = _mm256_sub_pd(vizv, _mm256_set_pd(e3.vz, e2.vz, e1.vz, e0.vz));
            let vr = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dvx, dx), _mm256_mul_pd(dvy, dy)),
                _mm256_mul_pd(dvz, dz),
            );
            let rhoj = _mm256_max_pd(_mm256_set_pd(e3.rho, e2.rho, e1.rho, e0.rho), rho_floor);
            let cj = _mm256_set_pd(e3.cs, e2.cs, e1.cs, e0.cs);
            let mu = _mm256_div_pd(
                _mm256_mul_pd(hv, vr),
                _mm256_add_pd(r2, _mm256_mul_pd(_mm256_mul_pd(c001, hv), hv)),
            );
            let c_mean = _mm256_mul_pd(half, _mm256_add_pd(civ, cj));
            let rho_mean = _mm256_mul_pd(half, _mm256_add_pd(rhoiv, rhoj));
            let visc_full = _mm256_div_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(_mm256_mul_pd(neg_alpha, c_mean), mu),
                    _mm256_mul_pd(_mm256_mul_pd(betav, mu), mu),
                ),
                rho_mean,
            );
            let approaching = _mm256_cmp_pd::<_CMP_LT_OQ>(vr, zero);
            let visc = _mm256_blendv_pd(zero, visc_full, approaching);
            let vsig_cand = _mm256_blendv_pd(civ, _mm256_sub_pd(c_mean, mu), approaching);
            let sigma_h = _mm256_div_pd(
                _mm256_div_pd(eight, _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(piv, hv), hv), hv)),
                hv,
            );
            let q = _mm256_div_pd(r, hv);
            let t = _mm256_sub_pd(onev, q);
            let near =
                _mm256_add_pd(_mm256_mul_pd(neg12, q), _mm256_mul_pd(_mm256_mul_pd(p18, q), q));
            let far = _mm256_mul_pd(_mm256_mul_pd(neg6, t), t);
            let piece = _mm256_blendv_pd(far, near, _mm256_cmp_pd::<_CMP_LT_OQ>(q, half));
            let dwr_over_r = _mm256_div_pd(_mm256_mul_pd(sigma_h, piece), r);
            let coeff = _mm256_add_pd(
                _mm256_add_pd(
                    pi_rho2v,
                    _mm256_div_pd(
                        _mm256_set_pd(e3.pres, e2.pres, e1.pres, e0.pres),
                        _mm256_mul_pd(rhoj, rhoj),
                    ),
                ),
                visc,
            );
            let scale = _mm256_mul_pd(
                _mm256_mul_pd(_mm256_set_pd(e3.m, e2.m, e1.m, e0.m), coeff),
                dwr_over_r,
            );
            axv = _mm256_sub_pd(axv, _mm256_mul_pd(scale, dx));
            ayv = _mm256_sub_pd(ayv, _mm256_mul_pd(scale, dy));
            azv = _mm256_sub_pd(azv, _mm256_mul_pd(scale, dz));
            duv = _mm256_add_pd(duv, _mm256_mul_pd(_mm256_mul_pd(half, scale), vr));
            vsigv = _mm256_max_pd(vsigv, vsig_cand);
        }
        _mm256_storeu_pd(lanes.ax.as_mut_ptr(), axv);
        _mm256_storeu_pd(lanes.ay.as_mut_ptr(), ayv);
        _mm256_storeu_pd(lanes.az.as_mut_ptr(), azv);
        _mm256_storeu_pd(lanes.du.as_mut_ptr(), duv);
        _mm256_storeu_pd(lanes.vsig.as_mut_ptr(), vsigv);
    }
    for p in batches * LANES..n {
        pair_into(&mut lanes, cols, p, ctx, evalr);
    }
    lanes.finish(acc, du)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::{compute_density, compute_density_with};
    use crate::particles::plummer_gas;

    #[test]
    fn pressure_forces_conserve_momentum() {
        let mut gas = plummer_gas(300, 1.0, 7);
        compute_density(&mut gas);
        let rates = hydro_rates(&gas);
        let mut ptot = [0.0f64; 3];
        for (m, a) in gas.mass.iter().zip(&rates.acc) {
            for k in 0..3 {
                ptot[k] += m * a[k];
            }
        }
        let scale: f64 = rates
            .acc
            .iter()
            .zip(&gas.mass)
            .map(|(a, m)| m * (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt())
            .sum();
        for k in 0..3 {
            assert!(
                ptot[k].abs() < 1e-9 * scale.max(1.0),
                "momentum leak {ptot:?} (scale {scale})"
            );
        }
    }

    #[test]
    fn compressed_gas_pushes_outwards() {
        // Two particles approaching: viscosity + pressure must repel.
        let mut gas = GasParticles::new();
        gas.push(1.0, [-0.02, 0.0, 0.0], [0.5, 0.0, 0.0], 1.0);
        gas.push(1.0, [0.02, 0.0, 0.0], [-0.5, 0.0, 0.0], 1.0);
        compute_density(&mut gas);
        let rates = hydro_rates(&gas);
        assert!(rates.acc[0][0] < 0.0, "left particle pushed left: {:?}", rates.acc);
        assert!(rates.acc[1][0] > 0.0);
        // approaching shocked pair heats up
        assert!(rates.du[0] > 0.0 && rates.du[1] > 0.0, "{:?}", rates.du);
    }

    #[test]
    fn isolated_particle_feels_nothing() {
        let mut gas = GasParticles::new();
        gas.push(1.0, [0.0; 3], [0.0; 3], 1.0);
        compute_density(&mut gas);
        let rates = hydro_rates(&gas);
        assert_eq!(rates.acc[0], [0.0; 3]);
        assert_eq!(rates.du[0], 0.0);
    }

    #[test]
    fn signal_speed_at_least_sound_speed() {
        let mut gas = plummer_gas(100, 1.0, 9);
        compute_density(&mut gas);
        let rates = hydro_rates(&gas);
        let max_c = (0..gas.len()).map(|i| gas.sound_speed(i)).fold(0.0f64, f64::max);
        assert!(rates.v_signal_max >= max_c * 0.999);
    }

    #[test]
    fn cached_path_matches_standalone_pair_set() {
        // the density-built cache and a standalone cache_neighbors cache
        // use different grid cells but must accept the same physical pairs
        let mut gas = plummer_gas(500, 1.0, 13);
        let mut scratch = crate::density::SphScratch::new();
        compute_density_with(&mut gas, &mut scratch);
        let mut cached = HydroRates::new();
        hydro_rates_into(&gas, &mut scratch, &mut cached);
        let standalone = hydro_rates(&gas);
        assert_eq!(cached.interactions, standalone.interactions);
        for (a, b) in cached.acc.iter().zip(&standalone.acc) {
            for k in 0..3 {
                assert!((a[k] - b[k]).abs() <= 1e-12 * a[k].abs().max(1.0), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "stale neighbour grid")]
    fn stale_cache_is_rejected() {
        let mut gas = plummer_gas(50, 1.0, 3);
        let mut scratch = crate::density::SphScratch::new();
        compute_density_with(&mut gas, &mut scratch);
        gas.push(1.0, [0.0; 3], [0.0; 3], 1.0); // grid now stale
        let mut out = HydroRates::new();
        hydro_rates_into(&gas, &mut scratch, &mut out);
    }

    #[test]
    fn simd_forces_match_scalar_within_tolerance() {
        let mut gas = plummer_gas(900, 1.0, 13);
        let mut scratch = crate::density::SphScratch::new();
        scratch.simd = false;
        compute_density_with(&mut gas, &mut scratch);
        let mut scalar = HydroRates::new();
        hydro_rates_into(&gas, &mut scratch, &mut scalar);
        // same densities, same cached neighbour lists — only the gather
        // kernel changes
        scratch.simd = true;
        let mut simd = HydroRates::new();
        hydro_rates_into(&gas, &mut scratch, &mut simd);
        assert_eq!(scalar.interactions, simd.interactions, "pair predicate diverged");
        assert_eq!(
            scalar.v_signal_max.to_bits(),
            simd.v_signal_max.to_bits(),
            "signal speeds diverged: {} vs {}",
            scalar.v_signal_max,
            simd.v_signal_max
        );
        let scale: f64 = scalar
            .acc
            .iter()
            .map(|a| (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt())
            .fold(0.0, f64::max)
            .max(1.0);
        for (i, (a, b)) in simd.acc.iter().zip(&scalar.acc).enumerate() {
            for k in 0..3 {
                assert!(
                    (a[k] - b[k]).abs() <= 1e-11 * scale,
                    "acc[{i}][{k}]: {} vs {}",
                    a[k],
                    b[k]
                );
            }
        }
        for (i, (a, b)) in simd.du.iter().zip(&scalar.du).enumerate() {
            assert!((a - b).abs() <= 1e-11 * b.abs().max(1.0), "du[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn staged_eval_dispatch_tiers_match_portable_body_bitwise() {
        // Per-particle neighbour lists give every length class (4-wide
        // batches, scalar tails). The dispatched evaluator (the AVX2
        // clone where the CPU has it) must be bitwise identical to the
        // portable body on identical staged columns.
        let mut gas = plummer_gas(700, 1.0, 11);
        let mut scratch = crate::density::SphScratch::new();
        compute_density_with(&mut gas, &mut scratch);
        scratch.ensure_cache(&gas);
        scratch.soa.fill_all(&gas);
        let (soa, nbr_off, nbr_idx, _) = scratch.force_view();
        let mut cols = PairCols::default();
        for i in 0..gas.len() {
            let nbr = &nbr_idx[nbr_off[i] as usize..nbr_off[i + 1] as usize];
            let (mut a1, mut d1) = ([0.0f64; 3], 0.0f64);
            let (_, vs1) = hydro_one_simd(i, soa, nbr, &mut cols, &mut a1, &mut d1);
            let rhoi = soa.rho.as_slice()[i].max(1e-12);
            let ctx = TargetCtx {
                vi: [soa.vel.x.as_slice()[i], soa.vel.y.as_slice()[i], soa.vel.z.as_slice()[i]],
                ci: soa.cs.as_slice()[i],
                rhoi,
                pi_rho2: soa.pres.as_slice()[i] / (rhoi * rhoi),
            };
            let (mut a2, mut d2) = ([0.0f64; 3], 0.0f64);
            let vs2 = eval_pair_cols_body(&cols, &ctx, soa, &mut a2, &mut d2);
            assert_eq!(a1, a2, "acc tier divergence at i={i} ({} pairs)", cols.len());
            assert_eq!(d1.to_bits(), d2.to_bits(), "du tier divergence at i={i}");
            assert_eq!(vs1.to_bits(), vs2.to_bits(), "vsig tier divergence at i={i}");
        }
    }

    #[test]
    fn force_lists_stage_exactly_the_active_pairs() {
        // The filter must stage exactly the pairs the cached list holds,
        // whether it runs over that list (all accepted) or over the
        // whole set (mostly rejected, including the self-pair).
        let mut gas = plummer_gas(700, 1.0, 23);
        let mut scratch = crate::density::SphScratch::new();
        compute_density_with(&mut gas, &mut scratch);
        scratch.ensure_cache(&gas);
        scratch.soa.fill_all(&gas);
        let (soa, nbr_off, nbr_idx, _) = scratch.force_view();
        let filt = soa.filt.as_slice();
        let evalr = soa.evalr.as_slice();
        let everyone: Vec<u32> = (0..gas.len() as u32).collect();
        let mut staged = PairCols::default();
        for i in 0..gas.len() {
            let list = &nbr_idx[nbr_off[i] as usize..nbr_off[i + 1] as usize];
            for nbr in [list, &everyone[..]] {
                staged.clear();
                filter_stage(i, filt, evalr, nbr, &mut staged);
                let (mut got, mut listed) = (staged.j.clone(), list.to_vec());
                got.sort_unstable();
                listed.sort_unstable();
                assert_eq!(got, listed, "the lists hold exactly the active pairs at i={i}");
            }
        }
    }

    #[test]
    fn simd_forces_conserve_momentum() {
        let mut gas = plummer_gas(400, 1.0, 7);
        let mut scratch = crate::density::SphScratch::new();
        scratch.simd = true;
        compute_density_with(&mut gas, &mut scratch);
        let mut rates = HydroRates::new();
        hydro_rates_into(&gas, &mut scratch, &mut rates);
        let mut ptot = [0.0f64; 3];
        for (m, a) in gas.mass.iter().zip(&rates.acc) {
            for k in 0..3 {
                ptot[k] += m * a[k];
            }
        }
        let scale: f64 = rates
            .acc
            .iter()
            .zip(&gas.mass)
            .map(|(a, m)| m * (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt())
            .sum();
        for k in 0..3 {
            assert!(ptot[k].abs() < 1e-9 * scale.max(1.0), "momentum leak {ptot:?}");
        }
    }

    #[test]
    fn rates_buffers_are_reused() {
        let mut gas = plummer_gas(200, 1.0, 15);
        let mut scratch = crate::density::SphScratch::new();
        compute_density_with(&mut gas, &mut scratch);
        let mut out = HydroRates::new();
        hydro_rates_into(&gas, &mut scratch, &mut out);
        let cap = out.acc.capacity();
        hydro_rates_into(&gas, &mut scratch, &mut out);
        assert_eq!(out.acc.capacity(), cap, "acc buffer reallocated");
        assert_eq!(out.acc.len(), gas.len());
    }
}
