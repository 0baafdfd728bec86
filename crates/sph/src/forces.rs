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
/// Two phases, each dispatched once per list to the widest instruction
/// set the CPU offers. The *filter* pass runs the pair predicate
/// (`r² < h_ij²`, non-coincident) over the cached list — which holds
/// exactly the active pairs when it comes from the density pass, so
/// this is where the pair geometry is derived, not where pairs are
/// found. Each probe is one packed [`crate::density::FiltRow`] load
/// (the split SoA columns would cost four lines); the vector filters
/// batch 4 or 8 candidates per iteration with the predicate as a
/// compare mask, and stage the survivors' `(j, dx, dy, dz, r², h_ij)`
/// — values the predicate already computed — as parallel columns in
/// the per-worker
/// [`PairCols`]. The *interaction* pass ([`eval_pair_cols`]) then runs
/// the expensive pair math over actives only: staged columns come back
/// as sequential vector loads, per-neighbour values as single-line
/// [`crate::density::EvalRow`] reads (prefetched at staging time), the
/// viscosity branch becomes a select on `vr < 0`, and the spline
/// gradient evaluates both pieces and selects by `q`. Accumulation is
/// lane-wise with the fixed [`reduce_lanes`] reduction — bitwise stable
/// run to run and across dispatch tiers, equal to the scalar path only
/// to rounding. The interaction count and `v_signal_max` match the
/// scalar path *exactly* (same predicate, same signal-speed values,
/// order-independent max).
fn hydro_one_simd(
    i: usize,
    soa: &crate::density::GasSoa,
    nbr: &[u32],
    cols: &mut PairCols,
    acc: &mut [f64; 3],
    du: &mut f64,
) -> (u64, f64) {
    let filt = soa.filt.as_slice();
    let evalr = soa.evalr.as_slice();
    let fi = filt[i];
    // filter: stage the active pairs (preserving list order), dispatched
    // to the widest filter the CPU offers
    cols.clear();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("avx2")
    {
        // SAFETY: gated on runtime AVX-512F + AVX2 detection.
        unsafe { filter_stage_avx512(i, fi, filt, evalr, nbr, cols) };
    } else if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: gated on runtime AVX2 detection.
        unsafe { filter_stage_avx2(i, fi, filt, evalr, nbr, cols) };
    } else {
        filter_stage_scalar(i, fi, filt, evalr, nbr, cols);
    }
    #[cfg(not(target_arch = "x86_64"))]
    filter_stage_scalar(i, fi, filt, evalr, nbr, cols);
    let ei = &evalr[i];
    let rhoi = ei.rho.max(1e-12);
    let ctx =
        TargetCtx { vi: [ei.vx, ei.vy, ei.vz], ci: ei.cs, rhoi, pi_rho2: ei.pres / (rhoi * rhoi) };
    let vsig = eval_pair_cols(cols, &ctx, soa, acc, du);
    (cols.len() as u64, vsig)
}

/// Portable filter phase of [`hydro_one_simd`]: one packed
/// [`crate::density::FiltRow`] probe per candidate (prefetched `PF`
/// candidates ahead); each accepted pair prefetches its
/// [`crate::density::EvalRow`] so the interaction pass finds the line
/// resident. The `j != i` clause is redundant with `r2 != 0.0` (a
/// self-pair has zero separation) but kept so this reference predicate
/// reads exactly like the scalar path's.
fn filter_stage_scalar(
    i: usize,
    fi: crate::density::FiltRow,
    filt: &[crate::density::FiltRow],
    evalr: &[crate::density::EvalRow],
    nbr: &[u32],
    cols: &mut PairCols,
) {
    let (pix, piy, piz, hi) = (fi.x, fi.y, fi.z, fi.h);
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

/// AVX2 filter phase of [`hydro_one_simd`]: four candidates per
/// iteration. Each candidate's packed [`crate::density::FiltRow`] is
/// one 32-byte vector load; a 4×4 transpose turns the four rows into
/// `x/y/z/h` lane vectors, the predicate becomes a compare mask, and
/// the lanes it sets are spilled to the staging columns. Produces
/// bitwise-identical staged
/// columns to [`filter_stage_scalar`] in the same order (elementwise
/// IEEE ops; a self-pair fails `r2 != 0` exactly as it fails `j != i`).
// SAFETY: `#[target_feature(enable = "avx2")]` makes this fn unsafe to
// call; the only call site is gated on `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn filter_stage_avx2(
    i: usize,
    fi: crate::density::FiltRow,
    filt: &[crate::density::FiltRow],
    evalr: &[crate::density::EvalRow],
    nbr: &[u32],
    cols: &mut PairCols,
) {
    use std::arch::x86_64::*;
    let n = nbr.len();
    let batches = n / LANES;
    // SAFETY: every candidate index in `nbr` is a valid particle index
    // (the grid stages only in-range indices), so the row loads stay in
    // bounds of `filt`; spills target local stack arrays; prefetches
    // are pure hints. The AVX2 intrinsics are available per the
    // `#[target_feature]` contract discharged at the gated call site.
    unsafe {
        let pixv = _mm256_set1_pd(fi.x);
        let piyv = _mm256_set1_pd(fi.y);
        let pizv = _mm256_set1_pd(fi.z);
        let hiv = _mm256_set1_pd(fi.h);
        let halfv = _mm256_set1_pd(0.5);
        let zerov = _mm256_setzero_pd();
        for b in 0..batches {
            let o = b * LANES;
            if o + 2 * LANES <= n {
                // pull the next batch's rows while this one transposes
                for l in 0..LANES {
                    prefetch_row(filt, nbr[o + LANES + l] as usize);
                }
            }
            let j0 = nbr[o] as usize;
            let j1 = nbr[o + 1] as usize;
            let j2 = nbr[o + 2] as usize;
            let j3 = nbr[o + 3] as usize;
            let r0 = _mm256_loadu_pd(filt.as_ptr().add(j0) as *const f64);
            let r1 = _mm256_loadu_pd(filt.as_ptr().add(j1) as *const f64);
            let r2r = _mm256_loadu_pd(filt.as_ptr().add(j2) as *const f64);
            let r3 = _mm256_loadu_pd(filt.as_ptr().add(j3) as *const f64);
            let t0 = _mm256_unpacklo_pd(r0, r1); // x0 x1 z0 z1
            let t1 = _mm256_unpackhi_pd(r0, r1); // y0 y1 h0 h1
            let t2 = _mm256_unpacklo_pd(r2r, r3); // x2 x3 z2 z3
            let t3 = _mm256_unpackhi_pd(r2r, r3); // y2 y3 h2 h3
            let xv = _mm256_permute2f128_pd::<0x20>(t0, t2);
            let yv = _mm256_permute2f128_pd::<0x20>(t1, t3);
            let zv = _mm256_permute2f128_pd::<0x31>(t0, t2);
            let hv = _mm256_permute2f128_pd::<0x31>(t1, t3);
            let dx = _mm256_sub_pd(pixv, xv);
            let dy = _mm256_sub_pd(piyv, yv);
            let dz = _mm256_sub_pd(pizv, zv);
            let r2v = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz),
            );
            let h_ij = _mm256_mul_pd(halfv, _mm256_add_pd(hiv, hv));
            let mask = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LT_OQ>(r2v, _mm256_mul_pd(h_ij, h_ij)),
                _mm256_cmp_pd::<_CMP_NEQ_OQ>(r2v, zerov),
            );
            let mbits = _mm256_movemask_pd(mask);
            if mbits != 0 {
                let mut dxl = [0.0f64; LANES];
                let mut dyl = [0.0f64; LANES];
                let mut dzl = [0.0f64; LANES];
                let mut r2l = [0.0f64; LANES];
                let mut hl = [0.0f64; LANES];
                _mm256_storeu_pd(dxl.as_mut_ptr(), dx);
                _mm256_storeu_pd(dyl.as_mut_ptr(), dy);
                _mm256_storeu_pd(dzl.as_mut_ptr(), dz);
                _mm256_storeu_pd(r2l.as_mut_ptr(), r2v);
                _mm256_storeu_pd(hl.as_mut_ptr(), h_ij);
                for l in 0..LANES {
                    if mbits & (1 << l) != 0 {
                        let j32 = nbr[o + l];
                        prefetch_row(evalr, j32 as usize);
                        cols.push(j32, dxl[l], dyl[l], dzl[l], r2l[l], hl[l]);
                    }
                }
            }
        }
        // leftover candidates: the scalar predicate, verbatim
        let (pix, piy, piz, hi) = (fi.x, fi.y, fi.z, fi.h);
        for &j32 in &nbr[batches * LANES..] {
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
}

/// AVX-512 filter phase of [`hydro_one_simd`]: eight candidates per
/// iteration — the 8-wide shape of [`filter_stage_avx2`] (two 4×4 row
/// transposes widened into ZMM lanes, the predicate as a native 8-bit
/// compare mask). Elementwise IEEE ops at any width are exact, so the
/// staged columns stay bitwise identical to [`filter_stage_scalar`]'s,
/// in the same order.
// SAFETY: `#[target_feature(enable = "avx512f,avx2")]` makes this fn
// unsafe to call; the only call site is gated on runtime detection of
// both features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
unsafe fn filter_stage_avx512(
    i: usize,
    fi: crate::density::FiltRow,
    filt: &[crate::density::FiltRow],
    evalr: &[crate::density::EvalRow],
    nbr: &[u32],
    cols: &mut PairCols,
) {
    use std::arch::x86_64::*;
    const W: usize = 2 * LANES;
    let n = nbr.len();
    let groups = n / W;
    // SAFETY: every candidate index in `nbr` is a valid particle index
    // (the grid stages only in-range indices), so the row loads stay in
    // bounds of `filt`; spills target local stack arrays; prefetches
    // are pure hints. The AVX-512/AVX2 intrinsics are available per the
    // `#[target_feature]` contract discharged at the gated call site.
    unsafe {
        let pixv = _mm512_set1_pd(fi.x);
        let piyv = _mm512_set1_pd(fi.y);
        let pizv = _mm512_set1_pd(fi.z);
        let hiv = _mm512_set1_pd(fi.h);
        let halfv = _mm512_set1_pd(0.5);
        let zerov = _mm512_setzero_pd();
        for g in 0..groups {
            let o = g * W;
            if o + 2 * W <= n {
                // pull the next group's rows while this one transposes
                for l in 0..W {
                    prefetch_row(filt, nbr[o + W + l] as usize);
                }
            }
            // transpose rows 0..4 and 4..8 into x/y/z/h quads, then
            // widen each pair of quads into one ZMM register
            let mut quads = [_mm256_setzero_pd(); 8];
            for half in 0..2 {
                let j0 = nbr[o + 4 * half] as usize;
                let j1 = nbr[o + 4 * half + 1] as usize;
                let j2 = nbr[o + 4 * half + 2] as usize;
                let j3 = nbr[o + 4 * half + 3] as usize;
                let r0 = _mm256_loadu_pd(filt.as_ptr().add(j0) as *const f64);
                let r1 = _mm256_loadu_pd(filt.as_ptr().add(j1) as *const f64);
                let r2r = _mm256_loadu_pd(filt.as_ptr().add(j2) as *const f64);
                let r3 = _mm256_loadu_pd(filt.as_ptr().add(j3) as *const f64);
                let t0 = _mm256_unpacklo_pd(r0, r1); // x0 x1 z0 z1
                let t1 = _mm256_unpackhi_pd(r0, r1); // y0 y1 h0 h1
                let t2 = _mm256_unpacklo_pd(r2r, r3); // x2 x3 z2 z3
                let t3 = _mm256_unpackhi_pd(r2r, r3); // y2 y3 h2 h3
                quads[4 * half] = _mm256_permute2f128_pd::<0x20>(t0, t2);
                quads[4 * half + 1] = _mm256_permute2f128_pd::<0x20>(t1, t3);
                quads[4 * half + 2] = _mm256_permute2f128_pd::<0x31>(t0, t2);
                quads[4 * half + 3] = _mm256_permute2f128_pd::<0x31>(t1, t3);
            }
            let xv = _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(quads[0]), quads[4]);
            let yv = _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(quads[1]), quads[5]);
            let zv = _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(quads[2]), quads[6]);
            let hv = _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(quads[3]), quads[7]);
            let dx = _mm512_sub_pd(pixv, xv);
            let dy = _mm512_sub_pd(piyv, yv);
            let dz = _mm512_sub_pd(pizv, zv);
            let r2v = _mm512_add_pd(
                _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
                _mm512_mul_pd(dz, dz),
            );
            let h_ij = _mm512_mul_pd(halfv, _mm512_add_pd(hiv, hv));
            let mbits = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(r2v, _mm512_mul_pd(h_ij, h_ij))
                & _mm512_cmp_pd_mask::<_CMP_NEQ_OQ>(r2v, zerov);
            if mbits != 0 {
                let mut dxl = [0.0f64; W];
                let mut dyl = [0.0f64; W];
                let mut dzl = [0.0f64; W];
                let mut r2l = [0.0f64; W];
                let mut hl = [0.0f64; W];
                _mm512_storeu_pd(dxl.as_mut_ptr(), dx);
                _mm512_storeu_pd(dyl.as_mut_ptr(), dy);
                _mm512_storeu_pd(dzl.as_mut_ptr(), dz);
                _mm512_storeu_pd(r2l.as_mut_ptr(), r2v);
                _mm512_storeu_pd(hl.as_mut_ptr(), h_ij);
                for l in 0..W {
                    if mbits & (1 << l) != 0 {
                        let j32 = nbr[o + l];
                        prefetch_row(evalr, j32 as usize);
                        cols.push(j32, dxl[l], dyl[l], dzl[l], r2l[l], hl[l]);
                    }
                }
            }
        }
        // leftover candidates: the scalar predicate, verbatim
        let (pix, piy, piz, hi) = (fi.x, fi.y, fi.z, fi.h);
        for &j32 in &nbr[groups * W..] {
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

/// Evaluate the staged active pairs for one target, dispatched once per
/// list to the widest available instruction set (see [`hydro_one_simd`];
/// the AVX-512 and AVX2 clones and the portable body execute the
/// identical IEEE operation sequence, so results are
/// machine-independent). Returns the target's signal-speed maximum.
fn eval_pair_cols(
    cols: &PairCols,
    ctx: &TargetCtx,
    soa: &crate::density::GasSoa,
    acc: &mut [f64; 3],
    du: &mut f64,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            // SAFETY: the avx512 clone is only reached when the CPU
            // reports both features at runtime.
            return unsafe { eval_pair_cols_avx512(cols, ctx, soa, acc, du) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the avx2 clone is only reached when the CPU
            // reports the feature at runtime.
            return unsafe { eval_pair_cols_avx2(cols, ctx, soa, acc, du) };
        }
    }
    eval_pair_cols_body(cols, ctx, soa, acc, du)
}

/// Portable [`LANES`]-wide staged-pair evaluation (the non-AVX fallback
/// of [`eval_pair_cols`]) — same operation sequence as the hardware
/// clones, narrower vectors.
#[inline(always)]
fn eval_pair_cols_body(
    cols: &PairCols,
    ctx: &TargetCtx,
    soa: &crate::density::GasSoa,
    acc: &mut [f64; 3],
    du: &mut f64,
) -> f64 {
    let evalr = soa.evalr.as_slice();
    let [vix, viy, viz] = ctx.vi;
    let (ci, rhoi, pi_rho2) = (ctx.ci, ctx.rhoi, ctx.pi_rho2);
    let (mut axl, mut ayl, mut azl) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
    let mut dul = [0.0f64; LANES];
    let mut vsigl = [ci; LANES];
    macro_rules! lane {
        ($l:expr, $p:expr) => {{
            let l = $l;
            let p = $p;
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
            axl[l] -= scale * dx;
            ayl[l] -= scale * dy;
            azl[l] -= scale * dz;
            dul[l] += 0.5 * scale * vr;
            vsigl[l] = vsigl[l].max(vsig_cand);
        }};
    }
    let n = cols.len();
    let batches = n / LANES;
    for b in 0..batches {
        let o = b * LANES;
        for l in 0..LANES {
            lane!(l, o + l);
        }
    }
    for l in 0..n - batches * LANES {
        lane!(l, batches * LANES + l);
    }
    acc[0] = reduce_lanes(axl);
    acc[1] = reduce_lanes(ayl);
    acc[2] = reduce_lanes(azl);
    *du = reduce_lanes(dul);
    vsigl[0].max(vsigl[1]).max(vsigl[2]).max(vsigl[3])
}

/// AVX2 implementation of [`eval_pair_cols_body`]: four staged pairs per
/// iteration — sequential column loads for the pre-staged geometry, and
/// the per-neighbour values packed lane-wise from the single-line
/// [`crate::density::EvalRow`]s (prefetched by the filter phase; four
/// resident lines per batch, where per-column gathers cost 28),
/// branches as blends. Every operation is elementwise and in the
/// portable body's exact order, so results are bitwise identical to it.
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
    // SAFETY: column loads read indices `o .. o + 3` with
    // `o = b * LANES` and `b < n / LANES`, in bounds of every column
    // (all columns share length `n`); row indices come from `cols.j`,
    // which stages only valid particle indices, so they index `evalr`
    // in bounds (checked indexing regardless); the `storeu` spills
    // target local stack arrays. The AVX2 intrinsics are available per
    // the `#[target_feature]` contract discharged at the
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
        let (mut axl, mut ayl, mut azl) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
        let mut dul = [0.0f64; LANES];
        let mut vsigl = [0.0f64; LANES];
        _mm256_storeu_pd(axl.as_mut_ptr(), axv);
        _mm256_storeu_pd(ayl.as_mut_ptr(), ayv);
        _mm256_storeu_pd(azl.as_mut_ptr(), azv);
        _mm256_storeu_pd(dul.as_mut_ptr(), duv);
        _mm256_storeu_pd(vsigl.as_mut_ptr(), vsigv);
        eval_pair_cols_tail(
            cols,
            ctx,
            soa,
            batches * LANES,
            &mut axl,
            &mut ayl,
            &mut azl,
            &mut dul,
            &mut vsigl,
        );
        acc[0] = reduce_lanes(axl);
        acc[1] = reduce_lanes(ayl);
        acc[2] = reduce_lanes(azl);
        *du = reduce_lanes(dul);
        vsigl[0].max(vsigl[1]).max(vsigl[2]).max(vsigl[3])
    }
}

/// Scalar tail of the staged-pair evaluators: pairs `o ..` (fewer than
/// [`LANES`]) folded into the spilled lane accumulators with the exact
/// lane arithmetic of [`eval_pair_cols_body`]. Shared by the AVX2 and
/// AVX-512 clones so the tail is written (and audited) once.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn eval_pair_cols_tail(
    cols: &PairCols,
    ctx: &TargetCtx,
    soa: &crate::density::GasSoa,
    o: usize,
    axl: &mut [f64; LANES],
    ayl: &mut [f64; LANES],
    azl: &mut [f64; LANES],
    dul: &mut [f64; LANES],
    vsigl: &mut [f64; LANES],
) {
    let evalr = soa.evalr.as_slice();
    let [vix, viy, viz] = ctx.vi;
    let (ci, rhoi, pi_rho2) = (ctx.ci, ctx.rhoi, ctx.pi_rho2);
    for l in 0..cols.len() - o {
        let p = o + l;
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
        let cj = e.cs;
        let mu = h_ij * vr / (r2 + 0.01 * h_ij * h_ij);
        let c_mean = 0.5 * (ci + cj);
        let rho_mean = 0.5 * (rhoi + rhoj);
        let visc_full = (-ALPHA * c_mean * mu + BETA * mu * mu) / rho_mean;
        let approaching = vr < 0.0;
        let visc = if approaching { visc_full } else { 0.0 };
        let vsig_cand = if approaching { c_mean - mu } else { ci };
        let sigma_h = 8.0 / (std::f64::consts::PI * h_ij * h_ij * h_ij) / h_ij;
        let q = r / h_ij;
        let t = 1.0 - q;
        let near = -12.0 * q + 18.0 * q * q;
        let far = -6.0 * t * t;
        let piece = if q < 0.5 { near } else { far };
        let dwr_over_r = sigma_h * piece / r;
        let coeff = pi_rho2 + e.pres / (rhoj * rhoj) + visc;
        let scale = e.m * coeff * dwr_over_r;
        axl[l] -= scale * dx;
        ayl[l] -= scale * dy;
        azl[l] -= scale * dz;
        dul[l] += 0.5 * scale * vr;
        vsigl[l] = vsigl[l].max(vsig_cand);
    }
}

/// AVX-512 implementation of [`eval_pair_cols_body`]: eight staged pairs
/// per iteration with 8-wide elementwise math, the per-neighbour values
/// packed lane-wise from single-line [`crate::density::EvalRow`]s.
/// Accumulation stays [`LANES`]-wide and *sequential* (low half, then
/// high half of every 8-wide product), reproducing the portable body's
/// exact batch order — elementwise IEEE ops give the same result at any
/// vector width, so all dispatch tiers stay bitwise identical. A
/// leftover 4-batch is evaluated via the AVX2 clone's shape; the last
/// `< LANES` pairs via the shared scalar tail.
// SAFETY: `#[target_feature(enable = "avx512f,avx2")]` makes this fn
// unsafe to call; the only call site is gated on runtime detection of
// both features, so the instructions are never executed on a CPU
// without them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
unsafe fn eval_pair_cols_avx512(
    cols: &PairCols,
    ctx: &TargetCtx,
    soa: &crate::density::GasSoa,
    acc: &mut [f64; 3],
    du: &mut f64,
) -> f64 {
    use std::arch::x86_64::*;
    let evalr = soa.evalr.as_slice();
    let n = cols.len();
    let groups = n / (2 * LANES);
    // SAFETY: column loads read indices `o .. o + 7` with
    // `o = g * 2 * LANES` and `g < n / (2 * LANES)`, in bounds of every
    // column (all columns share length `n`); row indices come from
    // `cols.j`, which stages only valid particle indices, so they index
    // `evalr` in bounds (checked indexing regardless); the `storeu`
    // spills target local stack arrays. The AVX-512/AVX2 intrinsics are
    // available per the `#[target_feature]` contract discharged at the
    // detection-gated call site.
    unsafe {
        let zero8 = _mm512_setzero_pd();
        let half8 = _mm512_set1_pd(0.5);
        let one8 = _mm512_set1_pd(1.0);
        let c001_8 = _mm512_set1_pd(0.01);
        let eight8 = _mm512_set1_pd(8.0);
        let pi8 = _mm512_set1_pd(std::f64::consts::PI);
        let neg_alpha8 = _mm512_set1_pd(-ALPHA);
        let beta8 = _mm512_set1_pd(BETA);
        let neg12_8 = _mm512_set1_pd(-12.0);
        let p18_8 = _mm512_set1_pd(18.0);
        let neg6_8 = _mm512_set1_pd(-6.0);
        let rho_floor8 = _mm512_set1_pd(1e-12);
        let ci8 = _mm512_set1_pd(ctx.ci);
        let rhoi8 = _mm512_set1_pd(ctx.rhoi);
        let pi_rho2_8 = _mm512_set1_pd(ctx.pi_rho2);
        let vix8 = _mm512_set1_pd(ctx.vi[0]);
        let viy8 = _mm512_set1_pd(ctx.vi[1]);
        let viz8 = _mm512_set1_pd(ctx.vi[2]);
        let mut axv = _mm256_setzero_pd();
        let mut ayv = _mm256_setzero_pd();
        let mut azv = _mm256_setzero_pd();
        let mut duv = _mm256_setzero_pd();
        let mut vsigv = _mm256_set1_pd(ctx.ci);
        for g in 0..groups {
            let o = g * 2 * LANES;
            let e: [&crate::density::EvalRow; 8] = [
                &evalr[cols.j[o] as usize],
                &evalr[cols.j[o + 1] as usize],
                &evalr[cols.j[o + 2] as usize],
                &evalr[cols.j[o + 3] as usize],
                &evalr[cols.j[o + 4] as usize],
                &evalr[cols.j[o + 5] as usize],
                &evalr[cols.j[o + 6] as usize],
                &evalr[cols.j[o + 7] as usize],
            ];
            macro_rules! pack8 {
                ($f:ident) => {
                    _mm512_set_pd(
                        e[7].$f, e[6].$f, e[5].$f, e[4].$f, e[3].$f, e[2].$f, e[1].$f, e[0].$f,
                    )
                };
            }
            let dx = _mm512_loadu_pd(cols.dx.as_ptr().add(o));
            let dy = _mm512_loadu_pd(cols.dy.as_ptr().add(o));
            let dz = _mm512_loadu_pd(cols.dz.as_ptr().add(o));
            let r2 = _mm512_loadu_pd(cols.r2.as_ptr().add(o));
            let hv = _mm512_loadu_pd(cols.h.as_ptr().add(o));
            let r = _mm512_sqrt_pd(r2);
            let dvx = _mm512_sub_pd(vix8, pack8!(vx));
            let dvy = _mm512_sub_pd(viy8, pack8!(vy));
            let dvz = _mm512_sub_pd(viz8, pack8!(vz));
            let vr = _mm512_add_pd(
                _mm512_add_pd(_mm512_mul_pd(dvx, dx), _mm512_mul_pd(dvy, dy)),
                _mm512_mul_pd(dvz, dz),
            );
            let rhoj = _mm512_max_pd(pack8!(rho), rho_floor8);
            let cj = pack8!(cs);
            let mu = _mm512_div_pd(
                _mm512_mul_pd(hv, vr),
                _mm512_add_pd(r2, _mm512_mul_pd(_mm512_mul_pd(c001_8, hv), hv)),
            );
            let c_mean = _mm512_mul_pd(half8, _mm512_add_pd(ci8, cj));
            let rho_mean = _mm512_mul_pd(half8, _mm512_add_pd(rhoi8, rhoj));
            let visc_full = _mm512_div_pd(
                _mm512_add_pd(
                    _mm512_mul_pd(_mm512_mul_pd(neg_alpha8, c_mean), mu),
                    _mm512_mul_pd(_mm512_mul_pd(beta8, mu), mu),
                ),
                rho_mean,
            );
            let approaching = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(vr, zero8);
            let visc = _mm512_mask_blend_pd(approaching, zero8, visc_full);
            let vsig_cand = _mm512_mask_blend_pd(approaching, ci8, _mm512_sub_pd(c_mean, mu));
            let sigma_h = _mm512_div_pd(
                _mm512_div_pd(eight8, _mm512_mul_pd(_mm512_mul_pd(_mm512_mul_pd(pi8, hv), hv), hv)),
                hv,
            );
            let q = _mm512_div_pd(r, hv);
            let t = _mm512_sub_pd(one8, q);
            let near =
                _mm512_add_pd(_mm512_mul_pd(neg12_8, q), _mm512_mul_pd(_mm512_mul_pd(p18_8, q), q));
            let far = _mm512_mul_pd(_mm512_mul_pd(neg6_8, t), t);
            let piece = _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(q, half8), far, near);
            let dwr_over_r = _mm512_div_pd(_mm512_mul_pd(sigma_h, piece), r);
            let coeff = _mm512_add_pd(
                _mm512_add_pd(pi_rho2_8, _mm512_div_pd(pack8!(pres), _mm512_mul_pd(rhoj, rhoj))),
                visc,
            );
            let scale = _mm512_mul_pd(_mm512_mul_pd(pack8!(m), coeff), dwr_over_r);
            let px = _mm512_mul_pd(scale, dx);
            let py = _mm512_mul_pd(scale, dy);
            let pz = _mm512_mul_pd(scale, dz);
            let pu = _mm512_mul_pd(_mm512_mul_pd(half8, scale), vr);
            // Two sequential 4-wide folds — the portable batch order.
            axv = _mm256_sub_pd(axv, _mm512_castpd512_pd256(px));
            axv = _mm256_sub_pd(axv, _mm512_extractf64x4_pd::<1>(px));
            ayv = _mm256_sub_pd(ayv, _mm512_castpd512_pd256(py));
            ayv = _mm256_sub_pd(ayv, _mm512_extractf64x4_pd::<1>(py));
            azv = _mm256_sub_pd(azv, _mm512_castpd512_pd256(pz));
            azv = _mm256_sub_pd(azv, _mm512_extractf64x4_pd::<1>(pz));
            duv = _mm256_add_pd(duv, _mm512_castpd512_pd256(pu));
            duv = _mm256_add_pd(duv, _mm512_extractf64x4_pd::<1>(pu));
            vsigv = _mm256_max_pd(vsigv, _mm512_castpd512_pd256(vsig_cand));
            vsigv = _mm256_max_pd(vsigv, _mm512_extractf64x4_pd::<1>(vsig_cand));
        }
        let mut o = groups * 2 * LANES;
        if n - o >= LANES {
            // One leftover full batch, evaluated 4-wide: same op
            // sequence as the AVX2 clone (and the portable body).
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
            o += LANES;
        }
        let (mut axl, mut ayl, mut azl) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
        let mut dul = [0.0f64; LANES];
        let mut vsigl = [0.0f64; LANES];
        _mm256_storeu_pd(axl.as_mut_ptr(), axv);
        _mm256_storeu_pd(ayl.as_mut_ptr(), ayv);
        _mm256_storeu_pd(azl.as_mut_ptr(), azv);
        _mm256_storeu_pd(dul.as_mut_ptr(), duv);
        _mm256_storeu_pd(vsigl.as_mut_ptr(), vsigv);
        eval_pair_cols_tail(cols, ctx, soa, o, &mut axl, &mut ayl, &mut azl, &mut dul, &mut vsigl);
        acc[0] = reduce_lanes(axl);
        acc[1] = reduce_lanes(ayl);
        acc[2] = reduce_lanes(azl);
        *du = reduce_lanes(dul);
        vsigl[0].max(vsigl[1]).max(vsigl[2]).max(vsigl[3])
    }
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
        // Per-particle neighbour lists give every length class (8-wide
        // groups, leftover 4-batches, scalar tails). The dispatched
        // evaluator (widest tier the CPU offers) must be bitwise
        // identical to the portable body on identical staged columns.
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
    fn filter_dispatch_tiers_match_scalar_filter_bitwise() {
        // The vector filters (4- and 8-wide, wherever the CPU offers
        // them) must stage exactly the pairs the scalar reference
        // predicate stages — same set, same order, same bits in every
        // column. Each particle is filtered over its neighbour list
        // (every length class of the group/batch/tail splits, all
        // accepted) and over the whole set (mostly rejected, including
        // the self-pair).
        let mut gas = plummer_gas(700, 1.0, 23);
        let mut scratch = crate::density::SphScratch::new();
        compute_density_with(&mut gas, &mut scratch);
        scratch.ensure_cache(&gas);
        scratch.soa.fill_all(&gas);
        let (soa, nbr_off, nbr_idx, _) = scratch.force_view();
        let filt = soa.filt.as_slice();
        let evalr = soa.evalr.as_slice();
        let everyone: Vec<u32> = (0..gas.len() as u32).collect();
        let mut reference = PairCols::default();
        let mut dispatched = PairCols::default();
        for i in 0..gas.len() {
            let list = &nbr_idx[nbr_off[i] as usize..nbr_off[i + 1] as usize];
            for nbr in [list, &everyone[..]] {
                reference.clear();
                filter_stage_scalar(i, filt[i], filt, evalr, nbr, &mut reference);
                let (mut staged, mut listed) = (reference.j.clone(), list.to_vec());
                staged.sort_unstable();
                listed.sort_unstable();
                assert_eq!(staged, listed, "the lists hold exactly the active pairs");
                for width in ["avx2", "avx512"] {
                    #[cfg(target_arch = "x86_64")]
                    {
                        dispatched.clear();
                        if width == "avx2" && std::arch::is_x86_feature_detected!("avx2") {
                            // SAFETY: gated on runtime AVX2 detection.
                            unsafe {
                                filter_stage_avx2(i, filt[i], filt, evalr, nbr, &mut dispatched)
                            };
                        } else if width == "avx512"
                            && std::arch::is_x86_feature_detected!("avx512f")
                            && std::arch::is_x86_feature_detected!("avx2")
                        {
                            // SAFETY: gated on runtime AVX-512F + AVX2 detection.
                            unsafe {
                                filter_stage_avx512(i, filt[i], filt, evalr, nbr, &mut dispatched)
                            };
                        } else {
                            continue;
                        }
                        assert_eq!(reference.j, dispatched.j, "{width} staged set at i={i}");
                        for (a, b) in [
                            (&reference.dx, &dispatched.dx),
                            (&reference.dy, &dispatched.dy),
                            (&reference.dz, &dispatched.dz),
                            (&reference.r2, &dispatched.r2),
                            (&reference.h, &dispatched.h),
                        ] {
                            assert_eq!(a.len(), b.len());
                            for (x, y) in a.iter().zip(b.iter()) {
                                assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "{width} column bits at i={i}"
                                );
                            }
                        }
                    }
                }
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
