//! SPH pressure forces, artificial viscosity and the energy equation.
//!
//! The force pass reads the candidate sets `C(i) = { j : r_ij ≤ h_i }`
//! the density pass's search staged ([`crate::density::SphScratch`]) —
//! it never searches itself — and writes into a caller-owned
//! [`HydroRates`], allocation-free in steady state.
//!
//! The SoA path ([`SphScratch::simd`], what workers run) evaluates each
//! interacting pair once, as `jc_compute::gravity::self_accelerations`
//! does for gravity, and builds no neighbour list. A force pair has
//! `r < ½(h_i + h_j) ≤ max(h_i, h_j)`, so it lies in `C(i)` or `C(j)`.
//! Row `i` owns `j ∈ C(i)` when `j > i` or `r² > h_j²` (then `i ∉ C(j)`),
//! and stages its owned pairs straight out of `C(i)`; both ends compute
//! `r²` with the search's bits, so every pair has exactly one owner. The
//! pair's shared factor `s = (P_i/ρ_i² + P_j/ρ_j² + Π_ij)·W'(r_ij)/r_ij`
//! is symmetric, so row `i` gains `−m_j·s·d` and `½·m_j·s·v_r`, and row
//! `j` gains `+m_i·s·d` and `½·m_i·s·v_r` (`d = x_i − x_j`, `v_r` the
//! relative velocity along `d`). The rows are cut into at most 16 blocks
//! balanced by candidate count; each block scatters into its own
//! full-length partial columns (an owned `j` may lie on either side of
//! `i`), and the partials are folded in block order — sequential mode
//! runs the same blocks — so the rates are bitwise the same under any
//! thread count. The interaction count still counts directed pairs (two
//! per evaluated pair), and `v_signal_max` equals the scalar path's bit
//! for bit: a pair's signal speed has the same bits from either end. The
//! scalar reference path (`simd = false`) gathers each row's whole list,
//! built from the sets and their transpose.

use crate::density::{EvalRow, FiltRow, GasSoa, SphScratch};
use crate::kernel::grad_w;
use crate::particles::GasParticles;
use jc_compute::par;
use jc_compute::soa::{reduce_lanes, LANES};
use std::hint::select_unpredictable;
use std::ops::Range;

/// Monaghan viscosity α.
const ALPHA: f64 = 1.0;
/// Monaghan viscosity β.
const BETA: f64 = 2.0;

/// Rows per block of the SoA force pass before the [`MAX_BLOCKS`] clamp:
/// a session-sized set is one block, the benchmark's 512 gas four. The
/// count is a function of the particle count alone.
const BLOCK_ROWS: usize = 128;

/// Most blocks one SoA force pass is cut into. Bounds the partial
/// columns to `MAX_BLOCKS × n` rows and the fan-out to as many workers.
const MAX_BLOCKS: usize = 16;

/// Hydrodynamic accelerations and energy derivatives. Reused across steps
/// by [`hydro_rates_into`]; the vectors keep their capacity.
#[derive(Default)]
pub struct HydroRates {
    /// dv/dt per particle.
    pub acc: Vec<[f64; 3]>,
    /// du/dt per particle.
    pub du: Vec<f64>,
    /// Pairwise interactions performed (cost model): directed pairs.
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

/// Compute SPH rates into `out` from the candidate sets staged in
/// `scratch` (validated once per call: they must have been staged for
/// this particle count by [`crate::density::compute_density_with`] or
/// [`SphScratch::cache_neighbors`]). The scalar path builds its
/// neighbour lists from them lazily.
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
    scratch.assert_staged(n);
    let (inter, vsig) =
        if scratch.simd { pair_pass(gas, scratch, out) } else { row_pass(gas, scratch, out) };
    out.interactions = inter;
    out.v_signal_max = vsig;
}

/// The force pass's split borrow of a [`SphScratch`]
/// ([`SphScratch::force_view`]).
pub(crate) struct ForceView<'a> {
    pub(crate) soa: &'a GasSoa,
    /// Staged candidate-set CSR offsets and indices.
    pub(crate) cand_off: &'a [u32],
    pub(crate) cand_idx: &'a [u32],
    /// The scalar path's neighbour-list CSR offsets and indices.
    pub(crate) nbr_off: &'a [u32],
    pub(crate) nbr_idx: &'a [u32],
    /// Per-worker staged pairs.
    pub(crate) pairs: &'a mut Vec<PairStage>,
    pub(crate) blocks: &'a mut Vec<ForceBlock>,
}

/// The scalar reference path: every row gathers its whole list in list
/// order, on [`par::chunked`] row chunks.
// jc-lint: no-alloc
fn row_pass(gas: &GasParticles, scratch: &mut SphScratch, out: &mut HydroRates) -> (u64, f64) {
    scratch.ensure_cache(gas);
    let threads = scratch.threads_for(gas.len());
    let view = scratch.force_view();
    let (nbr_off, nbr_idx) = (view.nbr_off, view.nbr_idx);
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
    // the scalar workers carry no state: the pair stages stand in
    if view.pairs.len() < threads {
        view.pairs.resize_with(threads, PairStage::default);
    }
    par::chunked(
        threads,
        (out.acc.as_mut_slice(), out.du.as_mut_slice()),
        view.pairs.as_mut_slice(),
        (0u64, 0.0f64),
        |s0, (ac, dc): (&mut [[f64; 3]], &mut [f64]), _| {
            let mut inter = 0u64;
            let mut vsig = 0.0f64;
            for (k, (a, d)) in ac.iter_mut().zip(dc.iter_mut()).enumerate() {
                let (it, vs) = one(s0 + k, a, d);
                inter += it;
                vsig = vsig.max(vs);
            }
            (inter, vsig)
        },
        |(i1, v1), (i2, v2)| (i1 + i2, v1.max(v2)),
    )
}

/// The SoA path: each interacting pair evaluated once, block by block
/// (module docs). Returns the directed interaction count and the signal
/// speed maximum.
// jc-lint: no-alloc
fn pair_pass(gas: &GasParticles, scratch: &mut SphScratch, out: &mut HydroRates) -> (u64, f64) {
    let n = gas.len();
    scratch.soa.fill_force_rows(gas);
    let max_threads = scratch.max_threads;
    let view = scratch.force_view();
    let rows = Rows::new(&view);
    plan_blocks(view.blocks, rows);
    let threads = par::threads_for(view.blocks.len(), max_threads, 1);
    if view.pairs.len() < threads {
        view.pairs.resize_with(threads, PairStage::default);
    }
    for stage in &mut view.pairs[..threads] {
        stage.resize(n);
    }
    let (inter, vsig) = par::chunked(
        threads,
        view.blocks.as_mut_slice(),
        view.pairs.as_mut_slice(),
        (0u64, 0.0f64),
        |_, chunk: &mut [ForceBlock], stage| {
            chunk.iter_mut().fold((0, 0.0), |(i0, v0), block| {
                let (i1, v1) = pair_block(rows, block, stage);
                (i0 + i1, v0.max(v1))
            })
        },
        |(i1, v1), (i2, v2)| (i1 + i2, v1.max(v2)),
    );
    fold_blocks(view.blocks, &mut out.acc, &mut out.du);
    (inter, vsig)
}

/// What every block of [`pair_pass`] reads: the packed per-particle rows
/// and the staged candidate sets.
#[derive(Clone, Copy)]
struct Rows<'a> {
    filt: &'a [FiltRow],
    evalr: &'a [EvalRow],
    cand_off: &'a [u32],
    cand_idx: &'a [u32],
}

impl<'a> Rows<'a> {
    fn new(view: &ForceView<'a>) -> Rows<'a> {
        let (filt, evalr) = (&view.soa.filt, &view.soa.evalr);
        Rows { filt, evalr, cand_off: view.cand_off, cand_idx: view.cand_idx }
    }

    /// Particle count.
    fn len(&self) -> usize {
        self.cand_off.len() - 1
    }

    /// Particle `i`'s candidate set `C(i)`, in search order.
    fn cands(&self, i: usize) -> &'a [u32] {
        &self.cand_idx[self.cand_off[i] as usize..self.cand_off[i + 1] as usize]
    }
}

/// One block of rows of [`pair_pass`] and the partial rates its pairs
/// sum to: each owned pair's terms on both of its ends.
#[derive(Default)]
pub(crate) struct ForceBlock {
    rows: Range<usize>,
    /// Partial dv/dt (x, y, z) and du/dt columns, indexed by particle,
    /// all `n` rows written: an owned pair's far end may lie anywhere.
    part: [Vec<f64>; 4],
}

/// Cut the rows into blocks of about equal candidate count — a function
/// of the staged sets alone — their number a function of `n` alone.
fn plan_blocks(blocks: &mut Vec<ForceBlock>, rows: Rows) {
    let n = rows.len();
    let cands = rows.cand_idx.len();
    let count = n.div_ceil(BLOCK_ROWS).clamp(1, MAX_BLOCKS);
    blocks.resize_with(count, ForceBlock::default);
    let (mut row, mut done) = (0, 0);
    for (k, block) in blocks.iter_mut().enumerate() {
        let start = row;
        while row < n && (k + 1 == count || done * count < (k + 1) * cands) {
            done += rows.cands(row).len();
            row += 1;
        }
        block.rows = start..row;
        for c in &mut block.part {
            c.resize(n, 0.0);
        }
    }
}

/// Fold the blocks' partial columns into `acc` and `du`, in block order.
fn fold_blocks(blocks: &[ForceBlock], acc: &mut [[f64; 3]], du: &mut [f64]) {
    let (first, rest) = blocks.split_first().expect("plan makes at least one block");
    let [x, y, z, u] = &first.part;
    for (i, (a, d)) in acc.iter_mut().zip(du.iter_mut()).enumerate() {
        *a = [x[i], y[i], z[i]];
        *d = u[i];
    }
    for block in rest {
        let [x, y, z, u] = &block.part;
        for (i, (a, d)) in acc.iter_mut().zip(du.iter_mut()).enumerate() {
            a[0] += x[i];
            a[1] += y[i];
            a[2] += z[i];
            *d += u[i];
        }
    }
}

/// Four staged pairs of one row: lane `l` of batch `b` holds staged pair
/// `b · LANES + l`, each field one [`LANES`]-wide column. [`stage_row`]
/// writes the inputs — the geometry the pair predicate already computed
/// and the neighbour's [`EvalRow`] fields — and [`eval_pairs`] the
/// outputs. Inputs and outputs share one base address, so the evaluator
/// vectorizes without alias checks.
#[derive(Clone, Copy, Default)]
#[repr(C, align(32))]
struct PairBatch {
    /// Separation `x_i − x_j`, one column per component.
    dx: [f64; LANES],
    dy: [f64; LANES],
    dz: [f64; LANES],
    /// Squared distance (`> 0` for every staged pair).
    r2: [f64; LANES],
    /// Symmetrized smoothing length `(h_i + h_j) / 2`.
    h: [f64; LANES],
    /// The neighbour's [`EvalRow`] fields.
    vx: [f64; LANES],
    vy: [f64; LANES],
    vz: [f64; LANES],
    rho: [f64; LANES],
    p_rho2: [f64; LANES],
    cs: [f64; LANES],
    m: [f64; LANES],
    /// The pair's force vector `s·d`.
    fx: [f64; LANES],
    fy: [f64; LANES],
    fz: [f64; LANES],
    /// The pair's energy term `½·s·v_r`.
    du: [f64; LANES],
}

/// One worker's staged pairs, one row at a time: the neighbour indices
/// and the [`PairBatch`]es. Sized for `n` particles (a candidate set
/// holds at most `n` entries), so staging never grows them.
#[derive(Default)]
pub(crate) struct PairStage {
    /// Neighbour index `j` of each staged pair.
    j: Vec<u32>,
    batches: Vec<PairBatch>,
}

impl PairStage {
    /// Size for rows of up to `n` list entries.
    fn resize(&mut self, n: usize) {
        self.j.resize(n, 0);
        self.batches.resize(n.div_ceil(LANES), PairBatch::default());
    }
}

jc_compute::simd::dispatch! {
    /// Run one block of [`pair_pass`] at the widest instruction set the
    /// CPU reports. Returns the block's directed interaction count and
    /// signal speed maximum.
    fn pair_block(rows: Rows, block: &mut ForceBlock, stage: &mut PairStage) -> (u64, f64)
        => pair_block_body, avx2: pair_block_avx2;
}

/// The pair-symmetric body over one block, written over the block's
/// partial columns, at whatever instruction set the caller was compiled
/// for. Each row is staged ([`stage_row`]), evaluated element-wise with
/// its own terms summed in the fixed [`LANES`] order ([`eval_pairs`]),
/// and the far ends scattered. The bits do not depend on the dispatch
/// tier ([`jc_compute::simd`]).
#[inline(always)]
fn pair_block_body(rows: Rows, block: &mut ForceBlock, stage: &mut PairStage) -> (u64, f64) {
    let [ax, ay, az, du] = &mut block.part;
    for c in [&mut *ax, &mut *ay, &mut *az, &mut *du] {
        c.fill(0.0);
    }
    let (mut staged, mut vsig) = (0usize, 0.0f64);
    for i in block.rows.clone() {
        let len = stage_row(i, rows.filt, rows.evalr, rows.cands(i), stage);
        let ti = &rows.evalr[i];
        let batches = &mut stage.batches[..len.div_ceil(LANES)];
        let (f, v) = eval_pairs(batches, ti);
        ax[i] -= f[0];
        ay[i] -= f[1];
        az[i] -= f[2];
        du[i] += f[3];
        vsig = vsig.max(v);
        let mi = ti.m;
        for (k, &j) in stage.j[..len].iter().enumerate() {
            let (b, l, j) = (&batches[k / LANES], k % LANES, j as usize);
            ax[j] += mi * b.fx[l];
            ay[j] += mi * b.fy[l];
            az[j] += mi * b.fz[l];
            du[j] += mi * b.du[l];
        }
        staged += len;
    }
    (2 * staged as u64, vsig)
}

/// Stage the pairs row `i` owns into `stage`: every entry `j` of its
/// candidate set `list` that passes the pair predicate (`r² < h_ij²`,
/// non-coincident) and that row `i` owns (`j > i`, or `r² > h_j²`, so
/// that `i ∉ C(j)`), with the values the predicate computed and `j`'s
/// [`EvalRow`] fields, in list order. Returns the staged count. `r²` has
/// the search's bits (negated differences square alike, the sum runs in
/// x, y, z order, and nothing is contracted to FMA) and `h_j²` is the
/// search's radius², so the two ends of a pair agree on its owner. The
/// geometry pass compacts without a branch; only the pairs it kept read
/// their [`EvalRow`] (about half of a candidate set is not owned). The
/// last batch's idle lanes are padded with a massless pair at zero
/// separation (every input finite), which adds exact zeros.
#[inline(always)]
fn stage_row(
    i: usize,
    filt: &[FiltRow],
    evalr: &[EvalRow],
    list: &[u32],
    stage: &mut PairStage,
) -> usize {
    let FiltRow { x: xi, y: yi, z: zi, h: hi } = filt[i];
    let (js, batches) =
        (&mut stage.j[..list.len()], &mut stage.batches[..list.len().div_ceil(LANES)]);
    let mut k = 0;
    for &j32 in list {
        let j = j32 as usize;
        let f = &filt[j];
        let (dx, dy, dz) = (xi - f.x, yi - f.y, zi - f.z);
        let r2 = dx * dx + dy * dy + dz * dz;
        let h_ij = 0.5 * (hi + f.h);
        let (b, l) = (&mut batches[k / LANES], k % LANES);
        js[k] = j32;
        (b.dx[l], b.dy[l], b.dz[l], b.r2[l], b.h[l]) = (dx, dy, dz, r2, h_ij);
        k += ((r2 < h_ij * h_ij) & (r2 != 0.0) & ((j > i) | (r2 > f.h * f.h))) as usize;
    }
    for (t, &j) in js[..k].iter().enumerate() {
        let (b, l, e) = (&mut batches[t / LANES], t % LANES, &evalr[j as usize]);
        (b.vx[l], b.vy[l], b.vz[l], b.rho[l]) = (e.vx, e.vy, e.vz, e.rho);
        (b.p_rho2[l], b.cs[l], b.m[l]) = (e.p_rho2, e.cs, e.m);
    }
    for t in k..k.next_multiple_of(LANES) {
        let (b, l) = (&mut batches[t / LANES], t % LANES);
        (b.dx[l], b.dy[l], b.dz[l], b.r2[l], b.h[l]) = (0.0, 0.0, 0.0, 1.0, 4.0);
        (b.vx[l], b.vy[l], b.vz[l], b.rho[l]) = (0.0, 0.0, 0.0, 0.0);
        (b.p_rho2[l], b.cs[l], b.m[l]) = (0.0, 0.0, 0.0);
    }
    k
}

/// The one element-wise pair body: for every lane of `batches` and the
/// target `ti`, the pair's force vector `s·d` and energy term `½·s·v_r`
/// (kept for the scatter), and the target's own terms `Σ m_j·s·d` and
/// `Σ ½·m_j·s·v_r` — staged pair `p` summed in lane `p % LANES`, the
/// lanes reduced in the fixed [`reduce_lanes`] order — with its signal
/// speed maximum. The viscosity branch is a select on `v_r < 0`, and the
/// spline gradient evaluates both pieces and selects by `q`, so each
/// batch is one vector (`select_unpredictable` keeps LLVM from turning
/// the selects on `v_r < 0` back into a branch around the viscosity's
/// divide, which stops the vectorizer). The signal speed is computed in
/// the scalar path's arithmetic and order, so it matches it bit for bit.
#[inline(always)]
fn eval_pairs(batches: &mut [PairBatch], ti: &EvalRow) -> ([f64; 4], f64) {
    let zero = [0.0f64; LANES];
    let (mut ax, mut ay, mut az, mut au) = (zero, zero, zero, zero);
    let mut vsig = [ti.cs; LANES];
    for b in batches {
        for l in 0..LANES {
            let (dx, dy, dz, r2, h_ij) = (b.dx[l], b.dy[l], b.dz[l], b.r2[l], b.h[l]);
            let r = r2.sqrt();
            let vr = (ti.vx - b.vx[l]) * dx + (ti.vy - b.vy[l]) * dy + (ti.vz - b.vz[l]) * dz;
            // artificial viscosity as a select on approach
            let mu = h_ij * vr / (r2 + 0.01 * h_ij * h_ij);
            let c_mean = 0.5 * (ti.cs + b.cs[l]);
            let rho_mean = 0.5 * (ti.rho + b.rho[l]);
            let visc_full = (-ALPHA * c_mean * mu + BETA * mu * mu) / rho_mean;
            let approaching = vr < 0.0;
            let visc = select_unpredictable(approaching, visc_full, 0.0);
            let v = select_unpredictable(approaching, c_mean - mu, ti.cs);
            // cubic-spline gradient, both pieces evaluated and selected
            let sigma_h = 8.0 / (std::f64::consts::PI * h_ij * h_ij * h_ij) / h_ij;
            let q = r / h_ij;
            let t = 1.0 - q;
            let near = -12.0 * q + 18.0 * q * q;
            let far = -6.0 * t * t;
            let piece = select_unpredictable(q < 0.5, near, far);
            let s = (ti.p_rho2 + b.p_rho2[l] + visc) * (sigma_h * piece / r);
            let (fx, fy, fz, du) = (s * dx, s * dy, s * dz, 0.5 * s * vr);
            (b.fx[l], b.fy[l], b.fz[l], b.du[l]) = (fx, fy, fz, du);
            let m = b.m[l];
            ax[l] += m * fx;
            ay[l] += m * fy;
            az[l] += m * fz;
            au[l] += m * du;
            vsig[l] = vsig[l].max(v);
        }
    }
    let sums = [reduce_lanes(ax), reduce_lanes(ay), reduce_lanes(az), reduce_lanes(au)];
    (sums, vsig[0].max(vsig[1]).max(vsig[2]).max(vsig[3]))
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

    /// A Plummer gas with a swirling, partly converging velocity field,
    /// so the viscosity select and the energy equation both do work.
    fn stirred_gas(n: usize, seed: u64) -> GasParticles {
        let mut gas = plummer_gas(n, 1.0, seed);
        for (v, p) in gas.vel.iter_mut().zip(&gas.pos) {
            *v = [-p[1] - 0.3 * p[0], p[0] - 0.3 * p[1], 0.2 * p[2] * p[0]];
        }
        gas
    }

    #[test]
    fn simd_forces_match_scalar_within_tolerance() {
        let mut gas = stirred_gas(900, 13);
        let mut scratch = crate::density::SphScratch::new();
        scratch.simd = false;
        compute_density_with(&mut gas, &mut scratch);
        let mut scalar = HydroRates::new();
        hydro_rates_into(&gas, &mut scratch, &mut scalar);
        // same densities, same staged candidate sets — only the force
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

    /// Density, staged candidate sets, packed rows and a block plan for
    /// `gas`.
    fn planned(gas: &mut GasParticles) -> SphScratch {
        let mut scratch = crate::density::SphScratch::new();
        compute_density_with(gas, &mut scratch);
        scratch.soa.fill_force_rows(gas);
        let view = scratch.force_view();
        plan_blocks(view.blocks, Rows::new(&view));
        scratch
    }

    #[test]
    fn staged_eval_dispatch_tiers_match_portable_body_bitwise() {
        // Per-particle candidate sets give every length class (4-wide
        // batches, scalar tails), and 700 particles make six blocks. The
        // dispatched block (the AVX2 instantiation where the CPU has it)
        // must be bitwise identical to the portable body.
        let mut gas = stirred_gas(700, 11);
        let mut scratch = planned(&mut gas);
        let view = scratch.force_view();
        let rows = Rows::new(&view);
        assert_eq!(view.blocks.len(), 6);
        let mut stage = PairStage::default();
        stage.resize(gas.len());
        for block in view.blocks.iter_mut() {
            let dispatched = pair_block(rows, block, &mut stage);
            let part = block.part.clone();
            let portable = pair_block_body(rows, block, &mut stage);
            assert!(dispatched.0 > 0, "block {:?} staged nothing", block.rows);
            assert_eq!(dispatched.0, portable.0);
            assert_eq!(dispatched.1.to_bits(), portable.1.to_bits(), "vsig, rows {:?}", block.rows);
            for (c, (a, b)) in part.iter().zip(&block.part).enumerate() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "column {c} diverged, rows {:?}", block.rows);
            }
        }
    }

    /// The brute-force pair set `{(i, j) : i < j, 0 < r² < h_ij²}`.
    fn brute_pairs(gas: &GasParticles) -> Vec<(u32, u32)> {
        let n = gas.len();
        let (pos, h) = (&gas.pos, &gas.h);
        let active = |i: usize, j: usize| {
            let d = [pos[i][0] - pos[j][0], pos[i][1] - pos[j][1], pos[i][2] - pos[j][2]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let h_ij = 0.5 * (h[i] + h[j]);
            r2 < h_ij * h_ij && r2 != 0.0
        };
        let pairs_of = |i| (i + 1..n).filter(move |&j| active(i, j)).map(move |j| (i, j));
        (0..n).flat_map(pairs_of).map(|(i, j)| (i as u32, j as u32)).collect()
    }

    /// The sets the ownership tests run on, each flagged if every
    /// candidate set will be the whole set: a 700-gas Plummer set, a
    /// session-sized 24-gas one as drawn and again with `h` seeded past
    /// its diameter (the adaptation clamps it to `8·h_mean`, still past
    /// it), and one with coincident copies and ±1e6 coordinates.
    fn ownership_sets() -> [(GasParticles, bool); 4] {
        let mut cloud = stirred_gas(24, 5);
        cloud.h.fill(1e3);
        let mut odd = plummer_gas(40, 1.0, 9);
        odd.pos[7] = odd.pos[3];
        odd.pos[8] = odd.pos[3];
        odd.pos[11] = [1e6, -1e6, 1e6];
        odd.pos[12] = [-1e6, 1e6, -1e6];
        [(stirred_gas(700, 23), false), (stirred_gas(24, 5), false), (cloud, true), (odd, false)]
    }

    #[test]
    fn each_force_pair_is_staged_once_by_its_owner() {
        // Staging every row over its own candidate set must emit each
        // interacting pair exactly once, on either search path.
        for (gas, whole) in ownership_sets() {
            let n = gas.len();
            for direct_below in [0, usize::MAX] {
                let mut g = gas.clone();
                let mut scratch = SphScratch::with_crossover(direct_below);
                compute_density_with(&mut g, &mut scratch);
                scratch.soa.fill_force_rows(&g);
                let view = scratch.force_view();
                let rows = Rows::new(&view);
                if whole {
                    assert!((0..n).all(|i| rows.cands(i).len() == n), "every C(i) is the set");
                }
                let mut stage = PairStage::default();
                stage.resize(n);
                let mut staged = Vec::new();
                for i in 0..n {
                    let len = stage_row(i, rows.filt, rows.evalr, rows.cands(i), &mut stage);
                    let i = i as u32;
                    staged.extend(stage.j[..len].iter().map(|&j| (i.min(j), i.max(j))));
                }
                staged.sort_unstable();
                let want = brute_pairs(&g);
                assert!(!want.is_empty(), "n={n}: no pairs");
                assert_eq!(staged, want, "n={n}, direct_below={direct_below}");
            }
        }
    }

    #[test]
    fn standalone_rates_count_exactly_the_interacting_pairs() {
        // `hydro_rates` stages its sets through `cache_neighbors`, not the
        // density pass, then runs the SoA pass over them
        for (mut gas, _) in ownership_sets() {
            compute_density(&mut gas);
            let rates = hydro_rates(&gas);
            assert_eq!(rates.interactions, 2 * brute_pairs(&gas).len() as u64, "n={}", gas.len());
        }
    }

    #[test]
    fn force_blocks_cover_every_row_balanced_by_pairs() {
        for n in [1usize, 2, 24, 128, 129, 512, 700, 2100] {
            let mut gas = stirred_gas(n, n as u64);
            let mut scratch = planned(&mut gas);
            let view = scratch.force_view();
            let rows = Rows::new(&view);
            let blocks = &*view.blocks;
            let count = n.div_ceil(BLOCK_ROWS).clamp(1, MAX_BLOCKS);
            assert_eq!(blocks.len(), count, "n={n}");
            assert_eq!(blocks[0].rows.start, 0);
            assert_eq!(blocks[count - 1].rows.end, n);
            assert!(blocks.windows(2).all(|w| w[0].rows.end == w[1].rows.start), "n={n}");
            let staged = |r: Range<usize>| r.map(|i| rows.cands(i).len()).collect::<Vec<_>>();
            let row_max = *staged(0..n).iter().max().unwrap();
            let per_block = staged(0..n).iter().sum::<usize>().div_ceil(count);
            for b in blocks {
                let pairs: usize = staged(b.rows.clone()).iter().sum();
                assert!(pairs <= per_block + row_max, "n={n}: block {:?} is lopsided", b.rows);
                assert!(b.part.iter().all(|c| c.len() == n));
            }
        }
    }

    #[test]
    fn pair_pass_is_bitwise_equal_at_any_thread_count() {
        for n in [16usize, 24, 512] {
            let run = |threads: usize| {
                let mut gas = stirred_gas(n, 31);
                let mut scratch = crate::density::SphScratch::new();
                scratch.max_threads = threads;
                compute_density_with(&mut gas, &mut scratch);
                let mut rates = HydroRates::new();
                hydro_rates_into(&gas, &mut scratch, &mut rates);
                let bits = rates.acc.iter().flatten().chain(&rates.du).map(|x| x.to_bits());
                (bits.collect::<Vec<_>>(), rates.interactions, rates.v_signal_max.to_bits())
            };
            let seq = run(1);
            assert!(seq.1 > 0, "n={n}: no pairs");
            for threads in [2, 7] {
                assert_eq!(run(threads), seq, "n={n}, max_threads={threads}");
            }
        }
    }

    #[test]
    fn simd_forces_conserve_momentum() {
        // each pair is evaluated once and lands on both ends, so Σ m a
        // and Σ m (v·a + du) cancel to the last few bits
        for n in [16usize, 24, 400, 512] {
            let mut gas = stirred_gas(n, 7);
            let mut scratch = crate::density::SphScratch::new();
            scratch.simd = true;
            compute_density_with(&mut gas, &mut scratch);
            let mut rates = HydroRates::new();
            hydro_rates_into(&gas, &mut scratch, &mut rates);
            let (mut net, mut scale) = ([0.0f64; 3], 0.0f64);
            let (mut power, mut power_scale) = (0.0f64, 0.0f64);
            for i in 0..n {
                let (m, a, v) = (gas.mass[i], rates.acc[i], gas.vel[i]);
                for k in 0..3 {
                    net[k] += m * a[k];
                    scale += (m * a[k]).abs();
                }
                let terms = [m * v[0] * a[0], m * v[1] * a[1], m * v[2] * a[2], m * rates.du[i]];
                power += terms.iter().sum::<f64>();
                power_scale += terms.iter().map(|t| t.abs()).sum::<f64>();
            }
            for k in 0..3 {
                assert!(net[k].abs() <= 1e-14 * scale, "n={n}: Σ m a = {net:?} of {scale}");
            }
            assert!(power.abs() <= 1e-13 * power_scale, "n={n}: energy {power} of {power_scale}");
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
