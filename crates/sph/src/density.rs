//! Adaptive density estimation, and the step's one neighbour search.
//!
//! The hot path is allocation-free in steady state: the search
//! structure, the per-thread candidate buffers and the staged candidate
//! sets all live in a [`SphScratch`] owned by the caller and are reused
//! across steps. Candidates come from a direct
//! sweep of the SoA position columns below `DIRECT_BELOW` particles and
//! from the CSR cell grid above it — the same candidate *sets* either
//! way, chosen by the particle count alone. The h-adaptation reads its
//! growth factor from a table filled once with the libm expression, so a
//! set too small to reach the neighbour target (every session-sized one)
//! makes no `cbrt` call per step. The scalar reference path
//! (`simd = false`) stays bitwise-identical to the pre-refactor
//! HashMap-grid pass (a naive oracle of it lives in `tests/golden.rs`): it
//! re-sorts every final candidate set into that pass's accumulation order.
//!
//! The force pass reads the staged candidate sets ([`SphScratch`]): the
//! SoA pass stages each pair from the one set that owns it, so it builds
//! no list. Only the scalar reference path builds full per-particle
//! lists here, from the sets and their transpose.

use crate::forces::{ForceBlock, ForceView, PairStage};
use crate::grid::{sweep_within, CsrGrid};
use crate::kernel::w;
use crate::particles::GasParticles;
use jc_compute::par;
use jc_compute::soa::{reduce_lanes, AlignedF64, Soa3, LANES};
use std::sync::OnceLock;

/// Desired neighbour count (Gadget's `DesNumNgb` is 64 in 3D by default;
/// we use 32 because our test problems are small).
pub const N_NEIGHBORS: usize = 32;

/// Maximum h-adaptation iterations per density pass.
pub(crate) const H_ITERS: usize = 4;

/// Minimum particles per worker thread before fanning out.
pub(crate) const PAR_GRAIN: usize = 64;

/// Particle count below which the candidate search sweeps the SoA
/// position columns directly instead of querying the [`CsrGrid`]: one
/// query per particle never amortises a grid over a small, centrally
/// concentrated set. Chosen from the `sph_neighbors_direct` /
/// `sph_neighbors_grid` rows of `BENCH_PR24.json` (perfsuite's
/// `sph_neighbors_crossover` report, n = 256 … 8192): the blocked sweep
/// wins up to n = 4096 (1.4×; 2.0× at 2048) and has lost by 8192. A pure
/// function of `n`, so results do not depend on threads, shards or
/// transport.
const DIRECT_BELOW: usize = 4096;

/// Candidate buffer entry: (particle index, squared distance).
pub(crate) type Candidate = (u32, f64);

/// One packed filter row: everything the pair predicate reads for a
/// candidate (`x, y, z, h`), 32-byte aligned so a random candidate
/// probe touches exactly one cache line. The force pass's staging is
/// bound by these probes — through split SoA columns each candidate
/// costs four lines.
#[derive(Clone, Copy, Default)]
#[repr(C, align(32))]
pub(crate) struct FiltRow {
    pub(crate) x: f64,
    pub(crate) y: f64,
    pub(crate) z: f64,
    pub(crate) h: f64,
}

/// One packed interaction row: everything the pair evaluator reads for
/// a particle, padded to exactly one 64-byte cache line, so staging a
/// pair's neighbour values costs one line instead of seven. The
/// per-particle terms are hoisted here: `rho` is already clamped and
/// `p_rho2 = P / ρ²` already divided, with the arithmetic the pair loop
/// used to repeat per pair.
#[derive(Clone, Copy, Default)]
#[repr(C, align(64))]
pub(crate) struct EvalRow {
    pub(crate) vx: f64,
    pub(crate) vy: f64,
    pub(crate) vz: f64,
    /// Density, floored at `1e-12`.
    pub(crate) rho: f64,
    /// Pressure over the floored density squared.
    pub(crate) p_rho2: f64,
    /// Sound speed.
    pub(crate) cs: f64,
    pub(crate) m: f64,
    pub(crate) _pad: f64,
}

/// SoA mirror of what the batched kernels read: the position and mass
/// columns of the density pass's sweep and sums, and the packed
/// per-particle [`FiltRow`]/[`EvalRow`] lines the force pass probes by
/// neighbour index. Owned by [`SphScratch`] and refilled in place —
/// allocation-free once capacity is warm.
#[derive(Default)]
pub(crate) struct GasSoa {
    pub(crate) pos: Soa3,
    pub(crate) m: AlignedF64,
    /// Packed predicate inputs, indexed by particle.
    pub(crate) filt: Vec<FiltRow>,
    /// Packed evaluator inputs, indexed by particle.
    pub(crate) evalr: Vec<EvalRow>,
}

impl GasSoa {
    /// Refill the mass column only (all the density pass gathers).
    fn fill_mass(&mut self, gas: &GasParticles) {
        self.m.copy_from(&gas.mass);
    }

    /// Refill the force pass's packed rows (densities must be fresh so
    /// pressure and sound speed are current).
    pub(crate) fn fill_force_rows(&mut self, gas: &GasParticles) {
        let n = gas.len();
        self.filt.clear();
        self.evalr.clear();
        self.filt.reserve(n);
        self.evalr.reserve(n);
        for i in 0..n {
            let [x, y, z] = gas.pos[i];
            self.filt.push(FiltRow { x, y, z, h: gas.h[i] });
            let [vx, vy, vz] = gas.vel[i];
            let rho = gas.rho[i].max(1e-12);
            self.evalr.push(EvalRow {
                vx,
                vy,
                vz,
                rho,
                p_rho2: gas.pressure(i) / (rho * rho),
                cs: gas.sound_speed(i),
                m: gas.mass[i],
                _pad: 0.0,
            });
        }
    }
}

/// Reusable scratch for the SPH kernels: the neighbour search structure,
/// per-thread candidate buffers, the staged candidate sets that
/// [`crate::forces::hydro_rates_into`] consumes, and the scalar path's
/// per-particle neighbour lists.
///
/// One neighbour search per step: while [`compute_density_with`] adapts
/// the smoothing lengths it stages each particle's final candidate set
/// `C(i) = { j : r_ij ≤ h_i }`. A pair interacts iff `r < (h_i + h_j)/2`,
/// which implies `r ≤ max(h_i, h_j)`, i.e. `j ∈ C(i)` or `i ∈ C(j)`, so
/// the force pass needs no second search. The SoA pass stages each pair
/// from the set that owns it ([`crate::forces`]). The scalar path's list
/// `i` is `C(i)` followed by the part of the transposed row that `C(i)`
/// missed, filtered by the exact pair predicate: exactly the partners
/// particle `i` interacts with, in an order that is a function of the
/// particle set alone.
///
/// Ownership contract: the caller owns the scratch and keeps it across
/// steps; [`compute_density_with`] stages the candidate sets each call
/// and marks the neighbour lists stale; `hydro_rates_into` validates once
/// per call that the sets were staged for the current particle count,
/// and the scalar path rebuilds its lists from them lazily.
pub struct SphScratch {
    /// Worker-thread cap: 0 = auto (one per core or the `JC_THREADS`
    /// override, subject to a minimum grain), 1 = strictly sequential.
    /// The sequential path performs zero heap allocations in steady
    /// state. Parallel runs hand chunks to the persistent worker pool
    /// (nothing is spawned per call) and are allocation-free once the
    /// pool is warm, plus one allocation per `JC_THREADS` read when the
    /// cap is 0 and the variable is set (see `jc_compute::par`).
    pub max_threads: usize,
    /// The SoA compute path every worker runs (`true`, the default):
    /// density sums and pair evaluations run [`LANES`] wide with the
    /// fixed [`reduce_lanes`] reduction order, the density pass skips the
    /// legacy-order candidate re-sort, and the force pass evaluates each
    /// interacting pair once ([`crate::forces`]). Results
    /// are bitwise stable from run to run (any thread count, any SIMD
    /// width). `false` names the scalar reference path, bitwise-pinned to
    /// the pre-refactor pass; the two agree to rounding.
    pub simd: bool,
    pub(crate) grid: CsrGrid,
    /// Staged candidate sets `C(i)` in CSR form (`n + 1` offsets).
    cand_off: Vec<u32>,
    cand_idx: Vec<u32>,
    /// Transpose of the staged sets (counting-sort scratch).
    t_off: Vec<u32>,
    t_idx: Vec<u32>,
    /// Neighbour-list CSR offsets (`n + 1` entries) and indices (scalar
    /// path only).
    nbr_off: Vec<u32>,
    nbr_idx: Vec<u32>,
    /// Per worker thread: the candidate buffer and the staged ids of the
    /// worker's chunk (concatenated in chunk order into `cand_idx`).
    finders: Vec<(Vec<Candidate>, Vec<u32>)>,
    /// Scratch copy of `h` for the median cell-size estimate.
    h_tmp: Vec<f64>,
    /// Per-particle legacy-grid sort keys (scalar path only): the final
    /// density sum re-sorts its candidates into the legacy visit order
    /// (coarse cell, then index) to stay bitwise-reproducible.
    sort_key: Vec<u128>,
    /// Particle count the neighbour lists were built for.
    cached_n: usize,
    /// Particle count the candidate sets were staged for.
    staged_for: usize,
    /// SoA gas mirror for the SIMD gather paths and the direct sweep.
    pub(crate) soa: GasSoa,
    /// Per-worker staged pairs for the force pass's SoA path.
    pairs: Vec<PairStage>,
    /// The SoA force pass's row blocks and their partial rate columns.
    blocks: Vec<ForceBlock>,
    /// [`DIRECT_BELOW`], except in the crossover tests.
    direct_below: usize,
}

impl Default for SphScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SphScratch {
    /// Empty scratch (no allocation until first use).
    pub fn new() -> SphScratch {
        SphScratch {
            max_threads: 0,
            simd: true,
            grid: CsrGrid::new(),
            cand_off: Vec::new(),
            cand_idx: Vec::new(),
            t_off: Vec::new(),
            t_idx: Vec::new(),
            nbr_off: Vec::new(),
            nbr_idx: Vec::new(),
            finders: Vec::new(),
            h_tmp: Vec::new(),
            sort_key: Vec::new(),
            cached_n: usize::MAX,
            staged_for: usize::MAX,
            soa: GasSoa::default(),
            pairs: Vec::new(),
            blocks: Vec::new(),
            direct_below: DIRECT_BELOW,
        }
    }

    /// A scratch whose direct-sweep crossover is `direct_below` instead
    /// of [`DIRECT_BELOW`] (0 = always the grid, `usize::MAX` = always
    /// the sweep), so tests can put one particle set on both sides.
    #[cfg(test)]
    pub(crate) fn with_crossover(direct_below: usize) -> SphScratch {
        SphScratch { direct_below, ..SphScratch::new() }
    }

    /// Worker count for a problem of size `n` (shared by the density and
    /// force passes) — the workspace-wide policy from
    /// [`jc_compute::par::threads_for`]. Core detection is lazy and the
    /// explicit cap wins over `JC_THREADS`, so the sequential mode
    /// (`max_threads == 1`) never touches the (allocating) auto
    /// detection.
    pub(crate) fn threads_for(&self, n: usize) -> usize {
        par::threads_for(n, self.max_threads, PAR_GRAIN)
    }

    /// Particle `i`'s scalar-path neighbour list (built by
    /// [`SphScratch::ensure_cache`]; the SoA force pass builds none).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn neighbors(&self, i: usize) -> &[u32] {
        &self.nbr_idx[self.nbr_off[i] as usize..self.nbr_off[i + 1] as usize]
    }

    /// Split-borrow view for the force pass: the packed rows, staged sets
    /// and lists (shared) plus the per-worker staged pairs and the block
    /// partials (exclusive — the density pass never touches them; its own
    /// candidate buffers stay private to it).
    pub(crate) fn force_view(&mut self) -> ForceView<'_> {
        ForceView {
            soa: &self.soa,
            cand_off: &self.cand_off,
            cand_idx: &self.cand_idx,
            nbr_off: &self.nbr_off,
            nbr_idx: &self.nbr_idx,
            pairs: &mut self.pairs,
            blocks: &mut self.blocks,
        }
    }

    /// Capacity held by the neighbour lists and their transpose scratch.
    #[cfg(test)]
    pub(crate) fn list_capacity(&self) -> usize {
        [&self.t_off, &self.t_idx, &self.nbr_off, &self.nbr_idx].iter().map(|v| v.capacity()).sum()
    }

    /// Particle count the neighbour lists are valid for (`None` if none
    /// were built since the last density pass: only the scalar force
    /// path and [`SphScratch::cache_neighbors`] build them).
    pub fn cached_for(&self) -> Option<usize> {
        (self.cached_n != usize::MAX).then_some(self.cached_n)
    }

    /// Total neighbour-list entries: once built, the directed pair count,
    /// exactly the force pass's interaction count (the SoA path evaluates
    /// each unordered pair once and counts it twice).
    pub fn cached_neighbor_entries(&self) -> usize {
        self.nbr_idx.len()
    }

    /// Stage the candidate sets for `gas` without re-adapting smoothing
    /// lengths and build the neighbour lists from them (for callers that
    /// computed densities separately; the Gadget path stages the sets in
    /// [`compute_density_with`]).
    pub fn cache_neighbors(&mut self, gas: &GasParticles) {
        let n = gas.len();
        let direct = n < self.direct_below;
        if direct {
            self.soa.pos.fill_from(&gas.pos);
        } else {
            let mean_h = (gas.h.iter().sum::<f64>() / n as f64).max(1e-6);
            self.grid.build_into(&gas.pos, mean_h);
        }
        let search =
            Search { pos: &gas.pos, grid: &self.grid, cols: direct.then_some(&self.soa.pos) };
        if self.finders.is_empty() {
            self.finders.push(Default::default());
        }
        let buf = &mut self.finders[0].0;
        self.cand_off.clear();
        self.cand_off.push(0);
        self.cand_idx.clear();
        for (c, &h) in gas.pos.iter().zip(&gas.h) {
            fill_candidates(buf, &search, c, h);
            self.cand_idx.extend(buf.iter().map(|&(j, _)| j));
            self.cand_off.push(self.cand_idx.len() as u32);
        }
        self.staged_for = n;
        self.symmetrize(&gas.pos, &gas.h);
    }

    /// Panic unless the candidate sets were staged for `n` particles: the
    /// caller must run [`compute_density_with`] (or
    /// [`SphScratch::cache_neighbors`]) for this particle set first.
    pub(crate) fn assert_staged(&self, n: usize) {
        assert_eq!(
            self.staged_for, n,
            "stale neighbour grid: run compute_density_with (or cache_neighbors) for this gas first"
        );
    }

    /// Ensure the scalar path's neighbour lists are current for `gas`,
    /// building them from the staged candidate sets (which must be
    /// current, see [`SphScratch::assert_staged`]).
    pub(crate) fn ensure_cache(&mut self, gas: &GasParticles) {
        let n = gas.len();
        if self.cached_n != n {
            self.assert_staged(n);
            self.symmetrize(&gas.pos, &gas.h);
        }
    }

    /// Build `nbr_off`/`nbr_idx` from the staged candidate sets: transpose
    /// them with a counting sort, then list `i` draws from `C(i)` and then
    /// the rest of its transposed row — the `j` with `i ∈ C(j)` that
    /// `C(i)` missed, i.e. `r > h_i` — each filtered by the force pass's
    /// exact pair predicate, in that draw order. No search, and an order
    /// that depends on the particle set alone. Survivors are compacted
    /// without a branch (the predicate passes about half the time).
    // jc-lint: no-alloc
    fn symmetrize(&mut self, pos: &[[f64; 3]], h: &[f64]) {
        let n = pos.len();
        let (c_off, c_idx) = (&self.cand_off, &self.cand_idx);
        let (t_off, t_idx) = (&mut self.t_off, &mut self.t_idx);
        t_off.clear();
        t_off.resize(n + 1, 0);
        for &j in c_idx {
            t_off[j as usize + 1] += 1;
        }
        for i in 0..n {
            t_off[i + 1] += t_off[i];
        }
        t_idx.clear();
        t_idx.resize(c_idx.len(), 0);
        // cursor pass: t_off[j] ends up at the *end* of row j
        for i in 0..n {
            for &j in &c_idx[c_off[i] as usize..c_off[i + 1] as usize] {
                t_idx[t_off[j as usize] as usize] = i as u32;
                t_off[j as usize] += 1;
            }
        }
        let out = &mut self.nbr_idx;
        out.clear();
        out.resize(c_idx.len() + t_idx.len(), 0);
        self.nbr_off.clear();
        self.nbr_off.push(0);
        let (mut k, mut t_start) = (0usize, 0usize);
        for i in 0..n {
            let (p, hi) = (pos[i], h[i]);
            // (r², h_ij²) of the pair (i, j), in the force pass's arithmetic
            let pair = |j: u32| {
                let q = &pos[j as usize];
                let d = [p[0] - q[0], p[1] - q[1], p[2] - q[2]];
                let h_ij = 0.5 * (hi + h[j as usize]);
                (d[0] * d[0] + d[1] * d[1] + d[2] * d[2], h_ij * h_ij)
            };
            let mut put = |j: u32, keep: bool| {
                out[k] = j;
                k += keep as usize;
            };
            for &j in &c_idx[c_off[i] as usize..c_off[i + 1] as usize] {
                let (r2, h2) = pair(j);
                put(j, (r2 < h2) & (r2 != 0.0)); // r² ≠ 0 also drops j = i
            }
            for &j in &t_idx[t_start..t_off[i] as usize] {
                let (r2, h2) = pair(j);
                put(j, (r2 < h2) & (r2 > hi * hi)); // r ≤ h_i: already in C(i)
            }
            t_start = t_off[i] as usize;
            self.nbr_off.push(k as u32);
        }
        out.truncate(k);
        self.cached_n = n;
    }
}

/// Where [`fill_candidates`] looks: the SoA position columns when the
/// set is below the crossover (`cols`), otherwise the grid over `pos`.
#[derive(Clone, Copy)]
struct Search<'a> {
    pos: &'a [[f64; 3]],
    grid: &'a CsrGrid,
    cols: Option<&'a Soa3>,
}

/// Mean-interparticle-spacing smoothing length estimate (the pre-refactor
/// pass's seed, which the `tests/golden.rs` oracle recomputes).
pub(crate) fn h_mean_of(pos: &[[f64; 3]]) -> f64 {
    let n = pos.len();
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in pos {
        for k in 0..3 {
            lo[k] = lo[k].min(p[k]);
            hi[k] = hi[k].max(p[k]);
        }
    }
    let vol = (hi[0] - lo[0]).max(1e-6) * (hi[1] - lo[1]).max(1e-6) * (hi[2] - lo[2]).max(1e-6);
    // floor by the bounding-box diagonal so sparse/degenerate sets (a pair
    // of particles on a line, say) still reach each other after adaptation
    let diag = ((hi[0] - lo[0]).powi(2) + (hi[1] - lo[1]).powi(2) + (hi[2] - lo[2]).powi(2))
        .sqrt()
        .max(1e-6);
    (vol / n as f64 * N_NEIGHBORS as f64).cbrt().max(diag / (n as f64).cbrt()).max(1e-6)
}

/// Compute densities with adaptive smoothing lengths (temporary scratch;
/// prefer [`compute_density_with`] on a hot path).
pub fn compute_density(gas: &mut GasParticles) -> u64 {
    compute_density_with(gas, &mut SphScratch::new())
}

/// Compute densities with adaptive smoothing lengths, reusing `scratch`.
/// Each particle's `h` is adapted so roughly [`N_NEIGHBORS`] particles
/// fall inside it. Stages every particle's final candidate set and marks
/// the neighbour lists stale; the force pass
/// ([`crate::forces::hydro_rates_into`]) reads the staged sets, without
/// searching again. Returns the total number of
/// neighbour interactions of the adaptation (for the cost model).
// jc-lint: no-alloc
pub fn compute_density_with(gas: &mut GasParticles, scratch: &mut SphScratch) -> u64 {
    let n = gas.len();
    scratch.cached_n = usize::MAX;
    scratch.staged_for = n;
    scratch.cand_off.clear();
    scratch.cand_off.resize(n + 1, 0);
    scratch.cand_idx.clear();
    if n == 0 {
        scratch.nbr_off.clear();
        scratch.nbr_off.push(0);
        scratch.nbr_idx.clear();
        scratch.cached_n = 0;
        return 0;
    }
    let h_mean = h_mean_of(&gas.pos);
    for h in &mut gas.h {
        if *h <= 0.0 || !h.is_finite() {
            *h = h_mean;
        }
    }
    // The legacy pass gridded at cell = h_mean, a bbox-volume estimate
    // that a halo inflates far past the typical smoothing length, leaving
    // dense regions packed into a handful of cells. Grid at the median
    // incoming h instead (clamped to the legacy cell): candidate SETS —
    // and so neighbour counts, h trajectories and interaction totals —
    // are independent of the cell size and of grid-versus-sweep, and the
    // scalar path's final density sums restore the legacy accumulation
    // order via the per-particle sort keys below.
    let cell_legacy = h_mean.max(1e-6);
    let direct = n < scratch.direct_below;
    if direct {
        scratch.soa.pos.fill_from(&gas.pos);
    } else {
        scratch.h_tmp.clear();
        scratch.h_tmp.extend_from_slice(&gas.h);
        let mid = scratch.h_tmp.len() / 2;
        let (_, median_h, _) = scratch.h_tmp.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
        let cell = median_h.clamp(cell_legacy / 16.0, cell_legacy).max(1e-6);
        scratch.grid.build_into(&gas.pos, cell);
    }
    let simd = scratch.simd;
    scratch.sort_key.clear();
    if simd {
        // the SoA path neither re-sorts candidates into legacy order nor
        // needs the keys — it gathers masses through the aligned column
        scratch.soa.fill_mass(gas);
    } else {
        scratch
            .sort_key
            .extend(gas.pos.iter().map(|p| CsrGrid::pack(CsrGrid::key(p, cell_legacy))));
    }
    let threads = scratch.threads_for(n);
    // jc-lint: allow(no-alloc): Default is the resize_with element factory — empty Vecs don't allocate
    scratch.finders.resize_with(threads, Default::default);
    for (_, ids) in &mut scratch.finders {
        ids.clear(); // a previous call may have used more workers
    }
    let GasParticles { pos, mass, rho, h, .. } = gas;
    let (pos, mass) = (&*pos, &*mass);
    let search = Search { pos, grid: &scratch.grid, cols: direct.then_some(&scratch.soa.pos) };
    let sort_key = &*scratch.sort_key;
    let soa_m = scratch.soa.m.as_slice();
    let inter = par::chunked(
        threads,
        (rho.as_mut_slice(), h.as_mut_slice(), &mut scratch.cand_off[1..]),
        &mut scratch.finders,
        0u64,
        |s0, (rc, hc, cc): (&mut [f64], &mut [f64], &mut [u32]), (buf, ids)| {
            let mut inter = 0u64;
            for (k, ((r, hh), cnt)) in rc.iter_mut().zip(hc.iter_mut()).zip(cc).enumerate() {
                let (rv, hv, it) = if simd {
                    adapt_one_simd(s0 + k, soa_m, &search, *hh, h_mean, buf)
                } else {
                    adapt_one(s0 + k, mass, &search, sort_key, *hh, h_mean, buf)
                };
                *r = rv;
                *hh = hv;
                inter += it;
                *cnt = buf.len() as u32;
                ids.extend(buf.iter().map(|&(j, _)| j));
            }
            inter
        },
        |a, b| a + b,
    );
    // worker stages are in ascending-chunk order: their concatenation is
    // the CSR index array of the per-particle counts
    for i in 0..n {
        scratch.cand_off[i + 1] += scratch.cand_off[i];
    }
    for (_, ids) in &scratch.finders {
        scratch.cand_idx.extend_from_slice(ids);
    }
    debug_assert_eq!(scratch.cand_idx.len(), scratch.cand_off[n] as usize);
    inter
}

/// One particle's h-adaptation. Four departures from the legacy loop,
/// none observable in the results:
///
/// * where the legacy pass re-queries the grid for an unchanged `h` (the
///   post-adapt query is repeated verbatim at the top of the next
///   iteration, and a clamped adaptation can leave `h` in place), the
///   staged candidate buffer is reused;
/// * a shrinking `h` filters the buffer in order on the stored squared
///   distances instead of re-scanning the grid (the new candidate set is
///   a subset of the old one);
/// * a growing `h` re-scans only while some particle is still outside:
///   once the buffer holds the whole set a wider search returns it again,
///   same order, same distances (a set smaller than 0.8 ·
///   [`N_NEIGHBORS`] grows `h` on every iteration and would otherwise
///   search [`H_ITERS`] times per particle for nothing);
/// * the per-iteration density sums — all dead values except the last —
///   are dropped; the one surviving sum runs over the final buffer,
///   re-sorted into the legacy accumulation order (coarse legacy cell in
///   lexicographic order, then ascending index), term-for-term identical
///   to the pre-refactor pass.
fn adapt_one(
    i: usize,
    mass: &[f64],
    search: &Search,
    sort_key: &[u128],
    h_in: f64,
    h_mean: f64,
    buf: &mut Vec<Candidate>,
) -> (f64, f64, u64) {
    let (h, inter) = adapt_h(i, search, h_in, h_mean, buf);
    buf.sort_unstable_by_key(|&(j, _)| (sort_key[j as usize], j));
    let mut rho = sum_density(buf, mass, h);
    if rho <= 0.0 {
        // lone particle: density of itself
        rho = mass[i] * w(0.0, h);
    }
    (rho, h, inter)
}

/// The shared h-adaptation trajectory: iterate `h` towards
/// [`N_NEIGHBORS`] candidates, leaving the final candidate set — every
/// particle within the returned `h`, in search order — in `buf`. Both
/// density paths run exactly this loop —
/// the "identical adaptation trajectory" invariant the SoA tests pin is
/// this one function, not two synchronized copies. Returns the final
/// `h` and the interaction total.
fn adapt_h(
    i: usize,
    search: &Search,
    h_in: f64,
    h_mean: f64,
    buf: &mut Vec<Candidate>,
) -> (f64, u64) {
    let c = search.pos[i];
    let mut h = h_in.min(h_mean * 8.0).max(h_mean * 0.05);
    let mut inter = 0u64;
    let mut buf_h = f64::NAN; // the h the buffer currently holds
    for _ in 0..H_ITERS {
        if buf_h != h {
            fill_candidates(buf, search, &c, h);
            buf_h = h;
        }
        inter += buf.len() as u64;
        let found = buf.len().max(1);
        if found as f64 > 0.8 * N_NEIGHBORS as f64 && (found as f64) < 1.3 * N_NEIGHBORS as f64 {
            break;
        }
        // adapt towards the target count
        h *= growth_factor(found);
        h = h.clamp(h_mean * 0.05, h_mean * 8.0);
        if buf_h != h {
            if h < buf_h {
                let r2 = h * h;
                buf.retain(|&(_, d2)| d2 <= r2);
            } else if buf.len() < search.pos.len() {
                fill_candidates(buf, search, &c, h);
            }
            buf_h = h;
        }
    }
    (h, inter)
}

/// Length of the h-growth table: every count up to `8 ·`
/// [`N_NEIGHBORS`], where the factor reaches its lower clamp
/// (`(1/8)^(1/3) = 1/2`). A set smaller than 0.8 · [`N_NEIGHBORS`] runs
/// all [`H_ITERS`] growth steps on every particle, so a session-sized
/// pass would otherwise make a libm `cbrt` call per particle per step.
const GROWTH_TABLE_LEN: usize = 8 * N_NEIGHBORS + 1;

/// The h-adaptation step's growth factor for `found` candidates,
/// `(N_NEIGHBORS / found)^(1/3)` clamped to `[0.5, 2.0]`: read from a
/// table filled once per process with that expression, computed as-is
/// past the table's end — the same bits either way.
#[inline]
fn growth_factor(found: usize) -> f64 {
    static TABLE: OnceLock<[f64; GROWTH_TABLE_LEN]> = OnceLock::new();
    let table = TABLE.get_or_init(|| std::array::from_fn(growth_factor_of));
    table.get(found).copied().unwrap_or_else(|| growth_factor_of(found))
}

/// The expression [`growth_factor`] tabulates.
fn growth_factor_of(found: usize) -> f64 {
    (N_NEIGHBORS as f64 / found as f64).cbrt().clamp(0.5, 2.0)
}

/// The one seam every neighbour search goes through: fill `buf` with
/// every particle within `h` of `c`, as `(index, squared distance)`.
#[inline]
fn fill_candidates(buf: &mut Vec<Candidate>, search: &Search, c: &[f64; 3], h: f64) {
    buf.clear();
    match search.cols {
        Some(cols) => sweep_within(cols, c, h, |j, d2| buf.push((j, d2))),
        None => search.grid.for_each_within(search.pos, c, h, |j, d2| buf.push((j, d2))),
    }
}

fn sum_density(buf: &[Candidate], mass: &[f64], h: f64) -> f64 {
    let mut rho = 0.0;
    for &(j, d2) in buf {
        rho += mass[j as usize] * w(d2.sqrt(), h);
    }
    rho
}

/// [`adapt_one`] for the SoA path ([`SphScratch::simd`]): the same
/// h-adaptation trajectory (identical candidate sets, counts and
/// interaction totals), but the final density sum runs [`LANES`] wide
/// over the aligned mass column in search order — the legacy
/// re-sort (and the whole sort-key machinery) is skipped, since this
/// path is bound to the scalar reference by tolerance, not bitwise.
fn adapt_one_simd(
    i: usize,
    mass: &[f64],
    search: &Search,
    h_in: f64,
    h_mean: f64,
    buf: &mut Vec<Candidate>,
) -> (f64, f64, u64) {
    let (h, inter) = adapt_h(i, search, h_in, h_mean, buf);
    let mut rho = sum_density_lanes(buf, mass, h);
    if rho <= 0.0 {
        rho = mass[i] * w(0.0, h);
    }
    (rho, h, inter)
}

/// The [`LANES`]-wide cubic-spline density sum: candidates are consumed
/// in fixed batches (lane `l` takes candidate `o + l`, the tail lands in
/// lanes `0..tail`), the kernel is evaluated branch-free (both spline
/// pieces computed, selected by `q`), and the lane accumulators reduce
/// through [`reduce_lanes`]. The normalization `σ = 8/(π h³)` is
/// factored out of the sum — one of the roundings that separates this
/// path from the scalar reference.
fn sum_density_lanes(buf: &[Candidate], mass: &[f64], h: f64) -> f64 {
    let sigma = 8.0 / (std::f64::consts::PI * h * h * h);
    let inv_h = 1.0 / h;
    let mut lanes = [0.0f64; LANES];
    let batches = buf.len() / LANES;
    macro_rules! lane {
        ($l:expr, $cand:expr) => {{
            let (j, d2) = $cand;
            let q = d2.sqrt() * inv_h;
            let t = 1.0 - q;
            let near = 1.0 - 6.0 * q * q + 6.0 * q * q * q;
            let far = 2.0 * t * t * t;
            let val = if q < 0.5 {
                near
            } else if q < 1.0 {
                far
            } else {
                0.0
            };
            lanes[$l] += mass[j as usize] * val;
        }};
    }
    for b in 0..batches {
        let o = b * LANES;
        let batch: &[Candidate; LANES] = buf[o..o + LANES].try_into().unwrap();
        for l in 0..LANES {
            lane!(l, batch[l]);
        }
    }
    for (l, &cand) in buf[batches * LANES..].iter().enumerate() {
        lane!(l, cand);
    }
    sigma * reduce_lanes(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A uniform lattice of unit-mass particles: density must come out near
    /// the analytic value n/V.
    #[test]
    fn uniform_lattice_density() {
        let mut gas = GasParticles::new();
        let n_side = 8;
        let spacing = 1.0 / n_side as f64;
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    gas.push(
                        1.0,
                        [i as f64 * spacing, j as f64 * spacing, k as f64 * spacing],
                        [0.0; 3],
                        1.0,
                    );
                }
            }
        }
        compute_density(&mut gas);
        let expected = 1.0 / (spacing * spacing * spacing); // mass density
                                                            // check an interior particle (index of center-ish particle)
        let mid = (n_side / 2 * n_side * n_side + n_side / 2 * n_side + n_side / 2) as usize;
        let rel = (gas.rho[mid] - expected).abs() / expected;
        assert!(rel < 0.15, "rho = {} vs {expected}", gas.rho[mid]);
    }

    #[test]
    fn neighbor_counts_near_target() {
        let gas = {
            let mut g = crate::particles::plummer_gas(1000, 1.0, 3);
            compute_density(&mut g);
            g
        };
        // check neighbor count within h for a sample of interior particles
        let grid = CsrGrid::build(&gas.pos, 0.1);
        let mut ok = 0;
        let mut total = 0;
        for i in (0..gas.len()).step_by(50) {
            let r = (gas.pos[i][0].powi(2) + gas.pos[i][1].powi(2) + gas.pos[i][2].powi(2)).sqrt();
            if r > 1.0 {
                continue; // halo particles can be starved
            }
            let cnt = grid.within(&gas.pos, &gas.pos[i], gas.h[i]).len();
            total += 1;
            if (N_NEIGHBORS / 3..=N_NEIGHBORS * 3).contains(&cnt) {
                ok += 1;
            }
        }
        assert!(ok * 10 >= total * 7, "{ok}/{total} particles near target count");
    }

    #[test]
    fn growth_table_matches_the_cbrt_expression_bitwise() {
        // every tabulated count, and the first count computed past the end
        for found in 1..=GROWTH_TABLE_LEN {
            let want = (N_NEIGHBORS as f64 / found as f64).cbrt().clamp(0.5, 2.0);
            assert_eq!(growth_factor(found).to_bits(), want.to_bits(), "found = {found}");
        }
        assert_eq!(growth_factor(GROWTH_TABLE_LEN - 1), 0.5, "the table ends on the clamp");
    }

    #[test]
    fn empty_gas_is_fine() {
        let mut gas = GasParticles::new();
        let mut scratch = SphScratch::new();
        assert_eq!(compute_density_with(&mut gas, &mut scratch), 0);
        assert_eq!(scratch.cached_for(), Some(0));
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let mut a = crate::particles::plummer_gas(300, 1.0, 5);
        let mut b = a.clone();
        let mut scratch = SphScratch::new();
        // warm the scratch on an unrelated set, then reuse
        let mut warm = crate::particles::plummer_gas(100, 1.0, 9);
        compute_density_with(&mut warm, &mut scratch);
        let ia = compute_density_with(&mut a, &mut scratch);
        let ib = compute_density(&mut b);
        assert_eq!(ia, ib);
        for i in 0..a.len() {
            assert_eq!(a.rho[i].to_bits(), b.rho[i].to_bits());
            assert_eq!(a.h[i].to_bits(), b.h[i].to_bits());
        }
    }

    #[test]
    fn simd_density_matches_scalar_within_tolerance() {
        let mut a = crate::particles::plummer_gas(1200, 1.0, 7);
        let mut b = a.clone();
        let mut scalar = SphScratch::new();
        scalar.simd = false;
        let mut simd = SphScratch::new();
        let ia = compute_density_with(&mut a, &mut scalar);
        let ib = compute_density_with(&mut b, &mut simd);
        // the adaptation trajectory is shared: same candidate sets, same
        // h updates, same interaction totals — only the final sums differ
        assert_eq!(ia, ib, "SoA path changed the adaptation trajectory");
        for i in 0..a.len() {
            assert_eq!(a.h[i].to_bits(), b.h[i].to_bits(), "h[{i}] diverged");
            let rel = (a.rho[i] - b.rho[i]).abs() / a.rho[i].abs().max(1e-300);
            assert!(rel < 1e-12, "rho[{i}]: {} vs {} (rel {rel})", a.rho[i], b.rho[i]);
        }
    }

    #[test]
    fn simd_density_is_thread_count_invariant_and_stable() {
        let mut a = crate::particles::plummer_gas(1500, 1.0, 3);
        let mut b = a.clone();
        let mut c = a.clone();
        let mut seq = SphScratch::new();
        seq.simd = true;
        seq.max_threads = 1;
        let mut par8 = SphScratch::new();
        par8.simd = true;
        par8.max_threads = 8;
        let ia = compute_density_with(&mut a, &mut seq);
        let ib = compute_density_with(&mut b, &mut par8);
        let ic = compute_density_with(&mut c, &mut seq);
        assert_eq!(ia, ib);
        assert_eq!(ia, ic);
        for i in 0..a.len() {
            assert_eq!(a.rho[i].to_bits(), b.rho[i].to_bits(), "thread count changed rho[{i}]");
            assert_eq!(a.rho[i].to_bits(), c.rho[i].to_bits(), "rerun changed rho[{i}]");
        }
    }

    #[test]
    fn sequential_matches_parallel_bitwise() {
        let mut a = crate::particles::plummer_gas(1500, 1.0, 7);
        let mut b = a.clone();
        let mut seq = SphScratch::new();
        (seq.simd, seq.max_threads) = (false, 1);
        let mut par = SphScratch::new();
        (par.simd, par.max_threads) = (false, 8);
        let ia = compute_density_with(&mut a, &mut seq);
        let ib = compute_density_with(&mut b, &mut par);
        assert_eq!(ia, ib);
        for i in 0..a.len() {
            assert_eq!(a.rho[i].to_bits(), b.rho[i].to_bits());
            assert_eq!(a.h[i].to_bits(), b.h[i].to_bits());
        }
        seq.ensure_cache(&a);
        par.ensure_cache(&b);
        assert_eq!(seq.cached_neighbor_entries(), par.cached_neighbor_entries());
        assert_eq!(seq.nbr_idx, par.nbr_idx, "cached lists diverge");
    }

    #[test]
    fn neighbor_cache_covers_pair_supports() {
        let mut gas = crate::particles::plummer_gas(400, 1.0, 11);
        let mut scratch = SphScratch::new();
        compute_density_with(&mut gas, &mut scratch);
        scratch.ensure_cache(&gas);
        assert_eq!(scratch.cached_for(), Some(gas.len()));
        // list i is exactly the pairs with 0 < r < h_ij
        for i in (0..gas.len()).step_by(37) {
            let want: Vec<u32> = (0..gas.len())
                .filter(|&j| {
                    let d = [
                        gas.pos[i][0] - gas.pos[j][0],
                        gas.pos[i][1] - gas.pos[j][1],
                        gas.pos[i][2] - gas.pos[j][2],
                    ];
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    let h_ij = 0.5 * (gas.h[i] + gas.h[j]);
                    r2 < h_ij * h_ij && r2 != 0.0
                })
                .map(|j| j as u32)
                .collect();
            assert_eq!(sorted(scratch.neighbors(i)), want, "list {i}");
        }
    }

    /// Run the density pass on `gas` with the crossover forced to
    /// `direct_below`; returns `(interactions, h, rho, neighbour lists)`.
    fn run_at(
        gas: &GasParticles,
        direct_below: usize,
        simd: bool,
    ) -> (u64, Vec<u64>, Vec<f64>, Vec<Vec<u32>>) {
        let mut g = gas.clone();
        let mut scratch = SphScratch::with_crossover(direct_below);
        scratch.simd = simd;
        let inter = compute_density_with(&mut g, &mut scratch);
        scratch.ensure_cache(&g);
        let lists = (0..g.len()).map(|i| sorted(scratch.neighbors(i))).collect();
        (inter, g.h.iter().map(|h| h.to_bits()).collect(), g.rho, lists)
    }

    fn sorted(list: &[u32]) -> Vec<u32> {
        let mut v = list.to_vec();
        v.sort_unstable();
        v
    }

    /// Sweep and grid must agree on everything that is a function of the
    /// candidate *sets*: h trajectory, interaction total, neighbour sets
    /// — and, on the scalar path (which re-sorts), the densities bitwise.
    fn assert_search_paths_agree(gas: &GasParticles) {
        for simd in [false, true] {
            let grid = run_at(gas, 0, simd);
            let sweep = run_at(gas, usize::MAX, simd);
            assert_eq!(grid.0, sweep.0, "interaction totals (simd={simd})");
            assert_eq!(grid.1, sweep.1, "h trajectories (simd={simd})");
            assert_eq!(grid.3, sweep.3, "neighbour lists (simd={simd})");
            for (i, (a, b)) in grid.2.iter().zip(&sweep.2).enumerate() {
                if simd {
                    assert!((a - b).abs() <= 1e-12 * a.abs(), "rho[{i}]: {a} vs {b}");
                } else {
                    assert_eq!(a.to_bits(), b.to_bits(), "rho[{i}]: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn crossover_picks_the_path_by_particle_count_alone() {
        // T − 1 sweeps, T and T + 1 grid: each must equal both forced
        // paths on the same set
        const T: usize = 96;
        for n in [T - 1, T, T + 1] {
            let gas = crate::particles::plummer_gas(n, 1.0, n as u64);
            assert_search_paths_agree(&gas);
            let bits = |rho: &[f64]| rho.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            let at_t = run_at(&gas, T, true);
            let forced = run_at(&gas, if n < T { usize::MAX } else { 0 }, true);
            assert_eq!((at_t.0, &at_t.1, bits(&at_t.2)), (forced.0, &forced.1, bits(&forced.2)));
        }
    }

    #[test]
    fn search_paths_agree_on_degenerate_sets() {
        // n ∈ {1, 2, 3}, coincident particles, zero mass, ±1e6 coordinates
        for n in 1..=3 {
            assert_search_paths_agree(&crate::particles::plummer_gas(n, 1.0, 5));
        }
        let mut gas = crate::particles::plummer_gas(40, 1.0, 9);
        gas.pos[7] = gas.pos[3];
        gas.pos[8] = gas.pos[3];
        gas.mass[5] = 0.0;
        gas.pos[11] = [1e6, -1e6, 1e6];
        gas.pos[12] = [-1e6, 1e6, -1e6];
        assert_search_paths_agree(&gas);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn search_paths_agree_on_random_clouds(
            pts in proptest::collection::vec(
                ((-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0), 0.0f64..1.0),
                1..160,
            ),
            dup in 0usize..4,
        ) {
            let mut gas = GasParticles::new();
            for &((x, y, z), m) in &pts {
                gas.push(m, [x, y, z], [0.0; 3], 1.0);
            }
            for &((x, y, z), _) in pts.iter().take(dup) {
                gas.push(0.5, [x, y, z], [0.0; 3], 1.0); // coincident copies
            }
            assert_search_paths_agree(&gas);
        }
    }
}
