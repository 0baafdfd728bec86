//! CSR-layout uniform cell grid for fixed-radius neighbour queries.
//!
//! Replaces the `HashMap<(i32,i32,i32), Vec<u32>>` grid: one flat particle
//! index array partitioned by cell, plus a per-cell offset table, built
//! with a counting sort. Queries are visitor-style (`for_each_within`) so
//! the steady-state hot path performs no heap allocation, and the candidate
//! scan is clamped to the grid's occupied-cell bounding box so pathological
//! query radii (`radius >> cell`) cost O(occupied cells), not O((2r+1)³).
//!
//! Cell decomposition and visit order are bit-compatible with the legacy
//! grid: cells are cubes of edge `cell`, keyed by `floor(p/cell)` per axis,
//! visited in lexicographic (x, y, z) order with ascending particle index
//! inside each cell — so density sums accumulate in the identical order
//! and reproduce the pre-refactor results bitwise (see `tests/golden.rs`).

use jc_compute::soa::Soa3;

/// Maximum dense-table cells per particle before falling back to the
/// sorted-key (sparse) layout. The table costs 4 bytes per cell and one
/// zeroing sweep per rebuild, so a generous budget is cheap, and the
/// density pass deliberately grids several cells per smoothing length.
const DENSE_CELL_BUDGET_PER_PARTICLE: usize = 256;
/// Dense-table floor so small sets still use the O(1)-lookup layout.
const DENSE_CELL_FLOOR: usize = 65536;

/// A uniform cell grid in CSR layout.
///
/// All backing buffers are reused across [`CsrGrid::build_into`] calls:
/// once warm, rebuilding over a same-sized particle set allocates nothing.
pub struct CsrGrid {
    cell: f64,
    /// Occupied-cell bounding box in cell coordinates (inclusive). When the
    /// grid is empty, `lo > hi`.
    lo: [i64; 3],
    hi: [i64; 3],
    /// Dense dims (`hi - lo + 1` per axis) when `dense`.
    dims: [usize; 3],
    dense: bool,
    /// Dense: `ncells + 1` offsets into `indices`, indexed by flat cell id.
    /// Sparse: `keys.len() + 1` offsets, aligned with `keys`.
    offsets: Vec<u32>,
    /// Sparse only: sorted packed cell keys of occupied cells.
    keys: Vec<u128>,
    /// Particle indices grouped by cell, ascending inside each cell.
    indices: Vec<u32>,
    /// Dense only: per-x-plane occupied y bounds (relative coords;
    /// `(u32::MAX, 0)` = empty plane). Lets queries skip empty planes and
    /// rows in O(1) instead of probing every cell of the scan box.
    plane_y: Vec<(u32, u32)>,
    /// Dense only: per-(x,y)-row occupied z bounds.
    row_z: Vec<(u32, u32)>,
    /// Build scratch: per-particle cell slot (dense flat id / sparse rank).
    slot_of: Vec<u32>,
    /// Build scratch for the sparse fallback: (packed key, particle).
    pairs: Vec<(u128, u32)>,
}

impl Default for CsrGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl CsrGrid {
    /// An empty grid (no allocation until the first build).
    pub fn new() -> CsrGrid {
        CsrGrid {
            cell: 1.0,
            lo: [1, 1, 1],
            hi: [0, 0, 0],
            dims: [0; 3],
            dense: true,
            offsets: Vec::new(),
            keys: Vec::new(),
            indices: Vec::new(),
            plane_y: Vec::new(),
            row_z: Vec::new(),
            slot_of: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Convenience: build a fresh grid over positions.
    pub fn build(pos: &[[f64; 3]], cell: f64) -> CsrGrid {
        let mut g = CsrGrid::new();
        g.build_into(pos, cell);
        g
    }

    /// Cell edge length.
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// Cell key of a position (identical to the legacy grid's keying).
    #[inline]
    pub(crate) fn key(p: &[f64; 3], cell: f64) -> [i64; 3] {
        [(p[0] / cell).floor() as i64, (p[1] / cell).floor() as i64, (p[2] / cell).floor() as i64]
    }

    #[inline]
    pub(crate) fn pack(k: [i64; 3]) -> u128 {
        // order-preserving 3×42-bit pack (sorted packed keys iterate in
        // lexicographic (x, y, z) order); keys derived from f64/cell stay
        // far inside ±2^41 for any physically meaningful configuration
        const BIAS: i64 = 1 << 41;
        const MASK: u128 = (1 << 42) - 1;
        let ux = ((k[0].clamp(-BIAS, BIAS - 1) + BIAS) as u128) & MASK;
        let uy = ((k[1].clamp(-BIAS, BIAS - 1) + BIAS) as u128) & MASK;
        let uz = ((k[2].clamp(-BIAS, BIAS - 1) + BIAS) as u128) & MASK;
        (ux << 84) | (uy << 42) | uz
    }

    #[inline]
    fn unpack(packed: u128) -> [i64; 3] {
        const BIAS: i64 = 1 << 41;
        const MASK: u128 = (1 << 42) - 1;
        [
            ((packed >> 84) & MASK) as i64 - BIAS,
            ((packed >> 42) & MASK) as i64 - BIAS,
            (packed & MASK) as i64 - BIAS,
        ]
    }

    /// Rebuild over `pos`, reusing all internal buffers (counting sort;
    /// no allocation once the buffers are warm).
    pub fn build_into(&mut self, pos: &[[f64; 3]], cell: f64) {
        assert!(cell > 0.0, "cell size must be positive");
        self.cell = cell;
        let n = pos.len();
        self.indices.clear();
        self.keys.clear();
        self.offsets.clear();
        if n == 0 {
            self.lo = [1, 1, 1];
            self.hi = [0, 0, 0];
            self.dims = [0; 3];
            self.dense = true;
            self.offsets.push(0);
            return;
        }
        // occupied-cell bounding box
        let mut lo = [i64::MAX; 3];
        let mut hi = [i64::MIN; 3];
        self.slot_of.clear();
        self.slot_of.reserve(n);
        for p in pos {
            let k = Self::key(p, cell);
            for a in 0..3 {
                lo[a] = lo[a].min(k[a]);
                hi[a] = hi[a].max(k[a]);
            }
        }
        self.lo = lo;
        self.hi = hi;
        let budget = n.saturating_mul(DENSE_CELL_BUDGET_PER_PARTICLE).max(DENSE_CELL_FLOOR);
        let span = |a: usize| (hi[a] - lo[a] + 1) as u128;
        let ncells = span(0).saturating_mul(span(1)).saturating_mul(span(2));
        // `slot_of` stores flat cell ids as u32, so the dense layout is
        // only valid while every id fits — beyond that (possible once the
        // per-particle budget admits > 2^32 cells) fall through to the
        // sparse sorted-key path instead of silently truncating ids.
        self.dense = ncells <= budget as u128 && ncells <= u32::MAX as u128;
        if self.dense {
            let ncells = ncells as usize;
            self.dims = [span(0) as usize, span(1) as usize, span(2) as usize];
            const EMPTY: (u32, u32) = (u32::MAX, 0);
            self.plane_y.clear();
            self.plane_y.resize(self.dims[0], EMPTY);
            self.row_z.clear();
            self.row_z.resize(self.dims[0] * self.dims[1], EMPTY);
            // counting sort: count, exclusive prefix, stable scatter
            self.offsets.resize(ncells + 1, 0);
            self.offsets.iter_mut().for_each(|c| *c = 0);
            for p in pos {
                let k = Self::key(p, cell);
                let (rx, ry, rz) =
                    ((k[0] - lo[0]) as u32, (k[1] - lo[1]) as u32, (k[2] - lo[2]) as u32);
                let plane = &mut self.plane_y[rx as usize];
                plane.0 = plane.0.min(ry);
                plane.1 = plane.1.max(ry);
                let row = &mut self.row_z[rx as usize * self.dims[1] + ry as usize];
                row.0 = row.0.min(rz);
                row.1 = row.1.max(rz);
                let id = self.flat_id(k);
                self.slot_of.push(id as u32);
                self.offsets[id + 1] += 1;
            }
            for c in 1..=ncells {
                self.offsets[c] += self.offsets[c - 1];
            }
            self.indices.resize(n, 0);
            // cursor pass: offsets[id] is the next write slot for cell id;
            // restore the table afterwards by shifting back one slot
            for (i, &slot) in self.slot_of.iter().enumerate() {
                let id = slot as usize;
                self.indices[self.offsets[id] as usize] = i as u32;
                self.offsets[id] += 1;
            }
            for c in (1..=ncells).rev() {
                self.offsets[c] = self.offsets[c - 1];
            }
            self.offsets[0] = 0;
        } else {
            // sparse fallback (pathological cell/extent ratios): sort
            // packed (key, index) pairs — unique indices make the order
            // total, so each cell's particles come out ascending
            self.dims = [0; 3];
            self.pairs.clear();
            self.pairs.reserve(n);
            for (i, p) in pos.iter().enumerate() {
                self.pairs.push((Self::pack(Self::key(p, cell)), i as u32));
            }
            self.pairs.sort_unstable();
            self.indices.resize(n, 0);
            for (at, &(k, i)) in self.pairs.iter().enumerate() {
                if self.keys.last() != Some(&k) {
                    self.keys.push(k);
                    self.offsets.push(at as u32);
                }
                self.indices[at] = i;
            }
            self.offsets.push(n as u32);
        }
    }

    #[inline]
    fn flat_id(&self, k: [i64; 3]) -> usize {
        let x = (k[0] - self.lo[0]) as usize;
        let y = (k[1] - self.lo[1]) as usize;
        let z = (k[2] - self.lo[2]) as usize;
        (x * self.dims[1] + y) * self.dims[2] + z
    }

    /// Index range into the flat index array for an occupied cell, or an
    /// empty range.
    #[inline]
    fn cell_range(&self, k: [i64; 3]) -> (usize, usize) {
        if self.dense {
            let id = self.flat_id(k);
            (self.offsets[id] as usize, self.offsets[id + 1] as usize)
        } else {
            match self.keys.binary_search(&Self::pack(k)) {
                Ok(slot) => (self.offsets[slot] as usize, self.offsets[slot + 1] as usize),
                Err(_) => (0, 0),
            }
        }
    }

    /// Visit every particle within `radius` of `center` (inclusive), as
    /// `f(index, squared distance)`. Visits cells in lexicographic (x, y,
    /// z) order and particles in ascending index inside each cell — the
    /// legacy grid's order — and performs no heap allocation. The cell
    /// scan is clamped to the occupied-cell bounding box, so an oversized
    /// radius degrades to a sweep of the occupied cells, never to
    /// `(2·radius/cell + 1)³` lookups.
    #[inline]
    pub fn for_each_within(
        &self,
        pos: &[[f64; 3]],
        center: &[f64; 3],
        radius: f64,
        mut f: impl FnMut(u32, f64),
    ) {
        if self.indices.is_empty() {
            return;
        }
        let r = (radius / self.cell).ceil() as i64;
        let c = Self::key(center, self.cell);
        let r2 = radius * radius;
        let (x0, x1) =
            (c[0].saturating_sub(r).max(self.lo[0]), c[0].saturating_add(r).min(self.hi[0]));
        let (y0, y1) =
            (c[1].saturating_sub(r).max(self.lo[1]), c[1].saturating_add(r).min(self.hi[1]));
        let (z0, z1) =
            (c[2].saturating_sub(r).max(self.lo[2]), c[2].saturating_add(r).min(self.hi[2]));
        if x0 > x1 || y0 > y1 || z0 > z1 {
            return;
        }
        // monomorphized per-cell scan: the candidate loop must inline into
        // the caller's closure (a `dyn` visitor here costs an indirect
        // call per candidate and defeats vectorization)
        #[inline(always)]
        fn scan<F: FnMut(u32, f64)>(
            indices: &[u32],
            pos: &[[f64; 3]],
            center: &[f64; 3],
            r2: f64,
            f: &mut F,
        ) {
            for &i in indices {
                let p = &pos[i as usize];
                let d = [p[0] - center[0], p[1] - center[1], p[2] - center[2]];
                let d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if d2 <= r2 {
                    f(i, d2);
                }
            }
        }
        // In the sparse layout the clamped box can still dwarf the
        // occupied-cell count; sweeping the sorted key list visits the
        // same cells in the same lexicographic order.
        let box_cells = (x1 - x0 + 1) as u128 * (y1 - y0 + 1) as u128 * (z1 - z0 + 1) as u128;
        if !self.dense && box_cells > self.keys.len() as u128 {
            for (slot, &packed) in self.keys.iter().enumerate() {
                let k = Self::unpack(packed);
                if k[0] < x0 || k[0] > x1 || k[1] < y0 || k[1] > y1 || k[2] < z0 || k[2] > z1 {
                    continue;
                }
                let (s, e) = (self.offsets[slot] as usize, self.offsets[slot + 1] as usize);
                scan(&self.indices[s..e], pos, center, r2, &mut f);
            }
            return;
        }
        if self.dense {
            // clamp each axis sweep to the occupied sub-ranges recorded at
            // build time — only empty cells are skipped, so the visit
            // order over occupied cells is unchanged
            for gx in x0..=x1 {
                let (pl, ph) = self.plane_y[(gx - self.lo[0]) as usize];
                if pl == u32::MAX {
                    continue;
                }
                let gy0 = y0.max(self.lo[1] + pl as i64);
                let gy1 = y1.min(self.lo[1] + ph as i64);
                for gy in gy0..=gy1 {
                    let row =
                        (gx - self.lo[0]) as usize * self.dims[1] + (gy - self.lo[1]) as usize;
                    let (rl, rh) = self.row_z[row];
                    if rl == u32::MAX {
                        continue;
                    }
                    let gz0 = z0.max(self.lo[2] + rl as i64);
                    let gz1 = z1.min(self.lo[2] + rh as i64);
                    for gz in gz0..=gz1 {
                        let (s, e) = self.cell_range([gx, gy, gz]);
                        scan(&self.indices[s..e], pos, center, r2, &mut f);
                    }
                }
            }
        } else {
            for gx in x0..=x1 {
                for gy in y0..=y1 {
                    for gz in z0..=z1 {
                        let (s, e) = self.cell_range([gx, gy, gz]);
                        scan(&self.indices[s..e], pos, center, r2, &mut f);
                    }
                }
            }
        }
    }

    /// Append the indices within `radius` of `center` to `out` (which is
    /// cleared first). Allocation-free once `out` is warm.
    pub fn collect_within(
        &self,
        pos: &[[f64; 3]],
        center: &[f64; 3],
        radius: f64,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        self.for_each_within(pos, center, radius, |i, _| out.push(i));
    }

    /// Convenience allocating query (compatibility with the legacy API).
    pub fn within(&self, pos: &[[f64; 3]], center: &[f64; 3], radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect_within(pos, center, radius, &mut out);
        out
    }
}

/// Candidates tested per block of [`sweep_within`]: one bit each of the
/// block's `u64` hit mask, and a `d²` row (512 B) that stays on the stack.
const BLOCK: usize = 64;

jc_compute::simd::dispatch! {
    /// The direct counterpart of [`CsrGrid::for_each_within`]: visit every
    /// particle within `radius` of `center` by sweeping the SoA position
    /// columns in index order — no structure to build, which is what wins
    /// while the set is small (see the crossover in [`crate::density`]).
    /// Same `d² ≤ r²` arithmetic as the grid's scan, so the visited set and
    /// every squared distance are bit-identical to it; only the order
    /// (ascending index) differs.
    ///
    /// There is one body (`sweep_body`), instantiated for the baseline and
    /// for AVX2 by the one dispatch rule of [`jc_compute::simd`].
    #[inline]
    pub fn sweep_within(cols: &Soa3, center: &[f64; 3], radius: f64, f: impl FnMut(u32, f64))
        => sweep_body, avx2: sweep_within_avx2;
}

/// The one sweep body, at whatever instruction set the caller was
/// compiled for: whole [`BLOCK`]s first (a compile-time length, so the
/// compiler unrolls them into straight-line vector code), then the
/// partial tail block through the same [`sweep_block`].
// jc-lint: no-alloc
#[inline(always)]
fn sweep_body(cols: &Soa3, center: &[f64; 3], radius: f64, mut f: impl FnMut(u32, f64)) {
    let n = cols.x.len();
    let (x, y, z) = (&cols.x[..n], &cols.y[..n], &cols.z[..n]);
    let r2 = radius * radius;
    let full = n - n % BLOCK;
    let blocks = x[..full]
        .chunks_exact(BLOCK)
        .zip(y[..full].chunks_exact(BLOCK))
        .zip(z[..full].chunks_exact(BLOCK));
    for (b, ((xs, ys), zs)) in blocks.enumerate() {
        sweep_block(b * BLOCK, xs, ys, zs, center, r2, &mut f);
    }
    if full < n {
        sweep_block(full, &x[full..], &y[full..], &z[full..], center, r2, &mut f);
    }
}

/// One block of at most [`BLOCK`] candidates starting at index `base`:
/// write every `d²` into a stack row (a plain loop over three contiguous
/// columns, which the compiler vectorises), fold `d² ≤ r²` into a
/// bitmask without branching, then call the visitor once per set bit in
/// ascending index with the stored `d²` — the only data-dependent branch
/// left is the loop over the hits themselves.
// jc-lint: no-alloc
#[inline(always)]
fn sweep_block(
    base: usize,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    center: &[f64; 3],
    r2: f64,
    f: &mut impl FnMut(u32, f64),
) {
    let len = xs.len();
    let (ys, zs) = (&ys[..len], &zs[..len]);
    let mut row = [0.0f64; BLOCK];
    let d2 = &mut row[..len];
    for l in 0..len {
        let d = [xs[l] - center[0], ys[l] - center[1], zs[l] - center[2]];
        d2[l] = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    }
    let mut hits = 0u64;
    for (l, &d) in d2.iter().enumerate() {
        hits |= u64::from(d <= r2) << l;
    }
    while hits != 0 {
        let l = hits.trailing_zeros() as usize;
        f((base + l) as u32, d2[l]);
        hits &= hits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_visits_what_the_grid_visits() {
        let pos: Vec<[f64; 3]> = (0..203)
            .map(|i| {
                let t = i as f64 * 0.618;
                [t.sin(), t.cos(), (t * 0.5).sin()]
            })
            .collect();
        let grid = CsrGrid::build(&pos, 0.2);
        let mut cols = Soa3::new();
        cols.fill_from(&pos);
        for c in pos.iter().step_by(7) {
            for r in [0.0, 0.1, 0.35, 5.0] {
                let mut a = Vec::new();
                grid.for_each_within(&pos, c, r, |j, d2| a.push((j, d2.to_bits())));
                a.sort_unstable();
                let mut b = Vec::new();
                sweep_within(&cols, c, r, |j, d2| b.push((j, d2.to_bits())));
                assert_eq!(a, b, "r={r}");
            }
        }
    }

    #[test]
    fn sweep_tiers_match_a_scalar_loop_bitwise() {
        // every block-count class (none, one partial, exactly one, one
        // plus a tail, many) at spreads that put `d²` in very different
        // binades; the first three points coincide
        let mut s = 7u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        type Hits = Vec<(u32, u64)>;
        for n in [0usize, 1, 3, 4, 5, 63, 64, 65, 127, 129, 511, 513] {
            for spread in [1.0, 2e6] {
                let mut pos: Vec<[f64; 3]> =
                    (0..n).map(|_| [rnd() * spread, rnd() * spread, rnd() * spread]).collect();
                for k in 1..n.min(3) {
                    pos[k] = pos[0];
                }
                let mut cols = Soa3::new();
                cols.fill_from(&pos);
                let centers = [pos.first().copied().unwrap_or([0.0; 3]), [0.1 * spread; 3]];
                for c in &centers {
                    // nothing but coincident points, a handful, a typical
                    // neighbourhood, everything
                    for radius in [0.0, 1e-9 * spread, 0.05 * spread, 0.3 * spread, 4.0 * spread] {
                        let r2 = radius * radius;
                        let mut naive = Hits::new();
                        for (j, p) in pos.iter().enumerate() {
                            let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
                            let d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                            if d2 <= r2 {
                                naive.push((j as u32, d2.to_bits()));
                            }
                        }
                        let (mut dispatched, mut portable) = (Hits::new(), Hits::new());
                        sweep_within(&cols, c, radius, |j, d2| dispatched.push((j, d2.to_bits())));
                        sweep_body(&cols, c, radius, |j, d2| portable.push((j, d2.to_bits())));
                        assert_eq!(dispatched, naive, "dispatched: n={n} r={radius}");
                        assert_eq!(portable, naive, "portable: n={n} r={radius}");
                        if radius >= 4.0 * spread {
                            assert_eq!(naive.len(), n, "radius ≥ bounding box visits everyone");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn finds_all_in_radius() {
        let pos = vec![[0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.2, 0.0, 0.0], [1.0, 1.0, 1.0]];
        let grid = CsrGrid::build(&pos, 0.1);
        let mut got = grid.within(&pos, &[0.0, 0.0, 0.0], 0.1);
        got.sort();
        assert_eq!(got, vec![0, 1]);
        let all = grid.within(&pos, &[0.0, 0.0, 0.0], 2.0);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn oversized_radius_is_clamped_to_occupied_cells() {
        let pos = vec![[0.0; 3], [0.1, 0.0, 0.0]];
        let grid = CsrGrid::build(&pos, 1e-3);
        // radius/cell = 1e6: the scan must clamp to the occupied bbox
        // rather than visiting (2e6)^3 candidate cells
        let t0 = std::time::Instant::now();
        let got = grid.within(&pos, &[0.0; 3], 1_000.0);
        assert_eq!(got.len(), 2);
        assert!(t0.elapsed().as_secs_f64() < 1.0, "scan not clamped");
    }

    #[test]
    fn sparse_fallback_agrees_with_dense() {
        // huge extent relative to cell forces the sorted-key layout
        let mut pos = vec![[0.0; 3]; 0];
        for i in 0..64 {
            pos.push([i as f64 * 97.3, (i % 7) as f64 * 53.1, -(i as f64) * 11.0]);
        }
        let sparse = CsrGrid::build(&pos, 1e-4);
        let dense = CsrGrid::build(&pos, 100.0);
        for c in pos.iter().step_by(5) {
            let mut a = sparse.within(&pos, c, 60.0);
            let mut b = dense.within(&pos, c, 60.0);
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rebuild_reuses_buffers() {
        let mut pos: Vec<[f64; 3]> = (0..500)
            .map(|i| {
                let t = i as f64 * 0.618;
                [t.sin(), t.cos(), (t * 0.5).sin()]
            })
            .collect();
        let mut grid = CsrGrid::new();
        grid.build_into(&pos, 0.2);
        let n0 = grid.within(&pos, &pos[0], 0.25).len();
        // move everything slightly and rebuild in place
        for p in &mut pos {
            p[0] += 1e-3;
        }
        grid.build_into(&pos, 0.2);
        let n1 = grid.within(&pos, &pos[0], 0.25).len();
        assert!(n0 > 0 && n1 > 0);
    }

    #[test]
    fn empty_grid_is_fine() {
        let grid = CsrGrid::build(&[], 1.0);
        assert!(grid.within(&[], &[0.0; 3], 10.0).is_empty());
    }
}
