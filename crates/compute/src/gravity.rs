//! The acceleration-only direct-summation lane kernels.
//!
//! Two bodies over aligned `x/y/z/m` columns ([`SoaBodies`]):
//!
//! * [`accelerations_direct`] — one target against every source, in
//!   f64, [`LANES`] sources at a time: each lane accumulates its own
//!   partial acceleration, and the lanes are folded once per target in
//!   the fixed [`reduce_lanes`] order. Targets and sources may be any two
//!   sets (the coupling kicks).
//! * [`self_accelerations`] — one set acting on itself (gas
//!   self-gravity), each unordered pair `i < j` evaluated once (Newton's
//!   third law) in mixed precision. The set is mirrored into f32 columns,
//!   positions relative to the midpoint of its bounding box (taken out in
//!   f64). Each pair's separation, `r² + ε²`, `1 / r³` and `d/r³` are f32
//!   over 8 lanes; `m_i·d/r³` is subtracted from f32 partial columns of
//!   the `j` block, and `m_j·d/r³` is staged in f32, then folded into row
//!   `i` in f64 in a fixed 8-lane order. The partial columns are folded
//!   into the f64 result in block order.
//!
//! Both follow the one dispatch rule of [`crate::simd`]: one portable
//! body, instantiated for the baseline and for AVX2, with the same bits
//! on every machine. The loops are bound by the divider: one packed `sqrt`
//! and one packed `div` per vector of pairs. That is why there is no
//! AVX-512 tier (an `avx512f` instantiation of the direct body ran at
//! the AVX2 instantiation's rate to within 0.2 % when the kernel was
//! sized; CHANGES.md has the sizing numbers), and why the pair sum runs
//! its pair math in f32: an AVX2 register holds 8 f32 pairs against 4 f64
//! ones, which made `gravity_self` at 512 gas 1.84× faster on one core
//! (0.30 → 0.20 ms, `BENCH_PR32.json` → `BENCH_PR35.json`,
//! machine-normalized).
//!
//! **Precision contract.** [`accelerations_direct`] is the f64 oracle.
//! [`self_accelerations`] stays within an error budget of it: a
//! per-target relative error of at most 1e-5, and at most 1e-6 RMS over
//! the set, and a net force `|Σ m a|_k` of at most 1e-6 · `Σ |m a|`.
//! The tests check the budget on uniform clouds and on Plummer gas at the
//! workloads' sizes. On Plummer gas with ε = 0.05 the sum reads ≤ 1.2e-6
//! at most, ≤ 1.5e-7 RMS, and ≤ 6e-9 net force; the f64 sum read ≈ 1e-17
//! net. The coupling kicks, the tree walk and the Hermite integrator stay
//! f64.
//!
//! A source at zero distance contributes nothing. With softening
//! (`eps2 > 0`) that falls out of the arithmetic — the separation is
//! zero, the denominator is not — so the hot bodies carry no test; only
//! the `eps2 == 0` instantiations select the pair away (in both
//! directions, for the pair-symmetric body). Every model softens, so
//! `eps2 == 0` is for tests; there the pair-symmetric body tests the f32
//! separation, so two particles that coincide at the mirror's f32
//! resolution (a few 1e-8 of the set's extent) are skipped as well.

use crate::par;
use crate::soa::{reduce_lanes, SoaBodies, LANES};
use std::ops::Range;

crate::simd::dispatch! {
    /// Accelerations (G = 1) on every target of one worker chunk due to all
    /// of `src` (position and mass columns; velocities are not read),
    /// written over `out` (`out.len() == targets.len()`). Plummer-softened
    /// by `eps2`; sources are summed lane-by-lane in column order, so the
    /// result for a target depends on the source set alone — not on which
    /// chunk, thread or shard the target landed in.
    pub fn accelerations_direct(
        targets: &[[f64; 3]],
        src: &SoaBodies,
        eps2: f64,
        out: &mut [[f64; 3]],
    ) => accelerations_direct_portable, avx2: accelerations_direct_avx2;
}

/// The body of [`accelerations_direct`] at whatever instruction set the
/// caller was compiled for: the `eps2 == 0` selector over
/// [`accelerations_direct_body`].
// jc-lint: no-alloc
#[inline(always)]
fn accelerations_direct_portable(
    targets: &[[f64; 3]],
    src: &SoaBodies,
    eps2: f64,
    out: &mut [[f64; 3]],
) {
    assert_eq!(out.len(), targets.len(), "acc buffer length mismatch");
    if eps2 == 0.0 {
        accelerations_direct_body::<true>(targets, src, eps2, out);
    } else {
        accelerations_direct_body::<false>(targets, src, eps2, out);
    }
}

/// The one kernel body. `GUARD` is the `eps2 == 0` instantiation: a
/// source sitting exactly on the target is given mass 0 and divisor 1
/// instead of dividing by zero.
#[inline(always)]
fn accelerations_direct_body<const GUARD: bool>(
    targets: &[[f64; 3]],
    src: &SoaBodies,
    eps2: f64,
    out: &mut [[f64; 3]],
) {
    let n = src.len();
    let (sx, sy, sz) = (&src.pos.x[..n], &src.pos.y[..n], &src.pos.z[..n]);
    let sm = &src.mass[..n];
    let full = n - n % LANES;
    for (t, a) in targets.iter().zip(out.iter_mut()) {
        let (mut axl, mut ayl, mut azl) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
        macro_rules! lane {
            ($l:expr, $x:expr, $y:expr, $z:expr, $m:expr) => {{
                let (dx, dy, dz) = ($x - t[0], $y - t[1], $z - t[2]);
                let r2s = dx * dx + dy * dy + dz * dz + eps2;
                let (m, r3) = if GUARD && r2s == 0.0 { (0.0, 1.0) } else { ($m, r2s * r2s.sqrt()) };
                let mir3 = m / r3;
                axl[$l] += mir3 * dx;
                ayl[$l] += mir3 * dy;
                azl[$l] += mir3 * dz;
            }};
        }
        let batches = sx[..full]
            .chunks_exact(LANES)
            .zip(sy[..full].chunks_exact(LANES))
            .zip(sz[..full].chunks_exact(LANES).zip(sm[..full].chunks_exact(LANES)));
        for ((x, y), (z, m)) in batches {
            for l in 0..LANES {
                lane!(l, x[l], y[l], z[l], m[l]);
            }
        }
        for l in 0..n - full {
            lane!(l, sx[full + l], sy[full + l], sz[full + l], sm[full + l]);
        }
        reduce_target(&[axl, ayl, azl], a);
    }
}

/// Fold one target's lane accumulators into its row with
/// [`reduce_lanes`]. Out of line on purpose: inlined, the three
/// reductions feed adjacent output stores, LLVM's SLP vectorizer grows
/// those stores' x/y pairs back through the accumulators into the batch
/// loop, and the loop then runs two axes per vector with shuffles
/// instead of [`LANES`] sources (≈ 18 % slower at AVX2). Behind the call
/// the accumulators reach memory lane by lane.
#[inline(never)]
fn reduce_target(acc: &[[f64; LANES]; 3], a: &mut [f64; 3]) {
    *a = acc.map(reduce_lanes);
}

/// Pairs per block of [`self_accelerations`]: the rows are cut into
/// blocks of about this many pairs (one block up to n = 181), each a
/// unit of work a worker takes whole.
const BLOCK_PAIRS: usize = 16 * 1024;

/// Most blocks one [`self_accelerations`] call is cut into. Bounds the
/// partial columns to `MAX_BLOCKS × n` rows and the fan-out to as many
/// workers; n = 512 makes 8 blocks and ≈ 48 KB of partials (35 KB of
/// f32 scatter columns, 12 KB of f64 row sums).
const MAX_BLOCKS: usize = 16;

/// Lanes of the f64 fold of one row's f32 stage in [`self_accelerations`]
/// — the f32 width of one AVX2 register, the width of the pair pass.
const PAIR_LANES: usize = 8;

/// Reusable scratch of [`self_accelerations`]: the f32 mirror of the set,
/// the row blocks with their partial columns, and one row stage per
/// worker. Allocation-free once warm at a given `n`.
#[derive(Default)]
pub struct PairScratch {
    /// `x/y/z` relative to the set's bounding-box midpoint, and mass, in
    /// f32.
    cols: [Vec<f32>; 4],
    blocks: Vec<PairBlock>,
    stages: Vec<RowStage>,
}

impl PairScratch {
    /// Empty scratch (no allocation until first use).
    pub fn new() -> PairScratch {
        PairScratch::default()
    }

    /// Mirror `src` into the f32 columns. The midpoint of each axis's
    /// extent is taken out in f64 first, so the mirror resolves the set
    /// to f32 precision of its own size, wherever it sits; it is a
    /// function of the set alone.
    fn mirror(&mut self, src: &SoaBodies) {
        let n = src.len();
        let [x, y, z, m] = &mut self.cols;
        let axes = [&src.pos.x[..n], &src.pos.y[..n], &src.pos.z[..n]];
        for (col, axis) in [x, y, z].into_iter().zip(axes) {
            let (lo, hi) = axis
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let mid = 0.5 * (lo + hi);
            col.clear();
            col.extend(axis.iter().map(|&v| (v - mid) as f32));
        }
        m.clear();
        m.extend(src.mass[..n].iter().map(|&v| v as f32));
    }

    /// Cut `n` rows into blocks of about equal *pair* count — the
    /// triangle is lopsided, so row `i` carries `n - 1 - i` pairs — and
    /// size each block's partial columns to the rows `start..n` it can
    /// touch. The cut is a function of `n` alone.
    fn plan(&mut self, n: usize) {
        let pairs = n * n.saturating_sub(1) / 2;
        let count = pairs.div_ceil(BLOCK_PAIRS).clamp(1, MAX_BLOCKS);
        self.blocks.resize_with(count, PairBlock::default);
        let (mut row, mut done) = (0, 0);
        for (k, block) in self.blocks.iter_mut().enumerate() {
            let start = row;
            while row < n && (k + 1 == count || done * count < (k + 1) * pairs) {
                done += n - 1 - row;
                row += 1;
            }
            block.rows = start..row;
            for c in &mut block.acc {
                c.resize(n - start, 0.0);
            }
            for c in &mut block.own {
                c.resize(row - start, 0.0);
            }
        }
    }
}

/// One block of rows and the partial accelerations its pairs sum to:
/// `acc` holds the `j` scatter onto particles `rows.start..n` of every row
/// of the block before `j` (f32), `own` each of the block's rows' staged
/// terms, folded (f64).
#[derive(Default)]
struct PairBlock {
    rows: Range<usize>,
    acc: [Vec<f32>; 3],
    own: [Vec<f64>; 3],
}

/// One row's `m_j·d/r³` terms (`j > i`), staged for the fixed-order fold.
#[derive(Default)]
struct RowStage([Vec<f32>; 3]);

/// Accelerations (G = 1) of the set `src` on itself, written over `out`
/// (`out.len() == src.len()`), Plummer-softened by `eps2`: every
/// unordered pair is evaluated once, in f32, and summed in f64 (module
/// docs). Within the module's error budget of
/// `accelerations_direct(pos, src, …)`, and bitwise independent of
/// `max_threads` (0 = auto, see [`par::threads_for`]): the rows are cut
/// into blocks whose boundaries depend on `src.len()` alone, each block
/// sums into its own partial columns, and the partials are folded into
/// `out` in block order — sequential mode runs the same blocks, in
/// order, through the same partials.
// jc-lint: no-alloc
pub fn self_accelerations(
    src: &SoaBodies,
    eps2: f64,
    max_threads: usize,
    scratch: &mut PairScratch,
    out: &mut [[f64; 3]],
) {
    let n = src.len();
    assert_eq!(out.len(), n, "acc buffer length mismatch");
    scratch.mirror(src);
    scratch.plan(n);
    let threads = par::threads_for(scratch.blocks.len(), max_threads, 1);
    scratch.stages.resize_with(threads, RowStage::default);
    for stage in &mut scratch.stages {
        for c in &mut stage.0 {
            c.resize(n, 0.0);
        }
    }
    let (cols, eps2) = (&scratch.cols, eps2 as f32);
    par::chunked(
        threads,
        scratch.blocks.as_mut_slice(),
        &mut scratch.stages,
        (),
        |_, chunk: &mut [PairBlock], stage| {
            for block in chunk {
                pair_rows(cols, eps2, block, stage);
            }
        },
        |(), ()| (),
    );
    fold_blocks(&scratch.blocks, out);
}

/// Fold the blocks into `out` in f64: every row's own terms, then the
/// partial columns in block order.
fn fold_blocks(blocks: &[PairBlock], out: &mut [[f64; 3]]) {
    for block in blocks {
        let [ox, oy, oz] = &block.own;
        for (a, ((x, y), z)) in out[block.rows.clone()].iter_mut().zip(ox.iter().zip(oy).zip(oz)) {
            *a = [*x, *y, *z];
        }
    }
    for block in blocks {
        let [bx, by, bz] = &block.acc;
        for (a, ((x, y), z)) in out[block.rows.start..].iter_mut().zip(bx.iter().zip(by).zip(bz)) {
            a[0] += f64::from(*x);
            a[1] += f64::from(*y);
            a[2] += f64::from(*z);
        }
    }
}

crate::simd::dispatch! {
    /// Run one block of [`self_accelerations`] at the widest instruction
    /// set the CPU reports.
    fn pair_rows(cols: &[Vec<f32>; 4], eps2: f32, block: &mut PairBlock, stage: &mut RowStage)
        => pair_rows_portable, avx2: pair_rows_avx2;
}

/// The pair-symmetric body at whatever instruction set the caller was
/// compiled for.
#[inline(always)]
fn pair_rows_portable(
    cols: &[Vec<f32>; 4],
    eps2: f32,
    block: &mut PairBlock,
    stage: &mut RowStage,
) {
    if eps2 == 0.0 {
        pair_rows_body::<true>(cols, eps2, block, stage);
    } else {
        pair_rows_body::<false>(cols, eps2, block, stage);
    }
}

/// The pair-symmetric body over one block of rows, written over the
/// block's partial columns. Each row is two passes: an element-wise f32
/// pass over `j > i` that computes the pair's `1 / r³` once, subtracts
/// `m_i·d/r³` from the `j` columns and stages `m_j·d/r³`, then the
/// [`PAIR_LANES`]-wide fixed-order f64 fold of the stage into row `i`.
/// (A single pass accumulating `i` in lane registers vectorized only 2
/// wide in f64.) `GUARD` is the `eps2 == 0` instantiation: a pair coincident in
/// the f32 mirror gets `1 / r³ = 0`, so it contributes nothing either
/// way.
#[inline(always)]
fn pair_rows_body<const GUARD: bool>(
    cols: &[Vec<f32>; 4],
    eps2: f32,
    block: &mut PairBlock,
    stage: &mut RowStage,
) {
    let [x, y, z, m] = cols;
    let n = m.len();
    let (x, y, z) = (&x[..n], &y[..n], &z[..n]);
    let r0 = block.rows.start;
    let [ax, ay, az] = &mut block.acc;
    let [ox, oy, oz] = &mut block.own;
    let [sx, sy, sz] = &mut stage.0;
    for c in [&mut *ax, &mut *ay, &mut *az] {
        c.fill(0.0);
    }
    for i in block.rows.clone() {
        let (xi, yi, zi, mi) = (x[i], y[i], z[i], m[i]);
        let (lo, hi) = (i + 1, n);
        let len = hi - lo;
        let (xj, yj, zj, mj) = (&x[lo..hi], &y[lo..hi], &z[lo..hi], &m[lo..hi]);
        let (axj, ayj, azj) =
            (&mut ax[lo - r0..hi - r0], &mut ay[lo - r0..hi - r0], &mut az[lo - r0..hi - r0]);
        let (sxj, syj, szj) = (&mut sx[..len], &mut sy[..len], &mut sz[..len]);
        for k in 0..len {
            let (dx, dy, dz) = (xj[k] - xi, yj[k] - yi, zj[k] - zi);
            let r2s = dx * dx + dy * dy + dz * dz + eps2;
            let inv = if GUARD && r2s == 0.0 { 0.0 } else { 1.0 / (r2s * r2s.sqrt()) };
            let (fx, fy, fz) = (inv * dx, inv * dy, inv * dz);
            axj[k] -= mi * fx;
            ayj[k] -= mi * fy;
            azj[k] -= mi * fz;
            sxj[k] = mj[k] * fx;
            syj[k] = mj[k] * fy;
            szj[k] = mj[k] * fz;
        }
        let own = i - r0;
        (ox[own], oy[own], oz[own]) = (fold_lanes(sxj), fold_lanes(syj), fold_lanes(szj));
    }
}

/// Sum `v` in f64 with element `p` in lane `p % PAIR_LANES`, the lanes
/// reduced in a fixed order: lane `l` with lane `l + 4`, then
/// [`reduce_lanes`].
#[inline(always)]
fn fold_lanes(v: &[f32]) -> f64 {
    let mut lanes = [0.0f64; PAIR_LANES];
    let mut batches = v.chunks_exact(PAIR_LANES);
    for b in &mut batches {
        for l in 0..PAIR_LANES {
            lanes[l] += f64::from(b[l]);
        }
    }
    for (l, e) in batches.remainder().iter().enumerate() {
        lanes[l] += f64::from(*e);
    }
    reduce_lanes([
        lanes[0] + lanes[4],
        lanes[1] + lanes[5],
        lanes[2] + lanes[6],
        lanes[3] + lanes[7],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let mut x = seed.max(1);
        let mut rnd = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let pos: Vec<[f64; 3]> = (0..n).map(|_| [rnd(), rnd(), rnd()]).collect();
        let mass = (0..n).map(|_| rnd().abs() + 0.1).collect();
        (pos, mass)
    }

    fn mirror(pos: &[[f64; 3]], mass: &[f64]) -> SoaBodies {
        let mut src = SoaBodies::new();
        src.fill_from_positions(mass, pos);
        src
    }

    #[test]
    fn dispatched_matches_portable_bitwise() {
        // every source-count class: whole batches, 1–3 tail lanes, none
        let (tpos, _) = cloud(9, 4);
        for eps2 in [1e-4, 0.0] {
            for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 64, 97] {
                let (pos, mass) = cloud(n, 42);
                let src = mirror(&pos, &mass);
                let mut dispatched = vec![[f64::NAN; 3]; tpos.len()];
                let mut portable = vec![[f64::NAN; 3]; tpos.len()];
                accelerations_direct(&tpos, &src, eps2, &mut dispatched);
                accelerations_direct_portable(&tpos, &src, eps2, &mut portable);
                assert_eq!(dispatched, portable, "tier divergence at n={n}, eps2={eps2}");
            }
        }
    }

    #[test]
    fn unsoftened_target_on_a_source_skips_that_pair() {
        // target 0 sits on source 2: the other sources still pull on it
        let (pos, mass) = cloud(7, 5);
        let src = mirror(&pos, &mass);
        let mut on = [[0.0; 3]];
        accelerations_direct(&[pos[2]], &src, 0.0, &mut on);
        assert!(on[0].iter().all(|x| x.is_finite()), "{:?}", on[0]);
        let mut without = mass.clone();
        without[2] = 0.0;
        let mut off = [[0.0; 3]];
        accelerations_direct(&[pos[2]], &mirror(&pos, &without), 0.0, &mut off);
        assert_eq!(on, off);
    }

    /// [`self_accelerations`] through the dispatched body, sequentially.
    fn pair_sum(src: &SoaBodies, eps2: f64) -> Vec<[f64; 3]> {
        let mut out = vec![[f64::NAN; 3]; src.len()];
        self_accelerations(src, eps2, 1, &mut PairScratch::new(), &mut out);
        out
    }

    /// The same plan and fold, every block through the baseline
    /// instantiation of the body.
    fn pair_sum_portable(src: &SoaBodies, eps2: f64) -> Vec<[f64; 3]> {
        let mut scratch = PairScratch::new();
        scratch.mirror(src);
        scratch.plan(src.len());
        let mut stage = RowStage::default();
        for c in &mut stage.0 {
            c.resize(src.len(), 0.0);
        }
        for block in &mut scratch.blocks {
            pair_rows_portable(&scratch.cols, eps2 as f32, block, &mut stage);
        }
        let mut out = vec![[f64::NAN; 3]; src.len()];
        fold_blocks(&scratch.blocks, &mut out);
        out
    }

    /// The pair sum's error against the f64 [`accelerations_direct`]
    /// oracle: the largest and the RMS per-target relative error, and the
    /// largest net-force component `|Σ m a|_k` over `Σ |m a|`.
    fn budget(pos: &[[f64; 3]], mass: &[f64], eps2: f64) -> (f64, f64, f64) {
        let src = mirror(pos, mass);
        let mut oracle = vec![[0.0; 3]; pos.len()];
        accelerations_direct(pos, &src, eps2, &mut oracle);
        let pairs = pair_sum(&src, eps2);
        let norm = |v: [f64; 3]| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        let (mut max, mut sq) = (0.0f64, 0.0f64);
        let (mut net, mut scale) = ([0.0f64; 3], 0.0f64);
        for ((a, o), m) in pairs.iter().zip(&oracle).zip(mass) {
            let rel = norm([a[0] - o[0], a[1] - o[1], a[2] - o[2]]) / norm(*o).max(1e-300);
            (max, sq) = (max.max(rel), sq + rel * rel);
            for k in 0..3 {
                net[k] += m * a[k];
                scale += (m * a[k]).abs();
            }
        }
        let rms = (sq / pos.len().max(1) as f64).sqrt();
        (max, rms, net.iter().fold(0.0f64, |w, c| w.max(c.abs())) / scale.max(1e-300))
    }

    /// The budget of [`self_accelerations`] (module docs).
    fn assert_within_budget(pos: &[[f64; 3]], mass: &[f64], eps2: f64, what: &str) {
        let (max, rms, net) = budget(pos, mass, eps2);
        assert!(max <= 1e-5 && rms <= 1e-6, "{what}: relative error max {max:e}, RMS {rms:e}");
        assert!(net <= 1e-6, "{what}: |Σ m a| / Σ|m a| = {net:e}");
    }

    /// `n` equal-mass gas particles drawn from a Plummer sphere of unit
    /// mass, its far tail clamped at r = 5 (the gas of the workloads).
    fn plummer(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let mut x = seed.max(1);
        let mut rnd = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64
        };
        let a = 3.0 * std::f64::consts::PI / 16.0;
        let pos = (0..n)
            .map(|_| {
                let r = (a / (rnd().powf(-2.0 / 3.0) - 1.0).sqrt()).min(5.0);
                let (cz, phi) = (2.0 * rnd() - 1.0, 2.0 * std::f64::consts::PI * rnd());
                let s = (1.0 - cz * cz).sqrt();
                [r * s * phi.cos(), r * s * phi.sin(), r * cz]
            })
            .collect();
        (pos, vec![1.0 / n as f64; n])
    }

    /// Sizes of every class: empty, 1–3 tail lanes, whole batches, and
    /// one past the single-block size (3 blocks).
    const PAIR_SIZES: [usize; 14] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 97, 181, 300];

    #[test]
    fn pair_sum_dispatched_matches_portable_bitwise() {
        let blocks = |n| {
            let mut probe = PairScratch::new();
            probe.plan(n);
            probe.blocks.len()
        };
        assert_eq!((blocks(181), blocks(300)), (1, 3), "sizes straddle the block grain");
        for eps2 in [1e-4, 0.0] {
            for n in PAIR_SIZES {
                let (pos, mass) = cloud(n, 42);
                let src = mirror(&pos, &mass);
                let portable = pair_sum_portable(&src, eps2);
                assert_eq!(pair_sum(&src, eps2), portable, "n={n}, eps2={eps2}");
            }
        }
    }

    #[test]
    fn pair_sum_matches_the_directed_sum() {
        for eps2 in [1e-4, 0.0] {
            for n in PAIR_SIZES {
                let (pos, mass) = cloud(n, 7);
                assert_within_budget(&pos, &mass, eps2, &format!("n={n}, eps2={eps2}"));
            }
        }
    }

    #[test]
    fn pair_sum_is_within_budget_on_plummer_gas() {
        // the chatty and session sizes, the benchmark's 512 gas, and 2048
        // (16 blocks, the longest f32 partial columns)
        for n in [16usize, 24, 512, 2048] {
            let (pos, mass) = plummer(n, 3);
            assert_within_budget(&pos, &mass, 0.05 * 0.05, &format!("n={n}"));
        }
    }

    #[test]
    fn pair_sum_conserves_momentum() {
        for n in [2usize, 9, 97, 300] {
            let (pos, mass) = cloud(n, 11);
            let (_, _, net) = budget(&pos, &mass, 1e-4);
            assert!(net <= 1e-6, "n={n}: |Σ m a| / Σ|m a| = {net:e}");
        }
    }

    #[test]
    fn unsoftened_coincident_pair_is_skipped_both_ways() {
        // particle 5 sits on particle 2: each still feels every other one
        let (mut pos, mass) = cloud(9, 5);
        pos[5] = pos[2];
        let acc = pair_sum(&mirror(&pos, &mass), 0.0);
        assert!(acc.iter().flatten().all(|x| x.is_finite()), "{acc:?}");
        assert_within_budget(&pos, &mass, 0.0, "coincident pair");
        // the pair pulls on neither: the two coincident particles feel
        // the same field
        for (a2, a5) in acc[2].iter().zip(&acc[5]) {
            assert!((a2 - a5).abs() <= 1e-5 * a2.abs().max(a5.abs()), "{a2} vs {a5}");
        }
    }

    #[test]
    fn blocks_cover_the_rows_balanced_by_pairs() {
        let mut scratch = PairScratch::new();
        for n in [0usize, 1, 2, 181, 182, 300, 512, 4095] {
            scratch.plan(n);
            let (blocks, count) = (&scratch.blocks, scratch.blocks.len());
            assert_eq!(blocks[0].rows.start, 0);
            assert_eq!(blocks[count - 1].rows.end, n);
            assert!(blocks.windows(2).all(|w| w[0].rows.end == w[1].rows.start));
            let pairs = |b: &PairBlock| b.rows.clone().map(|i| n - 1 - i).sum::<usize>();
            let per_block = (n * n.saturating_sub(1) / 2).div_ceil(count);
            for b in blocks {
                assert!(!b.rows.is_empty() || n == 0, "n={n}: empty block {:?}", b.rows);
                assert!(pairs(b) <= per_block + n, "n={n}: block {:?} is lopsided", b.rows);
                assert_eq!(b.acc[0].len(), n - b.rows.start);
            }
        }
        scratch.plan(512);
        assert_eq!(scratch.blocks.len(), 8);
        scratch.plan(4095);
        assert_eq!(scratch.blocks.len(), MAX_BLOCKS);
    }
}
