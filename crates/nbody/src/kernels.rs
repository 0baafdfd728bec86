//! Force/jerk computation backends (the "multi-kernel" in multi-kernel).

use jc_compute::par;
use jc_compute::soa::{reduce_lanes, SoaBodies, LANES};
use std::cell::RefCell;
use std::hint::select_unpredictable;

/// Floating-point operations per pairwise force+jerk interaction, used by
/// the jungle performance model (counted from the inner loop below:
/// ~60 flops including the rsqrt).
pub const FLOPS_PER_PAIR: f64 = 60.0;

/// Which implementation computes the forces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Single-core reference loop: sources summed strictly in order. The
    /// SoA backends below are bound to it by tolerance-bounded property
    /// tests, not bitwise.
    Scalar,
    /// The CPU kernel every worker runs: thread-parallel over targets on
    /// the structure-of-arrays compute path — sources mirrored into
    /// aligned `x/y/z/m` columns ([`jc_compute::soa`]) and accumulated
    /// in [`LANES`]-wide lane arrays with a fixed pairwise reduction
    /// order. Bitwise run-to-run stable and independent of the
    /// worker-thread count and SIMD width, but equal to
    /// [`Backend::Scalar`] only to rounding (sources are summed
    /// lane-by-lane instead of strictly in order).
    CpuParallel,
    /// Same arithmetic as `CpuParallel` (bitwise); the jungle simulator
    /// charges its cost to a GPU device model instead of CPU cores.
    GpuModel,
    /// A second name for the path `CpuParallel` runs, kept from when the
    /// SoA kernel was opt-in.
    SimdSoa,
}

thread_local! {
    /// Reusable SoA mirror of the source set for the SoA backends
    /// (thread-local: the coupler may drive several models from
    /// different threads at once). Steady-state refills allocate
    /// nothing once capacity is warm.
    static SOA_SOURCES: RefCell<SoaBodies> = RefCell::new(SoaBodies::new());
}

/// Accelerations and jerks for all `targets` due to all `sources`
/// (which may be the same set; self-interaction is skipped by index when
/// `same_set` is true).
///
/// Returns `(acc, jerk)`. Allocating convenience wrapper over
/// [`acc_jerk_into`]; hot callers hold the output buffers across steps.
#[allow(clippy::too_many_arguments)]
pub fn acc_jerk(
    backend: Backend,
    t_pos: &[[f64; 3]],
    t_vel: &[[f64; 3]],
    s_mass: &[f64],
    s_pos: &[[f64; 3]],
    s_vel: &[[f64; 3]],
    eps2: f64,
    same_set: bool,
) -> (Vec<[f64; 3]>, Vec<[f64; 3]>) {
    let n = t_pos.len();
    let mut acc = vec![[0.0; 3]; n];
    let mut jerk = vec![[0.0; 3]; n];
    acc_jerk_into(backend, t_pos, t_vel, s_mass, s_pos, s_vel, eps2, same_set, &mut acc, &mut jerk);
    (acc, jerk)
}

/// Minimum targets per worker thread before the SoA backends fan out
/// to pool workers.
pub(crate) const PAR_GRAIN: usize = 64;

/// The targets of one force evaluation.
#[derive(Clone, Copy)]
pub(crate) enum Targets<'a> {
    /// Target `k` is `(pos[k], vel[k])`; with `same_set` it is also
    /// source `k` (the shape the public entry points take).
    Rows { pos: &'a [[f64; 3]], vel: &'a [[f64; 3]], same_set: bool },
    /// Target `k` is source `ids[k]`, read from the source set itself —
    /// the block integrator's active list, evaluated without a gather.
    Sources(&'a [u32]),
}

/// "Interacts with every source": the self index of a target that is
/// not a member of the source set. No source index reaches it.
const NO_SELF: usize = usize::MAX;

impl Targets<'_> {
    /// How many targets.
    fn len(&self) -> usize {
        match self {
            Targets::Rows { pos, .. } => pos.len(),
            Targets::Sources(ids) => ids.len(),
        }
    }

    /// Target `k`: the index of the source it must not interact with
    /// (itself, or [`NO_SELF`]), its position and its velocity.
    /// `source` reads one row of the source set. The self-interaction
    /// is keyed to the *source index*, never to `k`, so an index list
    /// in any order masks the right lane.
    #[inline(always)]
    fn get(
        &self,
        k: usize,
        source: impl Fn(usize) -> ([f64; 3], [f64; 3]),
    ) -> (usize, [f64; 3], [f64; 3]) {
        match *self {
            Targets::Rows { pos, vel, same_set } => {
                (if same_set { k } else { NO_SELF }, pos[k], vel[k])
            }
            Targets::Sources(ids) => {
                let i = ids[k] as usize;
                let (p, v) = source(i);
                (i, p, v)
            }
        }
    }
}

/// [`acc_jerk`] writing into caller-provided slices (`acc.len() ==
/// jerk.len() == t_pos.len()`, and the three source columns one length,
/// validated once per call for every backend) — the
/// zero-allocation steady-state path for [`Backend::Scalar`] and, once
/// their thread-local SoA mirror is warm, for the SoA backends (pooled
/// workers write each target's row in place).
///
/// Determinism: `Scalar` accumulates sequentially over sources within
/// each target. `CpuParallel`/`GpuModel`/`SimdSoa` run one body — bitwise
/// identical to each other, run-to-run and across worker counts — and
/// match `Scalar` only to rounding (lane-wise summation); see
/// [`Backend::CpuParallel`].
///
/// The worker cap is resolved here, per call (`JC_THREADS` is an
/// allocating environment read once the grain allows fanning out); an
/// integrator that makes many calls per request
/// ([`crate::PhiGrape::evolve_model`]) resolves it once and passes the
/// count down instead.
// jc-lint: no-alloc
#[allow(clippy::too_many_arguments)]
pub fn acc_jerk_into(
    backend: Backend,
    t_pos: &[[f64; 3]],
    t_vel: &[[f64; 3]],
    s_mass: &[f64],
    s_pos: &[[f64; 3]],
    s_vel: &[[f64; 3]],
    eps2: f64,
    same_set: bool,
    acc: &mut [[f64; 3]],
    jerk: &mut [[f64; 3]],
) {
    assert_eq!(s_pos.len(), s_mass.len(), "source column length mismatch");
    assert_eq!(s_vel.len(), s_mass.len(), "source column length mismatch");
    let targets = Targets::Rows { pos: t_pos, vel: t_vel, same_set };
    match backend {
        Backend::Scalar => acc_jerk_scalar(targets, s_mass, s_pos, s_vel, eps2, acc, jerk),
        Backend::CpuParallel | Backend::GpuModel | Backend::SimdSoa => SOA_SOURCES.with(|cell| {
            let mut soa = cell.borrow_mut();
            soa.fill_from(s_mass, s_pos, s_vel);
            acc_jerk_soa(targets, &soa, eps2, acc, jerk, 0);
        }),
    }
}

/// The [`Backend::Scalar`] kernel: each target sums its sources strictly
/// in order on the calling thread.
// jc-lint: no-alloc
pub(crate) fn acc_jerk_scalar(
    targets: Targets,
    s_mass: &[f64],
    s_pos: &[[f64; 3]],
    s_vel: &[[f64; 3]],
    eps2: f64,
    acc: &mut [[f64; 3]],
    jerk: &mut [[f64; 3]],
) {
    assert_eq!(acc.len(), targets.len(), "acc buffer length mismatch");
    assert_eq!(jerk.len(), targets.len(), "jerk buffer length mismatch");
    for (k, (a, j)) in acc.iter_mut().zip(jerk.iter_mut()).enumerate() {
        let (i, pi, vi) = targets.get(k, |i| (s_pos[i], s_vel[i]));
        *a = [0.0f64; 3];
        *j = [0.0f64; 3];
        for (jj, (&mj, (pj, vj))) in s_mass.iter().zip(s_pos.iter().zip(s_vel)).enumerate() {
            if jj == i {
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
}

/// The SoA kernel every other backend runs, over source columns the
/// caller already holds: chunked over targets on at most `max_threads`
/// workers (as in [`par::threads_for`]: 0 = resolve `JC_THREADS` / the
/// core count now).
// jc-lint: no-alloc
pub(crate) fn acc_jerk_soa(
    targets: Targets,
    src: &SoaBodies,
    eps2: f64,
    acc: &mut [[f64; 3]],
    jerk: &mut [[f64; 3]],
    max_threads: usize,
) {
    let n = targets.len();
    assert_eq!(acc.len(), n, "acc buffer length mismatch");
    assert_eq!(jerk.len(), n, "jerk buffer length mismatch");
    let workers = par::threads_for(n, max_threads, PAR_GRAIN);
    // jc-lint: allow(no-alloc): Vec of ZSTs — capacity math never touches the heap
    let mut units = vec![(); workers];
    par::chunked(
        workers,
        (acc, jerk),
        &mut units,
        (),
        |s0, (ac, jc), _| acc_jerk_simd_chunk(s0, targets, src, eps2, ac, jc),
        |(), ()| (),
    );
}

jc_compute::simd::dispatch! {
    /// One worker chunk of SoA targets, dispatched once per chunk to the
    /// widest available instruction set by the one rule of
    /// [`jc_compute::simd`]: the body ([`acc_jerk_simd_chunk_body`])
    /// instantiated for the baseline and for AVX2, with the same bits
    /// either way, so the golden vectors hold on any machine. (Baseline
    /// x86-64 caps the packed `sqrt`/`div` at 2 doubles; AVX2 runs them
    /// 4 wide.)
    fn acc_jerk_simd_chunk(
        s0: usize,
        targets: Targets,
        src: &SoaBodies,
        eps2: f64,
        ac: &mut [[f64; 3]],
        jc: &mut [[f64; 3]],
    ) => acc_jerk_simd_chunk_body, avx2: acc_jerk_simd_chunk_avx2;
}

/// The SoA inner loops: for each target in the chunk (targets
/// `s0..s0 + ac.len()` of the call), scan the source columns in batches
/// of [`LANES`], lane `l` of a batch accumulating source `o + l`; the
/// `< LANES` tail lands in lanes `0..tail`, and the accumulators are
/// reduced with [`reduce_lanes`] ([`reduce_target`]). A batch is
/// straight-line arithmetic on `[f64; LANES]` arrays, one array per
/// quantity, which the compiler turns into one packed operation per step
/// at the width of the instantiation. Every batch masks the
/// self-interaction the same way: a per-lane `select_unpredictable`
/// zeroes the mass and guards the divisor (so an unsoftened pair never
/// divides by zero). The select keeps the batch branch-free; a branch to
/// a masked variant only in the batch that holds the target, or a store
/// through a runtime lane index, loses the packed form (both measured
/// ≈ 2.5× slower at AVX2).
#[inline(always)]
fn acc_jerk_simd_chunk_body(
    s0: usize,
    targets: Targets,
    src: &SoaBodies,
    eps2: f64,
    ac: &mut [[f64; 3]],
    jc: &mut [[f64; 3]],
) {
    let (sx, sy, sz) = (src.pos.x.as_slice(), src.pos.y.as_slice(), src.pos.z.as_slice());
    let (svx, svy, svz) = (src.vel.x.as_slice(), src.vel.y.as_slice(), src.vel.z.as_slice());
    let sm = src.mass.as_slice();
    let n = sm.len();
    let batches = n / LANES;
    for (k, (a, j)) in ac.iter_mut().zip(jc.iter_mut()).enumerate() {
        let (i, [pix, piy, piz], [vix, viy, viz]) =
            targets.get(s0 + k, |i| ([sx[i], sy[i], sz[i]], [svx[i], svy[i], svz[i]]));
        let (mut axl, mut ayl, mut azl) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
        let (mut jxl, mut jyl, mut jzl) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
        for b in 0..batches {
            let o = b * LANES;
            let col = |c: &[f64]| -> [f64; LANES] { c[o..o + LANES].try_into().unwrap() };
            let (xs, ys, zs, ms) = (col(sx), col(sy), col(sz), col(sm));
            let (vxs, vys, vzs) = (col(svx), col(svy), col(svz));
            let dx = lanes(|l| xs[l] - pix);
            let dy = lanes(|l| ys[l] - piy);
            let dz = lanes(|l| zs[l] - piz);
            let dvx = lanes(|l| vxs[l] - vix);
            let dvy = lanes(|l| vys[l] - viy);
            let dvz = lanes(|l| vzs[l] - viz);
            let r2 = lanes(|l| dx[l] * dx[l] + dy[l] * dy[l] + dz[l] * dz[l] + eps2);
            let own = lanes(|l| o + l == i);
            let m = lanes(|l| select_unpredictable(own[l], 0.0, ms[l]));
            let r2g = lanes(|l| select_unpredictable(own[l], 1.0, r2[l]));
            let inv_r = lanes(|l| 1.0 / r2g[l].sqrt());
            let inv_r2 = lanes(|l| inv_r[l] * inv_r[l]);
            let inv_r3 = lanes(|l| inv_r2[l] * inv_r[l]);
            let rv = lanes(|l| dx[l] * dvx[l] + dy[l] * dvy[l] + dz[l] * dvz[l]);
            let alpha = lanes(|l| 3.0 * rv[l] * inv_r2[l]);
            let mir3 = lanes(|l| m[l] * inv_r3[l]);
            axl = lanes(|l| axl[l] + mir3[l] * dx[l]);
            ayl = lanes(|l| ayl[l] + mir3[l] * dy[l]);
            azl = lanes(|l| azl[l] + mir3[l] * dz[l]);
            jxl = lanes(|l| jxl[l] + mir3[l] * (dvx[l] - alpha[l] * dx[l]));
            jyl = lanes(|l| jyl[l] + mir3[l] * (dvy[l] - alpha[l] * dy[l]));
            jzl = lanes(|l| jzl[l] + mir3[l] * (dvz[l] - alpha[l] * dz[l]));
        }
        let o = batches * LANES;
        for jj in o..n {
            let l = jj - o;
            let dx = sx[jj] - pix;
            let dy = sy[jj] - piy;
            let dz = sz[jj] - piz;
            let dvx = svx[jj] - vix;
            let dvy = svy[jj] - viy;
            let dvz = svz[jj] - viz;
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let (m, r2g) = if jj == i { (0.0, 1.0) } else { (sm[jj], r2) };
            let inv_r = 1.0 / r2g.sqrt();
            let inv_r2 = inv_r * inv_r;
            let inv_r3 = inv_r2 * inv_r;
            let rv = dx * dvx + dy * dvy + dz * dvz;
            let alpha = 3.0 * rv * inv_r2;
            let mir3 = m * inv_r3;
            axl[l] += mir3 * dx;
            ayl[l] += mir3 * dy;
            azl[l] += mir3 * dz;
            jxl[l] += mir3 * (dvx - alpha * dx);
            jyl[l] += mir3 * (dvy - alpha * dy);
            jzl[l] += mir3 * (dvz - alpha * dz);
        }
        reduce_target(&[axl, ayl, azl, jxl, jyl, jzl], a, j);
    }
}

/// Fold one target's lane accumulators (`x/y/z` acceleration, then
/// `x/y/z` jerk) into its rows with [`reduce_lanes`]. Out of line on
/// purpose: inlined, the six reductions feed adjacent output stores,
/// LLVM's SLP vectorizer grows those stores' x/y pairs back through the
/// accumulators into the batch loop, and the loop then runs two
/// quantities per vector instead of [`LANES`] sources (≈ 2× slower at
/// AVX2). Behind the call the accumulators reach memory lane by lane.
#[inline(never)]
fn reduce_target(acc: &[[f64; LANES]; 6], a: &mut [f64; 3], j: &mut [f64; 3]) {
    let [ax, ay, az, jx, jy, jz] = acc.map(reduce_lanes);
    *a = [ax, ay, az];
    *j = [jx, jy, jz];
}

/// One value per lane: `f(l)` for every lane `l` of a batch.
#[inline(always)]
fn lanes<T>(f: impl FnMut(usize) -> T) -> [T; LANES] {
    std::array::from_fn(f)
}

/// Gravitational potential of each target due to the sources (for energy
/// diagnostics). G = 1. Allocating convenience wrapper over
/// [`potential_into`] with the [`Backend::CpuParallel`] backend.
pub fn potential(
    t_pos: &[[f64; 3]],
    s_mass: &[f64],
    s_pos: &[[f64; 3]],
    eps2: f64,
    same_set: bool,
) -> Vec<f64> {
    let mut phi = vec![0.0; t_pos.len()];
    potential_into(Backend::CpuParallel, t_pos, s_mass, s_pos, eps2, same_set, &mut phi);
    phi
}

/// Gravitational potential of each target written into `phi`
/// (`phi.len() == t_pos.len()`, and `s_pos` as long as `s_mass`, for
/// every backend). [`Backend::Scalar`] accumulates
/// sequentially over sources; every other backend uses the
/// [`LANES`]-wide lane accumulators with the fixed [`reduce_lanes`]
/// order (bitwise identical to each other, any worker count).
// jc-lint: no-alloc
pub fn potential_into(
    backend: Backend,
    t_pos: &[[f64; 3]],
    s_mass: &[f64],
    s_pos: &[[f64; 3]],
    eps2: f64,
    same_set: bool,
    phi: &mut [f64],
) {
    let n = t_pos.len();
    assert_eq!(phi.len(), n, "phi buffer length mismatch");
    assert_eq!(s_pos.len(), s_mass.len(), "source column length mismatch");
    let one = |i: usize, out: &mut f64| {
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
        *out = phi;
    };
    match backend {
        Backend::Scalar => {
            for (i, out) in phi.iter_mut().enumerate() {
                one(i, out);
            }
        }
        Backend::CpuParallel | Backend::GpuModel | Backend::SimdSoa => SOA_SOURCES.with(|cell| {
            let mut soa = cell.borrow_mut();
            soa.fill_from_positions(s_mass, s_pos);
            let soa = &*soa;
            let workers = par::threads_for(n, 0, PAR_GRAIN);
            // jc-lint: allow(no-alloc): Vec of ZSTs — capacity math never touches the heap
            let mut units = vec![(); workers];
            par::chunked(
                workers,
                &mut *phi,
                &mut units,
                (),
                |s0, chunk: &mut [f64], _| {
                    potential_simd_chunk(s0, t_pos, soa, eps2, same_set, chunk);
                },
                |(), ()| (),
            );
        }),
    }
}

jc_compute::simd::dispatch! {
    /// One worker chunk of [`Backend::SimdSoa`] potential targets: the
    /// one body at the widest tier the CPU has ([`jc_compute::simd`]).
    fn potential_simd_chunk(
        s0: usize,
        t_pos: &[[f64; 3]],
        src: &SoaBodies,
        eps2: f64,
        same_set: bool,
        phi: &mut [f64],
    ) => potential_simd_chunk_body, avx2: potential_simd_chunk_avx2;
}

/// The [`LANES`]-wide potential sum over the SoA source columns,
/// reduced like [`acc_jerk_simd_chunk_body`]. The self-pair (mass 0,
/// divisor 1) is selected only in the one batch that holds it: a
/// per-lane select in every batch stops the compiler from vectorising
/// the loop.
#[inline(always)]
fn potential_simd_chunk_body(
    s0: usize,
    t_pos: &[[f64; 3]],
    src: &SoaBodies,
    eps2: f64,
    same_set: bool,
    phi: &mut [f64],
) {
    let n = src.len();
    let (sx, sy, sz) = (&src.pos.x[..n], &src.pos.y[..n], &src.pos.z[..n]);
    let sm = &src.mass[..n];
    let full = n - n % LANES;
    for (i, out) in (s0..).zip(phi.iter_mut()) {
        let [pix, piy, piz] = t_pos[i];
        let mut p = [0.0f64; LANES];
        macro_rules! lane {
            ($l:expr, $x:expr, $y:expr, $z:expr, $m:expr, $skip:expr) => {{
                let (dx, dy, dz) = ($x - pix, $y - piy, $z - piz);
                let r2 = dx * dx + dy * dy + dz * dz + eps2;
                let (m, r2g) = if $skip { (0.0, 1.0) } else { ($m, r2) };
                p[$l] -= m / r2g.sqrt();
            }};
        }
        let self_batch = if same_set { i / LANES } else { usize::MAX };
        let batches = sx[..full]
            .chunks_exact(LANES)
            .zip(sy[..full].chunks_exact(LANES))
            .zip(sz[..full].chunks_exact(LANES).zip(sm[..full].chunks_exact(LANES)));
        for (b, ((x, y), (z, m))) in batches.enumerate() {
            if b == self_batch {
                for l in 0..LANES {
                    lane!(l, x[l], y[l], z[l], m[l], b * LANES + l == i);
                }
            } else {
                for l in 0..LANES {
                    lane!(l, x[l], y[l], z[l], m[l], false);
                }
            }
        }
        for l in 0..n - full {
            lane!(
                l,
                sx[full + l],
                sy[full + l],
                sz[full + l],
                sm[full + l],
                same_set && full + l == i
            );
        }
        *out = reduce_lanes(p);
    }
}

/// Total flop count for one force evaluation of `n_targets` × `n_sources`.
pub fn eval_flops(n_targets: usize, n_sources: usize) -> f64 {
    n_targets as f64 * n_sources as f64 * FLOPS_PER_PAIR
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_body() -> (Vec<f64>, Vec<[f64; 3]>, Vec<[f64; 3]>) {
        (
            vec![1.0, 1.0],
            vec![[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]],
            vec![[0.0, -0.5, 0.0], [0.0, 0.5, 0.0]],
        )
    }

    #[test]
    fn two_body_acceleration_points_inwards() {
        let (m, p, v) = two_body();
        let (a, _) = acc_jerk(Backend::Scalar, &p, &v, &m, &p, &v, 0.0, true);
        // |a| = m / r^2 = 1 / 1 = 1
        assert!((a[0][0] - 1.0).abs() < 1e-12);
        assert!((a[1][0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn backends_agree_bitwise() {
        let mut m = Vec::new();
        let mut p = Vec::new();
        let mut v = Vec::new();
        // deterministic pseudo-random cloud
        let mut x = 1u64;
        let mut rnd = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for _ in 0..64 {
            m.push(1.0 / 64.0);
            p.push([rnd(), rnd(), rnd()]);
            v.push([rnd(), rnd(), rnd()]);
        }
        // one SoA body behind three names; `Scalar` is bound to it by
        // `simd_soa_matches_scalar_within_tolerance`
        let (a0, j0) = acc_jerk(Backend::CpuParallel, &p, &v, &m, &p, &v, 1e-4, true);
        let (a1, j1) = acc_jerk(Backend::GpuModel, &p, &v, &m, &p, &v, 1e-4, true);
        let (a2, j2) = acc_jerk(Backend::SimdSoa, &p, &v, &m, &p, &v, 1e-4, true);
        assert_eq!(a0, a1);
        assert_eq!(a0, a2);
        assert_eq!(j0, j1);
        assert_eq!(j0, j2);
    }

    fn lcg_cloud(n: usize, seed: u64) -> (Vec<f64>, Vec<[f64; 3]>, Vec<[f64; 3]>) {
        let mut x = seed.max(1);
        let mut rnd = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut m = Vec::new();
        let mut p = Vec::new();
        let mut v = Vec::new();
        for _ in 0..n {
            m.push(1.0 / n as f64);
            p.push([rnd(), rnd(), rnd()]);
            v.push([rnd(), rnd(), rnd()]);
        }
        (m, p, v)
    }

    fn assert_close(a: &[[f64; 3]], b: &[[f64; 3]], tol: f64, label: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            for k in 0..3 {
                let scale = y[k].abs().max(1.0);
                assert!(
                    (x[k] - y[k]).abs() <= tol * scale,
                    "{label}[{i}][{k}]: {} vs {}",
                    x[k],
                    y[k]
                );
            }
        }
    }

    #[test]
    fn simd_soa_matches_scalar_within_tolerance() {
        // odd N exercises the remainder lanes
        let (m, p, v) = lcg_cloud(157, 5);
        let (a0, j0) = acc_jerk(Backend::Scalar, &p, &v, &m, &p, &v, 1e-4, true);
        let (a1, j1) = acc_jerk(Backend::SimdSoa, &p, &v, &m, &p, &v, 1e-4, true);
        assert_close(&a1, &a0, 1e-12, "acc");
        assert_close(&j1, &j0, 1e-12, "jerk");
    }

    #[test]
    fn simd_soa_is_bitwise_stable_run_to_run() {
        let (m, p, v) = lcg_cloud(130, 9);
        let (a0, j0) = acc_jerk(Backend::SimdSoa, &p, &v, &m, &p, &v, 1e-4, true);
        let (a1, j1) = acc_jerk(Backend::SimdSoa, &p, &v, &m, &p, &v, 1e-4, true);
        assert_eq!(a0, a1, "SimdSoa acc not run-to-run stable");
        assert_eq!(j0, j1, "SimdSoa jerk not run-to-run stable");
    }

    #[test]
    fn simd_soa_cross_set_and_remainder_tail() {
        // 5 sources: one full batch + 1 remainder lane; cross-set (no
        // self skip)
        let (m, p, v) = lcg_cloud(5, 3);
        let (tm, tp, tv) = lcg_cloud(3, 8);
        let _ = tm;
        let (a0, j0) = acc_jerk(Backend::Scalar, &tp, &tv, &m, &p, &v, 1e-3, false);
        let (a1, j1) = acc_jerk(Backend::SimdSoa, &tp, &tv, &m, &p, &v, 1e-3, false);
        assert_close(&a1, &a0, 1e-13, "acc");
        assert_close(&j1, &j0, 1e-13, "jerk");
    }

    #[test]
    fn simd_soa_potential_matches_scalar() {
        let (m, p, _) = lcg_cloud(101, 11);
        let mut phi_scalar = vec![0.0; 101];
        let mut phi_simd = vec![f64::NAN; 101];
        potential_into(Backend::Scalar, &p, &m, &p, 1e-4, true, &mut phi_scalar);
        potential_into(Backend::SimdSoa, &p, &m, &p, 1e-4, true, &mut phi_simd);
        for (i, (a, b)) in phi_simd.iter().zip(&phi_scalar).enumerate() {
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "phi[{i}]: {a} vs {b}");
        }
        // the allocating wrapper matches the parallel backend bitwise
        let phi = potential(&p, &m, &p, 1e-4, true);
        let mut phi_cpu = vec![0.0; 101];
        potential_into(Backend::CpuParallel, &p, &m, &p, 1e-4, true, &mut phi_cpu);
        assert_eq!(phi, phi_cpu);
    }

    #[test]
    fn simd_portable_body_matches_dispatched_path_bitwise() {
        // the golden vectors must hold on machines without AVX2: the
        // portable fallback body and whatever the runtime dispatch
        // picked execute the identical IEEE operation sequence. Swept
        // over every batch shape — whole batches, 1–3 tail lanes, none —
        // so the self-pair of a same-set sum lands in every lane of a
        // full batch and of the tail; cross-set targets have none; and
        // the unsoftened self-pair must be masked, not divided by.
        let mut soa = SoaBodies::new();
        let (_, others, other_vel) = lcg_cloud(9, 4);
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 64, 97, 130] {
            let (m, p, v) = lcg_cloud(n, 21);
            soa.fill_from(&m, &p, &v);
            for (tp, tv, same_set) in [(&p, &v, true), (&others, &other_vel, false)] {
                for eps2 in [1e-4, 0.0] {
                    let case = format!("n={n}, same_set={same_set}, eps2={eps2}");
                    let (a0, j0) = acc_jerk(Backend::SimdSoa, tp, tv, &m, &p, &v, eps2, same_set);
                    let mut a1 = vec![[f64::NAN; 3]; tp.len()];
                    let mut j1 = vec![[f64::NAN; 3]; tp.len()];
                    let rows = Targets::Rows { pos: tp, vel: tv, same_set };
                    acc_jerk_simd_chunk_body(0, rows, &soa, eps2, &mut a1, &mut j1);
                    assert_eq!(a0, a1, "acc: {case}");
                    assert_eq!(j0, j1, "jerk: {case}");
                    // and the one body sums the right pairs
                    let (a2, j2) = acc_jerk(Backend::Scalar, tp, tv, &m, &p, &v, eps2, same_set);
                    assert_close(&a1, &a2, 1e-12, &format!("acc vs scalar: {case}"));
                    assert_close(&j1, &j2, 1e-12, &format!("jerk vs scalar: {case}"));
                }
            }
        }
        // potential, on the same shapes
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 64, 97, 130] {
            let (m, p, _) = lcg_cloud(n, 21);
            soa.fill_from_positions(&m, &p);
            for (targets, same_set) in [(&p, true), (&others, false)] {
                for eps2 in [1e-4, 0.0] {
                    let mut phi0 = vec![f64::NAN; targets.len()];
                    let mut phi1 = vec![f64::NAN; targets.len()];
                    potential_into(Backend::SimdSoa, targets, &m, &p, eps2, same_set, &mut phi0);
                    potential_simd_chunk_body(0, targets, &soa, eps2, same_set, &mut phi1);
                    assert_eq!(phi0, phi1, "phi: n={n}, same_set={same_set}, eps2={eps2}");
                }
            }
        }
    }

    #[test]
    fn index_list_targets_mask_by_source_index() {
        // a gathered, out-of-order target list on an *unsoftened* set:
        // the self-interaction is keyed to `ids[k]`, not to `k`, so no
        // target divides by its own zero separation and every row is
        // bitwise the row the full evaluation gives that star
        let (m, p, v) = lcg_cloud(13, 4);
        let ids = [11u32, 2, 12, 5, 0];
        let targets = Targets::Sources(&ids);
        let mut soa = SoaBodies::new();
        soa.fill_from(&m, &p, &v);
        let mut a1 = vec![[f64::NAN; 3]; ids.len()];
        let mut j1 = vec![[f64::NAN; 3]; ids.len()];
        for backend in [Backend::Scalar, Backend::CpuParallel] {
            let (a0, j0) = acc_jerk(backend, &p, &v, &m, &p, &v, 0.0, true);
            match backend {
                Backend::Scalar => acc_jerk_scalar(targets, &m, &p, &v, 0.0, &mut a1, &mut j1),
                _ => acc_jerk_soa(targets, &soa, 0.0, &mut a1, &mut j1, 1),
            }
            for (k, &i) in ids.iter().enumerate() {
                assert!(a1[k].iter().chain(&j1[k]).all(|x| x.is_finite()), "{backend:?} row {k}");
                assert_eq!(a1[k], a0[i as usize], "{backend:?} acc of star {i}");
                assert_eq!(j1[k], j0[i as usize], "{backend:?} jerk of star {i}");
            }
        }
        // the portable body and the dispatched clone agree on index lists too
        let mut a2 = vec![[0.0; 3]; ids.len()];
        let mut j2 = vec![[0.0; 3]; ids.len()];
        acc_jerk_simd_chunk_body(0, targets, &soa, 0.0, &mut a2, &mut j2);
        assert_eq!((a1, j1), (a2, j2));
    }

    #[test]
    fn simd_soa_handles_degenerate_inputs() {
        // coincident particles, zero mass, large coordinates
        let m = vec![1.0, 0.0, 1.0, 1.0, 2.0];
        let p = vec![
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0], // coincident with particle 0, but massless
            [1e12, -1e12, 1e12],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0], // coincident massive pair (softened)
        ];
        let v = vec![[0.0; 3]; 5];
        let (a0, j0) = acc_jerk(Backend::Scalar, &p, &v, &m, &p, &v, 1e-4, true);
        let (a1, j1) = acc_jerk(Backend::SimdSoa, &p, &v, &m, &p, &v, 1e-4, true);
        assert!(a1.iter().flatten().all(|x| x.is_finite()), "{a1:?}");
        assert_close(&a1, &a0, 1e-12, "acc");
        assert_close(&j1, &j0, 1e-12, "jerk");
    }

    // Ragged source columns are refused at entry by every backend; the
    // scalar loops would otherwise zip them down to the shortest.
    #[test]
    #[should_panic(expected = "source column length mismatch")]
    fn acc_jerk_rejects_ragged_source_columns() {
        let (m, p, v) = lcg_cloud(5, 2);
        acc_jerk(Backend::Scalar, &p, &v, &m, &p, &v[..4], 1e-4, false);
    }

    #[test]
    #[should_panic(expected = "source column length mismatch")]
    fn acc_jerk_into_rejects_ragged_source_columns() {
        let (m, p, v) = lcg_cloud(5, 2);
        let (mut a, mut j) = (vec![[0.0; 3]; 5], vec![[0.0; 3]; 5]);
        acc_jerk_into(Backend::Scalar, &p, &v, &m, &p[..4], &v, 1e-4, false, &mut a, &mut j);
    }

    #[test]
    #[should_panic(expected = "source column length mismatch")]
    fn potential_into_rejects_ragged_source_columns() {
        let (m, p, _) = lcg_cloud(5, 2);
        let mut phi = vec![0.0; 5];
        potential_into(Backend::Scalar, &p, &m[..4], &p, 1e-4, false, &mut phi);
    }

    #[test]
    fn potential_of_pair() {
        let (m, p, _) = two_body();
        let phi = potential(&p, &m, &p, 0.0, true);
        assert!((phi[0] + 1.0).abs() < 1e-12);
        // total potential energy = 0.5 * sum(m_i phi_i) = -1
        let e: f64 = 0.5 * phi.iter().zip(&m).map(|(f, mm)| f * mm).sum::<f64>();
        assert!((e + 1.0).abs() < 1e-12);
    }

    #[test]
    fn softening_caps_close_encounters() {
        let m = vec![1.0, 1.0];
        let p = vec![[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0]];
        let v = vec![[0.0; 3]; 2];
        let (a, _) = acc_jerk(Backend::Scalar, &p, &v, &m, &p, &v, 1e-4, true);
        assert!(a[0][0].abs() < 1e7, "softened: {}", a[0][0]);
    }

    #[test]
    fn cross_set_interaction_has_no_self_skip() {
        let m = vec![2.0];
        let sp = vec![[0.0, 0.0, 1.0]];
        let sv = vec![[0.0; 3]];
        let tp = vec![[0.0, 0.0, 0.0]];
        let tv = vec![[0.0; 3]];
        let (a, _) = acc_jerk(Backend::Scalar, &tp, &tv, &m, &sp, &sv, 0.0, false);
        assert!((a[0][2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flop_accounting() {
        assert_eq!(eval_flops(10, 20), 10.0 * 20.0 * FLOPS_PER_PAIR);
    }
}
