//! The acceleration-only direct-summation lane kernel.
//!
//! One target against every source, [`LANES`] sources at a time: the
//! sources sit in aligned `x/y/z/m` columns ([`SoaBodies`]), each lane
//! accumulates its own partial acceleration, and the lanes are folded
//! once per target in the fixed [`reduce_lanes`] order. There is exactly
//! one body: it is `#[inline(always)]` and instantiated once for the
//! baseline and once inside a thin `#[target_feature(enable = "avx2")]`
//! wrapper, so the compiler writes the wide code and both dispatch tiers
//! execute the same IEEE operation sequence — results are bitwise
//! identical on every machine by construction (Rust never contracts
//! `a * b + c` into a fused multiply-add). The loop is bound by the
//! divider (one packed `sqrt` and one packed `div` per [`LANES`] pairs),
//! which is why there is no AVX-512 tier: an `avx512f` instantiation of
//! this body ran at the AVX2 instantiation's rate to within 0.2 % when
//! the kernel was sized (PR 21 in CHANGES.md has the numbers).
//!
//! A source at zero distance contributes nothing. With softening
//! (`eps2 > 0`) that falls out of the arithmetic — the separation is
//! zero, the denominator is not — so the hot body carries no test; only
//! the `eps2 == 0` instantiation selects the pair away.

use crate::soa::{reduce_lanes, SoaBodies, LANES};

/// Accelerations (G = 1) on every target of one worker chunk due to all
/// of `src` (position and mass columns; velocities are not read),
/// written over `out` (`out.len() == targets.len()`). Plummer-softened
/// by `eps2`; sources are summed lane-by-lane in column order, so the
/// result for a target depends on the source set alone — not on which
/// chunk, thread or shard the target landed in.
// jc-lint: no-alloc
pub fn accelerations_direct(
    targets: &[[f64; 3]],
    src: &SoaBodies,
    eps2: f64,
    out: &mut [[f64; 3]],
) {
    assert_eq!(out.len(), targets.len(), "acc buffer length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the avx2 instantiation is only reached when the CPU
        // reports the feature at runtime.
        return unsafe { accelerations_direct_avx2(targets, src, eps2, out) };
    }
    accelerations_direct_portable(targets, src, eps2, out);
}

/// [`accelerations_direct_body`] compiled for AVX2.
// SAFETY: `#[target_feature(enable = "avx2")]` makes this fn unsafe to
// call; the only call site is gated on runtime detection of the
// feature. The body is safe code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accelerations_direct_avx2(
    targets: &[[f64; 3]],
    src: &SoaBodies,
    eps2: f64,
    out: &mut [[f64; 3]],
) {
    accelerations_direct_portable(targets, src, eps2, out);
}

/// The body at whatever instruction set the caller was compiled for —
/// the baseline fallback of [`accelerations_direct`], and what the
/// feature wrappers inline.
#[inline(always)]
fn accelerations_direct_portable(
    targets: &[[f64; 3]],
    src: &SoaBodies,
    eps2: f64,
    out: &mut [[f64; 3]],
) {
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
        *a = [reduce_lanes(axl), reduce_lanes(ayl), reduce_lanes(azl)];
    }
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
}
