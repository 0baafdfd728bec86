//! Fail fixture: a hand-written AVX2 clone beside a portable body.
//! Expected findings: line 9 (its hand-picked tier), line 11 (a 256-bit
//! load), line 12 (a 256-bit packed add, twice on the line: one finding),
//! line 18 (a 512-bit type conversion). The prefetch on line 13 and the
//! waived line 20 are quiet.

use std::arch::x86_64::*;

#[target_feature(enable = "avx2")]
unsafe fn sum4(a: &[f64; 4], b: &[f64; 4], out: &mut [f64; 4]) {
    let va = _mm256_loadu_pd(a.as_ptr());
    let vb = _mm256_add_pd(_mm256_loadu_pd(b.as_ptr()), va);
    _mm_prefetch::<_MM_HINT_T0>(a.as_ptr().cast());
    let _ = vb;
    out.copy_from_slice(a);
}

fn wide(x: __m512d) -> __m256d { unsafe { _mm512_castpd512_pd256(x) } }
// jc-lint: allow(wide-simd): fixture for the waiver itself
fn waived(x: __m256d) -> __m256d { unsafe { _mm256_sqrt_pd(x) } }
