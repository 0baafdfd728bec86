//! Pass fixture: one portable body, instantiated for the baseline and
//! under an AVX2 wrapper, plus the 128-bit intrinsics that stay
//! allowed. No findings.

/// The one body.
#[inline(always)]
fn sum4_body(a: &[f64; 4], b: &[f64; 4]) -> [f64; 4] {
    std::array::from_fn(|l| a[l] + b[l])
}

#[target_feature(enable = "avx2")]
fn sum4_avx2(a: &[f64; 4], b: &[f64; 4]) -> [f64; 4] {
    sum4_body(a, b)
}

/// A 128-bit prefetch.
fn warm(p: *const f64) {
    unsafe { std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast()) };
}
