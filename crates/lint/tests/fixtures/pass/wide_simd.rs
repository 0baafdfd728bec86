//! Pass fixture: one portable body, instantiated for the baseline and
//! for AVX2 by the dispatch macro, plus the 128-bit intrinsics that stay
//! allowed. No findings.

/// The one body.
#[inline(always)]
fn sum4_body(a: &[f64; 4], b: &[f64; 4]) -> [f64; 4] {
    std::array::from_fn(|l| a[l] + b[l])
}

jc_compute::simd::dispatch! {
    /// `sum4_body` at the widest tier the CPU has.
    fn sum4(a: &[f64; 4], b: &[f64; 4]) -> [f64; 4] => sum4_body, avx2: sum4_avx2;
}

/// A 128-bit prefetch.
fn warm(p: *const f64) {
    unsafe { std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast()) };
}
