//! Fail fixture: hand-written tier dispatch outside `jc_compute::simd`.
//! Expected findings: line 8 (an AVX2 feature check), line 14 (an AVX2
//! `target_feature` attribute), line 19 (an AVX-512 tier among other
//! features), line 23 (a path-qualified AVX-512 check). The CRC-style
//! checks on lines 25-26, the compile-time `cfg` on line 29 and the
//! waived line 32 are quiet.
fn sum(a: &[f64]) -> f64 {
    if std::arch::is_x86_feature_detected!("avx2") {
        return unsafe { sum_avx2(a) };
    }
    a.iter().sum()
}

#[target_feature(enable = "avx2")]
fn sum_avx2(a: &[f64]) -> f64 {
    a.iter().sum()
}

#[target_feature(enable = "fma,avx512f")]
fn sum_avx512(a: &[f64]) -> f64 {
    a.iter().sum()
}
const WIDE: bool = ::std::arch::is_x86_feature_detected!("avx512vl");

const CRC: bool = std::arch::is_x86_feature_detected!("pclmulqdq")
    && std::arch::is_x86_feature_detected!("sse4.1");

/// Compile-time selection dispatches nothing.
#[cfg(target_feature = "avx2")]
const BUILT_WIDE: bool = true;
// jc-lint: allow(wide-simd): fixture for the waiver itself
const WAIVED: bool = is_x86_feature_detected!("avx2");
