//! Pass fixture: the feature checks and attributes that stay allowed
//! outside `jc_compute::simd` — the checkpoint CRC's narrower
//! `pclmulqdq,sse4.1` tier and a compile-time `cfg`. No findings.

fn crc(state: u32, bytes: &[u8]) -> u32 {
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: both features were just detected.
        return unsafe { crc_pclmul(state, bytes) };
    }
    state
}

/// # Safety
/// The caller must have detected both features.
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn crc_pclmul(state: u32, _bytes: &[u8]) -> u32 {
    state
}

#[cfg(target_feature = "avx2")]
const BUILT_WIDE: bool = true;
