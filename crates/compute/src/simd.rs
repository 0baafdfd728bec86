//! The one place that picks an instruction-set tier for a SIMD kernel.
//!
//! **The dispatch rule.** Every SoA kernel in the workspace is one
//! portable `#[inline(always)]` body, written over fixed-width lane
//! arrays with no intrinsics. [`dispatch!`] turns such a body into two
//! instantiations: the body itself at the baseline instruction set the
//! crate is compiled for (SSE2 on x86-64), and a copy compiled under
//! `#[target_feature(enable = "avx2")]`, where LLVM writes the same
//! lane arithmetic 4 f64 (8 f32) wide. The generated dispatcher checks
//! the CPU once per call and runs the widest instantiation it supports.
//! Both instantiations execute the same IEEE operation sequence — Rust
//! never contracts `a * b + c` into a fused multiply-add and there is no
//! fast-math — so a kernel's bits do not depend on which tier ran, on
//! any machine. Each kernel's unit tests compare its baseline
//! instantiation with the dispatched path bit for bit.
//!
//! This module holds the workspace's only AVX2 feature check, its only
//! AVX2 `#[target_feature]` attribute and the one audited `unsafe` call
//! between them; jc-lint's `wide-simd` pass refuses either spelling
//! anywhere else under `crates/*/src`. A new tier (an `avx512f`
//! instantiation, or a cap on the tier a run may use) is one more arm
//! here, not one more wrapper per kernel.

/// Define a kernel's runtime-dispatched entry point and its AVX2
/// instantiation from the kernel's signature and its portable
/// `#[inline(always)]` body (the module docs state the rule).
///
/// ```text
/// jc_compute::simd::dispatch! {
///     /// Docs and attributes of the entry point.
///     pub fn kernel(a: &[f64], out: &mut [f64]) -> u64
///         => kernel_body, avx2: kernel_avx2;
/// }
/// ```
///
/// defines `pub fn kernel(a, out) -> u64`, which runs `kernel_avx2` when
/// the CPU reports AVX2 and `kernel_body` otherwise, and the private
/// `kernel_avx2` (x86-64 only), which is `kernel_body` compiled for
/// AVX2. Both generated items live in the invoking module under the
/// names given, so a symbol in the built binary reads as the kernel it
/// belongs to. Every argument is a plain `name: Type` pair, passed on
/// by value to the body.
#[macro_export]
#[doc(hidden)]
macro_rules! __simd_dispatch {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            => $body:ident, avx2: $avx2:ident;
    ) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if ::std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the AVX2 instantiation's only contract is its
                // `#[target_feature]`, and the CPU has just reported AVX2.
                return unsafe { $avx2($($arg),*) };
            }
            $body($($arg),*)
        }

        #[doc = concat!("[`", stringify!($body), "`] compiled for AVX2.")]
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }
    };
}

#[doc(inline)]
pub use crate::__simd_dispatch as dispatch;
