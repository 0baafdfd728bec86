//! `wide-simd`: no hand-written 256- or 512-bit x86 intrinsics, and no
//! hand-picked AVX2-or-wider tier, in a crate's sources.
//!
//! Every SIMD kernel is one portable body, compiled once for the
//! baseline and once under `#[target_feature]`, so its bits are the same
//! on every CPU by construction. A hand-written `_mm<width>_*` clone
//! beside such a body is a second implementation that has to be kept
//! bitwise in step by hand, behind an `unsafe` block. This lint reports
//! every identifier of the 256- and 512-bit intrinsic families under
//! `crates/<name>/src` ([`in_scope`]). The 128-bit `_mm_*` family stays
//! allowed: the checkpoint CRC's carry-less multiply and the tree walk's
//! prefetch have no portable spelling.
//!
//! Which instantiation runs is decided in one module, [`SIMD_PATH`]
//! (`jc_compute::simd`): its `dispatch!` macro holds the one runtime
//! feature check and the one `#[target_feature]` attribute of the AVX2
//! tier, so a new tier is one arm there. Anywhere else in scope, an
//! `is_x86_feature_detected!` or a `target_feature(...)` attribute that
//! names `avx2` or a wider tier (`avx512*`, `avx10*`) is a hand-written
//! dispatcher and is reported. Narrower features stay allowed (the CRC's
//! `pclmulqdq,sse4.1`), and so does `cfg(target_feature = ...)`, which
//! selects at compile time and dispatches nothing. A deliberate use
//! carries a line waiver `// jc-lint: allow(wide-simd): <reason>`.

use crate::lexer::Kind;
use crate::{Diagnostic, SourceFile};

const LINT: &str = "wide-simd";

/// Register widths, in bits, whose intrinsic families are refused.
const WIDE: [&str; 2] = ["256", "512"];

/// Is this file a crate's source (`crates/<name>/src/…`)?
pub fn in_scope(path: &str) -> bool {
    let rest = path.strip_prefix("crates/").and_then(|p| p.split_once('/'));
    rest.is_some_and(|(_, inner)| inner.starts_with("src/"))
}

/// The one file that may pick an AVX2-or-wider tier at runtime.
pub const SIMD_PATH: &str = "crates/compute/src/simd.rs";

/// Check one in-scope file: one finding per line that names a wide
/// intrinsic or picks an AVX2-or-wider tier outside [`SIMD_PATH`].
pub fn check(f: &SourceFile) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let code = f.code();
    for (k, &ti) in code.iter().enumerate() {
        let t = &f.tokens[ti];
        if t.kind != Kind::Ident {
            continue;
        }
        let message = if is_wide(&t.text) {
            format!(
                "`{}` is a hand-written wide intrinsic — write the kernel as one portable \
                 body and instantiate it under `#[target_feature]`",
                t.text
            )
        } else if let Some(feature) = tier_picked(f, &code, k).filter(|_| f.path != SIMD_PATH) {
            format!(
                "`{}` picks the `{feature}` tier by hand — instantiate the portable body with \
                 `jc_compute::simd::dispatch!`, the one place that picks a tier",
                t.text
            )
        } else {
            continue;
        };
        if f.waived(t.line, LINT) || diags.last().is_some_and(|d| d.line == t.line) {
            continue;
        }
        diags.push(Diagnostic { path: f.path.clone(), line: t.line, lint: LINT, message });
    }
    diags
}

/// If `code[k]` opens a runtime feature check (`is_x86_feature_detected!(…)`)
/// or a `target_feature(…)` attribute, the first AVX2-or-wider feature
/// its string arguments name.
fn tier_picked(f: &SourceFile, code: &[usize], k: usize) -> Option<String> {
    let tok = |i: usize| code.get(i).map(|&ti| &f.tokens[ti]);
    let open = match f.tokens[code[k]].text.as_str() {
        "is_x86_feature_detected" if tok(k + 1)?.is_punct('!') => k + 2,
        "target_feature" => k + 1,
        _ => return None,
    };
    if !tok(open)?.is_punct('(') {
        return None;
    }
    let mut depth = 0i32;
    for i in open.. {
        let t = tok(i)?;
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return None;
            }
        } else if t.kind == Kind::Str {
            let wide = t.text.split(',').map(str::trim).find(|feat| is_wide_tier(feat));
            if let Some(feat) = wide {
                return Some(feat.to_string());
            }
        }
    }
    None
}

/// Is `feature` AVX2 or a wider x86 tier?
fn is_wide_tier(feature: &str) -> bool {
    feature == "avx2" || feature.starts_with("avx512") || feature.starts_with("avx10")
}

/// Is `ident` an intrinsic of a refused width (`_mm` + width + `_…`)?
fn is_wide(ident: &str) -> bool {
    let width = ident.strip_prefix("_mm").and_then(|r| r.split_once('_'));
    width.is_some_and(|(w, _)| WIDE.contains(&w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_wide_families_are_refused() {
        for w in WIDE {
            assert!(is_wide(&format!("_mm{w}_add_pd")), "{w}");
        }
        for ok in ["_mm_prefetch", "_mm_clmulepi64_si128", "_MM_HINT_T0", "mm256", "_mmx"] {
            assert!(!is_wide(ok), "{ok}");
        }
    }

    #[test]
    fn avx2_and_wider_tiers_are_refused() {
        for t in ["avx2", "avx512f", "avx512vl", "avx10.1"] {
            assert!(is_wide_tier(t), "{t}");
        }
        for ok in ["avx", "fma", "sse4.1", "pclmulqdq", "sse2"] {
            assert!(!is_wide_tier(ok), "{ok}");
        }
    }

    #[test]
    fn scope_is_crate_sources() {
        assert!(in_scope("crates/nbody/src/kernels.rs"));
        assert!(in_scope("crates/bench/src/bin/perfsuite.rs"));
        assert!(!in_scope("crates/nbody/tests/golden.rs"));
        assert!(!in_scope("src/lib.rs"));
        assert!(!in_scope("shims/x/src/lib.rs"));
    }
}
