//! `wide-simd`: no hand-written 256- or 512-bit x86 intrinsics in a
//! crate's sources.
//!
//! Every SIMD kernel is one portable body, compiled once for the
//! baseline and once inside a `#[target_feature]` wrapper, so its bits
//! are the same on every CPU by construction and one more tier is one
//! more wrapper. A hand-written `_mm<width>_*` clone beside such a body
//! is a second implementation that has to be kept bitwise in step by
//! hand, behind an `unsafe` block. This lint reports every identifier of
//! the 256- and 512-bit intrinsic families under `crates/<name>/src`
//! ([`in_scope`]). The 128-bit `_mm_*` family stays allowed: the
//! checkpoint CRC's carry-less multiply and the tree walk's prefetch
//! have no portable spelling. A deliberate use carries a line waiver
//! `// jc-lint: allow(wide-simd): <reason>`.

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

/// Check one in-scope file: one finding per line that names a wide
/// intrinsic.
pub fn check(f: &SourceFile) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    for t in &f.tokens {
        if t.kind != Kind::Ident || !is_wide(&t.text) || f.waived(t.line, LINT) {
            continue;
        }
        if diags.last().is_some_and(|d| d.line == t.line) {
            continue;
        }
        diags.push(Diagnostic {
            path: f.path.clone(),
            line: t.line,
            lint: LINT,
            message: format!(
                "`{}` is a hand-written wide intrinsic — write the kernel as one portable \
                 body and instantiate it under `#[target_feature]`",
                t.text
            ),
        });
    }
    diags
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
    fn scope_is_crate_sources() {
        assert!(in_scope("crates/nbody/src/kernels.rs"));
        assert!(in_scope("crates/bench/src/bin/perfsuite.rs"));
        assert!(!in_scope("crates/nbody/tests/golden.rs"));
        assert!(!in_scope("src/lib.rs"));
        assert!(!in_scope("shims/x/src/lib.rs"));
    }
}
