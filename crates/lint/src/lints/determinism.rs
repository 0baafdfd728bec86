//! `determinism`: bitwise-replay protection for the kernel and
//! checkpoint crates.
//!
//! Shard failover replays a checkpoint and asserts the rerun is
//! *bitwise identical* (`tests/transport_contract.rs`), and the SoA
//! kernels promise run-to-run stable reductions. Two things silently
//! break that class of guarantee: hash-seeded iteration order (`HashMap` /
//! `HashSet` — `RandomState` differs per process, so any iteration, or
//! any float accumulation driven by one, diverges between original and
//! replay) and wall-clock-derived values (`SystemTime` / `Instant`)
//! leaking into state. This lint forbids those identifiers outright in
//! the replay-critical scope ([`in_scope`]): the kernel crates
//! (`nbody`, `sph`, `treegrav`, `compute`) and the
//! checkpoint/shard/chaos layers of `jc_amuse` (a fault plan must be a
//! pure function of its seed, or a failing soak seed stops
//! reproducing). `#[cfg(test)]` modules are exempt (tests may
//! time things); a deliberate use carries a file waiver
//! `// jc-lint: allow-file(determinism): <reason>`.

use crate::lexer::Kind;
use crate::{match_brace, Diagnostic, SourceFile};

const LINT: &str = "determinism";

/// Identifiers that undermine bitwise replay, with the reason each is
/// banned.
const BANNED: &[(&str, &str)] = &[
    ("HashMap", "hash-seeded iteration order diverges between a run and its replay"),
    ("HashSet", "hash-seeded iteration order diverges between a run and its replay"),
    ("SystemTime", "wall-clock values differ between a run and its replay"),
    ("Instant", "wall-clock values differ between a run and its replay"),
];

/// Is this file in the replay-critical scope?
pub fn in_scope(path: &str) -> bool {
    const DIRS: &[&str] =
        &["crates/nbody/src/", "crates/sph/src/", "crates/treegrav/src/", "crates/compute/src/"];
    const FILES: &[&str] = &[
        "crates/amuse/src/chaos.rs",
        "crates/amuse/src/checkpoint.rs",
        "crates/amuse/src/shard.rs",
    ];
    DIRS.iter().any(|d| path.starts_with(d)) || FILES.contains(&path)
}

/// Check one in-scope file.
pub fn check(f: &SourceFile) -> Vec<Diagnostic> {
    if f.waived_file(LINT) {
        return Vec::new();
    }
    let mut diags = Vec::new();
    let code = f.code();
    let test_ranges = cfg_test_ranges(f, &code);
    for (k, &ti) in code.iter().enumerate() {
        let t = &f.tokens[ti];
        if t.kind != Kind::Ident {
            continue;
        }
        let Some((_, why)) = BANNED.iter().find(|(name, _)| *name == t.text) else { continue };
        if test_ranges.iter().any(|&(lo, hi)| k >= lo && k <= hi) || f.waived(t.line, LINT) {
            continue;
        }
        diags.push(Diagnostic {
            path: f.path.clone(),
            line: t.line,
            lint: LINT,
            message: format!(
                "`{}` in a replay-critical crate: {why}; use BTreeMap/BTreeSet or logical \
                 clocks, or waive with a reason",
                t.text
            ),
        });
    }
    diags
}

/// Index ranges (into `code`) of `#[cfg(test)] mod … { … }` bodies.
fn cfg_test_ranges(f: &SourceFile, code: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let t = |i: usize| &f.tokens[code[i]];
    for k in 0..code.len().saturating_sub(7) {
        let is_cfg_test = t(k).is_punct('#')
            && t(k + 1).is_punct('[')
            && t(k + 2).is_ident("cfg")
            && t(k + 3).is_punct('(')
            && t(k + 4).is_ident("test")
            && t(k + 5).is_punct(')')
            && t(k + 6).is_punct(']');
        if !is_cfg_test {
            continue;
        }
        // allow further attributes between the cfg and the mod
        let mut m = k + 7;
        while m < code.len() && t(m).is_punct('#') {
            let mut depth = 0i32;
            m += 1;
            while m < code.len() {
                if t(m).is_punct('[') {
                    depth += 1;
                } else if t(m).is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        m += 1;
                        break;
                    }
                }
                m += 1;
            }
        }
        if m + 2 < code.len() && t(m).is_ident("mod") && t(m + 2).is_punct('{') {
            out.push((m + 2, match_brace(f, code, m + 2)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&SourceFile::parse("crates/sph/src/x.rs", src))
    }

    #[test]
    fn hashmap_and_wall_clock_are_flagged() {
        let d = run("use std::collections::HashMap;\n\
             fn f() { let t = std::time::Instant::now(); }\n");
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!((d[0].line, d[1].line), (1, 2));
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let d = run("fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn timing() { let t0 = std::time::Instant::now(); let _ = t0; }\n\
             }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn file_waiver_with_reason_exempts_a_frozen_baseline() {
        let d =
            run("// jc-lint: allow-file(determinism): frozen legacy baseline, lookup-only map\n\
             use std::collections::HashMap;\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn scope_covers_kernels_and_checkpoint_layers_only() {
        assert!(in_scope("crates/nbody/src/kernels.rs"));
        assert!(in_scope("crates/amuse/src/shard.rs"));
        assert!(in_scope("crates/amuse/src/chaos.rs"));
        assert!(!in_scope("crates/amuse/src/socket.rs"));
        assert!(!in_scope("crates/deploy/src/monitor.rs"));
    }
}
