//! `env-registry`: one table of truth for `JC_*` environment knobs.
//!
//! Environment variables are invisible API: a `std::env::var("JC_…")`
//! buried in a kernel changes behavior with no type to grep for. This
//! lint closes the loop in both directions: every `JC_*` read anywhere
//! in the workspace (shims included) must have an entry in the
//! [`REGISTRY_PATH`] table (`jc_core::envreg`), every registered entry
//! must actually be read somewhere (no dead knobs), carry a non-empty
//! description, be unique — and be documented in the README, so the
//! registry cannot drift ahead of the user-facing docs.

use crate::lexer::Kind;
use crate::{Diagnostic, SourceFile};

const LINT: &str = "env-registry";

/// Where the registry table lives.
pub const REGISTRY_PATH: &str = "crates/core/src/envreg.rs";

/// One `("JC_*", "description")` entry.
struct Entry {
    name: String,
    desc: String,
    line: u32,
}

/// One `env::var("JC_*")` read site.
struct Read {
    path: String,
    line: u32,
    name: String,
}

/// Check all `files` against the registry and the README text.
pub fn check(files: &[SourceFile], registry: Option<&SourceFile>, readme: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let reads: Vec<Read> =
        files.iter().filter(|f| f.path != REGISTRY_PATH).flat_map(reads_in).collect();

    let entries = match registry {
        Some(r) => entries_in(r, &mut diags),
        None => {
            if let Some(r) = reads.first() {
                diags.push(Diagnostic {
                    path: r.path.clone(),
                    line: r.line,
                    lint: LINT,
                    message: format!(
                        "`{}` is read but `{REGISTRY_PATH}` does not exist — create the \
                         registry table",
                        r.name
                    ),
                });
            }
            return diags;
        }
    };

    for r in &reads {
        if !entries.iter().any(|e| e.name == r.name) {
            diags.push(Diagnostic {
                path: r.path.clone(),
                line: r.line,
                lint: LINT,
                message: format!(
                    "`{}` is read here but not registered in `{REGISTRY_PATH}` — add an entry \
                     (name, one-line description) and document it in README.md",
                    r.name
                ),
            });
        }
    }
    for e in &entries {
        if !reads.iter().any(|r| r.name == e.name) {
            diags.push(Diagnostic {
                path: REGISTRY_PATH.into(),
                line: e.line,
                lint: LINT,
                message: format!(
                    "registered env var `{}` is never read — dead knob, drop it",
                    e.name
                ),
            });
        }
        if e.desc.trim().is_empty() {
            diags.push(Diagnostic {
                path: REGISTRY_PATH.into(),
                line: e.line,
                lint: LINT,
                message: format!("registered env var `{}` has an empty description", e.name),
            });
        }
        if !readme.contains(&e.name) {
            diags.push(Diagnostic {
                path: REGISTRY_PATH.into(),
                line: e.line,
                lint: LINT,
                message: format!(
                    "registered env var `{}` is not documented in README.md — users cannot \
                     discover it",
                    e.name
                ),
            });
        }
    }
    diags
}

/// `env::var("JC_*")` / `env::var_os("JC_*")` reads in one file.
fn reads_in(f: &SourceFile) -> Vec<Read> {
    let code = f.code();
    let mut out = Vec::new();
    for w in code.windows(3) {
        let (a, b, c) = (&f.tokens[w[0]], &f.tokens[w[1]], &f.tokens[w[2]]);
        if (a.is_ident("var") || a.is_ident("var_os"))
            && b.is_punct('(')
            && c.kind == Kind::Str
            && c.text.starts_with("JC_")
        {
            out.push(Read { path: f.path.clone(), line: c.line, name: c.text.clone() });
        }
    }
    out
}

/// `("JC_*", "description")` tuples in the registry source, with
/// duplicate entries reported directly into `diags`.
fn entries_in(r: &SourceFile, diags: &mut Vec<Diagnostic>) -> Vec<Entry> {
    let code = r.code();
    let mut out: Vec<Entry> = Vec::new();
    for w in code.windows(6) {
        let t = |i: usize| &r.tokens[w[i]];
        // `("JC_X", "desc")`, with or without a trailing comma.
        if t(0).is_punct('(')
            && t(1).kind == Kind::Str
            && t(1).text.starts_with("JC_")
            && t(2).is_punct(',')
            && t(3).kind == Kind::Str
            && (t(4).is_punct(')') || (t(4).is_punct(',') && t(5).is_punct(')')))
        {
            if out.iter().any(|e| e.name == t(1).text) {
                diags.push(Diagnostic {
                    path: REGISTRY_PATH.into(),
                    line: t(1).line,
                    lint: LINT,
                    message: format!("duplicate registry entry for `{}`", t(1).text),
                });
                continue;
            }
            out.push(Entry { name: t(1).text.clone(), desc: t(3).text.clone(), line: t(1).line });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(src: &str) -> SourceFile {
        SourceFile::parse(REGISTRY_PATH, src)
    }

    #[test]
    fn unregistered_read_is_flagged_at_the_read_site() {
        let code =
            SourceFile::parse("crates/x/src/lib.rs", "let v = std::env::var(\"JC_SECRET\");\n");
        let registry =
            reg("pub const JC_ENV: &[(&str, &str)] = &[(\"JC_THREADS\", \"threads\")];\n");
        let d = check(
            &[
                SourceFile::parse(
                    "crates/y/src/lib.rs",
                    "fn t() { let _ = std::env::var(\"JC_THREADS\"); }\n",
                ),
                code,
            ],
            Some(&registry),
            "JC_THREADS docs",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("JC_SECRET"));
        assert_eq!(d[0].path, "crates/x/src/lib.rs");
    }

    #[test]
    fn dead_and_undocumented_entries_are_flagged() {
        let registry = reg("pub const JC_ENV: &[(&str, &str)] = &[\n\
                 (\"JC_THREADS\", \"threads\"),\n\
                 (\"JC_DEAD\", \"never read\"),\n\
             ];\n");
        let user = SourceFile::parse(
            "crates/y/src/lib.rs",
            "fn t() { let _ = std::env::var(\"JC_THREADS\"); }\n",
        );
        // JC_THREADS missing from the README, JC_DEAD never read (and
        // not documented either): three findings.
        let d = check(&[user], Some(&registry), "no vars documented");
        assert_eq!(d.len(), 3, "{d:?}");
    }

    #[test]
    fn clean_registry_is_quiet() {
        let registry =
            reg("pub const JC_ENV: &[(&str, &str)] = &[(\"JC_THREADS\", \"threads\")];\n");
        let user = SourceFile::parse(
            "crates/compute/src/par.rs",
            "fn t() { let _ = std::env::var(\"JC_THREADS\"); }\n",
        );
        let d = check(&[user], Some(&registry), "Set JC_THREADS to pin workers.");
        assert!(d.is_empty(), "{d:?}");
    }
}
