//! # jc-lint — the workspace invariant checker
//!
//! The coupled multi-kernel system only works because every layer keeps
//! hard invariants: kernels are bitwise reproducible, the wire protocol
//! grows by additive opcodes, hot paths are allocation-free in steady
//! state. PRs 2–5 encoded those contracts in doc comments and runtime
//! tests; this crate turns them into *static*, file:line-reporting lints
//! that run before the test suite ever executes:
//!
//! | Lint | Contract |
//! |---|---|
//! | `unsafe-audit` | every `unsafe` block/fn/impl carries a `// SAFETY:` audit, and [`ledger`] keeps a reviewed inventory in `docs/UNSAFE_LEDGER.md` |
//! | `wire-exhaustiveness` | every opcode appears in `opcode_version`, the encode path, the decode path, and the `wire_size` model |
//! | `no-alloc` | functions tagged `// jc-lint: no-alloc` never call `Vec::new` / `vec!` / `clone` / `format!` / friends |
//! | `determinism` | kernel and checkpoint-replay crates never use `HashMap`/`HashSet` or wall-clock time |
//! | `env-registry` | every `std::env::var("JC_*")` read is registered in `jc_core::envreg` and documented in the README |
//! | `doc-refs` | every `BENCH_*.json`, back-ticked repo path and back-ticked crate path (`jc_<x>::…`) that README.md, docs/ARCHITECTURE.md or CHANGES.md's newest entry names exists |
//!
//! Like the offline shims, the tool is dependency-free: a small
//! hand-rolled lexer ([`lexer`]) over the workspace sources, plus one
//! pass per contract ([`lints`]). `cargo run -p jc-lint` from the
//! workspace root exits non-zero on any finding; CI runs it before
//! clippy. Intentional exceptions are spelled at the offending line as
//! `// jc-lint: allow(<lint>): <reason>` — the reason is mandatory, so
//! every waiver is a reviewed sentence, not a silent switch.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(unreachable_pub)]

pub mod ledger;
pub mod lexer;
pub mod lints;

use lexer::{lex, Kind, Token};
use std::path::{Path, PathBuf};

/// One lint finding, reported as `file:line: [lint] message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Lint name (`unsafe-audit`, `wire-exhaustiveness`, …).
    pub lint: &'static str,
    /// Human-readable finding.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.lint, self.message)
    }
}

/// A lexed source file.
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Raw source lines (for line-adjacency checks).
    pub lines: Vec<String>,
    /// Token stream from [`lexer::lex`].
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Lex `text` into a [`SourceFile`] under the given relative path.
    pub fn parse(path: impl Into<String>, text: &str) -> SourceFile {
        SourceFile {
            path: path.into(),
            lines: text.lines().map(str::to_string).collect(),
            tokens: lex(text),
        }
    }

    /// Load and lex a file from disk.
    pub fn load(root: &Path, rel: &str) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(root.join(rel))?;
        Ok(SourceFile::parse(rel, &text))
    }

    /// Indices of non-comment tokens, in order.
    pub fn code(&self) -> Vec<usize> {
        (0..self.tokens.len()).filter(|&i| self.tokens[i].kind != Kind::Comment).collect()
    }

    /// The trimmed text of line `line` (1-based), or `""` out of range.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines.get(line as usize - 1).map(|s| s.trim()).unwrap_or("")
    }

    /// Does `line` (or the line above it) carry the waiver marker
    /// `jc-lint: allow(<lint>)` in a plain `//` comment, followed by a
    /// non-empty reason? A bare marker without a reason does not count
    /// (waivers are reviewed sentences, not switches), and doc comments
    /// do not count (they *describe* markers; they don't apply them).
    pub fn waived(&self, line: u32, lint: &str) -> bool {
        let marker = format!("jc-lint: allow({lint})");
        for l in [line, line.saturating_sub(1)] {
            if l == 0 {
                continue;
            }
            if marker_reason(self.line_text(l), &marker) {
                return true;
            }
        }
        false
    }

    /// Does any plain `//` comment line in the file carry a file-scope
    /// waiver `jc-lint: allow-file(<lint>): <reason>`?
    pub fn waived_file(&self, lint: &str) -> bool {
        let marker = format!("jc-lint: allow-file({lint})");
        self.lines.iter().any(|l| marker_reason(l, &marker))
    }
}

/// Does `line` carry `marker` inside a plain (non-doc) `//` comment,
/// followed by a non-empty reason?
fn marker_reason(line: &str, marker: &str) -> bool {
    let Some(cpos) = line.find("//") else { return false };
    let comment = &line[cpos..];
    if comment.starts_with("///") || comment.starts_with("//!") {
        return false;
    }
    let Some(pos) = comment.find(marker) else { return false };
    let rest = comment[pos + marker.len()..].trim_start_matches([':', ' ', '—', '-']);
    !rest.trim().is_empty()
}

/// Scan a fn signature starting at `code[from]` (just past the `fn`
/// keyword or name) for the body's opening `{`. Returns its index in
/// `code`, or `None` for a bodyless declaration (trait method ending in
/// `;`). A `;` inside brackets — e.g. the array type `&[[f64; 3]]` —
/// does *not* terminate the signature.
pub fn body_open(file: &SourceFile, code: &[usize], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, &ti) in code.iter().enumerate().skip(from) {
        let t = &file.tokens[ti];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            return Some(k);
        } else if depth == 0 && t.is_punct(';') {
            return None;
        }
    }
    None
}

/// Given `code[at]` pointing at a `{` token, return the index *in
/// `code`* of the matching `}` (or the last token if unbalanced).
pub fn match_brace(file: &SourceFile, code: &[usize], at: usize) -> usize {
    let mut depth = 0i32;
    for (k, &ti) in code.iter().enumerate().skip(at) {
        let t = &file.tokens[ti];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Recursively collect workspace `.rs` files under `root`, relative
/// paths with forward slashes. Skips `target/`, VCS metadata, and the
/// lint fixture tree (whose fail cases must trip lints by design).
pub fn workspace_rs_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates", "shims", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
        .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let p = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(p);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = p.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

/// Run every lint over the workspace at `root`. Returns the sorted
/// findings; an empty vector is a clean bill.
pub fn run_all(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut files = Vec::new();
    for rel in workspace_rs_files(root) {
        match SourceFile::load(root, &rel) {
            Ok(f) => files.push(f),
            Err(e) => diags.push(Diagnostic {
                path: rel,
                line: 1,
                lint: "io",
                message: format!("unreadable: {e}"),
            }),
        }
    }

    let mut sites = Vec::new();
    for f in &files {
        diags.extend(lints::unsafe_audit::check(f, &mut sites));
        diags.extend(lints::no_alloc::check(f));
        if lints::determinism::in_scope(&f.path) {
            diags.extend(lints::determinism::check(f));
        }
    }

    // Wire exhaustiveness runs over the protocol module and its legs.
    let wire = files.iter().find(|f| f.path == lints::wire::WIRE_PATH);
    let worker = files.iter().find(|f| f.path == lints::wire::WORKER_PATH);
    match wire {
        Some(w) => diags.extend(lints::wire::check(w, worker, &files)),
        None => diags.push(Diagnostic {
            path: lints::wire::WIRE_PATH.into(),
            line: 1,
            lint: "wire-exhaustiveness",
            message: "protocol module not found — did it move? update jc-lint".into(),
        }),
    }

    // Env registry: reads across the whole tree vs the registry table
    // and the README documentation.
    let registry = files.iter().find(|f| f.path == lints::env_registry::REGISTRY_PATH);
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    diags.extend(lints::env_registry::check(&files, registry, &readme));

    // The docs name files that exist.
    for (doc, newest_only) in lints::doc_refs::DOCS {
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            let exists = |rel: &str| root.join(rel).exists();
            diags.extend(lints::doc_refs::check(doc, &text, newest_only, &exists));
        }
    }

    // The unsafe ledger must match the committed inventory.
    diags.extend(ledger::verify(root, &sites));

    diags.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_requires_a_reason() {
        let f = SourceFile::parse(
            "x.rs",
            "// jc-lint: allow(no-alloc)\nlet a = 1;\n// jc-lint: allow(no-alloc): ZST only\nlet b = 2;\n",
        );
        assert!(!f.waived(2, "no-alloc"), "bare marker must not waive");
        assert!(f.waived(4, "no-alloc"), "reasoned marker waives");
    }

    #[test]
    fn brace_matching_spans_nested_blocks() {
        let f = SourceFile::parse("x.rs", "fn f() { if x { y(); } }\nfn g() {}\n");
        let code = f.code();
        let open = code.iter().position(|&i| f.tokens[i].is_punct('{')).unwrap();
        let close = match_brace(&f, &code, open);
        assert!(f.tokens[code[close + 1]].is_ident("fn"), "close lands before `fn g`");
    }
}
