//! `doc-refs`: the docs name files that exist.
//!
//! README.md and docs/ARCHITECTURE.md point readers at the committed
//! perfsuite baseline (`BENCH_PRn.json`) and at source files by path;
//! CHANGES.md's newest entry does the same for the next builder. Every
//! perf PR re-records the baseline under a new name and several have
//! moved files, and each time the references were repointed by hand.
//! This lint closes that loop: a `BENCH_*.json` name anywhere in the
//! text, or a back-ticked repo-relative path under one of [`PREFIXES`],
//! must exist in the tree.
//!
//! A back-ticked path may carry a `:line` suffix and one
//! `{a,b}` alternation (each alternative is checked); spans with a glob,
//! a placeholder or prose in them (`*`, `<`, `…`, whitespace) are not
//! file names and are skipped.

use crate::Diagnostic;

const LINT: &str = "doc-refs";

/// The documents checked, and whether only the newest entry — the last
/// non-empty line of an append-only log — counts (older entries describe
/// the tree as it was).
pub const DOCS: [(&str, bool); 3] =
    [("README.md", false), ("docs/ARCHITECTURE.md", false), ("CHANGES.md", true)];

/// Top-level directories a back-ticked path is resolved under.
pub const PREFIXES: [&str; 5] = ["crates/", "tests/", "docs/", "examples/", "benchmark/"];

/// Check one document's `text`; `exists` answers whether a
/// repo-relative path is in the tree.
pub fn check(
    path: &str,
    text: &str,
    newest_only: bool,
    exists: &dyn Fn(&str) -> bool,
) -> Vec<Diagnostic> {
    let newest = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).last();
    let newest = newest.map_or(0, |(n, _)| n);
    let mut diags = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if newest_only && n != newest {
            continue;
        }
        let mut names = bench_names(line);
        names.extend(line.split('`').skip(1).step_by(2).flat_map(path_names));
        names.sort();
        names.dedup();
        for name in names.into_iter().filter(|name| !exists(name)) {
            diags.push(Diagnostic {
                path: path.into(),
                line: n as u32 + 1,
                lint: LINT,
                message: format!("`{name}` is named here but does not exist in the tree"),
            });
        }
    }
    diags
}

/// Every `BENCH_<word>.json` in `line`, back-ticked or not.
fn bench_names(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in line.match_indices("BENCH_") {
        let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let stem = line[at..].find(|c| !word(c)).unwrap_or(line.len() - at);
        if line[at + stem..].starts_with(".json") {
            out.push(line[at..at + stem + ".json".len()].to_string());
        }
    }
    out
}

/// The file names one back-ticked span stands for (none if it is not a
/// path under [`PREFIXES`]).
fn path_names(span: &str) -> Vec<String> {
    if !PREFIXES.iter().any(|p| span.starts_with(p))
        || span.contains(|c: char| c.is_whitespace() || "*<…".contains(c))
    {
        return Vec::new();
    }
    // `path:123` / `path:12-40` point at lines of `path`
    let span = match span.rsplit_once(':') {
        Some((file, lines)) if lines.chars().all(|c| c.is_ascii_digit() || c == '-') => file,
        _ => span,
    };
    match (span.find('{'), span.find('}')) {
        (Some(open), Some(close)) if open < close => span[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &span[..open], &span[close + 1..]))
            .collect(),
        _ => vec![span.to_string()],
    }
}
