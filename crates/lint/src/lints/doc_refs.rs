//! `doc-refs`: the docs name files that exist.
//!
//! README.md and docs/ARCHITECTURE.md point readers at the committed
//! perfsuite baseline (`BENCH_PRn.json`) and at source files by path;
//! CHANGES.md's newest entry does the same for the next builder. Every
//! perf PR re-records the baseline under a new name and several have
//! moved files, and each time the references were repointed by hand.
//! This lint closes that loop: a `BENCH_*.json` name anywhere in the
//! text, or a back-ticked repo-relative path under one of [`PREFIXES`],
//! must exist in the tree. Crates are named the same way: a back-ticked
//! Rust path `jc_<x>::…`, or a bare `jc_<x>` followed by its
//! `` (`crates/<x>`) `` directory, must name an existing
//! `crates/<x>/Cargo.toml` (`jc_benchmark` lives in `benchmark/`). A
//! bare `jc_<x>` elsewhere, such as a JSON field, is not a crate name.
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
        // (name in the text, file that must exist)
        let spans: Vec<&str> = line.split('`').collect();
        let mut names: Vec<(String, String)> =
            bench_names(line).into_iter().map(|n| (n.clone(), n)).collect();
        for at in (1..spans.len()).step_by(2) {
            names.extend(path_names(spans[at]).into_iter().map(|n| (n.clone(), n)));
            names.extend(crate_manifest(spans[at], &spans[at + 1..]));
        }
        names.sort();
        names.dedup();
        for (name, file) in names.into_iter().filter(|(_, file)| !exists(file)) {
            let message = if name == file {
                format!("`{name}` is named here but does not exist in the tree")
            } else {
                format!("`{name}` is named here but `{file}` does not exist in the tree")
            };
            diags.push(Diagnostic { path: path.into(), line: n as u32 + 1, lint: LINT, message });
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

/// The crate a back-ticked `span` names, with the manifest that must
/// exist for it; `after` is the rest of the line, split at backticks
/// (text, span, text, …).
fn crate_manifest(span: &str, after: &[&str]) -> Option<(String, String)> {
    let rest = span.strip_prefix("jc_")?;
    let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
    let (name, tail) = rest.split_at(end);
    let dir_follows = matches!(after, [" (", dir, ..] if dir.starts_with("crates/"));
    let named = tail.starts_with("::") || (tail.is_empty() && dir_follows);
    if name.is_empty() || !named {
        return None;
    }
    let manifest = match name {
        "benchmark" => "benchmark/Cargo.toml".to_string(),
        _ => format!("crates/{name}/Cargo.toml"),
    };
    Some((format!("jc_{name}"), manifest))
}
