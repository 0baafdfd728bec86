//! `pub-callers`: every pub item has a caller.
//!
//! A `pub fn`/`struct`/`enum`/`const`/`static`/`trait`/`type` in a
//! library crate is surface that has to be read, built, documented and
//! kept green; surface nothing calls is dead weight. This pass flags an
//! item defined under `crates/*/src` (binaries under `src/bin` and this
//! crate excluded) when its name appears as an identifier in no other
//! file under `crates/`, `src/`, `tests/`, `examples/` or the frozen
//! `benchmark/src` rig and, in its own file, only inside its
//! own definition or a `#[cfg(test)]` item. Re-export lines (`pub use`)
//! are not callers, and comments are not code.
//!
//! The check is by name, so it errs towards silence: any same-named
//! identifier anywhere counts as a caller (so does a `{name}` captured
//! by a format string), and a type named only by its own `impl` is not
//! flagged. It must never flag an item that has a caller.

use crate::lexer::Kind;
use crate::{body_open, match_brace, Diagnostic, SourceFile};
use std::collections::HashSet;

const LINT: &str = "pub-callers";

/// Item keywords the pass checks.
const KINDS: [&str; 7] = ["fn", "struct", "enum", "const", "static", "trait", "type"];

/// Is `path` a file whose pub items must have callers?
fn in_scope(path: &str) -> bool {
    let Some(rest) = path.strip_prefix("crates/") else { return false };
    let Some((krate, sub)) = rest.split_once('/') else { return false };
    krate != "lint" && sub.starts_with("src/") && !sub.starts_with("src/bin/")
}

/// Is `path` read for callers? The offline shims are not.
fn is_caller(path: &str) -> bool {
    ["crates/", "src/", "tests/", "examples/", "benchmark/src/"].iter().any(|p| path.starts_with(p))
}

/// Check every in-scope definition in `files` against the identifiers
/// of the caller files among them.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let callers: Vec<(&str, HashSet<String>)> = files
        .iter()
        .filter(|f| is_caller(&f.path))
        .map(|f| (f.path.as_str(), names_in(f, &[])))
        .collect();
    let mut diags = Vec::new();
    for f in files.iter().filter(|f| in_scope(&f.path)) {
        let code = f.code();
        let tests = cfg_test_spans(f, &code);
        for (k, kind, name) in defs_in(f, &code, &tests) {
            let line = f.tokens[code[k]].line;
            if callers.iter().any(|(p, names)| *p != f.path && names.contains(name))
                || f.waived(line, LINT)
            {
                continue;
            }
            let mut skip = tests.clone();
            skip.push((k, item_end(f, &code, k)));
            if names_in(f, &skip).contains(name) {
                continue;
            }
            diags.push(Diagnostic {
                path: f.path.clone(),
                line,
                lint: LINT,
                message: format!(
                    "`pub {kind} {name}` has no caller: no other workspace file names it, and \
                     this file names it only in its definition or its tests — delete it"
                ),
            });
        }
    }
    diags
}

/// The identifiers `f` names in code outside `skip` (code index ranges)
/// and outside `pub use` lines, plus the names format strings capture.
fn names_in(f: &SourceFile, skip: &[(usize, usize)]) -> HashSet<String> {
    let code = f.code();
    let mut out = HashSet::new();
    let mut k = 0;
    while k < code.len() {
        let t = &f.tokens[code[k]];
        if let Some(&(_, end)) = skip.iter().find(|(a, b)| (*a..=*b).contains(&k)) {
            k = end;
        } else if t.is_ident("pub") && code.get(k + 1).is_some_and(|&u| f.tokens[u].is_ident("use"))
        {
            k = item_end(f, &code, k);
        } else if t.kind == Kind::Ident {
            out.insert(t.text.clone());
        } else if t.kind == Kind::Str {
            out.extend(format_captures(&t.text));
        }
        k += 1;
    }
    out
}

/// `{name}` / `{name:…}` captures in a string literal's contents.
fn format_captures(s: &str) -> impl Iterator<Item = String> + '_ {
    s.split('{').skip(1).filter_map(|part| {
        let end = part.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(part.len());
        let (name, rest) = part.split_at(end);
        (!name.is_empty() && (rest.starts_with('}') || rest.starts_with(':')))
            .then(|| name.to_string())
    })
}

/// The code index that ends the item starting at `from`: the `}` closing
/// its body, or else its first `;`.
fn item_end(f: &SourceFile, code: &[usize], from: usize) -> usize {
    match body_open(f, code, from) {
        Some(open) => match_brace(f, code, open),
        None => (from..code.len()).find(|&k| f.tokens[code[k]].is_punct(';')).unwrap_or(code.len()),
    }
}

/// Code index ranges of the items under a `#[cfg(test)]` attribute.
fn cfg_test_spans(f: &SourceFile, code: &[usize]) -> Vec<(usize, usize)> {
    let attr = ["#", "[", "cfg", "(", "test", ")", "]"];
    (0..code.len().saturating_sub(attr.len()))
        .filter(|&k| attr.iter().enumerate().all(|(j, s)| f.tokens[code[k + j]].text == *s))
        .map(|k| (k, item_end(f, code, k + attr.len())))
        .collect()
}

/// The unrestricted `pub` item definitions in `f` outside `tests`: the
/// code index of each `pub`, the item keyword and the name.
fn defs_in<'f>(
    f: &'f SourceFile,
    code: &[usize],
    tests: &[(usize, usize)],
) -> Vec<(usize, &'static str, &'f String)> {
    let token = |k: usize| code.get(k).map(|&ti| &f.tokens[ti]);
    let is = |k: usize, s: &str| token(k).is_some_and(|t| t.is_ident(s));
    let mut out = Vec::new();
    for k in 0..code.len() {
        if !is(k, "pub") || tests.iter().any(|(a, b)| (*a..=*b).contains(&k)) {
            continue;
        }
        // `pub [unsafe|async|extern "abi"|const fn]* <kind> [mut] <name>`
        let mut j = k + 1;
        while ["unsafe", "async", "extern"].iter().any(|q| is(j, q))
            || token(j).is_some_and(|t| t.kind == Kind::Str)
            || (is(j, "const") && is(j + 1, "fn"))
        {
            j += 1;
        }
        let Some(kind) = KINDS.iter().find(|kw| is(j, kw)) else { continue };
        let n = if is(j + 1, "mut") { j + 2 } else { j + 1 };
        if let Some(name) = token(n).filter(|t| t.kind == Kind::Ident) {
            out.push((k, *kind, &name.text));
        }
    }
    out
}
