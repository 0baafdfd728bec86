//! Fixture tests: every lint has a fail fixture whose exact diagnostics
//! are pinned (file, line, lint), a pass fixture that stays quiet, and
//! the real workspace itself must be clean.

use jc_lint::lints::{determinism, doc_refs, env_registry, no_alloc, unsafe_audit, wire};
use jc_lint::{Diagnostic, SourceFile};
use std::path::PathBuf;

/// The lint crate's own directory (fixtures live under `tests/fixtures`).
fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Load a fixture file, lexing it under the given virtual path (the
/// determinism lint keys its scope off the path).
fn fixture(rel: &str, virtual_path: &str) -> SourceFile {
    let disk = crate_dir().join("tests/fixtures").join(rel);
    let text = std::fs::read_to_string(&disk)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", disk.display()));
    SourceFile::parse(virtual_path, &text)
}

/// The (line, lint) pairs of `diags`, in order.
fn lines(diags: &[Diagnostic]) -> Vec<(u32, &'static str)> {
    diags.iter().map(|d| (d.line, d.lint)).collect()
}

#[test]
fn unsafe_audit_fail_fixture_exact_diagnostics() {
    let f = fixture("fail/unsafe_audit.rs", "fixture.rs");
    let mut sites = Vec::new();
    let d = unsafe_audit::check(&f, &mut sites);
    assert_eq!(
        lines(&d),
        vec![(8, "unsafe-audit"), (9, "unsafe-audit"), (13, "unsafe-audit")],
        "{d:#?}"
    );
    // only the audited sites at the bottom of the fixture land in the
    // ledger inventory; the three unaudited ones are diagnostics instead
    assert_eq!(sites.len(), 2);
}

#[test]
fn unsafe_audit_pass_fixture_is_quiet() {
    let f = fixture("pass/unsafe_audit.rs", "fixture.rs");
    let mut sites = Vec::new();
    let d = unsafe_audit::check(&f, &mut sites);
    assert!(d.is_empty(), "{d:#?}");
    assert_eq!(sites.len(), 3, "all sites inventoried even when audited");
}

/// The wire fixtures under `dir`: the protocol module, the `wire_size`
/// model, and every other leg under its workspace path.
fn wire_fixtures(dir: &str) -> (SourceFile, SourceFile, Vec<SourceFile>) {
    let legs = wire::LEGS.iter().map(|(path, _, _)| {
        let name = path.rsplit('/').next().unwrap();
        fixture(&format!("{dir}/wire/{name}"), path)
    });
    (
        fixture(&format!("{dir}/wire/wire.rs"), wire::WIRE_PATH),
        fixture(&format!("{dir}/wire/worker.rs"), wire::WORKER_PATH),
        legs.collect(),
    )
}

#[test]
fn wire_fail_fixture_exact_diagnostics() {
    let (w, worker, legs) = wire_fixtures("fail");
    let d = wire::check(&w, Some(&worker), &legs);
    let msgs: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
    assert_eq!(d.len(), 11, "{d:#?}");
    // SHUTDOWN (declared at fixture line 8): missing version + decode arm
    assert!(d.iter().any(|x| x.line == 8
        && x.path == wire::WIRE_PATH
        && x.message.contains("`SHUTDOWN` is not named in `opcode_version`")));
    assert!(d.iter().any(|x| x.line == 8
        && x.path == wire::WIRE_PATH
        && x.message.contains("`SHUTDOWN` has no arm in `decode_request`")));
    // wire_size drift, reported against the worker model
    assert!(msgs.iter().any(|m| m.contains("`Request::Stop` is encoded but missing")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("wire_size models `Request::Legacy`")), "{msgs:?}");
    // seq field: set_seq hardcodes the offset instead of naming SEQ_OFFSET
    assert!(
        d.iter().any(|x| x.path == wire::WIRE_PATH
            && x.message.contains("`set_seq` does not name `SEQ_OFFSET`")),
        "{msgs:?}"
    );
    // each missing name is reported against the module that must hold it
    for (path, name) in [
        // the server core never recognizes or deduplicates a resend
        (wire::HOST_PATH, "frame_seq"),
        (wire::HOST_PATH, "last_seq"),
        // the client core encodes through the shared surface but
        // hand-parses replies and never stamps sequence numbers
        (wire::CHANNEL_PATH, "decode_response"),
        (wire::CHANNEL_PATH, "set_seq"),
        // the decoder sizes frames from unvalidated header bytes
        (wire::REACTOR_PATH, "parse_header"),
        // the server frames its requests with a reader of its own
        (wire::SOCKET_PATH, "FrameDecoder"),
    ] {
        let said = format!("`{name}` is never referenced");
        assert!(d.iter().any(|x| x.path == path && x.message.contains(&said)), "{msgs:?}");
    }
}

#[test]
fn wire_pass_fixture_is_quiet() {
    let (w, worker, legs) = wire_fixtures("pass");
    let d = wire::check(&w, Some(&worker), &legs);
    assert!(d.is_empty(), "{d:#?}");
    // and a leg whose module went missing is reported, not skipped
    let d = wire::check(&w, Some(&worker), &legs[1..]);
    assert_eq!(d.len(), 1, "{d:#?}");
    assert!(d[0].path == wire::HOST_PATH && d[0].message.contains("did it move?"), "{d:#?}");
}

#[test]
fn no_alloc_fail_fixture_exact_diagnostics() {
    let f = fixture("fail/no_alloc.rs", "fixture.rs");
    let d = no_alloc::check(&f);
    assert_eq!(lines(&d), vec![(8, "no-alloc"), (10, "no-alloc"), (12, "no-alloc")], "{d:#?}");
    assert!(d[0].message.contains("`vec!`"));
    assert!(d[1].message.contains("`.to_vec()`"));
    assert!(d[2].message.contains("`format!`"));
}

#[test]
fn no_alloc_pass_fixture_is_quiet() {
    let f = fixture("pass/no_alloc.rs", "fixture.rs");
    let d = no_alloc::check(&f);
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn determinism_fail_fixture_exact_diagnostics() {
    let path = "crates/nbody/src/fixture.rs";
    assert!(determinism::in_scope(path), "fixture path must be replay-critical");
    let f = fixture("fail/determinism.rs", path);
    let d = determinism::check(&f);
    assert_eq!(
        lines(&d),
        vec![(5, "determinism"), (7, "determinism"), (8, "determinism"), (9, "determinism")],
        "{d:#?}"
    );
}

#[test]
fn determinism_pass_fixture_is_quiet() {
    let f = fixture("pass/determinism.rs", "crates/nbody/src/fixture.rs");
    let d = determinism::check(&f);
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn determinism_pool_fail_fixture_exact_diagnostics() {
    // The persistent worker pool is replay-critical: a hash-keyed
    // worker registry or a wall-clock deadline in its internals would
    // silently break the pooled-equals-scoped bitwise contract.
    let path = "crates/compute/src/pool.rs";
    assert!(determinism::in_scope(path), "pool internals must be replay-critical scope");
    let f = fixture("fail/determinism_pool.rs", path);
    let d = determinism::check(&f);
    assert_eq!(
        lines(&d),
        vec![(8, "determinism"), (12, "determinism"), (15, "determinism"), (18, "determinism")],
        "{d:#?}"
    );
}

#[test]
fn determinism_pool_pass_fixture_is_quiet() {
    let f = fixture("pass/determinism_pool.rs", "crates/compute/src/pool.rs");
    let d = determinism::check(&f);
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn env_registry_fail_fixture_exact_diagnostics() {
    let code = fixture("fail/env/code.rs", "crates/x/src/lib.rs");
    let registry = fixture("fail/env/envreg.rs", env_registry::REGISTRY_PATH);
    let readme = std::fs::read_to_string(crate_dir().join("tests/fixtures/fail/env/readme.md"))
        .expect("fixture readme");
    let d = env_registry::check(&[code], Some(&registry), &readme);
    assert_eq!(d.len(), 3, "{d:#?}");
    assert!(d.iter().any(|x| x.path == "crates/x/src/lib.rs"
        && x.line == 4
        && x.message.contains("`JC_SECRET_TUNING` is read here but not registered")));
    assert!(d.iter().any(|x| x.path == env_registry::REGISTRY_PATH
        && x.line == 4
        && x.message.contains("`JC_DEAD_KNOB` is never read")));
    assert!(d.iter().any(|x| x.path == env_registry::REGISTRY_PATH
        && x.line == 4
        && x.message.contains("`JC_DEAD_KNOB` is not documented in README.md")));
}

#[test]
fn env_registry_pass_fixture_is_quiet() {
    let code = fixture("pass/env/code.rs", "crates/x/src/lib.rs");
    let registry = fixture("pass/env/envreg.rs", env_registry::REGISTRY_PATH);
    let readme = std::fs::read_to_string(crate_dir().join("tests/fixtures/pass/env/readme.md"))
        .expect("fixture readme");
    let d = env_registry::check(&[code], Some(&registry), &readme);
    assert!(d.is_empty(), "{d:#?}");
}

/// The tree the `doc_refs` fixtures are written against.
fn fixture_tree(rel: &str) -> bool {
    const TREE: [&str; 7] = [
        "BENCH_PR8.json",
        "benchmark/Cargo.toml",
        "crates/a/",
        "crates/a/Cargo.toml",
        "crates/a/src/lib.rs",
        "crates/a/tests/golden.rs",
        "docs/",
    ];
    TREE.contains(&rel)
}

fn fixture_text(rel: &str) -> String {
    std::fs::read_to_string(crate_dir().join("tests/fixtures").join(rel)).expect("fixture doc")
}

#[test]
fn doc_refs_fail_fixture_exact_diagnostics() {
    let text = fixture_text("fail/doc_refs.md");
    let d = doc_refs::check("README.md", &text, false, &fixture_tree);
    let doc_refs = |lines: &[u32]| lines.iter().map(|&l| (l, "doc-refs")).collect::<Vec<_>>();
    assert_eq!(lines(&d), doc_refs(&[3, 5, 7, 8, 10, 11]), "{d:#?}");
    assert!(d[0].message.contains("`BENCH_PR7.json`"));
    assert!(d[1].message.contains("`crates/a/src/old_kernel.rs`"), "line suffix is stripped");
    assert!(d[2].message.contains("`crates/b/tests/golden.rs`"), "alternation is expanded");
    assert!(d[3].message.contains("`crates/gone/Cargo.toml`"), "a crate path names its manifest");
    // an append-only log answers for its newest entry only
    let d = doc_refs::check("CHANGES.md", &text, true, &fixture_tree);
    assert_eq!(lines(&d), doc_refs(&[11]), "{d:#?}");
    assert!(d[0].message.contains("`docs/MISSING.md`"));
}

#[test]
fn doc_refs_pass_fixture_is_quiet() {
    let text = fixture_text("pass/doc_refs.md");
    for newest_only in [false, true] {
        let d = doc_refs::check("README.md", &text, newest_only, &fixture_tree);
        assert!(d.is_empty(), "{d:#?}");
    }
}

/// The real gate: the workspace this crate ships in must be clean. This
/// is the same check CI runs via `cargo run -p jc-lint`.
#[test]
fn real_workspace_is_clean() {
    let root = crate_dir().join("../..");
    let root = root.canonicalize().expect("workspace root");
    assert!(root.join("Cargo.toml").is_file(), "not a workspace root: {}", root.display());
    let diags = jc_lint::run_all(&root);
    assert!(
        diags.is_empty(),
        "workspace has lint findings:\n{}",
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}
