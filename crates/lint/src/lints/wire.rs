//! `wire-exhaustiveness`: the additive-opcode protocol contract,
//! checked structurally.
//!
//! The classic protocol-drift bug — add an opcode, wire it into encode,
//! forget the decode arm (or the version table, or the traffic model) —
//! used to be a fuzz finding. This lint makes it a compile-gate: every
//! constant in `wire::op` must appear in
//!
//! 1. `opcode_version` (else encoders stamp the wrong default version),
//! 2. the encode path (`encode_request` / `encode_response`, including
//!    the helpers they call within the module),
//! 3. the decode path (`decode_request` / `decode_response`, likewise),
//!
//! and every `Request::` / `Response::` variant the encoders emit must
//! have an arm in the corresponding `wire_size` model in `worker.rs`
//! (and vice versa) — the physical-frame-equals-modeled-size invariant
//! the traffic accounting relies on. Opcode values must also be unique.
//!
//! The pass also covers the sequence-number header field (offset 6,
//! the idempotent-retry handle): `parse_header`, `set_seq` and
//! `frame_seq` in `wire.rs` must all name `SEQ_OFFSET` (a hardcoded
//! offset in any one of them is silent stamp/parse drift). Each other
//! leg of the protocol is checked in the module that holds it ([`LEGS`]):
//!
//! * the server core (`host.rs`) must reference `frame_seq`
//!   (recognition) and `last_seq` (the dedup cache) — losing either
//!   silently turns "safe to resend" back into "double-applies on
//!   retry";
//! * the client core (`channel.rs`) must build, parse and stamp frames
//!   through `encode_request`, `decode_response` and `set_seq` — frames
//!   built or parsed anywhere else escape every exhaustiveness check
//!   above, and an unstamped frame double-applies on retry;
//! * the frame decoder (`reactor.rs`) must size its payload buffer from
//!   a header validated by `parse_header`, never raw bytes;
//! * the worker server (`socket.rs`) must frame its requests through
//!   `FrameDecoder`, the one framer both ends share, so a second
//!   server-side framer cannot return unnoticed.

use crate::lexer::Kind;
use crate::{match_brace, Diagnostic, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

const LINT: &str = "wire-exhaustiveness";

/// Where the protocol module lives in this workspace.
pub const WIRE_PATH: &str = "crates/amuse/src/wire.rs";
/// Where the `wire_size` traffic model lives.
pub const WORKER_PATH: &str = "crates/amuse/src/worker.rs";
/// Where the server core (seq recognition + dedup) lives.
pub const HOST_PATH: &str = "crates/amuse/src/host.rs";
/// Where the client core (codec legs + seq stamping) lives.
pub const CHANNEL_PATH: &str = "crates/amuse/src/channel.rs";
/// Where the incremental frame decoder lives.
pub const REACTOR_PATH: &str = "crates/amuse/src/reactor.rs";
/// Where the worker server's accept-and-read driver lives.
pub const SOCKET_PATH: &str = "crates/amuse/src/socket.rs";

/// One leg of the protocol outside `wire.rs`: its module, what it is,
/// and the names it must reference (with what breaks without each).
pub type Leg = (&'static str, &'static str, &'static [(&'static str, &'static str)]);

/// Every leg, in the module that holds it.
pub const LEGS: [Leg; 4] = [
    (
        HOST_PATH,
        "the server core",
        &[
            ("frame_seq", "the server cannot recognize a resent frame as a duplicate"),
            ("last_seq", "the dedup cache is gone — a replayed mutating request re-executes"),
        ],
    ),
    (
        CHANNEL_PATH,
        "the client core",
        &[
            ("encode_request", "requests would be framed outside the encode exhaustiveness check"),
            (
                "decode_response",
                "replies would be parsed outside the one decode surface the exhaustiveness \
                 checks cover",
            ),
            ("set_seq", "requests go out unsequenced, so a resent mutating request double-applies"),
        ],
    ),
    (
        REACTOR_PATH,
        "the frame decoder",
        &[(
            "parse_header",
            "the incremental decoder would size its payload buffer from unvalidated header bytes",
        )],
    ),
    (
        SOCKET_PATH,
        "the worker server",
        &[(
            "FrameDecoder",
            "requests are framed by a second framer, outside the one both ends share",
        )],
    ),
];

/// One parsed `pub const NAME: u8 = 0x..;` opcode.
struct Opcode {
    name: String,
    value: u8,
    line: u32,
}

/// Check the protocol. `worker` carries the `wire_size` model; if
/// absent, the variant cross-check reports that instead of silently
/// passing. `files` are searched for the [`LEGS`] by path; a leg whose
/// module is missing is reported as moved.
pub fn check(
    wire: &SourceFile,
    worker: Option<&SourceFile>,
    files: &[SourceFile],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let code = wire.code();
    let opcodes = parse_opcodes(wire, &code);
    if opcodes.is_empty() {
        return vec![Diagnostic {
            path: wire.path.clone(),
            line: 1,
            lint: LINT,
            message: "no opcode constants found in `mod op` — parser and protocol drifted".into(),
        }];
    }

    // Duplicate opcode values: two messages sharing a byte is undecodable.
    let mut by_value: BTreeMap<u8, &str> = BTreeMap::new();
    for oc in &opcodes {
        if let Some(first) = by_value.insert(oc.value, &oc.name) {
            diags.push(diag(
                wire,
                oc.line,
                format!(
                    "opcode `{}` reuses value {:#04x} already taken by `{first}`",
                    oc.name, oc.value
                ),
            ));
        }
    }

    let fns = fn_bodies(wire, &code);
    let ident_closure = |entry: &str| -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue = vec![entry.to_string()];
        let mut idents = BTreeSet::new();
        while let Some(name) = queue.pop() {
            if !seen.insert(name.clone()) {
                continue;
            }
            let Some(&(lo, hi)) = fns.get(name.as_str()) else { continue };
            for &ti in &code[lo..=hi] {
                let t = &wire.tokens[ti];
                if t.kind == Kind::Ident {
                    idents.insert(t.text.clone());
                    if fns.contains_key(t.text.as_str()) {
                        queue.push(t.text.clone());
                    }
                }
            }
        }
        idents
    };

    let version_idents = ident_closure("opcode_version");
    let enc_req = ident_closure("encode_request");
    let enc_resp = ident_closure("encode_response");
    let dec_req = ident_closure("decode_request");
    let dec_resp = ident_closure("decode_response");

    for oc in &opcodes {
        let is_resp = oc.value >= 0x80;
        if !version_idents.contains(&oc.name) {
            diags.push(diag(
                wire,
                oc.line,
                format!(
                    "opcode `{}` is not named in `opcode_version` — encoders would stamp it \
                     with the wildcard default, the exact drift that broke protocol v3s elsewhere",
                    oc.name
                ),
            ));
        }
        let (enc, enc_name) =
            if is_resp { (&enc_resp, "encode_response") } else { (&enc_req, "encode_request") };
        if !enc.contains(&oc.name) {
            diags.push(diag(
                wire,
                oc.line,
                format!("opcode `{}` is never emitted by `{enc_name}` (or its helpers)", oc.name),
            ));
        }
        let (dec, dec_name) =
            if is_resp { (&dec_resp, "decode_response") } else { (&dec_req, "decode_request") };
        if !dec.contains(&oc.name) {
            diags.push(diag(
                wire,
                oc.line,
                format!(
                    "opcode `{}` has no arm in `{dec_name}` (or its helpers) — peers sending it \
                     would be rejected as UnknownOpcode",
                    oc.name
                ),
            ));
        }
    }

    // Sequence-number field: stamp, parse and dedup must agree on one
    // offset.
    for func in ["parse_header", "set_seq", "frame_seq"] {
        match fns.get(func) {
            None => diags.push(diag(
                wire,
                1,
                format!(
                    "no `fn {func}` found — the sequence-number surface the idempotent retry \
                     stands on has drifted"
                ),
            )),
            Some(&(lo, hi)) => {
                if !code[lo..=hi].iter().any(|&ti| wire.tokens[ti].is_ident("SEQ_OFFSET")) {
                    diags.push(diag(
                        wire,
                        wire.tokens[code[lo]].line,
                        format!(
                            "`{func}` does not name `SEQ_OFFSET` — the seq field's offset lives \
                             in one constant precisely so stamp and parse cannot disagree about \
                             which header bytes carry it"
                        ),
                    ));
                }
            }
        }
    }

    // The other legs: each must reach the codec, the seq field and the
    // framer through the shared surface, in the module that holds it.
    for (path, who, names) in LEGS {
        let Some(f) = files.iter().find(|f| f.path == path) else {
            diags.push(Diagnostic {
                path: path.into(),
                line: 1,
                lint: LINT,
                message: format!("{who} not found — did it move? update jc-lint"),
            });
            continue;
        };
        let fcode = f.code();
        for (name, why) in names {
            if !fcode.iter().any(|&ti| f.tokens[ti].is_ident(name)) {
                diags.push(diag(f, 1, format!("`{name}` is never referenced in {who} — {why}")));
            }
        }
    }

    // wire_size model cross-check against the encoders.
    match worker {
        None => diags.push(diag(
            wire,
            1,
            format!("`{WORKER_PATH}` not found — cannot cross-check the wire_size model"),
        )),
        Some(w) => {
            for (enum_name, enc_fn) in
                [("Request", "encode_request"), ("Response", "encode_response")]
            {
                let Some(&(lo, hi)) = fns.get(enc_fn) else { continue };
                let encoded = variants_in(wire, &code[lo..=hi], enum_name);
                match wire_size_body(w, enum_name) {
                    None => diags.push(Diagnostic {
                        path: w.path.clone(),
                        line: 1,
                        lint: LINT,
                        message: format!("no `fn wire_size` found in `impl {enum_name}`"),
                    }),
                    Some((line, toks)) => {
                        let modeled = variants_in(w, &toks, enum_name);
                        for v in encoded.difference(&modeled) {
                            diags.push(Diagnostic {
                                path: w.path.clone(),
                                line,
                                lint: LINT,
                                message: format!(
                                    "`{enum_name}::{v}` is encoded but missing from the \
                                     wire_size model — modeled traffic would diverge from \
                                     physical frames"
                                ),
                            });
                        }
                        for v in modeled.difference(&encoded) {
                            diags.push(Diagnostic {
                                path: w.path.clone(),
                                line,
                                lint: LINT,
                                message: format!(
                                    "wire_size models `{enum_name}::{v}` which `{enc_fn}` \
                                     never emits"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    diags
}

fn diag(f: &SourceFile, line: u32, message: String) -> Diagnostic {
    Diagnostic { path: f.path.clone(), line, lint: LINT, message }
}

/// Opcode constants inside `mod op { ... }`.
fn parse_opcodes(f: &SourceFile, code: &[usize]) -> Vec<Opcode> {
    let mut out = Vec::new();
    let Some(open) = code.windows(3).position(|w| {
        f.tokens[w[0]].is_ident("mod")
            && f.tokens[w[1]].is_ident("op")
            && f.tokens[w[2]].is_punct('{')
    }) else {
        return out;
    };
    let close = match_brace(f, code, open + 2);
    let mut k = open + 2;
    while k + 5 <= close {
        let t = |i: usize| &f.tokens[code[i]];
        if t(k).is_ident("const")
            && t(k + 1).kind == Kind::Ident
            && t(k + 2).is_punct(':')
            && t(k + 3).is_ident("u8")
            && t(k + 4).is_punct('=')
            && t(k + 5).kind == Kind::Num
        {
            if let Some(value) = parse_u8(&t(k + 5).text) {
                out.push(Opcode { name: t(k + 1).text.clone(), value, line: t(k + 1).line });
            }
            k += 6;
        } else {
            k += 1;
        }
    }
    out
}

fn parse_u8(text: &str) -> Option<u8> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = clean.strip_prefix("0x").or_else(|| clean.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else {
        clean.parse().ok()
    }
}

/// Every `fn name` in the file, mapped to its body's index range within
/// `code` (inclusive, from the opening `{` to its match).
fn fn_bodies<'a>(f: &'a SourceFile, code: &[usize]) -> BTreeMap<&'a str, (usize, usize)> {
    let mut out = BTreeMap::new();
    let mut k = 0;
    while k + 1 < code.len() {
        if f.tokens[code[k]].is_ident("fn") && f.tokens[code[k + 1]].kind == Kind::Ident {
            let name = f.tokens[code[k + 1]].text.as_str();
            if let Some(open) = crate::body_open(f, code, k + 2) {
                let close = match_brace(f, code, open);
                out.insert(name, (open, close));
                k = open + 1; // nested fns are rare and found by the scan anyway
                continue;
            }
        }
        k += 1;
    }
    out
}

/// Variant names used as `Enum::Variant` within a token range.
fn variants_in(f: &SourceFile, code_range: &[usize], enum_name: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for w in code_range.windows(4) {
        if f.tokens[w[0]].is_ident(enum_name)
            && f.tokens[w[1]].is_punct(':')
            && f.tokens[w[2]].is_punct(':')
            && f.tokens[w[3]].kind == Kind::Ident
        {
            out.insert(f.tokens[w[3]].text.clone());
        }
    }
    out
}

/// The `fn wire_size` body inside `impl Enum { ... }` in `worker.rs`:
/// its line plus the token indices of its body.
fn wire_size_body(f: &SourceFile, enum_name: &str) -> Option<(u32, Vec<usize>)> {
    let code = f.code();
    let open = code.windows(3).position(|w| {
        f.tokens[w[0]].is_ident("impl")
            && f.tokens[w[1]].is_ident(enum_name)
            && f.tokens[w[2]].is_punct('{')
    })?;
    let close = match_brace(f, &code, open + 2);
    let range = &code[open + 2..=close];
    let fn_pos = range
        .windows(2)
        .position(|w| f.tokens[w[0]].is_ident("fn") && f.tokens[w[1]].is_ident("wire_size"))?;
    let mut body_open = fn_pos + 2;
    while body_open < range.len() && !f.tokens[range[body_open]].is_punct('{') {
        body_open += 1;
    }
    // match within the sliced range: rebuild a local index list
    let sub: Vec<usize> = range.to_vec();
    let close_in_sub = match_brace(f, &sub, body_open);
    Some((f.tokens[range[fn_pos]].line, sub[body_open..=close_in_sub].to_vec()))
}
