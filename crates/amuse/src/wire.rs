//! The binary wire protocol for remote workers.
//!
//! Every RPC crossing a real transport is one *frame*: a fixed 32-byte
//! header followed by a payload of little-endian scalars. The layout is
//! chosen so that the physical frame size of every message equals the
//! modeled [`Request::wire_size`]/[`Response::wire_size`] exactly — the
//! traffic accounting the in-process channels simulate is what a
//! [`crate::ReactorChannel`] actually puts on the wire.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic 0x4A43_5752 ("JCWR", little-endian u32)
//!      4     1  version (the *lowest* protocol version defining the opcode)
//!      5     1  opcode (request 0x01..=0x10, response 0x81..=0x89)
//!      6     2  sequence number (u16, 0 = unsequenced; see below)
//!      8     8  payload length in bytes (u64)
//!     16     8  aux0 — opcode-specific count / bits (u64)
//!     24     8  aux1 — opcode-specific count / bits (u64)
//!     32     …  payload
//! ```
//!
//! Floats travel as raw IEEE-754 bits (`f64::to_le_bytes`), so NaN
//! payloads and signed zeros round-trip bit-exactly. Decoding never
//! panics and never allocates more than the received payload: the length
//! is capped at [`MAX_PAYLOAD`] and validated against the opcode's aux
//! counts *before* any buffer is sized from it.
//!
//! # Version negotiation
//!
//! There is no handshake; negotiation is per frame and stateless:
//!
//! * An encoder stamps each frame with the **lowest** protocol version
//!   that defines its opcode ([`opcode_version`]) — never its own
//!   [`VERSION`]. Version 1 covers the original RPC surface; version 2
//!   added the checkpoint/failover opcodes (`SaveState` / `LoadState` /
//!   `Shutdown` / `State`); version 3 the bridge's composite substep
//!   (`Step` / `ComputeField` / `Stepped`, laid out below); version 4
//!   moved the masses out of the substep: a positions-only `Stepped`
//!   and a `ComputeField` whose masses ride only on the request that
//!   primes a mass epoch.
//! * An opcode whose layout changes is *retired*, not redefined: its
//!   byte is never reused, and v4 decoders answer the retired v3
//!   `ComputeField` (0x0F) and `Stepped` (0x88) with
//!   [`WireError::UnknownOpcode`], so a v3 peer's frame is refused
//!   cleanly instead of misparsed under the new layout.
//! * A decoder accepts every version up to its own [`VERSION`] and
//!   rejects newer frames with [`WireError::BadVersion`] *before*
//!   trusting the length field. A frame whose version byte is older
//!   than its opcode requires is likewise rejected (a v1 stamp on a v2
//!   opcode is a forgery, not a compatibility case).
//!
//! Consequence: a v2 coupler stays wire-compatible with a v1 worker as
//! long as it only uses the v1 subset, and the first v2 frame it sends
//! is answered by a clean `BadVersion` error — never misparsed. This is
//! the same additive-opcode rule the checkpoint container relies on
//! (see [`crate::checkpoint`]).
//!
//! # Checkpoint state frames
//!
//! A `SaveState` request is answered by a `State` response whose payload
//! is one [`ModelState`] body; a `LoadState` request carries the same
//! body. The body layout, with `aux0` = state kind (0 stateless,
//! 1 gravity, 2 hydro, 3 stellar) and `aux1` = element count n:
//!
//! ```text
//! kind       payload (little-endian f64 unless noted)         length
//! ---------  ----------------------------------------------   --------
//! stateless  (empty)                                          0
//! gravity    time, mass[n], pos[3n], vel[3n]                  8 + 56 n
//! hydro      time, mass[n], pos[3n], vel[3n],
//!            u[n], rho[n], h[n]                               8 + 80 n
//! stellar    time_myr, z, initial_mass[n], exploded[n] (u8)   16 + 9 n
//! ```
//!
//! The same frames are what [`crate::checkpoint::Checkpoint::write_to`]
//! writes to disk — the checkpoint container is a sequence of wire
//! frames behind a 40-byte file header.
//!
//! # Composite substep frames
//!
//! ```text
//! opcode             aux0        aux1        payload                        length
//! -----------------  ----------  ----------  -----------------------------  ----------------
//! Step (v3)          n           kick count  t, dv[3n]                      8 + 24 n
//! ComputeField (v4)  n_stars     n_gas       star_lo, star_hi, gas_lo,
//!                    | M                     gas_hi (u64), star_pos[3s],
//!                                            gas_pos[3g]                    32 + 24 (s+g)
//!                                            … then, with M: star_mass[s],
//!                                            gas_mass[g]                    32 + 32 (s+g)
//! Stepped (v4)       n           flops bits  pos[3n]                        24 n
//! ```
//!
//! `M` is the mass flag [`FIELD_MASSES`], the top bit of `aux0`: set on
//! the request that primes a coupling host for a mass epoch (the
//! bridge's cold open), clear on every substep's request, which the
//! host evaluates against the masses it holds. A `ComputeField` is
//! answered by an `Accelerations` frame holding the star range's
//! accelerations followed by the gas range's. Decoding checks the
//! length against the counts and the flag; whether the kick count is 1
//! or 2, the ranges lie inside the sets and the host holds masses of the
//! sets' shape is the serving host's check ([`crate::host`]), answered
//! with a typed `Error` frame.
//!
//! The `decode_*_into` functions are the coupler-side fast paths: they
//! parse a response frame straight into caller-owned buffers, so a warm
//! [`crate::ReactorChannel`] round trip performs no heap allocation.
//!
//! # Bulk columns are not copied on the way out
//!
//! A bulk frame is one of either direction: a step, kick or field
//! request, or a `Stepped`, `Accelerations` or `Particles` reply. Unless
//! the frame must be kept for a resend, its columns leave the sender
//! with no user-space copy; only the kernel copies them. The frame is built as a [`Frame`] that borrows its
//! columns where they lie (the caller's columns for a request, the
//! worker's or the host's scratch for a reply): [`Frame::encode`] writes
//! it into a buffer, and a transport that can lends [`Frame::parts`] to
//! vectored writes instead ([`Frame::write_to`] on a blocking stream).
//! On the server, [`view_kick`], [`view_step`] and [`view_compute_field`]
//! validate a request frame and then read its columns *in place*. Every
//! header and aux field is an 8-byte unit, so on a little-endian host a
//! frame that starts 8-aligned (as one at the start of a heap buffer
//! does, like each [`crate::FrameDecoder`] frame) holds 8-aligned
//! columns; any frame that cannot be viewed is decoded into scratch
//! instead, with the same result. Each bulk frame has one builder
//! ([`kick_frame`], [`step_frame`], [`compute_field_frame`],
//! [`stepped_frame`], [`accelerations_frame`], [`particles_frame`]), and
//! [`encode_request`] and [`encode_response`] encode through them; each
//! bulk request has one reader, and [`decode_request`] copies a view
//! into an owned [`Request`]. A reply is decoded into the caller's
//! columns, its one copy on the way in: the reply of a pipelined
//! request can arrive before the caller names where it goes.
//!
//! # Sequence numbers and idempotent retry
//!
//! Bytes 6–7 of the header carry a per-request **sequence number**
//! (little-endian u16, written by [`set_seq`], read back by
//! [`frame_seq`]). `begin_frame` stamps 0 — "unsequenced" — so encoders
//! that never retry are unchanged, and pre-seq peers (which wrote and
//! ignored zeros here) stay wire-compatible. Only a link that needs
//! stamps gets them ([`crate::channel::Link::stamps`]): a
//! [`crate::ReactorChannel`] built [`crate::ReactorChannel::with_retry`]
//! (`max_retries > 0`), which may resend a frame, and `jc_core`'s
//! simulated link, which matches replies by stamp. A plain TCP channel
//! and the in-process [`crate::LocalChannel`] never resend, so their
//! frames carry 0. A stamping client gives each fresh request the next
//! nonzero sequence number and *reuses* it when it resends the same
//! frame after a transient transport fault; the server
//! ([`crate::WorkerServer`]) remembers the last applied nonzero sequence
//! number per worker — together with a fingerprint of the applied
//! frame's bytes, because its dedup state outlives connections and the
//! 16-bit space wraps, so seq equality alone does not prove a resend —
//! and answers a duplicate (same seq, same bytes) by replaying the
//! cached response instead of re-applying the request. That is what
//! makes mutating requests (`Kick`, `SetMasses`, …) safe to retry in
//! place — see [`crate::worker::Request::mutating`] and the
//! failure-model table in `docs/ARCHITECTURE.md`. An unsequenced frame
//! is neither fingerprinted nor cached; a mutating one empties the cache.

use crate::checkpoint::ModelState;
use crate::worker::{ParticleData, Request, Response};
use jc_stellar::StellarEvent;
#[cfg(target_endian = "little")]
use std::io::IoSlice;
use std::io::{Read, Write};

/// Frame magic ("JCWR" as a little-endian u32).
pub const MAGIC: u32 = 0x4A43_5752;
/// Current protocol version (see the module docs for the negotiation
/// rules; individual frames are stamped with [`opcode_version`]).
pub const VERSION: u8 = 4;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Maximum accepted payload size (256 MiB). A length prefix beyond this
/// is rejected before any allocation happens.
pub const MAX_PAYLOAD: u64 = 1 << 28;
/// Receive-buffer growth step: [`read_frame`] grows its scratch towards
/// the declared payload length one chunk at a time, as bytes arrive.
pub const READ_CHUNK: usize = 1 << 16;
/// Byte offset of the sequence-number field (u16 LE) within the header.
/// [`set_seq`], [`frame_seq`], and [`parse_header`] all key on this one
/// constant so the stamp, dedup, and decode paths cannot drift apart
/// (the `wire-exhaustiveness` lint checks each of them names it).
pub const SEQ_OFFSET: usize = 6;
/// The mass flag of a `ComputeField` frame: the top bit of `aux0`, set
/// when the frame carries both sets' masses and primes the host (see
/// the module docs).
pub const FIELD_MASSES: u64 = 1 << 63;

/// Request opcodes.
pub mod op {
    /// [`super::Request::Ping`]
    pub const PING: u8 = 0x01;
    /// [`super::Request::EvolveTo`]
    pub const EVOLVE_TO: u8 = 0x02;
    /// [`super::Request::GetParticles`]
    pub const GET_PARTICLES: u8 = 0x03;
    /// [`super::Request::SetMasses`]
    pub const SET_MASSES: u8 = 0x04;
    /// [`super::Request::Kick`]
    pub const KICK: u8 = 0x05;
    /// [`super::Request::ComputeKick`]
    pub const COMPUTE_KICK: u8 = 0x06;
    /// [`super::Request::EvolveStars`]
    pub const EVOLVE_STARS: u8 = 0x07;
    /// [`super::Request::InjectEnergy`]
    pub const INJECT_ENERGY: u8 = 0x08;
    /// [`super::Request::AddGas`]
    pub const ADD_GAS: u8 = 0x09;
    /// [`super::Request::Stop`]
    pub const STOP: u8 = 0x0A;
    /// [`super::Request::SaveState`] (protocol v2)
    pub const SAVE_STATE: u8 = 0x0B;
    /// [`super::Request::LoadState`] (protocol v2)
    pub const LOAD_STATE: u8 = 0x0C;
    /// [`super::Request::Shutdown`] (protocol v2)
    pub const SHUTDOWN: u8 = 0x0D;
    /// [`super::Request::Step`] (protocol v3)
    pub const STEP: u8 = 0x0E;
    /// [`super::Request::ComputeField`] (protocol v4; its v3 layout,
    /// 0x0F, is retired)
    pub const COMPUTE_FIELD: u8 = 0x10;
    /// [`super::Response::Ok`]
    pub const RESP_OK: u8 = 0x81;
    /// [`super::Response::Particles`]
    pub const RESP_PARTICLES: u8 = 0x82;
    /// [`super::Response::Accelerations`]
    pub const RESP_ACCELERATIONS: u8 = 0x83;
    /// [`super::Response::StellarUpdate`]
    pub const RESP_STELLAR_UPDATE: u8 = 0x84;
    /// [`super::Response::Unsupported`]
    pub const RESP_UNSUPPORTED: u8 = 0x85;
    /// [`super::Response::Error`]
    pub const RESP_ERROR: u8 = 0x86;
    /// [`super::Response::State`] (protocol v2)
    pub const RESP_STATE: u8 = 0x87;
    /// [`super::Response::Stepped`] (protocol v4; its v3 layout, 0x88,
    /// is retired)
    pub const RESP_STEPPED: u8 = 0x89;
}

/// The lowest protocol version that defines `opcode` — what encoders
/// stamp into the version byte (see the module docs). Every known
/// opcode is named explicitly (enforced by the `wire-exhaustiveness`
/// lint): a new opcode that fell into a `_ => 1` wildcard would be
/// silently stamped v1 and accepted by peers that predate it. Unknown
/// opcodes report 1 so that they are rejected as
/// [`WireError::UnknownOpcode`], not misblamed on the version byte.
pub const fn opcode_version(opcode: u8) -> u8 {
    match opcode {
        op::PING
        | op::EVOLVE_TO
        | op::GET_PARTICLES
        | op::SET_MASSES
        | op::KICK
        | op::COMPUTE_KICK
        | op::EVOLVE_STARS
        | op::INJECT_ENERGY
        | op::ADD_GAS
        | op::STOP
        | op::RESP_OK
        | op::RESP_PARTICLES
        | op::RESP_ACCELERATIONS
        | op::RESP_STELLAR_UPDATE
        | op::RESP_UNSUPPORTED
        | op::RESP_ERROR => 1,
        op::SAVE_STATE | op::LOAD_STATE | op::SHUTDOWN | op::RESP_STATE => 2,
        op::STEP => 3,
        op::COMPUTE_FIELD | op::RESP_STEPPED => 4,
        _ => 1,
    }
}

/// Everything that can go wrong on the wire. Decoding is total: corrupt
/// or hostile input yields one of these, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection cleanly (EOF between frames).
    Closed,
    /// An I/O error from the underlying transport.
    Io(std::io::ErrorKind),
    /// The stream ended inside a frame.
    Truncated {
        /// Bytes the frame needed.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic(u32),
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The opcode byte names no known message.
    UnknownOpcode(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u64),
    /// The payload length is inconsistent with the opcode's aux counts.
    BadLength {
        /// Offending opcode.
        opcode: u8,
        /// Declared payload length.
        len: u64,
        /// Declared aux0.
        aux0: u64,
        /// Declared aux1.
        aux1: u64,
    },
    /// A stellar event record has an unknown kind tag.
    BadEventKind(u64),
    /// An error string payload is not valid UTF-8.
    Utf8,
    /// A fast-path decoder got a different (valid) response opcode.
    Unexpected(u8),
    /// The request's retry/backoff loop ran out of wall-clock budget
    /// (see [`crate::chaos::RetryPolicy::deadline_ms`]). Deliberately
    /// *not* transient: the whole point of the deadline is to stop
    /// retrying in place and hand the failure to the heal/restore
    /// ladder.
    DeadlineExceeded {
        /// The budget that was exhausted, in milliseconds.
        budget_ms: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(k) => write!(f, "i/o error: {k:?}"),
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: needed {expected} bytes, got {got}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            WireError::Oversized(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::BadLength { opcode, len, aux0, aux1 } => write!(
                f,
                "payload length {len} inconsistent with opcode {opcode:#04x} (aux {aux0}, {aux1})"
            ),
            WireError::BadEventKind(k) => write!(f, "unknown stellar event kind {k}"),
            WireError::Utf8 => write!(f, "error string is not valid UTF-8"),
            WireError::Unexpected(o) => write!(f, "unexpected response opcode {o:#04x}"),
            WireError::DeadlineExceeded { budget_ms } => {
                write!(f, "request deadline of {budget_ms} ms exceeded")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// The transient/fatal taxonomy for the retry layer: is this the
    /// kind of failure a bounded reconnect-and-resend can fix?
    ///
    /// *Transient* covers everything transport-shaped — I/O errors,
    /// closed or truncated streams, and frames whose header arrived
    /// damaged (bad magic/version, oversized or unknown opcode): the
    /// request may or may not have been applied, but the sequence-number
    /// dedup (see the module docs) makes resending it safe either way.
    /// *Fatal* covers structurally-wrong payloads on an intact frame
    /// (`BadLength`, `BadEventKind`, `Utf8`, `Unexpected`): those mean a
    /// peer bug, and retrying would deterministically fail again —
    /// escalate to the heal/restore path instead.
    pub fn is_transient(&self) -> bool {
        match self {
            WireError::Closed
            | WireError::Io(_)
            | WireError::Truncated { .. }
            | WireError::BadMagic(_)
            | WireError::BadVersion(_)
            | WireError::UnknownOpcode(_)
            | WireError::Oversized(_) => true,
            WireError::BadLength { .. }
            | WireError::BadEventKind(_)
            | WireError::Utf8
            | WireError::Unexpected(_)
            | WireError::DeadlineExceeded { .. } => false,
        }
    }
}

/// A parsed frame header.
#[derive(Clone, Copy, Debug)]
pub struct Header {
    /// Message opcode.
    pub opcode: u8,
    /// Sequence number (0 = unsequenced; see the module docs).
    pub seq: u16,
    /// Payload length in bytes.
    pub len: u64,
    /// Opcode-specific count / bits.
    pub aux0: u64,
    /// Opcode-specific count / bits.
    pub aux1: u64,
}

/// Stamp a sequence number into an already-encoded frame (bytes
/// [`SEQ_OFFSET`]`..+2`, little-endian). The frame length is unchanged,
/// so the physical-size-equals-`wire_size` invariant holds regardless
/// of stamping. Panics (debug) on a buffer shorter than a header.
pub fn set_seq(frame: &mut [u8], seq: u16) {
    debug_assert!(frame.len() >= HEADER_LEN, "not an encoded frame");
    frame[SEQ_OFFSET..SEQ_OFFSET + 2].copy_from_slice(&seq.to_le_bytes());
}

/// Read the sequence number back out of an encoded frame without a full
/// header parse (the server's dedup check runs before decode). Returns
/// 0 — unsequenced — for a buffer shorter than a header.
pub fn frame_seq(frame: &[u8]) -> u16 {
    if frame.len() < HEADER_LEN {
        return 0;
    }
    u16::from_le_bytes(frame[SEQ_OFFSET..SEQ_OFFSET + 2].try_into().unwrap())
}

// --------------------------------------------------------------------------
// encoding

#[inline]
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_v3(buf: &mut Vec<u8>, v: &[f64; 3]) {
    put_f64(buf, v[0]);
    put_f64(buf, v[1]);
    put_f64(buf, v[2]);
}

/// The wire image of a float column on a little-endian target: its
/// memory bytes, borrowed in place.
#[cfg(target_endian = "little")]
fn f64_bytes(xs: &[f64]) -> &[u8] {
    // SAFETY: `f64` is plain old data (size 8, no padding, every byte
    // initialized), and on a little-endian target its memory bytes equal
    // `to_le_bytes`; viewing the column as `8 * len` bytes is exact. u8
    // has no alignment requirement.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), 8 * xs.len()) }
}

/// The wire image of a 3-vector column on a little-endian target (see
/// [`f64_bytes`]).
#[cfg(target_endian = "little")]
fn v3_bytes(xs: &[[f64; 3]]) -> &[u8] {
    // SAFETY: `[f64; 3]` is size 24 with no padding and arrays are
    // contiguous, so the column is exactly `24 * len` initialized bytes;
    // on a little-endian target those bytes are the wire encoding. u8 has
    // no alignment requirement.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), 24 * xs.len()) }
}

/// Bulk little-endian append of a float column.
///
/// On a little-endian target the wire encoding of an `f64` column *is*
/// its in-memory byte image ([`f64_bytes`]), so the whole column appends
/// as one `memcpy`. Other targets take the portable per-element
/// conversion through a fixed stack block (which keeps the inner loop
/// free of `Vec` capacity checks so it vectorizes).
fn put_f64s(buf: &mut Vec<u8>, xs: &[f64]) {
    #[cfg(target_endian = "little")]
    buf.extend_from_slice(f64_bytes(xs));
    #[cfg(not(target_endian = "little"))]
    {
        let mut tmp = [0u8; 8 * 64];
        for block in xs.chunks(64) {
            for (d, &x) in tmp.chunks_exact_mut(8).zip(block) {
                d.copy_from_slice(&x.to_le_bytes());
            }
            buf.extend_from_slice(&tmp[..8 * block.len()]);
        }
    }
}

/// Bulk little-endian append of a 3-vector column (see [`put_f64s`]).
fn put_v3s(buf: &mut Vec<u8>, xs: &[[f64; 3]]) {
    #[cfg(target_endian = "little")]
    buf.extend_from_slice(v3_bytes(xs));
    #[cfg(not(target_endian = "little"))]
    {
        let mut tmp = [0u8; 24 * 32];
        for block in xs.chunks(32) {
            for (d, v) in tmp.chunks_exact_mut(24).zip(block) {
                d[0..8].copy_from_slice(&v[0].to_le_bytes());
                d[8..16].copy_from_slice(&v[1].to_le_bytes());
                d[16..24].copy_from_slice(&v[2].to_le_bytes());
            }
            buf.extend_from_slice(&tmp[..24 * block.len()]);
        }
    }
}

/// Bulk decode of a float column from exactly `8 * n` payload bytes
/// (callers slice the validated section first). Little-endian targets
/// decode with one `memcpy` into the column (any bit pattern is a valid
/// `f64`, and a byte copy tolerates the unaligned wire buffer); others
/// take the portable `chunks_exact` loop, whose carried length proof
/// compiles without per-element bounds checks.
fn get_f64s_into(out: &mut Vec<f64>, p: &[u8]) {
    debug_assert_eq!(p.len() % 8, 0);
    out.clear();
    #[cfg(target_endian = "little")]
    {
        let n = p.len() / 8;
        out.reserve(n);
        // SAFETY: `reserve` guarantees capacity for `n` elements, the
        // byte copy writes exactly `8 * n` bytes = `n` `f64`s through
        // the u8 view (no alignment constraint), every bit pattern is a
        // valid `f64`, and `set_len` publishes only what was written.
        unsafe {
            std::ptr::copy_nonoverlapping(p.as_ptr(), out.as_mut_ptr().cast::<u8>(), 8 * n);
            out.set_len(n);
        }
    }
    #[cfg(not(target_endian = "little"))]
    out.extend(p.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())));
}

/// Bulk decode of a 3-vector column from exactly `24 * n` payload bytes
/// (see [`get_f64s_into`]).
fn get_v3s_into(out: &mut Vec<[f64; 3]>, p: &[u8]) {
    debug_assert_eq!(p.len() % 24, 0);
    out.clear();
    #[cfg(target_endian = "little")]
    {
        let n = p.len() / 24;
        out.reserve(n);
        // SAFETY: as in `get_f64s_into`, with `[f64; 3]` being 24
        // padding-free bytes whose little-endian image is the wire
        // encoding.
        unsafe {
            std::ptr::copy_nonoverlapping(p.as_ptr(), out.as_mut_ptr().cast::<u8>(), 24 * n);
            out.set_len(n);
        }
    }
    #[cfg(not(target_endian = "little"))]
    out.extend(p.chunks_exact(24).map(|c| {
        [
            f64::from_le_bytes(c[0..8].try_into().unwrap()),
            f64::from_le_bytes(c[8..16].try_into().unwrap()),
            f64::from_le_bytes(c[16..24].try_into().unwrap()),
        ]
    }));
}

/// A validated 3-vector column's payload bytes read in place as the
/// column itself: possible on a little-endian target when the bytes sit
/// at an address aligned for `f64`. `None` when they cannot be viewed.
#[cfg(target_endian = "little")]
fn v3s_view(p: &[u8]) -> Option<&[[f64; 3]]> {
    if !p.len().is_multiple_of(24) || !p.as_ptr().cast::<[f64; 3]>().is_aligned() {
        return None;
    }
    // SAFETY: `p` is `24 * n` initialized bytes at an address aligned for
    // `[f64; 3]` (align 8, checked above); `[f64; 3]` is 24 padding-free
    // bytes, every bit pattern is a valid `f64`, and on a little-endian
    // target the bytes read back as the wire's values. The view borrows
    // `p` immutably for its whole life, so nothing can write the frame
    // under it.
    Some(unsafe { std::slice::from_raw_parts(p.as_ptr().cast::<[f64; 3]>(), p.len() / 24) })
}

/// See the little-endian [`v3s_view`]: elsewhere no column can be read
/// in place.
#[cfg(not(target_endian = "little"))]
fn v3s_view(_p: &[u8]) -> Option<&[[f64; 3]]> {
    None
}

/// A validated 3-vector column: read in place where it landed
/// ([`v3s_view`]), or decoded into `scratch` when it cannot be.
fn v3s_in<'a>(p: &'a [u8], scratch: &'a mut Vec<[f64; 3]>) -> &'a [[f64; 3]] {
    match v3s_view(p) {
        Some(column) => column,
        None => {
            get_v3s_into(scratch, p);
            scratch
        }
    }
}

/// [`get_f64s_into`] allocating a fresh column.
fn get_f64s(p: &[u8]) -> Vec<f64> {
    let mut v = Vec::new();
    get_f64s_into(&mut v, p);
    v
}

/// [`get_v3s_into`] allocating a fresh column.
fn get_v3s(p: &[u8]) -> Vec<[f64; 3]> {
    let mut v = Vec::new();
    get_v3s_into(&mut v, p);
    v
}

/// The header of an unsequenced `opcode` frame with the given payload
/// length and aux fields.
fn header(opcode: u8, payload_len: u64, aux0: u64, aux1: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    h[4] = opcode_version(opcode);
    h[5] = opcode;
    h[8..16].copy_from_slice(&payload_len.to_le_bytes());
    h[16..24].copy_from_slice(&aux0.to_le_bytes());
    h[24..32].copy_from_slice(&aux1.to_le_bytes());
    h
}

/// Clear `buf` and write a frame header for `opcode` with the given
/// payload length and aux fields; the payload follows.
fn begin_frame(buf: &mut Vec<u8>, opcode: u8, payload_len: u64, aux0: u64, aux1: u64) {
    buf.clear();
    buf.reserve(HEADER_LEN + payload_len as usize);
    buf.extend_from_slice(&header(opcode, payload_len, aux0, aux1));
}

/// Encode a header-only request (`Ping`/`GetParticles`/`Stop`).
pub fn encode_simple_request(opcode: u8, buf: &mut Vec<u8>) {
    begin_frame(buf, opcode, 0, 0, 0);
}

/// Encode a `Particles` response frame of borrowed columns into `buf`
/// (cleared first): [`particles_frame`] encoded. `benchmark/src/probes.rs`
/// times the codec through it.
// jc-lint: no-alloc
pub fn encode_particles_frame(mass: &[f64], pos: &[[f64; 3]], vel: &[[f64; 3]], buf: &mut Vec<u8>) {
    particles_frame(mass, pos, vel).encode(buf);
}

/// Encode an `Ok` response frame (the server's mutating fast paths).
// jc-lint: no-alloc
pub fn encode_ok_frame(flops: f64, buf: &mut Vec<u8>) {
    begin_frame(buf, op::RESP_OK, 8, 0, 0);
    put_f64(buf, flops);
}

/// Encode `EvolveTo`/`EvolveStars` (8-byte time payload).
pub fn encode_evolve(opcode: u8, t: f64, buf: &mut Vec<u8>) {
    begin_frame(buf, opcode, 8, 0, 0);
    put_f64(buf, t);
}

/// Encode `SetMasses` from a borrowed slice.
pub fn encode_set_masses(masses: &[f64], buf: &mut Vec<u8>) {
    begin_frame(buf, op::SET_MASSES, 8 * masses.len() as u64, masses.len() as u64, 0);
    put_f64s(buf, masses);
}

/// Encode `ComputeKick` from borrowed slices. `source_pos` and
/// `source_mass` must have equal length.
pub fn encode_compute_kick(
    targets: &[[f64; 3]],
    source_pos: &[[f64; 3]],
    source_mass: &[f64],
    buf: &mut Vec<u8>,
) {
    assert_eq!(source_pos.len(), source_mass.len(), "source arrays length mismatch");
    let len = 24 * (targets.len() + source_pos.len()) as u64 + 8 * source_mass.len() as u64;
    begin_frame(buf, op::COMPUTE_KICK, len, targets.len() as u64, source_pos.len() as u64);
    put_v3s(buf, targets);
    put_v3s(buf, source_pos);
    put_f64s(buf, source_mass);
}

/// The longest prefix a [`Frame`] carries: the header and a
/// `ComputeField`'s four range bounds.
const PREFIX_MAX: usize = HEADER_LEN + 32;

/// One borrowed column of a frame's payload.
#[derive(Clone, Copy)]
enum Column<'a> {
    V3(&'a [[f64; 3]]),
    F64(&'a [f64]),
    /// Bytes already in wire order: the rest of an encoded frame.
    Bytes(&'a [u8]),
}

impl Column<'_> {
    fn byte_len(&self) -> usize {
        match self {
            Column::V3(c) => 24 * c.len(),
            Column::F64(c) => 8 * c.len(),
            Column::Bytes(c) => c.len(),
        }
    }

    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Column::V3(c) => put_v3s(buf, c),
            Column::F64(c) => put_f64s(buf, c),
            Column::Bytes(c) => buf.extend_from_slice(c),
        }
    }
}

/// A bulk frame in parts, in either direction, its columns borrowed
/// where they lie: a request's from the caller, a reply's from the
/// worker or the host's scratch. A prefix of at most 64 bytes (the
/// header and any scalars) is followed by up to four columns.
/// [`Frame::encode`] writes the frame into a buffer —
/// [`encode_request`] and [`encode_response`] write every bulk frame
/// so — and, on a little-endian target, [`Frame::parts`] lends the very
/// same bytes where they lie, so a transport can write the frame with
/// no user-space copy. [`Frame::encoded`] lends a frame that is already
/// encoded the same way, so a server hands back every reply as a
/// `Frame`.
pub struct Frame<'a> {
    prefix: [u8; PREFIX_MAX],
    prefix_len: usize,
    columns: [Column<'a>; 4],
    n_columns: usize,
}

impl<'a> Frame<'a> {
    /// A frame of `opcode` whose header is written; scalars and columns
    /// follow.
    fn new(opcode: u8, payload_len: u64, aux0: u64, aux1: u64) -> Frame<'a> {
        let mut prefix = [0u8; PREFIX_MAX];
        prefix[..HEADER_LEN].copy_from_slice(&header(opcode, payload_len, aux0, aux1));
        Frame { prefix, prefix_len: HEADER_LEN, columns: [Column::F64(&[]); 4], n_columns: 0 }
    }

    fn scalar(mut self, v: u64) -> Frame<'a> {
        self.prefix[self.prefix_len..self.prefix_len + 8].copy_from_slice(&v.to_le_bytes());
        self.prefix_len += 8;
        self
    }

    fn column(mut self, c: Column<'a>) -> Frame<'a> {
        self.columns[self.n_columns] = c;
        self.n_columns += 1;
        self
    }

    /// A frame already encoded into `bytes`, lent as it lies: its header
    /// is the prefix (every part 0 starts with the header), the rest one
    /// column.
    pub fn encoded(bytes: &'a [u8]) -> Frame<'a> {
        let head = bytes.len().min(HEADER_LEN);
        let mut prefix = [0u8; PREFIX_MAX];
        prefix[..head].copy_from_slice(&bytes[..head]);
        Frame {
            prefix,
            prefix_len: head,
            columns: [
                Column::Bytes(&bytes[head..]),
                Column::F64(&[]),
                Column::F64(&[]),
                Column::F64(&[]),
            ],
            n_columns: 1,
        }
    }

    /// The whole frame's length in bytes.
    pub fn wire_len(&self) -> usize {
        self.prefix_len + self.columns.iter().map(Column::byte_len).sum::<usize>()
    }

    /// Stamp a sequence number (see [`set_seq`]).
    pub fn stamp(&mut self, seq: u16) {
        set_seq(&mut self.prefix, seq);
    }

    /// Write the frame into `buf` (cleared first).
    // jc-lint: no-alloc
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(self.wire_len());
        buf.extend_from_slice(&self.prefix[..self.prefix_len]);
        for c in &self.columns[..self.n_columns] {
            c.put(buf);
        }
        debug_assert_eq!(buf.len(), self.wire_len());
    }

    /// The frame's bytes in order, borrowed where they lie: the prefix,
    /// then each column's wire image (unused slots are empty).
    #[cfg(target_endian = "little")]
    pub fn parts(&self) -> [&[u8]; 5] {
        let bytes = |c: &Column<'a>| match *c {
            Column::V3(c) => v3_bytes(c),
            Column::F64(c) => f64_bytes(c),
            Column::Bytes(c) => c,
        };
        let [c0, c1, c2, c3] = &self.columns;
        [&self.prefix[..self.prefix_len], bytes(c0), bytes(c1), bytes(c2), bytes(c3)]
    }

    /// Append the frame's bytes from offset `from` on to `buf`: what is
    /// left of it after a transport took the first `from`.
    // jc-lint: no-alloc
    #[cfg(target_endian = "little")]
    pub fn append_tail(&self, mut from: usize, buf: &mut Vec<u8>) {
        for part in self.parts() {
            let skip = from.min(part.len());
            buf.extend_from_slice(&part[skip..]);
            from -= skip;
        }
    }

    /// Write the whole frame to `w`, a blocking stream. On a
    /// little-endian target its parts go where they lie, through
    /// vectored writes that go on from wherever a short write stopped;
    /// an interrupted write is retried. Elsewhere the frame is encoded
    /// first.
    // jc-lint: no-alloc
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        #[cfg(target_endian = "little")]
        {
            let mut parts = self.parts().map(IoSlice::new);
            let mut unsent = &mut parts[..];
            IoSlice::advance_slices(&mut unsent, 0);
            while !unsent.is_empty() {
                match w.write_vectored(unsent) {
                    Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                    Ok(n) => IoSlice::advance_slices(&mut unsent, n),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        }
        #[cfg(not(target_endian = "little"))]
        {
            // jc-lint: allow(no-alloc): a big-endian target encodes the frame to write it
            let mut buf = Vec::with_capacity(self.wire_len());
            self.encode(&mut buf);
            w.write_all(&buf)
        }
    }
}

/// The `Kick` frame of a borrowed half-kick.
pub fn kick_frame(dv: &[[f64; 3]]) -> Frame<'_> {
    Frame::new(op::KICK, 24 * dv.len() as u64, dv.len() as u64, 0).column(Column::V3(dv))
}

/// The `Step` frame of a borrowed half-kick applied `n` times before
/// the evolve to `t`.
pub fn step_frame(dv: &[[f64; 3]], n: u32, t: f64) -> Frame<'_> {
    Frame::new(op::STEP, 8 + 24 * dv.len() as u64, dv.len() as u64, n as u64)
        .scalar(t.to_bits())
        .column(Column::V3(dv))
}

/// The `ComputeField` frame of borrowed positions, with `masses` —
/// `(star masses, gas masses)`, each as long as its set — on the
/// request that primes the host, `None` on a mass-free one.
pub fn compute_field_frame<'a>(
    star_pos: &'a [[f64; 3]],
    gas_pos: &'a [[f64; 3]],
    masses: Option<(&'a [f64], &'a [f64])>,
    star_range: (usize, usize),
    gas_range: (usize, usize),
) -> Frame<'a> {
    let (s, g) = (star_pos.len() as u64, gas_pos.len() as u64);
    let (stride, flag) = match masses {
        Some((sm, gm)) => {
            assert!(
                sm.len() == star_pos.len() && gm.len() == gas_pos.len(),
                "field set arrays length mismatch"
            );
            (32, FIELD_MASSES)
        }
        None => (24, 0),
    };
    let mut frame = Frame::new(op::COMPUTE_FIELD, 32 + stride * (s + g), s | flag, g);
    for bound in [star_range.0, star_range.1, gas_range.0, gas_range.1] {
        frame = frame.scalar(bound as u64);
    }
    frame = frame.column(Column::V3(star_pos)).column(Column::V3(gas_pos));
    match masses {
        Some((sm, gm)) => frame.column(Column::F64(sm)).column(Column::F64(gm)),
        None => frame,
    }
}

/// The `Stepped` reply of borrowed positions (the server's `Step` fast
/// path; flops ride in aux1 so the payload stays the modeled 24·n).
// jc-lint: no-alloc
pub fn stepped_frame(pos: &[[f64; 3]], flops: f64) -> Frame<'_> {
    let n = pos.len() as u64;
    Frame::new(op::RESP_STEPPED, 24 * n, n, flops.to_bits()).column(Column::V3(pos))
}

/// The `Accelerations` reply of a borrowed column (the server's field
/// and `ComputeKick` answers; flops ride in aux1 so the payload stays
/// the modeled 24·n).
// jc-lint: no-alloc
pub fn accelerations_frame(acc: &[[f64; 3]], flops: f64) -> Frame<'_> {
    let n = acc.len() as u64;
    Frame::new(op::RESP_ACCELERATIONS, 24 * n, n, flops.to_bits()).column(Column::V3(acc))
}

/// The `Particles` reply of borrowed columns (the server's
/// `GetParticles` fast path, skipping the owned [`Response`] a
/// `worker.handle` round would allocate). The columns must have equal
/// length.
// jc-lint: no-alloc
pub fn particles_frame<'a>(mass: &'a [f64], pos: &'a [[f64; 3]], vel: &'a [[f64; 3]]) -> Frame<'a> {
    let n = mass.len();
    assert!(pos.len() == n && vel.len() == n, "ragged particle snapshot");
    Frame::new(op::RESP_PARTICLES, 56 * n as u64, n as u64, 0)
        .column(Column::F64(mass))
        .column(Column::V3(pos))
        .column(Column::V3(vel))
}

/// The `aux0` kind tag of a state body (see the module docs).
fn state_kind_tag(s: &ModelState) -> u64 {
    match s {
        ModelState::Stateless => 0,
        ModelState::Gravity { .. } => 1,
        ModelState::Hydro { .. } => 2,
        ModelState::Stellar { .. } => 3,
    }
}

/// Encode a [`ModelState`] as a full frame under `opcode`
/// (`LOAD_STATE` or `RESP_STATE`): aux0 = kind, aux1 = element count.
/// Crate-visible so the checkpoint container writer can frame a
/// borrowed state without cloning it into a [`Response`] first.
pub(crate) fn encode_state_frame(opcode: u8, s: &ModelState, buf: &mut Vec<u8>) {
    // the header is sized from the element count, so a ragged state
    // would desynchronize the stream — reject it before any byte moves
    if let Err(e) = s.check_columns() {
        panic!("{e}");
    }
    begin_frame(buf, opcode, s.wire_body_size(), state_kind_tag(s), s.len() as u64);
    match s {
        ModelState::Stateless => {}
        ModelState::Gravity { time, mass, pos, vel } => {
            put_f64(buf, *time);
            put_f64s(buf, mass);
            put_v3s(buf, pos);
            put_v3s(buf, vel);
        }
        ModelState::Hydro { time, mass, pos, vel, u, rho, h } => {
            put_f64(buf, *time);
            put_f64s(buf, mass);
            put_v3s(buf, pos);
            put_v3s(buf, vel);
            for col in [u, rho, h] {
                put_f64s(buf, col);
            }
        }
        ModelState::Stellar { time_myr, z, initial_masses, exploded } => {
            put_f64(buf, *time_myr);
            put_f64(buf, *z);
            put_f64s(buf, initial_masses);
            for &e in exploded {
                buf.push(e as u8);
            }
        }
    }
}

/// Decode a state body from a validated frame (header + payload).
fn decode_state(h: &Header, p: &[u8]) -> Result<ModelState, WireError> {
    let n64 = h.aux1;
    let expect = match h.aux0 {
        0 => (n64 == 0).then_some(0),
        1 => n64.checked_mul(56).and_then(|b| b.checked_add(8)),
        2 => n64.checked_mul(80).and_then(|b| b.checked_add(8)),
        3 => n64.checked_mul(9).and_then(|b| b.checked_add(16)),
        _ => None,
    };
    if expect != Some(h.len) {
        return Err(bad_length(h));
    }
    let n = n64 as usize;
    Ok(match h.aux0 {
        0 => ModelState::Stateless,
        1 => {
            let (op_, ov) = (8 + 8 * n, 8 + 32 * n);
            ModelState::Gravity {
                time: get_f64(p, 0),
                mass: get_f64s(&p[8..op_]),
                pos: get_v3s(&p[op_..ov]),
                vel: get_v3s(&p[ov..ov + 24 * n]),
            }
        }
        2 => {
            let (op_, ov) = (8 + 8 * n, 8 + 32 * n);
            let (ou, orho, oh) = (8 + 56 * n, 8 + 64 * n, 8 + 72 * n);
            ModelState::Hydro {
                time: get_f64(p, 0),
                mass: get_f64s(&p[8..op_]),
                pos: get_v3s(&p[op_..ov]),
                vel: get_v3s(&p[ov..ou]),
                u: get_f64s(&p[ou..orho]),
                rho: get_f64s(&p[orho..oh]),
                h: get_f64s(&p[oh..oh + 8 * n]),
            }
        }
        _ => ModelState::Stellar {
            time_myr: get_f64(p, 0),
            z: get_f64(p, 8),
            initial_masses: get_f64s(&p[16..16 + 8 * n]),
            exploded: (0..n).map(|i| p[16 + 8 * n + i] != 0).collect(),
        },
    })
}

/// Encode any [`Request`] into `buf` (cleared first). The encoded frame
/// is exactly [`Request::wire_size`] bytes long.
// jc-lint: no-alloc
pub fn encode_request(req: &Request, buf: &mut Vec<u8>) {
    match req {
        Request::Ping => encode_simple_request(op::PING, buf),
        Request::GetParticles => encode_simple_request(op::GET_PARTICLES, buf),
        Request::Stop => encode_simple_request(op::STOP, buf),
        Request::SaveState => encode_simple_request(op::SAVE_STATE, buf),
        Request::Shutdown => encode_simple_request(op::SHUTDOWN, buf),
        Request::LoadState(s) => encode_state_frame(op::LOAD_STATE, s, buf),
        Request::EvolveTo(t) => encode_evolve(op::EVOLVE_TO, *t, buf),
        Request::EvolveStars(t) => encode_evolve(op::EVOLVE_STARS, *t, buf),
        Request::SetMasses(m) => encode_set_masses(m, buf),
        Request::Kick(dv) => kick_frame(dv).encode(buf),
        Request::ComputeKick { targets, source_pos, source_mass } => {
            encode_compute_kick(targets, source_pos, source_mass, buf)
        }
        Request::Step { dv, n, t } => step_frame(dv, *n, *t).encode(buf),
        Request::ComputeField { star_pos, gas_pos, masses, star_range, gas_range } => {
            let masses = masses.as_ref().map(|(s, g)| (&s[..], &g[..]));
            compute_field_frame(star_pos, gas_pos, masses, *star_range, *gas_range).encode(buf)
        }
        Request::InjectEnergy { center, radius, energy } => {
            begin_frame(buf, op::INJECT_ENERGY, 40, 0, 0);
            put_v3(buf, center);
            put_f64(buf, *radius);
            put_f64(buf, *energy);
        }
        Request::AddGas { pos, mass, u } => {
            begin_frame(buf, op::ADD_GAS, 40, 0, 0);
            put_v3(buf, pos);
            put_f64(buf, *mass);
            put_f64(buf, *u);
        }
    }
    debug_assert_eq!(buf.len() as u64, req.wire_size(), "frame size != modeled wire size");
}

/// Encode any [`Response`] into `buf` (cleared first). The encoded frame
/// is exactly [`Response::wire_size`] bytes long.
// jc-lint: no-alloc
pub fn encode_response(resp: &Response, buf: &mut Vec<u8>) {
    match resp {
        Response::Ok { flops } => {
            begin_frame(buf, op::RESP_OK, 8, 0, 0);
            put_f64(buf, *flops);
        }
        Response::Particles(p) => particles_frame(&p.mass, &p.pos, &p.vel).encode(buf),
        Response::Accelerations { acc, flops } => accelerations_frame(acc, *flops).encode(buf),
        Response::Stepped { pos, flops } => stepped_frame(pos, *flops).encode(buf),
        Response::StellarUpdate { masses, events } => {
            let len = 8 * masses.len() as u64 + 32 * events.len() as u64;
            begin_frame(
                buf,
                op::RESP_STELLAR_UPDATE,
                len,
                masses.len() as u64,
                events.len() as u64,
            );
            for &m in masses {
                put_f64(buf, m);
            }
            for ev in events {
                match ev {
                    StellarEvent::Supernova { star, ejected_mass, energy_foe } => {
                        put_u64(buf, 0);
                        put_u64(buf, *star as u64);
                        put_f64(buf, *ejected_mass);
                        put_f64(buf, *energy_foe);
                    }
                    StellarEvent::WindMassLoss { star, mass } => {
                        put_u64(buf, 1);
                        put_u64(buf, *star as u64);
                        put_f64(buf, *mass);
                        put_f64(buf, 0.0);
                    }
                }
            }
        }
        Response::State(s) => encode_state_frame(op::RESP_STATE, s, buf),
        Response::Unsupported => begin_frame(buf, op::RESP_UNSUPPORTED, 0, 0, 0),
        Response::Error(e) => {
            begin_frame(buf, op::RESP_ERROR, e.len() as u64, 0, 0);
            buf.extend_from_slice(e.as_bytes());
        }
    }
    debug_assert_eq!(buf.len() as u64, resp.wire_size(), "frame size != modeled wire size");
}

// --------------------------------------------------------------------------
// decoding

#[inline]
fn get_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

#[inline]
fn get_f64(b: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

#[inline]
fn get_v3(b: &[u8], off: usize) -> [f64; 3] {
    [get_f64(b, off), get_f64(b, off + 8), get_f64(b, off + 16)]
}

/// Parse and validate a frame header from its first [`HEADER_LEN`] bytes.
pub fn parse_header(bytes: &[u8]) -> Result<Header, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated { expected: HEADER_LEN, got: bytes.len() });
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    // Accept every version up to ours; reject newer frames before
    // trusting their length, and reject frames stamped older than their
    // opcode requires (see "Version negotiation" in the module docs).
    let version = bytes[4];
    if version == 0 || version > VERSION || version < opcode_version(bytes[5]) {
        return Err(WireError::BadVersion(version));
    }
    let len = get_u64(bytes, 8);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok(Header {
        opcode: bytes[5],
        seq: u16::from_le_bytes(bytes[SEQ_OFFSET..SEQ_OFFSET + 2].try_into().unwrap()),
        len,
        aux0: get_u64(bytes, 16),
        aux1: get_u64(bytes, 24),
    })
}

/// Parse a full frame (header + payload in one slice), validating that
/// the payload is entirely present.
fn parse_frame(frame: &[u8]) -> Result<(Header, &[u8]), WireError> {
    let h = parse_header(frame)?;
    let need = HEADER_LEN + h.len as usize;
    if frame.len() < need {
        return Err(WireError::Truncated { expected: need, got: frame.len() });
    }
    Ok((h, &frame[HEADER_LEN..need]))
}

fn bad_length(h: &Header) -> WireError {
    WireError::BadLength { opcode: h.opcode, len: h.len, aux0: h.aux0, aux1: h.aux1 }
}

/// Counted payloads: validate `len == count * stride` (with the count
/// also bounded by the already-capped length) and return the count.
fn checked_count(h: &Header, count: u64, stride: u64, remaining: u64) -> Result<usize, WireError> {
    if count.checked_mul(stride) != Some(remaining) {
        return Err(bad_length(h));
    }
    Ok(count as usize)
}

/// Decode a request frame.
pub fn decode_request(frame: &[u8]) -> Result<Request, WireError> {
    let (h, p) = parse_frame(frame)?;
    match h.opcode {
        op::PING | op::GET_PARTICLES | op::STOP | op::SAVE_STATE | op::SHUTDOWN => {
            if h.len != 0 {
                return Err(bad_length(&h));
            }
            Ok(match h.opcode {
                op::PING => Request::Ping,
                op::GET_PARTICLES => Request::GetParticles,
                op::SAVE_STATE => Request::SaveState,
                op::SHUTDOWN => Request::Shutdown,
                _ => Request::Stop,
            })
        }
        op::LOAD_STATE => Ok(Request::LoadState(decode_state(&h, p)?)),
        op::EVOLVE_TO | op::EVOLVE_STARS => {
            if h.len != 8 {
                return Err(bad_length(&h));
            }
            let t = get_f64(p, 0);
            Ok(if h.opcode == op::EVOLVE_TO {
                Request::EvolveTo(t)
            } else {
                Request::EvolveStars(t)
            })
        }
        op::SET_MASSES => {
            let n = checked_count(&h, h.aux0, 8, h.len)?;
            Ok(Request::SetMasses(get_f64s(&p[..8 * n])))
        }
        op::KICK => Ok(Request::Kick(view_kick(frame, &mut Vec::new())?.to_vec())),
        op::COMPUTE_KICK => {
            let (mut targets, mut source_pos, mut source_mass) =
                (Vec::new(), Vec::new(), Vec::new());
            decode_compute_kick_into(frame, &mut targets, &mut source_pos, &mut source_mass)?;
            Ok(Request::ComputeKick { targets, source_pos, source_mass })
        }
        op::STEP => {
            let mut scratch = Vec::new();
            let (dv, n, t) = view_step(frame, &mut scratch)?;
            Ok(Request::Step { dv: dv.to_vec(), n, t })
        }
        op::COMPUTE_FIELD => {
            let (mut scratch, mut star_mass, mut gas_mass) = Default::default();
            let f = view_compute_field(frame, &mut scratch, (&mut star_mass, &mut gas_mass))?;
            Ok(Request::ComputeField {
                star_pos: f.star_pos.to_vec(),
                gas_pos: f.gas_pos.to_vec(),
                masses: f.at.primes.then_some((star_mass, gas_mass)),
                star_range: f.at.star_range,
                gas_range: f.at.gas_range,
            })
        }
        op::INJECT_ENERGY | op::ADD_GAS => {
            if h.len != 40 {
                return Err(bad_length(&h));
            }
            let v = get_v3(p, 0);
            let (a, b) = (get_f64(p, 24), get_f64(p, 32));
            Ok(if h.opcode == op::INJECT_ENERGY {
                Request::InjectEnergy { center: v, radius: a, energy: b }
            } else {
                Request::AddGas { pos: v, mass: a, u: b }
            })
        }
        other => Err(WireError::UnknownOpcode(other)),
    }
}

/// Decode a response frame.
pub fn decode_response(frame: &[u8]) -> Result<Response, WireError> {
    let (h, p) = parse_frame(frame)?;
    match h.opcode {
        op::RESP_OK => Ok(Response::Ok { flops: decode_ok(frame)? }),
        op::RESP_PARTICLES => {
            let mut out = ParticleData::default();
            decode_particles_into(frame, &mut out)?;
            Ok(Response::Particles(out))
        }
        op::RESP_ACCELERATIONS => {
            let mut acc = Vec::new();
            let flops = decode_accelerations_into(frame, &mut acc)?;
            Ok(Response::Accelerations { acc, flops })
        }
        op::RESP_STEPPED => {
            let mut pos = Vec::new();
            let flops = decode_stepped_into(frame, &mut pos)?;
            Ok(Response::Stepped { pos, flops })
        }
        op::RESP_STELLAR_UPDATE => {
            let m = h.aux0;
            let e = h.aux1;
            let expect =
                m.checked_mul(8).and_then(|a| e.checked_mul(32).and_then(|b| a.checked_add(b)));
            if expect != Some(h.len) {
                return Err(bad_length(&h));
            }
            let (m, e) = (m as usize, e as usize);
            let masses = (0..m).map(|i| get_f64(p, 8 * i)).collect();
            let base = 8 * m;
            let mut events = Vec::with_capacity(e);
            for i in 0..e {
                let off = base + 32 * i;
                let kind = get_u64(p, off);
                let star = get_u64(p, off + 8) as usize;
                let (a, b) = (get_f64(p, off + 16), get_f64(p, off + 24));
                events.push(match kind {
                    0 => StellarEvent::Supernova { star, ejected_mass: a, energy_foe: b },
                    1 => StellarEvent::WindMassLoss { star, mass: a },
                    k => return Err(WireError::BadEventKind(k)),
                });
            }
            Ok(Response::StellarUpdate { masses, events })
        }
        op::RESP_STATE => Ok(Response::State(decode_state(&h, p)?)),
        op::RESP_UNSUPPORTED => {
            if h.len != 0 {
                return Err(bad_length(&h));
            }
            Ok(Response::Unsupported)
        }
        op::RESP_ERROR => match std::str::from_utf8(p) {
            Ok(s) => Ok(Response::Error(s.to_string())),
            Err(_) => Err(WireError::Utf8),
        },
        other => Err(WireError::UnknownOpcode(other)),
    }
}

/// Fast path: decode a `Particles` response straight into `out`,
/// reusing its buffers (no allocation once warm). Any other valid
/// response opcode yields [`WireError::Unexpected`].
// jc-lint: no-alloc
pub fn decode_particles_into(frame: &[u8], out: &mut ParticleData) -> Result<(), WireError> {
    let (h, p) = parse_frame(frame)?;
    if h.opcode != op::RESP_PARTICLES {
        return Err(WireError::Unexpected(h.opcode));
    }
    let n = checked_count(&h, h.aux0, 56, h.len)?;
    let off_pos = 8 * n;
    let off_vel = off_pos + 24 * n;
    get_f64s_into(&mut out.mass, &p[..off_pos]);
    get_v3s_into(&mut out.pos, &p[off_pos..off_vel]);
    get_v3s_into(&mut out.vel, &p[off_vel..off_vel + 24 * n]);
    Ok(())
}

/// Fast path: a `Kick` request's half-kick read in place in the frame
/// (the server's per-step hot path), or decoded into `scratch` when the
/// frame cannot be viewed (see the module docs). Any other valid opcode
/// yields [`WireError::Unexpected`].
// jc-lint: no-alloc
pub fn view_kick<'a>(
    frame: &'a [u8],
    scratch: &'a mut Vec<[f64; 3]>,
) -> Result<&'a [[f64; 3]], WireError> {
    let (h, p) = parse_frame(frame)?;
    if h.opcode != op::KICK {
        return Err(WireError::Unexpected(h.opcode));
    }
    let n = checked_count(&h, h.aux0, 24, h.len)?;
    Ok(v3s_in(&p[..24 * n], scratch))
}

/// Fast path: decode a `ComputeKick` request's three columns into
/// reusable scratch (the sharded coupling server's hot path).
// jc-lint: no-alloc
pub fn decode_compute_kick_into(
    frame: &[u8],
    targets: &mut Vec<[f64; 3]>,
    source_pos: &mut Vec<[f64; 3]>,
    source_mass: &mut Vec<f64>,
) -> Result<(), WireError> {
    let (h, p) = parse_frame(frame)?;
    if h.opcode != op::COMPUTE_KICK {
        return Err(WireError::Unexpected(h.opcode));
    }
    let (t, s) = (h.aux0, h.aux1);
    let expect = t.checked_mul(24).and_then(|a| s.checked_mul(32).and_then(|b| a.checked_add(b)));
    if expect != Some(h.len) {
        return Err(bad_length(&h));
    }
    let (t, s) = (t as usize, s as usize);
    let off_sp = 24 * t;
    let off_sm = off_sp + 24 * s;
    get_v3s_into(targets, &p[..off_sp]);
    get_v3s_into(source_pos, &p[off_sp..off_sm]);
    get_f64s_into(source_mass, &p[off_sm..off_sm + 8 * s]);
    Ok(())
}

/// Fast path: a `Step` request's half-kick read in place in the frame
/// (the server's per-substep hot path), or decoded into `scratch` when
/// the frame cannot be viewed; with its kick count and target time. A
/// count beyond `u32` saturates; the host refuses it.
// jc-lint: no-alloc
pub fn view_step<'a>(
    frame: &'a [u8],
    scratch: &'a mut Vec<[f64; 3]>,
) -> Result<(&'a [[f64; 3]], u32, f64), WireError> {
    let (h, p) = parse_frame(frame)?;
    if h.opcode != op::STEP {
        return Err(WireError::Unexpected(h.opcode));
    }
    if h.aux0.checked_mul(24).and_then(|b| b.checked_add(8)) != Some(h.len) {
        return Err(bad_length(&h));
    }
    let n = u32::try_from(h.aux1).unwrap_or(u32::MAX);
    Ok((v3s_in(&p[8..8 + 24 * h.aux0 as usize], scratch), n, get_f64(p, 0)))
}

/// What a `ComputeField` frame asks for besides its columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldTargets {
    /// `[start, end)` of the star targets, as sent: a bound beyond
    /// `usize` saturates, and the host refuses ranges outside the sets.
    pub star_range: (usize, usize),
    /// `[start, end)` of the gas targets, likewise.
    pub gas_range: (usize, usize),
    /// The frame carried masses (the [`FIELD_MASSES`] flag).
    pub primes: bool,
}

/// A `ComputeField` request as the host reads it: both position columns
/// in place in the frame (or in scratch, when it cannot be viewed).
pub struct FieldView<'a> {
    /// The star positions.
    pub star_pos: &'a [[f64; 3]],
    /// The gas positions.
    pub gas_pos: &'a [[f64; 3]],
    /// The target ranges and the mass flag.
    pub at: FieldTargets,
}

/// Fast path: a `ComputeField` request's positions read in place in the
/// frame (the coupling host's hot path), each decoded into its `scratch`
/// column instead when the frame cannot be viewed. A priming frame's
/// masses are copied into `masses` — the host keeps them for the epoch —
/// and a mass-free frame leaves `masses` as they are. The length must
/// agree with the counts and the mass flag.
// jc-lint: no-alloc
pub fn view_compute_field<'a>(
    frame: &'a [u8],
    scratch: &'a mut [Vec<[f64; 3]>; 2],
    masses: (&mut Vec<f64>, &mut Vec<f64>),
) -> Result<FieldView<'a>, WireError> {
    let (h, p) = parse_frame(frame)?;
    if h.opcode != op::COMPUTE_FIELD {
        return Err(WireError::Unexpected(h.opcode));
    }
    let primes = h.aux0 & FIELD_MASSES != 0;
    let (s, g) = (h.aux0 & !FIELD_MASSES, h.aux1);
    let stride = if primes { 32 } else { 24 };
    let expect =
        s.checked_add(g).and_then(|n| n.checked_mul(stride)).and_then(|b| b.checked_add(32));
    if expect != Some(h.len) {
        return Err(bad_length(&h));
    }
    let bound = |i: usize| usize::try_from(get_u64(p, 8 * i)).unwrap_or(usize::MAX);
    let (s, g) = (s as usize, g as usize);
    let (off_gas, off_mass) = (32 + 24 * s, 32 + 24 * (s + g));
    if primes {
        let mid = off_mass + 8 * s;
        get_f64s_into(masses.0, &p[off_mass..mid]);
        get_f64s_into(masses.1, &p[mid..mid + 8 * g]);
    }
    let [star_scratch, gas_scratch] = scratch;
    Ok(FieldView {
        star_pos: v3s_in(&p[32..off_gas], star_scratch),
        gas_pos: v3s_in(&p[off_gas..off_mass], gas_scratch),
        at: FieldTargets {
            star_range: (bound(0), bound(1)),
            gas_range: (bound(2), bound(3)),
            primes,
        },
    })
}

/// Fast path: decode a `Stepped` response's positions into `pos`
/// (cleared and refilled), returning the modeled flops carried in aux1.
// jc-lint: no-alloc
pub fn decode_stepped_into(frame: &[u8], pos: &mut Vec<[f64; 3]>) -> Result<f64, WireError> {
    let (h, p) = parse_frame(frame)?;
    if h.opcode != op::RESP_STEPPED {
        return Err(WireError::Unexpected(h.opcode));
    }
    let n = checked_count(&h, h.aux0, 24, h.len)?;
    get_v3s_into(pos, &p[..24 * n]);
    Ok(f64::from_bits(h.aux1))
}

/// Fast path: decode an `Accelerations` response into `out` (cleared
/// and refilled), returning the modeled flops carried in aux1.
// jc-lint: no-alloc
pub fn decode_accelerations_into(frame: &[u8], out: &mut Vec<[f64; 3]>) -> Result<f64, WireError> {
    let (h, p) = parse_frame(frame)?;
    if h.opcode != op::RESP_ACCELERATIONS {
        return Err(WireError::Unexpected(h.opcode));
    }
    let n = checked_count(&h, h.aux0, 24, h.len)?;
    get_v3s_into(out, &p[..24 * n]);
    Ok(f64::from_bits(h.aux1))
}

/// Fast path: decode an `Ok` response, returning its flops.
// jc-lint: no-alloc
pub fn decode_ok(frame: &[u8]) -> Result<f64, WireError> {
    let (h, p) = parse_frame(frame)?;
    if h.opcode != op::RESP_OK {
        return Err(WireError::Unexpected(h.opcode));
    }
    if h.len != 8 {
        return Err(bad_length(&h));
    }
    Ok(get_f64(p, 0))
}

// --------------------------------------------------------------------------
// framed I/O

/// Read one frame into `buf`, returning the frame's length in bytes.
///
/// `buf` is a reusable scratch buffer: it is grown monotonically (never
/// shrunk, never re-zeroed below its high-water mark, so a warm steady
/// state pays no memset) and `buf[..returned_len]` holds the frame —
/// bytes past the returned length are stale and must be ignored, which
/// every decoder does by trusting the header's length field.
///
/// Distinguishes a clean close *between* frames ([`WireError::Closed`])
/// from a mid-frame truncation. The header is validated (magic, version,
/// length cap) before the payload buffer is sized, and the buffer grows
/// in [`READ_CHUNK`] steps as bytes arrive — so a hostile length prefix
/// never triggers an allocation beyond one chunk past what the peer has
/// actually sent.
// jc-lint: no-alloc
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<usize, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated { expected: HEADER_LEN, got }
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    let h = parse_header(&header)?;
    let total = HEADER_LEN + h.len as usize;
    if buf.len() < HEADER_LEN {
        buf.resize(HEADER_LEN, 0);
    }
    buf[..HEADER_LEN].copy_from_slice(&header);
    let mut got = HEADER_LEN;
    while got < total {
        // Grow the scratch towards `total` only as bytes actually
        // arrive: a hostile length prefix from a stalled peer pins at
        // most one chunk, never the full declared payload. A warm
        // buffer already covers `total` and takes the no-resize path.
        let end = total.min(got + READ_CHUNK).max(buf.len().min(total));
        if buf.len() < end {
            buf.resize(end, 0);
        }
        match r.read(&mut buf[got..end]) {
            Ok(0) => return Err(WireError::Truncated { expected: total, got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_match_modeled_wire_size() {
        let reqs = [
            Request::Ping,
            Request::Stop,
            Request::GetParticles,
            Request::EvolveTo(0.25),
            Request::EvolveStars(12.5),
            Request::SetMasses(vec![1.0, 2.0, 3.0]),
            Request::Kick(vec![[0.1, -0.2, 0.3]; 5]),
            Request::ComputeKick {
                targets: vec![[1.0; 3]; 4],
                source_pos: vec![[2.0; 3]; 7],
                source_mass: vec![0.5; 7],
            },
            Request::InjectEnergy { center: [1.0, 2.0, 3.0], radius: 0.2, energy: 1.5 },
            Request::AddGas { pos: [0.0; 3], mass: 0.01, u: 0.5 },
        ];
        let mut buf = Vec::new();
        for req in &reqs {
            encode_request(req, &mut buf);
            assert_eq!(buf.len() as u64, req.wire_size(), "{req:?}");
            let back = decode_request(&buf).unwrap();
            assert_eq!(format!("{back:?}"), format!("{req:?}"));
        }
    }

    #[test]
    fn response_frames_match_modeled_wire_size() {
        let resps = [
            Response::Ok { flops: 123.0 },
            Response::Particles(ParticleData {
                mass: vec![1.0, 2.0],
                pos: vec![[0.0; 3]; 2],
                vel: vec![[1.0; 3]; 2],
            }),
            Response::Accelerations { acc: vec![[9.0; 3]; 3], flops: 77.0 },
            Response::StellarUpdate {
                masses: vec![1.0, 8.0],
                events: vec![
                    StellarEvent::Supernova { star: 1, ejected_mass: 6.0, energy_foe: 10.0 },
                    StellarEvent::WindMassLoss { star: 0, mass: 1e-3 },
                ],
            },
            Response::Unsupported,
            Response::Error("boom".into()),
        ];
        let mut buf = Vec::new();
        for resp in &resps {
            encode_response(resp, &mut buf);
            assert_eq!(buf.len() as u64, resp.wire_size(), "{resp:?}");
            let back = decode_response(&buf).unwrap();
            assert_eq!(format!("{back:?}"), format!("{resp:?}"));
        }
    }

    #[test]
    fn nan_and_infinity_round_trip_bit_exactly() {
        let dv = vec![[f64::NAN, f64::INFINITY, f64::NEG_INFINITY], [-0.0, 0.0, 1e-308]];
        let mut buf = Vec::new();
        encode_request(&Request::Kick(dv.clone()), &mut buf);
        match decode_request(&buf).unwrap() {
            Request::Kick(back) => {
                for (a, b) in dv.iter().zip(&back) {
                    for k in 0..3 {
                        assert_eq!(a[k].to_bits(), b[k].to_bits());
                    }
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn state_frames_round_trip_and_match_modeled_wire_size() {
        let states = [
            ModelState::Stateless,
            ModelState::Gravity {
                time: 0.5,
                mass: vec![1.0, 2.0],
                pos: vec![[0.1; 3]; 2],
                vel: vec![[f64::NAN, -0.0, 3.0]; 2],
            },
            ModelState::Hydro {
                time: 0.25,
                mass: vec![0.5; 3],
                pos: vec![[1.0; 3]; 3],
                vel: vec![[2.0; 3]; 3],
                u: vec![1e-3; 3],
                rho: vec![0.9; 3],
                h: vec![0.1, 0.2, 0.3],
            },
            ModelState::Stellar {
                time_myr: 7.5,
                z: 0.02,
                initial_masses: vec![1.0, 30.0],
                exploded: vec![true, false],
            },
        ];
        let mut buf = Vec::new();
        for s in &states {
            let req = Request::LoadState(s.clone());
            encode_request(&req, &mut buf);
            assert_eq!(buf.len() as u64, req.wire_size(), "{s:?}");
            match decode_request(&buf).unwrap() {
                Request::LoadState(back) => {
                    assert_eq!(format!("{back:?}"), format!("{s:?}"))
                }
                other => panic!("{other:?}"),
            }
            let resp = Response::State(s.clone());
            encode_response(&resp, &mut buf);
            assert_eq!(buf.len() as u64, resp.wire_size(), "{s:?}");
            match decode_response(&buf).unwrap() {
                Response::State(back) => {
                    assert_eq!(format!("{back:?}"), format!("{s:?}"))
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn version_stamping_follows_the_opcode() {
        let mut buf = Vec::new();
        encode_request(&Request::Ping, &mut buf);
        assert_eq!(buf[4], 1, "v1 opcode keeps the v1 stamp");
        encode_request(&Request::SaveState, &mut buf);
        assert_eq!(buf[4], 2, "v2 opcode carries the v2 stamp");
        encode_request(&Request::Step { dv: vec![], n: 1, t: 0.0 }, &mut buf);
        assert_eq!(buf[4], 3, "the step kept its v3 layout and stamp");
        encode_response(&Response::Stepped { pos: vec![], flops: 0.0 }, &mut buf);
        assert_eq!(buf[4], 4, "the positions-only answer is v4");

        // a v2 opcode forged with a v1 stamp is rejected on the version
        encode_request(&Request::Shutdown, &mut buf);
        buf[4] = 1;
        assert_eq!(decode_request(&buf).unwrap_err(), WireError::BadVersion(1));

        // frames from the future are rejected before the length is used
        encode_request(&Request::Ping, &mut buf);
        buf[4] = VERSION + 1;
        assert_eq!(decode_request(&buf).unwrap_err(), WireError::BadVersion(VERSION + 1));
    }

    #[test]
    fn sequence_numbers_stamp_and_parse_without_resizing_the_frame() {
        let mut buf = Vec::new();
        encode_request(&Request::Kick(vec![[1.0; 3]; 3]), &mut buf);
        let req = Request::Kick(vec![[1.0; 3]; 3]);
        assert_eq!(frame_seq(&buf), 0, "begin_frame stamps the unsequenced zero");
        let before = buf.len();
        set_seq(&mut buf, 0xBEEF);
        assert_eq!(buf.len(), before, "stamping must not resize the frame");
        assert_eq!(buf.len() as u64, req.wire_size());
        assert_eq!(frame_seq(&buf), 0xBEEF);
        assert_eq!(parse_header(&buf).unwrap().seq, 0xBEEF);
        // the payload decodes unchanged: seq lives in the old reserved bytes
        assert!(matches!(decode_request(&buf).unwrap(), Request::Kick(v) if v.len() == 3));
        assert_eq!(frame_seq(&buf[..8]), 0, "short buffer reads as unsequenced");
    }

    #[test]
    fn transient_taxonomy_splits_transport_from_protocol_bugs() {
        for e in [
            WireError::Closed,
            WireError::Io(std::io::ErrorKind::TimedOut),
            WireError::Truncated { expected: 32, got: 7 },
            WireError::BadMagic(7),
            WireError::BadVersion(9),
            WireError::UnknownOpcode(0x7F),
            WireError::Oversized(u64::MAX),
        ] {
            assert!(e.is_transient(), "{e:?} should be retryable");
        }
        for e in [
            WireError::BadLength { opcode: 5, len: 1, aux0: 0, aux1: 0 },
            WireError::BadEventKind(9),
            WireError::Utf8,
            WireError::Unexpected(0x81),
            WireError::DeadlineExceeded { budget_ms: 250 },
        ] {
            assert!(!e.is_transient(), "{e:?} should escalate, not retry");
        }
    }

    /// Step, kick and field frames of columns of `n` particles, each
    /// with the columns it borrows.
    fn bulk_frames<'a>(dv: &'a [[f64; 3]], m: &'a [f64]) -> Vec<Frame<'a>> {
        vec![
            kick_frame(dv),
            step_frame(dv, 2, 0.125),
            compute_field_frame(dv, &dv[1..], Some((m, &m[1..])), (0, 2), (1, 3)),
            compute_field_frame(&dv[2..], dv, None, (0, 1), (0, dv.len())),
        ]
    }

    #[test]
    fn frame_parts_are_the_encoded_frame() {
        let dv: Vec<[f64; 3]> = (0..5).map(|i| [i as f64, -0.5, f64::NAN]).collect();
        let m = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut encoded = Vec::new();
        for mut frame in bulk_frames(&dv, &m) {
            frame.stamp(0xBEEF);
            frame.encode(&mut encoded);
            assert_eq!(encoded.len(), frame.wire_len());
            assert_eq!(frame_seq(&encoded), 0xBEEF);
            let req = decode_request(&encoded).expect("a valid frame");
            assert_eq!(encoded.len() as u64, req.wire_size());
            #[cfg(target_endian = "little")]
            {
                assert_eq!(frame.parts().concat(), encoded);
                for from in [0, 1, HEADER_LEN, HEADER_LEN + 7, encoded.len() - 1, encoded.len()] {
                    let mut tail = vec![7u8; 3];
                    frame.append_tail(from, &mut tail);
                    assert_eq!(tail[3..], encoded[from..], "the tail from {from}");
                }
            }
        }
    }

    /// A stream that takes at most 7 bytes a call, across the slices it
    /// is lent, fails its first call with `Interrupted`, and refuses to
    /// take more than `room` bytes.
    struct Trickle {
        got: Vec<u8>,
        room: usize,
        interrupted: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[std::io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let before = self.got.len();
            for b in bufs {
                let take = b.len().min(before + 7 - self.got.len());
                self.got.extend_from_slice(&b[..take]);
            }
            assert!(
                self.got.len() <= self.room,
                "wrote {} bytes of a {}-byte frame",
                self.got.len(),
                self.room
            );
            Ok(self.got.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_written_whole_through_short_and_interrupted_writes() {
        let dv: Vec<[f64; 3]> = (0..5).map(|i| [i as f64, -0.5, f64::NAN]).collect();
        let m = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut frames = bulk_frames(&dv, &m);
        frames.extend([
            stepped_frame(&dv, 3.5),
            accelerations_frame(&dv[1..], -1.0),
            particles_frame(&m, &dv, &dv),
            stepped_frame(&[], 0.0),
        ]);
        let mut ok = Vec::new();
        encode_ok_frame(2.5, &mut ok);
        frames.extend([Frame::encoded(&ok), Frame::encoded(&[])]);
        let mut encoded = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            frame.encode(&mut encoded);
            let mut w = Trickle { got: Vec::new(), room: encoded.len(), interrupted: false };
            frame.write_to(&mut w).expect("a short write is not an error");
            assert_eq!(w.got, encoded, "frame {i}");
            // every frame lends its header at the start of part 0
            #[cfg(target_endian = "little")]
            {
                let head = encoded.len().min(HEADER_LEN);
                assert_eq!(Frame::encoded(&encoded).parts()[0], &encoded[..head], "frame {i}");
                assert_eq!(frame.parts()[0][..head], encoded[..head], "frame {i}");
            }
        }
    }

    #[test]
    fn framed_io_round_trips() {
        let mut buf = Vec::new();
        encode_request(&Request::EvolveTo(1.5), &mut buf);
        let mut cursor = std::io::Cursor::new(buf.clone());
        let mut rbuf = Vec::new();
        let n = read_frame(&mut cursor, &mut rbuf).unwrap();
        assert_eq!(&rbuf[..n], &buf[..]);
        // a second read on the drained stream is a clean close
        assert_eq!(read_frame(&mut cursor, &mut rbuf), Err(WireError::Closed));
    }

    #[test]
    fn read_frame_scratch_buffer_is_reusable_across_frame_sizes() {
        // big frame, then a small one: the stale tail must not confuse
        // the decoders (the header's length field governs)
        let mut big = Vec::new();
        encode_request(&Request::Kick(vec![[7.0; 3]; 100]), &mut big);
        let mut small = Vec::new();
        encode_request(&Request::EvolveTo(0.5), &mut small);
        let mut rbuf = Vec::new();
        let n = read_frame(&mut std::io::Cursor::new(&big), &mut rbuf).unwrap();
        assert_eq!(n, big.len());
        assert!(matches!(decode_request(&rbuf).unwrap(), Request::Kick(v) if v.len() == 100));
        let n = read_frame(&mut std::io::Cursor::new(&small), &mut rbuf).unwrap();
        assert_eq!(n, small.len());
        assert!(rbuf.len() > n, "scratch keeps its high-water mark");
        assert!(matches!(decode_request(&rbuf).unwrap(), Request::EvolveTo(t) if t == 0.5));
    }
}
