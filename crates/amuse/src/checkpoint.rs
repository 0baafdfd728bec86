//! Checkpoint/restore: the complete solver state as a value.
//!
//! The paper's §5 limitation — *"if one worker crashes, the entire
//! simulation crashes"* — is what this module removes. A
//! [`ModelState`] is everything a kernel needs to continue bitwise from
//! a point in model time; a [`Checkpoint`] bundles the four bridge
//! workers' states with the coupler's own clock so a run can be
//! restarted (same process, respawned worker, or a different machine)
//! and produce output bitwise-identical to one that never failed.
//!
//! Restorability without RNGs or hidden caches: every kernel keeps its
//! derived data (Hermite force cache, SPH rates) *invalid* across
//! bridge iteration boundaries — a kick or feedback step always
//! invalidates them — so the authoritative state is exactly the particle
//! columns plus the model clock (plus, for stellar evolution, the
//! once-only supernova flags). That is what [`ModelState`] carries, and
//! why restore is exact: the first evolve after a restore recomputes the
//! same derived data an uninterrupted run would have recomputed anyway.
//!
//! # Container format
//!
//! [`Checkpoint::write_to`] emits a framed binary container (see the
//! [`crate::wire`] module docs for the byte-level layout):
//!
//! ```text
//! offset  size  field
//! ------  ----  ------------------------------------------------------
//!      0     4  magic 0x4B43_434A ("JCCK", little-endian u32)
//!      4     1  container version (currently 2)
//!      5     3  reserved (zero)
//!      8     8  bridge model time (f64 bits, N-body units)
//!     16     8  iterations completed (u64)
//!     24     8  total supernovae so far (u64)
//!     32     8  section count (u64)
//!     40     …  sections
//! ```
//!
//! Each section is one byte of [`Role`] tag, an ordinary
//! [`crate::wire`] `RESP_STATE` frame holding the model's
//! [`ModelState`], and a little-endian CRC-32 (IEEE) of the tag byte
//! plus the frame — the checkpoint file *is* a sequence of wire
//! frames, so the same codec (and the same validation and versioning
//! rules) covers the network and the disk, and the per-section CRC
//! catches what framing alone cannot: a bit flip inside an f64 column
//! still parses as a perfectly valid frame, but it would silently
//! restore *different physics*. Torn or truncated writes (a full disk,
//! a crash mid-save, the lying-disk model of
//! [`crate::chaos::ChaosWriter`]) surface as typed
//! [`CheckpointError`]s on load — never a panic, never a garbage
//! restore.

use crate::wire::{self, WireError};
use crate::worker::{Request, Response};
use std::io::{Read, Write};

/// Container magic ("JCCK" as a little-endian u32).
pub const CHECKPOINT_MAGIC: u32 = 0x4B43_434A;
/// Current container version (2 added the per-section CRC-32).
pub const CHECKPOINT_VERSION: u8 = 2;

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Portable byte-at-a-time CRC update. This is the reference
/// implementation the accelerated path must match bit-for-bit; it also
/// handles short buffers and the sub-16-byte tail of the folded path.
fn crc32_feed_bytewise(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

fn crc32_feed(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        // The folded path needs a 64-byte head; below that the setup
        // outweighs the byte loop. Sections in a real checkpoint are
        // hundreds of kilobytes, so this is the hot branch.
        if bytes.len() >= 64
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `pclmulqdq` and `sse4.1` were just verified at
            // runtime, discharging the `#[target_feature]` contract,
            // and the length guard satisfies the fn's >= 64 contract.
            return unsafe { crc32_feed_pclmul(state, bytes) };
        }
    }
    crc32_feed_bytewise(state, bytes)
}

/// CRC-32 update over `bytes` using PCLMULQDQ carry-less-multiply
/// folding (the classic reflected-CRC reduction: fold 64-byte stripes,
/// then 16-byte blocks, then a Barrett reduction back to a 32-bit
/// register). Produces output bitwise identical to
/// [`crc32_feed_bytewise`], so the v2 container format is unchanged;
/// the payoff is ~0.1 cycles/byte instead of ~5, which keeps the
/// per-section sums out of the checkpoint hot path.
///
/// # Safety
///
/// Callers must verify `pclmulqdq` and `sse4.1` via
/// `is_x86_feature_detected!` and pass `bytes.len() >= 64`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn crc32_feed_pclmul(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    debug_assert!(bytes.len() >= 64);

    // Folding constants for the reflected IEEE polynomial 0x04C1_1DB7:
    // K1 = x^(4*128+64) mod P, K2 = x^(4*128), K3 = x^(128+64),
    // K4 = x^128 (all bit-reflected), K5 = x^64; P_X and U_PRIME are
    // the polynomial and its Barrett inverse. These are the published
    // constants from Intel's "Fast CRC Computation ... Using PCLMULQDQ"
    // white paper, as used by zlib-ng and crc32fast.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Fold the 128-bit accumulator `a` forward over the next block
    /// `b`: a*K_hi + a*K_lo + b in GF(2).
    #[inline(always)]
    fn fold16(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        // SAFETY: the enclosing fn's `#[target_feature]` contract
        // (checked by the dispatcher) covers these intrinsics; they
        // are register-only, no memory access.
        unsafe {
            let lo = _mm_clmulepi64_si128(a, keys, 0x00);
            let hi = _mm_clmulepi64_si128(a, keys, 0x11);
            _mm_xor_si128(_mm_xor_si128(b, lo), hi)
        }
    }

    let mut p = bytes.as_ptr();
    let mut len = bytes.len();

    // SAFETY: all pointer reads below stay inside `bytes`: the entry
    // guard gives the first 64 bytes, and each loop checks `len`
    // before advancing `p` by the amount it reads (unaligned loads,
    // so no alignment requirement).
    unsafe {
        // Load the first 64 bytes and XOR the incoming register into
        // the low 32 bits of the first block — prepending the running
        // state is exactly an XOR into the first four message bytes.
        let mut x3 = _mm_loadu_si128(p as *const __m128i);
        let mut x2 = _mm_loadu_si128(p.add(16) as *const __m128i);
        let mut x1 = _mm_loadu_si128(p.add(32) as *const __m128i);
        let mut x0 = _mm_loadu_si128(p.add(48) as *const __m128i);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));
        p = p.add(64);
        len -= 64;

        // Fold four 128-bit lanes in parallel over each 64-byte stripe.
        let k1k2 = _mm_set_epi64x(K2, K1);
        while len >= 64 {
            x3 = fold16(x3, _mm_loadu_si128(p as *const __m128i), k1k2);
            x2 = fold16(x2, _mm_loadu_si128(p.add(16) as *const __m128i), k1k2);
            x1 = fold16(x1, _mm_loadu_si128(p.add(32) as *const __m128i), k1k2);
            x0 = fold16(x0, _mm_loadu_si128(p.add(48) as *const __m128i), k1k2);
            p = p.add(64);
            len -= 64;
        }

        // Collapse the four lanes into one, then fold any remaining
        // whole 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(x3, x2, k3k4);
        x = fold16(x, x1, k3k4);
        x = fold16(x, x0, k3k4);
        while len >= 16 {
            x = fold16(x, _mm_loadu_si128(p as *const __m128i), k3k4);
            p = p.add(16);
            len -= 16;
        }

        // Reduce 128 -> 64 bits, then 64 -> 32 via K5.
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction back to the 32-bit register.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pu, 0x10);
        let t2 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(t1, mask32), pu, 0x00), x);
        let folded = _mm_extract_epi32(t2, 1) as u32;

        // Byte-wise tail (< 16 bytes).
        crc32_feed_bytewise(folded, std::slice::from_raw_parts(p, len))
    }
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`. This is
/// the sum guarding each checkpoint section; it is exposed so fixture
/// generators and tests can produce containers with valid (or
/// deliberately broken) sums.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_feed(!0, bytes)
}

/// The complete serializable state of one model worker.
///
/// Per-particle columns are cut identically, so a state slices and
/// concatenates exactly like the particle ranges a
/// [`crate::ShardedChannel`] scatters — a K-shard pool's gathered state
/// is bitwise the unsharded state, and any state re-scatters over any
/// shard count.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelState {
    /// The model carries no evolving state (the coupling solvers: a tree
    /// is rebuilt from the sources on every call).
    Stateless,
    /// Gravitational dynamics (PhiGRAPE): particles + model clock. The
    /// Hermite force cache is derived data and is rebuilt on the first
    /// evolve after a restore.
    Gravity {
        /// Model time, N-body units.
        time: f64,
        /// Masses.
        mass: Vec<f64>,
        /// Positions.
        pos: Vec<[f64; 3]>,
        /// Velocities.
        vel: Vec<[f64; 3]>,
    },
    /// Gas dynamics (Gadget): every SPH column + model clock. `h` seeds
    /// the next density iteration, so it must travel even though it is
    /// re-adapted.
    Hydro {
        /// Model time, N-body units.
        time: f64,
        /// Masses.
        mass: Vec<f64>,
        /// Positions.
        pos: Vec<[f64; 3]>,
        /// Velocities.
        vel: Vec<[f64; 3]>,
        /// Specific internal energies.
        u: Vec<f64>,
        /// Densities (last computed).
        rho: Vec<f64>,
        /// Smoothing lengths (adapted).
        h: Vec<f64>,
    },
    /// Stellar evolution (SSE): star states are a pure function of
    /// (initial mass, metallicity, age), so only the inputs plus the
    /// once-only supernova flags need to travel.
    Stellar {
        /// Model time, Myr.
        time_myr: f64,
        /// Metallicity.
        z: f64,
        /// ZAMS masses, MSun.
        initial_masses: Vec<f64>,
        /// Which stars already exploded.
        exploded: Vec<bool>,
    },
}

impl ModelState {
    /// Number of particles/stars carried (0 for [`ModelState::Stateless`]).
    pub fn len(&self) -> usize {
        match self {
            ModelState::Stateless => 0,
            ModelState::Gravity { mass, .. } => mass.len(),
            ModelState::Hydro { mass, .. } => mass.len(),
            ModelState::Stellar { initial_masses, .. } => initial_masses.len(),
        }
    }

    /// Is the state empty of particles?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Err` names a ragged state — columns of different lengths — in
    /// the words its worker refuses it with. The wire sizes a state
    /// frame from one column, so such a state cannot be framed.
    pub(crate) fn check_columns(&self) -> Result<(), String> {
        let n = self.len();
        let even = match self {
            ModelState::Stateless => true,
            ModelState::Gravity { pos, vel, .. } => pos.len() == n && vel.len() == n,
            ModelState::Hydro { pos, vel, u, rho, h, .. } => {
                [pos.len(), vel.len(), u.len(), rho.len(), h.len()] == [n; 5]
            }
            ModelState::Stellar { exploded, .. } => exploded.len() == n,
        };
        even.then_some(()).ok_or_else(|| format!("ragged {} state", self.kind()))
    }

    /// Copy of the contiguous element range `[start, end)` (every column
    /// cut identically — the shard scatter slice). Scalars (time, z)
    /// are carried along unchanged.
    pub fn slice(&self, start: usize, end: usize) -> ModelState {
        match self {
            ModelState::Stateless => ModelState::Stateless,
            ModelState::Gravity { time, mass, pos, vel } => ModelState::Gravity {
                time: *time,
                mass: mass[start..end].to_vec(),
                pos: pos[start..end].to_vec(),
                vel: vel[start..end].to_vec(),
            },
            ModelState::Hydro { time, mass, pos, vel, u, rho, h } => ModelState::Hydro {
                time: *time,
                mass: mass[start..end].to_vec(),
                pos: pos[start..end].to_vec(),
                vel: vel[start..end].to_vec(),
                u: u[start..end].to_vec(),
                rho: rho[start..end].to_vec(),
                h: h[start..end].to_vec(),
            },
            ModelState::Stellar { time_myr, z, initial_masses, exploded } => ModelState::Stellar {
                time_myr: *time_myr,
                z: *z,
                initial_masses: initial_masses[start..end].to_vec(),
                exploded: exploded[start..end].to_vec(),
            },
        }
    }

    /// Append another state's elements (the shard gather). Fails when
    /// the variants differ or the scalar fields (model time,
    /// metallicity) are not bitwise-equal across shards.
    pub fn append(&mut self, other: &ModelState) -> Result<(), String> {
        match (self, other) {
            (ModelState::Stateless, ModelState::Stateless) => Ok(()),
            (
                ModelState::Gravity { time, mass, pos, vel },
                ModelState::Gravity { time: t2, mass: m2, pos: p2, vel: v2 },
            ) => {
                if time.to_bits() != t2.to_bits() {
                    return Err(format!("shard clocks disagree: {time} vs {t2}"));
                }
                mass.extend_from_slice(m2);
                pos.extend_from_slice(p2);
                vel.extend_from_slice(v2);
                Ok(())
            }
            (
                ModelState::Hydro { time, mass, pos, vel, u, rho, h },
                ModelState::Hydro { time: t2, mass: m2, pos: p2, vel: v2, u: u2, rho: r2, h: h2 },
            ) => {
                if time.to_bits() != t2.to_bits() {
                    return Err(format!("shard clocks disagree: {time} vs {t2}"));
                }
                mass.extend_from_slice(m2);
                pos.extend_from_slice(p2);
                vel.extend_from_slice(v2);
                u.extend_from_slice(u2);
                rho.extend_from_slice(r2);
                h.extend_from_slice(h2);
                Ok(())
            }
            (
                ModelState::Stellar { time_myr, z, initial_masses, exploded },
                ModelState::Stellar { time_myr: t2, z: z2, initial_masses: m2, exploded: e2 },
            ) => {
                if time_myr.to_bits() != t2.to_bits() || z.to_bits() != z2.to_bits() {
                    return Err("shard stellar clocks/metallicities disagree".into());
                }
                initial_masses.extend_from_slice(m2);
                exploded.extend_from_slice(e2);
                Ok(())
            }
            (a, b) => Err(format!("mixed state kinds in one pool: {} vs {}", a.kind(), b.kind())),
        }
    }

    /// Human-readable kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            ModelState::Stateless => "stateless",
            ModelState::Gravity { .. } => "gravity",
            ModelState::Hydro { .. } => "hydro",
            ModelState::Stellar { .. } => "stellar",
        }
    }

    /// Payload size of the wire encoding (see [`crate::wire`]): the
    /// state body that follows a frame header.
    pub fn wire_body_size(&self) -> u64 {
        let n = self.len() as u64;
        match self {
            ModelState::Stateless => 0,
            ModelState::Gravity { .. } => 8 + 56 * n,
            ModelState::Hydro { .. } => 8 + 80 * n,
            ModelState::Stellar { .. } => 16 + 9 * n,
        }
    }
}

/// Which bridge slot a checkpoint section belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The gravitational-dynamics worker.
    Gravity,
    /// The gas-dynamics worker.
    Hydro,
    /// The coupling worker (pool).
    Coupling,
    /// The stellar-evolution worker.
    Stellar,
}

impl Role {
    pub(crate) fn tag(self) -> u8 {
        match self {
            Role::Gravity => 0,
            Role::Hydro => 1,
            Role::Coupling => 2,
            Role::Stellar => 3,
        }
    }

    fn from_tag(t: u8) -> Option<Role> {
        match t {
            0 => Some(Role::Gravity),
            1 => Some(Role::Hydro),
            2 => Some(Role::Coupling),
            3 => Some(Role::Stellar),
            _ => None,
        }
    }

    /// Label used in error messages and monitoring.
    pub fn label(self) -> &'static str {
        match self {
            Role::Gravity => "gravity",
            Role::Hydro => "hydro",
            Role::Coupling => "coupling",
            Role::Stellar => "stellar",
        }
    }
}

/// A complete bridge checkpoint: the coupler's clock plus one
/// [`ModelState`] per worker.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Bridge model time, N-body units.
    pub time: f64,
    /// Outer iterations completed.
    pub iterations: u64,
    /// Supernovae so far (the bridge's cumulative counter).
    pub total_supernovae: u32,
    /// Gravity worker state.
    pub gravity: ModelState,
    /// Hydro worker state.
    pub hydro: ModelState,
    /// Coupling worker state (normally [`ModelState::Stateless`]).
    pub coupling: ModelState,
    /// Stellar worker state, if the bridge has one.
    pub stellar: Option<ModelState>,
}

/// Everything that can go wrong reading a checkpoint container.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// An I/O error from the underlying reader/writer.
    Io(std::io::ErrorKind),
    /// The container does not start with [`CHECKPOINT_MAGIC`].
    BadMagic(u32),
    /// The container version is not [`CHECKPOINT_VERSION`].
    BadVersion(u8),
    /// A section role tag names no known role.
    BadRole(u8),
    /// A section's wire frame failed to decode.
    Wire(WireError),
    /// A section's stored CRC-32 does not match the bytes read back:
    /// bit rot, a torn write, or deliberate corruption. The section
    /// parsed as a frame, but its payload cannot be trusted.
    BadCrc {
        /// Role tag of the failing section.
        role: u8,
        /// The checksum stored in the container.
        stored: u32,
        /// The checksum computed over the bytes actually read.
        computed: u32,
    },
    /// The sections do not form a valid bridge checkpoint (missing or
    /// duplicate roles, or a non-state frame).
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(k) => write!(f, "i/o error: {k:?}"),
            CheckpointError::BadMagic(m) => write!(f, "bad checkpoint magic {m:#010x}"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            CheckpointError::BadRole(t) => write!(f, "unknown section role {t}"),
            CheckpointError::Wire(e) => write!(f, "section frame: {e}"),
            CheckpointError::BadCrc { role, stored, computed } => write!(
                f,
                "section crc mismatch (role {role}): stored {stored:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::Malformed(s) => write!(f, "malformed checkpoint: {s}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> CheckpointError {
        CheckpointError::Wire(e)
    }
}

fn io_err(e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(e.kind())
}

impl Checkpoint {
    /// The sections in container order.
    fn sections(&self) -> Vec<(Role, &ModelState)> {
        let mut s = vec![
            (Role::Gravity, &self.gravity),
            (Role::Hydro, &self.hydro),
            (Role::Coupling, &self.coupling),
        ];
        if let Some(st) = &self.stellar {
            s.push((Role::Stellar, st));
        }
        s
    }

    /// Serialize into any writer (see the module docs for the layout).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        let sections = self.sections();
        let mut head = [0u8; 40];
        head[0..4].copy_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
        head[4] = CHECKPOINT_VERSION;
        head[8..16].copy_from_slice(&self.time.to_le_bytes());
        head[16..24].copy_from_slice(&self.iterations.to_le_bytes());
        head[24..32].copy_from_slice(&(self.total_supernovae as u64).to_le_bytes());
        head[32..40].copy_from_slice(&(sections.len() as u64).to_le_bytes());
        w.write_all(&head).map_err(io_err)?;
        let mut frame = Vec::new();
        for (role, state) in sections {
            w.write_all(&[role.tag()]).map_err(io_err)?;
            // frame the borrowed state directly — no clone into a
            // Response just for the codec
            wire::encode_state_frame(wire::op::RESP_STATE, state, &mut frame);
            w.write_all(&frame).map_err(io_err)?;
            let crc = !crc32_feed(crc32_feed(!0, &[role.tag()]), &frame);
            w.write_all(&crc.to_le_bytes()).map_err(io_err)?;
        }
        Ok(())
    }

    /// Deserialize from any reader.
    pub fn read_from(r: &mut impl Read) -> Result<Checkpoint, CheckpointError> {
        let mut head = [0u8; 40];
        r.read_exact(&mut head).map_err(io_err)?;
        let magic = u32::from_le_bytes(head[0..4].try_into().unwrap());
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic(magic));
        }
        if head[4] != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(head[4]));
        }
        let time = f64::from_le_bytes(head[8..16].try_into().unwrap());
        let iterations = u64::from_le_bytes(head[16..24].try_into().unwrap());
        let total_supernovae = u64::from_le_bytes(head[24..32].try_into().unwrap()) as u32;
        let count = u64::from_le_bytes(head[32..40].try_into().unwrap());
        if count > 16 {
            return Err(CheckpointError::Malformed(format!("{count} sections")));
        }
        let mut gravity = None;
        let mut hydro = None;
        let mut coupling = None;
        let mut stellar = None;
        let mut frame = Vec::new();
        for _ in 0..count {
            let mut tag = [0u8; 1];
            r.read_exact(&mut tag).map_err(io_err)?;
            let role = Role::from_tag(tag[0]).ok_or(CheckpointError::BadRole(tag[0]))?;
            let len = wire::read_frame(r, &mut frame)?;
            let mut stored = [0u8; 4];
            r.read_exact(&mut stored).map_err(io_err)?;
            let stored = u32::from_le_bytes(stored);
            let computed = !crc32_feed(crc32_feed(!0, &tag), &frame[..len]);
            if stored != computed {
                return Err(CheckpointError::BadCrc { role: tag[0], stored, computed });
            }
            let state = match wire::decode_response(&frame[..len])? {
                Response::State(s) => s,
                other => {
                    return Err(CheckpointError::Malformed(format!(
                        "section {} holds a non-state frame: {other:?}",
                        role.label()
                    )))
                }
            };
            let slot = match role {
                Role::Gravity => &mut gravity,
                Role::Hydro => &mut hydro,
                Role::Coupling => &mut coupling,
                Role::Stellar => &mut stellar,
            };
            if slot.replace(state).is_some() {
                return Err(CheckpointError::Malformed(format!(
                    "duplicate {} section",
                    role.label()
                )));
            }
        }
        let missing =
            |r: Role| CheckpointError::Malformed(format!("missing {} section", r.label()));
        Ok(Checkpoint {
            time,
            iterations,
            total_supernovae,
            gravity: gravity.ok_or(missing(Role::Gravity))?,
            hydro: hydro.ok_or(missing(Role::Hydro))?,
            coupling: coupling.ok_or(missing(Role::Coupling))?,
            stellar,
        })
    }

    /// Write the container to a file, atomically: the bytes go to a
    /// sibling `.tmp` file which is fsynced and renamed over the
    /// target, so a crash mid-save never destroys the last-known-good
    /// checkpoint already on disk — the file exists to survive exactly
    /// such crashes.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
        if let Err(e) = self.write_to(&mut f).and_then(|()| f.sync_all().map_err(io_err)) {
            drop(f);
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        drop(f);
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    /// Read a container back from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Checkpoint, CheckpointError> {
        let mut f = std::fs::File::open(path).map_err(io_err)?;
        Checkpoint::read_from(&mut f)
    }
}

/// Build a [`Request::LoadState`] for each of `k` shards: the canonical
/// contiguous split of `state` under [`crate::shard::partition`],
/// returned with the per-shard element counts.
pub fn scatter_states(state: &ModelState, k: usize) -> (Vec<Request>, Vec<usize>) {
    let counts = crate::shard::partition(state.len(), k);
    let mut reqs = Vec::with_capacity(k);
    let mut off = 0usize;
    for &c in &counts {
        reqs.push(Request::LoadState(state.slice(off, off + c)));
        off += c;
    }
    (reqs, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            time: 0.75,
            iterations: 3,
            total_supernovae: 2,
            gravity: ModelState::Gravity {
                time: 0.75,
                mass: vec![1.0, 2.0],
                pos: vec![[0.1; 3], [0.2; 3]],
                vel: vec![[-0.1; 3], [f64::NAN; 3]],
            },
            hydro: ModelState::Hydro {
                time: 0.75,
                mass: vec![0.5; 3],
                pos: vec![[1.0; 3]; 3],
                vel: vec![[2.0; 3]; 3],
                u: vec![1e-3; 3],
                rho: vec![0.9; 3],
                h: vec![0.1, 0.2, 0.3],
            },
            coupling: ModelState::Stateless,
            stellar: Some(ModelState::Stellar {
                time_myr: 4.5,
                z: 0.02,
                initial_masses: vec![1.0, 20.0],
                exploded: vec![false, true],
            }),
        }
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical CRC-32/ISO-HDLC check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn folded_crc_is_bitwise_identical_to_the_bytewise_reference() {
        // Deterministic pseudo-random buffer (splitmix64 stream).
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let buf: Vec<u8> = (0..4096).flat_map(|_| next().to_le_bytes()).collect();
        // Every length class the dispatcher branches on: below the
        // 64-byte folding threshold, exact stripe multiples, ragged
        // 16-byte-block counts, and ragged byte tails; plus unaligned
        // starts, since the folded path uses unaligned loads.
        for len in [0, 1, 15, 16, 63, 64, 65, 79, 80, 127, 128, 129, 1000, 4096, buf.len()] {
            for start in [0usize, 1, 7] {
                let part = &buf[start..(start + len).min(buf.len())];
                for init in [!0u32, 0, 0xDEAD_BEEF] {
                    assert_eq!(
                        crc32_feed(init, part),
                        crc32_feed_bytewise(init, part),
                        "len={len} start={start} init={init:#x}"
                    );
                }
            }
        }
        // Split-feed: running the sum across an arbitrary cut must
        // equal the one-shot sum (sections are streamed in chunks).
        let whole = crc32_feed(!0, &buf);
        for cut in [1usize, 63, 64, 100, 4095] {
            let (a, b) = buf.split_at(cut);
            assert_eq!(crc32_feed(crc32_feed(!0, a), b), whole, "cut={cut}");
        }
    }

    #[test]
    fn container_round_trips_bitwise() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        // PartialEq is false under NaN; compare the debug form of bits
        let bits = |c: &Checkpoint| format!("{c:?}").replace("NaN", "NaN");
        assert_eq!(bits(&ck), bits(&back));
        match (&ck.gravity, &back.gravity) {
            (ModelState::Gravity { vel: a, .. }, ModelState::Gravity { vel: b, .. }) => {
                assert_eq!(a[1][0].to_bits(), b[1][0].to_bits(), "NaN survives bitwise");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn truncated_or_corrupt_containers_error_cleanly() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        for cut in [0, 10, 41, buf.len() - 1] {
            let r = Checkpoint::read_from(&mut std::io::Cursor::new(&buf[..cut]));
            assert!(r.is_err(), "cut at {cut}");
        }
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Checkpoint::read_from(&mut std::io::Cursor::new(&bad)),
            Err(CheckpointError::BadMagic(_))
        ));
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(matches!(
            Checkpoint::read_from(&mut std::io::Cursor::new(&bad)),
            Err(CheckpointError::BadVersion(9))
        ));
    }

    #[test]
    fn payload_bit_flips_are_caught_by_the_section_crc() {
        // A flipped bit inside an f64 column still parses as a valid
        // frame — before v2 it would have silently restored different
        // physics. The CRC must catch it as a typed error.
        let ck = sample();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        // Last byte of the final section's frame payload (the 4 bytes
        // after it are that section's CRC).
        let payload_byte = buf.len() - 5;
        for victim in [payload_byte, buf.len() - 1] {
            let mut bad = buf.clone();
            bad[victim] ^= 0x10;
            assert!(
                matches!(
                    Checkpoint::read_from(&mut std::io::Cursor::new(&bad)),
                    Err(CheckpointError::BadCrc { .. })
                ),
                "flip at {victim}"
            );
        }
    }

    #[test]
    fn silently_truncated_saves_are_caught_on_load() {
        // ChaosWriter models a lying disk: write_to "succeeds" but only
        // the head actually lands. Every such container must fail to
        // load with a typed error — never panic, never restore garbage.
        let ck = sample();
        let mut full = Vec::new();
        ck.write_to(&mut full).unwrap();
        for keep in [0u64, 13, 40, 41, 119, full.len() as u64 - 3] {
            let mut buf = Vec::new();
            let mut w = crate::chaos::ChaosWriter::new(&mut buf, keep);
            ck.write_to(&mut w).unwrap();
            assert_eq!(buf.len() as u64, keep.min(full.len() as u64));
            let r = Checkpoint::read_from(&mut std::io::Cursor::new(&buf));
            assert!(r.is_err(), "keep={keep} loaded anyway");
        }
    }

    #[test]
    fn slice_and_append_invert() {
        let full = match sample().hydro {
            s @ ModelState::Hydro { .. } => s,
            _ => unreachable!(),
        };
        let (reqs, counts) = scatter_states(&full, 2);
        assert_eq!(counts, vec![2, 1]);
        let mut rebuilt: Option<ModelState> = None;
        for req in reqs {
            let Request::LoadState(part) = req else { unreachable!() };
            match &mut rebuilt {
                None => rebuilt = Some(part),
                Some(acc) => acc.append(&part).unwrap(),
            }
        }
        assert_eq!(rebuilt.unwrap(), full);
    }

    #[test]
    fn append_rejects_mixed_kinds_and_clock_skew() {
        let mut a = ModelState::Gravity {
            time: 1.0,
            mass: vec![1.0],
            pos: vec![[0.0; 3]],
            vel: vec![[0.0; 3]],
        };
        assert!(a.append(&ModelState::Stateless).is_err());
        let skew = ModelState::Gravity {
            time: 2.0,
            mass: vec![1.0],
            pos: vec![[0.0; 3]],
            vel: vec![[0.0; 3]],
        };
        assert!(a.append(&skew).is_err());
    }
}
