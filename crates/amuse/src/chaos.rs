//! Deterministic chaos: seeded fault injection for the failover stack.
//!
//! The paper's premise is that jungle resources fail (§5 reports a real
//! mid-run crash), and PR 4 built the recovery machinery — but until
//! now it was only exercised by one hand-written flaky worker. This
//! module is the replayable fault substrate underneath it: a seeded
//! [`FaultPlan`] deterministically schedules faults at named sites —
//!
//! * **connect refused** — a reconnect attempt is denied,
//! * **read / write timeout** — an I/O op fails with `TimedOut`,
//! * **short read** — the stream ends mid-frame,
//! * **partial write** — half a frame leaves, then the pipe breaks,
//! * **byte corruption** — a frame header arrives damaged,
//! * **worker crash after request #n** — the existing server fuse,
//! * **checkpoint write truncation** — a lying disk drops the tail,
//!
//! and the same seed always yields the same fault sequence:
//! the schedule is a pure function of the seed (a splitmix64 walk — no
//! `SystemTime`, no `Instant`, no external RNG, so the `determinism`
//! lint holds for the injected path too).
//!
//! Transport faults are applied by the TCP client itself
//! ([`crate::reactor`]) at frame-op boundaries — it draws from its
//! [`StreamFaults`] once per sent frame, per receive attempt and per
//! reconnect; checkpoint truncation by [`ChaosWriter`], a shim over
//! the container writer; worker crashes map onto
//! [`crate::socket::spawn_flaky_tcp_worker`]'s fuse; and
//! `jc_deploy`'s process supervisor exposes a plan-driven kill hook.
//! On the recovery side, [`RetryPolicy`] bounds the in-place
//! reconnect-and-resend loop (exponential backoff, seed-derived jitter)
//! that absorbs *transient* faults without a checkpoint restore — see
//! [`crate::wire::WireError::is_transient`] for the taxonomy and the
//! "Failure model" section of `docs/ARCHITECTURE.md` for which recovery
//! path owns which site.

use std::io::Write;

/// The deterministic generator behind every schedule: splitmix64
/// (Steele et al.), chosen because it is seedable, splittable by XOR,
/// and five lines long — no dependency, no global state, identical on
/// every platform.
#[derive(Clone, Debug)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// A generator at `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A named fault site, the unit a [`FaultPlan`] schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A *reconnect* attempt is refused (initial connects are never
    /// faulted — a run that cannot start exercises nothing).
    ConnectRefused,
    /// A frame read fails with `TimedOut` before any byte arrives.
    ReadTimeout,
    /// A frame write fails with `TimedOut` before any byte leaves.
    WriteTimeout,
    /// The stream ends (EOF) at the start of a frame read.
    ShortRead,
    /// Half the frame is written, then the connection breaks.
    PartialWrite,
    /// The first header byte of a received frame is bit-flipped, so the
    /// decoder sees `BadMagic` — detectable corruption, the kind the
    /// retry path must absorb.
    CorruptFrame,
    /// The worker process "crashes" after serving request #`op` (the
    /// [`crate::socket::WorkerServer`] fuse).
    WorkerCrash,
    /// A checkpoint container write silently loses its tail (see
    /// [`ChaosWriter`]).
    CheckpointTruncate,
}

/// One scheduled fault: `kind` strikes stream/worker `target` at its
/// `op`-th operation (1-based; frames for transport faults, requests
/// for crashes, `17·op` bytes kept for checkpoint truncation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// What happens.
    pub kind: FaultKind,
    /// Which stream (coupler-side channel index) or worker it happens to.
    pub target: usize,
    /// When it happens, in site-local operation counts.
    pub op: u64,
}

/// Every fault kind, in scheduling order. `FaultPlan::seeded(seed)`
/// picks `KINDS[seed % KINDS.len()]` as the primary fault, so a
/// consecutive seed range `0..8·k` is guaranteed to cover every site.
pub const KINDS: [FaultKind; 8] = [
    FaultKind::ConnectRefused,
    FaultKind::ReadTimeout,
    FaultKind::WriteTimeout,
    FaultKind::ShortRead,
    FaultKind::PartialWrite,
    FaultKind::CorruptFrame,
    FaultKind::WorkerCrash,
    FaultKind::CheckpointTruncate,
];

/// A seeded, fully deterministic fault schedule.
///
/// The plan itself is just the seed; every query re-derives the same
/// schedule, so clones, re-creations, and replays on another machine
/// all inject the identical fault sequence. `tests/chaos.rs` leans on
/// exactly this: a diverging run is reported by seed, and the seed
/// alone reproduces it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

impl FaultPlan {
    /// The plan for `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed }
    }

    /// The full schedule against a run with `streams` coupler-side
    /// channels: one *primary* fault (`KINDS[seed % 8]`, so seed ranges
    /// sweep every site), plus up to two extra transport faults for
    /// denser schedules. A `ConnectRefused` primary brings a read
    /// timeout on the same target along with it — a refused reconnect
    /// can only fire if something forces a reconnect first.
    pub fn schedule(&self, streams: usize) -> Vec<ScheduledFault> {
        let mut out = Vec::new();
        if streams == 0 {
            return out;
        }
        let mut rng = ChaosRng::new(self.seed ^ 0xC0A5_0C0A_5C0A_50C0);
        let primary = KINDS[(self.seed % KINDS.len() as u64) as usize];
        let target = rng.below(streams as u64) as usize;
        let op = 2 + rng.below(6);
        out.push(ScheduledFault { kind: primary, target, op });
        if primary == FaultKind::ConnectRefused {
            out.push(ScheduledFault { kind: FaultKind::ReadTimeout, target, op });
        }
        const EXTRAS: [FaultKind; 5] = [
            FaultKind::ReadTimeout,
            FaultKind::WriteTimeout,
            FaultKind::ShortRead,
            FaultKind::PartialWrite,
            FaultKind::CorruptFrame,
        ];
        for _ in 0..rng.below(3) {
            let kind = EXTRAS[rng.below(EXTRAS.len() as u64) as usize];
            let target = rng.below(streams as u64) as usize;
            let op = 2 + rng.below(6);
            out.push(ScheduledFault { kind, target, op });
        }
        out
    }

    /// The transport faults the plan assigns to stream `idx` of
    /// `streams` — hand the result to
    /// [`crate::ReactorChannel::with_chaos`].
    pub fn stream_faults(&self, streams: usize, idx: usize) -> StreamFaults {
        let mut f = StreamFaults::default();
        for sf in self.schedule(streams) {
            if sf.target != idx {
                continue;
            }
            match sf.kind {
                FaultKind::ReadTimeout => f.read_faults.push((sf.op, IoFault::ReadTimeout)),
                FaultKind::ShortRead => f.read_faults.push((sf.op, IoFault::ShortRead)),
                FaultKind::CorruptFrame => f.read_faults.push((sf.op, IoFault::CorruptHeader)),
                FaultKind::WriteTimeout => f.write_faults.push((sf.op, IoFault::WriteTimeout)),
                FaultKind::PartialWrite => f.write_faults.push((sf.op, IoFault::PartialWrite)),
                FaultKind::ConnectRefused => f.connect_refusals += 1,
                FaultKind::WorkerCrash | FaultKind::CheckpointTruncate => {}
            }
        }
        f
    }

    /// The crash fuse for worker `idx` of `streams`: `Some(n)` loads
    /// [`crate::socket::spawn_flaky_tcp_worker`] with a fuse of `n`
    /// requests, `None` means the plan never crashes this worker.
    pub fn crash_fuse(&self, streams: usize, idx: usize) -> Option<i64> {
        self.schedule(streams)
            .iter()
            .find(|sf| sf.kind == FaultKind::WorkerCrash && sf.target == idx)
            .map(|sf| sf.op as i64)
    }

    /// The checkpoint-truncation point, if the plan schedules one: the
    /// number of bytes a [`ChaosWriter`] should let through. Small by
    /// construction (`17·op` ≤ 119 bytes), so it always lands inside
    /// the container header or its first section.
    pub fn checkpoint_truncation(&self, streams: usize) -> Option<u64> {
        self.schedule(streams)
            .iter()
            .find(|sf| sf.kind == FaultKind::CheckpointTruncate)
            .map(|sf| 17 * sf.op)
    }

    /// Deterministic victim selection for host-level chaos: which of
    /// `n` workers dies in round `round` (the `jc_service` pool's chaos
    /// kills pick their host with it).
    pub fn victim(&self, round: u64, n: usize) -> usize {
        assert!(n > 0, "no workers to pick a victim from");
        ChaosRng::new(self.seed ^ round.wrapping_mul(0x000D_DB1A_50DD_B1A5)).below(n as u64)
            as usize
    }
}

/// One transport-level fault, as applied by [`crate::ReactorChannel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Fail the frame read with `TimedOut` before any byte arrives.
    ReadTimeout,
    /// Return EOF at the start of the frame read.
    ShortRead,
    /// Deliver the frame with its first header byte bit-flipped.
    CorruptHeader,
    /// Fail the frame write with `TimedOut` before any byte leaves.
    WriteTimeout,
    /// Write half the frame, then break the pipe.
    PartialWrite,
}

/// The per-stream fault state a [`FaultPlan`] hands to one
/// [`crate::ReactorChannel`]: which frame-ops fault, counted site-local
/// (received frames, sent frames, reconnect attempts). Each scheduled
/// fault fires exactly once. Tests may also build these directly with
/// the builder methods to script a precise schedule.
#[derive(Clone, Debug, Default)]
pub struct StreamFaults {
    /// `(frame op, fault)` for received frames (1-based op).
    read_faults: Vec<(u64, IoFault)>,
    /// `(frame op, fault)` for sent frames (1-based op).
    write_faults: Vec<(u64, IoFault)>,
    /// How many upcoming reconnect attempts to refuse.
    connect_refusals: u32,
    reads: u64,
    writes: u64,
}

impl StreamFaults {
    /// Builder: fault the `op`-th received frame with `fault` (must be
    /// a read-side [`IoFault`]).
    pub fn with_read(mut self, op: u64, fault: IoFault) -> StreamFaults {
        assert!(
            matches!(fault, IoFault::ReadTimeout | IoFault::ShortRead | IoFault::CorruptHeader),
            "{fault:?} is not a read fault"
        );
        self.read_faults.push((op, fault));
        self
    }

    /// Builder: fault the `op`-th sent frame with `fault` (must be a
    /// write-side [`IoFault`]).
    pub fn with_write(mut self, op: u64, fault: IoFault) -> StreamFaults {
        assert!(
            matches!(fault, IoFault::WriteTimeout | IoFault::PartialWrite),
            "{fault:?} is not a write fault"
        );
        self.write_faults.push((op, fault));
        self
    }

    /// Is any fault still pending?
    pub fn is_empty(&self) -> bool {
        self.read_faults.is_empty() && self.write_faults.is_empty() && self.connect_refusals == 0
    }

    /// Advance the received-frame counter; the fault for this frame, if
    /// one is scheduled (consumed on return).
    pub fn next_read(&mut self) -> Option<IoFault> {
        self.reads += 1;
        let op = self.reads;
        let at = self.read_faults.iter().position(|&(o, _)| o == op)?;
        Some(self.read_faults.remove(at).1)
    }

    /// Advance the sent-frame counter; the fault for this frame, if one
    /// is scheduled (consumed on return).
    pub fn next_write(&mut self) -> Option<IoFault> {
        self.writes += 1;
        let op = self.writes;
        let at = self.write_faults.iter().position(|&(o, _)| o == op)?;
        Some(self.write_faults.remove(at).1)
    }

    /// Should this reconnect attempt be refused? (Consumes one refusal.)
    pub fn next_connect_refused(&mut self) -> bool {
        if self.connect_refusals > 0 {
            self.connect_refusals -= 1;
            true
        } else {
            false
        }
    }
}

/// The checkpoint I/O shim: a writer that models a lying disk. It
/// passes the first `keep` bytes through and then *silently succeeds*
/// while dropping everything else — the failure mode a power cut
/// mid-write leaves behind. The per-section CRC32 of the container
/// format (see [`crate::checkpoint`]) is what turns this into a typed
/// load error instead of a silently-garbage restore.
pub struct ChaosWriter<W> {
    inner: W,
    remaining: u64,
}

impl<W: Write> ChaosWriter<W> {
    /// Pass `keep` bytes through to `inner`, then drop the rest.
    pub fn new(inner: W, keep: u64) -> ChaosWriter<W> {
        ChaosWriter { inner, remaining: keep }
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let pass = (self.remaining.min(buf.len() as u64)) as usize;
        if pass > 0 {
            self.inner.write_all(&buf[..pass])?;
            self.remaining -= pass as u64;
        }
        Ok(buf.len()) // the dropped tail "succeeds": that is the fault
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Bounded retry with exponential backoff and seed-derived jitter — the
/// recovery half of the chaos layer, consumed by
/// [`crate::ReactorChannel::with_retry`].
///
/// The default is [`RetryPolicy::none`]: zero retries, exactly the
/// pre-chaos behavior (one wire failure poisons the channel and
/// escalates to heal/restore). Supervised pools and the chaos harness
/// opt in with [`RetryPolicy::standard`]. Jitter comes from a splitmix
/// draw over `jitter_seed` and the attempt number — never from a clock
/// — so two runs with the same seed back off identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// In-place resend attempts after the first failure (0 = disabled).
    pub max_retries: u32,
    /// First backoff, in milliseconds (doubles per attempt).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub backoff_max_ms: u64,
    /// Seed for the deterministic jitter term.
    pub jitter_seed: u64,
    /// Wall-clock budget for one request, in milliseconds (0 = no
    /// deadline). `max_retries` caps *attempts*, but a schedule of
    /// repeated transient timeouts can still stretch one round trip far
    /// past any caller budget; with a deadline the retry loop gives up
    /// before its next backoff would cross the budget and surfaces the
    /// non-transient [`crate::wire::WireError::DeadlineExceeded`], so
    /// the caller escalates to heal/restore instead of waiting. The
    /// field is plain data — enforcement (clock reads) lives in the
    /// transport layers, keeping this module deterministic.
    pub deadline_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: the original fail-fast, poison-on-first-error
    /// behavior.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff_base_ms: 0,
            backoff_max_ms: 0,
            jitter_seed: 0,
            deadline_ms: 0,
        }
    }

    /// Three bounded retries, 5 ms base backoff capped at 200 ms,
    /// jitter derived from `seed`.
    pub fn standard(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff_base_ms: 5,
            backoff_max_ms: 200,
            jitter_seed: seed,
            deadline_ms: 0,
        }
    }

    /// The same policy with a per-request wall-clock budget of
    /// `deadline_ms` milliseconds (0 disables the bound).
    pub fn with_deadline(mut self, deadline_ms: u64) -> RetryPolicy {
        self.deadline_ms = deadline_ms;
        self
    }

    /// The backoff before retry `attempt` (1-based): exponential from
    /// `backoff_base_ms`, capped at `backoff_max_ms`, plus a
    /// deterministic jitter of at most one base step.
    pub fn backoff(&self, attempt: u32) -> std::time::Duration {
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.backoff_max_ms);
        let jitter = if self.backoff_base_ms == 0 {
            0
        } else {
            ChaosRng::new(self.jitter_seed ^ u64::from(attempt)).below(self.backoff_base_ms + 1)
        };
        std::time::Duration::from_millis(exp + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_yield_identical_schedules() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed).schedule(3);
            let b = FaultPlan::seeded(seed).schedule(3);
            assert_eq!(a, b, "seed {seed} must replay identically");
            assert!(!a.is_empty(), "every plan schedules at least its primary fault");
        }
    }

    #[test]
    fn a_consecutive_seed_range_covers_every_fault_site() {
        let mut seen = Vec::new();
        for seed in 0..KINDS.len() as u64 {
            let primary = FaultPlan::seeded(seed).schedule(4)[0].kind;
            assert!(!seen.contains(&primary), "{primary:?} repeated inside one sweep");
            seen.push(primary);
        }
        assert_eq!(seen.len(), KINDS.len());
    }

    #[test]
    fn stream_faults_fire_once_at_their_op() {
        let mut f = StreamFaults::default()
            .with_read(2, IoFault::ReadTimeout)
            .with_write(1, IoFault::PartialWrite);
        assert_eq!(f.next_write(), Some(IoFault::PartialWrite));
        assert_eq!(f.next_write(), None, "consumed");
        assert_eq!(f.next_read(), None, "op 1 clean");
        assert_eq!(f.next_read(), Some(IoFault::ReadTimeout));
        assert_eq!(f.next_read(), None);
        assert!(f.is_empty());
    }

    #[test]
    fn chaos_writer_keeps_the_head_and_lies_about_the_tail() {
        let mut kept = Vec::new();
        {
            let mut w = ChaosWriter::new(&mut kept, 10);
            w.write_all(&[1u8; 7]).unwrap();
            w.write_all(&[2u8; 7]).unwrap(); // 3 pass, 4 silently dropped
            w.write_all(&[3u8; 7]).unwrap(); // all dropped, still "ok"
        }
        assert_eq!(kept.len(), 10);
        assert_eq!(&kept[..7], &[1u8; 7]);
        assert_eq!(&kept[7..], &[2u8; 3]);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = RetryPolicy::standard(42);
        let seq: Vec<_> = (1..=6).map(|a| p.backoff(a)).collect();
        assert_eq!(seq, (1..=6).map(|a| p.backoff(a)).collect::<Vec<_>>());
        assert!(seq.windows(2).all(|w| w[1] >= w[0] || w[1].as_millis() >= 200));
        assert!(seq.iter().all(|d| d.as_millis() <= (200 + 6) as u128));
        assert_eq!(RetryPolicy::none().backoff(1), std::time::Duration::ZERO);
    }

    #[test]
    fn victim_selection_is_a_pure_function_of_seed_and_round() {
        let plan = FaultPlan::seeded(7);
        for round in 0..16 {
            let v = plan.victim(round, 5);
            assert!(v < 5);
            assert_eq!(v, FaultPlan::seeded(7).victim(round, 5));
        }
    }

    #[test]
    fn connect_refused_plans_force_a_reconnect_first() {
        // find a seed whose primary is ConnectRefused and check the
        // paired read timeout lands on the same target
        let seed = KINDS.iter().position(|&k| k == FaultKind::ConnectRefused).unwrap() as u64;
        let sched = FaultPlan::seeded(seed).schedule(3);
        assert_eq!(sched[0].kind, FaultKind::ConnectRefused);
        assert!(
            sched
                .iter()
                .any(|sf| sf.kind == FaultKind::ReadTimeout && sf.target == sched[0].target),
            "{sched:?}"
        );
        let f = FaultPlan::seeded(seed).stream_faults(3, sched[0].target);
        assert!(!f.is_empty());
    }
}
