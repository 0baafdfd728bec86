//! The TCP client: one readiness-driven loop owning every worker socket.
//!
//! A single-threaded [`Reactor`] registers each socket non-blocking
//! under a connection token, a `poll(2)`-backed poller (the `polling`
//! shim) reports readiness, and per-connection state machines make
//! incremental progress — partial writes resume where they stopped,
//! partial reads accumulate in an incremental [`FrameDecoder`] until a
//! full v2 wire frame is available. [`ReactorChannel`] is the one
//! implementation of the client half of the protocol: sequence
//! stamping, the poison rule, reconnect, the retry/backoff/deadline
//! loop, fault injection, byte accounting and the teardown drain all
//! live here. [`crate::SocketChannel`] is a facade over one
//! `ReactorChannel` on a private reactor.
//!
//! # Pipelining and flushing
//!
//! Because all connections of a reactor live in one loop, *gathering
//! one shard's reply advances every other shard's I/O too*: a fan-out
//! of K requests followed by K collects overlaps all K round trips
//! regardless of collect order. `submit*` only queues its frame; the
//! bytes leave at the next blocking wait on any channel of the reactor,
//! so requests submitted back-to-back on one connection coalesce into
//! one vectored write (one syscall, one wakeup at the peer) and their
//! replies are decoded in order from whatever byte boundaries the
//! kernel delivers. A `SocketChannel` has no sibling whose wait would
//! flush for it, so the facade pushes each frame at submit. Queue
//! depth > 1 on one connection is allowed only with retry and chaos
//! disabled: the server's dedup cache remembers only the *last*
//! mutating frame, so a reconnect-and-resend of two in-flight mutations
//! could double-apply the first one. Depth-1 per connection (what
//! [`crate::ShardedChannel`] uses — the fan-out is *across*
//! connections) keeps the full retry/backoff/heal machinery.
//!
//! # Faults, retry and the timeout rule
//!
//! By default one wire failure poisons the channel (fail fast, escalate
//! to the heal/restore path). A channel built
//! [`ReactorChannel::with_retry`] instead absorbs *transient* faults
//! (see [`WireError::is_transient`]) in place: back off, reconnect,
//! resend the identical sequence-stamped frame; the server's dedup
//! cache (see [`crate::socket`]) replays its cached response to a
//! duplicate, so even mutating requests like `Kick` are applied exactly
//! once. [`crate::chaos::StreamFaults`] are consumed at frame-op
//! boundaries: one write draw per submitted frame, one read draw per
//! receive attempt, one refusal draw per reconnect.
//!
//! `JC_NET_TIMEOUT_MS` (default 5000) bounds the poller waits of a
//! retry-enabled channel only (`max_retries > 0`): a silent peer
//! surfaces as the transient `Io(TimedOut)` and is retried. A channel
//! without retry waits for its reply indefinitely — a paper-scale
//! `EvolveTo` legitimately takes longer than any fixed bound, and with
//! no retry a timeout could only poison the channel. Teardown drains
//! (`Drop`, [`crate::SocketChannel::shutdown_worker`]) are always
//! bounded.
//!
//! # Accounting
//!
//! Every frame is physically [`Request::wire_size`]/
//! [`Response::wire_size`] bytes long, so [`ChannelStats`] counted from
//! *actual* bytes agree exactly with the modeled accounting of the
//! in-process channels. A call counts its frame once — an absorbed
//! resend ticks `retries` instead, and a call that fails after its
//! frame left still credits `bytes_out`. Buffers are recycled: a warm
//! round trip through the typed legs (snapshot, step, field, kick)
//! allocates nothing coupler-side.

use crate::channel::{Channel, ChannelStats};
use crate::chaos::{IoFault, RetryPolicy, StreamFaults};
use crate::wire::{self, WireError, HEADER_LEN, READ_CHUNK};
use crate::worker::{ParticleData, Request, Response};
use polling::{Event, Events, Poller};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::rc::Rc;
use std::time::Duration;

/// The client I/O timeout: `JC_NET_TIMEOUT_MS` (milliseconds, default
/// 5000). Read when a channel is built or torn down, never per frame —
/// see the module docs for which waits it bounds.
pub(crate) fn net_timeout() -> Duration {
    let ms = std::env::var("JC_NET_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(5_000);
    Duration::from_millis(ms)
}

// --------------------------------------------------------------------------
// incremental frame decoder

/// Incremental decoder for one v2 wire frame: pump it from a
/// non-blocking reader ([`FrameDecoder::read_from`]) in whatever pieces
/// the transport delivers (1-byte reads, header/payload straddles,
/// several frames per buffer) and get exactly the frame
/// [`wire::read_frame`] would have produced.
///
/// The contract mirrors `read_frame` point for point: the header is
/// validated (magic, version, length cap) the moment its 32nd byte
/// arrives and *before* any payload allocation; the scratch buffer then
/// grows in [`READ_CHUNK`] steps only as payload bytes actually arrive,
/// so a hostile length prefix pins at most one chunk beyond what the
/// peer really sent. The buffer is monotone scratch — bytes past the
/// completed frame's length are stale and must be ignored.
///
/// A decoder never reads past the end of the current frame, so several
/// concatenated frames in the reader's buffer are taken one at a time:
/// [`FrameDecoder::reset`] (or [`FrameDecoder::swap_into`]) and pump
/// again.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    filled: usize,
    /// Header + payload size, known once the header is parsed.
    total: Option<usize>,
    /// Chaos hook: flip the first byte of the next frame as it arrives
    /// (the wire-visible signature of a corrupted header — see
    /// [`crate::chaos::IoFault::CorruptHeader`]).
    corrupt_next: bool,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Bytes of the current (possibly incomplete) frame accumulated so
    /// far.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Is a complete frame buffered and ready to take?
    pub fn is_complete(&self) -> bool {
        self.total.is_some_and(|t| self.filled >= t)
    }

    /// The accumulated frame bytes (`..filled()`). Only a full frame
    /// ([`FrameDecoder::is_complete`]) is decodable.
    pub fn frame(&self) -> &[u8] {
        &self.buf[..self.filled]
    }

    /// Capacity of the internal accumulation buffer — what a hostile
    /// length prefix would have to inflate to count as over-allocation
    /// (growth is bounded by bytes actually received plus one
    /// [`wire::READ_CHUNK`]).
    pub fn buffered_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Forget the current frame (scratch capacity is kept).
    pub fn reset(&mut self) {
        self.filled = 0;
        self.total = None;
        self.corrupt_next = false;
    }

    /// Chaos hook: corrupt the first byte of the next frame at the
    /// moment it arrives. If header bytes already arrived, they are
    /// corrupted retroactively (the flip would have landed on them);
    /// if the header was already *validated*, the resulting error is
    /// returned so the caller can surface it.
    pub fn corrupt_in_place(&mut self) -> Option<WireError> {
        if self.filled == 0 {
            self.corrupt_next = true;
            return None;
        }
        self.buf[0] ^= 0x01;
        if self.filled >= HEADER_LEN {
            // the header had already passed validation; re-validate the
            // now-corrupt bytes to produce the error a decoder seeing
            // them fresh would have reported
            self.total = None;
            return Some(
                wire::parse_header(&self.buf[..HEADER_LEN]).err().unwrap_or(WireError::BadMagic(0)),
            );
        }
        None
    }

    /// Swap the internal scratch with `other` and reset. Lets a caller
    /// take a completed frame without copying while recycling its old
    /// buffer as the next frame's scratch.
    pub fn swap_into(&mut self, other: &mut Vec<u8>) {
        std::mem::swap(&mut self.buf, other);
        self.reset();
    }

    /// Pump the decoder from a (typically non-blocking) reader until
    /// the frame completes (`Ok(Some(len))`), the reader has no bytes
    /// right now (`Ok(None)` on `WouldBlock`), or the stream fails with
    /// exactly the errors [`wire::read_frame`] reports: EOF between
    /// frames is [`WireError::Closed`], EOF mid-frame is
    /// [`WireError::Truncated`]. Never reads past the end of the
    /// current frame, so pipelined responses stay aligned.
    pub fn read_from(&mut self, r: &mut impl Read) -> Result<Option<usize>, WireError> {
        loop {
            if let Some(total) = self.total {
                if self.filled >= total {
                    return Ok(Some(total));
                }
            }
            let (start, end) = if self.filled < HEADER_LEN {
                if self.buf.len() < HEADER_LEN {
                    self.buf.resize(HEADER_LEN, 0);
                }
                (self.filled, HEADER_LEN)
            } else {
                let total = self.total.expect("header parsed");
                // grow in READ_CHUNK steps as bytes arrive, like
                // read_frame's payload loop
                let end = total.min(self.filled + READ_CHUNK).max(self.buf.len().min(total));
                if self.buf.len() < end {
                    self.buf.resize(end, 0);
                }
                (self.filled, end)
            };
            match r.read(&mut self.buf[start..end]) {
                Ok(0) => {
                    return Err(if self.filled == 0 {
                        WireError::Closed
                    } else if self.filled < HEADER_LEN {
                        WireError::Truncated { expected: HEADER_LEN, got: self.filled }
                    } else {
                        WireError::Truncated {
                            expected: self.total.expect("header parsed"),
                            got: self.filled,
                        }
                    });
                }
                Ok(n) => {
                    let first = self.filled == 0;
                    self.filled += n;
                    if first && self.corrupt_next {
                        self.buf[0] ^= 0x01;
                        self.corrupt_next = false;
                    }
                    if self.total.is_none() && self.filled >= HEADER_LEN {
                        let h = wire::parse_header(&self.buf[..HEADER_LEN])?;
                        self.total = Some(HEADER_LEN + h.len as usize);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(WireError::Io(e.kind())),
            }
        }
    }
}

// --------------------------------------------------------------------------
// the reactor

/// Whether a connection's queued writes have fully left.
enum FlushState {
    /// Frames (or frame tails) still queued.
    Pending,
    /// Everything queued has been written.
    Done,
    /// A write failed; the error is sticky until reconnect.
    Failed(WireError),
}

/// Per-connection state machine: a non-blocking stream, a write queue
/// with a resume offset (partial writes continue where they stopped),
/// an incremental decoder, and a one-deep completed-response slot
/// (reading pauses while it is occupied — natural backpressure).
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Frames queued to write; the front is written up to `out_pos`.
    outq: VecDeque<Vec<u8>>,
    out_pos: usize,
    /// First write failure (sticky until reconnect/resend).
    write_err: Option<WireError>,
    /// The most recent fully-written (or fault-stashed) frame, retained
    /// so a depth-1 retry can resend the identical bytes.
    last_frame: Vec<u8>,
    /// A completed response: its byte count, or the read error.
    ready: Option<Result<u64, WireError>>,
    /// The completed response's bytes (leading `ready` length is live).
    resp: Vec<u8>,
    /// Recycled frame buffers for future sends.
    spare: Vec<Vec<u8>>,
    /// Deterministic fault injection for this connection, if any.
    faults: Option<StreamFaults>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            outq: VecDeque::new(),
            out_pos: 0,
            write_err: None,
            last_frame: Vec::new(),
            ready: None,
            resp: Vec::new(),
            spare: Vec::new(),
            faults: None,
        }
    }
}

/// What [`Reactor::take_conn`] hands back for channel teardown.
struct TornDown {
    stream: TcpStream,
    /// Unwritten queued bytes (the front frame's tail first).
    tail: Vec<u8>,
    /// A completed response was sitting in the ready slot.
    had_ready: bool,
    /// The connection's writes had failed.
    write_failed: bool,
}

/// The single-threaded event loop owning every registered connection.
///
/// Channels share one reactor behind `Rc<RefCell<..>>`
/// ([`Reactor::new_shared`]); each [`ReactorChannel`] holds a token
/// into the connection table and drives the loop from its `collect*`
/// legs. Driving the loop for one
/// channel advances *all* connections — that is where scatter-gather
/// overlap comes from.
pub struct Reactor {
    poller: Poller,
    events: Events,
    /// Scratch for dispatching events without holding the `events`
    /// borrow across connection mutation.
    scratch: Vec<Event>,
    conns: Vec<Option<Conn>>,
}

impl Reactor {
    /// Create an empty reactor.
    pub fn new() -> std::io::Result<Reactor> {
        Ok(Reactor {
            poller: Poller::new()?,
            events: Events::new(),
            scratch: Vec::new(),
            conns: Vec::new(),
        })
    }

    /// Create a reactor behind the shared handle [`ReactorChannel`]s
    /// take.
    pub fn new_shared() -> std::io::Result<Rc<RefCell<Reactor>>> {
        Ok(Rc::new(RefCell::new(Reactor::new()?)))
    }

    fn conn(&mut self, token: usize) -> &mut Conn {
        self.conns[token].as_mut().expect("live reactor connection")
    }

    /// Register a connected stream; returns its token.
    fn register(&mut self, stream: TcpStream) -> std::io::Result<usize> {
        stream.set_nonblocking(true)?;
        let token = self.conns.iter().position(|c| c.is_none()).unwrap_or(self.conns.len());
        self.poller.add(&stream, polling::Event::none(token))?;
        let conn = Conn::new(stream);
        if token == self.conns.len() {
            self.conns.push(Some(conn));
        } else {
            self.conns[token] = Some(conn);
        }
        Ok(token)
    }

    /// Swap in a freshly-dialed stream after a reconnect: all transport
    /// state is reset; chaos state and recycled buffers survive.
    fn replace_stream(&mut self, token: usize, stream: TcpStream) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        {
            let poller = &self.poller;
            let conn = self.conns[token].as_mut().expect("live connection");
            let _ = poller.delete(&conn.stream);
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.poller.add(&stream, polling::Event::none(token))?;
        let conn = self.conn(token);
        conn.stream = stream;
        conn.decoder.reset();
        while let Some(f) = conn.outq.pop_front() {
            conn.spare.push(f);
        }
        conn.out_pos = 0;
        conn.write_err = None;
        conn.ready = None;
        Ok(())
    }

    /// Deregister and dismantle a connection for channel teardown.
    fn take_conn(&mut self, token: usize) -> Option<TornDown> {
        let conn = self.conns.get_mut(token)?.take()?;
        let _ = self.poller.delete(&conn.stream);
        let mut tail = Vec::new();
        for (i, f) in conn.outq.iter().enumerate() {
            tail.extend_from_slice(if i == 0 { &f[conn.out_pos..] } else { f });
        }
        Some(TornDown {
            stream: conn.stream,
            tail,
            had_ready: matches!(conn.ready, Some(Ok(_))),
            write_failed: conn.write_err.is_some(),
        })
    }

    /// A recycled (or fresh) buffer to encode the next frame into.
    fn take_buf(&mut self, token: usize) -> Vec<u8> {
        self.conn(token).spare.pop().unwrap_or_default()
    }

    /// Queue `frame` for writing. The bytes leave lazily — at the next
    /// [`Reactor::flush_all`] (every channel wait starts with one) or
    /// writable event — so a pipelined burst submitted back-to-back on
    /// one connection coalesces into a single vectored write, and the
    /// server is woken once with the whole burst already in its receive
    /// buffer instead of once per frame.
    fn enqueue(&mut self, token: usize, frame: Vec<u8>) {
        self.conn(token).outq.push_back(frame);
    }

    /// Opportunistically push every connection's queued request bytes.
    /// Called on entry to a channel's wait loop: by then the caller has
    /// submitted everything it is going to submit before blocking, so
    /// this is the coalescing point for lazily [`Reactor::enqueue`]d
    /// frames — including those of *other* channels sharing the
    /// reactor, which keeps a scatter-gather fan-out's requests leaving
    /// before the first gather blocks.
    fn flush_all(&mut self) {
        for token in 0..self.conns.len() {
            let live = self
                .conns
                .get(token)
                .is_some_and(|s| s.as_ref().is_some_and(|c| !c.outq.is_empty()));
            if live {
                self.try_flush(token);
            }
        }
    }

    /// Retain `frame` as the connection's resend frame without sending
    /// it (the submit was suppressed: channel poisoned or a write fault
    /// consumed the attempt).
    fn stash(&mut self, token: usize, frame: Vec<u8>) {
        let conn = self.conn(token);
        let old = std::mem::replace(&mut conn.last_frame, frame);
        if !old.is_empty() {
            conn.spare.push(old);
        }
    }

    /// Chaos `PartialWrite`: half the frame leaves, then the connection
    /// is declared broken.
    fn partial_write(&mut self, token: usize, frame: Vec<u8>) {
        let conn = self.conn(token);
        let half = frame.len() / 2;
        if half > 0 {
            let _ = conn.stream.write(&frame[..half]);
        }
        conn.write_err = Some(WireError::Io(std::io::ErrorKind::BrokenPipe));
        self.stash(token, frame);
    }

    /// Mark a synthesized whole-frame write fault (chaos
    /// `WriteTimeout`): nothing leaves, the queued state fails.
    fn fail_write(&mut self, token: usize, frame: Vec<u8>, err: WireError) {
        self.conn(token).write_err = Some(err);
        self.stash(token, frame);
    }

    /// Re-queue the retained frame for a retry resend on a (fresh)
    /// connection.
    fn resend_last(&mut self, token: usize) {
        let conn = self.conn(token);
        let frame = std::mem::take(&mut conn.last_frame);
        debug_assert!(!frame.is_empty(), "a retry always has a retained frame");
        conn.outq.push_back(frame);
        self.try_flush(token);
    }

    /// Non-blocking vectored flush: write as much of the queue as the
    /// socket accepts, coalescing queued frames into one syscall.
    fn try_flush(&mut self, token: usize) {
        let conn = self.conn(token);
        if conn.write_err.is_some() {
            return;
        }
        while !conn.outq.is_empty() {
            let wrote = if conn.outq.len() == 1 {
                conn.stream.write(&conn.outq[0][conn.out_pos..])
            } else {
                let slices: Vec<IoSlice<'_>> = conn
                    .outq
                    .iter()
                    .enumerate()
                    .map(|(i, f)| IoSlice::new(if i == 0 { &f[conn.out_pos..] } else { f }))
                    .collect();
                conn.stream.write_vectored(&slices)
            };
            match wrote {
                Ok(mut n) => {
                    while n > 0 {
                        let front_left = conn.outq[0].len() - conn.out_pos;
                        if n >= front_left {
                            n -= front_left;
                            conn.out_pos = 0;
                            let done = conn.outq.pop_front().expect("front exists");
                            let old = std::mem::replace(&mut conn.last_frame, done);
                            if !old.is_empty() {
                                conn.spare.push(old);
                            }
                        } else {
                            conn.out_pos += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    conn.write_err = Some(WireError::Io(e.kind()));
                    return;
                }
            }
        }
    }

    fn flush_state(&mut self, token: usize) -> FlushState {
        let conn = self.conn(token);
        if let Some(e) = &conn.write_err {
            FlushState::Failed(e.clone())
        } else if conn.outq.is_empty() {
            FlushState::Done
        } else {
            FlushState::Pending
        }
    }

    /// Pump one connection's reads until a frame completes, the kernel
    /// runs dry, or the stream errors. Paused while a completed
    /// response waits in the ready slot (backpressure keeps pipelined
    /// replies aligned).
    fn drive_read(&mut self, token: usize) {
        let Some(Some(conn)) = self.conns.get_mut(token) else { return };
        if conn.ready.is_some() {
            return;
        }
        match conn.decoder.read_from(&mut conn.stream) {
            Ok(Some(total)) => {
                conn.decoder.swap_into(&mut conn.resp);
                conn.ready = Some(Ok(total as u64));
            }
            Ok(None) => {}
            Err(e) => conn.ready = Some(Err(e)),
        }
    }

    /// Take a connection's completed response (length or read error).
    fn take_ready(&mut self, token: usize) -> Option<Result<u64, WireError>> {
        self.conn(token).ready.take()
    }

    /// The bytes of the response last surfaced by
    /// [`Reactor::take_ready`] (leading frame is live, tail is stale
    /// scratch).
    fn resp(&self, token: usize) -> &[u8] {
        &self.conns[token].as_ref().expect("live reactor connection").resp
    }

    /// One readiness round: restate every connection's interest
    /// (level-triggered), wait up to `timeout` (`None`: indefinitely),
    /// dispatch reads and writes. `Ok(false)` means a genuine timeout —
    /// zero events.
    fn drive(&mut self, timeout: Option<Duration>) -> std::io::Result<bool> {
        for (key, slot) in self.conns.iter().enumerate() {
            if let Some(c) = slot {
                let ev = Event {
                    key,
                    readable: c.ready.is_none(),
                    writable: !c.outq.is_empty() && c.write_err.is_none(),
                };
                let _ = self.poller.modify(&c.stream, ev);
            }
        }
        let n = self.poller.wait(&mut self.events, timeout)?;
        let mut evs = std::mem::take(&mut self.scratch);
        evs.clear();
        evs.extend(self.events.iter());
        for ev in &evs {
            if ev.writable {
                self.try_flush(ev.key);
            }
            if ev.readable {
                self.drive_read(ev.key);
            }
        }
        self.scratch = evs;
        Ok(n > 0)
    }

    // ---- chaos draws, one per frame op ----

    fn consume_write_fault(&mut self, token: usize) -> Option<IoFault> {
        self.conn(token).faults.as_mut()?.next_write()
    }

    fn consume_read_fault(&mut self, token: usize) -> Option<IoFault> {
        self.conn(token).faults.as_mut()?.next_read()
    }

    fn connect_refused(&mut self, token: usize) -> bool {
        self.conn(token).faults.as_mut().is_some_and(|f| f.next_connect_refused())
    }

    fn set_faults(&mut self, token: usize, faults: StreamFaults) {
        self.conn(token).faults = Some(faults);
    }

    /// Chaos `CorruptHeader` for a receive attempt: corrupt whatever of
    /// the response has arrived (or arm the decoder for its first
    /// byte). If the response already completed into the ready slot,
    /// the corruption is applied there — the header error replaces the
    /// clean result.
    fn corrupt_response(&mut self, token: usize) {
        let conn = self.conn(token);
        if let Some(Ok(_)) = conn.ready {
            conn.resp[0] ^= 0x01;
            let err = wire::parse_header(&conn.resp[..HEADER_LEN.min(conn.resp.len())])
                .err()
                .unwrap_or(WireError::BadMagic(0));
            conn.ready = Some(Err(err));
            return;
        }
        if let Some(err) = conn.decoder.corrupt_in_place() {
            conn.ready = Some(Err(err));
        }
    }
}

// --------------------------------------------------------------------------
// the channel

/// An RPC channel to one worker over a [`Reactor`]-owned non-blocking
/// socket.
pub struct ReactorChannel {
    reactor: Rc<RefCell<Reactor>>,
    token: usize,
    name: String,
    stats: ChannelStats,
    /// Frame lengths of submitted-but-uncollected requests, in order.
    pending: VecDeque<u64>,
    /// First wire-level failure seen on this stream. After one, frame
    /// alignment can no longer be trusted (a half-read payload would be
    /// parsed as headers), so the channel fails fast with this error
    /// instead of returning garbage forever — the same
    /// connection-fatal treatment the server gives protocol errors.
    poisoned: Option<WireError>,
    /// Send `Stop` on drop (disarmed after an explicit `Shutdown`, so a
    /// stop frame is never written at a server that already exited).
    pub(crate) stop_on_drop: bool,
    /// The address we dialed, for transparent reconnection. `None` only
    /// if the peer address could not be resolved at connect time (then
    /// retries degrade to fail-fast).
    pub(crate) addr: Option<SocketAddr>,
    /// In-place retry policy for transient faults. The default,
    /// [`RetryPolicy::none`], is fail-fast.
    retry: RetryPolicy,
    /// Bound on each poller wait of a round trip (`None`: wait for the
    /// reply indefinitely) — the module docs' timeout rule.
    pub(crate) wait: Option<Duration>,
    /// Sequence stamp of the most recent frame (wraps past `u16::MAX`,
    /// skipping the unsequenced 0). A resend reuses it, which is what
    /// lets the server deduplicate.
    pub(crate) seq: u16,
    /// Chaos is armed on this channel (restricts pipeline depth to 1).
    has_faults: bool,
}

impl ReactorChannel {
    /// Connect to a worker server and register the socket with
    /// `reactor`. `name` is the local display name for monitoring.
    pub fn connect(
        reactor: &Rc<RefCell<Reactor>>,
        addr: impl ToSocketAddrs,
        name: impl Into<String>,
    ) -> std::io::Result<ReactorChannel> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr().ok();
        let token = reactor.borrow_mut().register(stream)?;
        Ok(ReactorChannel {
            reactor: Rc::clone(reactor),
            token,
            name: name.into(),
            stats: ChannelStats::default(),
            pending: VecDeque::new(),
            poisoned: None,
            stop_on_drop: true,
            addr: peer,
            retry: RetryPolicy::none(),
            wait: None,
            seq: 0,
            has_faults: false,
        })
    }

    /// Enable bounded in-place retry for transient transport faults
    /// (see [`WireError::is_transient`]): on failure the channel
    /// reconnects to the original address and resends the identical
    /// sequence-stamped frame — the server's dedup makes that safe even
    /// for mutating requests. A retry-enabled channel also bounds every
    /// poller wait with `JC_NET_TIMEOUT_MS`, so a wedged worker surfaces
    /// as a retryable `TimedOut` instead of a hang.
    pub fn with_retry(mut self, retry: RetryPolicy) -> ReactorChannel {
        self.wait = (retry.max_retries > 0).then(net_timeout);
        self.retry = retry;
        self
    }

    /// Interpose deterministic fault injection on this channel's
    /// transport (the chaos harness hook — see
    /// [`crate::chaos::FaultPlan`]).
    pub fn with_chaos(mut self, faults: StreamFaults) -> ReactorChannel {
        self.reactor.borrow_mut().set_faults(self.token, faults);
        self.has_faults = true;
        self
    }

    /// Start this connection's queued frames moving now instead of at
    /// the next blocking wait — for a channel whose reactor no sibling
    /// will drive (the [`crate::SocketChannel`] facade).
    pub(crate) fn push(&mut self) {
        self.reactor.borrow_mut().try_flush(self.token);
    }

    /// Run `f` on the connection's stream (tests break it from
    /// underneath the channel).
    #[cfg(test)]
    pub(crate) fn with_stream<R>(&self, f: impl FnOnce(&TcpStream) -> R) -> R {
        f(&self.reactor.borrow_mut().conn(self.token).stream)
    }

    /// Encode one request with `build`, stamp it, and start it moving.
    /// Depth > 1 is the pipelined mode and requires retry and chaos
    /// disabled (see the module docs on the dedup-cache hazard).
    fn submit_with(&mut self, build: impl FnOnce(&mut Vec<u8>)) {
        if !self.pending.is_empty() {
            assert!(
                self.retry.max_retries == 0 && !self.has_faults,
                "pipeline depth > 1 requires retry and chaos disabled"
            );
        }
        let mut reactor = self.reactor.borrow_mut();
        let mut frame = reactor.take_buf(self.token);
        build(&mut frame);
        self.seq = if self.seq == u16::MAX { 1 } else { self.seq + 1 };
        wire::set_seq(&mut frame, self.seq);
        let len = frame.len() as u64;
        if self.poisoned.is_some() {
            reactor.stash(self.token, frame);
        } else {
            match reactor.consume_write_fault(self.token) {
                Some(IoFault::WriteTimeout) => {
                    reactor.fail_write(
                        self.token,
                        frame,
                        WireError::Io(std::io::ErrorKind::TimedOut),
                    );
                }
                Some(IoFault::PartialWrite) => reactor.partial_write(self.token, frame),
                _ => reactor.enqueue(self.token, frame),
            }
        }
        self.pending.push_back(len);
    }

    /// Drive the reactor until this connection's queued writes have
    /// fully left; `Ok` carries the submitted frame's length (the
    /// `bytes_out` credit).
    fn finish_send(&mut self, frame_len: u64) -> Result<u64, WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        // The caller is about to block on this round trip: everything
        // lazily queued (on every connection of the reactor) goes out
        // now, coalesced per connection into one vectored write.
        self.reactor.borrow_mut().flush_all();
        loop {
            let state = self.reactor.borrow_mut().flush_state(self.token);
            match state {
                FlushState::Done => return Ok(frame_len),
                FlushState::Failed(e) => return self.poison(e),
                FlushState::Pending => self.drive()?,
            }
        }
    }

    /// One receive attempt: draw the chaos read fault for this frame
    /// op, then drive the reactor until a response completes (or the
    /// wait times out).
    fn recv(&mut self) -> Result<u64, WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let fault = self.reactor.borrow_mut().consume_read_fault(self.token);
        match fault {
            Some(IoFault::ReadTimeout) => {
                return self.poison(WireError::Io(std::io::ErrorKind::TimedOut))
            }
            Some(IoFault::ShortRead) => return self.poison(WireError::Closed),
            Some(IoFault::CorruptHeader) => self.reactor.borrow_mut().corrupt_response(self.token),
            _ => {}
        }
        loop {
            let ready = self.reactor.borrow_mut().take_ready(self.token);
            if let Some(r) = ready {
                return r.or_else(|e| self.poison(e));
            }
            self.drive()?;
        }
    }

    /// Poison the channel with `e` and fail with it.
    fn poison<T>(&mut self, e: WireError) -> Result<T, WireError> {
        self.poisoned = Some(e.clone());
        Err(e)
    }

    /// One reactor round, bounded by `self.wait`; a wait that times
    /// out and a poller failure both poison the channel.
    fn drive(&mut self) -> Result<(), WireError> {
        let progressed = self.reactor.borrow_mut().drive(self.wait);
        match progressed {
            Ok(true) => Ok(()),
            Ok(false) => self.poison(WireError::Io(std::io::ErrorKind::TimedOut)),
            Err(e) => self.poison(WireError::Io(e.kind())),
        }
    }

    /// Tear down the stream and dial the stored address again,
    /// clearing the poison on success (the new stream's framing is
    /// trusted from scratch). Chaos may deterministically refuse the
    /// attempt.
    fn reconnect(&mut self) -> bool {
        let Some(addr) = self.addr else { return false };
        if self.reactor.borrow_mut().connect_refused(self.token) {
            return false;
        }
        let timeout = Duration::from_millis(self.retry.connect_timeout_ms.max(1));
        let replaced = TcpStream::connect_timeout(&addr, timeout).and_then(|s| {
            s.set_nodelay(true)?;
            self.reactor.borrow_mut().replace_stream(self.token, s)
        });
        match replaced {
            Ok(()) => {
                self.poisoned = None;
                true
            }
            Err(_) => false,
        }
    }

    /// Complete the oldest outstanding round trip, updating the stats
    /// from the actual bytes moved. Transient failures (send *or*
    /// receive) are retried in place per the [`RetryPolicy`]: back off,
    /// reconnect, resend the identical frame — the server replays its
    /// cached response if the original was applied, so the request
    /// takes effect exactly once. A successful call counts once in the
    /// stats, plus one `retries` tick per absorbed fault; fatal errors
    /// (and exhausted retries) surface to the caller with the channel
    /// poisoned.
    fn complete_front(&mut self) -> Result<(), WireError> {
        let frame_len = self.pending.pop_front().expect("no outstanding call");
        let mut attempt = 0u32;
        let deadline =
            (self.retry.deadline_ms > 0).then(|| Duration::from_millis(self.retry.deadline_ms));
        let started = deadline.map(|_| std::time::Instant::now());
        let mut sent = self.finish_send(frame_len);
        loop {
            let r = match &sent {
                Ok(out) => self.recv().map(|inb| (*out, inb)),
                Err(e) => Err(e.clone()),
            };
            match r {
                Ok((out, inb)) => {
                    self.stats.calls += 1;
                    self.stats.bytes_out += out;
                    self.stats.bytes_in += inb;
                    return Ok(());
                }
                Err(e) => {
                    // Give up before the next backoff would cross the
                    // per-request deadline, with the typed non-transient
                    // error so the caller escalates instead of retrying.
                    let over_deadline = started.is_some_and(|t0| {
                        t0.elapsed() + self.retry.backoff(attempt + 1) >= deadline.unwrap()
                    });
                    if attempt >= self.retry.max_retries || !e.is_transient() || over_deadline {
                        // the frame may have physically left even though
                        // the round trip failed: keep bytes_out honest
                        if let Ok(out) = &sent {
                            self.stats.bytes_out += *out;
                        }
                        if over_deadline && e.is_transient() {
                            return self.poison(WireError::DeadlineExceeded {
                                budget_ms: self.retry.deadline_ms,
                            });
                        }
                        return Err(e);
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                    std::thread::sleep(self.retry.backoff(attempt));
                    sent = if self.reconnect() {
                        self.reactor.borrow_mut().resend_last(self.token);
                        self.finish_send(frame_len)
                    } else {
                        Err(e)
                    };
                }
            }
        }
    }

    /// Complete the oldest round trip and decode its response with
    /// `decode`, a typed fast path (flops are credited by the caller) or
    /// [`wire::decode_response`]. A valid frame of another kind than
    /// the fast path expects is surfaced as what the worker actually
    /// said.
    // the error is the response the caller surfaces, moved once
    #[allow(clippy::result_large_err)]
    fn collect_with<T>(
        &mut self,
        decode: impl FnOnce(&[u8]) -> Result<T, WireError>,
    ) -> Result<T, Response> {
        if let Err(e) = self.complete_front() {
            // the failed round trip still counts as a call
            self.stats.calls += 1;
            return Err(Response::Error(format!("wire error: {e}")));
        }
        let reactor = self.reactor.borrow();
        let frame = reactor.resp(self.token);
        decode(frame).map_err(|e| match e {
            WireError::Unexpected(_) => wire::decode_response(frame)
                .unwrap_or_else(|e| Response::Error(format!("wire error: {e}"))),
            e => Response::Error(format!("wire error: {e}")),
        })
    }
}

impl Channel for ReactorChannel {
    fn submit(&mut self, req: Request) {
        assert!(self.pending.is_empty(), "one outstanding call per channel");
        self.submit_with(|buf| wire::encode_request(&req, buf));
    }

    fn collect(&mut self) -> Response {
        let resp = self.collect_with(wire::decode_response).unwrap_or_else(|failure| failure);
        self.stats.flops += resp.flops();
        resp
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn worker_name(&self) -> String {
        self.name.clone()
    }

    fn set_deadline(&mut self, deadline_ms: u64) {
        self.retry.deadline_ms = deadline_ms;
    }

    fn pipelines(&self) -> bool {
        true
    }

    fn submit_snapshot(&mut self) {
        self.submit_with(|buf| wire::encode_simple_request(wire::op::GET_PARTICLES, buf));
    }

    fn collect_snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        self.collect_with(|frame| wire::decode_particles_into(frame, out)).is_ok()
    }

    fn submit_kick_slice(&mut self, dv: &[[f64; 3]]) {
        self.submit_with(|buf| wire::encode_kick(dv, buf));
    }

    fn collect_kick(&mut self) -> Response {
        match self.collect_with(wire::decode_ok) {
            Ok(flops) => {
                self.stats.flops += flops;
                Response::Ok { flops }
            }
            Err(other) => other,
        }
    }

    fn submit_step(&mut self, dv: &[[f64; 3]], n: u32, t: f64) {
        self.submit_with(|buf| wire::encode_step(dv, n, t, buf));
    }

    fn collect_step_into(&mut self, out: &mut ParticleData) -> Response {
        match self.collect_with(|frame| wire::decode_stepped_into(frame, out)) {
            Ok(flops) => {
                self.stats.flops += flops;
                Response::Ok { flops }
            }
            Err(other) => other,
        }
    }

    fn submit_field(
        &mut self,
        stars: &ParticleData,
        gas: &ParticleData,
        star_range: (usize, usize),
        gas_range: (usize, usize),
    ) {
        self.submit_with(|buf| {
            wire::encode_compute_field(
                (&stars.pos, &stars.mass),
                (&gas.pos, &gas.mass),
                star_range,
                gas_range,
                buf,
            )
        });
    }

    fn collect_accelerations_into(&mut self, out: &mut Vec<[f64; 3]>) -> Option<f64> {
        let flops = self.collect_with(|frame| wire::decode_accelerations_into(frame, out)).ok()?;
        self.stats.flops += flops;
        Some(flops)
    }
}

impl Drop for ReactorChannel {
    fn drop(&mut self) {
        // Best-effort shutdown so the server's serve loop can exit:
        // finish pushing any queued request bytes, drain the responses
        // still owed (a channel dropped while outstanding, e.g. the
        // coupler unwinding mid-fan-out) — bounded by the net timeout so
        // a wedged worker cannot hang the drop — then send Stop;
        // otherwise the server would return to `accept` and wait for a
        // client that never comes.
        let torn = self.reactor.borrow_mut().take_conn(self.token);
        let Some(torn) = torn else { return };
        let mut stream = torn.stream;
        if self.poisoned.is_none() && self.stop_on_drop && !torn.write_failed {
            let _ = stream.set_nonblocking(false);
            let t = net_timeout();
            let _ = stream.set_write_timeout(Some(t));
            let _ = stream.set_read_timeout(Some(t));
            let flushed = torn.tail.is_empty() || stream.write_all(&torn.tail).is_ok();
            if flushed {
                let mut owed = self.pending.len().saturating_sub(usize::from(torn.had_ready));
                let mut scratch = Vec::new();
                while owed > 0 {
                    if wire::read_frame(&mut stream, &mut scratch).is_err() {
                        break;
                    }
                    owed -= 1;
                }
                if owed == 0 {
                    wire::encode_simple_request(wire::op::STOP, &mut scratch);
                    let _ = wire::write_frame(&mut stream, &scratch);
                }
            }
        }
        let _ = stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::spawn_tcp_worker;
    use crate::worker::GravityWorker;
    use crate::SocketChannel;
    use jc_nbody::plummer::plummer_sphere;
    use jc_nbody::Backend;

    fn encode_some_frames() -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut b = Vec::new();
        wire::encode_simple_request(wire::op::PING, &mut b);
        frames.push(b.clone());
        wire::encode_kick(&[[0.25, -1.5, 3.0]; 17], &mut b);
        frames.push(b.clone());
        wire::encode_response(&Response::Ok { flops: 12.5 }, &mut b);
        frames.push(b.clone());
        wire::encode_response(&Response::Error("boom".into()), &mut b);
        frames.push(b);
        frames
    }

    /// A non-blocking reader that delivers `data` in the pieces cut at
    /// `edges` (ascending offsets): `WouldBlock` once at every edge and
    /// for good at the end, never EOF.
    struct Pieces<'a> {
        data: &'a [u8],
        pos: usize,
        edges: Vec<usize>,
        next: usize,
    }

    impl<'a> Pieces<'a> {
        fn every(data: &'a [u8], step: usize) -> Pieces<'a> {
            Pieces { data, pos: 0, edges: (step..data.len()).step_by(step).collect(), next: 0 }
        }

        /// Pump `d` until its frame completes or `data` runs out.
        fn pump(&mut self, d: &mut FrameDecoder) -> Result<Option<usize>, WireError> {
            loop {
                match d.read_from(self)? {
                    None if self.pos < self.data.len() => {}
                    done => return Ok(done),
                }
            }
        }
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let stop =
                self.edges.get(self.next).map_or(self.data.len(), |&e| e.min(self.data.len()));
            if self.pos >= stop {
                self.next = (self.next + 1).min(self.edges.len());
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(stop - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn decoder_matches_one_shot_reader_at_any_split() {
        for frame in encode_some_frames() {
            for split in [1usize, 7, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 1] {
                let mut d = FrameDecoder::new();
                let len = Pieces::every(&frame, split).pump(&mut d).expect("clean frame");
                assert_eq!(len, Some(frame.len()), "frame completes");
                let mut one_shot = Vec::new();
                let n = wire::read_frame(&mut std::io::Cursor::new(&frame), &mut one_shot).unwrap();
                assert_eq!(d.frame(), &one_shot[..n]);
            }
        }
    }

    #[test]
    fn decoder_consumes_exactly_one_frame_from_a_batch() {
        let frames = encode_some_frames();
        let batch = frames.concat();
        let mut reader = Pieces::every(&batch, batch.len());
        let mut d = FrameDecoder::new();
        let mut off = 0;
        for f in &frames {
            let len = reader.pump(&mut d).expect("clean frames");
            assert_eq!(len, Some(f.len()), "whole frame available");
            off += f.len();
            assert_eq!(reader.pos, off, "never reads past the frame end");
            assert_eq!(d.frame(), &f[..]);
            d.reset();
        }
        assert_eq!(off, batch.len());
    }

    #[test]
    fn decoder_rejects_hostile_bytes_without_overallocation() {
        // bad magic
        let mut d = FrameDecoder::new();
        let junk = [0xFFu8; HEADER_LEN];
        assert!(matches!(Pieces::every(&junk, 5).pump(&mut d), Err(WireError::BadMagic(_))));
        // oversized length never allocates the declared payload
        let mut frame = Vec::new();
        wire::encode_simple_request(wire::op::PING, &mut frame);
        frame[8..16].copy_from_slice(&(wire::MAX_PAYLOAD + 1).to_le_bytes());
        let mut d = FrameDecoder::new();
        assert!(matches!(Pieces::every(&frame, 64).pump(&mut d), Err(WireError::Oversized(_))));
        assert!(d.buf.capacity() <= 2 * HEADER_LEN, "no payload allocation");
    }

    #[test]
    fn corrupt_in_place_flips_exactly_the_magic_byte() {
        let frame = &encode_some_frames()[1];
        // armed before any byte arrives, and applied retroactively to
        // header bytes already buffered: either way only byte 0 flips
        for fed_first in [0usize, 10] {
            let mut d = FrameDecoder::new();
            let mut reader = Pieces { data: frame, pos: 0, edges: vec![fed_first, 20], next: 0 };
            assert_eq!(d.read_from(&mut reader), Ok(None));
            assert_eq!(reader.pos, fed_first);
            assert!(d.corrupt_in_place().is_none(), "header not validated yet");
            assert_eq!(d.read_from(&mut reader), Ok(None));
            assert_eq!(d.frame()[0], frame[0] ^ 0x01, "first byte flipped");
            assert_eq!(&d.frame()[1..], &frame[1..20], "rest untouched");
            assert!(matches!(reader.pump(&mut d), Err(WireError::BadMagic(_))));
        }
    }

    #[test]
    fn reactor_channel_roundtrips_against_a_real_worker() {
        let ics = plummer_sphere(32, 5);
        let (addr, handle) =
            spawn_tcp_worker("grav", move || GravityWorker::new(ics, Backend::Scalar));
        let reactor = Reactor::new_shared().unwrap();
        let mut ch = ReactorChannel::connect(&reactor, addr, "grav").unwrap();
        assert!(matches!(ch.call(Request::Ping), Response::Ok { .. }));
        let mut snap = ParticleData::default();
        assert!(ch.snapshot_into(&mut snap));
        assert_eq!(snap.mass.len(), 32);
        let dv = vec![[1e-3, 0.0, -1e-3]; 32];
        assert!(matches!(ch.kick_slice(&dv), Response::Ok { .. }));
        assert_eq!(ch.stats().calls, 3);
        drop(ch);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn pipelined_depth_two_coalesces_and_matches_blocking() {
        let ics = plummer_sphere(24, 9);
        let dv = vec![[2e-4, -1e-4, 5e-4]; 24];

        // lock-step reference: one request at a time
        let (addr, handle) = spawn_tcp_worker("grav-a", {
            let ics = ics.clone();
            move || GravityWorker::new(ics, Backend::Scalar)
        });
        let mut lockstep = SocketChannel::connect(addr, "grav-a").unwrap();
        let mut snap_ref = ParticleData::default();
        assert!(lockstep.snapshot_into(&mut snap_ref));
        let kick_ref = lockstep.kick_slice(&dv);
        drop(lockstep);
        handle.join().unwrap().unwrap();

        // pipelined: both requests in flight before either response
        let (addr, handle) =
            spawn_tcp_worker("grav-b", move || GravityWorker::new(ics, Backend::Scalar));
        let reactor = Reactor::new_shared().unwrap();
        let mut ch = ReactorChannel::connect(&reactor, addr, "grav-b").unwrap();
        let mut snap = ParticleData::default();
        ch.submit_snapshot();
        ch.submit_kick_slice(&dv);
        assert!(ch.collect_snapshot_into(&mut snap));
        let kick = ch.collect_kick();
        assert_eq!(snap.pos, snap_ref.pos);
        assert_eq!(snap.vel, snap_ref.vel);
        assert!(matches!((&kick, &kick_ref), (Response::Ok { .. }, Response::Ok { .. })));
        drop(ch);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn a_dead_sibling_does_not_time_out_the_live_channel() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = listener.local_addr().unwrap();
        let killer = std::thread::spawn(move || drop(listener.accept().unwrap()));
        let (addr, handle) =
            spawn_tcp_worker("grav", || GravityWorker::new(plummer_sphere(4, 3), Backend::Scalar));
        let reactor = Reactor::new_shared().unwrap();
        let mut dead = ReactorChannel::connect(&reactor, dead_addr, "dead").unwrap();
        let mut live = ReactorChannel::connect(&reactor, addr, "grav").unwrap();
        killer.join().unwrap();
        assert!(matches!(dead.call(Request::Ping), Response::Error(_)));
        // the hung-up socket stays registered (parked) next to the live
        // one: its POLLHUP must not end the live channel's waits
        for _ in 0..3 {
            let r = live.call(Request::Ping);
            assert!(matches!(r, Response::Ok { .. }), "{r:?}");
        }
        drop(live);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn idle_reactor_wait_times_out() {
        let ics = plummer_sphere(4, 3);
        let (addr, handle) =
            spawn_tcp_worker("grav", move || GravityWorker::new(ics, Backend::Scalar));
        let reactor = Reactor::new_shared().unwrap();
        let ch = ReactorChannel::connect(&reactor, addr, "grav").unwrap();
        // nothing queued, nothing owed: a bounded wait elapses quietly
        let progressed = reactor.borrow_mut().drive(Some(Duration::from_millis(30))).unwrap();
        assert!(!progressed, "no events on an idle connection");
        drop(ch);
        handle.join().unwrap().unwrap();
    }
}
