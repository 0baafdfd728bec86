//! The TCP client: one readiness-driven loop owning every worker socket.
//!
//! A single-threaded [`Reactor`] registers each socket non-blocking
//! under a connection token, a `poll(2)`-backed poller (the `polling`
//! shim) reports readiness, and per-connection state machines make
//! incremental progress — partial writes resume where they stopped,
//! partial reads accumulate in an incremental [`FrameDecoder`] until a
//! full wire frame is available. A [`ReactorChannel`] is the
//! [`ClientCore`] — codec, sequence stamping and byte accounting,
//! written once for the in-process and TCP channels alike — over a
//! [`ReactorLink`], which holds what only a real connection needs: the
//! poison rule, reconnect, the retry/backoff/deadline loop, fault
//! injection and the teardown drain. It is the one TCP client type:
//! [`crate::SocketChannel::connect`] returns one on a private reactor.
//!
//! # Overlap and flushing
//!
//! Because all connections of a reactor live in one loop, *gathering
//! one shard's reply advances every other shard's I/O too*: a fan-out
//! of K requests followed by K collects overlaps all K round trips
//! regardless of collect order. A frame starts leaving at its
//! `submit*`: the link writes what the socket takes at once, and any
//! blocking wait on any channel of the reactor finishes the rest, so
//! every frame of a K-shard scatter is on its way before the first
//! gather blocks. A channel has at most one call outstanding (the
//! [`crate::Channel`] contract, asserted on every leg): the fan-out is
//! *across* connections. That is also what makes a resend safe — the
//! server's dedup cache remembers only the *last* mutating frame, which
//! is the one frame a retry can carry.
//!
//! # Faults, retry and the timeout rule
//!
//! By default one wire failure poisons the channel (fail fast, escalate
//! to the heal/restore path). A channel built
//! [`ReactorChannel::with_retry`] instead absorbs *transient* faults
//! (see [`WireError::is_transient`]) in place: back off, reconnect,
//! resend the identical sequence-stamped frame; the server's dedup
//! cache (see [`crate::host::ServerCore`]) replays its cached response to a
//! duplicate, so even mutating requests like `Kick` are applied exactly
//! once. Only such a channel stamps its frames and keeps each whole for
//! a resend; a plain one writes its step, kick and field frames with one
//! vectored write from the caller's columns and copies only what the
//! socket does not take at once. [`crate::chaos::StreamFaults`] are
//! consumed at frame-op boundaries: one write draw per submitted frame,
//! one read draw per receive attempt, one refusal draw per reconnect.
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
//! The core books [`crate::ChannelStats`] from the frames' actual
//! lengths, over TCP as in process. A call counts its frame once — an
//! absorbed resend ticks `retries` instead, and a call that fails after
//! its frame left still credits `bytes_out`. Buffers are recycled: a
//! warm round trip through the typed legs (snapshot, step, field, kick)
//! allocates nothing coupler-side.

use crate::channel::{ClientCore, Link};
use crate::chaos::{IoFault, RetryPolicy, StreamFaults};
use crate::wire::{self, WireError, HEADER_LEN, READ_CHUNK};
use polling::{Event, Events, Poller};
use std::cell::RefCell;
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

/// Incremental decoder for a stream of wire frames of any version up to
/// [`wire::VERSION`] — the one framer both halves of a connection use
/// (the client's non-blocking sockets here, the server's blocking ones
/// in [`crate::socket`]). Pump it from a reader
/// ([`FrameDecoder::read_from`]) in whatever pieces the transport
/// delivers (1-byte reads, header/payload straddles, several frames per
/// read) and get exactly the frames [`wire::read_frame`] would have
/// produced, in order.
///
/// Each `read` fills the free scratch — one [`READ_CHUNK`], more once
/// it has grown for a larger frame — so a small frame costs one
/// syscall, and bytes read past a frame's end carry over as the start
/// of the next: [`FrameDecoder::advance`] past a taken frame, and a
/// frame already complete in the buffer comes back without another
/// `read`. The header is validated (magic, version, length cap) the
/// moment its 32nd byte arrives, before anything is sized from it, and
/// the scratch then grows toward the frame's end one chunk at a time as
/// bytes arrive, so a hostile length prefix pins at most one chunk
/// beyond what the peer really sent.
///
/// Every frame starts at offset 0 of the scratch, so on a heap that
/// hands out 8-aligned blocks (the system allocators do) each column of
/// it is 8-aligned too: header and aux fields are all 8-byte units. A
/// server then reads the columns in place ([`crate::host::ServerCore`]).
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes buffered: the current frame's so far, then any read past
    /// its end.
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

    /// Bytes buffered so far: the current (possibly incomplete) frame's,
    /// plus any read past its end.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Is a complete frame buffered and ready to take?
    pub fn is_complete(&self) -> bool {
        self.total.is_some_and(|t| self.filled >= t)
    }

    /// The current frame's bytes accumulated so far. Only a full frame
    /// ([`FrameDecoder::is_complete`]) is decodable.
    pub fn frame(&self) -> &[u8] {
        &self.buf[..self.total.map_or(self.filled, |t| t.min(self.filled))]
    }

    /// Capacity of the internal accumulation buffer — what a hostile
    /// length prefix would have to inflate to count as over-allocation
    /// (growth is bounded by bytes actually received plus one
    /// [`wire::READ_CHUNK`]).
    pub fn buffered_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Forget everything buffered, for a fresh stream (scratch capacity
    /// is kept).
    pub fn reset(&mut self) {
        self.filled = 0;
        self.total = None;
        self.corrupt_next = false;
    }

    /// Drop the completed current frame: the bytes read past its end
    /// become the start of the next one. A no-op while the current frame
    /// is incomplete.
    pub fn advance(&mut self) {
        if let Some(total) = self.total.filter(|&t| self.filled >= t) {
            self.buf.copy_within(total..self.filled, 0);
            self.filled -= total;
            self.total = None;
        }
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

    /// Pump the decoder from a (blocking or non-blocking) reader until
    /// the current frame completes (`Ok(Some(len))` — at once, with no
    /// `read`, if it already has), the reader has no bytes right now
    /// (`Ok(None)` on `WouldBlock`), or the stream fails with exactly
    /// the errors [`wire::read_frame`] reports: EOF between frames is
    /// [`WireError::Closed`], EOF mid-frame is [`WireError::Truncated`].
    pub fn read_from(&mut self, r: &mut impl Read) -> Result<Option<usize>, WireError> {
        loop {
            if self.total.is_none() && self.filled >= HEADER_LEN {
                let h = wire::parse_header(&self.buf[..HEADER_LEN])?;
                self.total = Some(HEADER_LEN + h.len as usize);
            }
            if let Some(total) = self.total.filter(|&t| self.filled >= t) {
                return Ok(Some(total));
            }
            // one chunk of read-ahead room, grown toward a validated
            // frame end one chunk at a time as its bytes arrive
            let want = READ_CHUNK.max(self.total.map_or(0, |t| t.min(self.filled + READ_CHUNK)));
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
            match r.read(&mut self.buf[self.filled..]) {
                Ok(0) => {
                    return Err(match self.total {
                        _ if self.filled == 0 => WireError::Closed,
                        Some(expected) => WireError::Truncated { expected, got: self.filled },
                        None => WireError::Truncated { expected: HEADER_LEN, got: self.filled },
                    });
                }
                Ok(n) => {
                    if self.filled == 0 && self.corrupt_next {
                        self.buf[0] ^= 0x01;
                        self.corrupt_next = false;
                    }
                    self.filled += n;
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

/// Per-connection state machine: a non-blocking stream, the one request
/// frame with a written offset (partial writes continue where they
/// stopped; a resend rewinds), an incremental decoder, and a one-deep
/// completed-response slot (reading pauses while it is occupied).
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// The current request frame: whole when it may be resent, else
    /// what the socket did not take of it at once (see
    /// [`ReactorLink::send_frame`]); `out[sent..]` is still to be
    /// written.
    out: Vec<u8>,
    sent: usize,
    /// First write failure (sticky until reconnect).
    write_err: Option<WireError>,
    /// A completed response (its bytes are the decoder's current
    /// frame), or the read error.
    ready: Option<Result<(), WireError>>,
    /// Deterministic fault injection for this connection, if any.
    faults: Option<StreamFaults>,
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
        let conn = Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            sent: 0,
            write_err: None,
            ready: None,
            faults: None,
        };
        if token == self.conns.len() {
            self.conns.push(Some(conn));
        } else {
            self.conns[token] = Some(conn);
        }
        Ok(token)
    }

    /// Swap in a freshly-dialed stream after a reconnect: all transport
    /// state is reset and the current frame is rewound, so it is resent
    /// whole at the next flush; chaos state and buffers survive.
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
        conn.sent = 0;
        conn.write_err = None;
        conn.ready = None;
        Ok(())
    }

    /// Deregister a connection for channel teardown.
    fn take_conn(&mut self, token: usize) -> Option<Conn> {
        let conn = self.conns.get_mut(token)?.take()?;
        let _ = self.poller.delete(&conn.stream);
        Some(conn)
    }

    /// Non-blocking flush: write as much of the frame as the socket
    /// accepts.
    fn try_flush(&mut self, token: usize) {
        let conn = self.conn(token);
        while conn.write_err.is_none() && conn.sent < conn.out.len() {
            match conn.stream.write(&conn.out[conn.sent..]) {
                Ok(0) => conn.write_err = Some(WireError::Io(std::io::ErrorKind::WriteZero)),
                Ok(n) => conn.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) => conn.write_err = Some(WireError::Io(e.kind())),
            }
        }
    }

    /// Has the connection's frame fully left? A write failure is sticky
    /// until reconnect.
    fn flushed(&mut self, token: usize) -> Result<bool, WireError> {
        let conn = self.conn(token);
        match &conn.write_err {
            Some(e) => Err(e.clone()),
            None => Ok(conn.sent == conn.out.len()),
        }
    }

    /// Pump one connection's reads until a frame completes, the kernel
    /// runs dry, or the stream errors. Paused while a completed
    /// response waits in the ready slot.
    fn drive_read(&mut self, token: usize) {
        let Some(Some(conn)) = self.conns.get_mut(token) else { return };
        if conn.ready.is_none() {
            conn.ready = conn.decoder.read_from(&mut conn.stream).transpose().map(|r| r.map(drop));
        }
    }

    /// Take a connection's completed response (or read error).
    fn take_ready(&mut self, token: usize) -> Option<Result<(), WireError>> {
        self.conn(token).ready.take()
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
                    writable: c.sent < c.out.len() && c.write_err.is_none(),
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

    fn consume_read_fault(&mut self, token: usize) -> Option<IoFault> {
        self.conn(token).faults.as_mut()?.next_read()
    }

    fn connect_refused(&mut self, token: usize) -> bool {
        self.conn(token).faults.as_mut().is_some_and(|f| f.next_connect_refused())
    }

    /// Chaos `CorruptHeader` for a receive attempt: corrupt whatever of
    /// the response has arrived — a completed one included, whose clean
    /// result the header error then replaces — or arm the decoder for
    /// its first byte.
    fn corrupt_response(&mut self, token: usize) {
        let conn = self.conn(token);
        if let Some(err) = conn.decoder.corrupt_in_place() {
            conn.ready = Some(Err(err));
        }
    }
}

// --------------------------------------------------------------------------
// the channel

/// An RPC channel to one worker over a [`Reactor`]-owned non-blocking
/// socket: the [`ClientCore`] over a [`ReactorLink`].
pub type ReactorChannel = ClientCore<ReactorLink>;

/// A [`ReactorChannel`]'s transport: its connection in a shared
/// [`Reactor`], and what makes that connection dependable — the poison
/// rule, reconnect, the retry/backoff/deadline loop, fault draws and
/// the teardown drain.
pub struct ReactorLink {
    reactor: Rc<RefCell<Reactor>>,
    token: usize,
    name: String,
    /// A reply is owed to the frame last sent and not yet collected.
    owed: bool,
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
        Ok(ClientCore::over(ReactorLink {
            reactor: Rc::clone(reactor),
            token,
            name: name.into(),
            owed: false,
            poisoned: None,
            stop_on_drop: true,
            addr: peer,
            retry: RetryPolicy::none(),
            wait: None,
        }))
    }

    /// Enable bounded in-place retry for transient transport faults
    /// (see [`WireError::is_transient`]): on failure the channel
    /// reconnects to the original address and resends the identical
    /// sequence-stamped frame — the server's dedup makes that safe even
    /// for mutating requests. A retry-enabled channel also bounds every
    /// poller wait with `JC_NET_TIMEOUT_MS`, so a wedged worker surfaces
    /// as a retryable `TimedOut` instead of a hang.
    pub fn with_retry(mut self, retry: RetryPolicy) -> ReactorChannel {
        self.link.wait = (retry.max_retries > 0).then(net_timeout);
        self.link.retry = retry;
        self
    }

    /// Interpose deterministic fault injection on this channel's
    /// transport (the chaos harness hook — see
    /// [`crate::chaos::FaultPlan`]).
    pub fn with_chaos(self, faults: StreamFaults) -> ReactorChannel {
        self.link.reactor.borrow_mut().conn(self.link.token).faults = Some(faults);
        self
    }

    /// The peer address.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.link.addr.ok_or_else(|| std::io::ErrorKind::NotConnected.into())
    }
}

impl ReactorLink {
    /// Run `f` on the connection's stream (tests break it from
    /// underneath the channel).
    #[cfg(test)]
    pub(crate) fn with_stream<R>(&self, f: impl FnOnce(&TcpStream) -> R) -> R {
        f(&self.reactor.borrow_mut().conn(self.token).stream)
    }

    /// Drive the reactor until this connection's frame has fully left.
    fn finish_send(&mut self) -> Result<(), WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        loop {
            let flushed = self.reactor.borrow_mut().flushed(self.token);
            match flushed {
                Ok(true) => return Ok(()),
                Ok(false) => self.drive()?,
                Err(e) => return self.poison(e),
            }
        }
    }

    /// One receive attempt: draw the chaos read fault for this frame
    /// op, then drive the reactor until a response completes (or the
    /// wait times out).
    fn receive(&mut self) -> Result<(), WireError> {
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

    /// Timeout of one reconnect attempt.
    const CONNECT_TIMEOUT: Duration = Duration::from_millis(5_000);

    /// Tear down the stream and dial the stored address again,
    /// clearing the poison on success (the new stream's framing is
    /// trusted from scratch). Chaos may deterministically refuse the
    /// attempt.
    fn reconnect(&mut self) -> bool {
        let Some(addr) = self.addr else { return false };
        if self.reactor.borrow_mut().connect_refused(self.token) {
            return false;
        }
        let replaced = TcpStream::connect_timeout(&addr, Self::CONNECT_TIMEOUT).and_then(|s| {
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
}

impl Link for ReactorLink {
    /// Have `write` fill the connection's one frame buffer, draw the
    /// frame's write fault and write what the socket takes at once; the
    /// reactor's waits finish the rest. A poisoned link keeps the frame
    /// for a resend but sends nothing.
    fn send(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let mut reactor = self.reactor.borrow_mut();
        let conn = reactor.conn(self.token);
        write(&mut conn.out);
        self.owed = true;
        let len = conn.out.len();
        if self.poisoned.is_some() {
            conn.sent = len;
            return;
        }
        conn.sent = 0;
        match conn.faults.as_mut().and_then(StreamFaults::next_write) {
            Some(IoFault::WriteTimeout) => {
                conn.write_err = Some(WireError::Io(std::io::ErrorKind::TimedOut));
            }
            Some(IoFault::PartialWrite) => {
                // half the frame leaves, then the connection breaks
                let _ = conn.stream.write(&conn.out[..len / 2]);
                conn.write_err = Some(WireError::Io(std::io::ErrorKind::BrokenPipe));
            }
            _ => {}
        }
        reactor.try_flush(self.token);
    }

    /// Write the frame's parts where they lie, with one vectored write:
    /// only what the socket does not take at once is copied into the
    /// connection's frame buffer, and the reactor's waits flush it. A
    /// frame that may be resent, may meet an injected fault or goes
    /// nowhere (a poisoned link) is kept whole instead, through
    /// [`Link::send`].
    fn send_frame(&mut self, frame: &wire::Frame<'_>) {
        #[cfg(target_endian = "little")]
        if !self.stamps() && self.poisoned.is_none() {
            let mut reactor = self.reactor.borrow_mut();
            let conn = reactor.conn(self.token);
            if conn.faults.is_none() {
                self.owed = true;
                let slices = frame.parts().map(IoSlice::new);
                let written = loop {
                    match conn.stream.write_vectored(&slices) {
                        Ok(0) => {
                            conn.write_err = Some(WireError::Io(std::io::ErrorKind::WriteZero));
                            break 0;
                        }
                        Ok(n) => break n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break 0,
                        Err(e) => {
                            conn.write_err = Some(WireError::Io(e.kind()));
                            break 0;
                        }
                    }
                };
                conn.out.clear();
                conn.sent = 0;
                frame.append_tail(written, &mut conn.out);
                return;
            }
        }
        self.send(|buf| frame.encode(buf));
    }

    /// Complete the round trip and hand `read` the reply straight out
    /// of the connection's decoder. Transient failures (send *or*
    /// receive) are retried in place per the [`RetryPolicy`]: back off,
    /// reconnect, resend the identical frame — the server replays its
    /// cached response if the original was applied, so the request takes
    /// effect exactly once. Fatal errors (and exhausted retries) surface
    /// with the channel poisoned.
    fn recv<T>(
        &mut self,
        retries: &mut u64,
        read: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, (WireError, bool)> {
        self.owed = false;
        let mut attempt = 0u32;
        let deadline =
            (self.retry.deadline_ms > 0).then(|| Duration::from_millis(self.retry.deadline_ms));
        let started = deadline.map(|_| std::time::Instant::now());
        let mut sent = self.finish_send();
        loop {
            let e = match &sent {
                Ok(()) => match self.receive() {
                    Ok(()) => break,
                    Err(e) => e,
                },
                Err(e) => e.clone(),
            };
            // Give up before the next backoff would cross the
            // per-request deadline, with the typed non-transient error
            // so the caller escalates instead of retrying.
            let over_deadline = started.is_some_and(|t0| {
                t0.elapsed() + self.retry.backoff(attempt + 1) >= deadline.unwrap()
            });
            if attempt >= self.retry.max_retries || !e.is_transient() || over_deadline {
                let e = if over_deadline && e.is_transient() {
                    let budget_ms = self.retry.deadline_ms;
                    self.poisoned.insert(WireError::DeadlineExceeded { budget_ms }).clone()
                } else {
                    e
                };
                return Err((e, sent.is_ok()));
            }
            attempt += 1;
            *retries += 1;
            std::thread::sleep(self.retry.backoff(attempt));
            sent = if self.reconnect() { self.finish_send() } else { Err(e) };
        }
        let mut reactor = self.reactor.borrow_mut();
        let decoder = &mut reactor.conn(self.token).decoder;
        let answer = read(decoder.frame());
        decoder.advance();
        Ok(answer)
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn set_deadline(&mut self, deadline_ms: u64) {
        self.retry.deadline_ms = deadline_ms;
    }

    fn pipelines(&self) -> bool {
        true
    }

    /// Only a link that retries resends a frame, so only it stamps.
    fn stamps(&self) -> bool {
        self.retry.max_retries > 0
    }
}

impl Drop for ReactorLink {
    fn drop(&mut self) {
        // Best-effort shutdown so the server's serve loop can exit:
        // finish pushing the request frame, drain the response still
        // owed (a channel dropped while outstanding, e.g. the coupler
        // unwinding mid-fan-out) through the decoder that may already
        // hold part of it — bounded by the net timeout so a wedged
        // worker cannot hang the drop — then send Stop; otherwise the
        // server would return to `accept` and wait for a client that
        // never comes.
        let conn = self.reactor.borrow_mut().take_conn(self.token);
        let Some(mut conn) = conn else { return };
        if self.poisoned.is_none() && self.stop_on_drop && conn.write_err.is_none() {
            let _ = conn.stream.set_nonblocking(false);
            let t = net_timeout();
            let _ = conn.stream.set_write_timeout(Some(t));
            let _ = conn.stream.set_read_timeout(Some(t));
            let flushed = conn.stream.write_all(&conn.out[conn.sent..]).is_ok();
            let owed = self.owed && !matches!(conn.ready, Some(Ok(())));
            if flushed && (!owed || matches!(conn.decoder.read_from(&mut conn.stream), Ok(Some(_))))
            {
                wire::encode_simple_request(wire::op::STOP, &mut conn.out);
                let _ = conn.stream.write_all(&conn.out);
            }
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::socket::spawn_tcp_worker;
    use crate::worker::{GravityWorker, ParticleData, Request, Response};
    use jc_nbody::plummer::plummer_sphere;
    use jc_nbody::Backend;

    fn encode_some_frames() -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut b = Vec::new();
        wire::encode_simple_request(wire::op::PING, &mut b);
        frames.push(b.clone());
        wire::kick_frame(&[[0.25, -1.5, 3.0]; 17]).encode(&mut b);
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
    fn decoder_yields_a_batch_in_order_at_any_split() {
        let frames = encode_some_frames();
        let batch = frames.concat();
        for split in [1usize, 7, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 1, batch.len()] {
            let mut reader = Pieces::every(&batch, split);
            let mut d = FrameDecoder::new();
            for f in &frames {
                assert_eq!(reader.pump(&mut d), Ok(Some(f.len())), "split {split}");
                assert_eq!(d.frame(), &f[..], "split {split}");
                d.advance();
            }
            assert_eq!((reader.pos, d.filled()), (batch.len(), 0), "split {split}");
        }
    }

    #[test]
    fn a_decoded_frame_starts_8_aligned_as_it_grows() {
        // the server views a frame's columns in place only when the
        // frame starts 8-aligned; each starts at the head of the heap
        // scratch, also after that has grown for a larger frame
        let mut frames = Vec::new();
        for n in [1, 900, 3, 20_000, 2] {
            let mut frame = Vec::new();
            wire::kick_frame(&vec![[0.5, -0.25, 1e-3]; n]).encode(&mut frame);
            frames.push(frame);
        }
        let batch = frames.concat();
        for split in [7, 4096, batch.len()] {
            let mut reader = Pieces::every(&batch, split);
            let mut d = FrameDecoder::new();
            for f in &frames {
                assert_eq!(reader.pump(&mut d), Ok(Some(f.len())), "split {split}");
                assert!(d.frame().as_ptr().cast::<u64>().is_aligned(), "split {split}");
                d.advance();
            }
        }
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
        assert!(d.buf.capacity() <= READ_CHUNK, "nothing sized beyond one read-ahead chunk");
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
            spawn_tcp_worker("grav", move || GravityWorker::new(ics, Backend::CpuParallel));
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
    #[should_panic(expected = "one outstanding call per channel")]
    fn a_second_typed_submit_before_its_collect_panics() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let reactor = Reactor::new_shared().unwrap();
        let mut ch =
            ReactorChannel::connect(&reactor, listener.local_addr().unwrap(), "idle").unwrap();
        ch.link.stop_on_drop = false; // the unwind must not wait for a reply
        ch.submit_snapshot();
        ch.submit_kick_slice(&[[0.0; 3]]);
    }

    #[test]
    fn teardown_drains_a_response_half_read_into_the_decoder() {
        // 36 of the owed reply's 40 bytes reach the decoder while the
        // reactor runs: the drop must read only the last 4 and then stop
        // the server, not start a fresh frame there and time out
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (go, rest) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut frame = Vec::new();
            wire::read_frame(&mut s, &mut frame).unwrap();
            let mut ok = Vec::new();
            wire::encode_response(&Response::Ok { flops: 1.0 }, &mut ok);
            s.write_all(&ok[..36]).unwrap();
            rest.recv().unwrap();
            s.write_all(&ok[36..]).unwrap();
            wire::read_frame(&mut s, &mut frame).map(|n| frame[..n][5])
        });
        let reactor = Reactor::new_shared().unwrap();
        let mut ch = ReactorChannel::connect(&reactor, addr, "half").unwrap();
        ch.submit(Request::Ping);
        while reactor.borrow_mut().conn(ch.link.token).decoder.filled() < 36 {
            reactor.borrow_mut().drive(Some(Duration::from_secs(5))).unwrap();
        }
        go.send(()).unwrap();
        let t0 = std::time::Instant::now();
        drop(ch);
        assert!(t0.elapsed() < Duration::from_secs(2), "the drop took {:?}", t0.elapsed());
        assert_eq!(server.join().unwrap(), Ok(wire::op::STOP), "the server was sent Stop");
    }

    #[test]
    fn a_dead_sibling_does_not_time_out_the_live_channel() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = listener.local_addr().unwrap();
        let killer = std::thread::spawn(move || drop(listener.accept().unwrap()));
        let (addr, handle) = spawn_tcp_worker("grav", || {
            GravityWorker::new(plummer_sphere(4, 3), Backend::CpuParallel)
        });
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

    /// Answers each kick with a digest of every half-kick it was given
    /// (a 52-bit FNV fold, exact in the `flops` field).
    #[derive(Default)]
    struct Digest(u64);

    impl crate::ModelWorker for Digest {
        fn handle(&mut self, req: Request) -> Response {
            match req {
                Request::Kick(dv) => Response::Ok { flops: self.kick_slice(&dv).unwrap() },
                _ => Response::Ok { flops: 0.0 },
            }
        }
        fn name(&self) -> String {
            "digest".into()
        }
        fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Option<f64> {
            for x in dv.iter().flatten() {
                self.0 = (self.0 ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Some((self.0 >> 12) as f64)
        }
    }

    #[test]
    fn a_frame_the_socket_takes_in_part_is_finished_by_the_reactor() {
        // a 6 MiB kick, more than loopback's socket buffers hold, to a
        // server that starts reading only after the submit: the vectored
        // write takes part of the frame, the rest is copied and flushed
        // by the reactor's waits
        let dv: Vec<[f64; 3]> = (0..1 << 18).map(|i| [i as f64, -0.5 * i as f64, 0.25]).collect();
        let server = crate::WorkerServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let served = std::thread::spawn(move || {
            wait.recv().unwrap();
            server.serve(&mut Digest::default())
        });
        let reactor = Reactor::new_shared().unwrap();
        let mut ch = ReactorChannel::connect(&reactor, addr, "late").unwrap();
        ch.link.wait = Some(Duration::from_secs(10)); // a lost tail fails, not hangs
        ch.submit_kick_slice(&dv);
        let frame_len = HEADER_LEN + 24 * dv.len();
        let unsent = reactor.borrow_mut().conn(ch.link.token).out.len();
        assert!(0 < unsent && unsent < frame_len, "{unsent} of {frame_len} bytes left unsent");
        go.send(()).unwrap();
        let got = ch.collect_kick();
        // the same call in process: the same digest, the same books
        let mut local = crate::LocalChannel::new(Box::new(Digest::default()));
        let want = local.kick_slice(&dv);
        assert!(matches!(want, Response::Ok { flops } if flops > 0.0));
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(ch.stats(), local.stats());
        drop(ch);
        served.join().unwrap().unwrap();
    }

    #[test]
    fn idle_reactor_wait_times_out() {
        let ics = plummer_sphere(4, 3);
        let (addr, handle) =
            spawn_tcp_worker("grav", move || GravityWorker::new(ics, Backend::CpuParallel));
        let reactor = Reactor::new_shared().unwrap();
        let ch = ReactorChannel::connect(&reactor, addr, "grav").unwrap();
        // nothing queued, nothing owed: a bounded wait elapses quietly
        let progressed = reactor.borrow_mut().drive(Some(Duration::from_millis(30))).unwrap();
        assert!(!progressed, "no events on an idle connection");
        drop(ch);
        handle.join().unwrap().unwrap();
    }
}
