//! Offline shim for the `polling` crate: the small readiness-polling
//! surface the workspace actually uses — register sockets under a
//! `usize` key, wait for readability/writability with a timeout.
//!
//! Like the other shims, this is dependency-free. On Unix the
//! implementation is the classic `poll(2)` system call, reached through
//! the libc that `std` already links (no new crates); elsewhere it
//! degrades to "everything registered is always ready", which is
//! correct — the caller's non-blocking I/O simply observes
//! `WouldBlock` — just not idle-efficient. Readiness is level-triggered
//! (the real crate's oneshot mode is not reproduced: the one consumer,
//! `jc_amuse::reactor`, re-states interest before every wait anyway).

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::sync::Mutex;
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};

/// Fallback "fd" type where no raw-fd notion exists.
#[cfg(not(unix))]
type RawFd = usize;

/// Interest in (and readiness of) one registered source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The caller's key for the source (the reactor's connection token).
    pub key: usize,
    /// Interested in / ready for reading.
    pub readable: bool,
    /// Interested in / ready for writing.
    pub writable: bool,
}

impl Event {
    /// Interest in readability only.
    pub fn readable(key: usize) -> Event {
        Event { key, readable: true, writable: false }
    }

    /// Interest in writability only.
    pub fn writable(key: usize) -> Event {
        Event { key, readable: false, writable: true }
    }

    /// Interest in both directions.
    pub fn all(key: usize) -> Event {
        Event { key, readable: true, writable: true }
    }

    /// No interest (parked source: registered but never ready).
    pub fn none(key: usize) -> Event {
        Event { key, readable: false, writable: false }
    }
}

/// Reusable buffer of readiness events filled by [`Poller::wait`].
#[derive(Default)]
pub struct Events {
    inner: Vec<Event>,
    /// The `pollfd` array handed to `poll(2)`, refilled in place on
    /// every wait so a warm wait allocates nothing.
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
}

impl Events {
    /// An empty event buffer.
    pub fn new() -> Events {
        Events::default()
    }

    /// Iterate the events of the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.inner.iter().copied()
    }

    /// Number of events delivered by the last wait.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// No events delivered?
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Drop all buffered events (capacity is kept).
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

struct Slot {
    fd: RawFd,
    interest: Event,
}

/// The poller: a registry of sources plus a [`Poller::wait`] that
/// blocks until one of them is ready (or the timeout passes).
pub struct Poller {
    slots: Mutex<Vec<Slot>>,
}

impl Poller {
    /// Create an empty poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { slots: Mutex::new(Vec::new()) })
    }

    /// Register `source` with the interest (and key) in `interest`.
    /// Registering an already-registered fd is an error, as in the real
    /// crate.
    #[cfg(unix)]
    pub fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        let fd = source.as_raw_fd();
        let mut slots = self.slots.lock().unwrap();
        if slots.iter().any(|s| s.fd == fd) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
        }
        slots.push(Slot { fd, interest });
        Ok(())
    }

    /// Update the interest (and key) of a registered source.
    #[cfg(unix)]
    pub fn modify(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        let fd = source.as_raw_fd();
        let mut slots = self.slots.lock().unwrap();
        match slots.iter_mut().find(|s| s.fd == fd) {
            Some(slot) => {
                slot.interest = interest;
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    /// Deregister a source. Unknown fds error, as in the real crate.
    #[cfg(unix)]
    pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
        let fd = source.as_raw_fd();
        let mut slots = self.slots.lock().unwrap();
        match slots.iter().position(|s| s.fd == fd) {
            Some(i) => {
                slots.remove(i);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    /// Block until at least one registered source is ready or `timeout`
    /// passes (`None` blocks indefinitely). Ready events are appended
    /// to `events` (cleared first); returns how many. An interrupted
    /// wait (`EINTR`) is retried with the full timeout, so the only
    /// zero-event return is a genuine timeout.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        self.wait_impl(events, timeout)?;
        Ok(events.len())
    }

    #[cfg(unix)]
    fn wait_impl(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let slots = self.slots.lock().unwrap();
        let Events { inner, fds } = events;
        fds.clear();
        fds.extend(slots.iter().map(|s| sys::PollFd {
            // poll(2) reports hangups and errors whether asked or not;
            // a negative fd is skipped, which is what keeps a parked
            // source from waking (and so falsely "timing out") waits
            // that are about its siblings
            fd: if s.interest.readable || s.interest.writable { s.fd } else { -1 },
            events: (if s.interest.readable { sys::POLLIN } else { 0 })
                | (if s.interest.writable { sys::POLLOUT } else { 0 }),
            revents: 0,
        }));
        let timeout_ms: i32 = match timeout {
            None => -1,
            // round up so a sub-millisecond timeout still sleeps
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        loop {
            // SAFETY: `fds` is a live, properly sized array of repr(C)
            // pollfd structs for the duration of the call; poll(2) only
            // writes within `nfds` entries and std already links libc,
            // which provides the symbol.
            let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NFds, timeout_ms) };
            if rc >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            // EINTR: retry with the full timeout (callers treat a
            // zero-event return as a real timeout)
        }
        for (pfd, slot) in fds.iter().zip(slots.iter()) {
            // errors and hangups count as readiness in both directions
            // the caller asked about: the subsequent non-blocking I/O
            // surfaces the actual condition
            let err = pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
            let readable = slot.interest.readable && (pfd.revents & sys::POLLIN != 0 || err);
            let writable = slot.interest.writable && (pfd.revents & sys::POLLOUT != 0 || err);
            if readable || writable {
                inner.push(Event { key: slot.interest.key, readable, writable });
            }
        }
        Ok(())
    }

    /// Portable fallback: report every registered source as ready for
    /// its stated interest. Busy, but correct: non-blocking I/O on a
    /// not-actually-ready socket returns `WouldBlock` and the caller
    /// waits again.
    #[cfg(not(unix))]
    fn wait_impl(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let slots = self.slots.lock().unwrap();
        for s in slots.iter() {
            if s.interest.readable || s.interest.writable {
                events.inner.push(s.interest);
            }
        }
        if events.inner.is_empty() {
            // nothing registered with interest: honor the timeout
            std::thread::sleep(timeout.unwrap_or(Duration::from_millis(10)));
        }
        Ok(())
    }
}

#[cfg(unix)]
mod sys {
    //! The raw `poll(2)` surface, declared directly against the libc
    //! `std` already links.

    /// `nfds_t`: `unsigned long` on the platforms this workspace runs.
    pub type NFds = std::os::raw::c_ulong;

    /// C `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    // SAFETY: the signature matches POSIX poll(2) (int fds[], nfds_t,
    // int timeout); the symbol comes from the libc std itself links, so
    // it is present in every build of this workspace.
    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn connected_socket_is_writable_immediately() {
        let (a, _b) = pair();
        let poller = Poller::new().unwrap();
        poller.add(&a, Event::writable(7)).unwrap();
        let mut events = Events::new();
        let n = poller.wait(&mut events, Some(Duration::from_millis(500))).unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.key, 7);
        assert!(ev.writable);
    }

    #[test]
    fn readability_arrives_with_data_and_times_out_without() {
        let (a, mut b) = pair();
        let poller = Poller::new().unwrap();
        poller.add(&a, Event::readable(3)).unwrap();
        let mut events = Events::new();
        let n = poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert_eq!(n, 0, "no data yet: timeout");
        b.write_all(b"ping").unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().key, 3);
        let mut a = a;
        let mut buf = [0u8; 8];
        assert_eq!(a.read(&mut buf).unwrap(), 4);
    }

    #[test]
    fn modify_and_delete_update_the_registry() {
        let (a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.add(&a, Event::none(1)).unwrap();
        assert!(poller.add(&a, Event::none(1)).is_err(), "double add");
        let mut events = Events::new();
        let n = poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0, "no interest, no events");
        poller.modify(&a, Event::writable(1)).unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_millis(500))).unwrap();
        assert_eq!(n, 1);
        poller.delete(&a).unwrap();
        assert!(poller.delete(&a).is_err(), "double delete");
        let n = poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0);
        drop(b);
    }

    #[test]
    fn hangup_on_a_parked_source_wakes_nobody() {
        let (a, b) = pair();
        drop(b);
        let poller = Poller::new().unwrap();
        poller.add(&a, Event::none(4)).unwrap();
        let mut events = Events::new();
        let t0 = std::time::Instant::now();
        let n = poller.wait(&mut events, Some(Duration::from_millis(60))).unwrap();
        assert_eq!(n, 0);
        assert!(t0.elapsed() >= Duration::from_millis(50), "returned early: not a timeout");
    }

    #[test]
    fn hangup_reports_readiness_to_a_read_interest() {
        let (a, b) = pair();
        drop(b);
        let poller = Poller::new().unwrap();
        poller.add(&a, Event::readable(9)).unwrap();
        let mut events = Events::new();
        let n = poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(n, 1, "peer hangup must wake a reader");
        assert!(events.iter().next().unwrap().readable);
    }
}
