//! Offline stand-in for `crossbeam`.
//!
//! Only `crossbeam::channel` is provided, backed by `std::sync::mpsc`.
//! The workspace uses `unbounded`, `bounded`, `send` and `recv`;
//! senders are cloneable like the real crate's. (std receivers are not
//! cloneable — none of our call sites clone them.)

pub mod channel {
    use std::sync::mpsc;

    pub use std::sync::mpsc::RecvError;

    /// Sending half; unifies std's bounded/unbounded sender types.
    pub enum Sender<T> {
        /// From [`unbounded`].
        Unbounded(mpsc::Sender<T>),
        /// From [`bounded`]; `send` blocks when the buffer is full.
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            match self {
                Sender::Unbounded(s) => Sender::Unbounded(s.clone()),
                Sender::Bounded(s) => Sender::Bounded(s.clone()),
            }
        }
    }

    /// Error returned when the receiving side has hung up.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            // Like the real crate: usable in `expect` without `T: Debug`.
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T> Sender<T> {
        /// Send, blocking on a full bounded buffer.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match self {
                Sender::Unbounded(s) => s.send(value).map_err(|e| SendError(e.0)),
                Sender::Bounded(s) => s.send(value).map_err(|e| SendError(e.0)),
            }
        }
    }

    /// Receiving half.
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Block until a message or disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv()
        }
    }

    /// Channel with no backpressure.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender::Unbounded(tx), Receiver { inner: rx })
    }

    /// Channel holding at most `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender::Bounded(tx), Receiver { inner: rx })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_round_trip() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert!(rx.recv().is_err());
        }

        #[test]
        fn bounded_blocks_at_capacity() {
            let (tx, rx) = bounded::<u8>(1);
            let t = std::thread::spawn(move || {
                tx.send(1).unwrap();
                tx.send(2).unwrap(); // blocks until the first is drained
            });
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            t.join().unwrap();
        }

        #[test]
        fn cloned_senders_feed_one_receiver() {
            let (tx, rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            drop((tx, tx2));
            let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
            assert!(rx.recv().is_err(), "every sender hung up");
        }
    }
}
