//! The Ibis channel: [`jc_amuse`]'s client core over the simulated jungle.

use crate::daemon::{DaemonHandle, WorkerId};
use crate::proxy::CallEnvelope;
use jc_amuse::channel::{ClientCore, Link};
use jc_amuse::wire::{self, WireError};
use jc_netsim::{Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

/// The coupler side of the Ibis channel for one worker: the same client
/// core, frames and accounting as [`jc_amuse::LocalChannel`] and
/// [`jc_amuse::ReactorChannel`], over a [`SimLink`]. Its
/// [`jc_amuse::ChannelStats`] book the real frame bytes; the
/// production-scaled bytes are the simulated network's `Ipl` traffic.
pub type IbisChannel = ClientCore<SimLink>;

/// Carries one worker's frames through the daemon and its proxy.
///
/// `send` posts the stamped request frame to the daemon, booked on the
/// simulated network at its length times `byte_scale`; `recv` *drives
/// the event loop* until the reply frame with the same sequence stamp
/// lands — the coupler blocking on the RPC, with virtual time advancing
/// by exactly the modeled communication + compute cost. Two channels
/// submitted back-to-back run their workers in parallel virtual time
/// (the Fig 7 parallel evolve).
pub struct SimLink {
    sim: Rc<RefCell<Sim>>,
    daemon: DaemonHandle,
    worker: WorkerId,
    /// Request byte scale (toy payload → production payload).
    byte_scale: f64,
    /// Sequence stamp of the request in flight.
    seq: u16,
    name: String,
}

impl SimLink {
    /// Open a channel to a registered worker.
    pub fn open(
        sim: Rc<RefCell<Sim>>,
        daemon: DaemonHandle,
        worker: WorkerId,
        byte_scale: f64,
        name: impl Into<String>,
    ) -> IbisChannel {
        assert!(
            daemon.shared.borrow().routes.contains_key(&worker),
            "worker {worker:?} not registered with the daemon"
        );
        ClientCore::over(SimLink { sim, daemon, worker, byte_scale, seq: 0, name: name.into() })
    }
}

impl Link for SimLink {
    fn send(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let mut frame = Vec::new();
        write(&mut frame);
        self.seq = wire::frame_seq(&frame);
        let env = CallEnvelope {
            worker: self.worker,
            wire_bytes: ((frame.len() as f64) * self.byte_scale) as u64,
            frame,
            reply_to: self.daemon.actor,
        };
        self.sim.borrow_mut().post(self.daemon.actor, env, SimDuration::ZERO);
    }

    fn recv<T>(
        &mut self,
        _retries: &mut u64,
        read: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, (WireError, bool)> {
        loop {
            // a reply stamped otherwise answers a request no one awaits
            let reply = self.daemon.shared.borrow_mut().replies.remove(&self.worker);
            if let Some(frame) = reply.filter(|f| wire::frame_seq(f) == self.seq) {
                return Ok(read(&frame));
            }
            // The event queue drained without the reply arriving: the
            // worker (or a host on its route) is dead. Reported as an RPC
            // failure, not a panic, so the bridge's recovery loop can heal
            // and replay (the §5 crash demo still aborts — its bridge
            // asserts on the error).
            if !self.sim.borrow_mut().step() {
                return Err((WireError::Closed, true));
            }
        }
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}
