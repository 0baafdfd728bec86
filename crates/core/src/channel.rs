//! The Ibis channel: [`jc_amuse::Channel`] over the simulated jungle.

use crate::daemon::{DaemonHandle, WorkerId};
use crate::proxy::CallEnvelope;
use jc_amuse::channel::ChannelStats;
use jc_amuse::worker::{Request, Response};
use jc_amuse::Channel;
use jc_netsim::{Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

static NEXT_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// The coupler side of the Ibis channel for one worker.
///
/// `submit` injects an envelope through the daemon's loopback; `collect`
/// *drives the event loop* until the reply lands — the coupler blocking
/// on the RPC, with virtual time advancing by exactly the modeled
/// communication + compute cost. Two channels submitted back-to-back run
/// their workers in parallel virtual time (the Fig 7 parallel evolve).
pub struct IbisChannel {
    sim: Rc<RefCell<Sim>>,
    daemon: DaemonHandle,
    worker: WorkerId,
    /// Request byte scale (toy payload → production payload).
    byte_scale: f64,
    stats: ChannelStats,
    pending: Option<(u64, u64)>, // (seq, scaled request bytes)
    name: String,
}

impl IbisChannel {
    /// Open a channel to a registered worker.
    pub fn new(
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
        IbisChannel {
            sim,
            daemon,
            worker,
            byte_scale,
            stats: ChannelStats::default(),
            pending: None,
            name: name.into(),
        }
    }

    fn inject(&mut self, req: Request) -> (u64, u64) {
        let seq = NEXT_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let bytes = ((req.wire_size() as f64) * self.byte_scale) as u64;
        let env = CallEnvelope {
            worker: self.worker,
            seq,
            request: req,
            wire_bytes: bytes,
            reply_to: self.daemon.actor,
        };
        self.sim.borrow_mut().post(self.daemon.actor, env, SimDuration::ZERO);
        (seq, bytes)
    }

    fn drain_until(&mut self, seq: u64) -> Response {
        loop {
            if let Some(resp) = self.daemon.shared.borrow_mut().replies.remove(&seq) {
                return resp;
            }
            let stepped = self.sim.borrow_mut().step();
            if !stepped {
                // The event queue drained without the reply arriving:
                // the worker (or a host on its route) is dead. Reported
                // as an RPC failure, not a panic, so the bridge's
                // recovery loop can heal and replay (the §5 crash demo
                // still aborts — its bridge asserts on the error).
                return Response::Error(format!(
                    "simulation idle before reply seq {seq} arrived (worker dead?)"
                ));
            }
        }
    }
}

impl Channel for IbisChannel {
    fn submit(&mut self, req: Request) {
        assert!(self.pending.is_none(), "one outstanding call per channel");
        let p = self.inject(req);
        self.pending = Some(p);
    }

    fn collect(&mut self) -> Response {
        let (seq, req_bytes) = self.pending.take().expect("no outstanding call");
        let resp = self.drain_until(seq);
        self.stats.calls += 1;
        self.stats.bytes_out += req_bytes;
        self.stats.bytes_in += ((resp.wire_size() as f64) * self.byte_scale) as u64;
        self.stats.flops += resp.flops();
        resp
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn worker_name(&self) -> String {
        self.name.clone()
    }
}
