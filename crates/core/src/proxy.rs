//! Worker proxies: the remote half of the Ibis channel (Fig 5).
//!
//! "Once the worker is started the daemon uses IPL to communicate over the
//! wide area connection to a proxy process running alongside the worker.
//! The proxy communicates using a loopback connection with the worker
//! process." The proxy here executes the real kernel in place (the physics
//! is genuine, at reduced particle count), while *virtual time* is charged
//! from the calibrated performance model — so one run produces both the
//! paper's physics and its timing shape.

use crate::daemon::WorkerId;
use crate::perfmodel::PerfProfile;
use jc_amuse::host::ServerCore;
use jc_amuse::wire::{self, op};
use jc_amuse::worker::ModelWorker;
use jc_netsim::metrics::TrafficClass;
use jc_netsim::{Actor, ActorId, Ctx, Msg, SimDuration, SimTime};
use jc_smartsockets::hub::unwrap_message;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Serialization point of a shared execution resource: `(host, tag)` pairs
/// share one queue. Tag 0 = CPU, 1 = GPU — PhiGRAPE and Octgrav sharing
/// the desktop's single GeForce serialize on it (scenario 2), while the
/// CPU-side Gadget overlaps.
pub type BusyLedger = Rc<RefCell<HashMap<(jc_netsim::HostId, u8), SimTime>>>;

/// RPC envelope: coupler → daemon → proxy.
pub struct CallEnvelope {
    /// Target worker.
    pub worker: WorkerId,
    /// The sequence-stamped request frame.
    pub frame: Vec<u8>,
    /// Wire size (already scaled to production payloads).
    pub wire_bytes: u64,
    /// Where the reply goes (the daemon — carried explicitly because a
    /// relayed envelope arrives "from" the last hub, not the daemon).
    pub reply_to: ActorId,
}

/// RPC reply: proxy → daemon.
pub struct ReplyEnvelope {
    /// Source worker.
    pub worker: WorkerId,
    /// The reply frame, stamped with its request's sequence number.
    pub frame: Vec<u8>,
    /// Wire size (scaled).
    pub wire_bytes: u64,
}

struct PendingReply {
    daemon: ActorId,
    env: ReplyEnvelope,
}

/// The proxy actor.
pub struct WorkerProxy {
    id: WorkerId,
    worker: Rc<RefCell<Option<Box<dyn ModelWorker>>>>,
    /// The worker, served through its frame server once started.
    server: Option<ServerCore<'static, Box<dyn ModelWorker>>>,
    /// Sustained GFLOP/s of the resource slice this worker got.
    gflops: f64,
    profile: PerfProfile,
    /// Which shared execution resource this worker occupies.
    device_tag: u8,
    ledger: BusyLedger,
    /// Reply byte scale (toy → production).
    byte_scale: f64,
    /// MPI ranks inside this worker (Gadget's internal parallelism);
    /// > 1 adds modeled intra-site MPI traffic per evolve.
    mpi_ranks: u32,
}

impl WorkerProxy {
    /// Build a proxy. `worker` is shared with the job factory so only
    /// rank 0 takes it.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: WorkerId,
        worker: Rc<RefCell<Option<Box<dyn ModelWorker>>>>,
        gflops: f64,
        profile: PerfProfile,
        device_tag: u8,
        ledger: BusyLedger,
        byte_scale: f64,
        mpi_ranks: u32,
    ) -> WorkerProxy {
        assert!(gflops > 0.0 && byte_scale > 0.0 && mpi_ranks >= 1);
        WorkerProxy {
            id,
            worker,
            server: None,
            gflops,
            profile,
            device_tag,
            ledger,
            byte_scale,
            mpi_ranks,
        }
    }

    fn model_mpi_traffic(&self, ctx: &mut Ctx<'_>, reply_len: usize) {
        if self.mpi_ranks <= 1 {
            return;
        }
        // Intra-worker ghost exchange: proportional to the (scaled)
        // snapshot size, once per evolve call, spread over the site link.
        let bytes = ((reply_len as f64) * self.byte_scale * 0.2) as u64;
        let site = {
            let host = ctx.host();
            ctx.topo().host(host).site
        };
        let link = ctx.topo().links().find(|(_, l)| l.a == site && l.b == site).map(|(id, _)| id);
        if let Some(link) = link {
            ctx.metrics().record_link(link, TrafficClass::Mpi, bytes.max(1));
        }
    }
}

impl Actor for WorkerProxy {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        let worker = self.worker.borrow_mut().take();
        let worker = worker.expect("worker object already taken (two rank-0 proxies?)");
        self.server = Some(ServerCore::with_worker(worker, None));
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // deferred reply send (after modeled compute completes)
        let msg = match msg.downcast::<PendingReply>() {
            Ok((_, p)) => {
                let bytes = p.env.wire_bytes;
                ctx.send_net(p.daemon, bytes, TrafficClass::Ipl, p.env);
                return;
            }
            Err(m) => m,
        };
        let Ok((_, env)) = unwrap_message::<CallEnvelope>(msg) else {
            return;
        };
        let daemon = env.reply_to;
        let opcode = wire::parse_header(&env.frame).map_or(0, |h| h.opcode);
        let is_evolve = matches!(opcode, op::STEP | op::EVOLVE_TO);
        let work_gflop = self.profile.work_gflop(opcode);
        // real execution (loopback hop to the worker process): the frame
        // server the TCP worker runs, with its fast paths and dedup cache
        let server = self.server.as_mut().expect("proxy started");
        let mut frame = Vec::new();
        server.handle(&env.frame).0.encode(&mut frame);
        wire::set_seq(&mut frame, wire::frame_seq(&env.frame));
        // modeled duration on this worker's resource slice, serialized on
        // the shared (host, device) ledger
        let dur = SimDuration::from_secs_f64(work_gflop / self.gflops);
        let now = ctx.now();
        let host = ctx.host();
        let mut ledger = self.ledger.borrow_mut();
        let free_at = ledger.entry((host, self.device_tag)).or_insert(now);
        let start = if *free_at > now { *free_at } else { now };
        let end = start + dur;
        *free_at = end;
        drop(ledger);
        ctx.metrics().add_host_busy(host, dur);
        if is_evolve {
            self.model_mpi_traffic(ctx, frame.len());
        }
        // loopback worker↔proxy hop + compute completion, then reply
        let loopback = ctx.topo().loopback_latency;
        let delay = (end - now) + loopback * 2;
        let wire_bytes = ((frame.len() as f64) * self.byte_scale) as u64;
        let env = ReplyEnvelope { worker: self.id, frame, wire_bytes };
        ctx.schedule_self(delay, PendingReply { daemon, env });
    }
}
