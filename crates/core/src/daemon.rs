//! The Ibis daemon: the coupler's gateway into the jungle (Fig 5).

use crate::proxy::{CallEnvelope, ReplyEnvelope};
use jc_netsim::metrics::TrafficClass;
use jc_netsim::{Actor, ActorId, Ctx, Msg, Sim};
use jc_smartsockets::{
    hub::unwrap_message, ConnectionPlan, Overlay, VirtualAddress, VirtualSocket,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Identifies a worker registered with the daemon.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WorkerId(pub u32);

/// State shared between the daemon actor (inside the sim) and the coupler
/// (outside) — standing in for the daemon's loopback socket endpoints.
#[derive(Default)]
pub struct DaemonShared {
    /// The latest reply frame from each worker (its sequence stamp names
    /// the request it answers).
    pub replies: HashMap<WorkerId, Vec<u8>>,
    /// Worker registry: route established once the proxy is known.
    pub routes: HashMap<WorkerId, ActorId>,
}

/// Handle the coupler keeps (see [`crate::IbisChannel`]).
#[derive(Clone)]
pub struct DaemonHandle {
    /// The daemon actor.
    pub actor: ActorId,
    /// Shared loopback state.
    pub shared: Rc<RefCell<DaemonShared>>,
}

/// Message from the coupler side: register a worker's proxy endpoint.
pub struct RegisterWorker {
    /// The worker id.
    pub id: WorkerId,
    /// Its proxy actor (from the GAT job's seats).
    pub proxy: ActorId,
}

/// The daemon actor: routes envelopes to proxies over planned connections.
pub struct IbisDaemon {
    shared: Rc<RefCell<DaemonShared>>,
    sockets: HashMap<WorkerId, VirtualSocket>,
    overlay: Option<Rc<Overlay>>,
}

impl IbisDaemon {
    /// Create the daemon plus its shared state; install with
    /// [`IbisDaemon::install`].
    pub fn new(overlay: Option<Rc<Overlay>>) -> (IbisDaemon, Rc<RefCell<DaemonShared>>) {
        let shared = Rc::new(RefCell::new(DaemonShared::default()));
        (IbisDaemon { shared: shared.clone(), sockets: HashMap::new(), overlay }, shared)
    }

    /// Install the daemon on the client host of a simulation.
    pub fn install(
        sim: &mut Sim,
        host: jc_netsim::HostId,
        overlay: Option<Rc<Overlay>>,
    ) -> DaemonHandle {
        let (daemon, shared) = IbisDaemon::new(overlay);
        let actor = sim.add_actor(host, Box::new(daemon));
        DaemonHandle { actor, shared }
    }
}

impl Actor for IbisDaemon {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // worker registration (from the coupler, via loopback)
        let msg = match msg.downcast::<RegisterWorker>() {
            Ok((_, reg)) => {
                let me = ctx.host();
                let remote = ctx.host_of(reg.proxy);
                let plan = ConnectionPlan::plan(
                    ctx.topo(),
                    self.overlay.as_deref(),
                    VirtualAddress::new(me, 9000),
                    VirtualAddress::new(remote, 9000 + reg.id.0 as u16),
                );
                assert!(
                    plan.is_usable(),
                    "daemon cannot reach worker {:?} on host {:?}: {:?}",
                    reg.id,
                    remote,
                    plan.kind
                );
                self.sockets.insert(reg.id, VirtualSocket::new(plan, reg.proxy));
                self.shared.borrow_mut().routes.insert(reg.id, reg.proxy);
                return;
            }
            Err(m) => m,
        };
        // calls from the coupler: forward over the WAN
        let msg = match msg.downcast::<CallEnvelope>() {
            Ok((_, env)) => {
                let sock = self.sockets.get_mut(&env.worker).expect("call to unregistered worker");
                let bytes = env.wire_bytes;
                sock.send(ctx, bytes, TrafficClass::Ipl, env);
                return;
            }
            Err(m) => m,
        };
        // replies from proxies (possibly relayed through hubs)
        if let Ok((_, rep)) = unwrap_message::<ReplyEnvelope>(msg) {
            self.shared.borrow_mut().replies.insert(rep.worker, rep.frame);
        }
    }
}
