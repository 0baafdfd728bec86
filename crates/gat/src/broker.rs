//! The resource broker: per-site middleware actors and the realm registry.

use crate::adapter::MiddlewareKind;
use crate::job::{GatEvent, GatJobId, JobDescription, JobState, ProcessSeat};
use jc_netsim::batch::{BatchEvent, BatchJobId, BatchQueue};
use jc_netsim::metrics::TrafficClass;
use jc_netsim::topology::SiteId;
use jc_netsim::{Actor, ActorId, Ctx, HostId, Msg, Sim, SimDuration};
use std::collections::HashMap;
use std::rc::Rc;

/// A resource as the user's grid file describes it: a site, the hosts jobs
/// may run on, and the middlewares installed there.
#[derive(Clone, Debug)]
pub struct ResourceDesc {
    /// Resource name (e.g. `"DAS-4 (VU)"`).
    pub name: String,
    /// The site.
    pub site: SiteId,
    /// Hosts jobs can be placed on (usually the compute nodes, not the
    /// front-end).
    pub nodes: Vec<HostId>,
    /// Installed middleware.
    pub supported: Vec<MiddlewareKind>,
    /// The head-node actor accepting submissions.
    pub broker: ActorId,
}

/// Submission request sent to a [`MiddlewareActor`]. The transfer of this
/// message carries the pre-staged input bytes.
pub struct SubmitRequest {
    /// Job id chosen by the submitter; the broker keys the job by it, so
    /// it must be unique among the jobs sent to one broker.
    pub job: GatJobId,
    /// What to run.
    pub desc: JobDescription,
    /// Who receives [`GatEvent`] callbacks.
    pub reply_to: ActorId,
    /// Which adapter to use (see [`crate::select_adapter`]).
    pub adapter: MiddlewareKind,
}

/// Cancel request for a job.
#[derive(Clone, Copy, Debug)]
pub struct CancelRequest(pub GatJobId);

/// Sent to every spawned process right after start so it knows its job
/// coordinates and can report exit.
#[derive(Clone, Copy, Debug)]
pub struct ProcStart {
    /// The middleware actor to notify on exit.
    pub broker: ActorId,
    /// Job id.
    pub job: GatJobId,
    /// This process's rank.
    pub rank: u32,
    /// Total processes.
    pub total: u32,
}

/// A process reports voluntary exit.
#[derive(Clone, Copy, Debug)]
pub struct ProcExit {
    /// Job id.
    pub job: GatJobId,
    /// Exiting rank.
    pub rank: u32,
}

/// Internal scheduler tick.
struct Tick;

/// Internal: job has passed the adapter overhead and may enter the queue.
struct Accepted(GatJobId);

struct RunningJob {
    /// Executable name, surfaced in the job table views.
    #[allow(dead_code)]
    desc_executable: String,
    reply_to: ActorId,
    seats: Vec<ProcessSeat>,
    live_procs: u32,
    stage_out_bytes: u64,
    batch: Option<BatchJobId>,
    hosts: Vec<HostId>,
    /// Queue-backed jobs own their nodes; queue-less (local/ssh/zorilla)
    /// jobs share them (the OS multiplexes, no reservation exists).
    exclusive: bool,
}

struct PendingJob {
    desc: JobDescription,
    reply_to: ActorId,
    adapter: MiddlewareKind,
}

/// The head node of one resource: accepts submissions, runs the batch
/// queue, allocates hosts, spawns processes, reports status.
pub struct MiddlewareActor {
    name: String,
    nodes: Vec<HostId>,
    node_free: Vec<bool>,
    queue: BatchQueue,
    pending: HashMap<GatJobId, PendingJob>,
    batch_to_job: HashMap<BatchJobId, GatJobId>,
    running: HashMap<GatJobId, RunningJob>,
    finished: Vec<GatJobId>,
}

impl MiddlewareActor {
    /// Create the head-node actor for a resource with the given compute
    /// nodes.
    pub fn new(name: impl Into<String>, nodes: Vec<HostId>) -> MiddlewareActor {
        assert!(!nodes.is_empty(), "resource needs at least one node");
        let n = nodes.len();
        MiddlewareActor {
            name: name.into(),
            node_free: vec![true; n],
            nodes,
            queue: BatchQueue::new(n as u32),
            pending: HashMap::new(),
            batch_to_job: HashMap::new(),
            running: HashMap::new(),
            finished: Vec::new(),
        }
    }

    fn emit(&self, ctx: &mut Ctx<'_>, to: ActorId, ev: GatEvent) {
        ctx.send_net(to, 256, TrafficClass::Control, ev);
    }

    fn allocate_hosts(&mut self, n: u32) -> Vec<HostId> {
        let mut picked = Vec::with_capacity(n as usize);
        for (i, free) in self.node_free.iter_mut().enumerate() {
            if picked.len() as u32 == n {
                break;
            }
            if *free {
                *free = false;
                picked.push(self.nodes[i]);
            }
        }
        assert_eq!(picked.len() as u32, n, "batch queue admitted an oversubscribed job");
        picked
    }

    fn release_hosts(&mut self, hosts: &[HostId]) {
        for h in hosts {
            if let Some(i) = self.nodes.iter().position(|x| x == h) {
                self.node_free[i] = true;
            }
        }
    }

    /// Pick `n` hosts without reserving them (queue-less adapters).
    fn pick_shared_hosts(&self, n: u32) -> Vec<HostId> {
        self.nodes.iter().copied().cycle().take(n as usize).collect()
    }

    fn start_job(
        &mut self,
        ctx: &mut Ctx<'_>,
        job_id: GatJobId,
        batch: Option<BatchJobId>,
        exclusive: bool,
    ) {
        let Some(mut p) = self.pending.remove(&job_id) else { return };
        let total = p.desc.total_processes();
        let hosts = if exclusive {
            self.allocate_hosts(p.desc.nodes)
        } else {
            self.pick_shared_hosts(p.desc.nodes)
        };
        let mut seats = Vec::with_capacity(total as usize);
        let mut rank = 0;
        for h in &hosts {
            for _ in 0..p.desc.processes_per_node {
                let actor = ctx.spawn(*h, (p.desc.factory)(rank, total, *h));
                seats.push(ProcessSeat { rank, total, host: *h, actor });
                // Tell the process its coordinates (arrives right after
                // its on_start).
                ctx.schedule_for(
                    actor,
                    SimDuration::ZERO,
                    ProcStart { broker: ctx.id(), job: job_id, rank, total },
                );
                rank += 1;
            }
        }
        let mut ev = GatEvent::new(job_id, JobState::Running);
        ev.seats = seats.clone();
        self.emit(ctx, p.reply_to, ev);
        self.running.insert(
            job_id,
            RunningJob {
                desc_executable: p.desc.executable.clone(),
                reply_to: p.reply_to,
                seats,
                live_procs: total,
                stage_out_bytes: p.desc.stage_out_bytes,
                batch,
                hosts,
                exclusive,
            },
        );
    }

    fn finish_job(&mut self, ctx: &mut Ctx<'_>, job_id: GatJobId, state: JobState, detail: &str) {
        let Some(job) = self.running.remove(&job_id) else { return };
        if job.exclusive {
            self.release_hosts(&job.hosts);
        }
        if let Some(b) = job.batch {
            self.queue.complete(b);
        }
        for seat in &job.seats {
            ctx.kill_actor(seat.actor);
        }
        if state == JobState::Stopped && job.stage_out_bytes > 0 {
            self.emit(ctx, job.reply_to, GatEvent::new(job_id, JobState::PostStaging));
            // post-stage output back to the submitter: charged as staging
            // traffic on the message itself
            let mut ev = GatEvent::new(job_id, JobState::Stopped);
            ev.detail = detail.to_string();
            ctx.send_net(job.reply_to, job.stage_out_bytes + 256, TrafficClass::Staging, ev);
        } else {
            let mut ev = GatEvent::new(job_id, state);
            ev.detail = detail.to_string();
            self.emit(ctx, job.reply_to, ev);
        }
        self.finished.push(job_id);
    }

    fn pump_queue(&mut self, ctx: &mut Ctx<'_>) {
        let events = self.queue.advance(ctx.now());
        for ev in events {
            match ev {
                BatchEvent::Started(b) => {
                    if let Some(&job) = self.batch_to_job.get(&b) {
                        self.emit_scheduled_to_running(ctx, job, b);
                    }
                }
                BatchEvent::Killed(b) => {
                    if let Some(&job) = self.batch_to_job.get(&b) {
                        self.finish_job(ctx, job, JobState::Killed, "reservation expired");
                    }
                }
            }
        }
        if let Some(deadline) = self.queue.next_deadline() {
            let now = ctx.now();
            if deadline > now {
                ctx.schedule_self(deadline - now, Tick);
            }
        }
    }

    fn emit_scheduled_to_running(&mut self, ctx: &mut Ctx<'_>, job: GatJobId, batch: BatchJobId) {
        self.start_job(ctx, job, Some(batch), true);
    }
}

impl Actor for MiddlewareActor {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<SubmitRequest>() {
            Ok((_, req)) => {
                let SubmitRequest { job, desc, reply_to, adapter } = req;
                if desc.nodes as usize > self.nodes.len() {
                    let mut ev = GatEvent::new(job, JobState::SubmissionError);
                    ev.detail = format!(
                        "job wants {} nodes, resource {} has {}",
                        desc.nodes,
                        self.name,
                        self.nodes.len()
                    );
                    self.emit(ctx, reply_to, ev);
                    return;
                }
                self.emit(ctx, reply_to, GatEvent::new(job, JobState::PreStaging));
                self.pending.insert(job, PendingJob { desc, reply_to, adapter });
                // adapter overhead before the job reaches the queue/starts
                ctx.schedule_self(adapter.submit_overhead(), Accepted(job));
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Accepted>() {
            Ok((_, Accepted(job))) => {
                let Some(p) = self.pending.get(&job) else { return };
                if p.adapter.uses_batch_queue() {
                    let b = self.queue.submit(p.desc.nodes, p.desc.walltime);
                    self.batch_to_job.insert(b, job);
                    self.emit(ctx, p.reply_to, GatEvent::new(job, JobState::Scheduled));
                    self.pump_queue(ctx);
                } else {
                    // queue-less adapters (local/ssh/zorilla): no
                    // reservation exists; processes share the machine and
                    // the OS (here: the BusyLedger) multiplexes them.
                    self.start_job(ctx, job, None, false);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ProcExit>() {
            Ok((_, ProcExit { job, rank: _ })) => {
                if let Some(r) = self.running.get_mut(&job) {
                    r.live_procs = r.live_procs.saturating_sub(1);
                    if r.live_procs == 0 {
                        self.finish_job(ctx, job, JobState::Stopped, "exit 0");
                        self.pump_queue(ctx);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<CancelRequest>() {
            Ok((_, CancelRequest(job))) => {
                if self.pending.remove(&job).is_some() {
                    return;
                }
                if self.running.contains_key(&job) {
                    self.finish_job(ctx, job, JobState::Killed, "cancelled by user");
                    self.pump_queue(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        if msg.downcast::<Tick>().is_ok() {
            self.pump_queue(ctx);
        }
    }
}

/// The realm: all resources a user has access to (their "grid file").
#[derive(Clone, Default)]
pub struct GatRealm {
    resources: HashMap<String, Rc<ResourceDesc>>,
}

impl GatRealm {
    /// Empty realm.
    pub fn new() -> GatRealm {
        GatRealm::default()
    }

    /// Install a middleware actor for a resource and register it. The
    /// broker is placed on `head` (usually the site front-end).
    pub fn install(
        &mut self,
        sim: &mut Sim,
        name: impl Into<String>,
        site: SiteId,
        head: HostId,
        nodes: Vec<HostId>,
        supported: Vec<MiddlewareKind>,
    ) -> Rc<ResourceDesc> {
        let name = name.into();
        let broker =
            sim.add_actor(head, Box::new(MiddlewareActor::new(name.clone(), nodes.clone())));
        let desc = Rc::new(ResourceDesc { name: name.clone(), site, nodes, supported, broker });
        self.resources.insert(name, desc.clone());
        desc
    }

    /// Look up a resource by name.
    pub fn resource(&self, name: &str) -> Option<Rc<ResourceDesc>> {
        self.resources.get(name).cloned()
    }

    /// All resource names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.resources.keys().cloned().collect();
        v.sort();
        v
    }
}
