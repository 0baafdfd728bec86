//! Integration tests for JavaGAT-over-the-jungle: submission, queueing,
//! staging, cancellation, and the reservation-expiry fault.

use jc_gat::broker::{CancelRequest, ProcExit, ProcStart, SubmitRequest};
use jc_gat::{select_adapter, GatEvent, GatRealm, JobDescription, JobState, MiddlewareKind};
use jc_netsim::compute::{CpuSpec, Device};
use jc_netsim::topology::HostSpec;
use jc_netsim::{
    Actor, ActorId, Ctx, FirewallPolicy, HostId, Msg, Sim, SimConfig, SimDuration, Topology,
};
use std::cell::RefCell;
use std::rc::Rc;

type Events = Rc<RefCell<Vec<(u64, JobState, String)>>>;

/// A worker process: the first ProcStart triggers compute; we re-deliver
/// the same ProcStart as the completion timer, then report exit.
struct Worker {
    computed: bool,
    flops: f64,
}

impl Actor for Worker {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if let Ok((_, start)) = msg.downcast::<ProcStart>() {
            if !self.computed {
                self.computed = true;
                let d = ctx.compute(&Device::Cpu { threads: 1 }, self.flops, 0);
                ctx.schedule_self(d, start);
            } else {
                ctx.send_net(
                    start.broker,
                    64,
                    jc_netsim::metrics::TrafficClass::Control,
                    ProcExit { job: start.job, rank: start.rank },
                );
            }
        }
    }
}

/// A never-exiting worker (like an AMUSE model worker).
struct Daemonic;
impl Actor for Daemonic {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
}

/// The submitting client: fires one SubmitRequest on start and records all
/// GatEvents.
struct Client {
    broker: ActorId,
    desc: Option<JobDescription>,
    adapter: MiddlewareKind,
    job_id: u64,
    events: Events,
    cancel_after: Option<SimDuration>,
}

impl Actor for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let desc = self.desc.take().expect("one submission");
        let stage = desc.stage_in_bytes;
        ctx.send_net(
            self.broker,
            stage + 512,
            jc_netsim::metrics::TrafficClass::Staging,
            SubmitRequest {
                job: jc_gat::GatJobId(self.job_id),
                desc,
                reply_to: ctx.id(),
                adapter: self.adapter,
            },
        );
        if let Some(after) = self.cancel_after {
            ctx.schedule_self(after, CancelRequest(jc_gat::GatJobId(self.job_id)));
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<GatEvent>() {
            Ok((_, ev)) => {
                self.events.borrow_mut().push((ev.job.0, ev.state, ev.detail));
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, c)) = msg.downcast::<CancelRequest>() {
            ctx.send_net(self.broker, 64, jc_netsim::metrics::TrafficClass::Control, c);
        }
    }
}

struct World {
    sim: Sim,
    realm: GatRealm,
    client_host: HostId,
}

fn build_world(cluster_nodes: usize) -> World {
    let mut t = Topology::new();
    let home = t.add_site("home", "desk", FirewallPolicy::Open);
    let cluster = t.add_site("cluster", "Amsterdam", FirewallPolicy::Open);
    t.add_link(home, cluster, SimDuration::from_millis(5), 1.0, "wan");
    let client_host = t.add_host(HostSpec::node("laptop", home, CpuSpec::generic()));
    let head = t.add_host(HostSpec::node("fs0", cluster, CpuSpec::generic()).as_front_end());
    let nodes: Vec<HostId> = (0..cluster_nodes)
        .map(|i| t.add_host(HostSpec::node(format!("node{i:03}"), cluster, CpuSpec::generic())))
        .collect();
    let mut sim = Sim::new(t, SimConfig::default());
    let mut realm = GatRealm::new();
    realm.install(
        &mut sim,
        "DAS-4 (VU)",
        cluster,
        head,
        nodes,
        vec![MiddlewareKind::Pbs, MiddlewareKind::Ssh],
    );
    World { sim, realm, client_host }
}

fn worker_factory() -> impl FnMut(u32, u32, HostId) -> Box<dyn Actor> {
    |_r, _t, _h| Box::new(Worker { computed: false, flops: 2.0e9 })
}

fn states(events: &Events) -> Vec<JobState> {
    events.borrow().iter().map(|(_, s, _)| *s).collect()
}

#[test]
fn pbs_job_runs_through_full_lifecycle() {
    let mut w = build_world(4);
    let events: Events = Default::default();
    let broker = w.realm.resource("DAS-4 (VU)").unwrap().broker;
    let mut desc = JobDescription::simple("phigrape", worker_factory());
    desc.nodes = 2;
    desc.processes_per_node = 1;
    desc.stage_in_bytes = 1 << 20;
    desc.stage_out_bytes = 1 << 18;
    let client = Client {
        broker,
        desc: Some(desc),
        adapter: MiddlewareKind::Pbs,
        job_id: 1,
        events: events.clone(),
        cancel_after: None,
    };
    w.sim.add_actor(w.client_host, Box::new(client));
    w.sim.run_to_quiescence(1_000_000);
    let s = states(&events);
    assert_eq!(
        s,
        vec![
            JobState::PreStaging,
            JobState::Scheduled,
            JobState::Running,
            JobState::PostStaging,
            JobState::Stopped
        ],
        "full PBS lifecycle: {s:?}"
    );
    // PBS overhead (2 s) + compute (1 s) must be reflected in virtual time.
    assert!(w.sim.now().as_secs_f64() > 3.0);
}

#[test]
fn ssh_job_skips_queue() {
    let mut w = build_world(2);
    let events: Events = Default::default();
    let broker = w.realm.resource("DAS-4 (VU)").unwrap().broker;
    let client = Client {
        broker,
        desc: Some(JobDescription::simple("sse", worker_factory())),
        adapter: MiddlewareKind::Ssh,
        job_id: 2,
        events: events.clone(),
        cancel_after: None,
    };
    w.sim.add_actor(w.client_host, Box::new(client));
    w.sim.run_to_quiescence(1_000_000);
    let s = states(&events);
    assert_eq!(s, vec![JobState::PreStaging, JobState::Running, JobState::Stopped]);
    assert!(w.sim.now().as_secs_f64() < 2.0, "ssh path is fast: {}", w.sim.now());
}

#[test]
fn oversized_job_is_rejected() {
    let mut w = build_world(2);
    let events: Events = Default::default();
    let broker = w.realm.resource("DAS-4 (VU)").unwrap().broker;
    let mut desc = JobDescription::simple("gadget", worker_factory());
    desc.nodes = 16;
    let client = Client {
        broker,
        desc: Some(desc),
        adapter: MiddlewareKind::Pbs,
        job_id: 3,
        events: events.clone(),
        cancel_after: None,
    };
    w.sim.add_actor(w.client_host, Box::new(client));
    w.sim.run_to_quiescence(1_000_000);
    let ev = events.borrow();
    assert_eq!(ev.len(), 1);
    assert_eq!(ev[0].1, JobState::SubmissionError);
    assert!(ev[0].2.contains("16 nodes"));
}

#[test]
fn reservation_expiry_kills_long_job() {
    let mut w = build_world(2);
    let events: Events = Default::default();
    let broker = w.realm.resource("DAS-4 (VU)").unwrap().broker;
    let mut desc = JobDescription::simple("amuse-worker", |_r, _t, _h| Box::new(Daemonic));
    desc.walltime = Some(SimDuration::from_secs(30));
    let client = Client {
        broker,
        desc: Some(desc),
        adapter: MiddlewareKind::Pbs,
        job_id: 4,
        events: events.clone(),
        cancel_after: None,
    };
    w.sim.add_actor(w.client_host, Box::new(client));
    w.sim.run_to_quiescence(1_000_000);
    let s = states(&events);
    assert_eq!(
        s,
        vec![JobState::PreStaging, JobState::Scheduled, JobState::Running, JobState::Killed],
        "{s:?}"
    );
    let detail = &events.borrow().last().unwrap().2.clone();
    assert!(detail.contains("reservation expired"), "{detail}");
    // killed right around the 30 s walltime (plus overheads)
    let t = w.sim.now().as_secs_f64();
    assert!((30.0..35.0).contains(&t), "kill time {t}");
}

#[test]
fn user_cancel_kills_running_job() {
    let mut w = build_world(2);
    let events: Events = Default::default();
    let broker = w.realm.resource("DAS-4 (VU)").unwrap().broker;
    let client = Client {
        broker,
        desc: Some(JobDescription::simple("amuse-worker", |_r, _t, _h| Box::new(Daemonic))),
        adapter: MiddlewareKind::Ssh,
        job_id: 5,
        events: events.clone(),
        cancel_after: Some(SimDuration::from_secs(3)),
    };
    w.sim.add_actor(w.client_host, Box::new(client));
    w.sim.run_to_quiescence(1_000_000);
    let s = states(&events);
    assert_eq!(s, vec![JobState::PreStaging, JobState::Running, JobState::Killed]);
    assert!(events.borrow().last().unwrap().2.contains("cancelled"));
}

#[test]
fn fifo_queueing_delays_second_job() {
    let mut w = build_world(2);
    let ev_a: Events = Default::default();
    let ev_b: Events = Default::default();
    let broker = w.realm.resource("DAS-4 (VU)").unwrap().broker;
    let mut desc_a = JobDescription::simple("first", worker_factory());
    desc_a.nodes = 2;
    let mut desc_b = JobDescription::simple("second", worker_factory());
    desc_b.nodes = 2;
    w.sim.add_actor(
        w.client_host,
        Box::new(Client {
            broker,
            desc: Some(desc_a),
            adapter: MiddlewareKind::Pbs,
            job_id: 10,
            events: ev_a.clone(),
            cancel_after: None,
        }),
    );
    w.sim.add_actor(
        w.client_host,
        Box::new(Client {
            broker,
            desc: Some(desc_b),
            adapter: MiddlewareKind::Pbs,
            job_id: 11,
            events: ev_b.clone(),
            cancel_after: None,
        }),
    );
    w.sim.run_to_quiescence(1_000_000);
    assert_eq!(states(&ev_a).last(), Some(&JobState::Stopped));
    assert_eq!(states(&ev_b).last(), Some(&JobState::Stopped));
    // both jobs want the full machine: they must have run serially, so the
    // end time covers two 1 s computations plus overheads
    assert!(w.sim.now().as_secs_f64() > 4.0, "serial execution: {}", w.sim.now());
}

#[test]
fn adapter_selection_for_resource() {
    let w = build_world(1);
    let r = w.realm.resource("DAS-4 (VU)").unwrap();
    // default preference picks ssh over pbs
    assert_eq!(select_adapter(&r.supported, &[]), Ok(MiddlewareKind::Ssh));
    // explicit preference for batch
    assert_eq!(select_adapter(&r.supported, &[MiddlewareKind::Pbs]), Ok(MiddlewareKind::Pbs));
    assert_eq!(w.realm.names(), vec!["DAS-4 (VU)".to_string()]);
}
