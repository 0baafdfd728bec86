//! The §6 evaluation scenarios: lab conditions (Fig 12, Table 1 numbers)
//! and the SC11 demonstration (Figs 9–11).

use crate::channel::SimLink;
use crate::daemon::{IbisDaemon, RegisterWorker, WorkerId};
use crate::perfmodel::{byte_scale, devices, production, ModelKind, PerfProfile};
use crate::proxy::{BusyLedger, WorkerProxy};
use jc_amuse::bridge::{Bridge, BridgeConfig, BridgeError};
use jc_amuse::checkpoint::{Checkpoint, Role};
use jc_amuse::cluster::EmbeddedCluster;
use jc_amuse::worker::ModelWorker;
use jc_deploy::build::Deployment;
use jc_deploy::descriptor::{GpuEntry, GridDescription, LinkEntry, ResourceEntry};
use jc_gat::broker::SubmitRequest;
use jc_gat::{GatEvent, JobDescription, JobState, MiddlewareKind, ProcessSeat};
use jc_netsim::metrics::TrafficClass;
use jc_netsim::{Actor, ActorId, Ctx, Msg, Sim, SimConfig, SimDuration};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The four §6.2 lab scenarios.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// Fi + PhiGRAPE(CPU) on the quad-core desktop (353 s/iter in the
    /// paper).
    CpuOnly,
    /// Octgrav + PhiGRAPE(GPU) on the desktop's GeForce 9600GT (89 s).
    LocalGpu,
    /// Octgrav moved to a Tesla C2050 on the LGM cluster, 30 km away
    /// (84 s — "using the compute power of a GPU 30 kilometers away is
    /// faster than using a GPU located inside our own machine").
    RemoteGpu,
    /// The full Fig 12 jungle: Gadget on 8 DAS-4 (VU) nodes, SSE at UvA,
    /// Octgrav on 2 GPU nodes at TU Delft, PhiGRAPE on the LGM (62.4 s).
    FullJungle,
}

impl Scenario {
    /// All four, in paper order.
    pub fn all() -> [Scenario; 4] {
        [Scenario::CpuOnly, Scenario::LocalGpu, Scenario::RemoteGpu, Scenario::FullJungle]
    }

    /// The runtime the paper reports, seconds per iteration.
    pub fn paper_seconds(self) -> f64 {
        match self {
            Scenario::CpuOnly => 353.0,
            Scenario::LocalGpu => 89.0,
            Scenario::RemoteGpu => 84.0,
            Scenario::FullJungle => 62.4,
        }
    }

    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::CpuOnly => "CPU only (Fi + phiGRAPE-CPU)",
            Scenario::LocalGpu => "local GPU (Octgrav + phiGRAPE-GPU)",
            Scenario::RemoteGpu => "remote GPU (Octgrav on LGM)",
            Scenario::FullJungle => "full jungle (4 sites)",
        }
    }
}

/// The Fig 12 lab grid.
pub fn lab_grid() -> GridDescription {
    GridDescription {
        resources: vec![
            ResourceEntry {
                name: "Desktop (VU)".into(),
                location: "Amsterdam, NL".into(),
                firewall: "open".into(),
                nodes: 1,
                cores_per_node: 4,
                gflops_per_core: devices::CORE2_CORE,
                gpus: vec![GpuEntry {
                    model: "GeForce 9600GT".into(),
                    gflops: devices::GEFORCE_9600GT,
                    pcie_gibps: 4.0,
                }],
                middlewares: vec!["local".into(), "ssh".into()],
                hub: true,
                client: true,
                fabric_latency_us: 20,
                fabric_gbps: 9.0,
                memory_gib: 8,
            },
            ResourceEntry {
                name: "DAS-4 (VU)".into(),
                location: "Amsterdam, NL".into(),
                firewall: "open".into(),
                nodes: 8,
                cores_per_node: 8,
                gflops_per_core: devices::DAS4_NODE / 8.0,
                gpus: vec![],
                middlewares: vec!["pbs".into(), "ssh".into()],
                hub: true,
                client: false,
                fabric_latency_us: 50,
                fabric_gbps: 10.0,
                memory_gib: 24,
            },
            ResourceEntry {
                name: "DAS-4 (UvA)".into(),
                location: "Amsterdam, NL".into(),
                firewall: "open".into(),
                nodes: 1,
                cores_per_node: 8,
                gflops_per_core: devices::DAS4_NODE / 8.0,
                gpus: vec![],
                middlewares: vec!["pbs".into(), "ssh".into()],
                hub: true,
                client: false,
                fabric_latency_us: 50,
                fabric_gbps: 10.0,
                memory_gib: 24,
            },
            ResourceEntry {
                name: "DAS-4 (TUD)".into(),
                location: "Delft, NL".into(),
                firewall: "open".into(),
                nodes: 2,
                cores_per_node: 8,
                gflops_per_core: devices::DAS4_NODE / 8.0,
                gpus: vec![GpuEntry {
                    model: "GTX480".into(),
                    gflops: devices::DAS4_GTX480,
                    pcie_gibps: 4.0,
                }],
                middlewares: vec!["pbs".into(), "ssh".into()],
                hub: true,
                client: false,
                fabric_latency_us: 50,
                fabric_gbps: 10.0,
                memory_gib: 24,
            },
            ResourceEntry {
                name: "LGM (LU)".into(),
                location: "Leiden, NL".into(),
                firewall: "open".into(),
                nodes: 1,
                cores_per_node: 8,
                gflops_per_core: devices::DAS4_NODE / 8.0,
                gpus: vec![GpuEntry {
                    model: "Tesla C2050".into(),
                    gflops: devices::TESLA_C2050,
                    pcie_gibps: 4.0,
                }],
                middlewares: vec!["sge".into(), "ssh".into()],
                hub: true,
                client: false,
                fabric_latency_us: 50,
                fabric_gbps: 10.0,
                memory_gib: 24,
            },
        ],
        links: vec![
            LinkEntry {
                a: "Desktop (VU)".into(),
                b: "DAS-4 (VU)".into(),
                latency_ms: 0.2,
                gbps: 1.0,
                label: "1GbE".into(),
            },
            LinkEntry {
                a: "DAS-4 (VU)".into(),
                b: "DAS-4 (UvA)".into(),
                latency_ms: 0.3,
                gbps: 10.0,
                label: "10G lightpath (STARplane)".into(),
            },
            LinkEntry {
                a: "DAS-4 (VU)".into(),
                b: "DAS-4 (TUD)".into(),
                latency_ms: 0.5,
                gbps: 10.0,
                label: "10G lightpath (STARplane)".into(),
            },
            LinkEntry {
                a: "DAS-4 (TUD)".into(),
                b: "LGM (LU)".into(),
                latency_ms: 0.5,
                gbps: 1.0,
                label: "1G lightpath".into(),
            },
        ],
    }
}

/// The Fig 9 SC11 grid: the lab grid with the client replaced by a laptop
/// in Seattle behind a transatlantic 1G lightpath, plus the SARA render
/// cluster driving the tiled display.
pub fn sc11_grid() -> GridDescription {
    let mut g = lab_grid();
    // the desktop stays as a resource but is no longer the client
    for r in &mut g.resources {
        if r.client {
            r.client = false;
        }
    }
    g.resources.push(ResourceEntry {
        name: "Laptop (Seattle)".into(),
        location: "Seattle, WA, USA".into(),
        firewall: "firewalled".into(),
        nodes: 1,
        cores_per_node: 2,
        gflops_per_core: 1.0,
        gpus: vec![],
        middlewares: vec!["local".into()],
        hub: true,
        client: true,
        fabric_latency_us: 20,
        fabric_gbps: 9.0,
        memory_gib: 4,
    });
    g.resources.push(ResourceEntry {
        name: "RVS (SARA)".into(),
        location: "Amsterdam, NL".into(),
        firewall: "open".into(),
        nodes: 16,
        cores_per_node: 8,
        gflops_per_core: 2.0,
        gpus: vec![GpuEntry { model: "render GPU".into(), gflops: 200.0, pcie_gibps: 4.0 }],
        middlewares: vec!["ssh".into()],
        hub: true,
        client: false,
        fabric_latency_us: 50,
        fabric_gbps: 10.0,
        memory_gib: 48,
    });
    g.links.push(LinkEntry {
        a: "Laptop (Seattle)".into(),
        b: "DAS-4 (VU)".into(),
        latency_ms: 45.0,
        gbps: 1.0,
        label: "transatlantic 1G lightpath".into(),
    });
    g.links.push(LinkEntry {
        a: "RVS (SARA)".into(),
        b: "DAS-4 (VU)".into(),
        latency_ms: 0.3,
        gbps: 10.0,
        label: "2 x transatlantic 10G lightpath (render)".into(),
    });
    g
}

/// Where one worker goes.
struct Placement {
    resource: &'static str,
    nodes: u32,
    adapter: MiddlewareKind,
    gflops: f64,
    device_tag: u8,
    mpi_ranks: u32,
    kind: ModelKind,
    label: &'static str,
}

fn placements(s: Scenario) -> [Placement; 4] {
    use MiddlewareKind::*;
    use ModelKind::*;
    const CPU: u8 = 0;
    const GPU: u8 = 1;
    match s {
        Scenario::CpuOnly => [
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::CORE2_QUAD,
                device_tag: CPU,
                mpi_ranks: 1,
                kind: Coupling,
                label: "fi",
            },
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::CORE2_QUAD,
                device_tag: CPU,
                mpi_ranks: 1,
                kind: Gravity,
                label: "phigrape-cpu",
            },
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::CORE2_QUAD,
                device_tag: CPU,
                mpi_ranks: 1,
                kind: Hydro,
                label: "gadget",
            },
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::CORE2_QUAD,
                device_tag: CPU,
                mpi_ranks: 1,
                kind: Stellar,
                label: "sse",
            },
        ],
        Scenario::LocalGpu => [
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::GEFORCE_9600GT,
                device_tag: GPU,
                mpi_ranks: 1,
                kind: Coupling,
                label: "octgrav",
            },
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::GEFORCE_9600GT,
                device_tag: GPU,
                mpi_ranks: 1,
                kind: Gravity,
                label: "phigrape-gpu",
            },
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::CORE2_QUAD,
                device_tag: CPU,
                mpi_ranks: 1,
                kind: Hydro,
                label: "gadget",
            },
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::CORE2_QUAD,
                device_tag: CPU,
                mpi_ranks: 1,
                kind: Stellar,
                label: "sse",
            },
        ],
        Scenario::RemoteGpu => [
            Placement {
                resource: "LGM (LU)",
                nodes: 1,
                adapter: Ssh,
                gflops: devices::TESLA_C2050,
                device_tag: GPU,
                mpi_ranks: 1,
                kind: Coupling,
                label: "octgrav",
            },
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::GEFORCE_9600GT,
                device_tag: GPU,
                mpi_ranks: 1,
                kind: Gravity,
                label: "phigrape-gpu",
            },
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::CORE2_QUAD,
                device_tag: CPU,
                mpi_ranks: 1,
                kind: Hydro,
                label: "gadget",
            },
            Placement {
                resource: "Desktop (VU)",
                nodes: 1,
                adapter: Local,
                gflops: devices::CORE2_QUAD,
                device_tag: CPU,
                mpi_ranks: 1,
                kind: Stellar,
                label: "sse",
            },
        ],
        Scenario::FullJungle => [
            Placement {
                resource: "DAS-4 (TUD)",
                nodes: 2,
                adapter: Pbs,
                gflops: 2.0 * devices::DAS4_GTX480,
                device_tag: GPU,
                mpi_ranks: 1,
                kind: Coupling,
                label: "octgrav",
            },
            Placement {
                resource: "LGM (LU)",
                nodes: 1,
                adapter: Ssh,
                gflops: devices::TESLA_C2050,
                device_tag: GPU,
                mpi_ranks: 1,
                kind: Gravity,
                label: "phigrape-gpu",
            },
            Placement {
                resource: "DAS-4 (VU)",
                nodes: 8,
                adapter: Pbs,
                gflops: 8.0 * devices::DAS4_NODE,
                device_tag: CPU,
                mpi_ranks: 8,
                kind: Hydro,
                label: "gadget",
            },
            Placement {
                resource: "DAS-4 (UvA)",
                nodes: 1,
                adapter: Pbs,
                gflops: devices::DAS4_NODE,
                device_tag: CPU,
                mpi_ranks: 1,
                kind: Stellar,
                label: "sse",
            },
        ],
    }
}

/// An idle MPI-rank actor (ranks 1..n of a multi-node worker).
struct IdleRank;
impl Actor for IdleRank {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
}

/// Submits the worker jobs and records their seats.
struct Starter {
    submissions: Vec<(u64, ActorId, Option<JobDescription>, MiddlewareKind)>,
    seats: Rc<RefCell<HashMap<u64, Vec<ProcessSeat>>>>,
    failures: Rc<RefCell<Vec<String>>>,
}

impl Actor for Starter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (job, broker, desc, adapter) in &mut self.submissions {
            let desc = desc.take().expect("submitted once");
            let stage = desc.stage_in_bytes;
            ctx.send_net(
                *broker,
                stage + 512,
                TrafficClass::Staging,
                SubmitRequest {
                    job: jc_gat::GatJobId(*job),
                    desc,
                    reply_to: ctx.id(),
                    adapter: *adapter,
                },
            );
        }
    }

    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        if let Ok((_, ev)) = msg.downcast::<GatEvent>() {
            match ev.state {
                JobState::Running => {
                    self.seats.borrow_mut().insert(ev.job.0, ev.seats);
                }
                JobState::SubmissionError | JobState::Killed => {
                    self.failures.borrow_mut().push(format!("{:?}: {}", ev.job, ev.detail));
                }
                _ => {}
            }
        }
    }
}

/// Result of running a scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Which scenario.
    pub scenario: Scenario,
    /// Measured virtual seconds per iteration (mean over iterations).
    pub seconds_per_iteration: f64,
    /// The paper's figure for the same setup.
    pub paper_seconds: f64,
    /// RPC calls per iteration.
    pub calls_per_iteration: f64,
    /// Bytes that crossed wide-area links (IPL class), total.
    pub wan_ipl_bytes: u64,
    /// Modeled MPI bytes inside multi-node workers.
    pub mpi_bytes: u64,
    /// Supernovae during the measured iterations.
    pub supernovae: u32,
    /// Worker failures survived (checkpoint-restore replays). Always 0
    /// unless failure injection with recovery is active.
    pub recoveries: u32,
}

/// A deployed, measured world (kept so callers can render monitor views).
pub struct ScenarioRun {
    /// The result row.
    pub result: ScenarioResult,
    /// The simulator after the run (topology + metrics intact).
    pub sim: Rc<RefCell<Sim>>,
    /// The deployment's realm (for the resource map view).
    pub realm: jc_gat::GatRealm,
    /// Overlay (for the Fig 10 view).
    pub overlay: Rc<jc_smartsockets::Overlay>,
    /// Job rows for the Fig 10 job table.
    pub jobs: Vec<jc_deploy::monitor::JobRow>,
}

/// Toy problem size used for the real physics inside the modeled run.
pub const TOY_STARS: usize = 48;
/// Toy gas particle count.
pub const TOY_GAS: usize = 192;
/// Bridge substeps per outer iteration in the scenario runs.
pub const SUBSTEPS: u32 = 8;

/// Run a lab scenario for `iterations` outer iterations on the Fig 12
/// grid; returns measurements plus the live world.
pub fn run_scenario(scenario: Scenario, iterations: u32) -> ScenarioRun {
    run_on_grid(lab_grid(), scenario, iterations)
}

/// Run the SC11 demonstration setup (FullJungle placements, coupler in
/// Seattle).
pub fn run_sc11(iterations: u32) -> ScenarioRun {
    run_on_grid(sc11_grid(), Scenario::FullJungle, iterations)
}

/// Reproduce the paper's §5 fault-tolerance limitation: crash the host of
/// the first (coupling) worker mid-run and observe that "the entire
/// simulation crashes" — the coupled run aborts. Returns true when the
/// run panicked as the paper describes.
pub fn run_crash_demo() -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_on_grid_inner(lab_grid(), Scenario::RemoteGpu, 1, Some(0), false);
    }))
    .is_err()
}

/// Beyond the paper: the same mid-run host crash as [`run_crash_demo`],
/// *survived*. The crashed node is restored (empty), a fresh worker
/// proxy is placed and re-registered with the daemon, the bridge swaps
/// in a channel to it, restores its last checkpoint, and replays the
/// failed iteration — the failure-scenario axis the jungle premise
/// demands. The returned result has `recoveries >= 1`.
pub fn run_failover_demo(iterations: u32) -> ScenarioRun {
    run_on_grid_inner(lab_grid(), Scenario::RemoteGpu, iterations, Some(0), true)
}

fn run_on_grid(grid: GridDescription, scenario: Scenario, iterations: u32) -> ScenarioRun {
    run_on_grid_inner(grid, scenario, iterations, None, false)
}

/// The bridge slot a placed model kind serves.
fn role_of(kind: ModelKind) -> Role {
    match kind {
        ModelKind::Coupling => Role::Coupling,
        ModelKind::Gravity => Role::Gravity,
        ModelKind::Hydro => Role::Hydro,
        ModelKind::Stellar => Role::Stellar,
    }
}

fn run_on_grid_inner(
    grid: GridDescription,
    scenario: Scenario,
    iterations: u32,
    crash_worker: Option<u32>,
    recover: bool,
) -> ScenarioRun {
    assert!(iterations > 0);
    let mut deployment = Deployment::build(grid, SimConfig { seed: 7 }).expect("valid grid");
    assert!(deployment.converge_overlay(10_000_000), "overlay converged");
    let client_host = deployment.client_host;
    let overlay = deployment.overlay.clone();
    let realm = deployment.realm.clone();

    // the daemon on the user's machine
    let daemon = IbisDaemon::install(&mut deployment.sim, client_host, Some(overlay.clone()));

    // toy cluster: real physics at small N
    let cluster = EmbeddedCluster::build(TOY_STARS, TOY_GAS, 0.5, 42);
    let use_gpu = scenario != Scenario::CpuOnly;
    let (g, h, c, s) = cluster.local_workers(use_gpu);
    let workers: [(Box<dyn ModelWorker>, ModelKind); 4] = [
        (c, ModelKind::Coupling),
        (g, ModelKind::Gravity),
        (h, ModelKind::Hydro),
        (s, ModelKind::Stellar),
    ];

    let ledger: BusyLedger = Default::default();
    let seats: Rc<RefCell<HashMap<u64, Vec<ProcessSeat>>>> = Default::default();
    let failures: Rc<RefCell<Vec<String>>> = Default::default();
    let mut submissions = Vec::new();
    let mut jobs = Vec::new();
    let place = placements(scenario);
    let gas_scale = byte_scale(TOY_GAS, production::N_GAS);
    let star_scale = byte_scale(TOY_STARS, production::N_STARS);

    for (wid, ((worker, kind), p)) in workers.into_iter().zip(&place).enumerate() {
        assert_eq!(p.kind, kind, "placement order matches worker order");
        let resource = realm.resource(p.resource).expect("resource in grid");
        let cell: Rc<RefCell<Option<Box<dyn ModelWorker>>>> = Rc::new(RefCell::new(Some(worker)));
        let id = WorkerId(wid as u32);
        let profile = PerfProfile { kind: p.kind, substeps: SUBSTEPS };
        let scale = match p.kind {
            ModelKind::Hydro | ModelKind::Coupling => gas_scale,
            _ => star_scale,
        };
        let (gflops, tag, ranks, ledger_c) = (p.gflops, p.device_tag, p.mpi_ranks, ledger.clone());
        let factory = move |rank: u32, _total: u32, _host| -> Box<dyn Actor> {
            if rank == 0 {
                Box::new(WorkerProxy::new(
                    id,
                    cell.clone(),
                    gflops,
                    profile,
                    tag,
                    ledger_c.clone(),
                    scale,
                    ranks,
                ))
            } else {
                Box::new(IdleRank)
            }
        };
        let mut desc = JobDescription::simple(p.label, factory);
        desc.nodes = p.nodes;
        desc.stage_in_bytes = 4 << 20; // model binary + input tables
        submissions.push((wid as u64, resource.broker, Some(desc), p.adapter));
        jobs.push(jc_deploy::monitor::JobRow {
            name: p.label.to_string(),
            resource: p.resource.to_string(),
            nodes: p.nodes,
            state: JobState::Running,
        });
    }

    deployment.sim.add_actor(
        client_host,
        Box::new(Starter { submissions, seats: seats.clone(), failures: failures.clone() }),
    );
    // drive until all four workers are seated
    while seats.borrow().len() < 4 {
        assert!(failures.borrow().is_empty(), "worker start failed: {:?}", failures.borrow());
        assert!(deployment.sim.step(), "sim idle before workers started");
    }
    // register worker routes with the daemon
    for wid in 0..4u64 {
        let proxy = seats.borrow()[&wid][0].actor;
        deployment.sim.post(
            daemon.actor,
            RegisterWorker { id: WorkerId(wid as u32), proxy },
            SimDuration::ZERO,
        );
    }
    while daemon.shared.borrow().routes.len() < 4 {
        assert!(deployment.sim.step(), "sim idle before registration completed");
    }

    // failure injection: kill a worker's host shortly after startup — the
    // §5 limitation demo (see run_crash_demo)
    if let Some(w) = crash_worker {
        let host = seats.borrow()[&(w as u64)][0].host;
        let at = deployment.sim.now() + SimDuration::from_secs(1);
        deployment.sim.crash_host_at(host, at);
    }

    let sim = Rc::new(RefCell::new(deployment.sim));
    let mk_channel = |wid: u32, scale: f64, name: &str| {
        SimLink::open(sim.clone(), daemon.clone(), WorkerId(wid), scale, name)
    };
    let coupling = mk_channel(0, gas_scale, place[0].label);
    let gravity = mk_channel(1, star_scale, place[1].label);
    let hydro = mk_channel(2, gas_scale, place[2].label);
    let stellar = mk_channel(3, star_scale, place[3].label);

    let mut cfg: BridgeConfig = cluster.bridge_config();
    cfg.substeps = SUBSTEPS;
    cfg.stellar_interval = 1;
    let mut bridge = Bridge::new(
        Box::new(gravity),
        Box::new(hydro),
        Box::new(coupling),
        Some(Box::new(stellar)),
        cfg,
    );

    // measure
    let t0 = sim.borrow().now();
    let calls0 = total_calls(&bridge);
    let mut supernovae = 0;
    let mut recoveries = 0u32;
    let mut checkpoint: Option<Checkpoint> = None;
    for _ in 0..iterations {
        let rep = if !recover {
            bridge.iteration()
        } else {
            if checkpoint.is_none() {
                checkpoint = Some(bridge.snapshot().expect("initial checkpoint"));
            }
            match bridge.try_iteration() {
                Ok(rep) => rep,
                Err(e) => {
                    // a worker died mid-iteration: the failure names its
                    // role, the seat table its host. Restore the node,
                    // re-place a fresh proxy, re-register the route,
                    // rewind to the checkpoint, replay
                    recoveries += 1;
                    let BridgeError::Worker { role, .. } = e else {
                        panic!("not a worker failure, nothing to re-place: {e}")
                    };
                    let w = place
                        .iter()
                        .position(|p| role_of(p.kind) == role)
                        .expect("every role has a placement");
                    let host = seats.borrow()[&(w as u64)][0].host;
                    sim.borrow_mut().restore_host_now(host);
                    let (g2, h2, c2, s2) = cluster.local_workers(use_gpu);
                    let p = &place[w];
                    let fresh: Box<dyn ModelWorker> = match p.kind {
                        ModelKind::Coupling => c2,
                        ModelKind::Gravity => g2,
                        ModelKind::Hydro => h2,
                        ModelKind::Stellar => s2,
                    };
                    let scale = match p.kind {
                        ModelKind::Hydro | ModelKind::Coupling => gas_scale,
                        _ => star_scale,
                    };
                    let proxy = WorkerProxy::new(
                        WorkerId(w as u32),
                        Rc::new(RefCell::new(Some(fresh))),
                        p.gflops,
                        PerfProfile { kind: p.kind, substeps: SUBSTEPS },
                        p.device_tag,
                        ledger.clone(),
                        scale,
                        p.mpi_ranks,
                    );
                    let actor = sim.borrow_mut().add_actor(host, Box::new(proxy));
                    sim.borrow_mut().post(
                        daemon.actor,
                        RegisterWorker { id: WorkerId(w as u32), proxy: actor },
                        SimDuration::ZERO,
                    );
                    while daemon.shared.borrow().routes.get(&WorkerId(w as u32)) != Some(&actor) {
                        assert!(sim.borrow_mut().step(), "sim idle before re-registration");
                    }
                    bridge.replace_channel(role, Box::new(mk_channel(w as u32, scale, p.label)));
                    bridge
                        .restore(checkpoint.as_ref().expect("checkpoint taken"))
                        .expect("restore after failover");
                    bridge
                        .try_iteration()
                        .unwrap_or_else(|e2| panic!("replay failed after {e}: {e2}"))
                }
            }
        };
        if recover {
            checkpoint = Some(bridge.snapshot().expect("refresh checkpoint"));
        }
        supernovae += rep.supernovae;
    }
    let t1 = sim.borrow().now();
    let calls1 = total_calls(&bridge);

    let seconds = (t1 - t0).as_secs_f64() / iterations as f64;
    let (wan_ipl, mpi) = {
        let sim_ref = sim.borrow();
        let m = sim_ref.metrics();
        let mut ipl = 0;
        let mut mpi = 0;
        for (_, class, bytes) in m.link_traffic() {
            match class {
                TrafficClass::Ipl => ipl += bytes,
                TrafficClass::Mpi => mpi += bytes,
                _ => {}
            }
        }
        (ipl, mpi)
    };

    ScenarioRun {
        result: ScenarioResult {
            scenario,
            seconds_per_iteration: seconds,
            paper_seconds: scenario.paper_seconds(),
            calls_per_iteration: (calls1 - calls0) as f64 / iterations as f64,
            wan_ipl_bytes: wan_ipl,
            mpi_bytes: mpi,
            supernovae,
            recoveries,
        },
        sim,
        realm,
        overlay,
        jobs,
    }
}

fn total_calls(bridge: &Bridge) -> u64 {
    let (g, h, c, s) = bridge.channel_stats();
    g.calls + h.calls + c.calls + s.map(|x| x.calls).unwrap_or(0)
}

/// Render the Table 1 rows (paper vs. measured) as fixed-width text.
pub fn format_table1(results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<38} {:>12} {:>12} {:>9} {:>8}\n",
        "SCENARIO", "PAPER s/it", "MODEL s/it", "SPEEDUP", "CALLS/it"
    ));
    let base = results.first().map(|r| r.seconds_per_iteration).unwrap_or(1.0);
    for r in results {
        out.push_str(&format!(
            "{:<38} {:>12.1} {:>12.1} {:>8.1}x {:>8.0}\n",
            r.scenario.label(),
            r.paper_seconds,
            r.seconds_per_iteration,
            base / r.seconds_per_iteration,
            r.calls_per_iteration,
        ));
    }
    out
}
