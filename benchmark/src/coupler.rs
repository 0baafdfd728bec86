//! The three coupler workloads: a `Bridge` driven for blocks of
//! iterations, each block restarted from the same checkpoint and checked
//! bitwise against an in-process *local twin*.
//!
//! | workload | stresses | bypasses |
//! |---|---|---|
//! | `cluster_local` | kernels (SPH, N-body, tree) | transport |
//! | `cluster_tcp_chatty` | per-RPC latency: many small frames | kernels (tiny N), bulk codec |
//! | `wire_bulk_null` | bytes: copies, buffers, codec bandwidth | kernels (null), per-RPC cost |
//!
//! Load is one coupler thread; over TCP each worker is one more thread
//! behind a loopback `WorkerServer`. The coupler never has more than
//! two requests in flight at once (the parallel evolve, or the K=2
//! shard fan-out).

use crate::metrics::{end_to_end, LayerSheet};
use crate::stats::{self, RunOutput};
use crate::trace::{self, traced, SharedTracer, TimedWorker, Tracer, WorkerClock};
use jc_amuse::channel::{Channel, ChannelStats, LocalChannel};
use jc_amuse::chaos::ChaosRng;
use jc_amuse::checkpoint::ModelState;
use jc_amuse::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ModelWorker, ParticleColumns, ParticleData,
    Request, Response, StellarWorker,
};
use jc_amuse::{
    Bridge, BridgeConfig, Checkpoint, EmbeddedCluster, Reactor, ReactorChannel, ShardedChannel,
    WorkerFleet,
};
use jc_nbody::Backend;
use jc_service::session::state_digest;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Coupling shards behind the TCP workloads' `ShardedChannel`.
pub const SHARDS: usize = 2;

/// Everything that defines one coupler workload. Sizes are constants of
/// the benchmark: re-sizing them is a benchmark change, not a tuning
/// knob.
#[derive(Clone, Copy, Debug)]
pub struct CouplerSpec {
    /// Workload name.
    pub name: &'static str,
    /// Star count.
    pub stars: usize,
    /// Gas particle count.
    pub gas: usize,
    /// Bridge substeps per iteration.
    pub substeps: u32,
    /// Stellar exchange every this many iterations; 0 = no stellar worker.
    pub stellar_interval: u32,
    /// Every worker behind a loopback `WorkerServer`, `ReactorChannel`s
    /// on one `Reactor`, coupling sharded K=[`SHARDS`]. Otherwise
    /// `LocalChannel`s.
    pub tcp: bool,
    /// Benchmark-owned null kernels instead of the real ones.
    pub null_kernels: bool,
    /// Untimed iterations after assembly (part of set-up).
    pub warm_iters: usize,
    /// Iterations per block; every block restarts from the same
    /// checkpoint, so blocks do identical work.
    pub block_iters: usize,
}

/// The single-machine baseline: kernels do the work, transport is bypassed.
pub const CLUSTER_LOCAL: CouplerSpec = CouplerSpec {
    name: "cluster_local",
    stars: 128,
    gas: 512,
    substeps: 2,
    stellar_interval: 2,
    tcp: false,
    null_kernels: false,
    warm_iters: 3,
    // odd on purpose: the adaptive time steps make the iterations of a
    // block cost 77…160 ms each, the same sequence in every block, so
    // the sample is a mixture of `block_iters` modes and its median
    // should be one of them, not a point between two
    block_iters: 7,
};

/// Message-bound: ~75 small RPCs per iteration over the full TCP stack.
/// 8/16 particles, not more: with the run confined to one CPU an RPC
/// costs ~8 µs, and at 8/32 the kernels were already 59 % of the
/// iteration; here the twin is a third of it.
pub const CLUSTER_TCP_CHATTY: CouplerSpec = CouplerSpec {
    name: "cluster_tcp_chatty",
    stars: 8,
    gas: 16,
    substeps: 4,
    stellar_interval: 2,
    tcp: true,
    null_kernels: false,
    warm_iters: 30,
    block_iters: 100,
};

/// Byte-bound: ~7.9 MB per iteration over the same stack, null kernels.
/// 1024/4096 particles, not more: iteration time is linear in the bytes
/// from 512/2048 up (1.7, 3.1, 6.2 ms), so bytes are ~87 % of it here
/// already, and at 2048/8192 the frames and their copies outgrow the
/// core's private cache — identical runs then landed on 5.4 or 6.2 ms
/// (10 % spread over ten runs, 2.4 % here, interleaved).
pub const WIRE_BULK_NULL: CouplerSpec = CouplerSpec {
    name: "wire_bulk_null",
    stars: 1024,
    gas: 4096,
    substeps: 4,
    stellar_interval: 0,
    tcp: true,
    null_kernels: true,
    warm_iters: 30,
    block_iters: 120,
};

// --------------------------------------------------------------------------
// null kernels

/// A model worker that holds particles and does no physics: `EvolveTo`
/// only advances the clock, kicks are applied (so the final state
/// proves every byte arrived), snapshots take the same fast paths the
/// real workers implement.
pub struct NullWorker {
    data: ParticleData,
    time: f64,
    label: &'static str,
}

impl NullWorker {
    /// `n` particles drawn from `seed`.
    pub fn new(n: usize, seed: u64, label: &'static str) -> NullWorker {
        let mut rng = ChaosRng::new(seed);
        let mut unit = move || 2.0 * stats::uniform(&mut rng) - 1.0;
        let mut data = ParticleData::default();
        for _ in 0..n {
            data.mass.push(1.0 / n as f64);
            data.pos.push([unit(), unit(), unit()]);
            data.vel.push([0.1 * unit(), 0.1 * unit(), 0.1 * unit()]);
        }
        NullWorker { data, time: 0.0, label }
    }

    fn apply_kick(&mut self, dv: &[[f64; 3]]) -> Option<f64> {
        if dv.len() != self.data.vel.len() {
            return None;
        }
        for (v, d) in self.data.vel.iter_mut().zip(dv) {
            for k in 0..3 {
                v[k] += d[k];
            }
        }
        Some(dv.len() as f64 * 3.0)
    }
}

impl ModelWorker for NullWorker {
    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping | Request::Stop | Request::Shutdown => Response::Ok { flops: 0.0 },
            Request::EvolveTo(t) => {
                self.time = t;
                Response::Ok { flops: 0.0 }
            }
            Request::GetParticles => Response::Particles(self.data.clone()),
            Request::Kick(dv) => match self.apply_kick(&dv) {
                Some(flops) => Response::Ok { flops },
                None => Response::Error("kick vector length mismatch".into()),
            },
            Request::SaveState => Response::State(ModelState::Gravity {
                time: self.time,
                mass: self.data.mass.clone(),
                pos: self.data.pos.clone(),
                vel: self.data.vel.clone(),
            }),
            Request::LoadState(ModelState::Gravity { time, mass, pos, vel }) => {
                if pos.len() != mass.len() || vel.len() != mass.len() {
                    return Response::Error("ragged null state".into());
                }
                self.time = time;
                self.data = ParticleData { mass, pos, vel };
                Response::Ok { flops: 0.0 }
            }
            _ => Response::Unsupported,
        }
    }

    fn name(&self) -> String {
        self.label.into()
    }

    fn snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        out.copy_from(&self.data.mass, &self.data.pos, &self.data.vel);
        true
    }

    fn particles(&self) -> Option<ParticleColumns<'_>> {
        Some((&self.data.mass, &self.data.pos, &self.data.vel))
    }

    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Option<f64> {
        self.apply_kick(dv)
    }
}

/// The null coupling kernel: each target's acceleration is a fixed
/// multiple of its own position — O(targets), independent of the
/// sources, so it costs nothing and is exact under target sharding.
pub struct NullCoupling;

impl NullCoupling {
    fn fill(targets: &[[f64; 3]], out: &mut Vec<[f64; 3]>) -> f64 {
        out.clear();
        out.extend(targets.iter().map(|p| [-1e-3 * p[0], -1e-3 * p[1], -1e-3 * p[2]]));
        targets.len() as f64 * 3.0
    }
}

impl ModelWorker for NullCoupling {
    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping | Request::Stop | Request::Shutdown => Response::Ok { flops: 0.0 },
            Request::SaveState => Response::State(ModelState::Stateless),
            Request::LoadState(ModelState::Stateless) => Response::Ok { flops: 0.0 },
            Request::ComputeKick { targets, source_pos, source_mass } => {
                if source_pos.len() != source_mass.len() {
                    return Response::Error("source arrays length mismatch".into());
                }
                let mut acc = Vec::new();
                let flops = NullCoupling::fill(&targets, &mut acc);
                Response::Accelerations { acc, flops }
            }
            _ => Response::Unsupported,
        }
    }

    fn name(&self) -> String {
        "null-coupling".into()
    }

    fn compute_kick_into(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) -> Option<f64> {
        (source_pos.len() == source_mass.len()).then(|| NullCoupling::fill(targets, out))
    }
}

// --------------------------------------------------------------------------
// assembling a bridge

/// The tracing attachments of a traced rig: the span buffer the
/// channels write and one busy clock per role (the two coupling shards
/// share theirs, so it reads total busy time across shards).
pub struct TraceKit {
    /// Span buffer.
    pub tracer: SharedTracer,
    /// Busy clocks: gravity, hydro, coupling, stellar.
    pub clocks: [Arc<WorkerClock>; 4],
}

impl TraceKit {
    /// A kit with room for `capacity` spans.
    pub fn new(capacity: usize) -> TraceKit {
        TraceKit { tracer: Tracer::shared(capacity), clocks: Default::default() }
    }
}

const ROLE_LABELS: [&str; 4] = ["gravity", "hydro", "coupling", "stellar"];

/// An assembled workload: the bridge, the worker servers behind it (if
/// any), and the checkpoint every block restarts from.
pub struct Rig {
    /// The bridge under test.
    pub bridge: Bridge,
    fleet: WorkerFleet,
    /// State after warm-up; blocks restore it.
    pub initial: Checkpoint,
}

impl Rig {
    /// Drop the channels (their `Stop` frames end the servers), then
    /// join every server thread and surface a server-side error.
    pub fn teardown(self) -> std::io::Result<()> {
        let Rig { bridge, mut fleet, .. } = self;
        drop(bridge);
        fleet.join_all()
    }
}

/// `ch`, recorded into the kit's tracer when there is one.
fn wrap(
    kit: Option<&TraceKit>,
    ch: Box<dyn Channel>,
    label: impl Into<String>,
    role: usize,
    leaf: bool,
) -> Box<dyn Channel> {
    match kit {
        Some(k) => traced(&k.tracer, ch, label, role, leaf),
        None => ch,
    }
}

fn local(worker: Box<dyn ModelWorker>, clock: Option<&Arc<WorkerClock>>) -> Box<dyn Channel> {
    Box::new(LocalChannel::new(match clock {
        Some(c) => Box::new(TimedWorker::new(worker, Arc::clone(c))),
        None => worker,
    }))
}

fn spawn<W, F>(
    fleet: &mut WorkerFleet,
    name: &str,
    clock: Option<&Arc<WorkerClock>>,
    make: F,
) -> SocketAddr
where
    W: ModelWorker + 'static,
    F: FnOnce() -> W + Send + 'static,
{
    match clock {
        Some(c) => {
            let c = Arc::clone(c);
            fleet.spawn(name, move || TimedWorker::new(Box::new(make()), c))
        }
        None => fleet.spawn(name, make),
    }
}

/// The bridge configuration of `spec` (units from the cluster when the
/// kernels are real).
fn bridge_config(spec: &CouplerSpec, cluster: Option<&EmbeddedCluster>) -> BridgeConfig {
    let mut cfg = cluster.map(|c| c.bridge_config()).unwrap_or_default();
    cfg.substeps = spec.substeps;
    // the bridge insists on a positive interval even without a stellar
    // worker; with none attached the exchange is skipped
    cfg.stellar_interval = spec.stellar_interval.max(1);
    cfg
}

/// The realization every run of a cluster workload starts from.
const BASE_SEED: u64 = 39;

/// The embedded cluster of `spec` as run `seed` sees it: one fixed
/// realization, turned by a rotation drawn from the seed.
///
/// How much work a coupled iteration is depends on the realization —
/// the Hermite and SPH time steps follow the closest pairs, and ten
/// realizations of the 128/512 cluster spread over 96…132 ms per
/// iteration. Drawing the cluster itself from the run seed would make
/// every comparison across seeds a comparison of inputs, not of code.
/// A rotation changes every coordinate bit (and the octree and SPH
/// grid cell structure with them) but not the dynamics, so runs on
/// different seeds do the same physical work on different numbers.
fn cluster_for(spec: &CouplerSpec, seed: u64) -> EmbeddedCluster {
    let mut cluster = EmbeddedCluster::build(spec.stars, spec.gas, 0.5, BASE_SEED);
    // a uniform random rotation from a normalized 4-vector (unit quaternion)
    let mut rng = ChaosRng::new(seed);
    let mut unit = move || 2.0 * stats::uniform(&mut rng) - 1.0;
    let (w, x, y, z) = loop {
        let q = (unit(), unit(), unit(), unit());
        let n2 = q.0 * q.0 + q.1 * q.1 + q.2 * q.2 + q.3 * q.3;
        if (0.01..=1.0).contains(&n2) {
            let n = n2.sqrt();
            break (q.0 / n, q.1 / n, q.2 / n, q.3 / n);
        }
    };
    let m = [
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)],
        [2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w)],
        [2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y)],
    ];
    let turn = |v: &mut [f64; 3]| {
        let p = *v;
        for (k, row) in m.iter().enumerate() {
            v[k] = row[0] * p[0] + row[1] * p[1] + row[2] * p[2];
        }
    };
    let (stars, gas) = (&mut cluster.stars, &mut cluster.gas);
    stars
        .pos
        .iter_mut()
        .chain(&mut stars.vel)
        .chain(&mut gas.pos)
        .chain(&mut gas.vel)
        .for_each(turn);
    cluster
}

/// Seeds of the two null particle sets, derived from the run seed.
fn null_seeds(seed: u64) -> (u64, u64) {
    (seed.wrapping_mul(2).wrapping_add(1), seed.wrapping_mul(2).wrapping_add(2))
}

/// The in-process workers of `spec`, built the way the service and
/// `jungle-worker` build theirs (`local_workers(false)`).
struct LocalWorkers {
    cfg: BridgeConfig,
    gravity: Box<dyn ModelWorker>,
    hydro: Box<dyn ModelWorker>,
    /// One coupling worker per shard.
    coupling: Vec<Box<dyn ModelWorker>>,
    stellar: Option<Box<dyn ModelWorker>>,
}

fn local_workers(spec: &CouplerSpec, seed: u64, shards: usize) -> LocalWorkers {
    if spec.null_kernels {
        let (s1, s2) = null_seeds(seed);
        return LocalWorkers {
            cfg: bridge_config(spec, None),
            gravity: Box::new(NullWorker::new(spec.stars, s1, "null-stars")),
            hydro: Box::new(NullWorker::new(spec.gas, s2, "null-gas")),
            coupling: (0..shards).map(|_| Box::new(NullCoupling) as Box<dyn ModelWorker>).collect(),
            stellar: None,
        };
    }
    let cluster = cluster_for(spec, seed);
    let (gravity, hydro, _, stellar) = cluster.local_workers(false);
    LocalWorkers {
        cfg: bridge_config(spec, Some(&cluster)),
        gravity,
        hydro,
        coupling: (0..shards).map(|_| cluster.local_workers(false).2).collect(),
        stellar: (spec.stellar_interval > 0).then_some(stellar),
    }
}

/// Assemble an all-in-process bridge for `spec`. With `sharded`, the
/// coupling role is a K=[`SHARDS`] `ShardedChannel` over local channels
/// — the TCP topology minus the transport, which is what makes a TCP
/// run's byte accounting comparable call for call.
fn build_local(spec: &CouplerSpec, seed: u64, sharded: bool, kit: Option<&TraceKit>) -> Bridge {
    let mut w = local_workers(spec, seed, if sharded { SHARDS } else { 1 });
    let clock = |role: usize| kit.map(|k| &k.clocks[role]);
    let wrap = |ch, label: String, role, leaf| wrap(kit, ch, label, role, leaf);
    let coupling = if sharded {
        let shards = w
            .coupling
            .into_iter()
            .enumerate()
            .map(|(i, c)| wrap(local(c, clock(2)), format!("coupling/{i}"), 2, true))
            .collect();
        let pool = ShardedChannel::with_counts(shards, vec![0; SHARDS]);
        wrap(Box::new(pool), ROLE_LABELS[2].into(), 2, false)
    } else {
        let c = w.coupling.pop().expect("one coupling worker");
        wrap(local(c, clock(2)), ROLE_LABELS[2].into(), 2, true)
    };
    Bridge::new(
        wrap(local(w.gravity, clock(0)), ROLE_LABELS[0].into(), 0, true),
        wrap(local(w.hydro, clock(1)), ROLE_LABELS[1].into(), 1, true),
        coupling,
        w.stellar.map(|s| wrap(local(s, clock(3)), ROLE_LABELS[3].into(), 3, true)),
        w.cfg,
    )
}

/// Assemble the TCP topology: each worker behind its own loopback
/// `WorkerServer` thread, one `Reactor`, coupling sharded K=[`SHARDS`].
/// Workers are constructed on their server threads the way
/// `jungle-worker` constructs them; the local twin (built through
/// `local_workers(false)`) checks that the two agree bitwise.
fn build_tcp(
    spec: &CouplerSpec,
    seed: u64,
    kit: Option<&TraceKit>,
    fleet: &mut WorkerFleet,
) -> Bridge {
    let clock = |role: usize| kit.map(|k| &k.clocks[role]);
    let (n_stars, n_gas) = (spec.stars, spec.gas);
    let mut addrs: Vec<(SocketAddr, String, usize)> = Vec::new();
    let mut cfg = bridge_config(spec, None);
    if spec.null_kernels {
        let (s1, s2) = null_seeds(seed);
        let a =
            spawn(fleet, "gravity", clock(0), move || NullWorker::new(n_stars, s1, "null-stars"));
        addrs.push((a, ROLE_LABELS[0].into(), 0));
        let a = spawn(fleet, "hydro", clock(1), move || NullWorker::new(n_gas, s2, "null-gas"));
        addrs.push((a, ROLE_LABELS[1].into(), 1));
        for i in 0..SHARDS {
            let a = spawn(fleet, &format!("coupling-{i}"), clock(2), || NullCoupling);
            addrs.push((a, format!("coupling/{i}"), 2));
        }
    } else {
        let cluster = cluster_for(spec, seed);
        cfg = bridge_config(spec, Some(&cluster));
        let stars = cluster.stars.clone();
        let a = spawn(fleet, "gravity", clock(0), move || {
            GravityWorker::new(stars, Backend::CpuParallel)
        });
        addrs.push((a, ROLE_LABELS[0].into(), 0));
        let gas = cluster.gas.clone();
        let a = spawn(fleet, "hydro", clock(1), move || HydroWorker::new(gas));
        addrs.push((a, ROLE_LABELS[1].into(), 1));
        for i in 0..SHARDS {
            let a = spawn(fleet, &format!("coupling-{i}"), clock(2), CouplingWorker::fi);
            addrs.push((a, format!("coupling/{i}"), 2));
        }
        if spec.stellar_interval > 0 {
            let imf = cluster.star_masses_msun.clone();
            let a = spawn(fleet, "stellar", clock(3), move || StellarWorker::new(imf, 0.02));
            addrs.push((a, ROLE_LABELS[3].into(), 3));
        }
    }

    let reactor = Reactor::new_shared().expect("create reactor");
    let mut by_role: [Vec<Box<dyn Channel>>; 4] = Default::default();
    for (addr, label, role) in addrs {
        let ch: Box<dyn Channel> = Box::new(
            ReactorChannel::connect(&reactor, addr, label.clone()).expect("connect to worker"),
        );
        by_role[role].push(wrap(kit, ch, label, role, true));
    }
    let [mut g, mut h, c, mut s] = by_role;
    let pool = Box::new(ShardedChannel::with_counts(c, vec![0; SHARDS]));
    let coupling = wrap(kit, pool, ROLE_LABELS[2], 2, false);
    Bridge::new(g.remove(0), h.remove(0), coupling, s.pop(), cfg)
}

/// Assemble `spec`, warm it, and take the checkpoint blocks restart from.
pub fn build_rig(spec: &CouplerSpec, seed: u64, kit: Option<&TraceKit>) -> Rig {
    let mut fleet = WorkerFleet::new();
    let mut bridge = if spec.tcp {
        build_tcp(spec, seed, kit, &mut fleet)
    } else {
        build_local(spec, seed, false, kit)
    };
    for _ in 0..spec.warm_iters {
        bridge.iteration();
    }
    let initial = bridge.snapshot().expect("initial checkpoint");
    Rig { bridge, fleet, initial }
}

// --------------------------------------------------------------------------
// the local twin

/// Per-role channel statistics: gravity, hydro, coupling, stellar.
pub type RoleStats = [ChannelStats; 4];

fn role_stats(bridge: &Bridge) -> RoleStats {
    let (g, h, c, s) = bridge.channel_stats();
    [g, h, c, s.unwrap_or_default()]
}

fn stats_delta(after: &RoleStats, before: &RoleStats) -> RoleStats {
    let mut d = RoleStats::default();
    for r in 0..4 {
        d[r] = ChannelStats {
            calls: after[r].calls - before[r].calls,
            bytes_out: after[r].bytes_out - before[r].bytes_out,
            bytes_in: after[r].bytes_in - before[r].bytes_in,
            flops: after[r].flops - before[r].flops,
            retries: after[r].retries - before[r].retries,
        };
    }
    d
}

fn merge_roles(total: &mut RoleStats, add: &RoleStats) {
    for (t, a) in total.iter_mut().zip(add) {
        t.merge(a);
    }
}

fn digest(bridge: &mut Bridge) -> u64 {
    let (stars, gas) = bridge.snapshots();
    state_digest(&stars, &gas)
}

/// What one block must reproduce: computed once per run on an
/// all-in-process bridge of the same topology.
pub struct Reference {
    /// `state_digest` after warm-up plus one block.
    pub digest: u64,
    /// Per-role calls and bytes of one block (the `wire_size()` model:
    /// in-process channels account modeled sizes, TCP channels account
    /// bytes actually moved — they must agree).
    pub stats: RoleStats,
    /// Median quiet iteration time of the twin.
    pub iter_ms_p50: f64,
}

/// Run the local twin of `spec`: same inputs, same warm-up, one block
/// for the digest and the accounting — run straight on, where the rig's
/// blocks each start from a restore, so equal digests also say restore
/// is exact. `timing_blocks` (at least 1) replays of that block give
/// the twin's quiet iteration time.
pub fn reference(spec: &CouplerSpec, seed: u64, timing_blocks: usize) -> Reference {
    let mut twin = build_local(spec, seed, spec.tcp, None);
    for _ in 0..spec.warm_iters {
        twin.iteration();
    }
    let initial = twin.snapshot().expect("twin checkpoint");
    let block = |twin: &mut Bridge, quiet: &mut Vec<f64>| {
        let ms: Vec<f64> = (0..spec.block_iters)
            .map(|_| {
                let t0 = Instant::now();
                twin.iteration();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        quieter(quiet, &ms);
    };
    let mut quiet = Vec::new();
    let before = role_stats(&twin);
    block(&mut twin, &mut quiet);
    let stats = stats_delta(&role_stats(&twin), &before);
    let digest = digest(&mut twin);
    for _ in 1..timing_blocks {
        twin.restore(&initial).expect("twin restore");
        block(&mut twin, &mut quiet);
    }
    Reference { digest, stats, iter_ms_p50: stats::median(&quiet) }
}

// --------------------------------------------------------------------------
// blocks

/// What one block measured.
pub struct Block {
    /// Per-iteration wall times (ms) of the iterations that completed.
    pub iter_ms: Vec<f64>,
    /// Iterations that errored, plus every iteration of a block whose
    /// final state or byte accounting disagreed with the reference.
    pub failed: u64,
    /// `Bridge::restore` of the initial checkpoint (µs).
    pub restore_us: f64,
    /// `Bridge::snapshot` of the final state (µs).
    pub snapshot_us: f64,
    /// Per-role statistics of the block's iterations.
    pub stats: RoleStats,
    /// Why the block failed its checks, if it did.
    pub problem: Option<String>,
}

/// Restore the initial checkpoint, run `spec.block_iters` timed
/// iterations, and check the result against `reference`. With a
/// tracer, each iteration is a root span numbered from `iter_base`.
pub fn run_block(
    rig: &mut Rig,
    spec: &CouplerSpec,
    reference: &Reference,
    tracer: Option<&SharedTracer>,
    iter_base: u32,
) -> Block {
    let t0 = Instant::now();
    let restored = rig.bridge.restore(&rig.initial);
    let restore_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut block = Block {
        iter_ms: Vec::with_capacity(spec.block_iters),
        failed: 0,
        restore_us,
        snapshot_us: 0.0,
        stats: RoleStats::default(),
        problem: None,
    };
    if let Err(e) = restored {
        block.failed = spec.block_iters as u64;
        block.problem = Some(format!("restore failed: {e}"));
        return block;
    }
    let before = role_stats(&rig.bridge);
    for i in 0..spec.block_iters {
        let token = tracer.map(|t| t.borrow_mut().open_root(iter_base + i as u32));
        let t0 = Instant::now();
        let result = rig.bridge.try_iteration();
        let dt = t0.elapsed();
        if let (Some(t), Some(token)) = (tracer, token) {
            t.borrow_mut().close(token);
        }
        match result {
            Ok(_) => block.iter_ms.push(dt.as_secs_f64() * 1e3),
            Err(e) => {
                // the solver state is indeterminate after a failed
                // iteration: give up the rest of this block
                block.failed = (spec.block_iters - i) as u64;
                block.problem = Some(format!("iteration failed: {e}"));
                return block;
            }
        }
    }
    block.stats = stats_delta(&role_stats(&rig.bridge), &before);
    let t0 = Instant::now();
    let saved = rig.bridge.snapshot();
    block.snapshot_us = t0.elapsed().as_secs_f64() * 1e6;

    let mut problems = Vec::new();
    if let Err(e) = saved {
        problems.push(format!("final checkpoint failed: {e}"));
    }
    let got = digest(&mut rig.bridge);
    if got != reference.digest {
        problems.push(format!("digest {got:#018x} != local twin {:#018x}", reference.digest));
    }
    for (label, (a, b)) in ROLE_LABELS.iter().zip(block.stats.iter().zip(&reference.stats)) {
        if (a.calls, a.bytes_out, a.bytes_in) != (b.calls, b.bytes_out, b.bytes_in) {
            problems.push(format!(
                "{label} accounting {}c/{}B out/{}B in != wire_size() model {}c/{}B/{}B",
                a.calls, a.bytes_out, a.bytes_in, b.calls, b.bytes_out, b.bytes_in
            ));
        }
        if a.retries != 0 {
            problems.push(format!("{label} retried {} request(s)", a.retries));
        }
    }
    if !problems.is_empty() {
        block.failed = spec.block_iters as u64;
        block.problem = Some(problems.join("; "));
    }
    block
}

/// Lower `quiet` to `times` wherever `times` is shorter (position by
/// position; the first sample is taken as is).
fn quieter(quiet: &mut Vec<f64>, times: &[f64]) {
    if quiet.is_empty() {
        quiet.extend_from_slice(times);
    }
    for (q, t) in quiet.iter_mut().zip(times) {
        *q = q.min(*t);
    }
}

/// Blocks run back to back for about `seconds` of iteration time.
#[derive(Default)]
pub struct Round {
    /// Every completed iteration's wall time (ms).
    pub iter_ms: Vec<f64>,
    /// The quiet time of each iteration of a block (ms): the shortest
    /// it took in any block that passed its checks. Empty until one did.
    pub quiet_ms: Vec<f64>,
    /// Blocks that passed their checks.
    pub clean_blocks: usize,
    /// Σ iteration time (s).
    pub busy_s: f64,
    /// Iterations attempted / failed.
    pub attempted: u64,
    /// Iterations failed (see [`Block::failed`]).
    pub failed: u64,
    /// Restore / snapshot timings, one per block (µs).
    pub restore_us: Vec<f64>,
    /// See `restore_us`.
    pub snapshot_us: Vec<f64>,
    /// Per-role statistics summed over blocks.
    pub stats: RoleStats,
    /// First few check failures.
    pub problems: Vec<String>,
}

impl Round {
    /// Fold one more block of `rig` into the round.
    fn run_block(
        &mut self,
        rig: &mut Rig,
        spec: &CouplerSpec,
        reference: &Reference,
        tracer: Option<&SharedTracer>,
    ) {
        let b = run_block(rig, spec, reference, tracer, self.attempted as u32);
        self.attempted += spec.block_iters as u64;
        self.failed += b.failed;
        self.busy_s += b.iter_ms.iter().sum::<f64>() / 1e3;
        if b.problem.is_none() {
            self.clean_blocks += 1;
            quieter(&mut self.quiet_ms, &b.iter_ms);
        }
        self.iter_ms.extend_from_slice(&b.iter_ms);
        self.restore_us.push(b.restore_us);
        self.snapshot_us.push(b.snapshot_us);
        merge_roles(&mut self.stats, &b.stats);
        if let Some(p) = b.problem {
            if self.problems.len() < 4 {
                self.problems.push(p);
            }
        }
    }

    /// Three blocks' worth of failures: a broken rig accumulates no
    /// iteration time, and a loop waiting for it would never end.
    fn stuck(&self, spec: &CouplerSpec) -> bool {
        self.failed >= 3 * spec.block_iters as u64
    }

    /// Fold a later round of the same workload into this one.
    fn absorb(&mut self, later: Round) {
        self.iter_ms.extend_from_slice(&later.iter_ms);
        quieter(&mut self.quiet_ms, &later.quiet_ms);
        self.clean_blocks += later.clean_blocks;
        self.busy_s += later.busy_s;
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.restore_us.extend_from_slice(&later.restore_us);
        self.snapshot_us.extend_from_slice(&later.snapshot_us);
        merge_roles(&mut self.stats, &later.stats);
        let room = 4usize.saturating_sub(self.problems.len());
        self.problems.extend(later.problems.into_iter().take(room));
    }

    /// Median quiet iteration time (ms).
    pub fn quiet_p50_ms(&self) -> f64 {
        stats::median(&self.quiet_ms)
    }

    /// Iterations per second of a block made of the quiet times:
    /// mean-based, so the heavy iterations of a block count.
    pub fn quiet_per_s(&self) -> f64 {
        self.quiet_ms.len() as f64 * 1e3 / self.quiet_ms.iter().sum::<f64>()
    }
}

// --------------------------------------------------------------------------
// the two run modes

/// `--trace 0`: the end-to-end metrics of one coupler workload.
///
/// The run is [`crate::SEGMENTS`] segments, each on a freshly set-up
/// rig, so the set-up samples are spread over the whole run. Every
/// block of every segment replays the same iterations from the same
/// state; the timing metrics are built from each iteration's *quiet
/// time*, the shortest of its replays. On a shared machine interference
/// only ever adds time: in an hour when the plain median of identical
/// runs spread over 10–16 % of itself, these spread over 2–5 %.
pub fn run_end_to_end(spec: &CouplerSpec, seed: u64, seconds: f64) -> RunOutput {
    let mut out = RunOutput { correct: true, ..RunOutput::default() };
    let reference = reference(spec, seed, 1);
    let mut round = Round::default();
    let (mut setup_s, mut segment_p50, mut segment_per_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..crate::SEGMENTS {
        // set-up: assemble + warm + initial checkpoint
        let t0 = Instant::now();
        let mut rig = build_rig(spec, seed, None);
        setup_s.push(t0.elapsed().as_secs_f64());
        let mut segment = Round::default();
        while segment.busy_s < seconds / crate::SEGMENTS as f64 && !segment.stuck(spec) {
            segment.run_block(&mut rig, spec, &reference, None);
        }
        teardown(rig, &mut out);
        if !segment.quiet_ms.is_empty() {
            segment_p50.push(segment.quiet_p50_ms());
            segment_per_s.push(segment.quiet_per_s());
        }
        round.absorb(segment);
    }

    out.attempted = round.attempted;
    out.failed = round.failed;
    for p in &round.problems {
        out.fail(p.clone());
    }
    if round.quiet_ms.is_empty() {
        out.fail("no block completed");
        return out;
    }
    let (quiet_p50, quiet_per_s) = (round.quiet_p50_ms(), round.quiet_per_s());
    let ms = stats::sorted(&mut round.iter_ms);
    eprintln!(
        "[{}] {} iterations in {} blocks, {:.3} s busy; quiet iter ms p50 {:.4}, {:.3}/s; as \
         measured p50 {:.4} p90 {:.4} p99 {:.4} max {:.4}, {:.3}/s; twin p50 {:.4}; set-up s {:?}",
        spec.name,
        ms.len(),
        round.clean_blocks,
        round.busy_s,
        quiet_p50,
        quiet_per_s,
        stats::percentile(ms, 0.5),
        stats::percentile(ms, 0.9),
        stats::percentile(ms, 0.99),
        ms[ms.len() - 1],
        ms.len() as f64 / round.busy_s,
        reference.iter_ms_p50,
        setup_s,
    );
    out.metrics = end_to_end(&[
        ("latency_ms_p50", quiet_p50, round.clean_blocks),
        ("throughput_per_s", quiet_per_s, round.clean_blocks),
        ("peak_rss_mb", stats::peak_rss_mb(), 0),
        ("setup_s", stats::min(&setup_s), setup_s.len()),
    ]);
    out.blocks.push(("latency_ms_p50", segment_p50));
    out.blocks.push(("throughput_per_s", segment_per_s));
    out.blocks.push(("setup_s", setup_s));
    out.blocks.push((
        "measured_iter_ms_quantiles",
        stats::QUANTILES.iter().map(|q| stats::percentile(ms, *q)).collect(),
    ));
    out
}

fn teardown(rig: Rig, out: &mut RunOutput) {
    if let Err(e) = rig.teardown() {
        out.fail(format!("a worker server ended with an error: {e}"));
    }
}

/// Span buffer size: the chattiest workload records ~130 spans per
/// iteration and runs a few thousand iterations in a traced round.
const SPAN_CAPACITY: usize = 1 << 21;

/// Blocks the twin of a traced run replays for `bridge.local_twin_iter_ms`.
const TWIN_BLOCKS: usize = 3;

/// `--trace 1`, coupler part: a traced round (and an untraced one
/// beside it, for the tracing overhead) reduced into `sheet`. The
/// traced round's iterations are the run's `attempted`/`failed`.
pub fn run_layers(
    spec: &CouplerSpec,
    seed: u64,
    seconds: f64,
    sheet: &mut LayerSheet,
    out: &mut RunOutput,
) {
    let reference = reference(spec, seed, TWIN_BLOCKS);

    // Two rigs side by side, one bare and one wrapped, taking turns
    // block by block (one untraced, two traced): the machine's speed
    // drifts over a run, and trace.overhead_pct compares the two.
    let mut plain = build_rig(spec, seed, None);
    let kit = TraceKit::new(SPAN_CAPACITY);
    let mut rig = build_rig(spec, seed, Some(&kit));
    // spans of set-up are not part of the round
    kit.tracer.borrow_mut().spans.clear();
    let (mut untraced, mut round) = (Round::default(), Round::default());
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let busy0: Vec<[u64; 3]> = kit.clocks.iter().map(|c| clock_read(c)).collect();
    while untraced.busy_s + round.busy_s < seconds && !untraced.stuck(spec) && !round.stuck(spec) {
        untraced.run_block(&mut plain, spec, &reference, None);
        let before = crate::alloc::snapshot();
        round.run_block(&mut rig, spec, &reference, Some(&kit.tracer));
        round.run_block(&mut rig, spec, &reference, Some(&kit.tracer));
        let after = crate::alloc::snapshot();
        allocs += after.0 - before.0;
        alloc_bytes += after.1 - before.1;
    }
    let busy1: Vec<[u64; 3]> = kit.clocks.iter().map(|c| clock_read(c)).collect();
    teardown(plain, out);
    teardown(rig, out);

    out.attempted += round.attempted;
    out.failed += round.failed;
    for p in round.problems.iter().chain(&untraced.problems) {
        out.fail(p.clone());
    }
    if round.quiet_ms.is_empty() || untraced.quiet_ms.is_empty() {
        out.fail("a layer round completed no block");
        return;
    }

    let tracer = kit.tracer.borrow();
    let file = format!("trace-{}.json", spec.name);
    if let Err(e) = crate::write_out(&file, &trace::to_json(&tracer, spec.name)) {
        out.notes.push(e);
    }
    let layers = trace::analyze(&tracer);
    // restore/snapshot/digest between blocks happen outside root spans
    // but inside the recording: count iterations from the roots
    let iters = layers.iterations.max(1) as f64;
    let n = round.iter_ms.len();
    let mut ms = round.iter_ms.clone();
    let ms = stats::sorted(&mut ms);
    // quiet times (see `run_end_to_end`), so that the machine's mood
    // during one of the two rounds is not read as tracing overhead
    let (p50, untraced_p50) = (round.quiet_p50_ms(), untraced.quiet_p50_ms());
    let mean_ms = round.busy_s * 1e3 / n as f64;

    sheet.set("bridge.self_ms_per_iter", layers.bridge_self_ms, layers.iterations);
    sheet.set(
        "bridge.calls_per_iter",
        round.stats.iter().map(|s| s.calls).sum::<u64>() as f64 / iters,
        layers.iterations,
    );
    sheet.set("bridge.iter_ms_p95", stats::percentile(ms, 0.95), n);
    sheet.set("bridge.iter_ms_p99", stats::percentile(ms, 0.99), n);
    sheet.set("bridge.iter_ms_max", ms[n - 1], n);
    sheet.set("bridge.local_twin_iter_ms", reference.iter_ms_p50, TWIN_BLOCKS);
    sheet.set(
        "bridge.transport_ratio",
        untraced_p50 / reference.iter_ms_p50,
        untraced.clean_blocks,
    );

    let busy_ms =
        |role: usize, slot: usize| (busy1[role][slot] - busy0[role][slot]) as f64 / 1e6 / iters;
    sheet.set("nbody.evolve_ms_per_iter", busy_ms(0, 0), layers.iterations);
    sheet.set("sph.evolve_ms_per_iter", busy_ms(1, 0), layers.iterations);
    sheet.set("treegrav.kick_ms_per_iter", busy_ms(2, 1), layers.iterations);
    sheet.set("stellar.evolve_ms_per_iter", busy_ms(3, 0), layers.iterations);
    sheet.set("nbody.flops_per_iter", round.stats[0].flops / iters, 0);
    sheet.set("sph.flops_per_iter", round.stats[1].flops / iters, 0);
    sheet.set("treegrav.flops_per_iter", round.stats[2].flops / iters, 0);
    let busy_all: u64 =
        (0..4).map(|r| (0..3).map(|s| busy1[r][s] - busy0[r][s]).sum::<u64>()).sum();
    sheet.set("trace.kernel_share_pct", busy_all as f64 / 1e6 / iters / mean_ms * 100.0, n);

    let bytes: u64 = round.stats.iter().map(|s| s.bytes_in + s.bytes_out).sum();
    sheet.set("wire.bytes_per_iter", bytes as f64 / iters, 0);
    let leaf_calls: u64 = round.stats.iter().map(|s| s.calls).sum();
    sheet.set("wire.frames_per_iter", 2.0 * leaf_calls as f64 / iters, 0);
    sheet.set("transport.retries", round.stats.iter().map(|s| s.retries).sum::<u64>() as f64, 0);

    if spec.tcp {
        // leaf channels are ReactorChannels only on the TCP workloads
        sheet.set("reactor.submit_ms_per_iter", layers.leaf_submit_ms, layers.iterations);
        sheet.set("reactor.wait_ms_per_iter", layers.leaf_wait_ms, layers.iterations);
        sheet.set("reactor.call_ms_per_iter", layers.leaf_call_ms, layers.iterations);
    }
    for (r, name) in [
        "rpc.gravity_ms_per_iter",
        "rpc.hydro_ms_per_iter",
        "rpc.coupling_ms_per_iter",
        "rpc.stellar_ms_per_iter",
    ]
    .into_iter()
    .enumerate()
    {
        sheet.set(name, layers.rpc_ms[r], layers.iterations);
    }
    sheet.set("shard.self_ms_per_iter", layers.shard_self_ms, layers.iterations);
    sheet.set("shard.overlap", layers.shard_overlap, layers.iterations);
    sheet.set("checkpoint.snapshot_us", stats::median(&round.snapshot_us), round.snapshot_us.len());
    sheet.set("checkpoint.restore_us", stats::median(&round.restore_us), round.restore_us.len());

    sheet.set("alloc.count_per_iter", allocs as f64 / round.attempted.max(1) as f64, 0);
    sheet.set("alloc.bytes_per_iter", alloc_bytes as f64 / round.attempted.max(1) as f64, 0);
    sheet.set("trace.iter_ms_p50", p50, round.clean_blocks);
    sheet.set("trace.untraced_iter_ms_p50", untraced_p50, untraced.clean_blocks);
    sheet.set("trace.overhead_pct", (p50 / untraced_p50 - 1.0) * 100.0, round.clean_blocks);
    sheet.set("trace.self_sum_pct", layers.self_sum_share * layers.iter_ms / mean_ms * 100.0, n);
    sheet.set("trace.spans_per_iter", layers.spans as f64 / iters, 0);
    sheet.set("trace.spans_dropped", tracer.dropped as f64, 0);

    // the per-layer times of one iteration must add up to the iteration
    let accounted = layers.self_sum_share * layers.iter_ms / mean_ms;
    if tracer.dropped == 0 && !(0.95..=1.05).contains(&accounted) {
        out.fail(format!(
            "layer self times sum to {:.1}% of the measured iteration",
            accounted * 100.0
        ));
    }
    if !crate::alloc::ENABLED {
        out.notes.push("alloc.* read 0: built without the count-alloc feature (run.sh enables it for --trace 1)".into());
    }
    eprintln!(
        "[{}] traced {} iterations ({} spans, {} dropped): iter {:.4} ms = bridge self {:.4} + rpc \
         gravity {:.4} + hydro {:.4} + coupling {:.4} + stellar {:.4}; leaf submit {:.4} wait {:.4} \
         call {:.4}; shard self {:.4} overlap {:.2}; worker busy {:.1}%; tracing overhead {:+.2}%",
        spec.name,
        layers.iterations,
        tracer.spans.len(),
        tracer.dropped,
        layers.iter_ms,
        layers.bridge_self_ms,
        layers.rpc_ms[0],
        layers.rpc_ms[1],
        layers.rpc_ms[2],
        layers.rpc_ms[3],
        layers.leaf_submit_ms,
        layers.leaf_wait_ms,
        layers.leaf_call_ms,
        layers.shard_self_ms,
        layers.shard_overlap,
        sheet.get("trace.kernel_share_pct"),
        sheet.get("trace.overhead_pct"),
    );
}

fn clock_read(c: &WorkerClock) -> [u64; 3] {
    [
        c.evolve_ns.load(Ordering::Relaxed),
        c.kick_ns.load(Ordering::Relaxed),
        c.other_ns.load(Ordering::Relaxed),
    ]
}

/// A traced and an untraced run of `blocks` blocks of `spec`, for the
/// transparency test: final digests, per-role statistics, and whether
/// the coupling pool kept pipelining under the wrapper.
pub fn transparency_probe(spec: &CouplerSpec, seed: u64, blocks: usize) -> [(u64, RoleStats); 2] {
    let reference = reference(spec, seed, 1);
    let mut results = Vec::new();
    for traced_run in [false, true] {
        let kit = traced_run.then(|| TraceKit::new(1 << 16));
        let mut rig = build_rig(spec, seed, kit.as_ref());
        let mut stats = RoleStats::default();
        for _ in 0..blocks {
            let b = run_block(&mut rig, spec, &reference, kit.as_ref().map(|k| &k.tracer), 0);
            assert!(b.problem.is_none(), "{}: {:?}", spec.name, b.problem);
            merge_roles(&mut stats, &b.stats);
        }
        let d = digest(&mut rig.bridge);
        rig.teardown().expect("worker servers end cleanly");
        results.push((d, stats));
    }
    [results[0], results[1]]
}
