//! Direct probes: one layer's entry points called in a loop, at fixed
//! sizes, from outside. They run in every traced run whatever the
//! workload, so a layer's number can be read next to the end-to-end
//! metric it is predicted to move (README.md has the map).
//!
//! Every probe reports the median of its samples; `budget` bounds each
//! probe's wall time.

use crate::affinity::{self, CpuSet};
use crate::coupler::{CouplerSpec, NullWorker, WIRE_BULK_NULL};
use crate::metrics::LayerSheet;
use crate::stats::median_ns;
use jc_amuse::channel::{Channel, LocalChannel};
use jc_amuse::checkpoint::crc32;
use jc_amuse::wire::{self, op};
use jc_amuse::worker::{GravityWorker, ParticleData, Request, Response};
use jc_amuse::{
    Bridge, Checkpoint, EmbeddedCluster, Reactor, ReactorChannel, SocketChannel, WorkerFleet,
};
use jc_nbody::kernels::{acc_jerk_into, Backend};
use jc_nbody::plummer::plummer_sphere;
use jc_sph::density::{compute_density_with, SphScratch};
use jc_sph::forces::{hydro_rates_into, HydroRates};
use jc_sph::particles::plummer_gas;
use jc_treegrav::TreeGravity;
use std::hint::black_box;
use std::time::Duration;

/// Kernel probe size: the N perfsuite's committed rows use.
const KERNEL_N: usize = 1024;
/// Bulk frame size: the gas snapshot of `wire_bulk_null`.
const BULK_N: usize = WIRE_BULK_NULL.gas;
/// Targets of the bulk `ComputeKick` frame: the star set of `wire_bulk_null`.
const BULK_TARGETS: usize = WIRE_BULK_NULL.stars;

/// Run every probe into `sheet`. `spec` sizes the two probes that are
/// taken at the workload's own N.
pub fn run_all(
    sheet: &mut LayerSheet,
    budget: Duration,
    spec: Option<&CouplerSpec>,
    cpus: Option<&CpuSet>,
    notes: &mut Vec<String>,
) {
    kernels(sheet, budget);
    wire_codec(sheet, budget);
    round_trips(sheet, budget, false);
    // the two probes that need a second CPU: leave the one-CPU
    // confinement of the run for their duration only
    let cores = |all: &CpuSet| all.iter().map(|w| w.count_ones()).sum::<u32>();
    match cpus.filter(|all| cores(all) >= 2 && affinity::restrict_to(all)) {
        Some(all) => {
            par(sheet, budget);
            round_trips(sheet, budget, true);
            affinity::pin_to_last(all);
        }
        None => {
            notes.push("par.* and *.rtt_small_xcpu_us read 0: no second CPU to hand work to".into())
        }
    }
    let (stars, gas) = spec.map(|s| (s.stars, s.gas)).unwrap_or((8, 24));
    local_channel(sheet, budget, stars);
    checkpoint(sheet, budget, stars, gas, spec.is_none());
}

/// What the workers run (`Backend::CpuParallel`, scalar SPH and tree
/// walks — `simd` is off in every `ModelWorker`) next to the opt-in
/// paths no worker reaches.
fn kernels(sheet: &mut LayerSheet, budget: Duration) {
    let n = KERNEL_N;
    let ics = plummer_sphere(n, 42);
    let mut acc = vec![[0.0; 3]; n];
    let mut jerk = vec![[0.0; 3]; n];
    for (name, backend) in [
        ("nbody.acc_jerk_ns_per_inter", Backend::CpuParallel),
        ("nbody.acc_jerk_simd_ns_per_inter", Backend::SimdSoa),
    ] {
        let (ns, k) = median_ns(budget, 5, || {
            acc_jerk_into(
                backend, &ics.pos, &ics.vel, &ics.mass, &ics.pos, &ics.vel, 1e-4, true, &mut acc,
                &mut jerk,
            );
            black_box(&acc);
        });
        sheet.set(name, ns / (n * n) as f64, k);
    }

    let gas0 = plummer_gas(n, 1.0, 13);
    for (density, forces, simd) in [
        ("sph.density_ms", "sph.forces_ms", false),
        ("sph.density_simd_ms", "sph.forces_simd_ms", true),
    ] {
        let mut scratch = SphScratch::new();
        scratch.simd = simd;
        let mut gas = gas0.clone();
        let (ns, k) = median_ns(budget, 5, || {
            gas.h.copy_from_slice(&gas0.h); // identical adaptation work per call
            black_box(compute_density_with(&mut gas, &mut scratch));
        });
        sheet.set(density, ns / 1e6, k);
        let mut rates = HydroRates::new();
        let (ns, k) = median_ns(budget, 5, || {
            hydro_rates_into(&gas, &mut scratch, &mut rates);
            black_box(&rates);
        });
        sheet.set(forces, ns / 1e6, k);
    }

    let ics = plummer_sphere(n, 11);
    let mut solver = TreeGravity::new(0.5, 0.01);
    let (ns, k) = median_ns(budget, 5, || solver.rebuild(&ics.pos, &ics.mass));
    sheet.set("treegrav.build_ms", ns / 1e6, k);
    let mut out = Vec::new();
    for (name, simd) in [("treegrav.walk_ms", false), ("treegrav.walk_simd_ms", true)] {
        solver.simd = simd;
        let (ns, k) = median_ns(budget, 5, || {
            solver.walk_targets(&ics.pos, &mut out);
            black_box(&out);
        });
        sheet.set(name, ns / 1e6, k);
    }
}

/// `par::chunked` handoff cost, and what a second thread buys the
/// N-body force loop. Information only: every workload pins
/// `JC_THREADS=1`.
fn par(sheet: &mut LayerSheet, budget: Duration) {
    let mut data = vec![0u64; 256];
    let mut states = [0u64; 2];
    let (ns, k) = median_ns(budget, 100, || {
        let touched = jc_compute::par::chunked(
            2,
            &mut data[..],
            &mut states,
            0usize,
            |_, chunk: &mut [u64], _| {
                chunk[0] = chunk[0].wrapping_add(1);
                chunk.len()
            },
            |a, b| a + b,
        );
        black_box(touched);
    });
    sheet.set("par.handoff_us", ns / 1e3, k);

    let n = KERNEL_N;
    let ics = plummer_sphere(n, 42);
    let mut acc = vec![[0.0; 3]; n];
    let mut jerk = vec![[0.0; 3]; n];
    let mut force_ns = |threads: &str| {
        // read per call by jc_compute::par, and no other thread of this
        // process is running while the probes do
        std::env::set_var("JC_THREADS", threads);
        median_ns(budget, 5, || {
            acc_jerk_into(
                Backend::CpuParallel,
                &ics.pos,
                &ics.vel,
                &ics.mass,
                &ics.pos,
                &ics.vel,
                1e-4,
                true,
                &mut acc,
                &mut jerk,
            );
            black_box(&acc);
        })
    };
    let (t2, k) = force_ns("2");
    let (t1, _) = force_ns("1");
    sheet.set("par.speedup_t2", t1 / t2, k);
}

fn bulk_particles(n: usize) -> ParticleData {
    let p = plummer_sphere(n, 5);
    ParticleData { mass: p.mass, pos: p.pos, vel: p.vel }
}

/// Codec bandwidth on the bulk frames `wire_bulk_null` moves, codec
/// latency on the small frames `cluster_tcp_chatty` moves.
fn wire_codec(sheet: &mut LayerSheet, budget: Duration) {
    let gas = bulk_particles(BULK_N);
    let targets = &gas.pos[..BULK_TARGETS];
    let (mut snap, mut kick) = (Vec::new(), Vec::new());
    let (ns, k) = median_ns(budget, 20, || {
        snap.clear(); // encode_particles_frame appends
        wire::encode_particles_frame(&gas.mass, &gas.pos, &gas.vel, &mut snap);
        wire::encode_compute_kick(targets, &gas.pos, &gas.mass, &mut kick);
        black_box((&snap, &kick));
    });
    let bytes = (snap.len() + kick.len()) as f64;
    sheet.set("wire.encode_GBps", bytes / ns, k);

    let mut out = ParticleData::default();
    let (mut t, mut sp, mut sm) = (Vec::new(), Vec::new(), Vec::new());
    let (ns, k) = median_ns(budget, 20, || {
        wire::decode_particles_into(&snap, &mut out).expect("snapshot frame decodes");
        wire::decode_compute_kick_into(&kick, &mut t, &mut sp, &mut sm)
            .expect("kick frame decodes");
        black_box((&out, &t));
    });
    sheet.set("wire.decode_GBps", bytes / ns, k);

    // small frames are tens of nanoseconds: time a batch per sample
    const BATCH: usize = 256;
    let (mut evolve, mut ok) = (Vec::new(), Vec::new());
    let (ns, k) = median_ns(budget, 100, || {
        for i in 0..BATCH {
            wire::encode_evolve(op::EVOLVE_TO, i as f64, &mut evolve);
            ok.clear(); // encode_ok_frame appends
            wire::encode_ok_frame(i as f64, &mut ok);
            black_box((&evolve, &ok));
        }
    });
    sheet.set("wire.encode_small_ns", ns / (2 * BATCH) as f64, k);
    let (ns, k) = median_ns(budget, 100, || {
        for _ in 0..BATCH {
            black_box(wire::decode_request(black_box(&evolve)).expect("evolve frame decodes"));
            black_box(wire::decode_ok(black_box(&ok)).expect("ok frame decodes"));
        }
    });
    sheet.set("wire.decode_small_ns", ns / (2 * BATCH) as f64, k);
}

/// `Ping` and bulk-snapshot round trips over both TCP clients against
/// the same null worker: what the blocking facade costs next to the
/// reactor. With `cross_cpu` the caller has lifted the one-CPU
/// confinement, client and server may sit on different CPUs, and only
/// the small round trip is taken: the wake-up across CPUs that the
/// workloads are deliberately kept clear of.
fn round_trips(sheet: &mut LayerSheet, budget: Duration, cross_cpu: bool) {
    let mut fleet = WorkerFleet::new();
    let mut out = ParticleData::default();
    let mut measure = |ch: &mut dyn Channel, client: &str, sheet: &mut LayerSheet| {
        let (ns, k) = median_ns(budget, 1000, || {
            black_box(ch.call(Request::Ping));
        });
        if cross_cpu {
            sheet.set(&format!("{client}.rtt_small_xcpu_us"), ns / 1e3, k);
            return;
        }
        sheet.set(&format!("{client}.rtt_small_us"), ns / 1e3, k);
        let (ns, k) = median_ns(budget, 1000, || {
            assert!(ch.snapshot_into(&mut out), "bulk snapshot round trip");
        });
        sheet.set(&format!("{client}.rtt_bulk_us"), ns / 1e3, k);
    };
    {
        let addr = fleet.spawn("rtt-reactor", || NullWorker::new(BULK_N, 3, "null"));
        let reactor = Reactor::new_shared().expect("create reactor");
        let mut ch = ReactorChannel::connect(&reactor, addr, "rtt").expect("connect");
        measure(&mut ch, "reactor", sheet);
    }
    {
        let addr = fleet.spawn("rtt-socket", || NullWorker::new(BULK_N, 3, "null"));
        let mut ch = SocketChannel::connect(addr, "rtt").expect("connect");
        measure(&mut ch, "socket", sheet);
    }
    fleet.join_all().expect("probe servers end cleanly");
}

/// Snapshot + kick through a `LocalChannel` at the workload's star
/// count: the channel layer with no transport under it.
fn local_channel(sheet: &mut LayerSheet, budget: Duration, n: usize) {
    let mut ch =
        LocalChannel::new(Box::new(GravityWorker::new(plummer_sphere(n, 9), Backend::CpuParallel)));
    let mut snap = ParticleData::default();
    let dv = vec![[0.0; 3]; n];
    let (ns, k) = median_ns(budget, 1000, || {
        assert!(ch.snapshot_into(&mut snap));
        assert!(matches!(ch.kick_slice(&dv), Response::Ok { .. }));
    });
    sheet.set("channel.local_call_us", ns / 1e3, k);
}

/// The checkpoint container at the workload's size, and CRC-32 alone
/// on a buffer large enough to time. `with_bridge_ops` also times
/// `Bridge::snapshot`/`restore` on an in-process bridge — for
/// `service_open`, whose sessions do exactly that; the coupler
/// workloads take those two at their own block boundaries instead.
fn checkpoint(
    sheet: &mut LayerSheet,
    budget: Duration,
    stars: usize,
    gas: usize,
    with_bridge_ops: bool,
) {
    let cluster = EmbeddedCluster::build(stars, gas, 0.5, 29);
    let (g, h, c, s) = cluster.local_workers(false);
    let mut bridge = Bridge::new(
        Box::new(LocalChannel::new(g)),
        Box::new(LocalChannel::new(h)),
        Box::new(LocalChannel::new(c)),
        Some(Box::new(LocalChannel::new(s))),
        cluster.bridge_config(),
    );
    let ck = bridge.snapshot().expect("snapshot");
    if with_bridge_ops {
        let (ns, k) = median_ns(budget, 100, || {
            black_box(bridge.snapshot().expect("snapshot"));
        });
        sheet.set("checkpoint.snapshot_us", ns / 1e3, k);
        let (ns, k) = median_ns(budget, 100, || bridge.restore(&ck).expect("restore"));
        sheet.set("checkpoint.restore_us", ns / 1e3, k);
    }
    let mut container = Vec::new();
    let (ns, k) = median_ns(budget, 100, || {
        container.clear();
        ck.write_to(&mut container).expect("encode container");
    });
    let bytes = container.len() as f64;
    sheet.set("checkpoint.bytes", bytes, 0);
    sheet.set("checkpoint.encode_MBps", bytes / ns * 1e3, k);
    let (ns, k) = median_ns(budget, 100, || {
        black_box(Checkpoint::read_from(&mut &container[..]).expect("decode container"));
    });
    sheet.set("checkpoint.decode_MBps", bytes / ns * 1e3, k);

    let buf = vec![0xA5u8; 1 << 20];
    let (ns, k) = median_ns(budget, 100, || {
        black_box(crc32(black_box(&buf)));
    });
    sheet.set("checkpoint.crc32_GBps", buf.len() as f64 / ns, k);
}
