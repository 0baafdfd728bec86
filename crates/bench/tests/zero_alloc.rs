//! Steady-state zero-allocation proof for every kernel hot path.
//!
//! A counting global allocator (`common`) tracks allocations made by the
//! *current thread*. Most kernel tests pin their strictly sequential mode
//! (`max_threads = 1` / a particle count below the parallel grain), whose
//! steady state must be allocation-free end to end — on the SoA paths
//! workers run and on the SPH and tree scalar references alike. The pool
//! test, and the Hermite step at 128 stars, pin the *parallel* mode's
//! caller-side handoff: once the persistent workers exist and the
//! bounded channel buffers are warm, a fanning-out `chunked` call must
//! also allocate nothing on the calling thread. Each path is warmed
//! until its scratch buffers reach their high-water mark, then the
//! measured steady-state call must perform zero heap allocations.

#![deny(unsafe_op_in_unsafe_fn)]

mod common;
use common::{count_alloc_bytes, count_allocs};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Held for its whole run by every test whose code, on its own thread or
/// a server thread it starts, fans out over the process-global worker
/// pool. Two callers that meet at the pool block in a channel `send`,
/// and a thread's first blocking send allocates its wait context (and a
/// channel's first waiter grows its waiter list). Each happens once, so
/// a long-lived caller's steady state stays quiet; but every test runs
/// on a fresh thread, and would count that one-time allocation whenever
/// another test's fan-out overlapped its measured call.
static POOL: Mutex<()> = Mutex::new(());

fn pool_to_myself() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn same_metallicity_stellar_load_state_keeps_the_table() {
    // Placing a session is a `LoadState` on a warm stellar worker. The
    // evolution table (3 columns × 64×64 f64 = 96 KiB) depends only on
    // the metallicity, so a same-`z` restore must re-derive the 8 star
    // states and nothing else — a silent table rebuild shows up here.
    use jc_amuse::{Channel, LocalChannel, ModelState, Request, Response, StellarWorker};
    let z = jc_amuse::EmbeddedCluster::METALLICITY;
    let mut ch = LocalChannel::new(Box::new(StellarWorker::new(vec![1.0; 8], z)));
    let state = |time_myr: f64| ModelState::Stellar {
        time_myr,
        z,
        initial_masses: vec![0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0],
        exploded: vec![false; 8],
    };
    assert!(matches!(ch.call(Request::LoadState(state(0.0))), Response::Ok { .. }));
    let req = Request::LoadState(state(12.5));
    let bytes = count_alloc_bytes(|| assert!(matches!(ch.call(req), Response::Ok { .. })));
    assert!(bytes < 4096, "same-z stellar LoadState allocated {bytes} bytes");
    // the guard can see a rebuild: another metallicity pays for a table
    let other = ModelState::Stellar {
        time_myr: 0.0,
        z: 0.008,
        initial_masses: vec![1.0; 8],
        exploded: vec![false; 8],
    };
    let req = Request::LoadState(other);
    let bytes = count_alloc_bytes(|| assert!(matches!(ch.call(req), Response::Ok { .. })));
    assert!(bytes >= 96 * 1024, "a new metallicity must rebuild the table ({bytes} bytes)");
}

#[test]
fn sph_density_and_forces_steady_state_allocates_nothing() {
    let mut gas = jc_sph::particles::plummer_gas(800, 1.0, 5);
    let mut scratch = jc_sph::SphScratch::new();
    scratch.max_threads = 1;
    scratch.simd = false; // the scalar reference path
    let mut rates = jc_sph::HydroRates::new();
    // warm: adapt h to its fixed point and grow every buffer to its
    // high-water mark
    for _ in 0..3 {
        jc_sph::density::compute_density_with(&mut gas, &mut scratch);
        jc_sph::forces::hydro_rates_into(&gas, &mut scratch, &mut rates);
    }
    let n = count_allocs(|| {
        jc_sph::density::compute_density_with(&mut gas, &mut scratch);
        jc_sph::forces::hydro_rates_into(&gas, &mut scratch, &mut rates);
    });
    assert_eq!(n, 0, "SPH density+forces steady state made {n} heap allocations");
    assert!(rates.interactions > 0, "sanity: work actually happened");
}

#[test]
fn simd_soa_acc_jerk_steady_state_allocates_nothing() {
    // below the parallel grain (64) the SimdSoa backend runs strictly
    // sequentially on the calling thread; its SoA source mirror is
    // thread-local and refilled in place, so the steady state is
    // allocation-free on any machine
    let n = 48;
    let ics = jc_nbody::plummer::plummer_sphere(n, 5);
    let mut acc = vec![[0.0; 3]; n];
    let mut jerk = vec![[0.0; 3]; n];
    let run = |acc: &mut Vec<[f64; 3]>, jerk: &mut Vec<[f64; 3]>| {
        jc_nbody::kernels::acc_jerk_into(
            jc_nbody::Backend::SimdSoa,
            &ics.pos,
            &ics.vel,
            &ics.mass,
            &ics.pos,
            &ics.vel,
            1e-4,
            true,
            acc,
            jerk,
        );
    };
    run(&mut acc, &mut jerk); // warm: SoA mirror grows to n
    run(&mut acc, &mut jerk);
    let allocs = count_allocs(|| run(&mut acc, &mut jerk));
    assert_eq!(allocs, 0, "SimdSoa acc_jerk steady state made {allocs} heap allocations");
    assert!(acc.iter().flatten().any(|x| *x != 0.0), "sanity: forces actually computed");
}

#[test]
fn simd_sph_density_and_forces_steady_state_allocates_nothing() {
    // both sides of the neighbour-search crossover (`DIRECT_BELOW` = 4 096
    // in `jc_sph::density`): 800 and 2 200 take the direct sweep, 5 000
    // the CSR grid
    for n_gas in [800, 2200, 5000] {
        let mut gas = jc_sph::particles::plummer_gas(n_gas, 1.0, 5);
        let mut scratch = jc_sph::SphScratch::new();
        scratch.max_threads = 1;
        scratch.simd = true;
        let mut rates = jc_sph::HydroRates::new();
        for _ in 0..3 {
            jc_sph::density::compute_density_with(&mut gas, &mut scratch);
            jc_sph::forces::hydro_rates_into(&gas, &mut scratch, &mut rates);
        }
        let n = count_allocs(|| {
            jc_sph::density::compute_density_with(&mut gas, &mut scratch);
            jc_sph::forces::hydro_rates_into(&gas, &mut scratch, &mut rates);
        });
        assert_eq!(n, 0, "SoA SPH density+forces at n={n_gas} made {n} heap allocations");
        assert!(rates.interactions > 0, "sanity: work actually happened");
    }
}

/// `n` LCG-cloud positions with equal masses.
fn lcg_cloud(n: usize) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut x = 11u64;
    let mut rnd = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    ((0..n).map(|_| [rnd(), rnd(), rnd()]).collect(), vec![1.0 / n as f64; n])
}

#[test]
fn simd_tree_walk_steady_state_allocates_nothing() {
    let (pos, mass) = lcg_cloud(2000);
    let mut solver = jc_treegrav::TreeGravity::new(0.5, 0.01);
    solver.max_threads = 1;
    solver.simd = true;
    let mut acc = Vec::new();
    // build + walk by name: `accelerations_into` would sum 2000 sources
    // directly
    let mut build_and_walk = |acc: &mut Vec<[f64; 3]>| {
        solver.rebuild(&pos, &mass);
        solver.walk_targets(&pos, acc);
    };
    build_and_walk(&mut acc);
    build_and_walk(&mut acc);
    let n = count_allocs(|| build_and_walk(&mut acc));
    assert_eq!(n, 0, "SoA octree rebuild + walk made {n} heap allocations");
    assert!(solver.last_interactions() > 0, "sanity: the walk actually ran");
}

#[test]
fn direct_sum_gravity_steady_state_allocates_nothing() {
    // what `accelerations_into` runs below the crossover, over the whole
    // set and over the coupling kick's 128 targets
    let (pos, mass) = lcg_cloud(512);
    let mut solver = jc_treegrav::TreeGravity::new(0.5, 0.01);
    solver.max_threads = 1;
    let mut acc = Vec::new();
    for targets in [&pos[..], &pos[..128]] {
        solver.accelerations_into(targets, &pos, &mass, &mut acc);
        let n = count_allocs(|| {
            solver.accelerations_into(targets, &pos, &mass, &mut acc);
        });
        assert_eq!(n, 0, "direct sum over {} targets made {n} heap allocations", targets.len());
        assert_eq!(
            solver.last_interactions(),
            (targets.len() * pos.len()) as u64,
            "sanity: every pair was summed, no tree was walked"
        );
    }
}

#[test]
fn pair_symmetric_self_gravity_steady_state_allocates_nothing() {
    // what a `Gadget` refresh runs for its self-gravity, at the
    // benchmark's 512 gas (8 blocks of partial columns) and a 24-gas
    // service session (one block)
    for n in [512, 24] {
        let (pos, mass) = lcg_cloud(n);
        let mut solver = jc_treegrav::TreeGravity::new(0.6, 0.05);
        solver.max_threads = 1;
        let mut acc = Vec::new();
        solver.self_accelerations_into(&pos, &mass, &mut acc);
        let allocs = count_allocs(|| {
            solver.self_accelerations_into(&pos, &mass, &mut acc);
        });
        assert_eq!(allocs, 0, "pair-symmetric sum at n={n} made {allocs} heap allocations");
        assert_eq!(
            solver.last_interactions(),
            (n * (n - 1) / 2) as u64,
            "sanity: every unordered pair was summed once, no tree was walked"
        );
    }
}

#[test]
fn hermite_step_steady_state_allocates_nothing() {
    let _pool = pool_to_myself();
    // what `GravityWorker`s run: at the parallel grain (64) the step
    // stays on the calling thread; at the benchmark cluster's 128 stars
    // an evaluation of more than 64 active stars fans out over the pool
    // (with `JC_THREADS` unset, on a machine with two or more cores),
    // whose warm handoff must stay quiet too
    for n in [64, 128] {
        let ics = jc_nbody::plummer::plummer_sphere(n, 3);
        let mut g = jc_nbody::PhiGrape::new(ics).with_softening(0.01);
        g.evolve_model(0.02); // warm: forces valid, scratch and SoA mirror sized
        let evals0 = g.force_evals;
        let allocs = count_allocs(|| {
            g.evolve_model(0.03);
        });
        assert_eq!(allocs, 0, "Hermite steps at n={n} made {allocs} heap allocations");
        assert!(g.force_evals > evals0, "sanity: steps actually ran");
    }
}

#[test]
fn gadget_step_steady_state_allocates_nothing() {
    // one `HydroWorker` step — density, forces staged from its candidate
    // sets and the pair-symmetric self-gravity — at the sizes workers
    // run: the benchmark's 512-gas cluster and a 24-gas service session
    // (direct-sweep side of the neighbour-search crossover)
    for n in [512, 24] {
        let gas = jc_sph::particles::plummer_gas(n, 1.0, 5);
        let mut g = jc_sph::Gadget::new(gas).with_max_threads(1);
        g.evolve_model(0.02); // warm: every scratch buffer at its high-water mark
        let steps0 = g.steps;
        let allocs = count_allocs(|| {
            g.evolve_model(0.025);
        });
        assert_eq!(allocs, 0, "Gadget steps at n={n} made {allocs} heap allocations");
        assert!(g.steps > steps0, "sanity: steps actually ran");
    }
}

#[test]
fn socket_channel_coupler_hot_path_allocates_nothing() {
    let _pool = pool_to_myself();
    // A real TCP round trip: the coupler-side fast paths must send
    // straight from borrowed slices (one vectored write, the rest into
    // the connection's reused frame buffer) and decode straight into
    // caller-owned buffers. The server runs on its own thread, so its
    // work is invisible to this thread's allocation counter — exactly
    // the boundary we are proving.
    use jc_amuse::{Channel, ReactorChannel, Response, SocketChannel};
    let n = 256usize;
    let (addr, handle) = jc_amuse::spawn_tcp_worker("grav", move || {
        jc_amuse::GravityWorker::new(
            jc_nbody::plummer::plummer_sphere(n, 9),
            jc_nbody::Backend::CpuParallel,
        )
    });
    let mut ch = SocketChannel::connect(addr, "grav").unwrap();
    let mut snap = jc_amuse::worker::ParticleData::default();
    let dv = vec![[1e-9; 3]; n];
    // the bridge's three round trips to a dynamics worker
    let mut t = 0.0;
    let mut round = |ch: &mut ReactorChannel, snap: &mut jc_amuse::worker::ParticleData| {
        t += 1e-4;
        assert!(ch.snapshot_into(snap));
        ch.submit_step(&dv, 2, t);
        assert!(matches!(ch.collect_step_into(snap), Response::Ok { .. }));
        assert!(matches!(ch.kick_slice(&dv), Response::Ok { .. }));
    };
    // warm: grow the channel's encode/decode buffers and the snapshot
    for _ in 0..3 {
        round(&mut ch, &mut snap);
    }
    let allocs = count_allocs(|| round(&mut ch, &mut snap));
    assert_eq!(allocs, 0, "socket snapshot+step+kick made {allocs} heap allocations");
    assert_eq!(snap.mass.len(), n, "sanity: particles actually crossed the wire");
    assert!(snap.vel.is_empty(), "sanity: the last answer was a step's");
    drop(ch); // sends Stop so the server thread exits
    handle.join().unwrap().unwrap();
}

/// Two particle sets for a coupling field (velocities are not sent).
fn field_sets(n_stars: usize, n_gas: usize) -> [jc_amuse::worker::ParticleData; 2] {
    [(n_stars, 4), (n_gas, 5)].map(|(n, seed)| {
        let p = jc_nbody::plummer::plummer_sphere(n, seed);
        jc_amuse::worker::ParticleData { mass: p.mass, pos: p.pos, vel: Vec::new() }
    })
}

#[test]
fn socket_field_steady_state_allocates_nothing() {
    let _pool = pool_to_myself();
    use jc_amuse::{Channel, ReactorChannel, SocketChannel};
    let (addr, handle) = jc_amuse::spawn_tcp_worker("fi", jc_amuse::CouplingWorker::fi);
    let mut ch = SocketChannel::connect(addr, "fi").unwrap();
    let [stars, gas] = field_sets(128, 512);
    let mut acc = Vec::new();
    // a cold open primes the host, every substep after it is mass-free:
    // both request forms must go quiet once warm
    let field = |ch: &mut ReactorChannel, acc: &mut Vec<[f64; 3]>, prime: bool| {
        ch.submit_field(&stars, &gas, prime, (0, 128), (0, 512));
        ch.collect_accelerations_into(acc).expect("the field's accelerations");
    };
    for _ in 0..2 {
        field(&mut ch, &mut acc, true);
        field(&mut ch, &mut acc, false);
    }
    let allocs = count_allocs(|| {
        field(&mut ch, &mut acc, true);
        field(&mut ch, &mut acc, false);
    });
    assert_eq!(allocs, 0, "socket priming+mass-free field made {allocs} heap allocations");
    assert_eq!(acc.len(), 128 + 512, "sanity: accelerations actually crossed the wire");
    drop(ch);
    handle.join().unwrap().unwrap();
}

#[test]
fn server_core_steady_state_allocates_nothing() {
    let _pool = pool_to_myself();
    // The server half of those round trips, run on this thread: a warm
    // `ServerCore` decodes into reused scratch, lends each bulk reply's
    // columns where they lie, and encodes the mutating replies straight
    // into the dedup cache, all without touching the heap.
    use jc_amuse::host::{Next, ServerCore};
    use jc_amuse::wire::{self, op};
    let mut seq = 0u16;
    // serve each frame under a fresh sequence number: answered, not
    // replayed, and every mutating answer stored for dedup
    let mut serve = |core: &mut ServerCore<'_>, frame: &mut Vec<u8>, answer: u8| {
        seq += 1;
        wire::set_seq(frame, seq);
        let (reply, next) = core.handle(frame);
        assert_eq!((reply.parts()[0][5], next), (answer, Next::Continue));
    };

    let n = 256usize;
    let mut grav = jc_amuse::GravityWorker::new(
        jc_nbody::plummer::plummer_sphere(n, 9),
        jc_nbody::Backend::CpuParallel,
    );
    let mut core = ServerCore::new(&mut grav, None);
    let dv = vec![[1e-9; 3]; n];
    let (mut snap, mut step, mut kick) = (Vec::new(), Vec::new(), Vec::new());
    wire::encode_simple_request(op::GET_PARTICLES, &mut snap);
    wire::kick_frame(&dv).encode(&mut kick);
    let mut t = 0.0;
    let mut round = |core: &mut ServerCore<'_>| {
        t += 1e-4;
        wire::step_frame(&dv, 2, t).encode(&mut step);
        serve(core, &mut snap, op::RESP_PARTICLES);
        serve(core, &mut step, op::RESP_STEPPED);
        serve(core, &mut kick, op::RESP_OK);
    };
    for _ in 0..3 {
        round(&mut core);
    }
    let allocs = count_allocs(|| round(&mut core));
    assert_eq!(allocs, 0, "server snapshot+step+kick made {allocs} heap allocations");

    let mut fi = jc_amuse::CouplingWorker::fi();
    let mut core = ServerCore::new(&mut fi, None);
    let [stars, gas] = field_sets(128, 512);
    let (mut prime, mut field) = (Vec::new(), Vec::new());
    let masses = Some((&stars.mass[..], &gas.mass[..]));
    wire::compute_field_frame(&stars.pos, &gas.pos, masses, (0, 128), (0, 512)).encode(&mut prime);
    wire::compute_field_frame(&stars.pos, &gas.pos, None, (0, 128), (0, 512)).encode(&mut field);
    // a priming request (the cold open's) and a mass-free one (a
    // substep's): both must go quiet once warm
    let mut fields = |core: &mut ServerCore<'_>| {
        serve(core, &mut prime, op::RESP_ACCELERATIONS);
        serve(core, &mut field, op::RESP_ACCELERATIONS);
    };
    for _ in 0..2 {
        fields(&mut core);
    }
    let allocs = count_allocs(|| fields(&mut core));
    assert_eq!(allocs, 0, "server priming+mass-free field made {allocs} heap allocations");
}

#[test]
fn sharded_local_pool_hot_path_allocates_nothing() {
    // The sharded fast paths gather through per-shard scratch buffers;
    // over in-process shards the whole scatter-gather must go quiet too.
    use jc_amuse::{Channel, LocalChannel, Response, ShardedChannel};
    let ics = jc_nbody::plummer::plummer_sphere(96, 6);
    let counts = jc_amuse::shard::partition(96, 3);
    let mut off = 0usize;
    let shards: Vec<Box<dyn Channel>> = counts
        .iter()
        .map(|&c| {
            let sub = ics.slice(off, off + c);
            off += c;
            Box::new(LocalChannel::new(Box::new(jc_amuse::GravityWorker::new(
                sub,
                jc_nbody::Backend::CpuParallel,
            )))) as Box<dyn Channel>
        })
        .collect();
    let mut pool = ShardedChannel::new(shards);
    let mut snap = jc_amuse::worker::ParticleData::default();
    let dv = vec![[1e-9; 3]; 96];
    let mut t = 0.0;
    let mut round = |pool: &mut ShardedChannel, snap: &mut jc_amuse::worker::ParticleData| {
        t += 1e-4;
        assert!(pool.snapshot_into(snap));
        pool.submit_step(&dv, 1, t);
        assert!(matches!(pool.collect_step_into(snap), Response::Ok { .. }));
        assert!(matches!(pool.kick_slice(&dv), Response::Ok { .. }));
    };
    for _ in 0..3 {
        round(&mut pool, &mut snap);
    }
    let allocs = count_allocs(|| round(&mut pool, &mut snap));
    assert_eq!(allocs, 0, "sharded snapshot+step+kick made {allocs} heap allocations");
    assert_eq!(snap.mass.len(), 96);

    // and the coupling pool: a field scattered over three shards
    let shards: Vec<Box<dyn Channel>> = (0..3)
        .map(|_| {
            Box::new(LocalChannel::new(Box::new(jc_amuse::CouplingWorker::fi())))
                as Box<dyn Channel>
        })
        .collect();
    let mut pool = ShardedChannel::with_counts(shards, vec![0; 3]);
    let [stars, gas] = field_sets(50, 97);
    let mut acc = Vec::new();
    let field = |pool: &mut ShardedChannel, acc: &mut Vec<[f64; 3]>, prime: bool| {
        pool.submit_field(&stars, &gas, prime, (0, 50), (0, 97));
        pool.collect_accelerations_into(acc).expect("the field's accelerations");
    };
    // both request forms: the cold open's priming one and a substep's
    for _ in 0..2 {
        field(&mut pool, &mut acc, true);
        field(&mut pool, &mut acc, false);
    }
    let allocs = count_allocs(|| {
        field(&mut pool, &mut acc, true);
        field(&mut pool, &mut acc, false);
    });
    assert_eq!(allocs, 0, "sharded priming+mass-free field made {allocs} heap allocations");
    assert_eq!(acc.len(), 50 + 97);
}

#[test]
fn warm_in_process_iteration_allocates_nothing() {
    // the whole coupled iteration over `LocalChannel`s: steps, fields
    // and kicks, all through borrowed legs into the bridge's and the
    // channels' scratch. Below the kernels' 64-target parallel grain,
    // so no worker-count resolution reads the environment; the stellar
    // exchange (which returns owned vectors) stays out, so the measured
    // iteration opens warm on the field of the one before.
    use jc_amuse::{Bridge, EmbeddedCluster, LocalChannel, Role};
    let c = EmbeddedCluster::build(24, 48, 0.5, 31);
    let (g, h, cp, _) = c.local_workers(false);
    let mut cfg = c.bridge_config();
    cfg.substeps = 3;
    let mut bridge = Bridge::new(
        Box::new(LocalChannel::new(g)),
        Box::new(LocalChannel::new(h)),
        Box::new(LocalChannel::new(cp)),
        None,
        cfg,
    );
    for _ in 0..2 {
        bridge.iteration();
    }
    let (mut calls, mut walls) = (0, [std::time::Duration::ZERO; 3]);
    let allocs = count_allocs(|| {
        let rep = bridge.try_iteration().expect("iteration");
        calls = rep.calls;
        walls = [Role::Gravity, Role::Hydro, Role::Coupling].map(|r| rep.wall(r));
    });
    assert_eq!(allocs, 0, "a warm in-process iteration made {allocs} heap allocations");
    assert_eq!(calls, 2 + 2 * 3 + 3, "sanity: the whole iteration ran");
    assert!(walls.iter().all(|w| !w.is_zero()), "per-role wall time was booked: {walls:?}");
}

#[test]
fn pooled_parallel_chunked_steady_state_allocates_nothing() {
    let _pool = pool_to_myself();
    // The parallel mode's caller side must go quiet too: the first
    // fanning-out call spawns the pool threads and fills the bounded
    // channel buffers; after that, tasks live in a fixed stack array,
    // latches are plain `Mutex`/`Condvar`, and a warm `send` into a
    // bounded channel does not allocate. (Worker-thread allocations are
    // invisible to this thread's counter by construction — the claim
    // pinned here is the handoff, which is entirely caller-side.)
    let data: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
    let mut out = vec![0.0f64; 4096];
    let mut states = vec![0u64; 4];
    let run = |out: &mut [f64], states: &mut [u64]| {
        jc_compute::chunked(
            4,
            (data.as_slice(), out),
            states,
            0.0f64,
            |s0, (src, dst): (&[f64], &mut [f64]), calls| {
                *calls += 1;
                let mut acc = 0.0;
                for (k, (x, y)) in src.iter().zip(dst.iter_mut()).enumerate() {
                    *y = x * 0.5 + (s0 + k) as f64 * 1e-6;
                    acc += *y;
                }
                acc
            },
            |a, b| a + b,
        )
    };
    // warm: spawns the pool workers and their channel buffers
    let r0 = run(&mut out, &mut states);
    let r1 = run(&mut out, &mut states);
    assert_eq!(r0.to_bits(), r1.to_bits(), "sanity: the reduction is deterministic");
    let mut r2 = 0.0;
    let allocs = count_allocs(|| {
        r2 = run(&mut out, &mut states);
    });
    assert_eq!(allocs, 0, "warm parallel chunked call made {allocs} caller-side allocations");
    assert_eq!(r2.to_bits(), r0.to_bits());
    assert!(states.iter().all(|&c| c == 3), "sanity: every worker ran every call");
}

#[test]
fn tree_build_and_walk_steady_state_allocates_nothing() {
    let (pos, mass) = lcg_cloud(2000);
    let mut solver = jc_treegrav::TreeGravity::new(0.5, 0.01);
    solver.max_threads = 1;
    solver.simd = false; // the scalar reference walk
    let mut acc = Vec::new();
    // warm: arena, stacks and output grow to their high-water mark
    solver.accelerations_into(&pos, &pos, &mass, &mut acc);
    solver.accelerations_into(&pos, &pos, &mass, &mut acc);
    let n = count_allocs(|| {
        solver.accelerations_into(&pos, &pos, &mass, &mut acc);
    });
    assert_eq!(n, 0, "octree rebuild + walk made {n} heap allocations");
    assert!(solver.last_interactions() > 0, "sanity: the walk actually ran");
}
