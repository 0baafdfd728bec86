//! perfsuite — the repo's machine-readable kernel performance baseline.
//!
//! Times every compute kernel the paper's Table 1 scenarios exercise
//! (direct-summation gravity, block-step Hermite evolves, Barnes–Hut tree
//! walks, SPH density and forces) at several N on fixed seeds, plus one
//! frozen calibration loop that measures the machine, and writes the
//! results as JSON so every perf PR leaves a trajectory point behind.
//!
//! ```text
//! perfsuite [--quick] [--out PATH] [--check BASELINE] [--repeats K]
//! perfsuite --compare OLD.json NEW.json
//! ```
//!
//! * `--quick` — small-N subset (CI per-PR job)
//! * `--out` — output path (default `bench.json`; pass an explicit
//!   `BENCH_PRn.json` when recording a committed baseline)
//! * `--check` — compare against a committed baseline JSON and exit
//!   non-zero if any matching kernel regressed more than 2× in ns/step
//!   (machine-normalized by the `calibration` row; a baseline without
//!   that row is refused with exit code 2)
//! * `--repeats` — timing repeats per kernel (default 3; best is kept)
//! * `--compare OLD.json NEW.json` — no benching: print a per-kernel
//!   speedup table between two result files (machine-normalized via the
//!   `calibration` rows, exit code 2 if either file lacks one) and exit
//!   non-zero if any kernel in NEW regressed more than 2× against OLD,
//!   **or** if NEW is missing a kernel name OLD has (rows present on
//!   only one side are named either way) — CI diffs the PR's JSON
//!   artifact against the committed baseline with this
//!
//! Every mode also records multi-thread scaling rows: the parallel
//! kernels re-run at `JC_THREADS` ∈ {1, 2, phys-cores} as
//! `<kernel>_t<T>` rows (largest N of the mode), plus a per-core
//! scaling-efficiency report — so each committed baseline pins the
//! worker-pool trajectory next to the single-thread one.
//!
//! Worker-thread counts honor the `JC_THREADS` environment override, so
//! perfsuite numbers are reproducible on shared machines (CI pins it).
//! Backend coverage: the SPH and tree scalar reference kernels keep their
//! historical row names (`sph_density_csr`, `sph_forces`, `tree_walk`);
//! the SoA compute paths — what workers run — get `*_simd` rows next to
//! them. The n-body force kernel has only its SoA path, timed as
//! `nbody_acc_jerk_simd`; its in-order reference lives in `jc_nbody`'s
//! tests and has no row.
//! `hermite_evolve` times one gravity `EvolveTo(1/64)` at the two star
//! counts workers run (`interactions_per_s` from the integrator's own
//! flop count: a block step evaluates only the active stars).
//! `sph_step_n512` / `sph_step_n24` / `sph_step_n16` time one whole
//! `Gadget` step at the gas counts workers run, `sph_density_simd`,
//! `sph_forces_simd` and `gravity_self` also run at a session's n = 24
//! (`gravity_self` at the chatty workload's 16 as well), and the
//! `sph_neighbors_direct` / `sph_neighbors_grid` rows are the
//! measurement behind `jc_sph`'s direct-sweep crossover.
//! `sph_forces` / `sph_forces_simd` time `hydro_rates_into` alone on
//! candidate sets staged once. The scalar row builds its neighbour lists
//! in the first call and reuses them, so it never times the list build.
//! Baselines recorded while the SoA pass still gathered from those lists
//! (up to and including `BENCH_PR30.json`) left the list build out of
//! `sph_forces_simd` in the same way; since the pass stages each pair
//! straight from the candidate sets, that row pays for the staging in
//! every call and so reads slower than before, although a step got
//! cheaper. The rows that show what a step costs are `sph_step_n512` /
//! `sph_step_n24` / `sph_step_n16`.
//! `tree_build` and `tree_walk` attribute an N-driven throughput drop to
//! the octree build or to the walk; `tree_build_walk` /
//! `tree_build_walk_octgrav` (both halves, as one `accelerations_into`
//! at or above the crossover costs at θ = 0.5 / 0.75) sit next to
//! `gravity_direct` (mirror + exact sum, what it costs below) and
//! `gravity_self` (mirror + mixed-precision pair-symmetric sum, what a
//! `Gadget` refresh costs below) at every crossover N, and next to
//! `gravity_direct_128x512` at the coupling kick's shape — the
//! measurement behind `jc_treegrav`'s direct-sum crossover.
//!
//! Transport, checkpoint and service costs are not timed here: the
//! `benchmark/` package's per-layer probes (`socket.*`, `checkpoint.*`,
//! `service.*`) measure them end to end.

use jc_nbody::kernels::{acc_jerk_into, Backend, FLOPS_PER_PAIR};
use jc_nbody::plummer::plummer_sphere;
use jc_nbody::PhiGrape;
use jc_sph::density::{compute_density_with, SphScratch};
use jc_sph::forces::{hydro_rates_into, HydroRates};
use jc_sph::particles::plummer_gas;
use jc_treegrav::TreeGravity;
use std::hint::black_box;
use std::time::Instant;

/// Allowed slowdown versus the committed baseline before `--check` fails.
const REGRESSION_FACTOR: f64 = 2.0;

/// The row that measures the machine rather than the code (see
/// [`bench_calibration`]).
const CALIBRATION: &str = "calibration";

/// One measured point.
struct Sample {
    kernel: &'static str,
    n: usize,
    ns_per_step: f64,
    interactions_per_s: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        if args.len() != 3 {
            eprintln!("usage: perfsuite --compare OLD.json NEW.json");
            std::process::exit(2);
        }
        std::process::exit(compare_files(&args[1], &args[2]));
    }
    let mut quick = false;
    // not a committed BENCH_*.json: a bare run must never clobber a
    // checked-in baseline
    let mut out_path = String::from("bench.json");
    let mut check_path: Option<String> = None;
    let mut repeats = 3usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check_path = Some(it.next().expect("--check needs a path").clone()),
            "--repeats" => {
                repeats = it.next().and_then(|v| v.parse().ok()).expect("--repeats needs a count")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perfsuite [--quick] [--out PATH] [--check BASELINE] [--repeats K]"
                );
                std::process::exit(2);
            }
        }
    }

    let mut samples = vec![bench_calibration(repeats)];
    let gravity_ns: &[usize] = if quick { &[256] } else { &[256, 1024, 4096] };
    let tree_ns: &[usize] = if quick { &[1024] } else { &[1024, 8192] };
    let sph_ns: &[usize] = if quick { &[1024] } else { &[1024, 8192] };

    for &n in gravity_ns {
        samples.push(bench_acc_jerk(n, repeats));
    }
    // one gravity `EvolveTo` as a worker runs it, at the two sizes
    // workers run (the benchmark's 128-star cluster, an 8-star session)
    for n in [128, 8] {
        samples.push(bench_hermite_evolve(n, repeats));
    }
    for &n in tree_ns {
        samples.push(bench_tree_build(n, repeats));
        samples.push(bench_tree_walk(n, repeats, false));
        samples.push(bench_tree_walk(n, repeats, true));
    }
    for &n in sph_ns {
        samples.push(bench_sph_density(n, repeats, false));
        samples.push(bench_sph_density(n, repeats, true));
        samples.push(bench_sph_forces(n, repeats, false));
        samples.push(bench_sph_forces(n, repeats, true));
    }
    // one Gadget step as a worker runs it, at the sizes workers run (the
    // benchmark's 512-gas cluster, a 24-gas service session, the chatty
    // workload's 16 gas), and the two SoA passes of a session's refresh
    for n in [512, 24, 16] {
        samples.push(bench_sph_step(n, repeats));
    }
    samples.push(bench_sph_density(24, repeats, true));
    samples.push(bench_sph_forces(24, repeats, true));
    // self-gravity at the session's and the chatty workload's gas counts
    for n in [24, 16] {
        samples.push(bench_gravity_self(n, repeats));
    }
    let crossover_ns: &[usize] = &[256, 512, 1024, 2048, 4096, 8192];
    for &n in crossover_ns {
        samples.extend(bench_sph_neighbors(n, repeats));
    }
    for &n in crossover_ns {
        samples.extend(bench_gravity_structures(n, n, repeats));
    }
    // the coupling kick of the benchmark's cluster: 128 stars in the
    // field of 512 gas particles
    samples.extend(bench_gravity_structures(128, 512, repeats));
    // Multi-thread scaling rows (all modes): the parallel kernels at
    // JC_THREADS ∈ {1, 2, phys-cores}, each at the mode's largest N so
    // the grain policy cannot floor the worker count. `JC_THREADS` is
    // read per resolution (regression-tested at the workspace root), so
    // an in-process sweep measures what it labels; the ambient value is
    // restored before the provenance field is rendered.
    let phys = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let ambient_threads = std::env::var("JC_THREADS").ok();
    let mut sweep: Vec<usize> = vec![1, 2, phys];
    sweep.sort_unstable();
    sweep.dedup();
    let sweep_start = samples.len();
    let n_grav = *gravity_ns.last().unwrap();
    let n_tree = *tree_ns.last().unwrap();
    let n_sph = *sph_ns.last().unwrap();
    for &t in &sweep {
        std::env::set_var("JC_THREADS", t.to_string());
        let tag =
            |kernel: &str| -> &'static str { Box::leak(format!("{kernel}_t{t}").into_boxed_str()) };
        let s = bench_acc_jerk(n_grav, repeats);
        samples.push(Sample { kernel: tag("nbody_acc_jerk_simd"), ..s });
        let s = bench_tree_walk(n_tree, repeats, true);
        samples.push(Sample { kernel: tag("tree_walk_simd"), ..s });
        let s = bench_sph_forces(n_sph, repeats, true);
        samples.push(Sample { kernel: tag("sph_forces_simd"), ..s });
    }
    match ambient_threads {
        Some(v) => std::env::set_var("JC_THREADS", v),
        None => std::env::remove_var("JC_THREADS"),
    }
    report_scaling(&samples[sweep_start..], &sweep);

    for s in &samples {
        println!(
            "{:<24} N={:<6} {:>14.0} ns/step  {:>14.3e} inter/s",
            s.kernel, s.n, s.ns_per_step, s.interactions_per_s
        );
    }
    report_speedup(&samples);
    report_neighbors_crossover(&samples);
    report_gravity_crossover(&samples);

    let json = render_json(&samples, quick);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");

    if let Some(baseline) = check_path {
        std::process::exit(check_against(&samples, &baseline));
    }
}

/// Print thread-scaling speedup and per-core efficiency for the
/// `<kernel>_t<T>` sweep rows (`efficiency = t1_ns / (T * tT_ns)`; 1.0
/// is perfect scaling, anything under ~0.7 on real cores points at a
/// serial section or pool overhead).
fn report_scaling(sweep_rows: &[Sample], sweep: &[usize]) {
    for kernel in ["nbody_acc_jerk_simd", "tree_walk_simd", "sph_forces_simd"] {
        let at = |t: usize| -> Option<f64> {
            let name = format!("{kernel}_t{t}");
            sweep_rows.iter().find(|s| s.kernel == name).map(|s| s.ns_per_step)
        };
        let Some(base) = at(1) else { continue };
        for &t in sweep.iter().filter(|&&t| t > 1) {
            if let Some(ns) = at(t) {
                let speedup = base / ns;
                println!(
                    "{kernel} at {t} threads: {speedup:.2}x over 1 thread, \
                     per-core efficiency {:.2}",
                    speedup / t as f64
                );
            }
        }
    }
}

/// Print the SoA-vs-scalar speedup of every kernel that has both rows.
fn report_speedup(samples: &[Sample]) {
    for (simd, scalar) in [
        ("sph_density_simd", "sph_density_csr"),
        ("sph_forces_simd", "sph_forces"),
        ("tree_walk_simd", "tree_walk"),
    ] {
        for s in samples.iter().filter(|s| s.kernel == simd) {
            if let Some(base) = samples.iter().find(|l| l.kernel == scalar && l.n == s.n) {
                println!(
                    "{scalar} SimdSoa speedup at N={}: {:.2}x",
                    s.n,
                    base.ns_per_step / s.ns_per_step
                );
            }
        }
    }
}

/// Best-of-`repeats` wall time of `f`, in ns, after one warmup run.
fn best_ns(repeats: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: grow scratch buffers, fault pages in
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e9);
    }
    best
}

/// The machine-speed calibration row: a loop written here and shared
/// with no kernel, so no kernel change can move it. Over a fixed cloud
/// of 1024 points, every ordered pair is a squared distance, a branch
/// on it, and a `sqrt` and a divide for the near ones — the scalar mix
/// the neighbour and gravity kernels are made of. Frozen: its
/// current/baseline ratio measures only the machine.
fn bench_calibration(repeats: usize) -> Sample {
    const N: usize = 1024;
    let mut x = 1u64;
    let mut rnd = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let pos: Vec<[f64; 3]> = (0..N).map(|_| [rnd(), rnd(), rnd()]).collect();
    let ns = best_ns(repeats, || {
        let mut sum = 0.0;
        for a in black_box(&pos) {
            for b in &pos {
                let d2 = (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2);
                if d2 < 0.04 {
                    sum += 1.0 / (d2 + 1e-4).sqrt();
                }
            }
        }
        black_box(sum);
    });
    let pairs = (N * N) as f64;
    Sample { kernel: CALIBRATION, n: N, ns_per_step: ns, interactions_per_s: pairs / ns * 1e9 }
}

fn bench_acc_jerk(n: usize, repeats: usize) -> Sample {
    let ics = plummer_sphere(n, 42);
    let mut acc = vec![[0.0; 3]; n];
    let mut jerk = vec![[0.0; 3]; n];
    let ns = best_ns(repeats, || {
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
    });
    let inter = (n * n) as f64;
    Sample {
        kernel: "nbody_acc_jerk_simd",
        n,
        ns_per_step: ns,
        interactions_per_s: inter / ns * 1e9,
    }
}

/// One `EvolveTo(1/64)` exactly as a `GravityWorker` runs it, on a
/// Plummer set pre-evolved to t = 0.25 so the stars have spread over
/// their block-step levels: mean ns per `evolve_model` call, and the
/// pair interactions the integrator itself counted per second.
fn bench_hermite_evolve(n: usize, repeats: usize) -> Sample {
    let mut g = PhiGrape::new(plummer_sphere(n, 7)).with_softening(0.01).with_eta(0.01);
    let mut t_end = 0.25;
    g.evolve_model(t_end); // warm: forces + scratch
    let calls = repeats.max(1);
    let flops0 = g.flops;
    let t0 = Instant::now();
    for _ in 0..calls {
        t_end += 1.0 / 64.0;
        g.evolve_model(t_end);
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9;
    Sample {
        kernel: "hermite_evolve",
        n,
        ns_per_step: ns / calls as f64,
        interactions_per_s: (g.flops - flops0) / FLOPS_PER_PAIR / ns * 1e9,
    }
}

/// Octree build (+ per-node opening-radius precompute) alone — the
/// build half of the former `tree_build_walk` row. `interactions_per_s`
/// reports particles inserted per second.
fn bench_tree_build(n: usize, repeats: usize) -> Sample {
    let ics = plummer_sphere(n, 11);
    let mut solver = TreeGravity::new(0.5, 0.01);
    let ns = best_ns(repeats, || {
        solver.rebuild(&ics.pos, &ics.mass);
    });
    Sample { kernel: "tree_build", n, ns_per_step: ns, interactions_per_s: n as f64 / ns * 1e9 }
}

/// The Barnes–Hut walk against a prebuilt tree — the walk half of the
/// former `tree_build_walk` row, so an N-driven throughput drop can be
/// pinned on build or walk.
fn bench_tree_walk(n: usize, repeats: usize, simd: bool) -> Sample {
    let ics = plummer_sphere(n, 11);
    let mut solver = TreeGravity::new(0.5, 0.01);
    solver.simd = simd;
    solver.rebuild(&ics.pos, &ics.mass);
    let mut acc = Vec::new();
    let ns = best_ns(repeats, || {
        solver.walk_targets(&ics.pos, &mut acc);
    });
    let inter = solver.last_interactions() as f64;
    let kernel = if simd { "tree_walk_simd" } else { "tree_walk" };
    Sample { kernel, n, ns_per_step: ns, interactions_per_s: inter / ns * 1e9 }
}

fn bench_sph_density(n: usize, repeats: usize, simd: bool) -> Sample {
    let gas0 = plummer_gas(n, 1.0, 13);
    let mut scratch = SphScratch::new();
    scratch.simd = simd;
    let mut gas = gas0.clone();
    let mut inter = 0u64;
    let ns = best_ns(repeats, || {
        gas.h.copy_from_slice(&gas0.h); // identical adaptation work per run
        inter = compute_density_with(&mut gas, &mut scratch);
    });
    Sample {
        kernel: if simd { "sph_density_simd" } else { "sph_density_csr" },
        n,
        ns_per_step: ns,
        interactions_per_s: inter as f64 / ns * 1e9,
    }
}

fn bench_sph_forces(n: usize, repeats: usize, simd: bool) -> Sample {
    let mut gas = plummer_gas(n, 1.0, 13);
    let mut scratch = SphScratch::new();
    scratch.simd = simd;
    compute_density_with(&mut gas, &mut scratch);
    let mut rates = HydroRates::new();
    let ns = best_ns(repeats, || {
        hydro_rates_into(&gas, &mut scratch, &mut rates);
    });
    Sample {
        kernel: if simd { "sph_forces_simd" } else { "sph_forces" },
        n,
        ns_per_step: ns,
        interactions_per_s: rates.interactions as f64 / ns * 1e9,
    }
}

/// One `Gadget` KDK step exactly as a `HydroWorker` runs it — one
/// refresh (density + forces + pair-symmetric self-gravity) plus the O(n)
/// integrator loops — normalized per step over a short `evolve_model`.
/// `interactions_per_s` reports modeled flop/s.
fn bench_sph_step(n: usize, repeats: usize) -> Sample {
    let mut g = jc_sph::Gadget::new(plummer_gas(n, 1.0, 13));
    g.evolve_model(1e-3); // warm: rates + scratch
    let (steps0, flops0) = (g.steps, g.flops);
    let mut t_end = g.model_time();
    let t0 = Instant::now();
    for _ in 0..repeats.max(1) {
        t_end += 0.02;
        g.evolve_model(t_end);
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9;
    let per_step = ns / (g.steps - steps0).max(1) as f64;
    Sample {
        kernel: Box::leak(format!("sph_step_n{n}").into_boxed_str()),
        n,
        ns_per_step: per_step,
        interactions_per_s: (g.flops - flops0) / ns * 1e9,
    }
}

/// The two candidate searches the density pass chooses between, each
/// answering one query per particle at its adapted `h`: the direct SoA
/// sweep (column fill included) and the CSR grid (build at the median
/// `h` included). Same result sets; `interactions_per_s` reports
/// candidates found per second. The rows are the provenance of the
/// crossover constant in `jc_sph::density`.
fn bench_sph_neighbors(n: usize, repeats: usize) -> [Sample; 2] {
    use jc_compute::soa::Soa3;
    use jc_sph::grid::{sweep_within, CsrGrid};

    let mut gas = plummer_gas(n, 1.0, 13);
    compute_density_with(&mut gas, &mut SphScratch::new());
    let mut sorted_h = gas.h.clone();
    sorted_h.sort_unstable_by(f64::total_cmp);
    let cell = sorted_h[n / 2];
    let (mut cols, mut grid) = (Soa3::new(), CsrGrid::new());
    let mut found = 0u64;
    let direct = best_ns(repeats, || {
        found = 0;
        cols.fill_from(&gas.pos);
        for (c, &h) in gas.pos.iter().zip(&gas.h) {
            sweep_within(&cols, c, h, |_, _| found += 1);
        }
    });
    let found_direct = found;
    let gridded = best_ns(repeats, || {
        found = 0;
        grid.build_into(&gas.pos, cell);
        for (c, &h) in gas.pos.iter().zip(&gas.h) {
            grid.for_each_within(&gas.pos, c, h, |_, _| found += 1);
        }
    });
    assert_eq!(found, found_direct, "direct and grid searches disagree at n={n}");
    let row = |kernel, ns: f64| Sample {
        kernel,
        n,
        ns_per_step: ns,
        interactions_per_s: found as f64 / ns * 1e9,
    };
    [row("sph_neighbors_direct", direct), row("sph_neighbors_grid", gridded)]
}

/// Print the direct-vs-grid candidate-search ratio per N — the committed
/// measurement behind `jc_sph::density`'s crossover constant.
fn report_neighbors_crossover(samples: &[Sample]) {
    for d in samples.iter().filter(|s| s.kernel == "sph_neighbors_direct") {
        if let Some(g) = samples.iter().find(|g| g.kernel == "sph_neighbors_grid" && g.n == d.n) {
            println!(
                "sph_neighbors_crossover N={}: direct {:.0} us, grid {:.0} us — grid/direct {:.2}x",
                d.n,
                d.ns_per_step / 1e3,
                g.ns_per_step / 1e3,
                g.ns_per_step / d.ns_per_step
            );
        }
    }
}

/// The structures `TreeGravity`'s entry points choose between, each
/// answering `targets` Plummer positions in the field of `n` sources from
/// cold inputs, on the calling thread: the exact direct sum (column
/// mirror included) and the SoA Barnes–Hut walk (octree build included).
/// `targets == n` is the self-gravity shape: `gravity_direct` and
/// `gravity_self` ([`bench_gravity_self`], what a `Gadget` refresh runs
/// below the crossover) against `tree_build_walk` (Fi, θ = 0.5) and
/// `tree_build_walk_octgrav` (θ = 0.75 — the widest angle any worker
/// runs, so the cheapest tree the one θ-blind rule has to beat). The one
/// cross-set shape gets the direct/Fi pair under `_128x512` names.
/// `interactions_per_s` reports pairs (ordered for `gravity_direct`,
/// unordered for `gravity_self`), resp. accepted nodes, per second. The
/// rows are the provenance of the crossover constant in
/// `jc_treegrav::solver`.
fn bench_gravity_structures(targets: usize, n: usize, repeats: usize) -> Vec<Sample> {
    use jc_compute::gravity::accelerations_direct;
    use jc_compute::soa::SoaBodies;

    let ics = plummer_sphere(n, 11);
    let tpos = &ics.pos[..targets];
    let row = |kernel, ns: f64, inter: f64| Sample {
        kernel,
        n,
        ns_per_step: ns,
        interactions_per_s: inter / ns * 1e9,
    };
    let tree = |kernel, theta: f64| {
        let mut solver = TreeGravity::new(theta, 0.01);
        solver.max_threads = 1;
        let mut acc = Vec::new();
        let ns = best_ns(repeats, || {
            solver.rebuild(&ics.pos, &ics.mass);
            solver.walk_targets(tpos, &mut acc);
        });
        row(kernel, ns, solver.last_interactions() as f64)
    };
    let mut cols = SoaBodies::new();
    let mut acc = vec![[0.0; 3]; targets];
    let direct = best_ns(repeats, || {
        cols.fill_from_positions(&ics.mass, &ics.pos);
        accelerations_direct(tpos, &cols, 1e-4, &mut acc);
    });
    let pairs = (targets * n) as f64;
    if targets == n {
        vec![
            row("gravity_direct", direct, pairs),
            bench_gravity_self(n, repeats),
            tree("tree_build_walk", 0.5),
            tree("tree_build_walk_octgrav", 0.75),
        ]
    } else {
        vec![row("gravity_direct_128x512", direct, pairs), tree("tree_build_walk_128x512", 0.5)]
    }
}

/// `gravity_self`: the mixed-precision pair-symmetric sum
/// `TreeGravity::self_accelerations_into` runs below the crossover,
/// column mirror included, on `n` Plummer positions on the calling
/// thread — timed through its `jc_compute` body so the row exists at
/// every N. Below n = 256 one timing covers `65536 / n²` calls (256 at
/// n = 16), so the row reads well above the timer's resolution.
fn bench_gravity_self(n: usize, repeats: usize) -> Sample {
    use jc_compute::gravity::{self_accelerations, PairScratch};
    use jc_compute::soa::SoaBodies;

    let ics = plummer_sphere(n, 11);
    let calls = (65536 / (n * n)).max(1);
    let (mut cols, mut scratch, mut acc) =
        (SoaBodies::new(), PairScratch::new(), vec![[0.0; 3]; n]);
    let ns = best_ns(repeats, || {
        for _ in 0..calls {
            cols.fill_from_positions(&ics.mass, black_box(&ics.pos));
            self_accelerations(&cols, 1e-4, 1, &mut scratch, &mut acc);
        }
    }) / calls as f64;
    Sample {
        kernel: "gravity_self",
        n,
        ns_per_step: ns,
        interactions_per_s: (n * (n - 1) / 2) as f64 / ns * 1e9,
    }
}

/// Print the tree-vs-direct ratio per N — the committed measurement
/// behind `jc_treegrav::solver`'s crossover constant.
fn report_gravity_crossover(samples: &[Sample]) {
    for (direct, tree) in [
        ("gravity_direct", "tree_build_walk"),
        ("gravity_direct", "tree_build_walk_octgrav"),
        ("gravity_self", "tree_build_walk"),
        ("gravity_self", "tree_build_walk_octgrav"),
        ("gravity_direct_128x512", "tree_build_walk_128x512"),
    ] {
        for d in samples.iter().filter(|s| s.kernel == direct) {
            if let Some(t) = samples.iter().find(|t| t.kernel == tree && t.n == d.n) {
                println!(
                    "tree_vs_direct_crossover N={}: {direct} {:.0} us, {tree} {:.0} us — tree/direct {:.2}x",
                    d.n,
                    d.ns_per_step / 1e3,
                    t.ns_per_step / 1e3,
                    t.ns_per_step / d.ns_per_step
                );
            }
        }
    }
}

fn render_json(samples: &[Sample], quick: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"jc-perfsuite/v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    // provenance: the worker-count pin this run was recorded under —
    // comparing runs with mismatched concurrency gates on the machine's
    // core count, which the calibration cannot normalize
    let threads = std::env::var("JC_THREADS").unwrap_or_else(|_| "auto".into());
    s.push_str(&format!("  \"jc_threads\": \"{threads}\",\n"));
    s.push_str(&format!("  \"regression_factor\": {REGRESSION_FACTOR},\n  \"results\": [\n"));
    for (i, r) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"ns_per_step\": {:.1}, \"interactions_per_s\": {:.1}}}{}\n",
            r.kernel,
            r.n,
            r.ns_per_step,
            r.interactions_per_s,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Machine-speed calibration: the [`CALIBRATION`] row's new/old timing
/// ratio measures how fast this machine is relative to the one that
/// recorded `old`. Dividing every kernel's factor by it makes the 2×
/// gate compare code, not machines. It rests on a single measurement, so
/// it is clamped: one noisy sample on a shared runner cannot rescale
/// every kernel into a spurious pass or fail. A side without the row is
/// an error, not a ratio of 1 — uncalibrated times would compare machines.
fn machine_calibration(
    old: &[Row],
    old_path: &str,
    new: &[Row],
    new_path: &str,
) -> Result<f64, String> {
    let find = |rows: &[Row], path: &str| {
        rows.iter()
            .find(|(k, _, ns)| k == CALIBRATION && *ns > 0.0)
            .map(|&(_, _, ns)| ns)
            .ok_or_else(|| format!("{path} has no `{CALIBRATION}` row to normalize machine speed"))
    };
    Ok((find(new, new_path)? / find(old, old_path)?).clamp(0.5, 2.0))
}

/// One `(kernel, n, ns_per_step)` row pulled out of a results JSON.
type Row = (String, f64, f64);

fn load_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = jc_deploy::json::parse(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))?;
    let results = doc
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or_else(|| format!("{path} has no results array"))?;
    let mut rows = Vec::new();
    for r in results {
        let (Some(kernel), Some(n), Some(ns)) = (
            r.get("kernel").and_then(|k| k.as_str()),
            r.get("n").and_then(|n| n.as_f64()),
            r.get("ns_per_step").and_then(|v| v.as_f64()),
        ) else {
            continue;
        };
        rows.push((kernel.to_string(), n, ns));
    }
    Ok(rows)
}

/// `perfsuite --compare OLD.json NEW.json`: print a per-kernel speedup
/// table between two result files and return the exit code — non-zero
/// when any kernel in NEW regressed more than [`REGRESSION_FACTOR`]×
/// against OLD after machine normalization (the [`CALIBRATION`] rows
/// measure the machine, exactly as in `--check`). The calibration row is
/// reported for information only.
fn compare_files(old_path: &str, new_path: &str) -> i32 {
    let (old, new) = match (load_rows(old_path), load_rows(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let find = |rows: &[Row], kernel: &str, n: f64| -> Option<f64> {
        rows.iter().find(|(k, rn, _)| k == kernel && *rn == n).map(|&(_, _, ns)| ns)
    };
    let calibration = match machine_calibration(&old, old_path, &new, new_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!("comparing {new_path} against {old_path}");
    println!("machine calibration ({CALIBRATION} new/old): {calibration:.2}x");
    println!(
        "{:<24} {:>8} {:>14} {:>14} {:>9}",
        "kernel", "N", "old ns/step", "new ns/step", "speedup"
    );
    // Coverage diff before any ratio math: a silently vanished row is
    // how a perf regression escapes a ratio gate. Rows present on only
    // one side are named; a kernel NAME the baseline has but NEW lacks
    // entirely fails the comparison (N-grids may differ between quick
    // and full runs, so only the name is load-bearing).
    for (k, n, _) in old.iter().filter(|(k, n, _)| find(&new, k, *n).is_none()) {
        println!("dropped from {new_path}: {k} N={n} (present in {old_path})");
    }
    for (k, n, _) in new.iter().filter(|(k, n, _)| find(&old, k, *n).is_none()) {
        println!("new in {new_path}: {k} N={n} (absent from {old_path})");
    }
    let names = |rows: &[Row]| -> std::collections::BTreeSet<String> {
        rows.iter().map(|(k, _, _)| k.clone()).collect()
    };
    let missing: Vec<String> = names(&old).difference(&names(&new)).cloned().collect();
    if !missing.is_empty() {
        eprintln!(
            "{new_path} is missing {} kernel(s) the baseline has: {}",
            missing.len(),
            missing.join(", ")
        );
        return 1;
    }
    let mut compared = 0;
    let mut failed = 0;
    for (k, n, new_ns) in &new {
        let Some(old_ns) = find(&old, k, *n) else { continue };
        let speedup = old_ns / new_ns * calibration;
        let verdict = if k == CALIBRATION {
            "(info)"
        } else {
            compared += 1;
            if 1.0 / speedup > REGRESSION_FACTOR {
                failed += 1;
                "REGRESSED"
            } else {
                ""
            }
        };
        println!("{k:<24} {n:>8} {old_ns:>14.0} {new_ns:>14.0} {speedup:>8.2}x {verdict}");
    }
    if compared == 0 {
        eprintln!("no overlapping (kernel, N) points between {old_path} and {new_path}");
        return 2;
    }
    if failed > 0 {
        eprintln!("{failed}/{compared} kernels regressed more than {REGRESSION_FACTOR}x");
        1
    } else {
        println!("all {compared} overlapping kernels within {REGRESSION_FACTOR}x");
        0
    }
}

/// Compare against a committed baseline; returns the process exit code.
fn check_against(samples: &[Sample], baseline_path: &str) -> i32 {
    let run: Vec<Row> =
        samples.iter().map(|s| (s.kernel.to_string(), s.n as f64, s.ns_per_step)).collect();
    let loaded = load_rows(baseline_path).and_then(|base| {
        let calibration = machine_calibration(&base, baseline_path, &run, "this run")?;
        Ok((base, calibration))
    });
    let (base, calibration) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!("machine calibration ({CALIBRATION} vs baseline): {calibration:.2}x");
    let mut compared = 0;
    let mut failed = 0;
    for (kernel, n, ns) in run.iter().filter(|(k, _, _)| k != CALIBRATION) {
        let Some(&(_, _, base_ns)) = base.iter().find(|(k, bn, _)| k == kernel && bn == n) else {
            continue;
        };
        compared += 1;
        let factor = ns / base_ns / calibration;
        let verdict = if factor > REGRESSION_FACTOR {
            failed += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "check {kernel:<24} N={n:<6} {factor:.2}x of baseline, machine-normalized ({verdict})"
        );
    }
    if compared == 0 {
        eprintln!("no overlapping (kernel, N) points between run and baseline");
        return 2;
    }
    if failed > 0 {
        eprintln!("{failed}/{compared} kernels regressed more than {REGRESSION_FACTOR}x");
        1
    } else {
        println!("all {compared} overlapping kernels within {REGRESSION_FACTOR}x of baseline");
        0
    }
}
