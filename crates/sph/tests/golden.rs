//! Golden-vector determinism tests. The scalar reference density pass
//! (`simd = false`) must reproduce the pre-refactor HashMap-grid pass
//! bitwise — same candidate sets, same accumulation order; captured from
//! the original implementation (64-particle Plummer gas, seed 3) before
//! the refactor, and reproduced here by a naive O(n²) oracle of that
//! pass. The SoA path workers run (the default) is pinned to its own
//! vectors: densities, force-pass rates and signal speed; a few whole
//! `Gadget` steps with self-gravity are pinned by state digests at 128
//! gas and at the session sizes, 24 and 16.

use jc_sph::density::{compute_density_with, SphScratch, N_NEIGHBORS};
use jc_sph::forces::{hydro_rates_into, HydroRates};
use jc_sph::kernel::w;
use jc_sph::particles::plummer_gas;
use jc_sph::{CsrGrid, GasParticles};

const N: usize = 64;
const GOLDEN_INTERACTIONS: u64 = 2241;

#[rustfmt::skip]
const GOLDEN_RHO: [u64; N] = [
    0x3fd8e445cea4f979, 0x3f91ad38f6e2788a, 0x3fcf3ae91654666a, 0x3fe847ba8e7ad4da,
    0x3fd1099a72f3aca1, 0x3fb4d55ff235f13a, 0x3f966d34d14cf905, 0x3fd99a3303f79624,
    0x3f92e9247a67ba6f, 0x3fb2b6027ada38d4, 0x3f6720858664c935, 0x3fd19aa8e6e9b1d0,
    0x3fe32e65bb590855, 0x3f79747040f66879, 0x3fe284ce068973fb, 0x3f7690086a0e20c1,
    0x3fbb74be2b3b2549, 0x3fb4aac65150b3b3, 0x3fecc62a71139bea, 0x3f680b53d3dee3da,
    0x3fe9dca121d493d4, 0x3fe31e498aac0dbf, 0x3fc0c0f2ae293473, 0x3f75a27647748c62,
    0x3f6ee574fc9dc283, 0x3f83c7e2573eb479, 0x3fc3c91df2163e00, 0x3fe15541a2b6bdbc,
    0x3fa5eda7f5862041, 0x3fb390b16ac18feb, 0x3fa102ab8cb68c15, 0x3fc1c1a490901cc7,
    0x3fcd3d9fe698fb80, 0x3fe7b2f206d6c784, 0x3f93882e0e609344, 0x3f8c278891793032,
    0x3fd9ebf4117c8a74, 0x3fcad39ceed7c512, 0x3fbcd6d2c380a9bd, 0x3f64eaf63642544c,
    0x3f8ce59f33068d99, 0x3fc37697cf2f8056, 0x3fcc83c1c8081cf7, 0x3f949739ac81adb4,
    0x3fa0509c1c03c2d6, 0x3fe804491e2724ef, 0x3fa19e1e80c6a5b9, 0x3fe3c6996b790de3,
    0x3fc7898158258a4d, 0x3f7b0035da731f31, 0x3fd5c3ea65af5d85, 0x3fe6dd992f519021,
    0x3fad74cca46a2ae2, 0x3fdff9f9a122cf0f, 0x3f6a308b87d2454b, 0x3fa2abd5e4e15122,
    0x3fb5e4ee7809e243, 0x3fc2665878e29a15, 0x3fd43c6419cc616e, 0x3fd98465b9c5ec0c,
    0x3f91590d4ed1f197, 0x3fc7979d7a97747d, 0x3fc1ae87f17f1396, 0x3fb6acf61eb22a0a,
];

#[rustfmt::skip]
const GOLDEN_H: [u64; N] = [
    0x3fe79ca05cb0dc8a, 0x3ffe28172415969a, 0x3feee6011c336d8c, 0x3fe590d018a13eb1,
    0x3fea581ec27216a3, 0x3ff3dcb64e5bcae3, 0x3ff79ca05cb0dc88, 0x3fe8a3c2db54239e,
    0x400005e8fcb87fe8, 0x3ff2ff5a299d0072, 0x4005bf2605dd7a8c, 0x3fed5cd5c1f9ed8b,
    0x3fe96f605ce8b80f, 0x4005bf2605dd7a8c, 0x3fe867b2926cae9a, 0x4005bf2605dd7a8c,
    0x3ff142a61220b4af, 0x3ff2ff5a299d0072, 0x3fe6287f7429f04a, 0x4005bf2605dd7a8c,
    0x3fe6c768e5a6646d, 0x3fe5865640b5aaaa, 0x3ff142a61220b4af, 0x4005bf2605dd7a8c,
    0x4005bf2605dd7a8c, 0x4005bf2605dd7a8c, 0x3ff098878b883711, 0x3fe8b507443baabf,
    0x3ff5bf2605dd7a8c, 0x3ff5bf2605dd7a8c, 0x3ffad9d8b18583a2, 0x3ff142a61220b4af,
    0x3fed5cd5c1f9ed8b, 0x3fe68dab52c03803, 0x400098878b883711, 0x4002ff5a299d0072,
    0x3fe874afc26b1a62, 0x3fec7a48fc8b42a4, 0x3ff098878b883711, 0x4005bf2605dd7a8c,
    0x400142a61220b4af, 0x3ff098878b883711, 0x3febfeb2736d6966, 0x3ffbfeb2736d6966,
    0x3ff5bf2605dd7a8c, 0x3fe5dfb139cd0809, 0x3ffa581ec27216a3, 0x3fe874afc26b1a63,
    0x3ff098878b883711, 0x4005bf2605dd7a8c, 0x3fe7ef70972b0bd9, 0x3fe7caa73c1a8b2e,
    0x3ff43015381f0c96, 0x3fe895a35dbe80ea, 0x4005bf2605dd7a8c, 0x3ff5bf2605dd7a8c,
    0x3ff43015381f0c96, 0x3ff098878b883711, 0x3feb9dd68367877f, 0x3fe7ef70972b0bd8,
    0x400098878b883711, 0x3feb662ae8f37e2d, 0x3ff005e8fcb87fe8, 0x3ff2ff5a299d0072,
];

/// The scalar reference path — the one pinned to the pre-refactor pass.
fn scalar_scratch() -> SphScratch {
    let mut scratch = SphScratch::new();
    scratch.simd = false;
    scratch
}

fn check(gas: &jc_sph::GasParticles) {
    for i in 0..N {
        assert_eq!(
            gas.rho[i].to_bits(),
            GOLDEN_RHO[i],
            "rho[{i}] = {} diverges from the pre-refactor density pass",
            gas.rho[i]
        );
        assert_eq!(
            gas.h[i].to_bits(),
            GOLDEN_H[i],
            "h[{i}] = {} diverges from the pre-refactor density pass",
            gas.h[i]
        );
    }
}

#[test]
fn density_matches_pre_refactor_golden() {
    let mut gas = plummer_gas(N, 1.0, 3);
    assert_eq!(compute_density_with(&mut gas, &mut scalar_scratch()), GOLDEN_INTERACTIONS);
    check(&gas);
}

#[test]
fn density_with_scratch_matches_golden_sequential_and_parallel() {
    for threads in [1, 0] {
        let mut gas = plummer_gas(N, 1.0, 3);
        let mut scratch = scalar_scratch();
        scratch.max_threads = threads;
        assert_eq!(
            compute_density_with(&mut gas, &mut scratch),
            GOLDEN_INTERACTIONS,
            "threads = {threads}"
        );
        check(&gas);
    }
}

// --- the pre-refactor pass, as a naive oracle -----------------------------
//
// The pre-refactor pass gridded the set into a HashMap of cells of size
// `h_mean` and answered each query by visiting the cells around the centre
// in lexicographic key order, each cell's particles in ascending index. The
// oracle finds the same candidates by brute force and sorts them into that
// order, and it repeats every query that pass made.

/// The pass's seed smoothing length: the mean interparticle spacing of
/// the bounding box, floored by its diagonal.
fn h_mean(pos: &[[f64; 3]]) -> f64 {
    let n = pos.len() as f64;
    let (mut lo, mut hi) = ([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]);
    for p in pos {
        for k in 0..3 {
            lo[k] = lo[k].min(p[k]);
            hi[k] = hi[k].max(p[k]);
        }
    }
    let vol = (hi[0] - lo[0]).max(1e-6) * (hi[1] - lo[1]).max(1e-6) * (hi[2] - lo[2]).max(1e-6);
    let diag = ((hi[0] - lo[0]).powi(2) + (hi[1] - lo[1]).powi(2) + (hi[2] - lo[2]).powi(2))
        .sqrt()
        .max(1e-6);
    (vol / n * N_NEIGHBORS as f64).cbrt().max(diag / n.cbrt()).max(1e-6)
}

/// Every particle within `radius` of `c`, sorted by (cell key at `cell`,
/// index): the HashMap grid's visit order.
fn legacy_within(pos: &[[f64; 3]], cell: f64, c: &[f64; 3], radius: f64) -> Vec<u32> {
    let key = |j: u32| (pos[j as usize].map(|x| (x / cell).floor() as i32), j);
    let mut hits: Vec<u32> = (0..pos.len() as u32)
        .filter(|&j| {
            let p = pos[j as usize];
            let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
            d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= radius * radius
        })
        .collect();
    hits.sort_by_key(|&j| key(j));
    hits
}

/// The pre-refactor adaptive density pass over [`legacy_within`]:
/// writes `rho` and `h`, returns the interaction total.
fn legacy_density(gas: &mut GasParticles) -> u64 {
    const H_ITERS: usize = 4;
    let n = gas.len();
    if n == 0 {
        return 0;
    }
    let h_mean = h_mean(&gas.pos);
    let cell = h_mean.max(1e-6);
    let (pos, mass) = (&gas.pos, &gas.mass);
    let sum = |c: &[f64; 3], h: f64| {
        let mut rho = 0.0;
        for j in legacy_within(pos, cell, c, h) {
            let p = &pos[j as usize];
            let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
            rho += mass[j as usize] * w((d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt(), h);
        }
        rho
    };
    let mut total = 0;
    for i in 0..n {
        let h0 = if gas.h[i] <= 0.0 || !gas.h[i].is_finite() { h_mean } else { gas.h[i] };
        let mut h = h0.min(h_mean * 8.0).max(h_mean * 0.05);
        let mut rho = 0.0;
        for _ in 0..H_ITERS {
            let found = legacy_within(pos, cell, &pos[i], h).len();
            total += found as u64;
            let found = found.max(1) as f64;
            if found > 0.8 * N_NEIGHBORS as f64 && found < 1.3 * N_NEIGHBORS as f64 {
                rho = sum(&pos[i], h);
                break;
            }
            h *= (N_NEIGHBORS as f64 / found).cbrt().clamp(0.5, 2.0);
            h = h.clamp(h_mean * 0.05, h_mean * 8.0);
            rho = sum(&pos[i], h);
        }
        if rho <= 0.0 {
            rho = mass[i] * w(0.0, h);
        }
        (gas.rho[i], gas.h[i]) = (rho, h);
    }
    total
}

#[test]
fn legacy_reference_still_matches_golden() {
    let mut gas = plummer_gas(N, 1.0, 3);
    assert_eq!(legacy_density(&mut gas), GOLDEN_INTERACTIONS);
    check(&gas);
}

/// Scalar-path passes against the oracle, bitwise, each pass starting
/// from the `h` the previous one adapted.
fn assert_scalar_path_matches_oracle(n: usize, seed: u64, passes: usize) {
    let (mut gas, mut legacy) = (plummer_gas(n, 1.0, seed), plummer_gas(n, 1.0, seed));
    let mut scratch = scalar_scratch();
    for pass in 0..passes {
        let inter = compute_density_with(&mut gas, &mut scratch);
        assert_eq!(inter, legacy_density(&mut legacy), "n={n} pass {pass}");
        for i in 0..n {
            assert_eq!(gas.rho[i].to_bits(), legacy.rho[i].to_bits(), "n={n} rho[{i}]");
            assert_eq!(gas.h[i].to_bits(), legacy.h[i].to_bits(), "n={n} h[{i}]");
        }
    }
}

#[test]
fn sets_below_the_neighbour_target_match_the_legacy_pass() {
    // fewer particles than the target count: `h` grows on every
    // iteration, and once a search has returned the whole set the wider
    // ones are skipped — the oracle, which repeats every query, shows
    // that skipping them changes nothing
    for n in [1, 2, 7, 16, 24, 25, 26, 40] {
        assert_scalar_path_matches_oracle(n, 5, 2);
    }
}

#[test]
fn legacy_density_matches_csr_density_bitwise() {
    assert_scalar_path_matches_oracle(400, 21, 1);
}

#[test]
fn matches_legacy_grid_order() {
    // identical candidate sequence to the HashMap grid, including the
    // within-cell ascending-index order the density sums rely on
    let mut x = 5u64;
    let mut rnd = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let pos: Vec<[f64; 3]> = (0..200).map(|_| [rnd(), rnd(), rnd()]).collect();
    let csr = CsrGrid::build(&pos, 0.17);
    for probe in 0..20 {
        let c = pos[probe * 7];
        for r in [0.05, 0.17, 0.3, 5.0] {
            assert_eq!(csr.within(&pos, &c, r), legacy_within(&pos, 0.17, &c, r), "r={r}");
        }
    }
}

// --- SoA-path golden vectors ---------------------------------------------
//
// The default path sums densities and pair rates lane-by-lane in search
// order, so it differs from the scalar reference by rounding and carries
// its own vectors (same 64-particle gas; below the direct-sweep crossover).
// The h trajectory and the interaction total are shared with the scalar
// path (`GOLDEN_H`, `GOLDEN_INTERACTIONS`). Every SIMD tier executes the
// portable body's IEEE operation sequence (pinned by unit tests in
// `jc_sph::forces`), so these bits hold on any machine and thread count.

#[rustfmt::skip]
const GOLDEN_SOA_RHO: [u64; 64] = [
    0x3fd8e445cea4f979, 0x3f91ad38f6e2788c, 0x3fcf3ae91654666b, 0x3fe847ba8e7ad4dc,
    0x3fd1099a72f3aca2, 0x3fb4d55ff235f13c, 0x3f966d34d14cf905, 0x3fd99a3303f79625,
    0x3f92e9247a67ba72, 0x3fb2b6027ada38d5, 0x3f6720858664c935, 0x3fd19aa8e6e9b1cf,
    0x3fe32e65bb590855, 0x3f79747040f6687b, 0x3fe284ce068973fb, 0x3f7690086a0e20c2,
    0x3fbb74be2b3b2548, 0x3fb4aac65150b3b5, 0x3fecc62a71139beb, 0x3f680b53d3dee3da,
    0x3fe9dca121d493d5, 0x3fe31e498aac0dbf, 0x3fc0c0f2ae293470, 0x3f75a27647748c63,
    0x3f6ee574fc9dc284, 0x3f83c7e2573eb479, 0x3fc3c91df2163e00, 0x3fe15541a2b6bdbb,
    0x3fa5eda7f5862043, 0x3fb390b16ac18fec, 0x3fa102ab8cb68c15, 0x3fc1c1a490901cc6,
    0x3fcd3d9fe698fb80, 0x3fe7b2f206d6c785, 0x3f93882e0e609342, 0x3f8c278891793032,
    0x3fd9ebf4117c8a72, 0x3fcad39ceed7c50e, 0x3fbcd6d2c380a9bb, 0x3f64eaf63642544c,
    0x3f8ce59f33068d98, 0x3fc37697cf2f8055, 0x3fcc83c1c8081cf9, 0x3f949739ac81adb4,
    0x3fa0509c1c03c2d6, 0x3fe804491e2724ef, 0x3fa19e1e80c6a5b9, 0x3fe3c6996b790de3,
    0x3fc7898158258a4c, 0x3f7b0035da731f33, 0x3fd5c3ea65af5d84, 0x3fe6dd992f519021,
    0x3fad74cca46a2ae3, 0x3fdff9f9a122cf10, 0x3f6a308b87d2454b, 0x3fa2abd5e4e15123,
    0x3fb5e4ee7809e243, 0x3fc2665878e29a13, 0x3fd43c6419cc616f, 0x3fd98465b9c5ec0b,
    0x3f91590d4ed1f195, 0x3fc7979d7a97747e, 0x3fc1ae87f17f1395, 0x3fb6acf61eb22a0c,
];

const GOLDEN_SOA_FORCE_INTERACTIONS: u64 = 1580;
const GOLDEN_SOA_V_SIGNAL_MAX: u64 = 0x3ff0df4012785362;

#[rustfmt::skip]
const GOLDEN_SOA_ACC: [u64; 192] = [
    0x3ffd7efe30964481, 0xc00ce73d87e7c5b0, 0x3fe6218254f7c0a7,
    0x3fd84b9681e74ec5, 0x3fd45617baddc060, 0x3fb40489b9384227,
    0xbffd13f80d7b02e1, 0xbfe9cd71869f6a57, 0x3ff5e0851e32779d,
    0x3fd476f5b5bd556e, 0x3ff03622cb7b859d, 0x3ff9eb034e795f6d,
    0x40014448cf06d7c5, 0x3faa1bb14620b4a5, 0xbfe81fb9569ceb16,
    0x3fc8ebf1cd498ecb, 0xbff636f49ff56d47, 0xbfd933e35faa3aa7,
    0xbfd429a12ecb5225, 0x3fd03c35039bd152, 0x3fc63ff0b3617bdb,
    0x40015a1ba98b04e9, 0xbfee0c4e37c30928, 0xbff25b911ca212ad,
    0x3fdbbf429beebf46, 0xbfc06a098a924df7, 0x3fb33eeb3b39db99,
    0xbfda225b524adb5b, 0x3ff1dcd955aaeaa2, 0xbfe9cd5962c5322e,
    0xbfbbb5b861210875, 0xbfa5307692cd4dc5, 0xbf91b123a2af0af8,
    0x3fdeecfe95444d14, 0x3fd04cebed0de7ab, 0x3ffe0bcba9e6bb80,
    0xbfecf24c20c408e6, 0x3ffc20ae28956620, 0xbfebe32f06de5bf0,
    0xbfbf34f4b7b341f0, 0x3facc72322110428, 0xbf6c75ce58a002f4,
    0xbff24102cca66ae5, 0xbffd1f2cab251b2f, 0x3fe578c85ac25e41,
    0xbfc253344caed894, 0xbfb831c5e2d44c3d, 0x3fc9d173fc5329ad,
    0xbfc14193ce04146e, 0xbfd26cfd4ca72d78, 0xbff71eb79f752a28,
    0x3fe0f7736c437eca, 0x3fe18e96cec019df, 0xbfede6dcd4b778e3,
    0x3fe05e49c377e4db, 0x3fdcd47bdb2dbc53, 0xbfdf835699bed34c,
    0x3fbb6133514e22dc, 0xbf9d3eaf71fab467, 0x3f9a027d857113bc,
    0x3fc16964b4662345, 0x3ff806d5339def24, 0xbfe44a454efd100e,
    0x3ff77f616065114c, 0xbfce4b5876d9db9a, 0x3ff49db3993127c1,
    0x3fcfcf5a72fe7b1a, 0xbff261a8765a1fca, 0xbfeb582c083f0f4a,
    0xbf9dde8c753ad6a6, 0x3fb4f9682177a50c, 0xbfc1e06ca5f491b4,
    0xbfb71907083f75b0, 0xbfb7ae515eea2c54, 0xbfb67452f5737f06,
    0xbfb6c3ca368f5903, 0xbfc5d8e5fcc08a1e, 0xbfcfe9360a25b608,
    0x3fefad021af62158, 0x3fa96634ec5c7f93, 0xbfe71da7835f59d4,
    0xbffcc71cb622dc22, 0xbff88d276f09473e, 0x3fd95cc62f0e9d5e,
    0xbfaa06155e387d01, 0x3fe4e8b7eea0e917, 0x3fe82911995eb904,
    0xbfe88f92012f813f, 0xbfc8d7197db20053, 0xbff425c9a63611f7,
    0x3fde44c257ca367c, 0x3fbfdfe49a12c505, 0x3fda8c1385c6430f,
    0x3fea0e8905bdd741, 0x3fed0dfbe6511890, 0x3fd61a935f995a58,
    0xbff70215effc783d, 0x3ff46fc228cab7cb, 0xbff7a23fe0fe5bd3,
    0x3fe168b5abe9f3f4, 0xbfbfadface901d0c, 0xc0015afb42a5c0bd,
    0x3fc1c8fd414ac575, 0xbfcc93706633e162, 0x3fb4b60f1e38e9f2,
    0x3fb18bb0c962faa6, 0xbfce684c7f14a5da, 0xbf860139a88f13e4,
    0x3ffcd637ccbdac31, 0x3ff380010441e686, 0xbfea2cd234f86923,
    0xbff665329e769360, 0x3ff8c01d70b84b0c, 0x4005ab1104513feb,
    0xbfd9eb1c326133ff, 0xbff4365ed0bd018e, 0xbfa7c468a3284d58,
    0xbf80763f9537242c, 0x3fb4c3732e4fb3c8, 0x3f92ecd77b7baa77,
    0x3fb73b1707adc48d, 0xbfc0480928327664, 0xbfd1c1663f7334a0,
    0x3ff3c0f8f018e384, 0xbfef86b59e96778b, 0x3fd17045bca909da,
    0xbfdeceae0518b6b5, 0xbffb71d2fc6deabb, 0x400a0f644c12fd60,
    0x3fd0dc26d5b41872, 0xbfd061ca288f4cc8, 0x3fd20b98582bb962,
    0x3fdbe8b35c19c5f6, 0x3fb01c347212a9be, 0xbfc36e6b3a131c48,
    0x3fe34a3b8ab37c54, 0xbfd4a42ae4ed583c, 0x3ff17d91840cc14f,
    0x3fccc7855fd8d703, 0xbfd6a83f0599dc6c, 0x3fe2f3aaf4e81cee,
    0xbffd4674d604546b, 0x3ffcf31c41e63aec, 0x3fc408a8806639b2,
    0x3fedc76e0f99940e, 0xbfba065433f18d66, 0x3ff2169d97dfb5d6,
    0xbf7743488b1459f0, 0x3fb5c841e6218e7c, 0xbf78dbd582495ec4,
    0x3fe976b8be59af96, 0xc0039520c75c6731, 0xbff69907cc93367b,
    0xbfd707a900bb28f0, 0x3ffa0e193f075d48, 0xbfecc794348d3fe6,
    0xbff1deb9202172b2, 0x3fc994185437e1f6, 0x3fe9c32218bb5df6,
    0xc00048927b7b69a2, 0xbff36cd1b06cc28e, 0xc0035039c7027f18,
    0xbfabcdc4f694da11, 0x3f8740a680d60387, 0x3fbaf5e24777a2c5,
    0xbfe328752c617dac, 0x3fd047032614f322, 0xbfccb8c9d906ed3c,
    0x3fe0213be7f9c863, 0x3fecece0bd0e0694, 0xbfbda37139321a6e,
    0x3fe1f3676007e578, 0xbfc9b04165678388, 0xbff1e048669799e4,
    0x3fea4d8584726a80, 0x3ff49af38cb00d67, 0x3ff0b7d6c82ce998,
    0xc00abdf59df83597, 0x3fe0f1f00881d80f, 0x3fd0764dd0dfe7ec,
    0xbfc5d996da9e8342, 0xbfdb6beda00dab87, 0xbfb0d1acf823763f,
    0xbfcbaad52d107246, 0x400207c1466a1ad3, 0x3ff1a38c3ffd328f,
    0x3fbba6b4ffd5b96b, 0x3fede67c99c20bf0, 0xbfd436b31166485e,
    0xbff01a3eadf03192, 0xbfe65b7ff216a8f0, 0xbfe1c322cdafd79e,
];

#[rustfmt::skip]
const GOLDEN_SOA_DU: [u64; 64] = [
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
];

fn assert_bits(label: &str, got: &[f64], want: &[u64]) {
    assert_eq!(got.len(), want.len(), "{label} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), *w, "{label}[{i}] = {g} diverges from the SoA golden vector");
    }
}

#[test]
fn soa_density_and_forces_match_their_own_golden_vectors() {
    for threads in [1, 0] {
        let mut gas = plummer_gas(N, 1.0, 3);
        let mut scratch = SphScratch::new();
        scratch.max_threads = threads;
        assert_eq!(compute_density_with(&mut gas, &mut scratch), GOLDEN_INTERACTIONS);
        assert_bits("rho", &gas.rho, &GOLDEN_SOA_RHO);
        assert_bits("h", &gas.h, &GOLDEN_H);
        let mut rates = HydroRates::new();
        hydro_rates_into(&gas, &mut scratch, &mut rates);
        assert_eq!(rates.interactions, GOLDEN_SOA_FORCE_INTERACTIONS);
        assert_eq!(rates.v_signal_max.to_bits(), GOLDEN_SOA_V_SIGNAL_MAX);
        assert_bits("acc", rates.acc.as_flattened(), &GOLDEN_SOA_ACC);
        assert_bits("du", &rates.du, &GOLDEN_SOA_DU);
    }
}

// --- Gadget with self-gravity: a state-bits pin ----------------------------
//
// A few KDK steps of a 128-gas Plummer ball with self-gravity on, as a
// `HydroWorker` runs them: density, forces and the mixed-precision
// pair-symmetric self-gravity sum in every refresh. Every bit of the end
// state — all six particle columns and the clock — is folded into one
// FNV-1a digest, so any kernel change that moves a bit (the vectors above
// pin density and forces only) re-baselines this pin on purpose.

const GADGET_GAS: usize = 128;
const GOLDEN_GADGET_STEPS: u64 = 3;
const GOLDEN_GADGET_DIGEST: u64 = 0x64adcb6ae5859a89;

fn gadget_state_digest(g: &jc_sph::Gadget) -> u64 {
    let gas = &g.gas;
    let scalars = gas.mass.iter().chain(&gas.u).chain(&gas.h).chain(&gas.rho);
    let vectors = gas.pos.iter().chain(&gas.vel).flatten();
    let time = g.model_time();
    scalars.chain(vectors).chain([&time]).fold(0xcbf29ce484222325u64, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
    })
}

#[test]
fn gadget_with_self_gravity_matches_its_state_pin() {
    for threads in [1, 0] {
        let mut g = jc_sph::Gadget::new(plummer_gas(GADGET_GAS, 1.0, 7)).with_max_threads(threads);
        g.evolve_model(0.012);
        assert_eq!(g.steps, GOLDEN_GADGET_STEPS, "threads = {threads}");
        assert_eq!(
            gadget_state_digest(&g),
            GOLDEN_GADGET_DIGEST,
            "the Gadget end state moved (threads = {threads})"
        );
    }
}

// The same pin at the sizes a service session (24 gas) and the chatty
// TCP workload (16 gas) run: both hold fewer than 0.8 · N_NEIGHBORS
// particles, so every h-adaptation step grows `h`, and the force pass
// runs one block.

/// `(gas count, state digest)` after the same three steps.
const GOLDEN_SESSION_DIGESTS: [(usize, u64); 2] =
    [(16, 0x235210776711335b), (24, 0xa11912d8e600037c)];

#[test]
fn session_sized_gadgets_match_their_state_pins() {
    for (n, digest) in GOLDEN_SESSION_DIGESTS {
        for threads in [1, 2, 7] {
            let mut g = jc_sph::Gadget::new(plummer_gas(n, 1.0, 7)).with_max_threads(threads);
            g.evolve_model(0.012);
            assert_eq!(g.steps, GOLDEN_GADGET_STEPS, "n = {n}, threads = {threads}");
            assert_eq!(
                gadget_state_digest(&g),
                digest,
                "the {n}-gas Gadget end state moved (threads = {threads})"
            );
        }
    }
}
