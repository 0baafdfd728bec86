//! Golden-vector determinism tests: the scalar reference walk
//! (`simd = false`) over the reused node arena must reproduce the
//! pre-refactor build-from-scratch walk bitwise. Captured from the
//! original implementation (96-source / 16-target LCG clouds, θ = 0.5,
//! ε = 0.01) before the scratch refactor. The SoA walk and the exact
//! direct sum workers run below the crossover (96 sources: what
//! `accelerations_into` picks by default) are each pinned to their own
//! vector.

use jc_treegrav::TreeGravity;

const NT: usize = 16;
const GOLDEN_INTERACTIONS: u64 = 1014;

#[rustfmt::skip]
const GOLDEN_ACC: [u64; NT * 3] = [
    0x3ffb49779bfeccb9, 0xbfe842a87ad56f78, 0xc00339d15f211832,
    0x3ff73cbc8f57cbfb, 0xbfef3f1b731be84c, 0x3ff2aaea72f64ab9,
    0x3fdd3906992b292a, 0x3fccb155a3122e2f, 0xbffb2086b6f685f5,
    0x400253a941b3eeb1, 0x3fdb9a9326a83b3d, 0xbff10a4583c906e3,
    0xbfdc8abd5a31f5af, 0x40069e32e9bcd6c5, 0xbff86584fd997a43,
    0x4008bcef7edf162d, 0xbfecd506acd2f69e, 0x3fe9b280a385c54a,
    0xbfff9b2f577c8091, 0x3fe84f1646fe940d, 0x3ffbdfa64ec92bcf,
    0x4001bec854f617e0, 0xbff714dcfbcd96c8, 0x3ff4e4ebee9e7d07,
    0xbfdebf1ae2e4a8e3, 0x3ff6629b7da3707b, 0xc00922f0cb0a7ebc,
    0x3ff76d391b018e44, 0x3ff0b4ee56db7b08, 0x3fea4ba94f66c540,
    0x3ff8320af82574c2, 0x3ff2946f5b117697, 0xbfc1c984a7f6a7bb,
    0x3fd57efda43dbced, 0x3ff68c27d20be8d6, 0x3fe12c7b9354d46a,
    0xbfeb7507b0c5a088, 0x3fee8c95e5804c7f, 0x3ffdc17230db1bc2,
    0xc001488fc7d6cb68, 0x3fd9ddab4798b7a7, 0x3ff4acae01841e7d,
    0x3fffcf5cf0d691f1, 0x3ff81c229e8debb8, 0x3ff4bfccd7ae1328,
    0xbfe2296a67e753b5, 0xbfd66dd824521019, 0x3ff520c0b4bc2ba8,
];

fn cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut x = seed.max(1);
    let mut rnd = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let pos: Vec<[f64; 3]> = (0..n).map(|_| [rnd(), rnd(), rnd()]).collect();
    let mass = vec![1.0 / n as f64; n];
    (pos, mass)
}

fn assert_bits(got: &[[f64; 3]]) {
    assert_bits_of(got, &GOLDEN_ACC);
}

fn assert_bits_of(got: &[[f64; 3]], want: &[u64; NT * 3]) {
    for (i, a) in got.iter().enumerate() {
        for k in 0..3 {
            assert_eq!(
                a[k].to_bits(),
                want[i * 3 + k],
                "acc[{i}][{k}] = {} diverges from its golden vector",
                a[k]
            );
        }
    }
}

#[test]
fn tree_walk_matches_pre_refactor_golden() {
    let (pos, mass) = cloud(96, 3);
    let (tpos, _) = cloud(NT, 9);
    let fi = TreeGravity::new(0.5, 0.01);
    let acc = fi.accelerations(&tpos, &pos, &mass);
    assert_bits(&acc);
    assert_eq!(fi.last_interactions(), GOLDEN_INTERACTIONS);
}

#[test]
fn reused_arena_walk_matches_pre_refactor_golden() {
    let (pos, mass) = cloud(96, 3);
    let (tpos, _) = cloud(NT, 9);
    for threads in [0, 1] {
        let mut fi = TreeGravity::new(0.5, 0.01);
        fi.simd = false; // the scalar reference walk
        fi.max_threads = threads;
        let mut acc = Vec::new();
        // warm the arena on a different set, then rebuild into it
        fi.accelerations_into(&tpos, &tpos, &[1.0; NT], &mut acc);
        fi.accelerations_into(&tpos, &pos, &mass, &mut acc);
        assert_bits(&acc);
        assert_eq!(fi.last_interactions(), GOLDEN_INTERACTIONS, "threads = {threads}");
    }
}

// --- SoA-walk golden vector ----------------------------------------------
//
// Same traversal and acceptance decisions as the scalar walk (same
// interaction count), monopoles summed lane-by-lane: equal to
// `GOLDEN_ACC` to rounding. Every SIMD tier executes the portable body's
// IEEE operation sequence (pinned by a unit test in `jc_treegrav::solver`),
// so these bits hold on any machine and thread count.

#[rustfmt::skip]
const GOLDEN_SOA_ACC: [u64; 48] = [
    0x3ffb49779bfeccb9, 0xbfe842a87ad56f7a, 0xc00339d15f211830,
    0x3ff73cbc8f57cbfb, 0xbfef3f1b731be850, 0x3ff2aaea72f64ab9,
    0x3fdd3906992b2932, 0x3fccb155a3122e24, 0xbffb2086b6f685f2,
    0x400253a941b3eeb0, 0x3fdb9a9326a83b46, 0xbff10a4583c906e4,
    0xbfdc8abd5a31f5b0, 0x40069e32e9bcd6c6, 0xbff86584fd997a44,
    0x4008bcef7edf162c, 0xbfecd506acd2f69e, 0x3fe9b280a385c545,
    0xbfff9b2f577c8092, 0x3fe84f1646fe940c, 0x3ffbdfa64ec92bce,
    0x4001bec854f617df, 0xbff714dcfbcd96c8, 0x3ff4e4ebee9e7d07,
    0xbfdebf1ae2e4a8e3, 0x3ff6629b7da37078, 0xc00922f0cb0a7eba,
    0x3ff76d391b018e44, 0x3ff0b4ee56db7b06, 0x3fea4ba94f66c540,
    0x3ff8320af82574c0, 0x3ff2946f5b117695, 0xbfc1c984a7f6a7a5,
    0x3fd57efda43dbcea, 0x3ff68c27d20be8d7, 0x3fe12c7b9354d468,
    0xbfeb7507b0c5a088, 0x3fee8c95e5804c7e, 0x3ffdc17230db1bc5,
    0xc001488fc7d6cb66, 0x3fd9ddab4798b7a3, 0x3ff4acae01841e7a,
    0x3fffcf5cf0d691f1, 0x3ff81c229e8debb8, 0x3ff4bfccd7ae1329,
    0xbfe2296a67e753b6, 0xbfd66dd824521019, 0x3ff520c0b4bc2ba8,
];

#[test]
fn soa_walk_matches_its_own_golden_vector() {
    let (pos, mass) = cloud(96, 3);
    let (tpos, _) = cloud(NT, 9);
    for threads in [0, 1] {
        let mut fi = TreeGravity::new(0.5, 0.01);
        fi.max_threads = threads;
        let mut acc = Vec::new();
        // the walk by name: 96 sources are summed directly otherwise
        fi.rebuild(&pos, &mass);
        fi.walk_targets(&tpos, &mut acc);
        assert_bits_of(&acc, &GOLDEN_SOA_ACC);
        assert_eq!(fi.last_interactions(), GOLDEN_INTERACTIONS, "threads = {threads}");
    }
}

// --- direct-sum golden vector ---------------------------------------------
//
// The same clouds through `accelerations_into` at its defaults: 96
// sources sit below the crossover, so every pair is summed exactly by
// the `jc_compute::gravity` lane kernel. Equal to `GOLDEN_ACC` to the
// walk's θ-error (≈ 1e-3 here), not to rounding. One portable body is
// compiled per instruction set, so these bits hold on any machine and
// thread count — and for any opening angle.

#[rustfmt::skip]
const GOLDEN_DIRECT_ACC: [u64; 48] = [
    0x3ffb42ce0b1eb79c, 0xbfe8407bc0535dd8, 0xc0032ddce7397a7f,
    0x3ff73ec3f981056a, 0xbfef516db954fd34, 0x3ff2afbda59373b8,
    0x3fdd2767b2a1e884, 0x3fcd68fbe4ae8f5e, 0xbffad6c52b9a9716,
    0x400261fb91781767, 0x3fdbd58816d0844f, 0xbff0f9bca3983ab2,
    0xbfdc712729d09860, 0x4006ad02c98a7eac, 0xbff875370efdb5fc,
    0x4008c038e9a65640, 0xbfecf7318126e080, 0x3fe9541738972d37,
    0xbfffa446b33c6d5b, 0x3fe83586dbe34546, 0x3ffbf1044884dcc7,
    0x4001cdf55559448d, 0xbff70a4cd4dbe8f3, 0x3ff5053e80541b4f,
    0xbfdf062be9d04a8c, 0x3ff68c215b6b2df8, 0xc0090be7387fb4cc,
    0x3ff7799457422d64, 0x3ff0af54708dcbd4, 0x3fea89cb7731f9ae,
    0x3ff84a1f4a30e7b4, 0x3ff30c8eb11e1c92, 0xbfc3433daba5c9e0,
    0x3fd57fd673b761a0, 0x3ff68889c6ddf03e, 0x3fe15cc5e7c16d12,
    0xbfebe2ad8d07c981, 0x3fee89983f15deaf, 0x3ffdb2b8aca9f4a0,
    0xc0015a084bbc072f, 0x3fd9e87722404259, 0x3ff4c3699a9cdb0e,
    0x3fffcccbba996bc6, 0x3ff8050731108596, 0x3ff4b2c340a17829,
    0xbfe2530116be0804, 0xbfd6b41b34d53a53, 0x3ff511bfc7c0ef7c,
];

#[test]
fn direct_sum_matches_its_own_golden_vector() {
    let (pos, mass) = cloud(96, 3);
    let (tpos, _) = cloud(NT, 9);
    for (theta, threads) in [(0.5, 0), (0.5, 1), (0.75, 0)] {
        let mut solver = TreeGravity::new(theta, 0.01);
        solver.max_threads = threads;
        let mut acc = Vec::new();
        solver.accelerations_into(&tpos, &pos, &mass, &mut acc);
        assert_bits_of(&acc, &GOLDEN_DIRECT_ACC);
        assert_eq!(solver.last_interactions(), (NT * 96) as u64, "threads = {threads}");
    }
}
