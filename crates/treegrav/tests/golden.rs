//! Golden-vector determinism tests: the scalar reference walk
//! (`simd = false`) over the reused node arena must reproduce the
//! pre-refactor build-from-scratch walk bitwise. Captured from the
//! original implementation (96-source / 16-target LCG clouds, θ = 0.5,
//! ε = 0.01) before the scratch refactor. The SoA walk, the exact
//! direct sum workers run below the crossover (96 sources: what
//! `accelerations_into` picks by default) and the pair-symmetric
//! self-gravity sum (`self_accelerations_into`) are each pinned to their
//! own vector.

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

// --- pair-symmetric self-gravity golden vector ------------------------------
//
// The 96-particle source cloud on itself through `self_accelerations_into`
// at its defaults: each unordered pair is evaluated once in f32, its `j`
// half scattered into per-block f32 partial columns, its `i` half folded
// into f64, the blocks folded in f64 in block order. Within the
// mixed-precision error budget of `accelerations_into(pos, pos, …)`, not
// bitwise. The blocks are cut by the particle count alone and one portable
// body is compiled per instruction set, so these bits hold on any machine,
// thread count and opening angle. A kernel change that moves them
// re-baselines this vector on purpose.

const NS: usize = 96;

#[rustfmt::skip]
const GOLDEN_SELF_ACC: [u64; NS * 3] = [
    0x3ffbfad940d60000, 0x3fe7753e0c700000, 0xbfd51d065a300000,
    0x3fcfb00246f96000, 0x3fc26c4216200000, 0x3ff8358036c40000,
    0x3fde48173f000000, 0x3ff80afa48fc0000, 0x3fd5b56f11400000,
    0xbfeeea0259700000, 0xc003f5f4a57e0000, 0xbff9419a39790000,
    0x3ff419a820ea8000, 0xbfea98e69a500000, 0xbffbe071333e0000,
    0xbffb332a79d00000, 0x3febca4b4a0c0000, 0xbfed497445b60c00,
    0xbfa79c66e3e00000, 0xbfed1de57a280000, 0x4000b72899420000,
    0xbfefe55880bc0000, 0xc0047f02d6b60000, 0x3fc4d7405c100000,
    0x4000db4b13a80000, 0x3fee8f9a4b900000, 0x3fd9cc8a4f900000,
    0x3fc4a91152600000, 0x3ffacb0270100000, 0x3ff9e4398c100000,
    0x3ff437a5775c0000, 0xbffd911dfc240000, 0xbffea3f262990000,
    0x3ff32f514f418000, 0x3ff5386f62e80000, 0xbfe3103e78900000,
    0x3ff8c51ba49e0000, 0x3fdf1e97410c0000, 0x400535993d1b8000,
    0xbfff445d07240000, 0x3ff68fe5af500000, 0xc001fa824b8a0000,
    0xbfefb6337bd20000, 0xbff6bb7340c00000, 0xbff4171088a80000,
    0xbfd9e66369e80000, 0xc0069212bce20000, 0xbff1746d7f3a0000,
    0xbfef9696bc140000, 0xbfb3548c03c00000, 0xbfe011b14ea80000,
    0xbfe7b42b5dcd0000, 0xbfed8c081f0b0000, 0x3ff7c24c98940000,
    0xbfe483f200c00000, 0x3ffaed995b530000, 0x3ff4b0b75d680000,
    0x3fc6ed7d0a140000, 0x3fbb78f09a000000, 0x3fe7f3fe73b00000,
    0xbfeeec9abf1e0000, 0x3fe58f4835980000, 0x3ff46f0ba7e60000,
    0x3fe634307a550000, 0xbffbe116e7b40000, 0xbffddd212dcc0000,
    0xc00a270b84dc0000, 0xc0025dde0da40000, 0x4009ec406fad8000,
    0x3fe5c2224efb8000, 0x3ffe990577530000, 0x3fd8b2c3c8910000,
    0xbff365121bf20000, 0x3ffa276a7d380000, 0xbfe6a01b7d700000,
    0xbfe72dc3b2140000, 0xbfd4389ef9ac0000, 0x3ff9db9112c80000,
    0x3feb9604d24d0000, 0x400e49201de08000, 0xbfe053ef7a980000,
    0xc002d26e2cd48000, 0x3fce9a6e45c00000, 0x40120e4224ae5800,
    0x3ff972da374c0000, 0x3ff83313b1080000, 0x3fd82dec71540000,
    0x3fea6342a1480000, 0x3fe924d1741c4000, 0xbff52c918ad94000,
    0xc006ec44f89ec000, 0xbff9f9d58fee0000, 0xbffb189593160000,
    0x400b336649010000, 0xbfead8a8f4300000, 0xbfe877cbf4ed0000,
    0x3ff42ba606bc0000, 0x3ff3ebeefe340000, 0x3fcd99f31fe00000,
    0xbfd45ac973600000, 0x3fff51bcec800000, 0xbfc95fab38a00000,
    0x3ffc66dd73b40000, 0xbfdce02e58700000, 0x3ffa316f6f740000,
    0x400501f20d680000, 0x3fcb6ac06b860000, 0xbfe14198c1d00000,
    0xbfd51210d9280000, 0xbfefe4ccbd980000, 0x3ffb97b564b40000,
    0x3ff0c292b90d0000, 0x3ff44c5836e80000, 0xbfe233bd6d300000,
    0xbfe1a9a5912c0000, 0xbfe7879f03a00000, 0x4008dbcb09bd0000,
    0xc0001c11628b0000, 0xbfd2002b17e00000, 0xbff84a06842e0000,
    0xbffffe4ff2c00000, 0x3f9f3d0aad000000, 0x3fe4628563fc0000,
    0x3fcf7397c0800000, 0x3ff448c190900000, 0xbffb1afbb99c0000,
    0x3ff402f786100000, 0xc00846ecef320000, 0xbfaf3f2243a80000,
    0xbff82044f3f80000, 0xbf9352835c000000, 0x3ffe0310d08e0000,
    0x3fe5bf708b530000, 0xbfc9775c5f000000, 0xbfeca1d6d112e000,
    0xbfde7ce618180000, 0x3fdef29d37680000, 0xc001a7bc6e050000,
    0x400740ec3db50000, 0xbff5280bd6040000, 0xbfd970f867f00000,
    0xbff2c028f3100000, 0xbfa9244d57800000, 0xbfee6b5b73800000,
    0xbfca4c0a10600000, 0xbff3e39d83140000, 0xc001e5b4f0040000,
    0xbfea35d599b80000, 0xbfd9239dfa380000, 0xbff98cc8afc60000,
    0xc006aa7d4f0e0000, 0xc006873fa50f0000, 0x3ffc246378fc0000,
    0xbff654b14a000000, 0x3fe4ef4c1fb00000, 0x3fd74d43369b0000,
    0xbfe2b2b919650000, 0x4001303724a90000, 0x3ff8b7a7c9280000,
    0xbff522dbbe880000, 0xbfe4fb4a031c0000, 0x3ff421a2ad0bc000,
    0x3ff94b614a480000, 0xbfc4a92d7e100000, 0xbfef5c72f9e00000,
    0x4009f371c5c18000, 0xbfe34f68ec540000, 0x3feda0c3a7c80000,
    0x3ff464423c580000, 0x3ff007ff3d650000, 0xbfd98ea7d8300000,
    0x3ff27fc841bed000, 0xc00aca0940680000, 0x400663dd51b94000,
    0x4009f5f9a5763e00, 0xc00efa6973f00000, 0x3fd363ad21400000,
    0xbfe51b93a2f00000, 0xbfc11ac44f000000, 0xbfe0f497677c0000,
    0xbfe13298e3400000, 0xbfa7b59a38000000, 0x3ff0ed0461f00000,
    0x3ff87f2c5c8a0000, 0x3ff1a30096860000, 0xbff4de7628bc0000,
    0x3ffc69186dbc0000, 0xbfc22eb065500000, 0xbfe5b6c999a00000,
    0xc0035b510f180000, 0x3fd048177f000000, 0xbfd4bc7cacc00000,
    0xbfcf28f614000000, 0xbff4febddc460000, 0x3ffc753d0d800000,
    0xbfbe284281500000, 0x3fedc44253600000, 0xbfe6e8f9c8000000,
    0xbff7161cead80000, 0x401713c1e3940000, 0xbfbb920065200000,
    0xbffbd33513400000, 0xbfc26658cb800000, 0x3fe7abb190a00000,
    0xbf97cde690000000, 0xbfce567a5e000000, 0xc00d27b6b4542000,
    0xbfe17f5f82140000, 0xbfa46f395d800000, 0xc001633f57340000,
    0x3f9c90bb28000000, 0xbff61eb85c400000, 0x3ff9cca564a80000,
    0xbfe9b77750b00000, 0xbff57a47f0e00000, 0x3ffe2eb925280000,
    0xbfacc7d3b3000000, 0xbfd6dec5db100000, 0xc0027b6ebb700000,
    0x3fda522206d00000, 0xbfeddabac1400000, 0xbff53855ac380000,
    0x4002113cf1740000, 0xc00104747d980000, 0xbfe5a0f99e680000,
    0xbff00b8aea700000, 0xbfcc848989800000, 0x3ff48271e1980000,
    0x400661f4f73c0000, 0x3ff30e43b1400000, 0x3ffc66c017d80000,
    0xbff946c945200000, 0xbfec08fbc6980000, 0x3fe16182af100000,
    0xbff0103cf1ee0000, 0x3ff7187828080000, 0x3fe9052e94580000,
    0xbffec6764fb00000, 0xbfd097c7dd100000, 0xbff75f9beb600000,
    0x3ffb30f2e04c0000, 0x3ff5de4ee0ac0000, 0x3ffab971e6a20000,
    0x3feb6add70c80000, 0x3ffd1b9cca280000, 0xbff6c62b6da00000,
    0x3ffaffecf6000000, 0xbff253d6d29c0000, 0xc00791c62e500000,
    0xbfe8ac21b5c60000, 0x3fd349ba4f000000, 0x40008b8cf3c80000,
    0x3ff570315a638000, 0x3fe98e3dae600000, 0xbfbd6a7ed1000000,
    0x3ff0cd8d8a2f0000, 0xbfbf843fa6600000, 0xc0035795b8a00000,
    0xbff0d013a0180000, 0xbfd2db9d52400000, 0x400b46a26e370000,
    0xbfed8ab2f6900000, 0x3ffd16c840a00000, 0xbfebc2f697b00000,
    0xbff0d691c6600000, 0x40047ab64fb00000, 0xbfe8c2c1cae00000,
    0x3fe12afaa1400000, 0xbfb7c19ff2800000, 0xbff2979f69b00000,
    0xbfd785aebe800000, 0xbffed1ddf5000000, 0x3fed16f9ece00000,
    0x3fdc4e3667400000, 0x3fe94d60a1100000, 0xc002254b3b300000,
    0x3ff258ca42000000, 0x3ffe377132600000, 0xbfe0c1004cc00000,
    0xbff2fa8d20c00000, 0xbf636333a0000000, 0x3ff4fbd4e1000000,
    0xbfc2dc0e00000000, 0xbfd67ffb28000000, 0xbff4618162b00000,
    0xc0012a45e0000000, 0x3fe45fc2c0000000, 0xbfd9d44060000000,
];

#[test]
fn self_gravity_matches_its_own_golden_vector() {
    let (pos, mass) = cloud(NS, 3);
    for theta in [0.5, 0.75] {
        for threads in [0, 1, 7] {
            let mut solver = TreeGravity::new(theta, 0.01);
            solver.max_threads = threads;
            let mut acc = Vec::new();
            solver.self_accelerations_into(&pos, &mass, &mut acc);
            assert_eq!(acc.len(), NS);
            for (i, a) in acc.iter().enumerate() {
                for k in 0..3 {
                    assert_eq!(
                        a[k].to_bits(),
                        GOLDEN_SELF_ACC[i * 3 + k],
                        "acc[{i}][{k}] = {} diverges at θ = {theta}, threads = {threads}",
                        a[k]
                    );
                }
            }
            assert_eq!(solver.last_interactions(), (NS * (NS - 1) / 2) as u64);
        }
    }
}
