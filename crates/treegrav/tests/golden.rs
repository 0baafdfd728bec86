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

// --- pair-symmetric self-gravity golden vector ------------------------------
//
// The 96-particle source cloud on itself through `self_accelerations_into`
// at its defaults: each unordered pair is evaluated once, its `j` half
// scattered into per-block partial columns folded in block order. Equal to
// `accelerations_into(pos, pos, …)` to rounding (≈ 1e-14 here), not
// bitwise. The blocks are cut by the particle count alone and one portable
// body is compiled per instruction set, so these bits hold on any machine,
// thread count and opening angle. A kernel change that moves them
// re-baselines this vector on purpose.

const NS: usize = 96;

#[rustfmt::skip]
const GOLDEN_SELF_ACC: [u64; NS * 3] = [
    0x3ffbfad92f1c0728, 0x3fe7753e1146c455, 0xbfd51d067b3b3600,
    0x3fcfb00266577107, 0x3fc26c42125cb9d9, 0x3ff8358048361945,
    0x3fde48167db50518, 0x3ff80afa36ec87a6, 0x3fd5b56ec6640114,
    0xbfeeea023fdb9bee, 0xc003f5f48ec0297c, 0xbff9419a2a7b011e,
    0x3ff419a80b79865a, 0xbfea98e6bba0ff72, 0xbffbe0711fc1388a,
    0xbffb332a723c27c1, 0x3febca4b268fb2f8, 0xbfed4974529c1396,
    0xbfa79c67bd708983, 0xbfed1de53b5efdc8, 0x4000b7289ada7d00,
    0xbfefe5583cfd683d, 0xc0047f02cd1a55aa, 0x3fc4d7418a45a890,
    0x4000db4b0cdeb324, 0x3fee8f9a6c4345a5, 0x3fd9cc8a60f38611,
    0x3fc4a912b03b006a, 0x3ffacb016713425d, 0x3ff9e4397f58af37,
    0x3ff437a57e0ef897, 0xbffd911dd7888cde, 0xbffea3f26ce8b81e,
    0x3ff32f514e5734cd, 0x3ff5386f5e9df8c2, 0xbfe3103e716174f9,
    0x3ff8c51bbeabbc70, 0x3fdf1e979384b128, 0x4005359949f672d5,
    0xbfff445cfddfdf7d, 0x3ff68fe5ad2a1971, 0xc001fa82443e5f49,
    0xbfefb63310989470, 0xbff6bb732ce66747, 0xbff41710831c5829,
    0xbfd9e663260e61a5, 0xc0069212b97ddc4c, 0xbff1746da0ee3993,
    0xbfef9696b378de68, 0xbfb3548b399e1236, 0xbfe011b139cf00d9,
    0xbfe7b42b3943b918, 0xbfed8c084e2e7f2e, 0x3ff7c24c7b0c2901,
    0xbfe483f1e923d738, 0x3ffaed99248cf3a7, 0x3ff4b0b75a0fb857,
    0x3fc6ed7cc37487be, 0x3fbb78f17e1e06d8, 0x3fe7f3fe8da25786,
    0xbfeeec9aa6d3c064, 0x3fe58f482130225d, 0x3ff46f0ba04cd593,
    0x3fe634303a841134, 0xbffbe116dda80e78, 0xbffddd2116cfb104,
    0xc00a270bcecdadbc, 0xc0025dde59dd0709, 0x4009ec3fd844446d,
    0x3fe5c22243cdbfaf, 0x3ffe990564c91238, 0x3fd8b2c3f2c2bff7,
    0xbff36511fc201dd9, 0x3ffa276a47620e99, 0xbfe6a01b6f6bdb34,
    0xbfe72dc393ebdbf2, 0xbfd4389ef2400934, 0x3ff9db9121a2a336,
    0x3feb9605b208f0e6, 0x400e49204a6b7594, 0xbfe053ef489d7130,
    0xc002d26e8d029d93, 0x3fce9a710c971aea, 0x40120e41ab410275,
    0x3ff972da2c6c13c3, 0x3ff833139d0e5ccb, 0x3fd82debe35dd7ff,
    0x3fea6342cc8c8a98, 0x3fe924d156483cb8, 0xbff52c91a5691aec,
    0xc006ec4509ec760c, 0xbff9f9d5a62ea336, 0xbffb1895971751b0,
    0x400b33662c7d9005, 0xbfead8a89869bf77, 0xbfe877cbec55e803,
    0x3ff42ba5a5a103f7, 0x3ff3ebeeccdb58a2, 0x3fcd99f3105fe1a8,
    0xbfd45ac869342b80, 0x3fff51bcc857de3b, 0xbfc95fadb3851358,
    0x3ffc66dd565419b2, 0xbfdce02e4b38cbb0, 0x3ffa316f54d0b363,
    0x400501f2010eec6c, 0x3fcb6ac06b31a806, 0xbfe14198a6b91ec8,
    0xbfd512111f320e87, 0xbfefe4cc9cef7b92, 0x3ffb97b55da92955,
    0x3ff0c292b4e1ffd3, 0x3ff44c585fc174e6, 0xbfe233bd4d13deee,
    0xbfe1a9a57cc36cba, 0xbfe7879f42670c86, 0x4008dbcb077756c6,
    0xc0001c115345fe01, 0xbfd2002a6908729e, 0xbff84a065c9c537f,
    0xbffffe4fdab3dc8a, 0x3f9f3d0b0b0351c8, 0x3fe462854fe17366,
    0x3fcf7397ec64f1da, 0x3ff448c19371abc5, 0xbffb1afb89641acb,
    0x3ff402f78b8b2d91, 0xc00846ecd84af728, 0xbfaf3f20e2fdbeb0,
    0xbff8204521d290bd, 0xbf93528364a16f78, 0x3ffe0310c3ba4bcc,
    0x3fe5bf70a54299d6, 0xbfc977601770fe00, 0xbfeca1d5f31c63a6,
    0xbfde7ce6393b5c92, 0x3fdef29d500ce3e7, 0xc001a7bc44d42b96,
    0x400740ec4ad81b2d, 0xbff5280b767b5c96, 0xbfd970f7a738a8c0,
    0xbff2c028e2664975, 0xbfa92444174a0d58, 0xbfee6b5b791e762c,
    0xbfca4c0a4e62e648, 0xbff3e39d78fe09b7, 0xc001e5b4cc3b8a86,
    0xbfea35d56587af26, 0xbfd9239e1c206922, 0xbff98cc8a77df86e,
    0xc006aa7d7573a18d, 0xc006873f6ab78601, 0x3ffc24632d84091e,
    0xbff654b184186255, 0x3fe4ef4bc2668548, 0x3fd74d4303794f66,
    0xbfe2b2b8f8358a88, 0x400130370303c015, 0x3ff8b7a7c07a9cd4,
    0xbff522dbe1816904, 0xbfe4fb4a13da2544, 0x3ff421a2a733dca2,
    0x3ff94b612d8173e5, 0xbfc4a92d44f709a0, 0xbfef5c7342bd1094,
    0x4009f37134f24861, 0xbfe34f654ff10d84, 0x3feda0c38b724054,
    0x3ff464424cd0a843, 0x3ff007ff2a6f35fa, 0xbfd98ea7c3f0f02c,
    0x3ff27fc8322e83a5, 0xc00aca09419b30fd, 0x400663dcd492d6bf,
    0x4009f5f9ce496ec5, 0xc00efa6a0d95392a, 0x3fd363b0172dfed6,
    0xbfe51b9461909294, 0xbfc11ac8019aae3c, 0xbfe0f49756c165fc,
    0xbfe13298ff8b0a51, 0xbfa7b59eebb94708, 0x3ff0ed04939aa3e8,
    0x3ff87f2c2e57c020, 0x3ff1a300d209a153, 0xbff4de764da862d2,
    0x3ffc6918951ba306, 0xbfc22eb0436895f7, 0xbfe5b6cb5e39001a,
    0xc0035b50f77e7f1c, 0x3fd048178df2b256, 0xbfd4bc7c72d64b5e,
    0xbfcf28f5ff73364b, 0xbff4febe07b848f9, 0x3ffc753d23cf992d,
    0xbfbe284416c87a56, 0x3fedc4423c7de891, 0xbfe6e8fa16336815,
    0xbff7161c67bf30ab, 0x401713c19a1148d8, 0xbfbb91dc9ff035e0,
    0xbffbd335507d1bb6, 0xbfc26658a0741a72, 0x3fe7abb15a3b4d73,
    0xbf97cdafa4776d80, 0xbfce5673f22619b4, 0xc00d27b684d62f48,
    0xbfe17f5fa12b6eb0, 0xbfa46f36c2534c48, 0xc001633f0dd63676,
    0x3f9c90b75022b590, 0xbff61eb87a869c8c, 0x3ff9cca55bb999ce,
    0xbfe9b77703a5db82, 0xbff57a480f342e42, 0x3ffe2eb8da0be24c,
    0xbfacc7cc5de5fba0, 0xbfd6dec484cea2be, 0xc0027b6e93f6e6ac,
    0x3fda5220dc198b4d, 0xbfeddabb3f77d4d4, 0xbff53855f9b8a919,
    0x4002113cd4b389ca, 0xc001047426c69b6e, 0xbfe5a0f9478cd031,
    0xbff00b8ae59b56b4, 0xbfcc84895331d996, 0x3ff48271c41ff8e2,
    0x400661f5301548e2, 0x3ff30e4428a720e2, 0x3ffc66bffc9147ca,
    0xbff946c94234cd8d, 0xbfec08fb76b6c932, 0x3fe16182b22d77d6,
    0xbff0103d4cc1864f, 0x3ff7187858dc67c3, 0x3fe9052e792f77de,
    0xbffec676639a986b, 0xbfd097c81a9e7757, 0xbff75f9bb9a62298,
    0x3ffb30f324010fda, 0x3ff5de4e4c4be034, 0x3ffab9723fd913cc,
    0x3feb6add23fd7500, 0x3ffd1b9c913b5df1, 0xbff6c62b1456e9d2,
    0x3ffaffed27de42e5, 0xbff253d6d673cb5f, 0xc00791c5c60fe1f6,
    0xbfe8ac21835e638d, 0x3fd349bb6308337f, 0x40008b8d4f9b4ece,
    0x3ff5703166c5b48d, 0x3fe98e3d2e5ea1b6, 0xbfbd6a7ee5ba3460,
    0x3ff0cd8da0397fb5, 0xbfbf843a931a00fc, 0xc0035795cb362114,
    0xbff0d01419e8dcf3, 0xbfd2db9e5da60760, 0x400b46a25628aa45,
    0xbfed8ab2d0b237cc, 0x3ffd16c818344f2a, 0xbfebc2f67aa5f551,
    0xbff0d691c2536465, 0x40047ab676634a47, 0xbfe8c2c1a630d6f8,
    0x3fe12afaf18335fe, 0xbfb7c1a96530c5e3, 0xbff2979f3e36c639,
    0xbfd785aea82fc1c6, 0xbffed1ddc8eadeaa, 0x3fed16f9ba74501e,
    0x3fdc4e35df1e0ee6, 0x3fe94d60cead00b3, 0xc002254b766561f2,
    0x3ff258ca465f5097, 0x3ffe3771a85ec3be, 0xbfe0c10058171c1d,
    0xbff2fa8d0cae777d, 0xbf63633df2c1ccf2, 0x3ff4fbd4a8855ea2,
    0xbfc2dc0be2eaaee0, 0xbfd67ffb384ef1e0, 0xbff46181811b03ca,
    0xc0012a45d4128db5, 0x3fe45fc2bde731a6, 0xbfd9d440320b1a66,
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
