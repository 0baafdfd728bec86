//! Golden-vector determinism tests. The in-order reference loop
//! (`reference`) must reproduce the pre-refactor kernel bitwise (vectors
//! captured from the original allocating implementation: 24-particle LCG
//! cloud, seed 42, eps² = 1e-4, before the scratch-buffer refactor). The
//! one SoA body every backend name runs (`CpuParallel`, `GpuModel`, and
//! the second name `SimdSoa`) is pinned to its own vectors below.

mod reference;

use jc_nbody::kernels::{acc_jerk, acc_jerk_into, potential_into, Backend};

const N: usize = 24;

#[rustfmt::skip]
const GOLDEN_ACC: [u64; N * 3] = [
    0xbfc2c86db0e20a62, 0x3ff4a269f8aff972, 0x3ff224b774e1fa12,
    0x400675105d1ba416, 0xc00da5e6117656ce, 0xbff9c67f06b92dbf,
    0xc0149fed2ba502d4, 0x3ff4a924d630a62b, 0xc0149b50cd2c156b,
    0x3fc46aab497627ff, 0xbfda3f3c74b10220, 0x3ff59ddd9150cf74,
    0x3fe69a1fba0cd02c, 0x3fbce970e0ecc4e4, 0xbfcabcf11bbafac7,
    0xbffc0438b460c436, 0xbfc292659e70e304, 0x3fcd3adaa861f929,
    0x3feb2f3bc7a9d408, 0x3fe10d5ecd6fa34b, 0xbff4751db88827bc,
    0x3fd060ad8af069c7, 0xbffe61677836e08b, 0xbfe1daee6331e317,
    0xbff0d485ef22c19a, 0x3ff065a80d83f862, 0xbfc031a04b2d38d7,
    0x3ff36838db3b4fa7, 0xbfcef76c270c5a34, 0x3ff0506f470906e5,
    0x3fea9486c2a108f3, 0x3ff6ae4a2f71a696, 0xbfe26449d26d6696,
    0xbffd4b805dd244c6, 0xbff6a588d18336e1, 0x3ff91c1340a39983,
    0x3ffda80d60ae98f2, 0xbfe565a085aa997f, 0x3fc48ec941929ee6,
    0xbfb0174ab01e5e02, 0xbffb3e1fbc920d10, 0xbfeb873b4631d86c,
    0x3fbbbd2cc166cfa6, 0xbfea3b7fc7e3b806, 0x3fe1cb157dfb4b81,
    0xbfe3f3eeae98abdc, 0x3fcd589971b6f954, 0x3ffc86fbf2e05db8,
    0x3ffa2d810522f417, 0x40005db43e0000e4, 0x3fe406230a59548a,
    0xc00190e4ed51a9e4, 0x3ff6249551ba910f, 0x4007482390084e76,
    0xbfeb7a16927ddf7f, 0x3ff14cea4bba2108, 0xbff3e9480f8254ff,
    0xbfcc4270f73bbc45, 0xbfed4285f26963e5, 0xbff64adfb3410aa0,
    0x3ff0acbb1530a071, 0xc0005a5d239a59da, 0xbff0c9dbadee1850,
    0x3fe49e40b10c6d68, 0xbff58eb64e53426c, 0x3ff4ac1c7cb8e2ab,
    0x3fecc836012bd8ba, 0xbfeb5203fe90ab3a, 0xbff079ea680e0a0d,
    0x3fec8edb0ec00572, 0x401708da1ae61c4a, 0x4003a6c8ec424d33,
];

#[rustfmt::skip]
const GOLDEN_JERK: [u64; N * 3] = [
    0x3ff0d5f8045f3e87, 0xbff44b7e29ba4f67, 0x40018bb5fcd7a003,
    0x3fe8acdfbaffb128, 0xc02cbc7c9c924747, 0x4034912a659f1e0a,
    0xc0506cc180628ad7, 0xc041aa6754b814c1, 0xc02ea2060db29747,
    0x3fd234f533cd3e85, 0x3fe10830806d25fc, 0xbfdb9dfe9c525deb,
    0xbfbe5fc65d627bda, 0xbff5965cfefbd4d6, 0xbfbd7c7c7902ddeb,
    0xc005c83b0c8d1ecc, 0xc0036281f231f26f, 0x400abd6663f29301,
    0xbfe9fcce2f173732, 0x3fe50f0123cd3405, 0xbfb3333dd87b17fb,
    0x4024c18162f09cc6, 0x401b3df556ade9b8, 0xc01ec19d2cf13f7c,
    0x40114acfbf54f66c, 0x3fe697e0394ea3b8, 0x400f6a26f8a4126e,
    0xc002694d71cf9cb0, 0x3fd3bada3b176458, 0x3ff89f15864412ba,
    0xbfe5d3308938ccff, 0x3fdb95f5c64cea9b, 0x400834ba3e582565,
    0xc020cdfcf2dab15b, 0xc00166cd1a0a29eb, 0x40211b0c03dd01bb,
    0xc0029949e5c6f44b, 0x400092bd986dd7bb, 0xbfd775ab9ad6358a,
    0xbff2c969c5c961f1, 0x3fec393fc2f79425, 0xbfd3b7e055d0c3a6,
    0xbfc18a53429ce216, 0xc006543e26efdb45, 0xc0125a7fb020e3d3,
    0xbff8148852d1a1b9, 0xbfe85baf882824d5, 0xc007eab49f54750c,
    0x404f942a7534f7a8, 0x403fb5ee45b27c6b, 0x403757d936a0341e,
    0x400247440faeebfa, 0xc0108e0fc6487114, 0xc01ddfdd7e430fbb,
    0xbfba225230b44d9c, 0x3fc94e8db37316af, 0xc00118fcc3358559,
    0xbfb9e0b46aa601c1, 0x3fc42f854e35cfb2, 0x3ffd9ed200afd37e,
    0x401c46f491c35655, 0x4020ef9ba181df6d, 0x3fb989b36dd76688,
    0x400438fadd808f8b, 0xbfd43b91433b9f21, 0xbfd07867b5b8b7ac,
    0xbfe1045f8dc33986, 0x3fd1d06acebd9f05, 0x3fe70b6db5ef1c3e,
    0xc014ef42481cb00f, 0x40276bae8c2bf55e, 0xc03b6b159d57112d,
];

fn cloud(n: usize, seed: u64) -> (Vec<f64>, Vec<[f64; 3]>, Vec<[f64; 3]>) {
    let mut x = seed.max(1);
    let mut rnd = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut m = Vec::new();
    let mut p = Vec::new();
    let mut v = Vec::new();
    for _ in 0..n {
        m.push(1.0 / n as f64);
        p.push([rnd(), rnd(), rnd()]);
        v.push([rnd(), rnd(), rnd()]);
    }
    (m, p, v)
}

fn assert_bits(label: &str, got: &[[f64; 3]], want: &[u64]) {
    for (i, a) in got.iter().enumerate() {
        for k in 0..3 {
            assert_eq!(
                a[k].to_bits(),
                want[i * 3 + k],
                "{label}[{i}][{k}] = {} diverges from the pre-refactor kernel",
                a[k]
            );
        }
    }
}

#[test]
fn acc_jerk_matches_pre_refactor_golden_on_all_backends() {
    // the in-order reference keeps the pre-refactor bits; the SoA body
    // keeps its own (`simd_soa_matches_its_own_golden_vectors`)
    let (m, p, v) = cloud(N, 42);
    let (a, j) = reference::acc_jerk(&p, &v, &m, &p, &v, 1e-4, true);
    assert_bits("acc", &a, &GOLDEN_ACC);
    assert_bits("jerk", &j, &GOLDEN_JERK);
}

#[test]
fn acc_jerk_into_matches_pre_refactor_golden() {
    // every backend name selects the one SoA body
    let (m, p, v) = cloud(N, 42);
    let mut a = vec![[0.0; 3]; N];
    let mut j = vec![[0.0; 3]; N];
    for backend in [Backend::CpuParallel, Backend::GpuModel, Backend::SimdSoa] {
        // dirty the buffers: the kernel must fully overwrite them
        a.iter_mut().for_each(|x| *x = [f64::NAN; 3]);
        j.iter_mut().for_each(|x| *x = [f64::NAN; 3]);
        acc_jerk_into(backend, &p, &v, &m, &p, &v, 1e-4, true, &mut a, &mut j);
        assert_bits("acc", &a, &GOLDEN_SIMD_ACC);
        assert_bits("jerk", &j, &GOLDEN_SIMD_JERK);
    }
}

// --- SoA-path golden vectors ---------------------------------------------
//
// The SoA compute path sums sources lane-by-lane (fixed 4-wide batches,
// pairwise lane reduction), so its results differ from the scalar
// reference by rounding — it gets its *own* golden vectors, captured from
// the same 24-particle cloud. The baseline and AVX2 instantiations of the
// one portable body execute the identical IEEE operation sequence, so
// these bits hold on any machine (pinned by a unit test comparing the two
// instantiations directly in `jc_nbody::kernels`).

#[rustfmt::skip]
const GOLDEN_SIMD_ACC: [u64; N * 3] = [
    0xbfc2c86db0e20a5f, 0x3ff4a269f8aff971, 0x3ff224b774e1fa10,
    0x400675105d1ba418, 0xc00da5e6117656ce, 0xbff9c67f06b92dbf,
    0xc0149fed2ba502d6, 0x3ff4a924d630a62b, 0xc0149b50cd2c156b,
    0x3fc46aab497627fa, 0xbfda3f3c74b1021d, 0x3ff59ddd9150cf74,
    0x3fe69a1fba0cd02c, 0x3fbce970e0ecc4ea, 0xbfcabcf11bbafac6,
    0xbffc0438b460c437, 0xbfc292659e70e2f8, 0x3fcd3adaa861f922,
    0x3feb2f3bc7a9d409, 0x3fe10d5ecd6fa34b, 0xbff4751db88827bd,
    0x3fd060ad8af069ca, 0xbffe61677836e08b, 0xbfe1daee6331e318,
    0xbff0d485ef22c19b, 0x3ff065a80d83f863, 0xbfc031a04b2d38da,
    0x3ff36838db3b4fa6, 0xbfcef76c270c5a3d, 0x3ff0506f470906e4,
    0x3fea9486c2a108ef, 0x3ff6ae4a2f71a694, 0xbfe26449d26d6696,
    0xbffd4b805dd244c6, 0xbff6a588d18336e2, 0x3ff91c1340a39983,
    0x3ffda80d60ae98f2, 0xbfe565a085aa9980, 0x3fc48ec941929ee6,
    0xbfb0174ab01e5e14, 0xbffb3e1fbc920d10, 0xbfeb873b4631d870,
    0x3fbbbd2cc166cfa2, 0xbfea3b7fc7e3b806, 0x3fe1cb157dfb4b83,
    0xbfe3f3eeae98abdc, 0x3fcd589971b6f94f, 0x3ffc86fbf2e05db6,
    0x3ffa2d810522f418, 0x40005db43e0000e4, 0x3fe406230a59548c,
    0xc00190e4ed51a9e6, 0x3ff6249551ba910f, 0x4007482390084e76,
    0xbfeb7a16927ddf7d, 0x3ff14cea4bba2109, 0xbff3e9480f8254ff,
    0xbfcc4270f73bbc49, 0xbfed4285f26963e4, 0xbff64adfb3410aa0,
    0x3ff0acbb1530a072, 0xc0005a5d239a59da, 0xbff0c9dbadee1852,
    0x3fe49e40b10c6d6a, 0xbff58eb64e53426c, 0x3ff4ac1c7cb8e2ac,
    0x3fecc836012bd8ba, 0xbfeb5203fe90ab3a, 0xbff079ea680e0a0d,
    0x3fec8edb0ec00574, 0x401708da1ae61c4b, 0x4003a6c8ec424d33,
];

#[rustfmt::skip]
const GOLDEN_SIMD_JERK: [u64; N * 3] = [
    0x3ff0d5f8045f3e89, 0xbff44b7e29ba4f69, 0x40018bb5fcd7a005,
    0x3fe8acdfbaffb0d8, 0xc02cbc7c9c924747, 0x4034912a659f1e0b,
    0xc0506cc180628ad9, 0xc041aa6754b814c0, 0xc02ea2060db2974a,
    0x3fd234f533cd3e8c, 0x3fe10830806d25f6, 0xbfdb9dfe9c525de9,
    0xbfbe5fc65d627bd0, 0xbff5965cfefbd4d3, 0xbfbd7c7c7902ddf8,
    0xc005c83b0c8d1ec7, 0xc0036281f231f271, 0x400abd6663f292fd,
    0xbfe9fcce2f173732, 0x3fe50f0123cd3406, 0xbfb3333dd87b1800,
    0x4024c18162f09cc7, 0x401b3df556ade9ba, 0xc01ec19d2cf13f7e,
    0x40114acfbf54f672, 0x3fe697e0394ea3b9, 0x400f6a26f8a41272,
    0xc002694d71cf9cb0, 0x3fd3bada3b176457, 0x3ff89f15864412ba,
    0xbfe5d3308938cd02, 0x3fdb95f5c64cea99, 0x400834ba3e582566,
    0xc020cdfcf2dab15d, 0xc00166cd1a0a29eb, 0x40211b0c03dd01bd,
    0xc0029949e5c6f44e, 0x400092bd986dd7bc, 0xbfd775ab9ad63588,
    0xbff2c969c5c961f2, 0x3fec393fc2f79427, 0xbfd3b7e055d0c3b5,
    0xbfc18a53429ce250, 0xc006543e26efdb46, 0xc0125a7fb020e3d2,
    0xbff8148852d1a1b7, 0xbfe85baf882824d3, 0xc007eab49f54750c,
    0x404f942a7534f7ac, 0x403fb5ee45b27c69, 0x403757d936a03423,
    0x400247440faeebf9, 0xc0108e0fc6487117, 0xc01ddfdd7e430fbe,
    0xbfba225230b44da0, 0x3fc94e8db37316b7, 0xc00118fcc3358559,
    0xbfb9e0b46aa601ac, 0x3fc42f854e35cfa4, 0x3ffd9ed200afd37c,
    0x401c46f491c35654, 0x4020ef9ba181df70, 0x3fb989b36dd76640,
    0x400438fadd808f8e, 0xbfd43b91433b9f1c, 0xbfd07867b5b8b7a8,
    0xbfe1045f8dc33989, 0x3fd1d06acebd9f05, 0x3fe70b6db5ef1c3e,
    0xc014ef42481cb00d, 0x40276bae8c2bf55c, 0xc03b6b159d57112c,
];

#[rustfmt::skip]
const GOLDEN_SIMD_PHI: [u64; N] = [
    0xbffbda23ae9cfc6e, 0xbffdb0cfa10ecd70, 0xc0002303b708ed1f,
    0xbffd605cc8fc2b1f, 0xbfff433848d742f0, 0xbffcd8a9dae3da41,
    0xbff7e52c65eeeb35, 0xbffa9852e1ba19bb, 0xbffc2d4216052a40,
    0xbff82e9ef730ea22, 0xbff7f751642295ec, 0xbff7d96a67853989,
    0xbff6a0db7879e1cf, 0xbff9c3f3b3c8b8ab, 0xc00081ed43621ace,
    0xbff6fbfd2481f8c6, 0xc00252cc12e9c9ee, 0xc000be71dceeb91f,
    0xbff7f51347ab4035, 0xbff744528d373678, 0xc001de986ffe1ee2,
    0xbff9b652e7dd9926, 0xbff83b127c7073cf, 0xbffc9318710413ee,
];

#[test]
fn simd_soa_matches_its_own_golden_vectors() {
    let (m, p, v) = cloud(N, 42);
    let (a, j) = acc_jerk(&p, &v, &m, &p, &v, 1e-4, true);
    assert_bits("simd acc", &a, &GOLDEN_SIMD_ACC);
    assert_bits("simd jerk", &j, &GOLDEN_SIMD_JERK);
}

#[test]
fn simd_soa_potential_matches_its_own_golden_vector() {
    let (m, p, _) = cloud(N, 42);
    let mut phi = vec![0.0; N];
    potential_into(&p, &m, &p, 1e-4, true, &mut phi);
    for (i, (got, want)) in phi.iter().zip(&GOLDEN_SIMD_PHI).enumerate() {
        assert_eq!(got.to_bits(), *want, "phi[{i}] = {got} diverges from the SoA golden vector");
    }
}
