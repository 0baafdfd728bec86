//! Property tests: the Barnes-Hut approximation, and the exact sum
//! workers run below the crossover, against in-order direct summation.

use jc_treegrav::TreeGravity;
use proptest::prelude::*;

fn direct(targets: &[[f64; 3]], s_pos: &[[f64; 3]], s_mass: &[f64], eps2: f64) -> Vec<[f64; 3]> {
    targets
        .iter()
        .map(|t| {
            let mut a = [0.0; 3];
            for (p, m) in s_pos.iter().zip(s_mass) {
                let dx = [p[0] - t[0], p[1] - t[1], p[2] - t[2]];
                let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + eps2;
                if r2 == 0.0 {
                    continue;
                }
                let inv_r3 = 1.0 / (r2 * r2.sqrt());
                for k in 0..3 {
                    a[k] += m * dx[k] * inv_r3;
                }
            }
            a
        })
        .collect()
}

fn arb_cloud(n: usize) -> impl Strategy<Value = (Vec<[f64; 3]>, Vec<f64>)> {
    (
        proptest::collection::vec(
            (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0).prop_map(|(x, y, z)| [x, y, z]),
            n,
        ),
        proptest::collection::vec(0.01f64..1.0, n),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tree accelerations stay within a few percent of direct summation
    /// for any random cloud.
    #[test]
    fn tree_matches_direct((pos, mass) in arb_cloud(200)) {
        let mut solver = TreeGravity::new(0.5, 0.05);
        solver.simd = false; // the scalar walk at any source count
        let mut approx = Vec::new();
        solver.accelerations_into(&pos, &pos, &mass, &mut approx);
        let exact = direct(&pos, &pos, &mass, solver.eps2);
        for (a, e) in approx.iter().zip(&exact) {
            let d = ((a[0]-e[0]).powi(2)+(a[1]-e[1]).powi(2)+(a[2]-e[2]).powi(2)).sqrt();
            let n = (e[0]*e[0]+e[1]*e[1]+e[2]*e[2]).sqrt().max(1e-9);
            prop_assert!(d / n < 0.10, "rel err {}", d / n);
        }
    }

    /// The SoA walk matches the scalar walk within a tight relative
    /// tolerance on any random cloud, with identical interaction counts
    /// (same traversal, different accumulation order only).
    #[test]
    fn simd_walk_matches_scalar((pos, mass) in arb_cloud(300)) {
        let mut scalar = TreeGravity::new(0.6, 0.02);
        scalar.simd = false;
        let mut a = Vec::new();
        scalar.accelerations_into(&pos, &pos, &mass, &mut a);
        let n_scalar = scalar.last_interactions();
        // the walk by name: 300 sources would be summed directly
        let mut simd = TreeGravity::new(0.6, 0.02);
        let mut b = Vec::new();
        simd.rebuild(&pos, &mass);
        simd.walk_targets(&pos, &mut b);
        prop_assert_eq!(n_scalar, simd.last_interactions());
        let scale = a
            .iter()
            .flatten()
            .fold(0.0f64, |s, x| s.max(x.abs()))
            .max(1e-300);
        for (i, (x, y)) in b.iter().zip(&a).enumerate() {
            for k in 0..3 {
                prop_assert!(
                    (x[k] - y[k]).abs() <= 1e-11 * scale,
                    "acc[{}][{}]: {} vs {}", i, k, x[k], y[k]
                );
            }
        }
    }

    /// Below the crossover `accelerations_into` is the exact sum: equal
    /// to the in-order reference to summation-order rounding on any
    /// cloud — duplicated positions and targets sitting on sources
    /// included — softened or not.
    #[test]
    fn direct_sum_matches_in_order_reference(
        (mut pos, mass) in arb_cloud(150),
        dup in proptest::collection::vec((0usize..150, 0usize..150), 0..8),
        softened in any::<bool>(),
    ) {
        for (from, to) in dup {
            pos[to] = pos[from];
        }
        let mut solver = TreeGravity::new(0.5, if softened { 0.05 } else { 0.0 });
        let mut got = Vec::new();
        solver.accelerations_into(&pos, &pos, &mass, &mut got);
        prop_assert_eq!(solver.last_interactions(), 150 * 150);
        let exact = direct(&pos, &pos, &mass, solver.eps2);
        let scale = exact.iter().flatten().fold(0.0f64, |s, x| s.max(x.abs())).max(1e-300);
        for (i, (g, e)) in got.iter().zip(&exact).enumerate() {
            for k in 0..3 {
                prop_assert!(g[k].is_finite());
                prop_assert!(
                    (g[k] - e[k]).abs() <= 1e-13 * scale,
                    "acc[{}][{}]: {} vs {}", i, k, g[k], e[k]
                );
            }
        }
    }

    /// Root node moments always equal total mass / center of mass.
    #[test]
    fn octree_root_moments((pos, mass) in arb_cloud(64)) {
        let tree = jc_treegrav::Octree::build(&pos, &mass);
        let root = &tree.nodes()[0];
        let mt: f64 = mass.iter().sum();
        prop_assert!((root.mass - mt).abs() < 1e-9 * mt);
        let mut com = [0.0; 3];
        for (p, m) in pos.iter().zip(&mass) {
            for (acc, x) in com.iter_mut().zip(p) {
                *acc += m * x / mt;
            }
        }
        for (got, want) in root.com.iter().zip(&com) {
            prop_assert!((got - want).abs() < 1e-9, "com mismatch");
        }
    }

    /// Wider opening angles never do more interactions.
    #[test]
    fn theta_monotonicity((pos, mass) in arb_cloud(300)) {
        let mut tight = TreeGravity::new(0.3, 0.05);
        let mut wide = TreeGravity::new(1.0, 0.05);
        let mut out = Vec::new();
        for solver in [&mut tight, &mut wide] {
            solver.simd = false; // the scalar walk at any source count
            solver.accelerations_into(&pos, &pos, &mass, &mut out);
        }
        let (n_tight, n_wide) = (tight.last_interactions(), wide.last_interactions());
        prop_assert!(n_wide <= n_tight, "{n_wide} > {n_tight}");
    }
}
