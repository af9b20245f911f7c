//! Property tests of the flat-buffer clustering hot path: determinism,
//! the pairwise cosine matrix against direct computation, the flat point
//! layout. Its equivalence to the seed (`Vec<Vec<f32>>`) implementation
//! is a unit test in `kmeans::tests`, beside that retained oracle.

use flips_clustering::{kmeans, FlatPoints, KMeansPoints};
use flips_ml::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_kmeans_is_deterministic_and_valid(
        seed in 0u64..10_000,
        n in 4usize..40,
        dim in 1usize..8,
        k in 1usize..5,
    ) {
        // Arbitrary (non-separated) data: structural invariants and
        // determinism must hold even when cluster boundaries are noisy.
        let mut rng = seeded(seed);
        let points: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f32>() * 10.0 - 5.0).collect())
            .collect();
        let k = k.min(n);
        let prepared = KMeansPoints::new(&points).unwrap();
        let a = kmeans(&mut seeded(seed), &prepared, k).unwrap();
        let b = kmeans(&mut seeded(seed), &prepared, k).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.assignments.len(), n);
        prop_assert!(a.assignments.iter().all(|&c| c < k));
        prop_assert_eq!(a.members().iter().map(Vec::len).sum::<usize>(), n);
        prop_assert!(a.inertia >= 0.0);
    }

    #[test]
    fn pairwise_matrices_match_direct_computation(
        seed in 0u64..5_000,
        n in 2usize..20,
        dim in 1usize..10,
    ) {
        use flips_clustering::hierarchical::pairwise_cosine_distance;
        use flips_ml::matrix::{dot, l2_norm};

        let mut rng = seeded(seed);
        let points: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f32>() * 4.0 - 2.0).collect())
            .collect();

        let co = pairwise_cosine_distance(&points).unwrap();
        prop_assert_eq!(co.len(), n * n);
        for i in 0..n {
            prop_assert_eq!(co[i * n + i], 0.0);
            for j in 0..n {
                prop_assert_eq!(co[i * n + j], co[j * n + i]);
                let denom = l2_norm(&points[i]) * l2_norm(&points[j]);
                let direct_cos = if denom > 0.0 {
                    1.0 - (dot(&points[i], &points[j]) / denom).clamp(-1.0, 1.0)
                } else {
                    1.0
                };
                if i != j {
                    prop_assert!(
                        (co[i * n + j] - direct_cos).abs() <= 1e-4,
                        "cosine mismatch at ({}, {}): {} vs {}", i, j, co[i * n + j], direct_cos
                    );
                }
            }
        }
    }

    #[test]
    fn flat_points_round_trip(
        seed in 0u64..1_000,
        n in 1usize..30,
        dim in 1usize..12,
    ) {
        let mut rng = seeded(seed);
        let points: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f32>()).collect())
            .collect();
        let flat = FlatPoints::new(&points).unwrap();
        prop_assert_eq!(flat.len(), n);
        prop_assert_eq!(flat.dim(), dim);
        for (i, p) in points.iter().enumerate() {
            prop_assert_eq!(flat.point(i), p.as_slice());
            let norm: f32 = p.iter().map(|x| x * x).sum();
            prop_assert!((flat.norm_sq(i) - norm).abs() <= 1e-5 * (1.0 + norm));
        }
    }
}
