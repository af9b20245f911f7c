//! Property-based tests of the ML substrate's core invariants.

use flips_ml::activation::softmax_rows_inplace;
use flips_ml::matrix::{euclidean_distance, Matrix};
use flips_ml::metrics::ConfusionMatrix;
use flips_ml::model::ModelSpec;
use flips_ml::optimizer::Sgd;
use flips_ml::rng::seeded;
use proptest::prelude::*;

/// Arbitrary small matrix with bounded entries.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(m in matrix_strategy(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_is_neutral(m in matrix_strategy(8)) {
        let mut eye = Matrix::zeros(m.cols(), m.cols());
        for i in 0..m.cols() {
            eye[(i, i)] = 1.0;
        }
        let product = m.matmul(&eye);
        prop_assert_eq!(product, m);
    }

    #[test]
    fn matmul_tn_and_nt_match_explicit_transpose(
        a in matrix_strategy(6),
        b in matrix_strategy(6),
    ) {
        // Shape-compatible pairs only. Bits, not closeness: every flavor
        // is the same ascending-k `mul_add` chain per output.
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if a.rows() == b.rows() {
            prop_assert_eq!(bits(&a.matmul_tn(&b)), bits(&a.transpose().matmul(&b)));
        }
        if a.cols() == b.cols() {
            prop_assert_eq!(bits(&a.matmul_nt(&b)), bits(&a.matmul(&b.transpose())));
        }
    }

    #[test]
    fn euclidean_distance_is_a_metric(
        a in proptest::collection::vec(-100.0f32..100.0, 1..16),
        b in proptest::collection::vec(-100.0f32..100.0, 1..16),
        c in proptest::collection::vec(-100.0f32..100.0, 1..16),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
        // Symmetry and identity.
        prop_assert_eq!(euclidean_distance(a, b), euclidean_distance(b, a));
        prop_assert_eq!(euclidean_distance(a, a), 0.0);
        // Triangle inequality (with float slack).
        let ab = euclidean_distance(a, b) as f64;
        let bc = euclidean_distance(b, c) as f64;
        let ac = euclidean_distance(a, c) as f64;
        prop_assert!(ac <= ab + bc + 1e-3);
    }

    #[test]
    fn softmax_rows_are_distributions(m in matrix_strategy(8)) {
        let mut s = m;
        softmax_rows_inplace(&mut s);
        for row in s.rows_iter() {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn params_round_trip_for_all_architectures(
        seed in 0u64..1000,
        dim in 2usize..8,
        classes in 2usize..5,
    ) {
        let specs = [
            ModelSpec::Mlp { dims: vec![dim, classes] },
            ModelSpec::Mlp { dims: vec![dim, dim + 2, classes] },
            ModelSpec::Conv1d { len: dim + 6, kernel: 3, filters: 2, classes },
        ];
        for spec in specs {
            let mut model = spec.build(&mut seeded(seed));
            let p = model.params();
            prop_assert_eq!(p.len(), model.num_params());
            model.set_params(&p).unwrap();
            prop_assert_eq!(model.params(), p);
        }
    }

    #[test]
    fn sgd_step_is_linear_in_gradient(
        w in proptest::collection::vec(-5.0f32..5.0, 1..10),
        g in proptest::collection::vec(-5.0f32..5.0, 1..10),
    ) {
        let n = w.len().min(g.len());
        let (w, g) = (&w[..n], &g[..n]);
        let mut once = w.to_vec();
        Sgd::new(0.1).step(&mut once, g);
        let mut halved_twice = w.to_vec();
        let mut opt = Sgd::new(0.05);
        opt.step(&mut halved_twice, g);
        opt.step(&mut halved_twice, g);
        // Plain SGD without momentum: two half-lr steps on the same
        // gradient equal one full-lr step.
        for (a, b) in once.iter().zip(&halved_twice) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn balanced_accuracy_is_bounded_and_perfect_on_identity(
        labels in proptest::collection::vec(0usize..4, 1..64),
    ) {
        let cm = ConfusionMatrix::from_predictions(4, &labels, &labels);
        prop_assert_eq!(cm.balanced_accuracy(), 1.0);
        // Any prediction vector stays within [0, 1].
        let shifted: Vec<usize> = labels.iter().map(|&l| (l + 1) % 4).collect();
        let cm = ConfusionMatrix::from_predictions(4, &labels, &shifted);
        let acc = cm.balanced_accuracy();
        prop_assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn model_predictions_are_valid_class_indices(
        seed in 0u64..500,
        rows in 1usize..10,
    ) {
        let spec = ModelSpec::Mlp { dims: vec![4, 6, 3] };
        let model = spec.build(&mut seeded(seed));
        let x = flips_ml::init::gaussian(&mut seeded(seed ^ 1), rows, 4, 1.0);
        let preds = flips_ml::model::predict(model.as_ref(), &x);
        prop_assert_eq!(preds.len(), rows);
        prop_assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn into_variants_match_allocating_kernels(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..40,
        seed in 0u64..500,
    ) {
        let a = flips_ml::init::gaussian(&mut seeded(seed), m, k, 1.0);
        let b = flips_ml::init::gaussian(&mut seeded(seed ^ 7), k, n, 1.0);
        // Warm the output with a mismatched shape to prove resize works.
        let mut out = Matrix::zeros(3, 3);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(&out, &a.matmul(&b));

        let mut flat = vec![0.0f32; k * n];
        let at = flips_ml::init::gaussian(&mut seeded(seed ^ 9), m, k, 1.0);
        let rhs = flips_ml::init::gaussian(&mut seeded(seed ^ 11), m, n, 1.0);
        at.matmul_tn_into_slice(&rhs, &mut flat);
        let expect = at.matmul_tn(&rhs);
        prop_assert_eq!(flat.as_slice(), expect.as_slice());
    }
}
