//! Activation functions and their derivatives.

use crate::matrix::Matrix;

/// Rectified linear unit applied element-wise in place.
pub fn relu_inplace(m: &mut Matrix) {
    m.map_inplace(|x| if x > 0.0 { x } else { 0.0 });
}

/// Multiplies `delta` in place by ReLU's derivative at `pre_activation`
/// (zeroing entries whose pre-activation was non-positive) without
/// materializing the mask matrix.
///
/// # Panics
///
/// Panics on a shape mismatch.
pub fn relu_grad_mask_mul(delta: &mut Matrix, pre_activation: &Matrix) {
    assert_eq!(delta.shape(), pre_activation.shape(), "relu mask shape mismatch");
    for (d, &z) in delta.as_mut_slice().iter_mut().zip(pre_activation.as_slice()) {
        if z <= 0.0 {
            *d = 0.0;
        }
    }
}

/// Row-wise numerically-stable softmax.
///
/// Each row of the result sums to 1. Operates in place on logits.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    for row in m.as_mut_slice().chunks_exact_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        // `sum >= 1` because the max element maps to exp(0) = 1.
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_rows(&[vec![-1.0, 0.0, 2.0]]);
        relu_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        softmax_rows_inplace(&mut m);
        for row in m.rows_iter() {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut m = Matrix::from_rows(&[vec![1000.0, 1001.0]]);
        softmax_rows_inplace(&mut m);
        assert!(m.as_slice().iter().all(|p| p.is_finite()));
        assert!(m[(0, 1)] > m[(0, 0)]);
    }

    #[test]
    fn softmax_preserves_ordering() {
        let mut m = Matrix::from_rows(&[vec![0.5, 2.0, 1.0]]);
        softmax_rows_inplace(&mut m);
        assert!(m[(0, 1)] > m[(0, 2)]);
        assert!(m[(0, 2)] > m[(0, 0)]);
    }
}
