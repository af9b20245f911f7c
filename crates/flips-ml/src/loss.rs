//! Loss functions.
//!
//! The FL evaluation in the paper is classification throughout, so the
//! workhorse is softmax cross-entropy. FedProx's proximal term
//! `µ/2 · ‖x − m‖²` (paper §2.1) is provided as a separate penalty applied
//! at the flat-parameter level.

use crate::matrix::Matrix;

/// Mean cross-entropy of row-wise probabilities against integer targets.
///
/// `probs` must contain valid probability rows (e.g. softmax output);
/// entries are clamped away from zero for numerical safety.
///
/// # Panics
///
/// Panics if `targets.len() != probs.rows()` or a target is out of range.
pub fn cross_entropy(probs: &Matrix, targets: &[usize]) -> f32 {
    assert_eq!(probs.rows(), targets.len(), "cross_entropy batch mismatch");
    let mut total = 0.0;
    for (row, &t) in probs.rows_iter().zip(targets) {
        assert!(t < row.len(), "target {t} out of range for {} classes", row.len());
        total -= row[t].max(1e-12).ln();
    }
    total / targets.len() as f32
}

/// Gradient of mean softmax cross-entropy w.r.t. the *logits*.
///
/// Given softmax output `probs` and targets, the gradient per row is
/// `(p − onehot(t)) / batch` — consumed directly by the models' backward
/// passes. The subtraction happens in place on `probs`.
pub fn cross_entropy_logit_grad_inplace(probs: &mut Matrix, targets: &[usize]) {
    assert_eq!(probs.rows(), targets.len(), "grad batch mismatch");
    let inv_batch = 1.0 / targets.len() as f32;
    let cols = probs.cols();
    for (i, &t) in targets.iter().enumerate() {
        let row = probs.row_mut(i);
        assert!(t < cols, "target {t} out of range for {cols} classes");
        row[t] -= 1.0;
        for x in row.iter_mut() {
            *x *= inv_batch;
        }
    }
}

/// Mean squared error between predictions and targets.
pub fn mse(pred: &[f32], target: &[f32]) -> f32 {
    assert_eq!(pred.len(), target.len(), "mse length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter().zip(target).map(|(p, t)| (p - t) * (p - t)).sum::<f32>() / pred.len() as f32
}

/// Adds the FedProx proximal gradient `µ · (w − w_global)` into `grad`.
pub fn add_proximal_grad(grad: &mut [f32], w: &[f32], w_global: &[f32], mu: f32) {
    assert_eq!(grad.len(), w.len(), "proximal grad length mismatch");
    assert_eq!(w.len(), w_global.len(), "proximal length mismatch");
    for ((g, &a), &b) in grad.iter_mut().zip(w).zip(w_global) {
        *g += mu * (a - b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let probs = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let loss = cross_entropy(&probs, &[0, 1]);
        assert!(loss < 1e-5, "loss {loss}");
    }

    #[test]
    fn cross_entropy_uniform_is_log_classes() {
        let probs = Matrix::from_rows(&[vec![0.25; 4]]);
        let loss = cross_entropy(&probs, &[2]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn logit_grad_sums_to_zero_per_row() {
        // Softmax CE logit gradient rows sum to zero: Σ p_j − 1 = 0.
        let mut probs = Matrix::from_rows(&[vec![0.2, 0.3, 0.5]]);
        cross_entropy_logit_grad_inplace(&mut probs, &[1]);
        let s: f32 = probs.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
        assert!(probs[(0, 1)] < 0.0, "target coordinate must be pulled up");
    }

    #[test]
    fn logit_grad_scales_by_batch() {
        let mut probs = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]);
        cross_entropy_logit_grad_inplace(&mut probs, &[0, 0]);
        assert!((probs[(0, 0)] - (-0.25)).abs() < 1e-6);
        assert!((probs[(0, 1)] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn proximal_grad_points_toward_anchor() {
        let mut grad = vec![0.0, 0.0];
        add_proximal_grad(&mut grad, &[2.0, -2.0], &[0.0, 0.0], 0.5);
        assert_eq!(grad, vec![1.0, -1.0]);
    }

    #[test]
    fn mse_known_value() {
        assert!((mse(&[1.0, 2.0], &[0.0, 0.0]) - 2.5).abs() < 1e-6);
        assert_eq!(mse(&[], &[]), 0.0);
    }
}
