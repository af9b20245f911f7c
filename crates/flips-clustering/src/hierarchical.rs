//! Agglomerative hierarchical clustering over a distance matrix.
//!
//! The GradClus baseline (Fraboni et al., ICML'21 — "Clustered Sampling")
//! builds a similarity matrix across party gradients and cuts a hierarchy
//! into `S(r)` clusters, then samples one party per cluster (paper §4.1).
//! This module provides the substrate: bottom-up merging under average
//! linkage (UPGMA, GradClus's choice) until the requested number of
//! clusters remains.

use crate::kmeans::FlatPoints;
use crate::ClusteringError;
use flips_ml::matrix::gemm::{gemm, Layout};

/// Pairwise cosine-*distance* matrix (`1 − cos`), the similarity GradClus
/// uses on gradients: `n × n` row-major, symmetric, zero diagonal. Zero
/// vectors are treated as orthogonal to everything.
///
/// The dot products come from one Gram-matrix GEMM over the flat buffer,
/// and each distance is written over its dot product in place.
pub fn pairwise_cosine_distance(points: &[Vec<f32>]) -> Result<Vec<f32>, ClusteringError> {
    let flat = FlatPoints::new(points)?;
    let (n, dim) = (flat.len(), flat.dim());
    let mut m = vec![0.0f32; n * n];
    gemm(Layout::Nt, n, dim, n, flat.as_slice(), dim, flat.as_slice(), dim, &mut m);
    let norms: Vec<f32> = (0..n).map(|i| flat.norm_sq(i).sqrt()).collect();
    for i in 0..n {
        m[i * n + i] = 0.0;
        // Only the upper triangle's dot products are read, so the lower
        // triangle is free to take the mirrored distances.
        for j in (i + 1)..n {
            let denom = norms[i] * norms[j];
            let cos = if denom > 0.0 { m[i * n + j] / denom } else { 0.0 };
            let d = 1.0 - cos.clamp(-1.0, 1.0);
            m[i * n + j] = d;
            m[j * n + i] = d;
        }
    }
    Ok(m)
}

/// Agglomerative clustering from a precomputed `n × n` row-major distance
/// matrix, such as [`pairwise_cosine_distance`] returns.
///
/// Returns the cluster id of every point (ids are `0..num_clusters`,
/// densely re-numbered).
///
/// # Errors
///
/// Rejects empty or non-square matrices and `num_clusters` outside `1..=n`.
pub fn hierarchical_from_distances(
    distances: &[f32],
    num_clusters: usize,
) -> Result<Vec<usize>, ClusteringError> {
    let n = distances.len().isqrt();
    if n == 0 || n * n != distances.len() {
        return Err(ClusteringError::BadInput("distance matrix must be square, not empty".into()));
    }
    if num_clusters == 0 || num_clusters > n {
        return Err(ClusteringError::InvalidParameter(format!(
            "num_clusters = {num_clusters} must be in 1..={n}"
        )));
    }

    // active[c] = Some(member indices) while cluster c is alive.
    let mut active: Vec<Option<Vec<usize>>> = (0..n).map(|i| Some(vec![i])).collect();
    let mut alive = n;

    while alive > num_clusters {
        // Find the closest pair of live clusters under average linkage.
        let mut best: Option<(usize, usize, f32)> = None;
        let live: Vec<usize> = (0..n).filter(|&c| active[c].is_some()).collect();
        for (ai, &a) in live.iter().enumerate() {
            for &b in &live[ai + 1..] {
                let d = cluster_distance(
                    distances,
                    n,
                    active[a].as_ref().expect("live"),
                    active[b].as_ref().expect("live"),
                );
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((a, b, d));
                }
            }
        }
        let (a, b, _) = best.expect("at least two live clusters");
        let mut merged = active[a].take().expect("live");
        merged.extend(active[b].take().expect("live"));
        active[a] = Some(merged);
        alive -= 1;
    }

    // Densely renumber the survivors.
    let mut labels = vec![0usize; n];
    for (next, slot) in active.iter().flatten().enumerate() {
        for &member in slot {
            labels[member] = next;
        }
    }
    Ok(labels)
}

/// Mean pairwise distance between the members of `a` and `b`.
fn cluster_distance(distances: &[f32], n: usize, a: &[usize], b: &[usize]) -> f32 {
    let mut total = 0.0f64;
    for &i in a {
        for &j in b {
            total += distances[i * n + j] as f64;
        }
    }
    (total / (a.len() * b.len()) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use flips_ml::matrix::euclidean_distance;
    use flips_ml::rng::seeded;

    /// The `n × n` row-major Euclidean distance matrix of `points`.
    fn euclidean_matrix(points: &[Vec<f32>]) -> Vec<f32> {
        points.iter().flat_map(|p| points.iter().map(|q| euclidean_distance(p, q))).collect()
    }

    /// Two 1-D blobs of 12 points each, as their distance matrix, and the
    /// blob of every point.
    fn two_blobs() -> (Vec<f32>, Vec<usize>) {
        let mut rng = seeded(1);
        let mut points = Vec::new();
        let mut truth = Vec::new();
        for (center, label) in [(-5.0f32, 0usize), (5.0, 1)] {
            for _ in 0..12 {
                points.push(vec![center + flips_ml::rng::normal(&mut rng, 0.0, 0.4) as f32]);
                truth.push(label);
            }
        }
        (euclidean_matrix(&points), truth)
    }

    #[test]
    fn separates_two_blobs() {
        let (distances, truth) = two_blobs();
        let labels = hierarchical_from_distances(&distances, 2).unwrap();
        // Consistent partition: all of blob 0 together, all of blob 1
        // together.
        for (l, t) in labels.iter().zip(&truth) {
            assert_eq!(*l == labels[0], *t == truth[0], "split a blob");
        }
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let (distances, truth) = two_blobs();
        let labels = hierarchical_from_distances(&distances, truth.len()).unwrap();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), truth.len());
    }

    #[test]
    fn k_one_merges_everything() {
        let (distances, _) = two_blobs();
        let labels = hierarchical_from_distances(&distances, 1).unwrap();
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn labels_are_densely_numbered() {
        let (distances, _) = two_blobs();
        let labels = hierarchical_from_distances(&distances, 5).unwrap();
        let max = *labels.iter().max().unwrap();
        for expect in 0..=max {
            assert!(labels.contains(&expect), "label {expect} missing");
        }
        assert_eq!(max, 4);
    }

    #[test]
    fn cosine_distance_matrix_properties() {
        let points = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 0.0], vec![-1.0, 0.0]];
        let m = pairwise_cosine_distance(&points).unwrap();
        let n = points.len();
        assert_eq!(m.len(), n * n);
        assert!((m[2] - 0.0).abs() < 1e-6, "parallel vectors distance 0");
        assert!((m[1] - 1.0).abs() < 1e-6, "orthogonal vectors distance 1");
        assert!((m[3] - 2.0).abs() < 1e-6, "opposite vectors distance 2");
        for i in 0..n {
            assert_eq!(m[i * n + i], 0.0);
            for j in 0..n {
                assert_eq!(m[i * n + j], m[j * n + i]);
            }
        }
    }

    #[test]
    fn from_distances_respects_matrix_not_geometry() {
        // A crafted matrix where 0-2 are close and 1 is far from both.
        let d = [0.0, 9.0, 1.0, 9.0, 0.0, 8.0, 1.0, 8.0, 0.0];
        let labels = hierarchical_from_distances(&d, 2).unwrap();
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let (distances, truth) = two_blobs();
        assert!(hierarchical_from_distances(&distances, 0).is_err());
        assert!(hierarchical_from_distances(&distances, truth.len() + 1).is_err());
        assert!(hierarchical_from_distances(&[], 1).is_err());
        assert!(hierarchical_from_distances(&[0.0, 1.0], 1).is_err());
        assert!(hierarchical_from_distances(&[0.0, 1.0, 1.0], 1).is_err());
        let empty: Vec<Vec<f32>> = Vec::new();
        assert!(pairwise_cosine_distance(&empty).is_err());
        assert!(pairwise_cosine_distance(&[vec![0.0], vec![0.0, 1.0]]).is_err());
    }
}
