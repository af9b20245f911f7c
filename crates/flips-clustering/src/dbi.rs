//! Davies-Bouldin index (Davies & Bouldin, TPAMI 1979).
//!
//! The ratio of within-cluster scatter to between-cluster separation,
//! averaged over each cluster's worst pairing — lower is better. The paper
//! uses DBI as its cluster-purity metric when scanning `k` (§3.1, Eq. 3).

use crate::kmeans::{Clustering, FlatPoints};
use crate::ClusteringError;
use flips_ml::matrix::euclidean_distance;

/// Computes the Davies-Bouldin index of a clustering over its flattened
/// points (the elbow scan re-scores the same points `restarts × k` times).
///
/// `DBI = (1/k) Σ_i max_{j≠i} (S_i + S_j) / d(c_i, c_j)` where `S_i` is the
/// mean distance of cluster `i`'s members to its centroid. Singleton and
/// empty clusters contribute zero scatter. Returns `0.0` for `k < 2`
/// (no pairs to compare).
///
/// # Errors
///
/// Rejects assignment/point length mismatches.
pub fn davies_bouldin_index(
    points: &FlatPoints,
    clustering: &Clustering,
) -> Result<f64, ClusteringError> {
    if clustering.assignments.len() != points.len() {
        return Err(ClusteringError::BadInput(format!(
            "{} assignments for {} points",
            clustering.assignments.len(),
            points.len()
        )));
    }
    let k = clustering.k();
    if k < 2 {
        return Ok(0.0);
    }

    // Per-cluster mean scatter S_i (flat row-major sweep).
    let mut scatter = vec![0.0f64; k];
    let mut counts = vec![0usize; k];
    for (i, &c) in clustering.assignments.iter().enumerate() {
        scatter[c] += euclidean_distance(points.point(i), &clustering.centroids[c]) as f64;
        counts[c] += 1;
    }
    for (s, &c) in scatter.iter_mut().zip(&counts) {
        if c > 0 {
            *s /= c as f64;
        }
    }

    let mut total = 0.0f64;
    let mut populated = 0usize;
    for i in 0..k {
        if counts[i] == 0 {
            continue;
        }
        populated += 1;
        let mut worst = 0.0f64;
        for j in 0..k {
            if i == j || counts[j] == 0 {
                continue;
            }
            let sep = euclidean_distance(&clustering.centroids[i], &clustering.centroids[j]) as f64;
            let ratio = if sep > 0.0 { (scatter[i] + scatter[j]) / sep } else { f64::INFINITY };
            worst = worst.max(ratio);
        }
        total += worst;
    }
    if populated == 0 {
        return Ok(0.0);
    }
    Ok(total / populated as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans, KMeansPoints};
    use flips_ml::rng::seeded;

    fn blobs(spread: f64) -> KMeansPoints {
        let mut rng = seeded(1);
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut points = Vec::new();
        for c in centers {
            for _ in 0..20 {
                points.push(vec![
                    c[0] + flips_ml::rng::normal(&mut rng, 0.0, spread) as f32,
                    c[1] + flips_ml::rng::normal(&mut rng, 0.0, spread) as f32,
                ]);
            }
        }
        KMeansPoints::new(&points).unwrap()
    }

    #[test]
    fn tighter_clusters_score_lower() {
        let tight = blobs(0.2);
        let loose = blobs(2.5);
        let mut rng = seeded(2);
        let ct = kmeans(&mut rng, &tight, 3).unwrap();
        let cl = kmeans(&mut rng, &loose, 3).unwrap();
        let dbi_tight = davies_bouldin_index(tight.flat(), &ct).unwrap();
        let dbi_loose = davies_bouldin_index(loose.flat(), &cl).unwrap();
        assert!(dbi_tight < dbi_loose, "tight {dbi_tight} should beat loose {dbi_loose}");
    }

    #[test]
    fn correct_k_scores_lower_than_wrong_k() {
        let points = blobs(0.3);
        let mut rng = seeded(3);
        let right = kmeans(&mut rng, &points, 3).unwrap();
        let wrong = kmeans(&mut rng, &points, 2).unwrap();
        let dbi_right = davies_bouldin_index(points.flat(), &right).unwrap();
        let dbi_wrong = davies_bouldin_index(points.flat(), &wrong).unwrap();
        assert!(dbi_right < dbi_wrong);
    }

    #[test]
    fn single_cluster_scores_zero() {
        let points = blobs(0.3);
        let c = kmeans(&mut seeded(4), &points, 1).unwrap();
        assert_eq!(davies_bouldin_index(points.flat(), &c).unwrap(), 0.0);
    }

    #[test]
    fn perfectly_separated_singletons_score_zero_scatter() {
        // k = n: every cluster is a singleton, scatter 0 ⇒ DBI 0.
        let points: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32 * 5.0]).collect();
        let points = KMeansPoints::new(&points).unwrap();
        let c = kmeans(&mut seeded(5), &points, 4).unwrap();
        assert!(davies_bouldin_index(points.flat(), &c).unwrap() < 1e-12);
    }

    #[test]
    fn rejects_mismatched_assignments() {
        let points = blobs(0.3);
        let mut c = kmeans(&mut seeded(6), &points, 3).unwrap();
        c.assignments.pop();
        assert!(davies_bouldin_index(points.flat(), &c).is_err());
    }
}
