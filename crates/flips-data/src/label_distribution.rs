//! Label distributions — FLIPS's semantic party descriptor.
//!
//! The paper (§3.1) defines the label distribution of party `p_i` as
//! `ld_i = {l_1, ..., l_g}` where `l_j` counts datapoints of label `j` at
//! the party. FLIPS clusters these vectors to discover groups of parties
//! with similar data. Clustering operates on the *normalized* distribution
//! so that parties with proportionally identical data but different volumes
//! land in the same cluster.

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// Per-label datapoint counts at one party.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelDistribution {
    counts: Vec<u64>,
}

impl LabelDistribution {
    /// Creates a distribution from raw per-label counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "label distribution needs at least one label");
        LabelDistribution { counts }
    }

    /// Tallies the labels of a dataset.
    pub fn from_dataset(ds: &Dataset) -> Self {
        LabelDistribution { counts: ds.label_counts() }
    }

    /// Raw counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of labels in the schema.
    pub fn num_labels(&self) -> usize {
        self.counts.len()
    }

    /// Total datapoints.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The normalized distribution (sums to 1; all-zeros maps to uniform).
    ///
    /// This is the vector FLIPS feeds to K-Means: proportions, not raw
    /// counts, so data volume does not confound label similarity.
    pub fn normalized(&self) -> Vec<f32> {
        let total = self.total();
        if total == 0 {
            return vec![1.0 / self.counts.len() as f32; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f32 / total as f32).collect()
    }

    /// Euclidean distance between normalized distributions.
    pub fn distance(&self, other: &LabelDistribution) -> f32 {
        flips_ml::matrix::euclidean_distance(&self.normalized(), &other.normalized())
    }

    /// Shannon entropy (nats) of the normalized distribution — a diversity
    /// measure used in tests and diagnostics.
    pub fn entropy(&self) -> f64 {
        self.normalized().iter().filter(|&&p| p > 0.0).map(|&p| -(p as f64) * (p as f64).ln()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_sums_to_one() {
        let ld = LabelDistribution::from_counts(vec![10, 30, 60]);
        let n = ld.normalized();
        assert!((n.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((n[2] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn empty_party_normalizes_to_uniform() {
        let ld = LabelDistribution::from_counts(vec![0, 0, 0, 0]);
        assert_eq!(ld.normalized(), vec![0.25; 4]);
    }

    #[test]
    fn volume_does_not_affect_distance() {
        let a = LabelDistribution::from_counts(vec![1, 1]);
        let b = LabelDistribution::from_counts(vec![1000, 1000]);
        assert!(a.distance(&b) < 1e-6);
    }

    #[test]
    fn entropy_extremes() {
        let one_hot = LabelDistribution::from_counts(vec![100, 0, 0, 0]);
        assert!(one_hot.entropy() < 1e-9);
        let uniform = LabelDistribution::from_counts(vec![25, 25, 25, 25]);
        assert!((uniform.entropy() - 4.0f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = LabelDistribution::from_counts(vec![3, 1, 0]);
        let b = LabelDistribution::from_counts(vec![0, 1, 3]);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&a), 0.0);
    }
}
