#![cfg(test)]
//! Inputs and the hash the clustering goldens share.

use flips_data::dataset::generate_population;
use flips_data::dist::dirichlet_symmetric;
use flips_data::{partition, DatasetProfile, LabelDistribution, PartitionStrategy};
use flips_ml::rng::seeded;

/// FNV-1a's offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The label distributions the FLIPS ceremony clusters in the paper's ECG
/// cell: 200 parties, Dirichlet(0.3), seed 7 (`converge_flips`'s set-up).
pub(crate) fn converge_points() -> Vec<Vec<f32>> {
    let profile = DatasetProfile::ecg().scaled(200, 400);
    let population = generate_population(&profile, profile.default_total_samples, 7);
    let parts = partition(&population, 200, PartitionStrategy::Dirichlet { alpha: 0.3 }, 5, 7)
        .expect("the ECG cell partitions");
    parts.label_distributions().iter().map(LabelDistribution::normalized).collect()
}

/// `n` Dirichlet(0.3) probability vectors over 10 labels.
pub(crate) fn dirichlet_points(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| dirichlet_symmetric(&mut rng, 0.3, 10).into_iter().map(|p| p as f32).collect())
        .collect()
}
