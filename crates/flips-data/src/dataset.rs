//! Labelled datasets and the class-conditional Gaussian generator.

use crate::dist::largest_remainder;
use crate::profile::DatasetProfile;
use flips_ml::matrix::Matrix;
use flips_ml::parallel;
use flips_ml::rng::{box_muller, derive_seed, normal, seeded, shuffle};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Normals per staged block of uniforms: the staging buffer holds this
/// many `(u1, u2)` pairs of `f64` (1 MiB), never a population's worth.
const BLOCK_NORMALS: usize = 1 << 16;
/// Fewest normals a dataset needs before its transforms fan out: below
/// it a spawn costs more than it saves. The 16-party mlp256 population
/// (51 200 normals) and the test sets run inline.
const PARALLEL_NORMALS: usize = 1 << 17;

/// A labelled dataset: features (rows = samples) and integer labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature matrix, `n × d`.
    pub x: Matrix,
    /// Labels, length `n`, each `< classes`.
    pub y: Vec<usize>,
    /// Number of distinct labels in the schema (not necessarily present).
    pub classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating shapes and label ranges.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != y.len()` or any label is out of range.
    pub fn new(x: Matrix, y: Vec<usize>, classes: usize) -> Self {
        assert_eq!(x.rows(), y.len(), "features/labels length mismatch");
        assert!(y.iter().all(|&l| l < classes), "label out of range");
        Dataset { x, y, classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Per-label sample counts (length = classes).
    pub fn label_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.classes];
        for &l in &self.y {
            counts[l] += 1;
        }
        counts
    }

    /// A new dataset containing the given sample indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            classes: self.classes,
        }
    }
}

/// The class-mean geometry shared by a training population and its test
/// set.
///
/// Class means are sampled once per (profile, seed) so that every party's
/// data and the global test set are drawn from the *same* class-conditional
/// Gaussians. Means are isotropic Gaussian directions scaled to the
/// profile's `separation` radius; with the profiles' dimensionalities the
/// directions are near-orthogonal, giving a task whose difficulty is set by
/// `separation / noise_std`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassGeometry {
    /// Per-class mean vectors, `classes × feature_dim`.
    pub means: Matrix,
    /// Within-class noise standard deviation.
    pub noise_std: f64,
}

impl ClassGeometry {
    /// Samples the geometry for a profile. Deterministic in `seed`.
    pub fn for_profile(profile: &DatasetProfile, seed: u64) -> Self {
        let mut rng = seeded(derive_seed(seed, 0x0C1A_55E5));
        let mut means = Matrix::zeros(profile.classes, profile.feature_dim);
        for c in 0..profile.classes {
            let row = means.row_mut(c);
            for slot in row.iter_mut() {
                *slot = normal(&mut rng, 0.0, 1.0) as f32;
            }
            let norm = flips_ml::matrix::l2_norm(row).max(1e-9);
            let scale = profile.separation as f32 / norm;
            for slot in row.iter_mut() {
                *slot *= scale;
            }
        }
        ClassGeometry { means, noise_std: profile.noise_std }
    }

    /// Draws one sample of class `label`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, label: usize) -> Vec<f32> {
        self.means.row(label).iter().map(|&m| m + normal(rng, 0.0, self.noise_std) as f32).collect()
    }

    /// Generates a dataset with *exact* per-class counts, its rows
    /// shuffled so mini-batches are not label-sorted. `rng` is consumed as
    /// a row-at-a-time loop would: one [`Self::sample`] per row in label
    /// order, then the shuffle.
    pub fn generate_counts<R: Rng + ?Sized>(&self, rng: &mut R, counts: &[usize]) -> Dataset {
        let normals = counts.iter().sum::<usize>() * self.means.cols();
        let workers = if normals >= PARALLEL_NORMALS { parallel::threads(normals) } else { 1 };
        self.generate_counts_on(rng, counts, workers)
    }

    /// [`Self::generate_counts`] with its Box–Muller transforms on
    /// `workers` threads. The uniforms are drawn on the caller's thread a
    /// block at a time, so the staging stays bounded and the bits do not
    /// depend on `workers`; rows are written straight into one buffer.
    fn generate_counts_on<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        counts: &[usize],
        workers: usize,
    ) -> Dataset {
        let classes = self.means.rows();
        let dim = self.means.cols();
        assert_eq!(counts.len(), classes, "count length mismatch");
        let labels: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(label, &c)| std::iter::repeat_n(label, c))
            .collect();
        let total = labels.len();
        let mut x = vec![0.0f32; total * dim];
        let block_rows = (BLOCK_NORMALS / dim.max(1)).max(1);
        let mut uniforms: Vec<(f64, f64)> = Vec::with_capacity(block_rows * dim);
        let blocks = x.chunks_mut((block_rows * dim).max(1)).zip(labels.chunks(block_rows));
        for (block, block_labels) in blocks {
            uniforms.clear();
            // `standard_normal`'s two draws, `u1 = 1 − r` first.
            uniforms.extend((0..block.len()).map(|_| (1.0 - rng.random::<f64>(), rng.random())));
            parallel::for_each_chunk(block, dim, workers, |offset, rows| {
                let first = offset / dim;
                for (r, row) in rows.chunks_exact_mut(dim).enumerate() {
                    let mean = self.means.row(block_labels[first + r]);
                    let draws = &uniforms[(first + r) * dim..][..dim];
                    for ((slot, &m), &(u1, u2)) in row.iter_mut().zip(mean).zip(draws) {
                        // `m + normal(rng, 0.0, σ) as f32` on staged draws.
                        *slot = m + (0.0 + self.noise_std * box_muller(u1, u2)) as f32;
                    }
                }
            });
        }
        let mut order: Vec<usize> = (0..total).collect();
        shuffle(rng, &mut order);
        gather_rows_in_place(&mut x, dim, &order);
        let y = order.iter().map(|&i| labels[i]).collect();
        Dataset::new(Matrix::from_vec(total, dim, x), y, classes)
    }
}

/// Rearranges the `dim`-wide rows of `x` so that row `i` becomes the old
/// row `order[i]` (`order` a permutation), one cycle at a time through a
/// one-row buffer: a population is never held twice.
fn gather_rows_in_place(x: &mut [f32], dim: usize, order: &[usize]) {
    let mut placed = vec![false; order.len()];
    let mut held = vec![0.0f32; dim];
    for start in 0..order.len() {
        if placed[start] {
            continue;
        }
        held.copy_from_slice(&x[start * dim..][..dim]);
        let mut i = start;
        while order[i] != start {
            x.copy_within(order[i] * dim..(order[i] + 1) * dim, i * dim);
            placed[i] = true;
            i = order[i];
        }
        x[i * dim..][..dim].copy_from_slice(&held);
        placed[i] = true;
    }
}

/// Generates the profile's full training population: `total` samples whose
/// label counts match the profile's class priors exactly (largest-remainder
/// apportionment). Deterministic in `seed`.
pub fn generate_population(profile: &DatasetProfile, total: usize, seed: u64) -> Dataset {
    let geometry = ClassGeometry::for_profile(profile, seed);
    let counts = largest_remainder(&profile.class_priors, total);
    let mut rng = seeded(derive_seed(seed, 0xDA7A));
    geometry.generate_counts(&mut rng, &counts)
}

/// Builds the paper's global *balanced* test set (§4.4): `per_class`
/// samples of every label, generated from the same class geometry as the
/// training population (same `seed`), unknown to any party.
pub fn balanced_test_set(profile: &DatasetProfile, per_class: usize, seed: u64) -> Dataset {
    let geometry = ClassGeometry::for_profile(profile, seed);
    let mut rng = seeded(derive_seed(seed, 0x7E57));
    geometry.generate_counts(&mut rng, &vec![per_class; profile.classes])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a dataset's feature bits, then its labels as `u64`s.
    fn digest(ds: &Dataset) -> u64 {
        let bits = ds.x.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes());
        let labels = ds.y.iter().flat_map(|&l| (l as u64).to_le_bytes());
        bits.chain(labels)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn population_holds_its_golden() {
        // The ECG cell's population, captured from the row-at-a-time
        // generator, portable and native builds alike.
        let profile = DatasetProfile::ecg().scaled(200, 400);
        let ds = generate_population(&profile, profile.default_total_samples, 7);
        assert_eq!(digest(&ds), 0xbdf2_8557_e938_3d2d);
    }

    #[test]
    fn populations_are_bit_identical_on_one_two_and_three_workers() {
        let profile = DatasetProfile::ecg();
        let geometry = ClassGeometry::for_profile(&profile, 7);
        // 160 000 normals: two whole staged blocks and a partial one.
        let counts = largest_remainder(&profile.class_priors, 5_000);
        let one = digest(&geometry.generate_counts_on(&mut seeded(3), &counts, 1));
        for workers in [2, 3] {
            let many = geometry.generate_counts_on(&mut seeded(3), &counts, workers);
            assert_eq!(digest(&many), one, "{workers} workers");
        }
    }

    #[test]
    fn population_matches_priors_exactly() {
        let profile = DatasetProfile::ecg();
        let ds = generate_population(&profile, 1000, 42);
        assert_eq!(ds.len(), 1000);
        let counts = ds.label_counts();
        let expected = largest_remainder(&profile.class_priors, 1000);
        let got: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn population_is_seed_deterministic() {
        let profile = DatasetProfile::femnist();
        let a = generate_population(&profile, 200, 7);
        let b = generate_population(&profile, 200, 7);
        assert_eq!(a, b);
        let c = generate_population(&profile, 200, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn test_set_is_balanced() {
        let profile = DatasetProfile::ham10000();
        let ts = balanced_test_set(&profile, 30, 42);
        assert_eq!(ts.len(), 30 * 7);
        assert!(ts.label_counts().iter().all(|&c| c == 30));
    }

    #[test]
    fn test_set_shares_geometry_with_population() {
        // Same seed ⇒ same class means ⇒ a classifier trained on the
        // population generalizes to the test set. Verify means line up by
        // comparing per-class sample averages across the two draws.
        let profile = DatasetProfile::fashion_mnist();
        let pop = generate_population(&profile, 4000, 5);
        let ts = balanced_test_set(&profile, 200, 5);
        for class in 0..profile.classes {
            let mean_of = |ds: &Dataset| -> Vec<f32> {
                let idx: Vec<usize> = (0..ds.len()).filter(|&i| ds.y[i] == class).collect();
                let sub = ds.x.select_rows(&idx);
                let mut sums = sub.col_sums();
                for s in &mut sums {
                    *s /= idx.len() as f32;
                }
                sums
            };
            let d = flips_ml::matrix::euclidean_distance(&mean_of(&pop), &mean_of(&ts));
            assert!(d < 1.0, "class {class} means differ by {d}");
        }
    }

    #[test]
    fn class_geometry_means_have_separation_radius() {
        let profile = DatasetProfile::ecg();
        let g = ClassGeometry::for_profile(&profile, 3);
        for row in g.means.rows_iter() {
            let norm = flips_ml::matrix::l2_norm(row);
            assert!((norm - profile.separation as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn subset_extracts_requested_samples() {
        let profile = DatasetProfile::femnist();
        let ds = generate_population(&profile, 50, 1);
        let sub = ds.subset(&[0, 10, 20]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.y[1], ds.y[10]);
        assert_eq!(sub.x.row(2), ds.x.row(20));
    }

    #[test]
    fn generate_counts_handles_empty() {
        let profile = DatasetProfile::ecg();
        let g = ClassGeometry::for_profile(&profile, 9);
        let mut rng = seeded(1);
        let ds = g.generate_counts(&mut rng, &[0, 0, 0, 0, 0]);
        assert!(ds.is_empty());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn dataset_new_rejects_bad_labels() {
        let _ = Dataset::new(Matrix::zeros(1, 2), vec![5], 3);
    }
}
