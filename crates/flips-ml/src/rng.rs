//! Deterministic random-number helpers.
//!
//! Only the `rand` core crate is permitted in this workspace, so the
//! continuous distributions the stack needs (standard normal for weight
//! initialization, Gamma/Dirichlet for non-IID partitioning — the latter
//! live in `flips-data`) are implemented here from first principles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a [`StdRng`] from a `u64` seed.
///
/// Every component in the workspace derives its RNG through this helper so
/// that a single simulation seed reproduces an entire experiment.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream label.
///
/// Uses the SplitMix64 finalizer, which is a bijective avalanche mix — two
/// distinct `(seed, stream)` pairs collide only if SplitMix64 collides.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: one golden-ratio step, then [`derive_seed`]'s finalizer —
/// a stateless mix for schedules and jitter that must replay per seed.
pub fn splitmix64(x: u64) -> u64 {
    derive_seed(x.wrapping_add(0x9E37_79B9_7F4A_7C15), 0)
}

/// Samples a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    box_muller(u1, u2)
}

/// The Box–Muller transform of `u1 ∈ (0, 1]` and `u2 ∈ [0, 1)` into one
/// standard normal: [`standard_normal`]'s arithmetic, for callers that
/// draw the uniforms on one thread and transform them on others.
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `N(mean, std_dev²)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Fisher–Yates shuffle of a slice.
pub fn shuffle<T, R: Rng + ?Sized>(rng: &mut R, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Samples `k` distinct indices from `0..n` uniformly (partial Fisher–Yates).
///
/// The virtual pool `[0, n)` is never materialized: only the O(k)
/// entries displaced by swaps are tracked, so sampling a cohort from a
/// million-party roster costs memory proportional to the cohort, not
/// the roster. Draw-for-draw identical to the classic array form — the
/// RNG consumption and the returned indices match exactly, which the
/// protocol-equivalence goldens rely on.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_without_replacement<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} of {n} without replacement");
    // displaced[idx] = current value of the virtual pool at idx, for the
    // sparse set of indices where it differs from the identity.
    let mut displaced: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut picks = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.random_range(i..n);
        let pick = displaced.get(&j).copied().unwrap_or(j);
        let at_i = displaced.get(&i).copied().unwrap_or(i);
        picks.push(pick);
        // Swap: pool[j] takes pool[i]'s old value; slot i is fixed at
        // `pick` but never read again (draws start at i+1), so its
        // entry can be dropped to keep the map at O(k - i).
        displaced.insert(j, at_i);
        displaced.remove(&i);
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn derive_seed_distinguishes_streams() {
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        // Deterministic.
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // The first outputs of the reference SplitMix64 generator from
        // state 0: output i is the mix of state i·γ.
        let gamma = 0x9E37_79B9_7F4A_7C15u64;
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(gamma), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(1);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = seeded(2);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn sample_without_replacement_is_distinct_and_in_range() {
        let mut rng = seeded(3);
        let picks = sample_without_replacement(&mut rng, 100, 30);
        assert_eq!(picks.len(), 30);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30, "duplicates in sample");
        assert!(picks.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_without_replacement_full_population() {
        let mut rng = seeded(4);
        let mut picks = sample_without_replacement(&mut rng, 10, 10);
        picks.sort_unstable();
        assert_eq!(picks, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "without replacement")]
    fn sample_without_replacement_rejects_oversample() {
        let mut rng = seeded(5);
        let _ = sample_without_replacement(&mut rng, 3, 4);
    }

    /// The classic array-backed partial Fisher–Yates the sparse
    /// implementation must mirror draw-for-draw.
    fn dense_sample<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.random_range(i..n);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    #[test]
    fn sample_without_replacement_matches_dense_reference() {
        for seed in 0..20 {
            for &(n, k) in &[(1, 0), (1, 1), (5, 5), (10, 3), (100, 30), (257, 256), (1000, 1)] {
                let sparse = sample_without_replacement(&mut seeded(seed), n, k);
                let dense = dense_sample(&mut seeded(seed), n, k);
                assert_eq!(sparse, dense, "diverged at seed {seed}, n {n}, k {k}");
                // Identical RNG consumption: the next draw agrees too.
                let mut a = seeded(seed);
                let mut b = seeded(seed);
                let _ = sample_without_replacement(&mut a, n, k);
                let _ = dense_sample(&mut b, n, k);
                assert_eq!(a.random::<u64>(), b.random::<u64>());
            }
        }
    }

    #[test]
    fn sample_without_replacement_huge_population_is_cheap() {
        // A million-slot virtual pool must not be materialized; this
        // would OOM-or-crawl if it were. Picks stay distinct/in-range.
        let mut rng = seeded(9);
        let picks = sample_without_replacement(&mut rng, 1_000_000_000, 64);
        assert_eq!(picks.len(), 64);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
        assert!(picks.iter().all(|&i| i < 1_000_000_000));
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = seeded(6);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
