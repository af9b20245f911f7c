//! Elbow-point selection of the cluster count `k` (paper §3.1, Eq. 3 and
//! Figure 2).
//!
//! The number of unique label distributions is unknown a priori (party data
//! is private), so FLIPS scans `k`, averages the Davies-Bouldin index over
//! `T = 20` K-Means restarts per `k` (K-Means is sensitive to centroid
//! initialization), and picks the **first sharp change in the slope** of
//! the `k → DBI` curve: the elbow.
//!
//! Eq. (3) formalizes the elbow via the relative DBI change
//! `|dbi(k) − dbi(k−1)| / dbi(k−1)`; the prose asks for the "(first) sharp
//! change in the slope of the curve". On label-distribution inputs the DBI
//! curve is V-shaped (steep descent to the true archetype count, then a
//! rise as clusters go sparse — exactly the small-k/large-k failure modes
//! §3.1 describes), so the sharp slope change is located by the **maximum
//! second difference** of the curve; degenerate flat curves fall back to
//! the DBI minimum.
//!
//! The scan's K-Means runs are independent, so they fan out over the
//! machine's cores (`flips_ml::parallel`). Inside a real enclave the
//! number of threads it may run (SGX's TCS count) bounds that fan-out.

use crate::dbi::davies_bouldin_index;
use crate::kmeans::{kmeans, KMeansPoints};
use crate::ClusteringError;
use flips_ml::parallel;
use flips_ml::rng::{derive_seed, seeded};
use serde::{Deserialize, Serialize};

/// Smallest candidate `k`: one cluster has no Davies-Bouldin index.
const K_MIN: usize = 2;
/// Minimum second difference that counts as a "sharp" slope change;
/// flatter curves fall back to the DBI minimum.
const FLAT_TOLERANCE: f64 = 0.02;
/// Fewest point-runs (points × K-Means runs) a scan must cost before its
/// runs fan out: below it a thread's spawn costs more than it saves.
const PARALLEL_POINT_RUNS: usize = 1 << 12;

/// Configuration of the elbow scan over `k = 2..=k_max`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElbowConfig {
    /// Largest candidate `k` (inclusive); must be ≥ 2.
    pub k_max: usize,
    /// K-Means restarts averaged per candidate (paper uses `T = 20`).
    pub restarts: usize,
    /// Seed for the restart RNG streams.
    pub seed: u64,
}

impl ElbowConfig {
    /// The paper's configuration: scan `2..=k_max`, 20 restarts.
    pub fn new(k_max: usize, seed: u64) -> Self {
        ElbowConfig { k_max, restarts: 20, seed }
    }
}

/// The outcome of an elbow scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElbowResult {
    /// The selected cluster count.
    pub k: usize,
    /// `(k, mean DBI)` pairs for every candidate — Figure 2's curve.
    pub curve: Vec<(usize, f64)>,
}

/// Scans candidate cluster counts and returns the elbow `k` plus the DBI
/// curve.
///
/// # Errors
///
/// Propagates K-Means errors; rejects `k_max < 2`, zero restarts, or a
/// scan reaching the point count.
pub fn optimal_k(points: &[Vec<f32>], config: ElbowConfig) -> Result<ElbowResult, ClusteringError> {
    if config.k_max < K_MIN {
        return Err(ClusteringError::InvalidParameter(format!(
            "k_max {} must be >= {K_MIN}",
            config.k_max
        )));
    }
    if config.k_max >= points.len() {
        return Err(ClusteringError::InvalidParameter(format!(
            "k_max {} must be < {} points",
            config.k_max,
            points.len()
        )));
    }
    if config.restarts == 0 {
        return Err(ClusteringError::InvalidParameter("restarts must be >= 1".into()));
    }

    // Flatten once; every restart of every candidate k reuses the buffer.
    let prepared = KMeansPoints::new(points)?;
    let runs = (config.k_max - K_MIN + 1) * config.restarts;
    let workers =
        if points.len() * runs >= PARALLEL_POINT_RUNS { parallel::threads(runs) } else { 1 };
    scan(&prepared, config, workers)
}

/// The scan on `workers` threads. Run `(k, t)` draws from its own
/// `derive_seed(seed, k·1000 + t)` stream and each `k`'s scores are summed
/// in `t` order, so the curve's bits do not depend on `workers`.
fn scan(
    points: &KMeansPoints,
    config: ElbowConfig,
    workers: usize,
) -> Result<ElbowResult, ClusteringError> {
    let restarts = config.restarts;
    let runs = (config.k_max - K_MIN + 1) * restarts;
    let scores = parallel::map((0..runs).collect(), workers, |run: usize| {
        let (k, t) = (K_MIN + run / restarts, run % restarts);
        let mut rng = seeded(derive_seed(config.seed, (k * 1000 + t) as u64));
        let clustering = kmeans(&mut rng, points, k)?;
        davies_bouldin_index(points.flat(), &clustering)
    });
    let mut curve = Vec::with_capacity(config.k_max - K_MIN + 1);
    for (k, restart_scores) in (K_MIN..).zip(scores.chunks(restarts)) {
        let mut total = 0.0f64;
        for score in restart_scores {
            total += score.clone()?;
        }
        curve.push((k, total / restarts as f64));
    }
    Ok(ElbowResult { k: pick_elbow(&curve), curve })
}

/// Locates the sharpest slope change of a DBI curve (the elbow).
///
/// The elbow is the interior `k` maximizing the second difference
/// `(dbi(k+1) − dbi(k)) − (dbi(k) − dbi(k−1))` — large exactly where a
/// steep descent turns into a plateau or a rise. If no second difference
/// exceeds [`FLAT_TOLERANCE`] (a flat, elbow-less curve), the first DBI
/// minimum is returned instead.
fn pick_elbow(curve: &[(usize, f64)]) -> usize {
    let argmin = curve
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|&(k, _)| k)
        .expect("non-empty curve");
    if curve.len() < 3 {
        return argmin;
    }
    let mut best: Option<(usize, f64)> = None;
    for w in curve.windows(3) {
        let (_, a) = w[0];
        let (k, b) = w[1];
        let (_, c) = w[2];
        let second_diff = (c - b) - (b - a);
        // Strictly-greater comparison keeps the *first* sharp change on
        // ties, per the paper's wording.
        if best.is_none_or(|(_, v)| second_diff > v) {
            best = Some((k, second_diff));
        }
    }
    match best {
        Some((k, v)) if v > FLAT_TOLERANCE => k,
        _ => argmin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{converge_points, fnv1a, FNV_OFFSET};
    use flips_ml::rng::seeded;
    use rand::Rng;

    /// FNV-1a over a curve's `(k, DBI bits)` pairs.
    fn curve_digest(curve: &[(usize, f64)]) -> u64 {
        curve.iter().fold(FNV_OFFSET, |h, &(k, dbi)| {
            fnv1a(fnv1a(h, &(k as u64).to_le_bytes()), &dbi.to_bits().to_le_bytes())
        })
    }

    #[test]
    fn converge_curve_holds_its_golden() {
        // Captured from the sequential scan over the `X·Cᵀ` GEMM kernel,
        // portable and native builds alike.
        let result = optimal_k(&converge_points(), ElbowConfig::new(30, 7)).unwrap();
        assert_eq!((result.k, curve_digest(&result.curve)), (28, 0x1dd2_ddb3_10d1_5b66));
    }

    #[test]
    fn the_scan_is_bit_identical_on_one_two_and_three_workers() {
        let points = KMeansPoints::new(&converge_points()).unwrap();
        let cfg = ElbowConfig { restarts: 6, ..ElbowConfig::new(30, 7) };
        let one = scan(&points, cfg, 1).unwrap();
        for workers in [2, 3] {
            let many = scan(&points, cfg, workers).unwrap();
            assert_eq!(many.k, one.k, "{workers} workers");
            assert_eq!(curve_digest(&many.curve), curve_digest(&one.curve), "{workers} workers");
        }
    }

    /// Label-distribution-like data: `archetypes` one-hot distributions
    /// over `labels` labels, with small Dirichlet-ish jitter.
    fn archetype_points(archetypes: usize, labels: usize, per: usize) -> Vec<Vec<f32>> {
        let mut rng = seeded(42);
        let mut points = Vec::new();
        for a in 0..archetypes {
            for _ in 0..per {
                let mut p: Vec<f32> = (0..labels).map(|_| rng.random::<f32>() * 0.05).collect();
                p[a % labels] += 1.0;
                let sum: f32 = p.iter().sum();
                for x in &mut p {
                    *x /= sum;
                }
                points.push(p);
            }
        }
        points
    }

    #[test]
    fn recovers_archetype_count() {
        // 6 archetypes over 10 labels, 15 parties each.
        let points = archetype_points(6, 10, 15);
        let result = optimal_k(&points, ElbowConfig::new(15, 7)).unwrap();
        assert!(
            (5..=7).contains(&result.k),
            "expected elbow near 6, got {} (curve {:?})",
            result.k,
            result.curve
        );
    }

    #[test]
    fn curve_covers_requested_range() {
        let points = archetype_points(4, 8, 10);
        let cfg = ElbowConfig { k_max: 9, restarts: 5, seed: 1 };
        let result = optimal_k(&points, cfg).unwrap();
        let ks: Vec<usize> = result.curve.iter().map(|&(k, _)| k).collect();
        assert_eq!(ks, (2..=9).collect::<Vec<_>>());
        assert!(result.curve.iter().all(|&(_, dbi)| dbi.is_finite() && dbi >= 0.0));
    }

    #[test]
    fn dbi_at_archetype_count_is_near_minimum() {
        let points = archetype_points(5, 10, 12);
        let cfg = ElbowConfig { k_max: 12, restarts: 8, seed: 3 };
        let result = optimal_k(&points, cfg).unwrap();
        let dbi_at = |k: usize| {
            result.curve.iter().find(|&&(kk, _)| kk == k).map(|&(_, d)| d).expect("k in curve")
        };
        // DBI at the true k should be dramatically below DBI at k = 2.
        assert!(dbi_at(5) < dbi_at(2) * 0.7, "curve {:?}", result.curve);
    }

    #[test]
    fn deterministic_in_seed() {
        let points = archetype_points(3, 6, 10);
        let cfg = ElbowConfig { k_max: 8, restarts: 4, seed: 5 };
        assert_eq!(optimal_k(&points, cfg).unwrap(), optimal_k(&points, cfg).unwrap());
    }

    #[test]
    fn rejects_bad_configs() {
        let points = archetype_points(3, 6, 4);
        let base = ElbowConfig::new(5, 0);
        assert!(optimal_k(&points, ElbowConfig { k_max: 1, ..base }).is_err());
        assert!(optimal_k(&points, ElbowConfig { k_max: 500, ..base }).is_err());
        assert!(optimal_k(&points, ElbowConfig { restarts: 0, ..base }).is_err());
    }

    #[test]
    fn pick_elbow_flat_curve_returns_first_k() {
        let curve = vec![(2, 1.0), (3, 1.0), (4, 1.0)];
        assert_eq!(pick_elbow(&curve), 2);
    }

    #[test]
    fn pick_elbow_knee_shape() {
        // Steep drop until k = 5, then flat ⇒ elbow at 5.
        let curve =
            vec![(2, 1.00), (3, 0.70), (4, 0.45), (5, 0.20), (6, 0.19), (7, 0.185), (8, 0.18)];
        assert_eq!(pick_elbow(&curve), 5);
    }
}
