//! K-Means clustering with k-means++ seeding (paper §3.1).
//!
//! The paper chooses K-Means for its `O(N·k·I·d)` complexity and seeds it
//! with k-means++ (Arthur & Vassilvitskii, SODA'07), noting it scales to
//! millions of parties. This implementation adds empty-cluster repair
//! (re-seeding an empty centroid at the point farthest from its assigned
//! centroid), which matters on the near-discrete label-distribution inputs
//! FLIPS feeds it. A run stops after 100 Lloyd iterations, or sooner once
//! its centroids move at most 1e-6 in total.
//!
//! There is one entry point, [`kmeans`]`(rng, &KMeansPoints, k)`: a
//! caller flattens and checks its points once with [`KMeansPoints::new`]
//! and may then cluster them any number of times.
//!
//! # Hot-path layout
//!
//! Points live in a flat row-major buffer ([`FlatPoints`]) with cached
//! squared norms; [`KMeansPoints`] adds a column-major copy for seeding
//! and admits only finite coordinates. One lane kernel computes every
//! point–centroid distance of a run, eight at a time in fixed-width loops
//! the compiler vectorizes:
//!
//! - **Assignment** (each Lloyd step), centroids in the lanes:
//!   `‖x‖² + ‖c‖² − 2·x·c`, each dot accumulated over the coordinates in
//!   ascending order through `f32::mul_add` from `0.0` — the blocked
//!   GEMM's order, so every score has the bits of the `X·Cᵀ` table this
//!   kernel replaced — and a strict-`<` running minimum per lane. The
//!   lanes reduce by (score, index), which is the scalar sweep's first
//!   minimum. No `n×k` table is formed and the Lloyd loop allocates
//!   nothing.
//! - **The final pass**, same shape over exact distances `√Σ(x − c)²`, so
//!   cancellation error from the expansion never reaches reported
//!   assignments or inertia.
//! - **k-means++ seeding**, points in the lanes through the column-major
//!   copy; each weight is the `f32` distance squared in `f64`, the seed
//!   implementation's rounding.
//!
//! The scalar loops the kernel replaced are its oracle in this module's
//! tests; the seed implementation is retained in `kmeans::reference`
//! (under `cfg(test)`) as the equivalence baseline.

use crate::{validate_points, ClusteringError};
use flips_ml::matrix::euclidean_distance;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Lloyd iterations before a run stops unconverged.
const MAX_ITERS: usize = 100;
/// A run has converged once its centroids move at most this far in total.
const TOLERANCE: f32 = 1e-6;
/// Distances the lane kernel computes per step.
const LANES: usize = 8;

/// A completed clustering: assignments, centroids and diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    /// Cluster id of every input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids, length `k`.
    pub centroids: Vec<Vec<f32>>,
    /// Within-cluster sum of squared distances (inertia).
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Point indices grouped per cluster: `members()[c]` lists the points
    /// assigned to cluster `c`.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.k()];
        for (i, &c) in self.assignments.iter().enumerate() {
            groups[c].push(i);
        }
        groups
    }
}

/// A point set flattened into one row-major buffer with cached squared
/// norms — the clustering hot-path representation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatPoints {
    data: Vec<f32>,
    n: usize,
    dim: usize,
    norms_sq: Vec<f32>,
}

impl FlatPoints {
    /// Flattens a point set, validating its shape.
    ///
    /// # Errors
    ///
    /// Rejects empty or ragged input.
    pub fn new(points: &[Vec<f32>]) -> Result<Self, ClusteringError> {
        let dim = validate_points(points)?;
        let n = points.len();
        let mut data = Vec::with_capacity(n * dim);
        for p in points {
            data.extend_from_slice(p);
        }
        let norms_sq = data.chunks_exact(dim).map(|row| row.iter().map(|x| x * x).sum()).collect();
        Ok(FlatPoints { data, n, dim, norms_sq })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the set is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Point `i` as a slice.
    pub fn point(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Cached squared L2 norm of point `i`.
    pub fn norm_sq(&self, i: usize) -> f32 {
        self.norms_sq[i]
    }
}

/// A point set ready for K-Means: [`FlatPoints`] whose coordinates are
/// all finite, plus the column-major copy k-means++ seeding reads.
///
/// Build once, cluster many times (the elbow scan runs `restarts ×
/// (k_max − 1)` K-Means passes over the same points).
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansPoints {
    flat: FlatPoints,
    /// `columns[d·blocks + b]` holds coordinate `d` of points
    /// `b·8 .. b·8 + 8`, the last block zero-padded: the seeding kernel's
    /// points-in-lanes layout.
    columns: Vec<[f32; LANES]>,
}

impl KMeansPoints {
    /// Flattens a point set for K-Means, validating it.
    ///
    /// # Errors
    ///
    /// Rejects empty or ragged input and non-finite coordinates: a NaN or
    /// ±∞ would drag every run to its iteration cap and every k-means++
    /// draw to the last point.
    pub fn new(points: &[Vec<f32>]) -> Result<Self, ClusteringError> {
        let flat = FlatPoints::new(points)?;
        if flat.data.iter().any(|x| !x.is_finite()) {
            return Err(ClusteringError::BadInput("non-finite coordinate".into()));
        }
        let blocks = flat.n.div_ceil(LANES);
        let mut columns = vec![[0.0; LANES]; flat.dim * blocks];
        for (i, p) in flat.data.chunks_exact(flat.dim).enumerate() {
            for (column, &v) in columns.chunks_exact_mut(blocks).zip(p) {
                column[i / LANES][i % LANES] = v;
            }
        }
        Ok(KMeansPoints { flat, columns })
    }

    /// The flattened points.
    pub fn flat(&self) -> &FlatPoints {
        &self.flat
    }

    /// Lowers each `d2[i]` to point `i`'s k-means++ weight against the
    /// centroid `c` — the `f32` Euclidean distance, squared in `f64` —
    /// eight points at a time.
    fn lower_sq_distances(&self, c: &[f32], d2: &mut [f64]) {
        let blocks = self.flat.n.div_ceil(LANES);
        for (b, slots) in d2.chunks_mut(LANES).enumerate() {
            let mut sum = [0.0f32; LANES];
            for (column, &cd) in self.columns.chunks_exact(blocks).zip(c) {
                let xs = &column[b];
                for l in 0..LANES {
                    let t = xs[l] - cd;
                    sum[l] += t * t;
                }
            }
            for (slot, s) in slots.iter_mut().zip(sum) {
                let d = f64::from(s.sqrt());
                *slot = slot.min(d * d);
            }
        }
    }
}

/// Runs k-means++ seeding followed by Lloyd iterations into `k` clusters
/// over a prepared point set (shape and finiteness are checked once, by
/// [`KMeansPoints::new`]).
///
/// # Errors
///
/// Rejects `k` outside `1..=n`.
pub fn kmeans<R: Rng + ?Sized>(
    rng: &mut R,
    points: &KMeansPoints,
    k: usize,
) -> Result<Clustering, ClusteringError> {
    let n = points.flat.len();
    let dim = points.flat.dim();
    if k == 0 || k > n {
        return Err(ClusteringError::InvalidParameter(format!("k = {k} must be in 1..={n}")));
    }

    let mut centroids = plus_plus_seed(rng, points, k);
    let points = &points.flat;
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;

    // Reused per-iteration buffers: the Lloyd loop allocates nothing.
    let mut lanes = LaneCentroids::new(k, dim);
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];

    for iter in 0..MAX_ITERS {
        iterations = iter + 1;

        // Assignment step: the first minimum of ‖x‖² + ‖c‖² − 2·x·c.
        lanes.load(&centroids);
        for (i, slot) in assignments.iter_mut().enumerate() {
            *slot = lanes.nearest_expanded(points.point(i), points.norm_sq(i));
        }

        // Update step (f64 accumulation, as the seed implementation).
        sums.fill(0.0);
        counts.fill(0);
        for (i, &c) in assignments.iter().enumerate() {
            counts[c] += 1;
            let p = points.point(i);
            for (s, &v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(p) {
                *s += v as f64;
            }
        }
        let mut movement = 0.0f32;
        for c in 0..k {
            if counts[c] == 0 {
                // Empty-cluster repair: re-seed at the point farthest from
                // its current centroid (exact distances — this is rare).
                let far = (0..n)
                    .max_by(|&i, &j| {
                        let di = euclidean_distance(
                            points.point(i),
                            &centroids[assignments[i] * dim..(assignments[i] + 1) * dim],
                        );
                        let dj = euclidean_distance(
                            points.point(j),
                            &centroids[assignments[j] * dim..(assignments[j] + 1) * dim],
                        );
                        di.partial_cmp(&dj).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("non-empty points");
                movement +=
                    euclidean_distance(&centroids[c * dim..(c + 1) * dim], points.point(far));
                centroids[c * dim..(c + 1) * dim].copy_from_slice(points.point(far));
                continue;
            }
            // Divide (not multiply-by-reciprocal): bit-identical to the
            // reference implementation's `s / count` rounding.
            let count = counts[c] as f64;
            let mut delta_sq = 0.0f32;
            for (slot, &s) in centroids[c * dim..(c + 1) * dim].iter_mut().zip(&sums[c * dim..]) {
                let new = (s / count) as f32;
                delta_sq += (*slot - new) * (*slot - new);
                *slot = new;
            }
            movement += delta_sq.sqrt();
        }
        if movement <= TOLERANCE {
            break;
        }
    }

    // Final assignment against the converged centroids, plus inertia —
    // exact distances so cancellation error from the expansion never
    // reaches reported results.
    lanes.load(&centroids);
    let mut inertia = 0.0f64;
    for (i, slot) in assignments.iter_mut().enumerate() {
        let (c, d) = lanes.nearest_exact(points.point(i));
        *slot = c;
        inertia += (d as f64) * (d as f64);
    }

    let centroids = centroids.chunks_exact(dim).map(<[f32]>::to_vec).collect();
    Ok(Clustering { assignments, centroids, inertia, iterations })
}

/// k-means++ seeding: first centroid uniform, each next centroid sampled
/// with probability proportional to squared distance from the nearest
/// chosen centroid. Consumes the RNG stream exactly like the seed
/// implementation, so fixed seeds reproduce historic runs.
fn plus_plus_seed<R: Rng + ?Sized>(rng: &mut R, points: &KMeansPoints, k: usize) -> Vec<f32> {
    let n = points.flat.len();
    let dim = points.flat.dim();
    let mut centroids: Vec<f32> = Vec::with_capacity(k * dim);
    centroids.extend_from_slice(points.flat.point(rng.random_range(0..n)));
    let mut d2 = vec![f64::INFINITY; n];
    points.lower_sq_distances(&centroids, &mut d2);
    while centroids.len() < k * dim {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids; any point works.
            rng.random_range(0..n)
        } else {
            let mut t = rng.random::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                t -= w;
                if t <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.extend_from_slice(points.flat.point(next));
        points.lower_sq_distances(&centroids[centroids.len() - dim..], &mut d2);
    }
    centroids
}

/// Centroids laid out for the lane kernel: `coords[b·dim + d]` holds
/// coordinate `d` of centroids `b·8 .. b·8 + 8`. The last block's lanes
/// past `k` hold `+∞` coordinates and norms, so both kernels score them
/// `+∞` or NaN and they never win a strict `<`.
struct LaneCentroids {
    dim: usize,
    coords: Vec<[f32; LANES]>,
    norms_sq: Vec<[f32; LANES]>,
}

impl LaneCentroids {
    fn new(k: usize, dim: usize) -> Self {
        assert!(u32::try_from(k).is_ok(), "k = {k} overflows a lane index");
        let blocks = k.div_ceil(LANES);
        let padding = [f32::INFINITY; LANES];
        LaneCentroids { dim, coords: vec![padding; blocks * dim], norms_sq: vec![padding; blocks] }
    }

    /// Loads `k × dim` row-major centroids and their squared norms.
    fn load(&mut self, centroids: &[f32]) {
        for (c, row) in centroids.chunks_exact(self.dim).enumerate() {
            let (b, l) = (c / LANES, c % LANES);
            for (lanes, &v) in self.coords[b * self.dim..].iter_mut().zip(row) {
                lanes[l] = v;
            }
            self.norms_sq[b][l] = row.iter().map(|x| x * x).sum();
        }
    }

    /// The centroid with the least `‖x‖² + ‖c‖² − 2·x·c`, the first on ties.
    fn nearest_expanded(&self, x: &[f32], x_norm_sq: f32) -> usize {
        self.first_min(|block, norms_sq| {
            let mut dot = [0.0f32; LANES];
            for (&xd, c) in x.iter().zip(block) {
                for l in 0..LANES {
                    dot[l] = xd.mul_add(c[l], dot[l]);
                }
            }
            std::array::from_fn(|l| x_norm_sq + norms_sq[l] - 2.0 * dot[l])
        })
        .0
    }

    /// The nearest centroid by exact Euclidean distance, the first on
    /// ties, and that distance.
    fn nearest_exact(&self, x: &[f32]) -> (usize, f32) {
        self.first_min(|block, _| {
            let mut sum = [0.0f32; LANES];
            for (&xd, c) in x.iter().zip(block) {
                for l in 0..LANES {
                    let t = xd - c[l];
                    sum[l] += t * t;
                }
            }
            sum.map(f32::sqrt)
        })
    }

    /// The first minimum of `score` over all centroids, and its value.
    /// `score` maps one block's coordinates and squared norms to its eight
    /// scores; each lane keeps a branch-free strict-`<` running minimum,
    /// and the lanes reduce by (score, index) — the scalar sweep's answer.
    fn first_min(
        &self,
        score: impl Fn(&[[f32; LANES]], &[f32; LANES]) -> [f32; LANES],
    ) -> (usize, f32) {
        let mut best = [f32::INFINITY; LANES];
        let mut arg = [0u32; LANES];
        let blocks = self.coords.chunks_exact(self.dim).zip(&self.norms_sq);
        for (base, (block, norms_sq)) in (0..).step_by(LANES).zip(blocks) {
            let s = score(block, norms_sq);
            for l in 0..LANES {
                let better = s[l] < best[l];
                best[l] = if better { s[l] } else { best[l] };
                arg[l] = if better { base + l as u32 } else { arg[l] };
            }
        }
        let mut win = (arg[0], best[0]);
        for l in 1..LANES {
            if best[l] < win.1 || (best[l] == win.1 && arg[l] < win.0) {
                win = (arg[l], best[l]);
            }
        }
        (win.0 as usize, win.1)
    }
}

/// The seed's `Vec<Vec<f32>>` implementation, retained as the behavioral
/// baseline for equivalence tests and benchmarks.
#[cfg(test)]
mod reference {
    use super::{Clustering, MAX_ITERS, TOLERANCE};
    use crate::{validate_points, ClusteringError};
    use flips_ml::matrix::euclidean_distance;
    use rand::Rng;

    /// The seed implementation of [`super::kmeans`].
    ///
    /// # Errors
    ///
    /// As [`super::kmeans`].
    pub fn kmeans<R: Rng + ?Sized>(
        rng: &mut R,
        points: &[Vec<f32>],
        k: usize,
    ) -> Result<Clustering, ClusteringError> {
        let dim = validate_points(points)?;
        let n = points.len();
        if k == 0 || k > n {
            return Err(ClusteringError::InvalidParameter(format!("k = {k} must be in 1..={n}")));
        }

        let mut centroids = plus_plus_seed(rng, points, k);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;

        for iter in 0..MAX_ITERS {
            iterations = iter + 1;
            for (i, p) in points.iter().enumerate() {
                assignments[i] = nearest(p, &centroids).0;
            }
            let mut sums = vec![vec![0.0f64; dim]; k];
            let mut counts = vec![0usize; k];
            for (p, &c) in points.iter().zip(&assignments) {
                counts[c] += 1;
                for (s, &v) in sums[c].iter_mut().zip(p) {
                    *s += v as f64;
                }
            }
            let mut movement = 0.0f32;
            for c in 0..k {
                if counts[c] == 0 {
                    let far = points
                        .iter()
                        .enumerate()
                        .max_by(|(i, p), (j, q)| {
                            let di = euclidean_distance(p, &centroids[assignments[*i]]);
                            let dj = euclidean_distance(q, &centroids[assignments[*j]]);
                            di.partial_cmp(&dj).unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(i, _)| i)
                        .expect("non-empty points");
                    movement += euclidean_distance(&centroids[c], &points[far]);
                    centroids[c] = points[far].clone();
                    continue;
                }
                let new: Vec<f32> =
                    sums[c].iter().map(|&s| (s / counts[c] as f64) as f32).collect();
                movement += euclidean_distance(&centroids[c], &new);
                centroids[c] = new;
            }
            if movement <= TOLERANCE {
                break;
            }
        }

        let mut inertia = 0.0f64;
        for (i, p) in points.iter().enumerate() {
            let (c, d) = nearest(p, &centroids);
            assignments[i] = c;
            inertia += (d as f64) * (d as f64);
        }

        Ok(Clustering { assignments, centroids, inertia, iterations })
    }

    fn plus_plus_seed<R: Rng + ?Sized>(
        rng: &mut R,
        points: &[Vec<f32>],
        k: usize,
    ) -> Vec<Vec<f32>> {
        let n = points.len();
        let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
        centroids.push(points[rng.random_range(0..n)].clone());
        let mut d2: Vec<f64> = points
            .iter()
            .map(|p| {
                let d = euclidean_distance(p, &centroids[0]) as f64;
                d * d
            })
            .collect();
        while centroids.len() < k {
            let total: f64 = d2.iter().sum();
            let next = if total <= 0.0 {
                rng.random_range(0..n)
            } else {
                let mut t = rng.random::<f64>() * total;
                let mut chosen = n - 1;
                for (i, &w) in d2.iter().enumerate() {
                    t -= w;
                    if t <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            centroids.push(points[next].clone());
            for (i, p) in points.iter().enumerate() {
                let d = euclidean_distance(p, centroids.last().expect("non-empty")) as f64;
                d2[i] = d2[i].min(d * d);
            }
        }
        centroids
    }

    /// Index and distance of the nearest centroid.
    pub(crate) fn nearest(point: &[f32], centroids: &[Vec<f32>]) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        for (c, centroid) in centroids.iter().enumerate() {
            let d = euclidean_distance(point, centroid);
            if d < best.1 {
                best = (c, d);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{converge_points, dirichlet_points, fnv1a, FNV_OFFSET};
    use flips_ml::rng::seeded;
    use proptest::prelude::*;

    /// FNV-1a over everything a run reports: assignments, centroid bits,
    /// inertia bits and the iteration count.
    fn digest(c: &Clustering) -> u64 {
        let mut h = FNV_OFFSET;
        for &a in &c.assignments {
            h = fnv1a(h, &(a as u64).to_le_bytes());
        }
        for x in c.centroids.iter().flatten() {
            h = fnv1a(h, &x.to_bits().to_le_bytes());
        }
        h = fnv1a(h, &c.inertia.to_bits().to_le_bytes());
        fnv1a(h, &(c.iterations as u64).to_le_bytes())
    }

    #[test]
    fn kmeans_holds_its_golden() {
        // Captured from the `X·Cᵀ` GEMM + argmin implementation, portable
        // and native builds alike: k ∈ {2, 16, 30} × seeds 1–3 over the
        // ECG cell's 200 label distributions, then over 10⁴ Dirichlet(0.3)
        // points in 10 labels.
        const GOLDEN: [[u64; 9]; 2] = [
            [
                0xe65f_a93a_a585_caeb,
                0x896f_541f_84b7_ec88,
                0xb9cd_d5d1_a145_0a32,
                0x62f9_d044_93ea_99a7,
                0xc5cc_7530_5acb_81cc,
                0xc988_83c6_bd82_7fda,
                0x629d_db62_136d_79be,
                0x6236_ef83_19e2_f4da,
                0x8f01_758c_f64a_dfb2,
            ],
            [
                0x4509_1d97_7925_46da,
                0xb322_e5e6_402a_8b83,
                0x7e26_8a20_5627_ab0d,
                0xf6b9_4daf_7fab_d7f0,
                0x1d83_83b5_8c56_03aa,
                0xd6d5_ed27_9914_11c8,
                0x47f3_2404_d333_3af3,
                0x6f57_3d86_482f_db2d,
                0x3b8e_29cc_ce9e_df96,
            ],
        ];
        for (points, golden) in [converge_points(), dirichlet_points(10_000, 3)].iter().zip(GOLDEN)
        {
            let prepared = KMeansPoints::new(points).unwrap();
            let mut got = Vec::new();
            for k in [2, 16, 30] {
                for seed in 1..=3 {
                    got.push(digest(&kmeans(&mut seeded(seed), &prepared, k).unwrap()));
                }
            }
            assert_eq!(got, golden, "{} points", points.len());
        }
    }

    /// The scalar loops the lane kernel replaced, kept as its oracle.
    mod scalar {
        use flips_ml::matrix::euclidean_distance;

        /// The argmin sweep over a row of `X·Cᵀ`, each dot the blocked
        /// GEMM's ascending `mul_add` chain from `0.0`.
        pub fn nearest_expanded(x: &[f32], x_norm_sq: f32, centroids: &[f32], dim: usize) -> usize {
            let mut best = (0usize, f32::INFINITY);
            for (c, row) in centroids.chunks_exact(dim).enumerate() {
                let dot = x.iter().zip(row).fold(0.0f32, |acc, (&a, &b)| a.mul_add(b, acc));
                let norm_sq: f32 = row.iter().map(|v| v * v).sum();
                let d2 = x_norm_sq + norm_sq - 2.0 * dot;
                if d2 < best.1 {
                    best = (c, d2);
                }
            }
            best.0
        }

        /// Index and exact distance of the nearest centroid.
        pub fn nearest_exact(x: &[f32], centroids: &[f32], dim: usize) -> (usize, f32) {
            let mut best = (0usize, f32::INFINITY);
            for (c, centroid) in centroids.chunks_exact(dim).enumerate() {
                let d = euclidean_distance(x, centroid);
                if d < best.1 {
                    best = (c, d);
                }
            }
            best
        }

        /// A k-means++ weight: the distance, squared in `f64`.
        pub fn seed_weight(x: &[f32], c: &[f32]) -> f64 {
            let d = euclidean_distance(x, c) as f64;
            d * d
        }
    }

    /// A coordinate on a quarter grid (equal distances, hence ties, are
    /// common) or uniform in [−1, 1) (rounding is exercised).
    fn coordinate(rng: &mut impl Rng, grid: bool) -> f32 {
        if grid {
            rng.random_range(0..4u32) as f32 * 0.25
        } else {
            rng.random::<f32>() * 2.0 - 1.0
        }
    }

    #[test]
    fn lane_kernel_matches_the_scalar_loops_bit_for_bit() {
        let mut rng = seeded(11);
        let mut ties = 0;
        for grid in [true, false] {
            for dim in [1, 2, 5, 10, 17] {
                for k in [1, 2, 7, 8, 9, 16, 30, 33] {
                    // 41 points: five whole lane blocks and a tail.
                    let n = 41;
                    let points: Vec<Vec<f32>> = (0..n)
                        .map(|_| (0..dim).map(|_| coordinate(&mut rng, grid)).collect())
                        .collect();
                    let centroids: Vec<f32> =
                        (0..k * dim).map(|_| coordinate(&mut rng, grid)).collect();
                    let prepared = KMeansPoints::new(&points).unwrap();
                    let mut lanes = LaneCentroids::new(k, dim);
                    lanes.load(&centroids);
                    let (first, last) = (&centroids[..dim], &centroids[(k - 1) * dim..]);
                    let mut d2 = vec![f64::INFINITY; n];
                    prepared.lower_sq_distances(first, &mut d2);
                    prepared.lower_sq_distances(last, &mut d2);
                    for (i, x) in points.iter().enumerate() {
                        let at = format!("grid {grid}, dim {dim}, k {k}, point {i}");
                        let norm = prepared.flat().norm_sq(i);
                        assert_eq!(
                            lanes.nearest_expanded(x, norm),
                            scalar::nearest_expanded(x, norm, &centroids, dim),
                            "{at}"
                        );
                        let (c, d) = lanes.nearest_exact(x);
                        let (sc, sd) = scalar::nearest_exact(x, &centroids, dim);
                        assert_eq!((c, d.to_bits()), (sc, sd.to_bits()), "{at}");
                        let weight =
                            scalar::seed_weight(x, first).min(scalar::seed_weight(x, last));
                        assert_eq!(d2[i].to_bits(), weight.to_bits(), "{at}");
                        let nearest = centroids.chunks_exact(dim);
                        if nearest.filter(|c| euclidean_distance(x, c) == sd).count() > 1 {
                            ties += 1;
                        }
                    }
                }
            }
        }
        assert!(ties > 100, "the grid must produce ties, got {ties}");
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let points = vec![vec![0.0, 1.0], vec![1.0, bad], vec![0.5, 0.5]];
            let prepared = KMeansPoints::new(&points);
            assert!(matches!(prepared, Err(ClusteringError::BadInput(_))), "{bad}");
            // Shape is all `FlatPoints` checks: the pairwise matrix
            // GradClus builds from reported sketches still takes them.
            assert!(FlatPoints::new(&points).is_ok(), "{bad}");
            let elbow = crate::optimal_k(&points, crate::ElbowConfig::new(2, 7));
            assert!(matches!(elbow, Err(ClusteringError::BadInput(_))), "{bad}");
        }
    }

    /// Three tight, well-separated blobs in 2-D.
    fn three_blobs() -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = seeded(1);
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut points = Vec::new();
        let mut truth = Vec::new();
        for (label, c) in centers.iter().enumerate() {
            for _ in 0..30 {
                points.push(vec![
                    c[0] + flips_ml::rng::normal(&mut rng, 0.0, 0.3) as f32,
                    c[1] + flips_ml::rng::normal(&mut rng, 0.0, 0.3) as f32,
                ]);
                truth.push(label);
            }
        }
        (points, truth)
    }

    /// Fraction of point pairs on which two labelings agree (Rand index).
    fn rand_index(a: &[usize], b: &[usize]) -> f64 {
        let n = a.len();
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                total += 1;
                if (a[i] == a[j]) == (b[i] == b[j]) {
                    agree += 1;
                }
            }
        }
        agree as f64 / total as f64
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (points, truth) = three_blobs();
        let result = kmeans(&mut seeded(2), &KMeansPoints::new(&points).unwrap(), 3).unwrap();
        assert!(rand_index(&result.assignments, &truth) > 0.99);
        assert_eq!(result.assignments.len(), points.len());
    }

    #[test]
    fn inertia_decreases_with_k() {
        let (points, _) = three_blobs();
        let prepared = KMeansPoints::new(&points).unwrap();
        let mut inertias = Vec::new();
        for k in 1..=5 {
            inertias.push(kmeans(&mut seeded(3), &prepared, k).unwrap().inertia);
        }
        for w in inertias.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "inertia must be non-increasing: {inertias:?}");
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let points: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32 * 3.0, -(i as f32)]).collect();
        let result = kmeans(&mut seeded(4), &KMeansPoints::new(&points).unwrap(), 6).unwrap();
        assert!(result.inertia < 1e-9);
        assert!(result.members().iter().all(|m| m.len() == 1));
    }

    #[test]
    fn handles_duplicate_points() {
        let points = KMeansPoints::new(&vec![vec![1.0, 1.0]; 10]).unwrap();
        let result = kmeans(&mut seeded(5), &points, 3).unwrap();
        assert_eq!(result.assignments.len(), 10);
        assert!(result.inertia < 1e-9);
    }

    #[test]
    fn rejects_invalid_k() {
        let points = KMeansPoints::new(&[vec![0.0], vec![1.0]]).unwrap();
        let mut rng = seeded(6);
        assert!(kmeans(&mut rng, &points, 0).is_err());
        assert!(kmeans(&mut rng, &points, 3).is_err());
    }

    #[test]
    fn rejects_empty_and_ragged_input() {
        assert!(KMeansPoints::new(&[]).is_err());
        assert!(KMeansPoints::new(&[vec![0.0], vec![0.0, 1.0]]).is_err());
    }

    #[test]
    fn is_seed_deterministic() {
        let points = KMeansPoints::new(&three_blobs().0).unwrap();
        let a = kmeans(&mut seeded(8), &points, 3).unwrap();
        let b = kmeans(&mut seeded(8), &points, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn members_partition_points() {
        let points = KMeansPoints::new(&three_blobs().0).unwrap();
        let result = kmeans(&mut seeded(9), &points, 3).unwrap();
        let mut all: Vec<usize> = result.members().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..points.flat().len()).collect::<Vec<_>>());
    }

    #[test]
    fn assignments_match_nearest_centroid() {
        let (points, _) = three_blobs();
        let result = kmeans(&mut seeded(10), &KMeansPoints::new(&points).unwrap(), 3).unwrap();
        for (p, &c) in points.iter().zip(&result.assignments) {
            let (nearest_c, _) = reference::nearest(p, &result.centroids);
            assert_eq!(c, nearest_c);
        }
    }

    #[test]
    fn flat_and_reference_agree_on_blobs() {
        let (points, _) = three_blobs();
        let prepared = KMeansPoints::new(&points).unwrap();
        for seed in 0..8 {
            let flat = kmeans(&mut seeded(seed), &prepared, 3).unwrap();
            let refr = reference::kmeans(&mut seeded(seed), &points, 3).unwrap();
            assert_eq!(flat.assignments, refr.assignments, "seed {seed}");
            assert!((flat.inertia - refr.inertia).abs() < 1e-3);
        }
    }

    #[test]
    fn flat_points_expose_layout() {
        let points = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let flat = FlatPoints::new(&points).unwrap();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.dim(), 2);
        assert_eq!(flat.point(1), &[3.0, 4.0]);
        assert_eq!(flat.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert!((flat.norm_sq(1) - 25.0).abs() < 1e-6);
    }

    /// Gaussian blobs with centers far apart relative to their spread, so
    /// nearest-centroid decisions never ride on float rounding.
    fn blobs(seed: u64, archetypes: usize, dim: usize, per: usize, spread: f64) -> Vec<Vec<f32>> {
        let mut rng = seeded(seed);
        let mut centers = Vec::new();
        for a in 0..archetypes {
            let mut c = vec![0.0f32; dim];
            c[a % dim] = 40.0 + 10.0 * (a / dim) as f32;
            centers.push(c);
        }
        let mut points = Vec::new();
        for c in &centers {
            for _ in 0..per {
                points.push(
                    c.iter()
                        .map(|&x| x + flips_ml::rng::normal(&mut rng, 0.0, spread) as f32)
                        .collect(),
                );
            }
        }
        points
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn flat_kmeans_assignments_match_seed_implementation(
            seed in 0u64..10_000,
            archetypes in 2usize..6,
            dim in 2usize..10,
            per in 3usize..12,
        ) {
            let points = blobs(seed, archetypes, dim, per, 0.6);
            let k = archetypes.min(points.len());
            let prepared = KMeansPoints::new(&points).unwrap();
            let flat = kmeans(&mut seeded(seed ^ 0xF1A7), &prepared, k).unwrap();
            let refr = reference::kmeans(&mut seeded(seed ^ 0xF1A7), &points, k).unwrap();
            // Identical RNG stream + well-separated data ⇒ identical
            // trajectories: assignments must agree exactly.
            prop_assert_eq!(&flat.assignments, &refr.assignments);
            prop_assert_eq!(flat.iterations, refr.iterations);
            prop_assert!(
                (flat.inertia - refr.inertia).abs() <= 1e-3 * (1.0 + refr.inertia),
                "inertia {} vs {}", flat.inertia, refr.inertia
            );
            for (a, b) in flat.centroids.iter().zip(&refr.centroids) {
                prop_assert!(euclidean_distance(a, b) < 1e-3);
            }
        }
    }
}
