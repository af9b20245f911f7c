//! # flips-clustering — the clustering substrate
//!
//! FLIPS's core mechanism (§3.1 of the paper) is grouping parties whose
//! label distributions are similar. The subset-enumeration problem it
//! formalizes (Eq. 1) is NP-complete, so the paper — and this crate —
//! solves it heuristically:
//!
//! - [`mod@kmeans`] — Lloyd's algorithm with **k-means++** seeding and
//!   empty-cluster repair: [`kmeans()`]`(rng, &KMeansPoints, k)`, over
//!   points flattened and checked once by [`KMeansPoints::new`];
//! - [`dbi`] — the **Davies-Bouldin index**, the purity metric used to pick
//!   the number of clusters: [`davies_bouldin_index`]`(&FlatPoints,
//!   &Clustering)`;
//! - [`elbow`] — the elbow-point criterion of Eq. (3): run K-Means for
//!   every candidate `k`, average DBI over `T` restarts, pick the first
//!   sharp slope change (Figure 2);
//! - [`hierarchical`] — average-linkage agglomerative clustering over a
//!   row-major `n × n` distance matrix
//!   ([`hierarchical::hierarchical_from_distances`]), the substrate of the
//!   GradClus baseline (Fraboni et al., ICML'21), which builds that matrix
//!   with [`hierarchical::pairwise_cosine_distance`].
//!
//! # Example
//!
//! Two well-separated blobs cluster cleanly at `k = 2`:
//!
//! ```
//! use flips_clustering::{kmeans, KMeansPoints};
//! use flips_ml::rng::seeded;
//!
//! let points =
//!     KMeansPoints::new(&[vec![0.0, 0.0], vec![0.1, 0.0], vec![5.0, 5.0], vec![5.1, 5.0]])
//!         .unwrap();
//! let clustering = kmeans(&mut seeded(7), &points, 2).unwrap();
//! assert_eq!(clustering.assignments[0], clustering.assignments[1]);
//! assert_eq!(clustering.assignments[2], clustering.assignments[3]);
//! assert_ne!(clustering.assignments[0], clustering.assignments[2]);
//! ```

#![forbid(unsafe_code)]

pub mod dbi;
pub mod elbow;
pub mod hierarchical;
pub mod kmeans;
mod testdata;

pub use dbi::davies_bouldin_index;
pub use elbow::{optimal_k, ElbowConfig};
pub use kmeans::{kmeans, Clustering, FlatPoints, KMeansPoints};

/// Errors produced by the clustering substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusteringError {
    /// A parameter was outside its valid domain (k = 0, k > n, ...).
    InvalidParameter(String),
    /// The input points were empty or ragged.
    BadInput(String),
}

impl std::fmt::Display for ClusteringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusteringError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            ClusteringError::BadInput(m) => write!(f, "bad input: {m}"),
        }
    }
}

impl std::error::Error for ClusteringError {}

/// Validates a point set: non-empty, equal dimensions.
pub(crate) fn validate_points(points: &[Vec<f32>]) -> Result<usize, ClusteringError> {
    let first = points.first().ok_or_else(|| ClusteringError::BadInput("no points".into()))?;
    let dim = first.len();
    if dim == 0 {
        return Err(ClusteringError::BadInput("zero-dimensional points".into()));
    }
    if points.iter().any(|p| p.len() != dim) {
        return Err(ClusteringError::BadInput("ragged point dimensions".into()));
    }
    Ok(dim)
}
