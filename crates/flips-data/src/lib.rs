//! # flips-data — synthetic datasets and non-IID partitioning
//!
//! The FLIPS paper evaluates on MIT-BIH ECG, HAM10000, FEMNIST and
//! FashionMNIST, partitioned across 100–200 parties with Dirichlet(α)
//! label allocation (§4.2–4.3). Real datasets cannot ship with this
//! reproduction, so this crate provides:
//!
//! - **class-conditional Gaussian generators** whose *label imbalance*
//!   matches each paper dataset ([`profile`]) — FLIPS's mechanism depends
//!   only on label distributions, so this preserves the evaluated behaviour
//!   (how far the repo checks that claim: `ROADMAP.md` item 6);
//! - the **Dirichlet partitioner** the paper uses to emulate non-IIDness
//!   ([`partition()`]), plus IID and pathological one-label partitioners;
//! - [`LabelDistribution`] — the
//!   semantic party descriptor FLIPS clusters on;
//! - a **balanced global test set** ([`dataset::balanced_test_set`])
//!   mirroring the paper's §4.4 evaluation protocol.
//!
//! # Example
//!
//! Generate a seeded population and split it non-IID across parties:
//!
//! ```
//! use flips_data::dataset::generate_population;
//! use flips_data::{partition, DatasetProfile, PartitionStrategy};
//!
//! let profile = DatasetProfile::femnist().scaled(4, 10);
//! let population = generate_population(&profile, profile.default_total_samples, 7);
//! let parts =
//!     partition(&population, 4, PartitionStrategy::Dirichlet { alpha: 0.5 }, 5, 7).unwrap();
//! assert_eq!(parts.parties.len(), 4);
//! assert!(parts.parties.iter().all(|p| p.len() >= 5), "per-party floor honored");
//! ```

#![forbid(unsafe_code)]

pub mod dataset;
pub mod dist;
pub mod label_distribution;
pub mod partition;
pub mod profile;

pub use dataset::Dataset;
pub use label_distribution::LabelDistribution;
pub use partition::{partition, PartitionStrategy, Partitioned};
pub use profile::DatasetProfile;

/// Errors produced by the data substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A parameter was outside its valid domain.
    InvalidParameter(String),
    /// A partition request could not be satisfied (e.g. more parties than
    /// samples).
    Unsatisfiable(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            DataError::Unsatisfiable(m) => write!(f, "unsatisfiable partition: {m}"),
        }
    }
}

impl std::error::Error for DataError {}
