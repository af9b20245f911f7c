//! # flips-core — the FLIPS middleware
//!
//! This crate is the paper's contribution proper: it wires the substrates
//! into the end-to-end system of Figures 3 and 4.
//!
//! - [`middleware`] — **private label-distribution clustering**: parties
//!   attest the aggregator's enclave, provision their label distributions
//!   over secure channels, K-Means++ with the Davies-Bouldin elbow runs
//!   *inside* the enclave, and participant selection (Algorithm 1) is
//!   served from enclave state. The aggregator never observes raw label
//!   distributions or cluster membership.
//! - [`builder`] — one cell of the paper's evaluation grid as data
//!   ([`builder::JobSpec`]), and a one-stop [`builder::SimulationBuilder`]
//!   that stands up the full evaluation pipeline from it (synthetic
//!   dataset → Dirichlet partition → selector → FL job) the way the
//!   paper's experiments do.
//!
//! The substrates are re-exported under stable module names so downstream
//! users depend on one crate:
//!
//! | module | crate |
//! |---|---|
//! | [`ml`] | `flips-ml` |
//! | [`data`] | `flips-data` |
//! | [`clustering`] | `flips-clustering` |
//! | [`tee`] | `flips-tee` |
//! | [`selection`] | `flips-selection` |
//! | [`fl`] | `flips-fl` |

#![forbid(unsafe_code)]

pub use flips_clustering as clustering;
pub use flips_data as data;
pub use flips_fl as fl;
pub use flips_ml as ml;
pub use flips_selection as selection;
pub use flips_tee as tee;

pub mod builder;
pub mod middleware;
pub mod prelude;

pub use builder::{JobSpec, SimulationBuilder, SimulationReport};
pub use middleware::{Ceremony, FlipsMiddleware, MiddlewareConfig, PrivateClustering};

/// Errors produced by the FLIPS middleware.
#[derive(Debug)]
pub enum FlipsError {
    /// A substrate failed during setup or a round.
    Data(flips_data::DataError),
    /// Clustering failed.
    Clustering(flips_clustering::ClusteringError),
    /// TEE attestation, sealing or lifecycle failed.
    Tee(flips_tee::TeeError),
    /// Selection failed.
    Selection(flips_selection::SelectionError),
    /// The FL runtime failed.
    Fl(flips_fl::FlError),
    /// The middleware was configured inconsistently.
    InvalidConfig(String),
    /// The ceremony refused this party's challenge or registration, and
    /// is as it was before the call.
    Refused(flips_selection::PartyId, String),
}

impl std::fmt::Display for FlipsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlipsError::Data(e) => write!(f, "data substrate: {e}"),
            FlipsError::Clustering(e) => write!(f, "clustering substrate: {e}"),
            FlipsError::Tee(e) => write!(f, "tee substrate: {e}"),
            FlipsError::Selection(e) => write!(f, "selection: {e}"),
            FlipsError::Fl(e) => write!(f, "fl runtime: {e}"),
            FlipsError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            FlipsError::Refused(party, why) => write!(f, "ceremony refused party {party}: {why}"),
        }
    }
}

impl std::error::Error for FlipsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlipsError::Data(e) => Some(e),
            FlipsError::Clustering(e) => Some(e),
            FlipsError::Tee(e) => Some(e),
            FlipsError::Selection(e) => Some(e),
            FlipsError::Fl(e) => Some(e),
            FlipsError::InvalidConfig(_) | FlipsError::Refused(..) => None,
        }
    }
}

impl From<flips_data::DataError> for FlipsError {
    fn from(e: flips_data::DataError) -> Self {
        FlipsError::Data(e)
    }
}

impl From<flips_clustering::ClusteringError> for FlipsError {
    fn from(e: flips_clustering::ClusteringError) -> Self {
        FlipsError::Clustering(e)
    }
}

impl From<flips_tee::TeeError> for FlipsError {
    fn from(e: flips_tee::TeeError) -> Self {
        FlipsError::Tee(e)
    }
}

impl From<flips_selection::SelectionError> for FlipsError {
    fn from(e: flips_selection::SelectionError) -> Self {
        FlipsError::Selection(e)
    }
}

impl From<flips_fl::FlError> for FlipsError {
    fn from(e: flips_fl::FlError) -> Self {
        FlipsError::Fl(e)
    }
}
