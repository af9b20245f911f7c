//! # flips-selection — participant-selection policies
//!
//! The paper's evaluation (§4.1) compares five ways of choosing the `Nr`
//! parties that train in each FL round:
//!
//! | policy | module | idea |
//! |---|---|---|
//! | Random | [`random`] | uniform sampling without replacement (FedAvg default) |
//! | **FLIPS** | [`flips`] | Algorithm 1 — equitable round-robin over label-distribution clusters, pick-count fairness, straggler overprovisioning from straggler clusters |
//! | Oort | [`oort`] | Lai et al. (OSDI'21) — statistical × system utility with ε-greedy exploration |
//! | GradClus | [`gradclus`] | Fraboni et al. (ICML'21) — hierarchical clustering of gradient sketches, one pick per cluster |
//! | TiFL | [`tifl`] | Chai et al. (HPDC'20) — latency tiers with credits and adaptive accuracy-driven tier probabilities |
//!
//! All policies implement [`types::ParticipantSelector`]; the FL runtime
//! drives them through a select → train → report loop and is
//! policy-agnostic.
//!
//! # Example
//!
//! Every selector answers the same question — which parties train this
//! round:
//!
//! ```
//! use flips_selection::{ParticipantSelector, RandomSelector};
//!
//! let mut selector = RandomSelector::new(10, 7);
//! let cohort = selector.select(0, 3).unwrap();
//! assert_eq!(cohort.len(), 3);
//! assert!(cohort.iter().all(|&p| p < 10), "cohort drawn from the roster");
//! ```

#![forbid(unsafe_code)]

pub mod flips;
pub mod gradclus;
pub mod oort;
pub mod random;
pub mod streaming;
pub mod tifl;
pub mod types;

pub use flips::FlipsSelector;
pub use gradclus::GradClusSelector;
pub use oort::OortSelector;
pub use random::RandomSelector;
pub use streaming::CandidateSource;
pub use tifl::TiflSelector;
pub use types::{ParticipantSelector, PartyId, RoundFeedback, SelectionError, SelectorKind};
