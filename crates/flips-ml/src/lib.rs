//! # flips-ml — neural-network training substrate
//!
//! A small, dependency-light machine-learning stack built for the FLIPS
//! reproduction. The paper trains a 1-D CNN (MIT-BIH ECG), DenseNet-121
//! (HAM10000) and LeNet-5 (FEMNIST / FashionMNIST) on GPUs; this crate
//! provides CPU-friendly stand-ins — a configurable multi-layer perceptron
//! (with one layer, `dims = [d, c]`, it is multinomial logistic regression)
//! and a small 1-D CNN — whose accuracy is sensitive to the label
//! distribution of their training data, which is the property the FLIPS
//! evaluation exercises.
//!
//! Design decisions:
//!
//! - **Flat parameter vectors.** Every [`Model`] exposes its
//!   parameters as one flattened `Vec<f32>`. Federated-learning servers
//!   aggregate flat vectors, FedProx adds a proximal pull toward a flat
//!   global vector, and the adaptive server optimizer ([`Adaptive`], one
//!   [`Rule`] each for Yogi/Adam/Adagrad) keeps flat moment estimates.
//!   Flattening once at the model boundary keeps all of that trivial.
//! - **Deterministic by construction.** All randomness flows through caller
//!   supplied [`rand`] RNGs; seeding a simulation reproduces it bit-for-bit.
//! - **Balanced accuracy.** The paper's accuracy metric is the mean of
//!   per-label recalls (its Eq. in §4.4); [`metrics`] implements exactly
//!   that.
//!
//! # Example
//!
//! Build a model from a spec and step it — the flat parameter vector is
//! the entire interface the FL layers aggregate over:
//!
//! ```
//! use flips_ml::model::ModelSpec;
//! use flips_ml::rng::seeded;
//!
//! let spec = ModelSpec::Mlp { dims: vec![4, 8, 3] };
//! let model = spec.build(&mut seeded(7));
//! assert_eq!(model.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
//! assert_eq!(model.params().len(), model.num_params());
//! ```

#![forbid(unsafe_code)]

pub mod activation;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod optimizer;
pub mod parallel;
pub mod rng;

pub use matrix::Matrix;
pub use metrics::{balanced_accuracy, ConfusionMatrix};
pub use model::{Conv1dNet, Mlp, Model};
pub use optimizer::{Adaptive, Rule, Sgd};

/// Errors produced by the ML substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// Two operands had incompatible shapes; the payload describes them.
    ShapeMismatch(String),
    /// A parameter vector had the wrong length for the model it was
    /// assigned to.
    ParamLength { expected: usize, got: usize },
    /// A hyper-parameter was outside its valid domain.
    InvalidHyperparameter(String),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            MlError::ParamLength { expected, got } => {
                write!(f, "parameter vector length {got}, model expects {expected}")
            }
            MlError::InvalidHyperparameter(msg) => {
                write!(f, "invalid hyperparameter: {msg}")
            }
        }
    }
}

impl std::error::Error for MlError {}
