//! Dataset profiles mirroring the paper's four evaluation datasets (§4.2).
//!
//! A [`DatasetProfile`] bundles the *statistical shape* of a dataset — class
//! count, class imbalance, feature dimensionality, difficulty — with the
//! experiment defaults the paper used for it (party count, round budget,
//! target accuracy, model architecture, learning-rate schedule). The
//! generators in [`crate::dataset`] consume the shape; the benchmark
//! harness consumes the defaults.

use flips_ml::model::ModelSpec;
use flips_ml::optimizer::StepDecay;
use serde::{Deserialize, Serialize};

/// The statistical and experimental description of one evaluation dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Short identifier, e.g. `"mit-bih-ecg"`.
    pub name: String,
    /// Number of labels.
    pub classes: usize,
    /// Global class prior (sums to 1); encodes the dataset's imbalance.
    pub class_priors: Vec<f64>,
    /// Human-readable label names, parallel to `class_priors`.
    pub label_names: Vec<String>,
    /// Feature dimensionality of the synthetic stand-in.
    pub feature_dim: usize,
    /// Distance of each class mean from the origin (task separability).
    pub separation: f64,
    /// Standard deviation of the within-class Gaussian noise.
    pub noise_std: f64,
    /// Model architecture the paper trains on this dataset (stand-in).
    pub model: ModelSpec,
    /// Number of parties the paper partitions this dataset across.
    pub default_parties: usize,
    /// Total synthetic samples to generate at the default scale.
    pub default_total_samples: usize,
    /// FL round budget (the paper's threshold for "rounds to target").
    pub max_rounds: usize,
    /// Target balanced accuracy (fraction, e.g. 0.60) for
    /// "rounds-to-target" tables.
    pub target_accuracy: f64,
    /// Client learning-rate schedule (the paper decays every 20–30 rounds).
    pub lr_schedule: StepDecay,
    /// Local iterations τ per round.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
}

impl DatasetProfile {
    /// MIT-BIH ECG stand-in: 5 AAMI beat classes dominated by normal (`N`)
    /// beats — the paper's motivating arrhythmia-detection workload.
    ///
    /// Class priors follow the MIT-BIH beat census (≈89% `N`).
    pub fn ecg() -> Self {
        DatasetProfile {
            name: "mit-bih-ecg".into(),
            classes: 5,
            class_priors: vec![0.890, 0.025, 0.065, 0.008, 0.012],
            label_names: vec!["N".into(), "S".into(), "V".into(), "F".into(), "Q".into()],
            feature_dim: 32,
            separation: 1.8,
            noise_std: 1.0,
            model: ModelSpec::Conv1d { len: 32, kernel: 5, filters: 8, classes: 5 },
            default_parties: 200,
            default_total_samples: 40_000,
            max_rounds: 400,
            target_accuracy: 0.60,
            lr_schedule: StepDecay { initial: 0.03, factor: 0.85, every: 20 },
            local_epochs: 5,
            batch_size: 32,
        }
    }

    /// HAM10000 skin-lesion stand-in: 7 diagnostic categories dominated by
    /// `nv` (melanocytic nevi, ≈67%).
    pub fn ham10000() -> Self {
        DatasetProfile {
            name: "ham10000".into(),
            classes: 7,
            class_priors: vec![0.033, 0.051, 0.110, 0.011, 0.111, 0.670, 0.014],
            label_names: vec![
                "akiec".into(),
                "bcc".into(),
                "bkl".into(),
                "df".into(),
                "mel".into(),
                "nv".into(),
                "vasc".into(),
            ],
            feature_dim: 24,
            separation: 1.8,
            noise_std: 1.0,
            model: ModelSpec::Mlp { dims: vec![24, 32, 7] },
            default_parties: 200,
            default_total_samples: 40_000,
            max_rounds: 400,
            target_accuracy: 0.60,
            lr_schedule: StepDecay { initial: 0.03, factor: 0.85, every: 30 },
            local_epochs: 5,
            batch_size: 32,
        }
    }

    /// FEMNIST stand-in: 10 near-balanced handwritten-character classes
    /// ('a'–'j' subsample). The paper notes this dataset is "more IID".
    pub fn femnist() -> Self {
        DatasetProfile {
            name: "femnist".into(),
            classes: 10,
            class_priors: vec![
                0.104, 0.098, 0.101, 0.097, 0.103, 0.099, 0.102, 0.096, 0.100, 0.100,
            ],
            label_names: ('a'..='j').map(|c| c.to_string()).collect(),
            feature_dim: 16,
            separation: 2.5,
            noise_std: 1.0,
            model: ModelSpec::Mlp { dims: vec![16, 24, 10] },
            default_parties: 200,
            default_total_samples: 40_000,
            max_rounds: 200,
            target_accuracy: 0.80,
            lr_schedule: StepDecay { initial: 0.05, factor: 0.7, every: 50 },
            local_epochs: 2,
            batch_size: 32,
        }
    }

    /// FashionMNIST stand-in: 10 perfectly balanced clothing classes,
    /// partitioned across 100 parties (§4.2).
    pub fn fashion_mnist() -> Self {
        DatasetProfile {
            name: "fashion-mnist".into(),
            classes: 10,
            class_priors: vec![0.1; 10],
            label_names: vec![
                "t-shirt".into(),
                "trouser".into(),
                "pullover".into(),
                "dress".into(),
                "coat".into(),
                "sandal".into(),
                "shirt".into(),
                "sneaker".into(),
                "bag".into(),
                "boot".into(),
            ],
            feature_dim: 16,
            separation: 2.5,
            noise_std: 1.0,
            model: ModelSpec::Mlp { dims: vec![16, 24, 10] },
            default_parties: 100,
            default_total_samples: 30_000,
            max_rounds: 200,
            target_accuracy: 0.80,
            lr_schedule: StepDecay { initial: 0.05, factor: 0.7, every: 50 },
            local_epochs: 2,
            batch_size: 32,
        }
    }

    /// All four paper profiles, in the order the paper lists them.
    pub fn all() -> Vec<DatasetProfile> {
        vec![Self::ecg(), Self::ham10000(), Self::femnist(), Self::fashion_mnist()]
    }

    /// Looks a profile up by its `name`.
    pub fn by_name(name: &str) -> Option<DatasetProfile> {
        Self::all().into_iter().find(|p| p.name == name)
    }

    /// Returns a copy scaled down for fast test/bench runs: `parties`
    /// parties, proportionally fewer samples, `rounds` round budget.
    #[must_use]
    pub fn scaled(&self, parties: usize, rounds: usize) -> DatasetProfile {
        let mut p = self.clone();
        let per_party = self.default_total_samples / self.default_parties.max(1);
        p.default_parties = parties;
        p.default_total_samples = per_party * parties;
        p.max_rounds = rounds;
        p
    }

    /// Validates internal consistency (priors sum to 1, the model can be
    /// built, dims agree).
    pub fn validate(&self) -> Result<(), crate::DataError> {
        if self.class_priors.len() != self.classes {
            return Err(crate::DataError::InvalidParameter(format!(
                "{} priors for {} classes",
                self.class_priors.len(),
                self.classes
            )));
        }
        let sum: f64 = self.class_priors.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(crate::DataError::InvalidParameter(format!(
                "class priors sum to {sum}, expected 1"
            )));
        }
        if self.class_priors.iter().any(|&p| p < 0.0) {
            return Err(crate::DataError::InvalidParameter("negative class prior".into()));
        }
        self.model.validate().map_err(|e| crate::DataError::InvalidParameter(e.to_string()))?;
        if self.model.num_classes() != self.classes {
            return Err(crate::DataError::InvalidParameter(
                "model class count disagrees with profile".into(),
            ));
        }
        if self.model.input_dim() != self.feature_dim {
            return Err(crate::DataError::InvalidParameter(
                "model input dim disagrees with feature_dim".into(),
            ));
        }
        Ok(())
    }

    /// The label whose prior is smallest — the "underrepresented label"
    /// Figure 13 tracks (arrhythmia beats for ECG, `bcc` analog for HAM).
    pub fn rarest_label(&self) -> usize {
        self.class_priors
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("non-empty priors")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for p in DatasetProfile::all() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn every_profile_counts_its_model_params_by_arithmetic() {
        for p in DatasetProfile::all() {
            let built = p.model.build(&mut flips_ml::rng::seeded(1)).num_params();
            assert_eq!(p.model.num_params(), built, "{}", p.name);
        }
    }

    #[test]
    fn ecg_is_dominated_by_normal_beats() {
        let p = DatasetProfile::ecg();
        assert_eq!(p.classes, 5);
        assert!(p.class_priors[0] > 0.8, "N beats dominate");
        assert_eq!(p.label_names[0], "N");
    }

    #[test]
    fn ham_is_dominated_by_nv() {
        let p = DatasetProfile::ham10000();
        let nv = p.label_names.iter().position(|n| n == "nv").unwrap();
        assert!(p.class_priors[nv] > 0.6);
    }

    #[test]
    fn fashion_is_balanced() {
        let p = DatasetProfile::fashion_mnist();
        assert!(p.class_priors.iter().all(|&x| (x - 0.1).abs() < 1e-9));
        assert_eq!(p.default_parties, 100);
    }

    #[test]
    fn by_name_round_trips() {
        for p in DatasetProfile::all() {
            assert_eq!(DatasetProfile::by_name(&p.name), Some(p.clone()));
        }
        assert_eq!(DatasetProfile::by_name("no-such"), None);
    }

    #[test]
    fn scaled_preserves_per_party_samples() {
        let p = DatasetProfile::ecg().scaled(20, 40);
        assert_eq!(p.default_parties, 20);
        assert_eq!(p.max_rounds, 40);
        assert_eq!(p.default_total_samples, 20 * (40_000 / 200));
        p.validate().unwrap();
    }

    #[test]
    fn rarest_label_is_minimum_prior() {
        let p = DatasetProfile::ecg();
        assert_eq!(p.rarest_label(), 3); // F (fusion) beats, prior 0.008
        let h = DatasetProfile::ham10000();
        assert_eq!(h.label_names[h.rarest_label()], "df");
    }

    #[test]
    fn validate_rejects_bad_priors() {
        let mut p = DatasetProfile::ecg();
        p.class_priors[0] = 0.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_model_mismatch() {
        let mut p = DatasetProfile::ecg();
        p.model = ModelSpec::Mlp { dims: vec![32, 9] };
        assert!(p.validate().is_err());
    }
}
