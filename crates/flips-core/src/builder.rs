//! One-stop construction of paper-style experiments.
//!
//! A [`JobSpec`] is one cell of the paper's evaluation grid (dataset,
//! algorithm, α, participation %, straggler rate, seed, …) as plain
//! data; [`SimulationBuilder`] is that spec plus where the roster lives.
//! `build` stands up the full pipeline the paper's evaluation uses:
//! synthetic population with a dataset profile's label imbalance →
//! Dirichlet(α) partition across parties → balanced global test set → a
//! selection policy (FLIPS via the private TEE ceremony, or any
//! baseline) → an [`flips_fl::FlJob`].

use crate::middleware::{FlipsMiddleware, MiddlewareConfig};
use crate::FlipsError;
use flips_data::dataset::{balanced_test_set, generate_population};
use flips_data::{partition, DatasetProfile, PartitionStrategy};
use flips_fl::{
    CoordinatorConfig, DeadlinePolicy, FlAlgorithm, FlJob, FlJobConfig, History, LatencyModel,
    LocalTrainingConfig, ModelCodec, SKETCH_DIM,
};
use flips_selection::oort::OortConfig;
use flips_selection::tifl::TiflConfig;
use flips_selection::{
    GradClusSelector, OortSelector, ParticipantSelector, RandomSelector, SelectorKind, TiflSelector,
};
use std::time::Duration;

/// Minimum samples each party is guaranteed after partitioning.
const MIN_SAMPLES_PER_PARTY: usize = 5;

/// One job of the paper's evaluation grid, as data. `Default` holds the
/// paper's defaults; [`JobSpec::validate`] checks every field without
/// generating any data.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The dataset profile (default: MIT-BIH ECG, the paper's first).
    pub profile: DatasetProfile,
    /// Roster size, at least 1; the population scales with it (default:
    /// the profile's).
    pub parties: Option<usize>,
    /// Round budget, at least 1 (default: the profile's).
    pub rounds: Option<usize>,
    /// Share of the roster selected per round, in `(0, 1]` (paper: 0.15 / 0.20; default 0.20).
    pub participation: f64,
    /// Dirichlet non-IID concentration α, finite, > 0 (paper: 0.3 / 0.6; default 0.3).
    pub alpha: f64,
    /// The FL algorithm (default FedYogi).
    pub algorithm: FlAlgorithm,
    /// The participant-selection policy (default FLIPS).
    pub selector: SelectorKind,
    /// Injected straggler drop rate, in `[0, 1)` (paper: 0, 0.10, 0.20; default 0).
    pub straggler_rate: f64,
    /// The round-deadline policy (default: the paper's injected victim
    /// sets); a latency-derived one, under which who straggles follows
    /// from the latency model, excludes a non-zero `straggler_rate`.
    pub deadline: DeadlinePolicy,
    /// Log-normal σ of the platform-heterogeneity model, finite, ≥ 0 (default 0.4).
    pub latency_sigma: f64,
    /// Held-out test samples per class, at least 1 (default 50).
    pub test_per_class: usize,
    /// K-Means restarts per elbow candidate, at least 1 (default 20; lower for speed).
    pub clustering_restarts: usize,
    /// Forces the FLIPS cluster count (k-sensitivity ablation).
    pub fixed_k: Option<usize>,
    /// FLIPS straggler overprovisioning (default on; off is an ablation).
    pub overprovision: bool,
    /// The model-payload wire codec of the job's serialized drivers
    /// (default `Raw`); byte *accounting* is codec-independent.
    pub codec: ModelCodec,
    /// The master seed; every stream of the job, its id included, derives from it.
    pub seed: u64,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            profile: DatasetProfile::ecg(),
            parties: None,
            rounds: None,
            participation: 0.20,
            alpha: 0.3,
            algorithm: FlAlgorithm::fedyogi(),
            selector: SelectorKind::Flips,
            straggler_rate: 0.0,
            deadline: DeadlinePolicy::Injected,
            latency_sigma: 0.4,
            test_per_class: 50,
            clustering_restarts: 20,
            fixed_k: None,
            overprovision: true,
            codec: ModelCodec::Raw,
            seed: 0,
        }
    }
}

impl JobSpec {
    /// Checks every field, and the runtime configuration they describe
    /// ([`FlJobConfig::validate`]), without generating any data.
    ///
    /// # Errors
    ///
    /// [`FlipsError::InvalidConfig`] (or the runtime's own error) naming
    /// the field out of range.
    pub fn validate(&self) -> Result<(), FlipsError> {
        self.resolve().map(|_| ())
    }

    /// The scaled profile and the runtime configuration this spec
    /// describes, both checked.
    fn resolve(&self) -> Result<(DatasetProfile, FlJobConfig), FlipsError> {
        let invalid = |msg: String| Err(FlipsError::InvalidConfig(msg));
        if !(0.0 < self.participation && self.participation <= 1.0) {
            return invalid(format!("participation {} must be in (0, 1]", self.participation));
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return invalid(format!("alpha {} must be finite and positive", self.alpha));
        }
        if self.test_per_class == 0 {
            return invalid("test_per_class must be at least 1".into());
        }
        if self.clustering_restarts == 0 {
            return invalid("clustering_restarts must be at least 1".into());
        }
        let profile = match (self.parties, self.rounds) {
            (None, None) => self.profile.clone(),
            (p, r) => self.profile.scaled(
                p.unwrap_or(self.profile.default_parties),
                r.unwrap_or(self.profile.max_rounds),
            ),
        };
        profile.validate()?;
        let n = profile.default_parties;
        if n == 0 {
            return invalid("parties must be at least 1".into());
        }
        let config = FlJobConfig {
            coordinator: CoordinatorConfig {
                model: profile.model.clone(),
                algorithm: self.algorithm,
                rounds: profile.max_rounds,
                parties_per_round: ((self.participation * n as f64).round() as usize).clamp(1, n),
                codec: self.codec,
                seed: self.seed,
            },
            local: LocalTrainingConfig {
                epochs: profile.local_epochs,
                batch_size: profile.batch_size,
                lr_schedule: profile.lr_schedule,
                momentum: 0.0,
            },
            straggler_rate: self.straggler_rate,
            deadline: self.deadline,
            latency_sigma: self.latency_sigma,
        };
        config.validate()?;
        Ok((profile, config))
    }
}

/// One-line builder methods, each setting one [`JobSpec`] field:
/// `method(arg: Type) => field = value;`.
macro_rules! setters {
    ($($(#[$doc:meta])* $method:ident($arg:ident: $ty:ty) => $field:ident = $value:expr;)*) => {$(
        $(#[$doc])*
        #[must_use]
        pub fn $method(mut self, $arg: $ty) -> Self {
            self.spec.$field = $value;
            self
        }
    )*};
}

/// Builder for one end-to-end FL simulation: a [`JobSpec`] plus where
/// the roster lives.
///
/// # Example
///
/// Every knob of the paper's evaluation grid is a method; `run()`
/// returns the per-round history plus the metadata that produced it:
///
/// ```
/// use flips_core::builder::SimulationBuilder;
/// use flips_data::DatasetProfile;
/// use flips_selection::SelectorKind;
///
/// let report = SimulationBuilder::new(DatasetProfile::femnist())
///     .parties(8)
///     .rounds(2)
///     .participation(0.25)
///     .selector(SelectorKind::Random)
///     .test_per_class(5)
///     .seed(7)
///     .run()
///     .unwrap();
/// assert_eq!(report.history.len(), 2);
/// assert_eq!(report.meta.parties_per_round, 2);
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    /// The job.
    pub spec: JobSpec,
    /// `(dir, budget)` when the roster store is sealed to disk.
    spill: Option<(std::path::PathBuf, usize)>,
}

impl From<JobSpec> for SimulationBuilder {
    fn from(spec: JobSpec) -> Self {
        SimulationBuilder { spec, spill: None }
    }
}

impl SimulationBuilder {
    /// Starts a builder from a dataset profile, with the paper's
    /// defaults for everything else ([`JobSpec::default`]).
    pub fn new(profile: DatasetProfile) -> Self {
        JobSpec { profile, ..JobSpec::default() }.into()
    }

    /// Seals the candidate roster to disk segments under `dir`, with at
    /// most `budget` segments resident in memory while the selectors
    /// stream it, instead of keeping the [`flips_fl::RosterStore`] in
    /// memory. Every baseline selector is built from the store through
    /// [`flips_selection::CandidateSource`] either way, one column read
    /// at a time, exactly as a million-party roster would be; where it lives
    /// never moves a seeded history (the scale-equivalence suite pins
    /// this). FLIPS is not built from the store: its clustering ceremony
    /// takes the label distributions from the parties, and the store
    /// holds none.
    #[must_use]
    pub fn spill_roster(mut self, dir: impl Into<std::path::PathBuf>, budget: usize) -> Self {
        self.spill = Some((dir.into(), budget));
        self
    }

    setters! {
        /// Sets [`JobSpec::parties`].
        parties(parties: usize) => parties = Some(parties);
        /// Sets [`JobSpec::rounds`].
        rounds(rounds: usize) => rounds = Some(rounds);
        /// Sets [`JobSpec::participation`].
        participation(fraction: f64) => participation = fraction;
        /// Sets [`JobSpec::alpha`].
        alpha(alpha: f64) => alpha = alpha;
        /// Sets [`JobSpec::algorithm`].
        algorithm(algorithm: FlAlgorithm) => algorithm = algorithm;
        /// Sets [`JobSpec::selector`].
        selector(selector: SelectorKind) => selector = selector;
        /// Sets [`JobSpec::straggler_rate`].
        straggler_rate(rate: f64) => straggler_rate = rate;
        /// Sets [`JobSpec::deadline`].
        deadline(policy: DeadlinePolicy) => deadline = policy;
        /// Sets [`JobSpec::latency_sigma`].
        latency_sigma(sigma: f64) => latency_sigma = sigma;
        /// Sets [`JobSpec::test_per_class`].
        test_per_class(per_class: usize) => test_per_class = per_class;
        /// Sets [`JobSpec::clustering_restarts`].
        clustering_restarts(restarts: usize) => clustering_restarts = restarts;
        /// Sets [`JobSpec::fixed_k`].
        fixed_k(k: usize) => fixed_k = Some(k);
        /// Sets [`JobSpec::codec`].
        codec(codec: ModelCodec) => codec = codec;
        /// Sets [`JobSpec::seed`].
        seed(seed: u64) => seed = seed;
    }

    /// Clears [`JobSpec::overprovision`] (ablation).
    #[must_use]
    pub fn without_overprovisioning(mut self) -> Self {
        self.spec.overprovision = false;
        self
    }

    /// Builds the FL job and its metadata without running it (step-wise
    /// control, used by examples and the figure harness).
    ///
    /// # Errors
    ///
    /// [`JobSpec::validate`]'s errors, then any substrate construction
    /// failure.
    pub fn build(&self) -> Result<(FlJob, SimulationMeta), FlipsError> {
        let spec = &self.spec;
        let (profile, config) = spec.resolve()?;
        let n = profile.default_parties;
        let seed = spec.seed;
        let parties_per_round = config.coordinator.parties_per_round;

        let population = generate_population(&profile, profile.default_total_samples, seed);
        let strategy = PartitionStrategy::Dirichlet { alpha: spec.alpha };
        let parts = partition(&population, n, strategy, MIN_SAMPLES_PER_PARTY, seed)?;
        let test = balanced_test_set(&profile, spec.test_per_class, seed);
        // `FlJob::new` samples the same model from the same σ and seed;
        // this copy only profiles the roster's latency hints.
        let latency = LatencyModel::sample(n, spec.latency_sigma, seed);

        let mut meta = SimulationMeta {
            profile_name: profile.name.clone(),
            num_parties: n,
            parties_per_round,
            rounds: profile.max_rounds,
            target_accuracy: profile.target_accuracy,
            k: None,
            clustering_tee_overhead: None,
            job_id: 0,
        };

        let sample_counts = parts.sample_counts();
        let profile_times = latency.profile(&sample_counts, profile.local_epochs);
        let mw_cfg = MiddlewareConfig {
            restarts: spec.clustering_restarts,
            fixed_k: spec.fixed_k,
            k_floor: Some((2 * profile.classes).min(parties_per_round)),
            overprovision: spec.overprovision,
            seed,
            ..Default::default()
        };
        let oort_cfg = || {
            let mut cfg = if spec.straggler_rate > 0.0 {
                OortConfig::with_straggler_overprovisioning()
            } else {
                OortConfig::default()
            };
            // The developer-preferred duration: 1.5× the median
            // profiled round time.
            let mut sorted = profile_times.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            cfg.preferred_duration = sorted[sorted.len() / 2] * 1.5;
            cfg
        };

        // The roster the baselines stream their candidates from. It holds
        // no label counts: those go from the parties to the enclave only.
        let mut roster = match &self.spill {
            Some((dir, budget)) => flips_fl::RosterBuilder::spilling(dir.clone(), *budget)?,
            None => flips_fl::RosterBuilder::in_memory(),
        };
        for (&samples, &latency_hint) in sample_counts.iter().zip(&profile_times) {
            roster.push(flips_fl::PartyRecord {
                data_size: samples as u64,
                latency_hint,
                label_counts: Vec::new(),
            })?;
        }
        let store = roster.finish()?;

        let selector: Box<dyn ParticipantSelector> = match spec.selector {
            SelectorKind::Random => Box::new(RandomSelector::from_source(&store, seed)),
            SelectorKind::Flips => {
                let pc = FlipsMiddleware::cluster_privately(&parts.label_distributions(), &mw_cfg)?;
                meta.k = Some(pc.k());
                meta.clustering_tee_overhead = Some(pc.tee_overhead());
                Box::new(pc)
            }
            SelectorKind::Oort => Box::new(OortSelector::from_source(&store, oort_cfg(), seed)?),
            SelectorKind::GradClus => {
                Box::new(GradClusSelector::from_source(&store, SKETCH_DIM, seed)?)
            }
            SelectorKind::Tifl => {
                Box::new(TiflSelector::from_source(&store, TiflConfig::default(), seed)?)
            }
        };

        let job = FlJob::new(parts.parties, test, config, selector)?;
        meta.job_id = job.coordinator().job_id();
        Ok((job, meta))
    }

    /// Builds and runs the job to completion.
    ///
    /// # Errors
    ///
    /// Surfaces construction or round failures.
    pub fn run(&self) -> Result<SimulationReport, FlipsError> {
        let (mut job, meta) = self.build()?;
        let history = job.run()?;
        Ok(SimulationReport { history, meta })
    }
}

/// What [`SimulationBuilder::build`] derives from its [`JobSpec`].
#[derive(Debug, Clone)]
pub struct SimulationMeta {
    /// Dataset profile name.
    pub profile_name: String,
    /// Total parties.
    pub num_parties: usize,
    /// Parties per round (`Nr`).
    pub parties_per_round: usize,
    /// Round budget.
    pub rounds: usize,
    /// The profile's target accuracy for rounds-to-target reporting.
    pub target_accuracy: f64,
    /// FLIPS cluster count (None for baselines).
    pub k: Option<usize>,
    /// Simulated TEE overhead of the clustering ceremony (FLIPS only).
    pub clustering_tee_overhead: Option<Duration>,
    /// Protocol job identifier stamped on every wire message (derived
    /// from the seed by the runtime).
    pub job_id: u64,
}

/// The outcome of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Per-round history.
    pub history: History,
    /// The configuration that produced it.
    pub meta: SimulationMeta,
}

impl SimulationReport {
    /// Rounds to the profile's target accuracy (`None` = "> budget").
    pub fn rounds_to_target(&self) -> Option<usize> {
        self.history.rounds_to_target(self.meta.target_accuracy)
    }

    /// Peak accuracy within the budget.
    pub fn peak_accuracy(&self) -> f64 {
        self.history.peak_accuracy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flips_ml::model::ModelSpec;

    fn tiny(selector: SelectorKind) -> SimulationBuilder {
        SimulationBuilder::new(DatasetProfile::femnist())
            .parties(12)
            .rounds(5)
            .participation(0.25)
            .selector(selector)
            .clustering_restarts(3)
            .test_per_class(10)
            .seed(3)
    }

    #[test]
    fn every_selector_builds_and_runs() {
        for kind in SelectorKind::all() {
            let builder = tiny(kind);
            assert_eq!(builder.spec.selector, kind);
            let report = builder.run().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(report.history.len(), 5, "{kind}");
            assert_eq!(report.meta.parties_per_round, 3);
        }
    }

    #[test]
    fn flips_report_carries_clustering_metadata() {
        let report = tiny(SelectorKind::Flips).run().unwrap();
        assert!(report.meta.k.is_some());
        assert!(report.meta.clustering_tee_overhead.is_some());
    }

    #[test]
    fn baselines_have_no_clustering_metadata() {
        let report = tiny(SelectorKind::Random).run().unwrap();
        assert!(report.meta.k.is_none());
        assert!(report.meta.clustering_tee_overhead.is_none());
    }

    #[test]
    fn straggler_rate_propagates() {
        let report = tiny(SelectorKind::Random).straggler_rate(0.25).run().unwrap();
        assert!(report.history.total_stragglers() > 0);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = tiny(SelectorKind::Flips).run().unwrap();
        let b = tiny(SelectorKind::Flips).run().unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.meta.k, b.meta.k);
    }

    #[test]
    fn meta_carries_the_protocol_job_id() {
        let a = tiny(SelectorKind::Random).run().unwrap();
        let b = tiny(SelectorKind::Random).run().unwrap();
        assert_ne!(a.meta.job_id, 0);
        assert_eq!(a.meta.job_id, b.meta.job_id, "derived from the seed");
        let c = tiny(SelectorKind::Random).seed(9).run().unwrap();
        assert_ne!(a.meta.job_id, c.meta.job_id);
    }

    #[test]
    fn rejects_bad_participation() {
        assert!(tiny(SelectorKind::Random).participation(0.0).run().is_err());
        assert!(tiny(SelectorKind::Random).participation(1.5).run().is_err());
    }

    #[test]
    fn an_unbuildable_model_is_an_error_not_a_panic() {
        // Each profile agrees with its model on classes and input width,
        // so only the model's own sizes are wrong.
        let conv = |len, kernel, filters| ModelSpec::Conv1d { len, kernel, filters, classes: 5 };
        for (model, feature_dim) in [
            (conv(32, 0, 8), 32),
            (conv(32, 33, 8), 32),
            (conv(32, 5, 0), 32),
            (ModelSpec::Mlp { dims: vec![] }, 32),
            (ModelSpec::Mlp { dims: vec![5] }, 5),
            (ModelSpec::Mlp { dims: vec![32, 0, 5] }, 32),
            (ModelSpec::Mlp { dims: vec![0, 5] }, 0),
        ] {
            let profile =
                DatasetProfile { model: model.clone(), feature_dim, ..DatasetProfile::ecg() };
            let built = SimulationBuilder::new(profile).parties(12).rounds(2).build();
            assert!(built.is_err(), "{model:?} built");
        }
    }

    #[test]
    fn the_job_samples_its_latency_model_from_sigma_and_seed() {
        let dir =
            std::env::temp_dir().join(format!("flips-builder-latency-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let builder = tiny(SelectorKind::Random).latency_sigma(0.7);
        for builder in [builder.clone(), builder.spill_roster(&dir, 1)] {
            let (job, meta) = builder.build().unwrap();
            assert_eq!(
                *job.latency_model(),
                LatencyModel::sample(meta.num_parties, 0.7, builder.spec.seed)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixed_k_is_respected() {
        let report = tiny(SelectorKind::Flips).fixed_k(2).run().unwrap();
        assert_eq!(report.meta.k, Some(2));
    }

    #[test]
    fn report_helpers_delegate_to_history() {
        let report = tiny(SelectorKind::Random).run().unwrap();
        assert_eq!(
            report.rounds_to_target(),
            report.history.rounds_to_target(report.meta.target_accuracy)
        );
        assert_eq!(report.peak_accuracy(), report.history.peak_accuracy());
    }
}
