//! One-stop construction of paper-style experiments.
//!
//! [`SimulationBuilder`] stands up the full pipeline the paper's
//! evaluation uses: synthetic population with a dataset profile's label
//! imbalance → Dirichlet(α) partition across parties → balanced global
//! test set → a selection policy (FLIPS via the private TEE ceremony, or
//! any baseline) → an [`flips_fl::FlJob`]. Every knob of the evaluation
//! grid (dataset, algorithm, α, participation %, straggler rate, seed) is
//! a builder method.

use crate::middleware::{FlipsMiddleware, MiddlewareConfig};
use crate::FlipsError;
use flips_data::dataset::{balanced_test_set, generate_population};
use flips_data::{partition, DatasetProfile, PartitionStrategy};
use flips_fl::{
    DeadlinePolicy, FlAlgorithm, FlJob, FlJobConfig, History, LatencyModel, LocalTrainingConfig,
    ModelCodec, SKETCH_DIM,
};
use flips_selection::oort::OortConfig;
use flips_selection::tifl::TiflConfig;
use flips_selection::{
    GradClusSelector, OortSelector, ParticipantSelector, RandomSelector, SelectorKind, TiflSelector,
};
use std::time::Duration;

/// Minimum samples each party is guaranteed after partitioning.
const MIN_SAMPLES_PER_PARTY: usize = 5;

/// Builder for one end-to-end FL simulation.
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
    profile: DatasetProfile,
    parties: Option<usize>,
    rounds: Option<usize>,
    participation: f64,
    strategy: PartitionStrategy,
    algorithm: FlAlgorithm,
    selector: SelectorKind,
    straggler_rate: f64,
    deadline: DeadlinePolicy,
    latency_sigma: f64,
    test_per_class: usize,
    clustering_restarts: usize,
    fixed_k: Option<usize>,
    overprovision: bool,
    codec: ModelCodec,
    /// `(dir, budget)` when the roster store is sealed to disk.
    spill: Option<(std::path::PathBuf, usize)>,
    seed: u64,
}

impl SimulationBuilder {
    /// Starts a builder from a dataset profile (paper defaults apply:
    /// 20% participation, α = 0.3, FedYogi, FLIPS selection, no
    /// stragglers).
    pub fn new(profile: DatasetProfile) -> Self {
        SimulationBuilder {
            profile,
            parties: None,
            rounds: None,
            participation: 0.20,
            strategy: PartitionStrategy::Dirichlet { alpha: 0.3 },
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
            spill: None,
            seed: 0,
        }
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

    /// Overrides the number of parties (scales the population with it).
    #[must_use]
    pub fn parties(mut self, parties: usize) -> Self {
        self.parties = Some(parties);
        self
    }

    /// Overrides the round budget.
    #[must_use]
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = Some(rounds);
        self
    }

    /// Sets the per-round participation fraction (paper: 0.15 / 0.20).
    #[must_use]
    pub fn participation(mut self, fraction: f64) -> Self {
        self.participation = fraction;
        self
    }

    /// Sets Dirichlet non-IID concentration α (paper: 0.3 / 0.6).
    #[must_use]
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.strategy = PartitionStrategy::Dirichlet { alpha };
        self
    }

    /// Sets the FL algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: FlAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the participant-selection policy.
    #[must_use]
    pub fn selector(mut self, selector: SelectorKind) -> Self {
        self.selector = selector;
        self
    }

    /// Sets the straggler drop rate (paper: 0, 0.10, 0.20).
    #[must_use]
    pub fn straggler_rate(mut self, rate: f64) -> Self {
        self.straggler_rate = rate;
        self
    }

    /// Sets the round-deadline policy: the paper's injected victim sets
    /// (default), or a deadline derived from observed round-trip latency
    /// ([`DeadlinePolicy::LatencyQuantile`] / [`DeadlinePolicy::Ewma`] /
    /// [`DeadlinePolicy::FixedSeconds`]) under which who straggles
    /// follows from the platform-heterogeneity model instead of a coin
    /// flip. Latency-derived policies are mutually exclusive with a
    /// non-zero [`SimulationBuilder::straggler_rate`].
    #[must_use]
    pub fn deadline(mut self, policy: DeadlinePolicy) -> Self {
        self.deadline = policy;
        self
    }

    /// Sets the platform-heterogeneity spread (log-normal σ).
    #[must_use]
    pub fn latency_sigma(mut self, sigma: f64) -> Self {
        self.latency_sigma = sigma;
        self
    }

    /// Test-set size per class (default 50).
    #[must_use]
    pub fn test_per_class(mut self, per_class: usize) -> Self {
        self.test_per_class = per_class;
        self
    }

    /// K-Means restarts per elbow candidate (default 20; lower for speed).
    #[must_use]
    pub fn clustering_restarts(mut self, restarts: usize) -> Self {
        self.clustering_restarts = restarts;
        self
    }

    /// Forces the FLIPS cluster count (k-sensitivity ablation).
    #[must_use]
    pub fn fixed_k(mut self, k: usize) -> Self {
        self.fixed_k = Some(k);
        self
    }

    /// Disables FLIPS straggler overprovisioning (ablation).
    #[must_use]
    pub fn without_overprovisioning(mut self) -> Self {
        self.overprovision = false;
        self
    }

    /// Sets the model-payload wire codec the job's serialized drivers
    /// use (`Raw` by default; `DeltaLossless` is bit-exact, `F16` is
    /// lossy and opt-in only). Histories and byte *accounting* are
    /// codec-independent.
    #[must_use]
    pub fn codec(mut self, codec: ModelCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the FL job and its metadata without running it (step-wise
    /// control, used by examples and the figure harness).
    ///
    /// # Errors
    ///
    /// Surfaces any substrate construction failure.
    pub fn build(&self) -> Result<(FlJob, SimulationMeta), FlipsError> {
        if !(0.0 < self.participation && self.participation <= 1.0) {
            return Err(FlipsError::InvalidConfig(format!(
                "participation {} must be in (0, 1]",
                self.participation
            )));
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

        let population = generate_population(&profile, profile.default_total_samples, self.seed);
        let parts = partition(&population, n, self.strategy, MIN_SAMPLES_PER_PARTY, self.seed)?;
        let test = balanced_test_set(&profile, self.test_per_class, self.seed);
        // `FlJob::new` samples the same model from the same σ and seed;
        // this copy only profiles the roster's latency hints.
        let latency = LatencyModel::sample(n, self.latency_sigma, self.seed);

        let parties_per_round = ((self.participation * n as f64).round() as usize).clamp(1, n);

        let mut meta = SimulationMeta {
            profile_name: profile.name.clone(),
            num_parties: n,
            parties_per_round,
            rounds: profile.max_rounds,
            target_accuracy: profile.target_accuracy,
            selector: self.selector,
            algorithm: self.algorithm,
            straggler_rate: self.straggler_rate,
            partition: self.strategy,
            k: None,
            clustering_tee_overhead: None,
            seed: self.seed,
            job_id: 0,
        };

        let sample_counts = parts.sample_counts();
        let profile_times = latency.profile(&sample_counts, profile.local_epochs);
        let mw_cfg = MiddlewareConfig {
            restarts: self.clustering_restarts,
            fixed_k: self.fixed_k,
            k_floor: Some((2 * profile.classes).min(parties_per_round)),
            overprovision: self.overprovision,
            seed: self.seed,
            ..Default::default()
        };
        let oort_cfg = || {
            let mut cfg = if self.straggler_rate > 0.0 {
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

        let selector: Box<dyn ParticipantSelector> = match self.selector {
            SelectorKind::Random => Box::new(RandomSelector::from_source(&store, self.seed)),
            SelectorKind::Flips => {
                let pc = FlipsMiddleware::cluster_privately(&parts.label_distributions(), &mw_cfg)?;
                meta.k = Some(pc.k());
                meta.clustering_tee_overhead = Some(pc.tee_overhead());
                Box::new(pc)
            }
            SelectorKind::Oort => {
                Box::new(OortSelector::from_source(&store, oort_cfg(), self.seed)?)
            }
            SelectorKind::GradClus => {
                Box::new(GradClusSelector::from_source(&store, SKETCH_DIM, self.seed)?)
            }
            SelectorKind::Tifl => {
                Box::new(TiflSelector::from_source(&store, TiflConfig::default(), self.seed)?)
            }
        };

        let local = LocalTrainingConfig {
            epochs: profile.local_epochs,
            batch_size: profile.batch_size,
            lr_schedule: profile.lr_schedule,
            momentum: 0.0,
        };

        let config = FlJobConfig {
            model: profile.model.clone(),
            algorithm: self.algorithm,
            rounds: profile.max_rounds,
            parties_per_round,
            local,
            straggler_rate: self.straggler_rate,
            deadline: self.deadline,
            latency_sigma: self.latency_sigma,
            codec: self.codec,
            seed: self.seed,
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

/// Metadata describing a built simulation.
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
    /// Selection policy.
    pub selector: SelectorKind,
    /// FL algorithm.
    pub algorithm: FlAlgorithm,
    /// Straggler drop rate.
    pub straggler_rate: f64,
    /// Partition strategy.
    pub partition: PartitionStrategy,
    /// FLIPS cluster count (None for baselines).
    pub k: Option<usize>,
    /// Simulated TEE overhead of the clustering ceremony (FLIPS only).
    pub clustering_tee_overhead: Option<Duration>,
    /// Master seed.
    pub seed: u64,
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
            let report = tiny(kind).run().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(report.history.len(), 5, "{kind}");
            assert_eq!(report.meta.selector, kind);
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
                LatencyModel::sample(meta.num_parties, 0.7, meta.seed)
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
