//! The in-process FL driver — mechanism pumping the sans-IO protocol.
//!
//! After the coordinator redesign, [`FlJob`] is a thin *driver*: all round
//! policy (selection, duplicate rejection, deadline close, aggregation,
//! evaluation, selector feedback) lives in the pure
//! [`Coordinator`] state machine, and all participant behavior in
//! [`PartyEndpoint`].
//! The driver supplies the three things the state machines cannot:
//!
//! 1. **transport** — it moves [`WireMessage`]s between the coordinator's
//!    [`Effect::Send`]s and the endpoints (in-process, so messages travel
//!    as values; byte counts still come from the wire codec);
//! 2. **clocks** — it decides when the round deadline fires. The job's
//!    `Stragglers` model picks the parties whose updates miss that
//!    deadline (the paper's §5 emulation, or a latency-derived
//!    deadline); the driver skips simulating work whose result never
//!    arrives and feeds [`Event::DeadlineExpired`] so the coordinator
//!    closes them out as stragglers;
//! 3. **scheduling** — local training runs on one worker per core,
//!    largest party first; replies reach the coordinator in roster order,
//!    and aggregation order is fixed by party id regardless.
//!
//! Every source of randomness derives from the single job seed, so runs
//! are bit-reproducible, selector included.

use crate::codec::ModelCodec;
use crate::config::{DeadlinePolicy, FlAlgorithm, LocalTrainingConfig};
use crate::coordinator::{Coordinator, CoordinatorConfig};
use crate::endpoint::PartyEndpoint;
use crate::events::{Effect, Event};
use crate::history::{History, RoundRecord};
use crate::latency::LatencyModel;
use crate::message::WireMessage;
use crate::straggler::{Arrival, StragglerInjector, Stragglers};
use crate::FlError;
use flips_data::Dataset;
use flips_ml::model::ModelSpec;
use flips_ml::rng::derive_seed;
use flips_selection::{ParticipantSelector, PartyId};
use std::sync::Arc;

/// Configuration of one FL job.
#[derive(Debug, Clone)]
pub struct FlJobConfig {
    /// The agreed model architecture.
    pub model: ModelSpec,
    /// The FL algorithm.
    pub algorithm: FlAlgorithm,
    /// Round budget.
    pub rounds: usize,
    /// Parties per round (`Nr`; selectors may overprovision beyond it).
    pub parties_per_round: usize,
    /// Participant-side training hyper-parameters.
    pub local: LocalTrainingConfig,
    /// Fraction of each cohort whose updates miss the round deadline
    /// (0, 0.10, 0.20 in the paper). Only meaningful under
    /// [`DeadlinePolicy::Injected`].
    pub straggler_rate: f64,
    /// How each round's collection deadline is decided — the paper's
    /// synthetic victim injection, or a deadline derived from observed
    /// round-trip latency (see [`DeadlinePolicy`]). A latency-derived
    /// policy is mutually exclusive with a non-zero `straggler_rate`.
    pub deadline: DeadlinePolicy,
    /// Log-normal sigma of the platform-heterogeneity model; the job
    /// samples it with [`LatencyModel::sample`] from `seed`, as
    /// `SimulationBuilder` does for the selectors' latency hints.
    pub latency_sigma: f64,
    /// The model-payload wire codec (announced in selection notices,
    /// used by serialized drivers; `Raw` is the compatibility default
    /// and `F16` is lossy — opt-in only).
    pub codec: ModelCodec,
    /// Master seed; every stream derives from it.
    pub seed: u64,
}

impl FlJobConfig {
    /// A reasonable default configuration for `model` (callers override
    /// fields as needed).
    pub fn new(model: ModelSpec) -> Self {
        FlJobConfig {
            model,
            algorithm: FlAlgorithm::fedyogi(),
            rounds: 100,
            parties_per_round: 10,
            local: LocalTrainingConfig::default(),
            straggler_rate: 0.0,
            deadline: DeadlinePolicy::Injected,
            latency_sigma: 0.4,
            codec: ModelCodec::Raw,
            seed: 0,
        }
    }
}

/// A running federated-learning job: the coordinator state machine, one
/// endpoint per party, and the in-process pump between them.
pub struct FlJob {
    coordinator: Coordinator,
    endpoints: Vec<PartyEndpoint>,
    latency: Arc<LatencyModel>,
    stragglers: Stragglers<StragglerInjector>,
    rounds: usize,
}

impl std::fmt::Debug for FlJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlJob")
            .field("coordinator", &self.coordinator)
            .field("parties", &self.endpoints.len())
            .field("round", &self.coordinator.round())
            .finish()
    }
}

impl FlJob {
    /// Creates a job from per-party datasets, a global test set, a config
    /// and a selection policy.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for inconsistent inputs (empty
    /// roster, round size exceeding the roster, class/dimension
    /// mismatches, selector sized for a different roster).
    pub fn new(
        party_datasets: Vec<Dataset>,
        test_set: Dataset,
        config: FlJobConfig,
        selector: Box<dyn ParticipantSelector>,
    ) -> Result<Self, FlError> {
        // Round/cohort/sketch bounds are validated once, by
        // `Coordinator::new` below; this driver only checks what the
        // coordinator cannot see — datasets, training hyper-parameters
        // and the simulation knobs.
        if party_datasets.is_empty() {
            return Err(FlError::InvalidConfig("no parties".into()));
        }
        if !(0.0..1.0).contains(&config.straggler_rate) {
            return Err(FlError::InvalidConfig("straggler_rate must be in [0, 1)".into()));
        }
        let seed = config.seed;
        let injector = StragglerInjector::new(config.straggler_rate, seed);
        let stragglers = Stragglers::new(injector, config.deadline)?;
        if config.deadline.is_latency_derived() && config.straggler_rate > 0.0 {
            return Err(FlError::InvalidConfig(
                "straggler_rate injection and a latency-derived deadline are mutually \
                 exclusive: pick one straggler model"
                    .into(),
            ));
        }
        config.local.validate()?;
        let classes = config.model.num_classes();
        let dim = config.model.input_dim();
        for (i, ds) in party_datasets.iter().enumerate() {
            if ds.classes != classes || ds.x.cols() != dim {
                return Err(FlError::InvalidConfig(format!(
                    "party {i} dataset does not match the model architecture"
                )));
            }
            if ds.is_empty() {
                return Err(FlError::InvalidConfig(format!("party {i} has no data")));
            }
        }

        let num_parties = party_datasets.len();
        let latency = Arc::new(LatencyModel::sample(num_parties, config.latency_sigma, seed));

        let job_id = derive_seed(seed, 0x4A0B_F11F);
        let coordinator = Coordinator::new(
            CoordinatorConfig {
                job_id,
                model: config.model.clone(),
                algorithm: config.algorithm,
                rounds: config.rounds,
                parties_per_round: config.parties_per_round,
                codec: config.codec,
                seed,
            },
            num_parties,
            test_set,
            selector,
        )?;

        let proximal_mu = config.algorithm.proximal_mu();
        let endpoints: Vec<PartyEndpoint> = party_datasets
            .into_iter()
            .enumerate()
            .map(|(id, ds)| {
                PartyEndpoint::new(
                    id,
                    ds,
                    &config.model,
                    job_id,
                    config.local,
                    proximal_mu,
                    Arc::clone(&latency),
                    seed,
                )
            })
            .collect();

        Ok(FlJob { coordinator, endpoints, latency, stragglers, rounds: config.rounds })
    }

    /// The current round index (number of completed rounds).
    pub fn round(&self) -> usize {
        self.coordinator.round()
    }

    /// The current global model parameters.
    pub fn global_params(&self) -> &[f32] {
        self.coordinator.global_params()
    }

    /// The job history so far.
    pub fn history(&self) -> &History {
        self.coordinator.history()
    }

    /// The protocol state machine this driver pumps.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The per-party latency model in effect.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Per-party local sample counts (public job metadata).
    pub fn sample_counts(&self) -> Vec<usize> {
        self.endpoints.iter().map(PartyEndpoint::num_samples).collect()
    }

    /// Executes one synchronization round: opens it on the coordinator,
    /// delivers the outbound messages, trains the parties whose updates
    /// make the deadline, pumps the replies back and fires the deadline.
    ///
    /// # Errors
    ///
    /// Propagates selection and aggregation failures.
    pub fn step(&mut self) -> Result<&RoundRecord, FlError> {
        self.step_on(flips_ml::parallel::threads(self.endpoints.len()))
    }

    /// [`FlJob::step`], training on at most `workers` threads; the round
    /// comes out the same at every count.
    fn step_on(&mut self, workers: usize) -> Result<&RoundRecord, FlError> {
        // Open: selection notices + global-model broadcasts.
        let effects = self.coordinator.open_round()?;
        let mut notices: Vec<WireMessage> = Vec::new();
        let mut broadcasts: Vec<(PartyId, WireMessage)> = Vec::new();
        let mut selected: Vec<PartyId> = Vec::new();
        for effect in effects {
            let Effect::Send { to, msg } = effect else { continue };
            match msg {
                WireMessage::SelectionNotice { .. } => {
                    selected.push(to);
                    notices.push(msg);
                }
                _ => broadcasts.push((to, msg)),
            }
        }

        // The round clock, the same straggler model the timer-wheel
        // driver consults: withheld parties are never trained — the
        // result would be discarded — and a reply judged late is
        // dropped, so the deadline close below turns its sender into a
        // straggler.
        let (withheld, _) = self.stragglers.open(&selected, &self.latency);

        // Selection notices reach everyone; heartbeat acks flow back.
        let mut inbound: Vec<WireMessage> = Vec::with_capacity(2 * selected.len());
        for (to, notice) in selected.iter().zip(&notices) {
            inbound.extend(self.endpoints[*to].handle(notice)?);
        }

        let deliveries: Vec<(PartyId, WireMessage)> =
            broadcasts.into_iter().filter(|(to, _)| !withheld.contains(to)).collect();
        for reply in self.train_endpoints(&deliveries, workers)? {
            if let WireMessage::LocalUpdate { party, duration, .. } = &reply {
                if let Arrival::Late { .. } =
                    self.stragglers.judge(*party as PartyId, *duration, || true)
                {
                    continue;
                }
            }
            inbound.push(reply);
        }

        // Pump replies; the cohort completing early closes the round,
        // otherwise the deadline does.
        let mut close_effects: Vec<Effect> = Vec::new();
        for msg in inbound {
            close_effects.extend(self.coordinator.handle(Event::UpdateReceived(msg))?);
        }
        if self.coordinator.open_cohort().is_some() {
            close_effects.extend(self.coordinator.handle(Event::DeadlineExpired)?);
        }
        // Deliver the coordinator's straggler aborts.
        for effect in close_effects {
            if let Effect::Send { to, msg } = effect {
                self.endpoints[to].handle(&msg)?;
            }
        }
        Ok(self.coordinator.history().records().last().expect("round just closed"))
    }

    /// Runs the job to its round budget and returns the history.
    ///
    /// # Errors
    ///
    /// Propagates the first failing round.
    pub fn run(&mut self) -> Result<History, FlError> {
        while self.coordinator.round() < self.rounds {
            self.step()?;
        }
        Ok(self.coordinator.history().clone())
    }

    /// Decomposes the job into the pieces a different driver can own.
    ///
    /// The in-process `FlJob` and the serialized-transport
    /// [`crate::driver::MultiJobDriver`] run the *same* coordinator,
    /// endpoints and deadline clock; splitting a built job (rather than
    /// re-deriving its parts) guarantees both drivers start from
    /// bit-identical seeded state — which is how the transport
    /// equivalence suite pins them to each other.
    pub fn into_parts(self) -> JobParts {
        let (clock, deadline) = self.stragglers.into_parts();
        JobParts {
            coordinator: self.coordinator,
            endpoints: self.endpoints,
            clock,
            latency: self.latency,
            deadline,
        }
    }

    /// Delivers `GlobalModel` messages to their endpoints on up to
    /// `workers` threads ([`PartyEndpoint::handle_cohort`]) and returns
    /// the replies — or the first error — in roster order.
    fn train_endpoints(
        &mut self,
        deliveries: &[(PartyId, WireMessage)],
        workers: usize,
    ) -> Result<Vec<WireMessage>, FlError> {
        let by_party: std::collections::HashMap<PartyId, &WireMessage> =
            deliveries.iter().map(|(p, m)| (*p, m)).collect();
        let cohort = self
            .endpoints
            .iter_mut()
            .filter_map(|ep| by_party.get(&ep.id()).map(|msg| (ep, *msg)))
            .collect();
        let mut replies = Vec::with_capacity(deliveries.len());
        for result in PartyEndpoint::handle_cohort(cohort, &mut vec![(); workers.max(1)], |_, r| r)
        {
            replies.extend(result?);
        }
        Ok(replies)
    }
}

/// A job split into driver-agnostic pieces (see [`FlJob::into_parts`]):
/// the protocol state machines plus the simulation's deadline clock.
pub struct JobParts {
    /// The aggregator-side protocol state machine.
    pub coordinator: Coordinator,
    /// One endpoint per party, roster order.
    pub endpoints: Vec<PartyEndpoint>,
    /// The deadline clock (the configured straggler injector; consulted
    /// only under [`DeadlinePolicy::Injected`]).
    pub clock: StragglerInjector,
    /// The platform-heterogeneity model the clock consults.
    pub latency: Arc<LatencyModel>,
    /// The configured deadline policy — drivers route on it (see
    /// [`crate::driver::MultiJobDriver::add_parts`]).
    pub deadline: DeadlinePolicy,
}

impl std::fmt::Debug for JobParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobParts")
            .field("job_id", &self.coordinator.job_id())
            .field("parties", &self.endpoints.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{
        global_model_bytes, heartbeat_bytes, local_update_bytes, selection_notice_bytes,
    };
    use flips_data::dataset::{balanced_test_set, generate_population};
    use flips_data::{partition, DatasetProfile, PartitionStrategy};
    use flips_selection::{RandomSelector, RoundFeedback, SelectionError};

    fn small_setup(parties: usize, alpha: f64) -> (Vec<Dataset>, Dataset, DatasetProfile) {
        let profile = DatasetProfile::femnist().scaled(parties, 30);
        let pop = generate_population(&profile, profile.default_total_samples, 11);
        let parts =
            partition(&pop, parties, PartitionStrategy::Dirichlet { alpha }, 5, 11).unwrap();
        let test = balanced_test_set(&profile, 20, 11);
        (parts.parties, test, profile)
    }

    fn job(straggler_rate: f64) -> FlJob {
        let (datasets, test, profile) = small_setup(12, 0.5);
        let config = FlJobConfig {
            rounds: 6,
            parties_per_round: 4,
            straggler_rate,
            local: LocalTrainingConfig { epochs: 1, ..Default::default() },
            ..FlJobConfig::new(profile.model.clone())
        };
        let selector = Box::new(RandomSelector::new(datasets.len(), 5));
        FlJob::new(datasets, test, config, selector).unwrap()
    }

    #[test]
    fn runs_the_configured_number_of_rounds() {
        let mut j = job(0.0);
        let history = j.run().unwrap();
        assert_eq!(history.len(), 6);
        assert_eq!(j.round(), 6);
        for (i, r) in history.records().iter().enumerate() {
            assert_eq!(r.round, i);
            assert_eq!(r.selected.len(), 4);
            assert_eq!(r.completed.len(), 4);
            assert!(r.stragglers.is_empty());
            assert!(r.bytes_down > 0 && r.bytes_up > 0);
        }
    }

    #[test]
    fn accuracy_improves_over_rounds() {
        let (datasets, test, profile) = small_setup(10, 2.0);
        let config = FlJobConfig {
            rounds: 25,
            parties_per_round: 5,
            local: LocalTrainingConfig { epochs: 2, ..Default::default() },
            ..FlJobConfig::new(profile.model.clone())
        };
        let selector = Box::new(RandomSelector::new(datasets.len(), 1));
        let mut j = FlJob::new(datasets, test, config, selector).unwrap();
        let history = j.run().unwrap();
        let first = history.records()[0].accuracy;
        let peak = history.peak_accuracy();
        assert!(peak > first + 0.2, "no learning: first {first}, peak {peak}");
        assert!(peak > 0.5, "peak {peak} too low for near-IID data");
    }

    #[test]
    fn straggler_injection_reduces_completions() {
        let mut j = job(0.25);
        let history = j.run().unwrap();
        for r in history.records() {
            assert_eq!(r.stragglers.len(), 1, "25% of 4 selected");
            assert_eq!(r.completed.len(), 3);
        }
        assert_eq!(history.total_stragglers(), 6);
    }

    /// Ten parties whose datasets differ in size by up to 120×, five a
    /// round, one of them a withheld straggler (20 %).
    fn uneven_job() -> FlJob {
        let profile = DatasetProfile::femnist().scaled(10, 30);
        let sizes = [3usize, 180, 7, 64, 2, 240, 15, 96, 5, 120];
        let datasets = (0..).zip(sizes).map(|(i, n)| generate_population(&profile, n, i)).collect();
        let test = balanced_test_set(&profile, 10, 11);
        let config = FlJobConfig {
            rounds: 4,
            parties_per_round: 5,
            straggler_rate: 0.2,
            local: LocalTrainingConfig { epochs: 1, batch_size: 16, ..Default::default() },
            ..FlJobConfig::new(profile.model.clone())
        };
        FlJob::new(datasets, test, config, Box::new(RandomSelector::new(10, 5))).unwrap()
    }

    /// Round 0's model for every party in `to`.
    fn model_for(job: &FlJob, to: &[PartyId]) -> Vec<(PartyId, WireMessage)> {
        let params: Arc<[f32]> = job.global_params().into();
        let msg = WireMessage::GlobalModel { job: job.coordinator.job_id(), round: 0, params };
        to.iter().map(|&p| (p, msg.clone())).collect()
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // Whole runs, stragglers included: one worker trains the cohort
        // in turn, four claim parties largest first.
        let run_on = |workers: usize| {
            let mut j = job(0.1);
            while j.round() < j.rounds {
                j.step_on(workers).unwrap();
            }
            (j.history().clone(), j.global_params().to_vec())
        };
        let (hs, ps) = run_on(1);
        let (hp, pp) = run_on(4);
        assert_eq!(hs.accuracy_series(), hp.accuracy_series());
        assert!(hs == hp, "parallel training changed the history");
        assert_eq!(ps, pp);
    }

    #[test]
    fn every_worker_count_trains_the_same_bits() {
        let run_on = |workers: usize| {
            // By hand: party 4 is withheld, and party 8 was told round 0
            // is over, so it trains nothing.
            let mut j = uneven_job();
            let abort = WireMessage::Abort {
                job: j.coordinator.job_id(),
                round: 0,
                party: 8,
                reason: "deadline".into(),
            };
            j.endpoints[8].handle(&abort).unwrap();
            let deliveries = model_for(&j, &[9, 5, 0, 8, 1, 2, 3, 6, 7]);
            let replies = j.train_endpoints(&deliveries, workers).unwrap();
            let mut j = uneven_job();
            while j.round() < 4 {
                let r = j.step_on(workers).unwrap();
                assert_eq!((r.completed.len(), r.stragglers.len()), (4, 1));
            }
            (replies, j.history().clone(), j.global_params().to_vec())
        };
        let (replies, history, params) = run_on(1);
        let senders: Vec<u64> = replies
            .iter()
            .map(|m| match m {
                WireMessage::LocalUpdate { party, .. } => *party,
                other => panic!("not an update: {other:?}"),
            })
            .collect();
        assert_eq!(senders, [0, 1, 2, 3, 5, 6, 7, 9], "roster order, party 8 aborted");
        for workers in [2, 3, 8] {
            let (r, h, p) = run_on(workers);
            assert!(r == replies, "{workers} workers: replies differ");
            assert!(h == history, "{workers} workers: history differs");
            assert!(p == params, "{workers} workers: global params differ");
        }
    }

    #[test]
    fn the_first_error_in_roster_order_wins() {
        let mut j = uneven_job();
        let mut deliveries = model_for(&j, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // Parties 3 (64 samples) and 5 (240, claimed first) get a model
        // of the wrong length.
        let short: Arc<[f32]> = vec![0.0; 3].into();
        for (to, msg) in &mut deliveries {
            if let WireMessage::GlobalModel { params, .. } = msg {
                if [3, 5].contains(to) {
                    *params = Arc::clone(&short);
                }
            }
        }
        for workers in [1, 2, 3, 8] {
            match j.train_endpoints(&deliveries, workers) {
                Err(FlError::Protocol(m)) => assert!(m.contains("party 3 "), "{workers}: {m}"),
                other => panic!("{workers} workers: expected a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn runs_are_seed_reproducible() {
        let mut a = job(0.2);
        let mut b = job(0.2);
        assert_eq!(a.run().unwrap(), b.run().unwrap());
    }

    #[test]
    fn byte_accounting_matches_wire_sizes() {
        // Down: one selection notice + one model broadcast per selected
        // party. Up: one heartbeat ack + one trained update per party
        // (no stragglers at rate 0).
        let mut j = job(0.0);
        let p = j.global_params().len();
        let r = j.step().unwrap();
        assert_eq!(r.bytes_down, (4 * (selection_notice_bytes() + global_model_bytes(p))) as u64);
        assert_eq!(r.bytes_up, (4 * (heartbeat_bytes() + local_update_bytes(p))) as u64);
    }

    #[test]
    fn straggled_rounds_account_for_abort_messages() {
        let mut j = job(0.25);
        let p = j.global_params().len();
        let r = j.step().unwrap();
        assert_eq!(r.stragglers.len(), 1);
        // Down: 4 notices + 4 models + 1 abort; the abort's exact size
        // depends on its reason string, so check bounds.
        let base = (4 * (selection_notice_bytes() + global_model_bytes(p))) as u64;
        assert!(r.bytes_down > base, "abort bytes missing");
        assert_eq!(r.bytes_up, (4 * heartbeat_bytes() + 3 * local_update_bytes(p)) as u64);
    }

    #[test]
    fn all_algorithms_run() {
        for algo in [
            FlAlgorithm::FedAvg,
            FlAlgorithm::fedprox(),
            FlAlgorithm::fedyogi(),
            FlAlgorithm::fedadam(),
            FlAlgorithm::fedadagrad(),
        ] {
            let (datasets, test, profile) = small_setup(8, 1.0);
            let config = FlJobConfig {
                algorithm: algo,
                rounds: 3,
                parties_per_round: 3,
                local: LocalTrainingConfig { epochs: 1, ..Default::default() },
                ..FlJobConfig::new(profile.model.clone())
            };
            let selector = Box::new(RandomSelector::new(datasets.len(), 2));
            let mut j = FlJob::new(datasets, test, config, selector).unwrap();
            let h = j.run().unwrap();
            assert_eq!(h.len(), 3, "{algo} failed to run");
        }
    }

    #[test]
    fn rejects_inconsistent_configs() {
        let (datasets, test, profile) = small_setup(6, 1.0);
        let base = FlJobConfig::new(profile.model.clone());

        // Round size exceeding roster.
        let cfg = FlJobConfig { parties_per_round: 7, ..base.clone() };
        let sel = Box::new(RandomSelector::new(6, 1));
        assert!(FlJob::new(datasets.clone(), test.clone(), cfg, sel).is_err());

        // Selector sized for the wrong roster.
        let cfg = FlJobConfig { parties_per_round: 2, ..base.clone() };
        let sel = Box::new(RandomSelector::new(99, 1));
        assert!(FlJob::new(datasets.clone(), test.clone(), cfg, sel).is_err());

        // Test set from a different schema.
        let other = balanced_test_set(&DatasetProfile::ecg(), 5, 1);
        let cfg = FlJobConfig { parties_per_round: 2, ..base.clone() };
        let sel = Box::new(RandomSelector::new(6, 1));
        assert!(FlJob::new(datasets.clone(), other, cfg, sel).is_err());

        // Two straggler models at once: injected victims on top of a
        // latency-derived deadline.
        let cfg = FlJobConfig {
            parties_per_round: 2,
            straggler_rate: 0.1,
            deadline: DeadlinePolicy::latency_default(),
            ..base.clone()
        };
        let sel = Box::new(RandomSelector::new(6, 1));
        assert!(matches!(
            FlJob::new(datasets.clone(), test.clone(), cfg, sel),
            Err(FlError::InvalidConfig(_))
        ));

        // Zero rounds.
        let cfg = FlJobConfig { rounds: 0, parties_per_round: 2, ..base };
        let sel = Box::new(RandomSelector::new(6, 1));
        assert!(FlJob::new(datasets, test, cfg, sel).is_err());
    }

    /// A selector returning whatever cohort it was constructed with.
    struct Scripted {
        n: usize,
        cohort: Vec<PartyId>,
    }
    impl ParticipantSelector for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn select(
            &mut self,
            _round: usize,
            _target: usize,
        ) -> Result<Vec<PartyId>, SelectionError> {
            Ok(self.cohort.clone())
        }
        fn report(&mut self, _fb: &RoundFeedback) {}
        fn num_parties(&self) -> usize {
            self.n
        }
    }

    #[test]
    fn duplicate_selections_are_deduplicated() {
        // Regression: a buggy policy returning the same party twice must
        // not double-train or double-aggregate it.
        let (datasets, test, profile) = small_setup(6, 1.0);
        let config = FlJobConfig {
            rounds: 1,
            parties_per_round: 3,
            local: LocalTrainingConfig { epochs: 1, ..Default::default() },
            ..FlJobConfig::new(profile.model.clone())
        };
        let sel = Box::new(Scripted { n: 6, cohort: vec![2, 4, 2, 4, 1] });
        let mut j = FlJob::new(datasets, test, config, sel).unwrap();
        let r = j.step().unwrap();
        assert_eq!(r.selected, vec![2, 4, 1], "dedup keeps first occurrence, in order");
        assert_eq!(r.completed, vec![1, 2, 4]);
    }

    #[test]
    fn out_of_range_selection_is_rejected() {
        let (datasets, test, profile) = small_setup(6, 1.0);
        let config = FlJobConfig {
            rounds: 1,
            parties_per_round: 3,
            local: LocalTrainingConfig { epochs: 1, ..Default::default() },
            ..FlJobConfig::new(profile.model.clone())
        };
        let sel = Box::new(Scripted { n: 6, cohort: vec![1, 99] });
        let mut j = FlJob::new(datasets, test, config, sel).unwrap();
        match j.step() {
            Err(FlError::InvalidConfig(m)) => assert!(m.contains("99"), "{m}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn feedback_reaches_the_selector() {
        // A probe selector that records the feedback it receives.
        struct Probe {
            n: usize,
            feedback_rounds: Vec<usize>,
            saw_losses: bool,
            saw_sketches: bool,
        }
        impl ParticipantSelector for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn select(
                &mut self,
                _round: usize,
                target: usize,
            ) -> Result<Vec<PartyId>, SelectionError> {
                Ok((0..target).collect())
            }
            fn report(&mut self, fb: &RoundFeedback) {
                self.feedback_rounds.push(fb.round);
                self.saw_losses |= !fb.train_loss.is_empty();
                self.saw_sketches |= !fb.update_sketch.is_empty();
            }
            fn num_parties(&self) -> usize {
                self.n
            }
        }

        let (datasets, test, profile) = small_setup(6, 1.0);
        let config = FlJobConfig {
            rounds: 2,
            parties_per_round: 3,
            local: LocalTrainingConfig { epochs: 1, ..Default::default() },
            ..FlJobConfig::new(profile.model.clone())
        };
        let probe = Box::new(Probe {
            n: 6,
            feedback_rounds: vec![],
            saw_losses: false,
            saw_sketches: false,
        });
        let mut j = FlJob::new(datasets, test, config, probe).unwrap();
        j.run().unwrap();
        // The probe was moved into the job; verify via history instead:
        // feedback effects are internal, so assert rounds ran and records
        // carry the loss/sketch-bearing fields.
        let h = j.history();
        assert_eq!(h.len(), 2);
        assert!(h.records().iter().all(|r| r.mean_train_loss > 0.0));
    }
}
