//! Participant-side local training (Algorithm 1, lines 1–7).
//!
//! A [`Party`] is data: its id, its private local dataset and the job's
//! agreed architecture. A [`Trainer`] holds what training touches — a
//! model instance, its workspace, the minibatch buffers — and trains any
//! party of its architecture: each round it takes the global parameters,
//! runs τ epochs of mini-batch SGD (with FedProx's proximal pull when
//! configured), and returns the party's trained parameters with the
//! metadata the aggregator and selectors need. The cohort drivers keep
//! one trainer per worker, not one per party.

use crate::config::LocalTrainingConfig;
use crate::latency::LatencyModel;
use flips_data::Dataset;
use flips_ml::loss::add_proximal_grad;
use flips_ml::model::{Model, ModelSpec, TrainWorkspace};
use flips_ml::optimizer::Sgd;
use flips_ml::rng::{derive_seed, seeded};
use flips_ml::Matrix;
use flips_selection::PartyId;

/// The result of one party's local training for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalUpdate {
    /// The trained parameters `x_i^(r,τ)`.
    pub params: Vec<f32>,
    /// Local sample count `n_i` (the aggregation weight).
    pub num_samples: usize,
    /// Mean training loss over all local steps this round.
    pub mean_loss: f64,
    /// Simulated training duration, seconds.
    pub duration: f64,
}

/// One FL participant: its id, its private dataset and the job's agreed
/// architecture.
///
/// A party holds no training scratch; a [`Trainer`] trains it. Only
/// [`Party::train`], the standalone call, keeps a trainer of its own,
/// made on its first call.
pub struct Party {
    id: PartyId,
    data: Dataset,
    spec: ModelSpec,
    trainer: Option<Box<Trainer>>,
}

impl std::fmt::Debug for Party {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Party")
            .field("id", &self.id)
            .field("samples", &self.data.len())
            .field("model_params", &self.num_params())
            .finish()
    }
}

impl Party {
    /// Creates a party with its private dataset and the agreed
    /// architecture. No model is built: a [`Trainer`] holds one. The seed
    /// is read by nothing; the parameter stays for the callers that pass
    /// it.
    pub fn new(id: PartyId, data: Dataset, spec: &ModelSpec, _seed: u64) -> Self {
        Party { id, data, spec: spec.clone(), trainer: None }
    }

    /// This party's identifier.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// Local sample count `n_i`.
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// The agreed architecture.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Parameter count of the agreed architecture.
    pub fn num_params(&self) -> usize {
        self.spec.num_params()
    }

    /// The party's label distribution — the secret it provisions to the
    /// FLIPS enclave (never to the aggregator).
    pub fn label_distribution(&self) -> flips_data::LabelDistribution {
        flips_data::LabelDistribution::from_dataset(&self.data)
    }

    /// [`Trainer::train`] on this party's own trainer, made on the first
    /// call and kept for the next.
    ///
    /// # Panics
    ///
    /// Panics if `global_params` does not match the agreed architecture.
    pub fn train(
        &mut self,
        global_params: &[f32],
        round: usize,
        local: &LocalTrainingConfig,
        proximal_mu: f32,
        latency: &LatencyModel,
        seed: u64,
    ) -> LocalUpdate {
        let mut trainer = self.trainer.take().unwrap_or_else(|| Box::new(Trainer::new(&self.spec)));
        let update = trainer.train(self, global_params, round, local, proximal_mu, latency, seed);
        self.trainer = Some(trainer);
        update
    }
}

/// Training scratch for any party of one architecture: a model instance,
/// its workspace, the minibatch buffers, the epoch order and the
/// parameter buffer, sized by [`Trainer::reserve_buffers`].
///
/// [`Trainer::train`] overwrites every buffer before reading it, so one
/// trainer trains any number of parties in turn, each to the bits a fresh
/// trainer gives. Once sized, a round allocates one vector, its update's
/// parameters — the buffer training writes and then hands over — plus
/// SGD's velocity when client momentum is on.
pub struct Trainer {
    model: Box<dyn Model>,
    ws: TrainWorkspace,
    batch_x: Matrix,
    batch_y: Vec<usize>,
    order: Vec<usize>,
    params: Vec<f32>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer").field("model_params", &self.model.num_params()).finish()
    }
}

impl Trainer {
    /// An unsized trainer for parties of `spec`.
    pub fn new(spec: &ModelSpec) -> Self {
        Trainer {
            // Every round's global model overwrites these weights.
            model: spec.build(&mut seeded(0)),
            ws: TrainWorkspace::new(),
            batch_x: Matrix::zeros(0, 0),
            batch_y: Vec::new(),
            order: Vec::new(),
            params: Vec::new(),
        }
    }

    /// Allocates every buffer [`Trainer::train`] fills for `party` under
    /// `local` — it calls this first — on the calling thread, so a driver
    /// that trains on worker threads can keep the memory in its own
    /// allocator arena. Sized for the largest party of a cohort, a trainer
    /// trains every other one without growing. Once sized, only the
    /// parameter buffer is new each round: the last update took the old
    /// one.
    pub fn reserve_buffers(&mut self, party: &Party, local: &LocalTrainingConfig) {
        let rows = local.batch_size.min(party.data.len());
        // `train` refills each of these from empty.
        self.params.clear();
        self.params.reserve_exact(self.model.num_params());
        // The order is cleared where each epoch refills it.
        self.order.reserve_exact(party.data.len().saturating_sub(self.order.len()));
        self.batch_y.clear();
        self.batch_y.reserve_exact(rows);
        self.batch_x.reserve(rows, party.data.x.cols());
        self.model.reserve_workspace(rows, &mut self.ws);
    }

    /// Runs one round of `party`'s local training from `global_params`.
    ///
    /// `proximal_mu > 0` enables the FedProx pull toward the global model.
    /// Deterministic in `(job seed, round, party id)`, whichever parties
    /// this trainer trained before.
    ///
    /// # Panics
    ///
    /// Panics if `global_params` does not match the agreed architecture —
    /// a protocol violation, not a recoverable condition.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        &mut self,
        party: &Party,
        global_params: &[f32],
        round: usize,
        local: &LocalTrainingConfig,
        proximal_mu: f32,
        latency: &LatencyModel,
        seed: u64,
    ) -> LocalUpdate {
        self.model
            .set_params(global_params)
            .expect("global model must match the agreed architecture");
        self.reserve_buffers(party, local);
        let data = &party.data;
        let mut rng = seeded(derive_seed(seed, 0x7121 ^ (round as u64) << 24 ^ party.id as u64));
        let lr = local.lr_schedule.at(round);
        let mut opt: Sgd = if local.momentum > 0.0 {
            Sgd::with_momentum(lr, local.momentum)
        } else {
            Sgd::new(lr)
        };

        self.params.extend_from_slice(global_params);
        let mut total_loss = 0.0f64;
        let mut steps = 0usize;
        for _ in 0..local.epochs {
            self.order.clear();
            self.order.extend(0..data.len());
            flips_ml::rng::shuffle(&mut rng, &mut self.order);
            for start in (0..self.order.len()).step_by(local.batch_size) {
                let batch_idx =
                    &self.order[start..(start + local.batch_size).min(self.order.len())];
                data.x.select_rows_into(batch_idx, &mut self.batch_x);
                self.batch_y.clear();
                self.batch_y.extend(batch_idx.iter().map(|&i| data.y[i]));
                let loss = self.step_minibatch(global_params, proximal_mu, &mut opt);
                total_loss += loss as f64;
                steps += 1;
            }
        }

        LocalUpdate {
            // The trained parameters leave as they are; no copy.
            params: std::mem::take(&mut self.params),
            num_samples: data.len(),
            mean_loss: if steps > 0 { total_loss / steps as f64 } else { 0.0 },
            duration: latency.duration(party.id, data.len(), local.epochs),
        }
    }

    /// One optimizer step on the current minibatch buffers, through the
    /// model's workspace API (zero allocation).
    fn step_minibatch(&mut self, global_params: &[f32], proximal_mu: f32, opt: &mut Sgd) -> f32 {
        let loss = self.model.loss_and_grad_into(&self.batch_x, &self.batch_y, &mut self.ws);
        if proximal_mu > 0.0 {
            add_proximal_grad(self.ws.grad_mut(), &self.params, global_params, proximal_mu);
        }
        opt.step(&mut self.params, self.ws.grad());
        self.model.set_params(&self.params).expect("param length is fixed");
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flips_data::dataset::generate_population;
    use flips_data::DatasetProfile;
    use flips_ml::matrix::l2_norm;

    fn party_with_data(n: usize) -> Party {
        let profile = DatasetProfile::femnist();
        let data = generate_population(&profile, n, 3);
        Party::new(0, data, &profile.model, 42)
    }

    fn spec() -> ModelSpec {
        DatasetProfile::femnist().model
    }

    fn global_params() -> Vec<f32> {
        spec().build(&mut seeded(0)).params()
    }

    #[test]
    fn training_reduces_local_loss() {
        let mut party = party_with_data(200);
        let global = global_params();
        let latency = LatencyModel::uniform(1);
        let cfg = LocalTrainingConfig { epochs: 10, ..Default::default() };
        let first = party.train(&global, 0, &cfg, 0.0, &latency, 1);
        // Train again *from the trained parameters* — loss must be lower
        // than the first round's mean.
        let second = party.train(&first.params, 1, &cfg, 0.0, &latency, 1);
        assert!(
            second.mean_loss < first.mean_loss,
            "loss {} -> {}",
            first.mean_loss,
            second.mean_loss
        );
    }

    #[test]
    fn update_reports_sample_count_and_duration() {
        let mut party = party_with_data(150);
        let latency = LatencyModel::uniform(1);
        let up =
            party.train(&global_params(), 0, &LocalTrainingConfig::default(), 0.0, &latency, 1);
        assert_eq!(up.num_samples, 150);
        assert!((up.duration - latency.duration(0, 150, 2)).abs() < 1e-12);
        assert!(up.mean_loss > 0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut party = party_with_data(100);
            party.train(
                &global_params(),
                3,
                &LocalTrainingConfig::default(),
                0.0,
                &LatencyModel::uniform(1),
                9,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn proximal_term_keeps_update_closer_to_global() {
        let global = global_params();
        let latency = LatencyModel::uniform(1);
        let cfg = LocalTrainingConfig { epochs: 8, ..Default::default() };
        let drift = |mu: f32| {
            let mut party = party_with_data(200);
            let up = party.train(&global, 0, &cfg, mu, &latency, 5);
            let diff: Vec<f32> = up.params.iter().zip(&global).map(|(a, b)| a - b).collect();
            l2_norm(&diff)
        };
        let free = drift(0.0);
        let anchored = drift(1.0);
        assert!(anchored < free, "µ=1 drift {anchored} must be below µ=0 drift {free}");
    }

    #[test]
    fn a_round_fits_in_the_reserved_buffers() {
        // One trainer, sized for the largest party of an unequal cohort,
        // trains each party into the parameter buffer it reserved, and no
        // buffer grows: not the order, the minibatch or the workspace.
        let profile = DatasetProfile::femnist();
        let cohort: Vec<Party> = [75, 20, 140, 33]
            .into_iter()
            .enumerate()
            .map(|(id, n)| Party::new(id, generate_population(&profile, n, 3), &spec(), 42))
            .collect();
        let largest = cohort.iter().max_by_key(|p| p.num_samples()).unwrap();
        let cfg = LocalTrainingConfig { batch_size: 32, ..Default::default() };
        let mut trainer = Trainer::new(&spec());
        trainer.reserve_buffers(largest, &cfg);
        assert_eq!(trainer.params.capacity(), largest.num_params());
        let sized = |t: &Trainer| {
            let ptrs = (t.batch_x.as_slice().as_ptr(), t.ws.grad().as_ptr());
            (t.order.capacity(), t.batch_y.capacity(), ptrs)
        };
        let reserved = sized(&trainer);
        assert_eq!((reserved.0, reserved.1), (140, 32));
        for party in &cohort {
            trainer.reserve_buffers(largest, &cfg);
            let buffer = trainer.params.as_ptr();
            let up =
                trainer.train(party, &global_params(), 0, &cfg, 0.0, &LatencyModel::uniform(4), 1);
            assert_eq!(up.params.as_ptr(), buffer, "party {}: not the reserved buffer", party.id());
            assert_eq!(sized(&trainer), reserved, "party {}: a buffer grew", party.id());
        }
    }

    /// The bits of `update`, NaN-safe.
    fn bits(update: &LocalUpdate) -> (Vec<u32>, usize, u64, u64) {
        let params = update.params.iter().map(|p| p.to_bits()).collect();
        (params, update.num_samples, update.mean_loss.to_bits(), update.duration.to_bits())
    }

    #[test]
    fn a_trainer_trains_the_next_party_as_a_fresh_one_does() {
        // Which parties share a worker's trainer depends on claim timing,
        // so a party's update must not depend on what its trainer trained
        // before: B after A on one trainer is B on a fresh one, bit for
        // bit — for either architecture, with and without the proximal
        // pull, and for a B under one batch after a larger A and the
        // reverse.
        let latency = LatencyModel::uniform(4);
        for profile in [DatasetProfile::femnist(), DatasetProfile::ecg()] {
            let spec = profile.model.clone();
            let global_a = spec.build(&mut seeded(5)).params();
            let global_b = spec.build(&mut seeded(0)).params();
            let cfg = LocalTrainingConfig { epochs: 2, batch_size: 32, ..Default::default() };
            for mu in [0.0, 0.5] {
                for (na, nb) in [(150, 20), (20, 150)] {
                    let a = Party::new(1, generate_population(&profile, na, 7), &spec, 0);
                    let b = Party::new(2, generate_population(&profile, nb, 8), &spec, 0);
                    let mut shared = Trainer::new(&spec);
                    shared.train(&a, &global_a, 3, &cfg, mu, &latency, 9);
                    let reused = shared.train(&b, &global_b, 4, &cfg, mu, &latency, 9);
                    let fresh = Trainer::new(&spec).train(&b, &global_b, 4, &cfg, mu, &latency, 9);
                    assert!(
                        bits(&reused) == bits(&fresh),
                        "{}: µ = {mu}, B of {nb} after A of {na} differs",
                        profile.name
                    );
                }
            }
        }
    }

    #[test]
    fn label_distribution_matches_data() {
        let party = party_with_data(120);
        assert_eq!(party.label_distribution().total(), 120);
    }

    #[test]
    #[should_panic(expected = "agreed architecture")]
    fn wrong_global_length_is_a_protocol_violation() {
        let mut party = party_with_data(50);
        let _ = party.train(
            &[0.0; 3],
            0,
            &LocalTrainingConfig::default(),
            0.0,
            &LatencyModel::uniform(1),
            1,
        );
    }

    use flips_ml::rng::seeded;
}
