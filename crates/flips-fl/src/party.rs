//! Participant-side local training (Algorithm 1, lines 1–7).
//!
//! A [`Party`] owns a private local dataset and a model instance of the
//! job's agreed architecture. Each round it receives the global
//! parameters, runs τ epochs of mini-batch SGD (with FedProx's proximal
//! pull when configured), and returns its trained parameters with the
//! metadata the aggregator and selectors need.

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

/// One FL participant.
///
/// Besides its dataset and model, a party owns the reusable training
/// buffers (workspace, minibatch views, parameter/epoch-order scratch),
/// sized by [`Party::reserve_buffers`]. A round allocates one vector, its
/// update's parameters — the buffer training writes and then hands over —
/// plus SGD's velocity when client momentum is on.
pub struct Party {
    id: PartyId,
    data: Dataset,
    model: Box<dyn Model>,
    ws: TrainWorkspace,
    batch_x: Matrix,
    batch_y: Vec<usize>,
    order: Vec<usize>,
    params: Vec<f32>,
}

impl std::fmt::Debug for Party {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Party")
            .field("id", &self.id)
            .field("samples", &self.data.len())
            .field("model_params", &self.model.num_params())
            .finish()
    }
}

impl Party {
    /// Creates a party with its private dataset, instantiating the agreed
    /// model architecture locally (weights are overwritten each round).
    pub fn new(id: PartyId, data: Dataset, spec: &ModelSpec, seed: u64) -> Self {
        let mut rng = seeded(derive_seed(seed, 0xBA57 ^ id as u64));
        Party {
            id,
            data,
            model: spec.build(&mut rng),
            ws: TrainWorkspace::new(),
            batch_x: Matrix::zeros(0, 0),
            batch_y: Vec::new(),
            order: Vec::new(),
            params: Vec::new(),
        }
    }

    /// This party's identifier.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// Local sample count `n_i`.
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// Parameter count of the agreed architecture.
    pub fn num_params(&self) -> usize {
        self.model.num_params()
    }

    /// The party's label distribution — the secret it provisions to the
    /// FLIPS enclave (never to the aggregator).
    pub fn label_distribution(&self) -> flips_data::LabelDistribution {
        flips_data::LabelDistribution::from_dataset(&self.data)
    }

    /// Allocates every buffer [`Party::train`] fills under `local` — it
    /// calls this first — on the calling thread, so a driver that trains
    /// parties on worker threads can keep their memory in its own
    /// allocator arena. Once they are sized, only the parameter buffer is
    /// new each round: the last update took the old one.
    pub fn reserve_buffers(&mut self, local: &LocalTrainingConfig) {
        let rows = local.batch_size.min(self.data.len());
        // `train` refills each of these from empty.
        self.params.clear();
        self.params.reserve_exact(self.model.num_params());
        self.order.clear();
        self.order.reserve_exact(self.data.len());
        self.batch_y.clear();
        self.batch_y.reserve_exact(rows);
        self.batch_x.reserve(rows, self.data.x.cols());
        self.model.reserve_workspace(rows, &mut self.ws);
    }

    /// Runs one round of local training from `global_params`.
    ///
    /// `proximal_mu > 0` enables the FedProx pull toward the global model.
    /// Deterministic in `(job seed, round, party id)`.
    ///
    /// # Panics
    ///
    /// Panics if `global_params` does not match the agreed architecture —
    /// a protocol violation, not a recoverable condition.
    pub fn train(
        &mut self,
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
        self.reserve_buffers(local);
        let mut rng = seeded(derive_seed(seed, 0x7121 ^ (round as u64) << 24 ^ self.id as u64));
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
            self.order.extend(0..self.data.len());
            flips_ml::rng::shuffle(&mut rng, &mut self.order);
            for start in (0..self.order.len()).step_by(local.batch_size) {
                let batch_idx =
                    &self.order[start..(start + local.batch_size).min(self.order.len())];
                self.data.x.select_rows_into(batch_idx, &mut self.batch_x);
                self.batch_y.clear();
                self.batch_y.extend(batch_idx.iter().map(|&i| self.data.y[i]));
                let loss = self.step_minibatch(global_params, proximal_mu, &mut opt);
                total_loss += loss as f64;
                steps += 1;
            }
        }

        LocalUpdate {
            // The trained parameters leave as they are; no copy.
            params: std::mem::take(&mut self.params),
            num_samples: self.data.len(),
            mean_loss: if steps > 0 { total_loss / steps as f64 } else { 0.0 },
            duration: latency.duration(self.id, self.data.len(), local.epochs),
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
        let mut party = party_with_data(75);
        let cfg = LocalTrainingConfig { batch_size: 32, ..Default::default() };
        party.reserve_buffers(&cfg);
        let reserved = party.params.as_ptr();
        assert_eq!(party.params.capacity(), party.num_params());
        assert_eq!((party.order.capacity(), party.batch_y.capacity()), (75, 32));
        let up = party.train(&global_params(), 0, &cfg, 0.0, &LatencyModel::uniform(1), 1);
        assert_eq!(up.params.as_ptr(), reserved, "the update is the reserved buffer");
        assert_eq!((party.order.capacity(), party.batch_y.capacity()), (75, 32));
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
