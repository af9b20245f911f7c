//! Server-side aggregation and optimization.
//!
//! All evaluated algorithms aggregate client updates into the weighted
//! average `x̄ = Σ nᵢ·xᵢ / Σ nᵢ` (paper §2.1). They differ in how the
//! global model advances:
//!
//! - **FedAvg / FedProx** — the global model *becomes* `x̄`;
//! - **FedYogi / FedAdam / FedAdagrad** — the server treats the
//!   pseudo-gradient `g = m − x̄` as a gradient and runs one adaptive
//!   optimizer step on the global parameters, keeping per-parameter
//!   moment state across rounds.

use crate::config::FlAlgorithm;
use crate::party::LocalUpdate;
use crate::FlError;
use flips_ml::optimizer::{Adaptive, Rule};

/// Accumulates the sample-weighted average of `updates` — `(nᵢ, xᵢ)`
/// pairs, folded in the order given — into `accum` (resized to the
/// parameter dimension; f64 accumulation).
///
/// # Errors
///
/// Returns [`FlError::InvalidConfig`] when `updates` is empty, all weights
/// are zero, or parameter lengths disagree.
pub(crate) fn weighted_average_into<'a>(
    accum: &mut Vec<f64>,
    updates: impl Iterator<Item = (u64, &'a [f32])> + Clone,
) -> Result<(), FlError> {
    let (_, first) = updates
        .clone()
        .next()
        .ok_or_else(|| FlError::InvalidConfig("no updates to aggregate".into()))?;
    let dim = first.len();
    let total: f64 = updates.clone().map(|(n, _)| n as f64).sum();
    if total <= 0.0 {
        return Err(FlError::InvalidConfig("aggregation weights sum to zero".into()));
    }
    accum.clear();
    accum.resize(dim, 0.0);
    for (n, params) in updates {
        if params.len() != dim {
            return Err(FlError::InvalidConfig(format!(
                "update length {} != {}",
                params.len(),
                dim
            )));
        }
        let w = n as f64 / total;
        for (a, &p) in accum.iter_mut().zip(params) {
            *a += w * p as f64;
        }
    }
    Ok(())
}

/// `updates` as the `(nᵢ, xᵢ)` pairs [`weighted_average_into`] folds.
fn weighted(updates: &[LocalUpdate]) -> impl Iterator<Item = (u64, &[f32])> + Clone {
    updates.iter().map(|u| (u.num_samples as u64, u.params.as_slice()))
}

/// Computes the sample-weighted average of client updates.
///
/// (Allocating convenience wrapper; [`ServerState::apply_round`] reuses a
/// persistent buffer.)
///
/// # Errors
///
/// As the round loop's in-place aggregation.
pub fn weighted_average(updates: &[LocalUpdate]) -> Result<Vec<f32>, FlError> {
    let mut accum = Vec::new();
    weighted_average_into(&mut accum, weighted(updates))?;
    Ok(accum.into_iter().map(|x| x as f32).collect())
}

/// The server's persistent optimizer state for one FL job.
///
/// Holds [`ServerState::apply_round`]'s accumulator and the
/// pseudo-gradient scratch across rounds, so neither is reallocated after
/// the first round.
pub struct ServerState {
    algorithm: FlAlgorithm,
    optimizer: Option<Adaptive>,
    accum: Vec<f64>,
    scratch: Vec<f32>,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState").field("algorithm", &self.algorithm).finish()
    }
}

impl ServerState {
    /// Creates the server state for an algorithm.
    pub fn new(algorithm: FlAlgorithm) -> Self {
        let optimizer = match algorithm {
            FlAlgorithm::FedAvg | FlAlgorithm::FedProx { .. } => None,
            FlAlgorithm::FedYogi { server_lr } => Some(Adaptive::new(Rule::Yogi, server_lr)),
            FlAlgorithm::FedAdam { server_lr } => Some(Adaptive::new(Rule::Adam, server_lr)),
            FlAlgorithm::FedAdagrad { server_lr } => Some(Adaptive::new(Rule::Adagrad, server_lr)),
        };
        ServerState { algorithm, optimizer, accum: Vec::new(), scratch: Vec::new() }
    }

    /// The algorithm this state serves.
    pub fn algorithm(&self) -> FlAlgorithm {
        self.algorithm
    }

    /// Applies one round of client updates to the global model in place:
    /// the f64 weighted average of `updates` in slice order, then
    /// [`ServerState::apply_aggregate`].
    ///
    /// # Errors
    ///
    /// Propagates aggregation errors; rejects a length mismatch between
    /// the global model and the aggregate.
    pub fn apply_round(
        &mut self,
        global: &mut [f32],
        updates: &[LocalUpdate],
    ) -> Result<(), FlError> {
        let mut accum = std::mem::take(&mut self.accum);
        weighted_average_into(&mut accum, weighted(updates))?;
        let result = self.apply_aggregate(global, &accum);
        self.accum = accum;
        result
    }

    /// Advances the global model from an already-computed weighted
    /// average `x̄` (`accum`) — the optimizer step every aggregation path
    /// shares, whichever sum produced `x̄` (see [`crate::aggtree`]).
    ///
    /// # Errors
    ///
    /// Rejects a length mismatch between the global model and the
    /// aggregate.
    pub fn apply_aggregate(&mut self, global: &mut [f32], accum: &[f64]) -> Result<(), FlError> {
        if accum.len() != global.len() {
            return Err(FlError::InvalidConfig(format!(
                "aggregate length {} != global {}",
                accum.len(),
                global.len()
            )));
        }
        match &mut self.optimizer {
            None => {
                // FedAvg/FedProx: the global model becomes the average.
                for (g, &a) in global.iter_mut().zip(accum) {
                    *g = a as f32;
                }
            }
            Some(opt) => {
                // Pseudo-gradient g = m − x̄; step does m ← m − lr·f(g),
                // moving m toward x̄ adaptively.
                self.scratch.clear();
                self.scratch.extend(global.iter().zip(accum).map(|(m, a)| m - *a as f32));
                opt.step(global, &self.scratch);
            }
        }
        Ok(())
    }

    /// Exports the aggregation plane's persistent state: the server
    /// optimizer's accumulated moments/velocity, bit-exactly. The
    /// averaging buffers (`accum`, `scratch`) are per-call scratch and
    /// carry nothing across rounds, so the optimizer words are the
    /// complete snapshot; FedAvg/FedProx (no optimizer) export empty.
    pub fn export_optimizer(&self) -> Vec<f32> {
        self.optimizer.as_ref().map_or_else(Vec::new, Adaptive::export_state)
    }

    /// Restores state previously produced by
    /// [`ServerState::export_optimizer`] on a server built for the same
    /// algorithm and a model of `params` parameters. Returns `false`
    /// (state untouched) on a layout the algorithm's optimizer rejects,
    /// or on moments that are neither empty (no step taken yet) nor one
    /// word per parameter — the next step would panic on them.
    pub fn import_optimizer(&mut self, state: &[f32], params: usize) -> bool {
        match &mut self.optimizer {
            Some(opt) => [2, 2 + 2 * params].contains(&state.len()) && opt.import_state(state),
            None => state.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(params: Vec<f32>, n: usize) -> LocalUpdate {
        LocalUpdate { params, num_samples: n, mean_loss: 0.0, duration: 0.0 }
    }

    #[test]
    fn weighted_average_respects_sample_counts() {
        let ups = vec![update(vec![0.0, 0.0], 10), update(vec![1.0, 2.0], 30)];
        let avg = weighted_average(&ups).unwrap();
        assert!((avg[0] - 0.75).abs() < 1e-6);
        assert!((avg[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn equal_weights_give_plain_mean() {
        let ups = vec![update(vec![1.0], 5), update(vec![3.0], 5)];
        assert_eq!(weighted_average(&ups).unwrap(), vec![2.0]);
    }

    #[test]
    fn rejects_empty_and_mismatched_updates() {
        assert!(weighted_average(&[]).is_err());
        let ups = vec![update(vec![1.0], 1), update(vec![1.0, 2.0], 1)];
        assert!(weighted_average(&ups).is_err());
        let ups = vec![update(vec![1.0], 0)];
        assert!(weighted_average(&ups).is_err());
    }

    #[test]
    fn fedavg_replaces_global_with_average() {
        let mut state = ServerState::new(FlAlgorithm::FedAvg);
        let mut global = vec![9.0, 9.0];
        let ups = vec![update(vec![1.0, 2.0], 10)];
        state.apply_round(&mut global, &ups).unwrap();
        assert_eq!(global, vec![1.0, 2.0]);
    }

    #[test]
    fn fedyogi_moves_toward_average_but_keeps_momentum_state() {
        let mut state = ServerState::new(FlAlgorithm::fedyogi());
        let mut global = vec![1.0f32];
        let target = vec![update(vec![0.0], 1)];
        let before = global[0];
        state.apply_round(&mut global, &target).unwrap();
        assert!(global[0] < before, "must move toward the average");
        // Repeated application converges near the average.
        for _ in 0..600 {
            state.apply_round(&mut global, &target).unwrap();
        }
        assert!(global[0].abs() < 0.1, "global {global:?} should approach 0");
    }

    #[test]
    fn fedprox_server_side_is_plain_averaging() {
        // FedProx differs client-side only.
        let mut prox = ServerState::new(FlAlgorithm::fedprox());
        let mut avg = ServerState::new(FlAlgorithm::FedAvg);
        let ups = vec![update(vec![2.0, 4.0], 7)];
        let mut a = vec![0.0, 0.0];
        let mut b = vec![0.0, 0.0];
        prox.apply_round(&mut a, &ups).unwrap();
        avg.apply_round(&mut b, &ups).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_variants_all_advance() {
        for algo in [FlAlgorithm::fedyogi(), FlAlgorithm::fedadam(), FlAlgorithm::fedadagrad()] {
            let mut state = ServerState::new(algo);
            let mut global = vec![1.0f32, -1.0];
            let ups = vec![update(vec![0.0, 0.0], 1)];
            state.apply_round(&mut global, &ups).unwrap();
            assert!(global[0] < 1.0 && global[1] > -1.0, "{algo}: {global:?}");
        }
    }

    #[test]
    fn optimizer_words_must_fit_the_model() {
        let mut state = ServerState::new(FlAlgorithm::fedyogi());
        let mut global = vec![1.0f32, -1.0];
        state.apply_round(&mut global, &[update(vec![0.0, 0.0], 1)]).unwrap();
        let words = state.export_optimizer();
        let mut twin = ServerState::new(FlAlgorithm::fedyogi());
        assert!(!twin.import_optimizer(&[0.0, 0.0, 1.0, 1.0], 2), "moments of 1 for 2 params");
        assert!(!twin.import_optimizer(&words, 3), "moments of 2 for 3 params");
        assert!(twin.import_optimizer(&[0.0, 0.0], 2), "no step taken yet");
        assert!(twin.import_optimizer(&words, 2));
        assert!(!ServerState::new(FlAlgorithm::FedAvg).import_optimizer(&words, 2));
    }

    #[test]
    fn rejects_global_length_mismatch() {
        let mut state = ServerState::new(FlAlgorithm::FedAvg);
        let mut global = vec![0.0; 3];
        let ups = vec![update(vec![1.0], 1)];
        assert!(state.apply_round(&mut global, &ups).is_err());
    }
}
