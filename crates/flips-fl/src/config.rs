//! FL algorithm, training and deadline-pressure configuration.

use crate::latency::ObservedLatency;
use flips_ml::optimizer::StepDecay;
use serde::{Deserialize, Serialize};

/// The federated-learning algorithm — how client updates become the next
/// global model (paper §2.1).
///
/// All algorithms here share the FedAvg *client* loop (τ local SGD steps)
/// and differ in (a) an optional client-side proximal term (FedProx) and
/// (b) the server optimizer applied to the aggregated pseudo-gradient
/// (FedYogi / FedAdam / FedAdagrad).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FlAlgorithm {
    /// Weighted averaging of client models (McMahan et al.).
    FedAvg,
    /// FedAvg with a client-side proximal term `µ/2‖x − m‖²` (Li et al.).
    FedProx {
        /// Proximal penalty µ.
        mu: f32,
    },
    /// Adaptive server optimization with Yogi (Reddi et al.) — the paper's
    /// best performer on non-IID data.
    FedYogi {
        /// Server learning rate.
        server_lr: f32,
    },
    /// Adaptive server optimization with Adam.
    FedAdam {
        /// Server learning rate.
        server_lr: f32,
    },
    /// Adaptive server optimization with Adagrad.
    FedAdagrad {
        /// Server learning rate.
        server_lr: f32,
    },
}

impl FlAlgorithm {
    /// FedProx with the paper-typical µ = 0.01.
    pub fn fedprox() -> Self {
        FlAlgorithm::FedProx { mu: 0.01 }
    }

    /// FedYogi with the standard server learning rate 0.1.
    pub fn fedyogi() -> Self {
        FlAlgorithm::FedYogi { server_lr: 0.1 }
    }

    /// FedAdam with the standard server learning rate 0.1.
    pub fn fedadam() -> Self {
        FlAlgorithm::FedAdam { server_lr: 0.1 }
    }

    /// FedAdagrad with the standard server learning rate 0.1.
    pub fn fedadagrad() -> Self {
        FlAlgorithm::FedAdagrad { server_lr: 0.1 }
    }

    /// The paper's table label for this algorithm.
    pub fn label(&self) -> &'static str {
        match self {
            FlAlgorithm::FedAvg => "FedAvg",
            FlAlgorithm::FedProx { .. } => "FedProx",
            FlAlgorithm::FedYogi { .. } => "FedYoGi",
            FlAlgorithm::FedAdam { .. } => "FedAdam",
            FlAlgorithm::FedAdagrad { .. } => "FedAdagrad",
        }
    }

    /// The client-side proximal coefficient (zero except FedProx).
    pub fn proximal_mu(&self) -> f32 {
        match self {
            FlAlgorithm::FedProx { mu } => *mu,
            _ => 0.0,
        }
    }

    /// The three algorithms the paper evaluates, in table order.
    pub fn paper_algorithms() -> [FlAlgorithm; 3] {
        [FlAlgorithm::fedyogi(), FlAlgorithm::fedprox(), FlAlgorithm::FedAvg]
    }
}

impl std::fmt::Display for FlAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Participant-side training hyper-parameters (agreed at job start, §2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainingConfig {
    /// Local epochs over the party's dataset per round (τ).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Client learning-rate schedule across rounds.
    pub lr_schedule: StepDecay,
    /// Client SGD momentum.
    pub momentum: f32,
}

impl Default for LocalTrainingConfig {
    fn default() -> Self {
        LocalTrainingConfig {
            epochs: 2,
            batch_size: 32,
            lr_schedule: StepDecay::constant(0.05),
            momentum: 0.0,
        }
    }
}

impl LocalTrainingConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects zero epochs/batch size and non-positive learning rates.
    pub fn validate(&self) -> Result<(), crate::FlError> {
        if self.epochs == 0 {
            return Err(crate::FlError::InvalidConfig("zero local epochs".into()));
        }
        if self.batch_size == 0 {
            return Err(crate::FlError::InvalidConfig("zero batch size".into()));
        }
        if self.lr_schedule.initial <= 0.0 {
            return Err(crate::FlError::InvalidConfig("non-positive learning rate".into()));
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(crate::FlError::InvalidConfig("momentum must be in [0, 1)".into()));
        }
        Ok(())
    }
}

/// Virtual timer-wheel ticks per simulated second (microsecond
/// resolution). Latency-derived deadlines are scheduled on the
/// [`crate::TimerWheel`] in these units, so two jobs with different
/// observed latencies interleave their deadline ticks realistically
/// instead of all firing on the same "next quiet tick".
pub const TICKS_PER_SECOND: f64 = 1_000_000.0;

/// How a round's collection deadline is chosen — the knob that turns
/// deadline pressure from a synthetic fault injection into a measured
/// property of the population.
///
/// The policy is *driver* machinery, held by each job's
/// `Stragglers`: the sans-IO [`crate::Coordinator`] never sees it. It
/// only learns that a deadline expired and closes whoever has not
/// delivered as stragglers.
///
/// - [`DeadlinePolicy::Injected`] keeps the paper's §5 emulation: a
///   seeded injector designates `rate · |cohort|` victims per round and
///   their updates are never delivered.
/// - [`DeadlinePolicy::LatencyQuantile`] derives each round's deadline
///   from *observed* round-trip latency: the deadline is
///   `slack × quantile_q(observed durations)`. A party whose simulated
///   round trip exceeds it misses the round — who straggles follows from
///   the latency model, not from a coin flip.
/// - [`DeadlinePolicy::Ewma`] anchors the same way on an exponentially
///   weighted moving average of per-round mean durations, so the
///   deadline tracks a drifting population.
/// - [`DeadlinePolicy::FixedSeconds`] is the degenerate fixed-budget
///   policy (useful in tests and for SLA-style rounds).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum DeadlinePolicy {
    /// Synthetic victim sets from the seeded straggler injector (the
    /// paper's emulation; configured via `straggler_rate`).
    #[default]
    Injected,
    /// Deadline = `slack × quantile_q(observed round-trip durations)`,
    /// recomputed at every round open from all samples observed so far.
    /// Until the first sample arrives (round 0) the deadline is
    /// unbounded — the warm-up round is how the driver learns the
    /// population.
    LatencyQuantile {
        /// The quantile of observed durations the deadline anchors on,
        /// in `[0, 1]` (e.g. 0.9 = the 90th percentile).
        q: f64,
        /// Multiplicative slack over the anchor quantile (≥ 0; values
        /// below 1 make even median parties miss).
        slack: f64,
    },
    /// Deadline = `slack × EWMA(per-round mean durations)`: an
    /// exponentially weighted moving average over the *batch means* of
    /// each closed round's observed durations, so the deadline tracks a
    /// drifting population faster than a whole-history quantile while
    /// staying a pure function of the per-round sample multisets
    /// (batches are sealed at round opens — a deterministic point — and
    /// each batch mean is summed in sorted order, so sharded arrival
    /// order cannot move a bit; see [`ObservedLatency::ewma`]).
    /// Unbounded until the first sample arrives, like
    /// [`DeadlinePolicy::LatencyQuantile`].
    Ewma {
        /// Smoothing factor in `(0, 1]`: the weight of the newest
        /// round's mean (1 = track only the last round).
        alpha: f64,
        /// Multiplicative slack over the smoothed mean (≥ 0).
        slack: f64,
    },
    /// A fixed per-round collection window in simulated seconds.
    FixedSeconds {
        /// The window length (> 0).
        secs: f64,
    },
}

impl DeadlinePolicy {
    /// The paper-flavored latency-derived default: 90th percentile of
    /// observed round trips with 1.5× slack — healthy parties always
    /// make it, heavy-tail outliers miss.
    pub fn latency_default() -> Self {
        DeadlinePolicy::LatencyQuantile { q: 0.9, slack: 1.5 }
    }

    /// Whether this policy derives deadlines from observation (anything
    /// but the legacy injector).
    pub fn is_latency_derived(&self) -> bool {
        !matches!(self, DeadlinePolicy::Injected)
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Rejects quantiles outside `[0, 1]`, non-finite or negative slack,
    /// and non-positive fixed windows, naming each parameter by its
    /// `[[job]]` configuration key.
    pub fn validate(&self) -> Result<(), crate::FlError> {
        let bad = |msg: String| Err(crate::FlError::InvalidConfig(msg));
        let slack = match *self {
            DeadlinePolicy::Injected => return Ok(()),
            DeadlinePolicy::LatencyQuantile { q, slack } if (0.0..=1.0).contains(&q) => slack,
            DeadlinePolicy::LatencyQuantile { q, .. } => {
                return bad(format!("deadline_q {q} must be in [0, 1]"));
            }
            DeadlinePolicy::Ewma { alpha, slack } if 0.0 < alpha && alpha <= 1.0 => slack,
            DeadlinePolicy::Ewma { alpha, .. } => {
                return bad(format!("ewma_alpha {alpha} must be in (0, 1]"));
            }
            DeadlinePolicy::FixedSeconds { secs } if secs.is_finite() && secs > 0.0 => {
                return Ok(());
            }
            DeadlinePolicy::FixedSeconds { secs } => {
                return bad(format!("deadline_secs {secs} must be finite and positive"));
            }
        };
        if !slack.is_finite() || slack < 0.0 {
            return bad(format!("deadline_slack {slack} must be finite and non-negative"));
        }
        Ok(())
    }

    /// The deadline for the next round, in simulated seconds, given the
    /// round trips observed so far. `None` means unbounded (accept every
    /// update) — the warm-up state of [`DeadlinePolicy::LatencyQuantile`]
    /// before any sample exists.
    ///
    /// # Panics
    ///
    /// Panics on [`DeadlinePolicy::Injected`]: the injector path decides
    /// *who* misses, not *when*, and `Stragglers` branches
    /// before asking.
    pub fn deadline_secs(&self, observed: &mut ObservedLatency) -> Option<f64> {
        match *self {
            DeadlinePolicy::Injected => {
                panic!("the injected policy has no derived deadline; its Clock picks victims")
            }
            DeadlinePolicy::LatencyQuantile { q, slack } => {
                observed.quantile(q).map(|anchor| anchor * slack)
            }
            DeadlinePolicy::Ewma { alpha, slack } => {
                // Called exactly once per round open (`Stragglers::open`),
                // so sealing here gives each round its own batch — the same
                // boundaries on the in-process, lockstep and sharded
                // paths, which is what keeps their histories identical.
                observed.seal_batch();
                observed.ewma(alpha).map(|anchor| anchor * slack)
            }
            DeadlinePolicy::FixedSeconds { secs } => Some(secs),
        }
    }

    /// Converts a deadline in simulated seconds to timer-wheel ticks
    /// (rounded up, at least 1 — a deadline can never fire at its own
    /// open tick).
    pub fn ticks(deadline_secs: f64) -> u64 {
        ((deadline_secs * TICKS_PER_SECOND).ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(FlAlgorithm::FedAvg.label(), "FedAvg");
        assert_eq!(FlAlgorithm::fedprox().label(), "FedProx");
        assert_eq!(FlAlgorithm::fedyogi().label(), "FedYoGi");
    }

    #[test]
    fn proximal_mu_is_zero_except_fedprox() {
        assert_eq!(FlAlgorithm::FedAvg.proximal_mu(), 0.0);
        assert_eq!(FlAlgorithm::fedyogi().proximal_mu(), 0.0);
        assert_eq!(FlAlgorithm::FedProx { mu: 0.03 }.proximal_mu(), 0.03);
    }

    #[test]
    fn paper_algorithms_are_the_evaluated_three() {
        let algos = FlAlgorithm::paper_algorithms();
        assert_eq!(algos.map(|a| a.label()), ["FedYoGi", "FedProx", "FedAvg"]);
    }

    #[test]
    fn local_config_validation() {
        assert!(LocalTrainingConfig::default().validate().is_ok());
        let bad = LocalTrainingConfig { epochs: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = LocalTrainingConfig { batch_size: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad =
            LocalTrainingConfig { lr_schedule: StepDecay::constant(0.0), ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = LocalTrainingConfig { momentum: 1.0, ..Default::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn deadline_policy_validation() {
        assert!(DeadlinePolicy::Injected.validate().is_ok());
        assert!(DeadlinePolicy::latency_default().validate().is_ok());
        assert!(DeadlinePolicy::LatencyQuantile { q: 1.5, slack: 1.0 }.validate().is_err());
        assert!(DeadlinePolicy::LatencyQuantile { q: 0.5, slack: -1.0 }.validate().is_err());
        assert!(DeadlinePolicy::LatencyQuantile { q: 0.5, slack: f64::NAN }.validate().is_err());
        assert!(DeadlinePolicy::FixedSeconds { secs: 0.0 }.validate().is_err());
        assert!(DeadlinePolicy::FixedSeconds { secs: 0.25 }.validate().is_ok());
        assert!(DeadlinePolicy::Ewma { alpha: 0.5, slack: 1.2 }.validate().is_ok());
        assert!(DeadlinePolicy::Ewma { alpha: 1.0, slack: 0.0 }.validate().is_ok());
        assert!(DeadlinePolicy::Ewma { alpha: 0.0, slack: 1.0 }.validate().is_err());
        assert!(DeadlinePolicy::Ewma { alpha: 1.5, slack: 1.0 }.validate().is_err());
        assert!(DeadlinePolicy::Ewma { alpha: f64::NAN, slack: 1.0 }.validate().is_err());
        assert!(DeadlinePolicy::Ewma { alpha: 0.5, slack: -0.1 }.validate().is_err());
        assert!(DeadlinePolicy::Ewma { alpha: 0.5, slack: 1.0 }.is_latency_derived());
    }

    #[test]
    fn ewma_policy_warms_up_unbounded_then_smooths_batch_means() {
        let policy = DeadlinePolicy::Ewma { alpha: 0.5, slack: 2.0 };
        let mut obs = ObservedLatency::new();
        assert_eq!(policy.deadline_secs(&mut obs), None, "no samples: unbounded warm-up");
        // Round 0 closes with mean 0.2.
        obs.record(0.1);
        obs.record(0.3);
        assert_eq!(policy.deadline_secs(&mut obs), Some(0.4), "first batch: 2 × 0.2");
        // Round 1 closes with mean 0.6 → EWMA 0.5·0.6 + 0.5·0.2 = 0.4.
        obs.record(0.6);
        assert_eq!(policy.deadline_secs(&mut obs), Some(0.8), "2 × smoothed 0.4");
        // A deadline query with no new samples seals nothing: replaying
        // the policy never perturbs the batch structure.
        assert_eq!(policy.deadline_secs(&mut obs), Some(0.8));
    }

    #[test]
    fn latency_quantile_warms_up_unbounded_then_tracks_observations() {
        let policy = DeadlinePolicy::LatencyQuantile { q: 1.0, slack: 2.0 };
        let mut obs = ObservedLatency::new();
        assert_eq!(policy.deadline_secs(&mut obs), None, "no samples: unbounded warm-up");
        obs.record(0.2);
        obs.record(0.1);
        assert_eq!(policy.deadline_secs(&mut obs), Some(0.4), "2× the observed max");
    }

    #[test]
    fn fixed_policy_ignores_observations() {
        let policy = DeadlinePolicy::FixedSeconds { secs: 0.3 };
        let mut obs = ObservedLatency::new();
        assert_eq!(policy.deadline_secs(&mut obs), Some(0.3));
        obs.record(9.0);
        assert_eq!(policy.deadline_secs(&mut obs), Some(0.3));
    }

    #[test]
    fn tick_conversion_rounds_up_and_clamps_forward() {
        assert_eq!(DeadlinePolicy::ticks(0.0), 1);
        assert_eq!(DeadlinePolicy::ticks(1e-9), 1);
        assert_eq!(DeadlinePolicy::ticks(0.5), 500_000);
        assert_eq!(DeadlinePolicy::ticks(1.0000001), 1_000_001);
    }

    #[test]
    #[should_panic(expected = "no derived deadline")]
    fn injected_policy_has_no_derived_deadline() {
        let _ = DeadlinePolicy::Injected.deadline_secs(&mut ObservedLatency::new());
    }
}
