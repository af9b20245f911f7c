//! First-order optimizers over flat parameter vectors.
//!
//! The same trait serves both sides of federated learning:
//!
//! - **client side** — parties run [`Sgd`] steps on local mini-batch
//!   gradients (paper Algorithm 1, lines 4–6);
//! - **server side** — FL algorithms apply the aggregated *pseudo-gradient*
//!   (global model minus averaged client model) through a server optimizer:
//!   plain averaging for FedAvg/FedProx, [`Yogi`] for FedYogi, [`Adam`] for
//!   FedAdam, [`Adagrad`] for FedAdagrad (paper §2.1).

use serde::{Deserialize, Serialize};

/// A stateful first-order optimizer over a flat `f32` parameter vector.
///
/// Implementations update `params` in place given a gradient of the same
/// length; they own any moment/velocity state and lazily size it on first
/// use.
pub trait Optimizer: Send {
    /// Applies one update step: conceptually `params ← params − f(grad)`.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != params.len()`, or if the optimizer was
    /// previously stepped with a different parameter length.
    fn step(&mut self, params: &mut [f32], grad: &[f32]);

    /// The current base learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the base learning rate (used by decay schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Clears all accumulated state (moments, velocity).
    fn reset(&mut self);

    /// A short human-readable name, e.g. `"sgd"`.
    fn name(&self) -> &'static str;

    /// Serializes the optimizer's accumulated state (moments, velocity,
    /// step counters) as a flat `f32` word vector, bit-exactly. A
    /// stateless optimizer exports an empty vector. The layout is
    /// implementation-private: only [`Optimizer::import_state`] of the
    /// same implementation understands it.
    fn export_state(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restores state previously produced by [`Optimizer::export_state`]
    /// on an optimizer of the same kind and configuration. Returns
    /// `false` (leaving the optimizer untouched) when the words cannot
    /// be this implementation's layout.
    fn import_state(&mut self, state: &[f32]) -> bool {
        state.is_empty()
    }
}

/// Stochastic gradient descent with optional classical momentum and weight
/// decay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// SGD with classical momentum `beta`.
    pub fn with_momentum(lr: f32, beta: f32) -> Self {
        Sgd { lr, momentum: beta, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// Adds L2 weight decay `lambda` (applied as `grad + λ·w`).
    #[must_use]
    pub fn weight_decay(mut self, lambda: f32) -> Self {
        self.weight_decay = lambda;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "sgd: grad/param length mismatch");
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grad) {
                let g = g + self.weight_decay * *p;
                *p -= self.lr * g;
            }
            return;
        }
        if self.velocity.len() != params.len() {
            assert!(self.velocity.is_empty(), "sgd: parameter length changed mid-run");
            self.velocity = vec![0.0; params.len()];
        }
        for ((p, &g), v) in params.iter_mut().zip(grad).zip(&mut self.velocity) {
            let g = g + self.weight_decay * *p;
            *v = self.momentum * *v + g;
            *p -= self.lr * *v;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn name(&self) -> &'static str {
        "sgd"
    }

    fn export_state(&self) -> Vec<f32> {
        self.velocity.clone()
    }

    fn import_state(&mut self, state: &[f32]) -> bool {
        self.velocity = state.to_vec();
        true
    }
}

/// Shared implementation of the adaptive family (Adam / Yogi / Adagrad).
///
/// All three maintain a first moment `m` and a second-moment accumulator `v`
/// and update `p ← p − lr · m̂ / (√v̂ + ε)`; they differ only in how `v` is
/// accumulated:
///
/// - **Adam**: `v ← β₂·v + (1−β₂)·g²` (exponential moving average),
/// - **Yogi**: `v ← v − (1−β₂)·sign(v − g²)·g²` (additive, so `v` reacts
///   slowly when gradients shrink — the property that makes FedYogi robust
///   to heterogeneous client updates),
/// - **Adagrad**: `v ← v + g²` (monotone accumulation, no β₂).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum AdaptiveRule {
    Adam,
    Yogi,
    Adagrad,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdaptiveState {
    rule: AdaptiveRule,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl AdaptiveState {
    fn new(rule: AdaptiveRule, lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        AdaptiveState { rule, lr, beta1, beta2, eps, t: 0, m: Vec::new(), v: Vec::new() }
    }

    fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "adaptive: grad/param length mismatch");
        if self.m.len() != params.len() {
            assert!(self.m.is_empty(), "adaptive: parameter length changed mid-run");
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        self.t += 1;
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grad[i];
            let g2 = g * g;
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            match self.rule {
                AdaptiveRule::Adam => {
                    self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g2;
                }
                AdaptiveRule::Yogi => {
                    let sign = (self.v[i] - g2).signum();
                    self.v[i] -= (1.0 - self.beta2) * sign * g2;
                }
                AdaptiveRule::Adagrad => {
                    self.v[i] += g2;
                }
            }
            let (m_hat, v_hat) = match self.rule {
                // Adagrad traditionally applies no bias correction.
                AdaptiveRule::Adagrad => (self.m[i] / bias1, self.v[i]),
                _ => (self.m[i] / bias1, self.v[i] / bias2),
            };
            params[i] -= self.lr * m_hat / (v_hat.max(0.0).sqrt() + self.eps);
        }
    }

    fn reset(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }

    /// Layout: `[t_lo_bits, t_hi_bits, m…, v…]` — the step counter split
    /// across two f32 bit patterns so the round-trip is exact for any
    /// `u64`, followed by the two moment vectors (equal lengths).
    fn export(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(2 + self.m.len() + self.v.len());
        out.push(f32::from_bits(self.t as u32));
        out.push(f32::from_bits((self.t >> 32) as u32));
        out.extend_from_slice(&self.m);
        out.extend_from_slice(&self.v);
        out
    }

    fn import(&mut self, state: &[f32]) -> bool {
        if state.len() < 2 || !(state.len() - 2).is_multiple_of(2) {
            return false;
        }
        let n = (state.len() - 2) / 2;
        self.t = u64::from(state[0].to_bits()) | (u64::from(state[1].to_bits()) << 32);
        self.m = state[2..2 + n].to_vec();
        self.v = state[2 + n..].to_vec();
        true
    }
}

macro_rules! adaptive_optimizer {
    ($(#[$doc:meta])* $name:ident, $rule:expr, $label:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Serialize, Deserialize)]
        pub struct $name {
            state: AdaptiveState,
        }

        impl $name {
            /// Creates the optimizer with the paper-standard defaults
            /// `β₁ = 0.9`, `β₂ = 0.99`, `ε = 1e-3`.
            pub fn new(lr: f32) -> Self {
                $name { state: AdaptiveState::new($rule, lr, 0.9, 0.99, 1e-3) }
            }
        }

        impl Optimizer for $name {
            fn step(&mut self, params: &mut [f32], grad: &[f32]) {
                self.state.step(params, grad);
            }

            fn learning_rate(&self) -> f32 {
                self.state.lr
            }

            fn set_learning_rate(&mut self, lr: f32) {
                self.state.lr = lr;
            }

            fn reset(&mut self) {
                self.state.reset();
            }

            fn name(&self) -> &'static str {
                $label
            }

            fn export_state(&self) -> Vec<f32> {
                self.state.export()
            }

            fn import_state(&mut self, state: &[f32]) -> bool {
                self.state.import(state)
            }
        }
    };
}

adaptive_optimizer!(
    /// Adam (Kingma & Ba) — exponential moving averages of the gradient and
    /// its square. Used as the server optimizer of FedAdam.
    Adam,
    AdaptiveRule::Adam,
    "adam"
);

adaptive_optimizer!(
    /// Yogi (Zaheer et al.) — Adam with an additive second-moment update
    /// that shrinks `v` only slowly. The server optimizer of FedYogi, which
    /// the paper reports as the best-performing FL algorithm on non-IID
    /// data (§2.1).
    Yogi,
    AdaptiveRule::Yogi,
    "yogi"
);

adaptive_optimizer!(
    /// Adagrad (Duchi et al.) — monotone second-moment accumulation. The
    /// server optimizer of FedAdagrad.
    Adagrad,
    AdaptiveRule::Adagrad,
    "adagrad"
);

/// Step-decay learning-rate schedule: multiply the rate by `factor` every
/// `every` rounds (the paper decays its client LR every 20–30 rounds, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepDecay {
    /// Initial learning rate.
    pub initial: f32,
    /// Multiplicative factor applied at each decay boundary.
    pub factor: f32,
    /// Decay period in rounds. Zero disables decay.
    pub every: usize,
}

impl StepDecay {
    /// A schedule that never decays.
    pub fn constant(lr: f32) -> Self {
        StepDecay { initial: lr, factor: 1.0, every: 0 }
    }

    /// The learning rate in effect at `round` (0-based).
    pub fn at(&self, round: usize) -> f32 {
        if self.every == 0 {
            return self.initial;
        }
        self.initial * self.factor.powi((round / self.every) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(params: &[f32]) -> Vec<f32> {
        // f(w) = Σ wᵢ², ∇f = 2w — minimized at the origin.
        params.iter().map(|&w| 2.0 * w).collect()
    }

    fn converges_on_quadratic(opt: &mut dyn Optimizer) -> f32 {
        let mut w = vec![5.0f32, -3.0, 2.0];
        for _ in 0..500 {
            let g = quadratic_grad(&w);
            opt.step(&mut w, &g);
        }
        w.iter().map(|x| x.abs()).fold(0.0, f32::max)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(converges_on_quadratic(&mut opt) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        assert!(converges_on_quadratic(&mut opt) < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        assert!(converges_on_quadratic(&mut opt) < 1e-2);
    }

    #[test]
    fn yogi_converges_on_quadratic() {
        let mut opt = Yogi::new(0.05);
        assert!(converges_on_quadratic(&mut opt) < 1e-2);
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        let mut opt = Adagrad::new(0.5);
        assert!(converges_on_quadratic(&mut opt) < 1e-1);
    }

    #[test]
    fn sgd_single_step_matches_hand_computation() {
        let mut opt = Sgd::new(0.1);
        let mut w = vec![1.0];
        opt.step(&mut w, &[2.0]);
        assert!((w[0] - 0.8).abs() < 1e-7);
    }

    #[test]
    fn weight_decay_shrinks_params_with_zero_grad() {
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        let mut w = vec![1.0];
        opt.step(&mut w, &[0.0]);
        assert!((w[0] - 0.95).abs() < 1e-7);
    }

    #[test]
    fn yogi_second_moment_is_additive() {
        // After one step from v=0, Yogi: v = -(1-β₂)·sign(0-g²)·g² =
        // (1-β₂)·g², identical to Adam's first step; they diverge later when
        // gradients shrink. Check both take the identical first step.
        let mut yogi = Yogi::new(0.1);
        let mut adam = Adam::new(0.1);
        let mut wy = vec![1.0f32];
        let mut wa = vec![1.0f32];
        yogi.step(&mut wy, &[0.5]);
        adam.step(&mut wa, &[0.5]);
        assert!((wy[0] - wa[0]).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_momentum() {
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        let mut w = vec![1.0];
        opt.step(&mut w, &[1.0]);
        opt.reset();
        let mut w2 = vec![1.0];
        let mut fresh = Sgd::with_momentum(0.1, 0.9);
        fresh.step(&mut w2, &[1.0]);
        let mut w1 = vec![w[0]];
        opt.step(&mut w1, &[1.0]);
        let mut w3 = vec![w[0]];
        fresh.reset();
        fresh.step(&mut w3, &[1.0]);
        assert_eq!(w1, w3, "reset optimizer must behave like a fresh one");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn step_rejects_mismatched_grad() {
        let mut opt = Sgd::new(0.1);
        let mut w = vec![1.0, 2.0];
        opt.step(&mut w, &[1.0]);
    }

    #[test]
    fn exported_state_resumes_bit_identically() {
        // Stepping an optimizer k times, exporting, importing into a
        // fresh instance and stepping both once more must agree bitwise
        // — the property the coordinator checkpoint rests on.
        let fresh: [Box<dyn Optimizer>; 4] = [
            Box::new(Sgd::with_momentum(0.05, 0.9)),
            Box::new(Adam::new(0.05)),
            Box::new(Yogi::new(0.05)),
            Box::new(Adagrad::new(0.5)),
        ];
        for mut opt in fresh {
            let mut w = vec![5.0f32, -3.0, 2.0];
            for _ in 0..7 {
                let g = quadratic_grad(&w);
                opt.step(&mut w, &g);
            }
            let mut twin: Box<dyn Optimizer> = match opt.name() {
                "sgd" => Box::new(Sgd::with_momentum(0.05, 0.9)),
                "adam" => Box::new(Adam::new(0.05)),
                "yogi" => Box::new(Yogi::new(0.05)),
                _ => Box::new(Adagrad::new(0.5)),
            };
            assert!(twin.import_state(&opt.export_state()), "{} state imports", opt.name());
            let mut w_twin = w.clone();
            let g = quadratic_grad(&w);
            opt.step(&mut w, &g);
            twin.step(&mut w_twin, &g);
            let same = w.iter().zip(&w_twin).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{} resumed step diverged", opt.name());
        }
    }

    #[test]
    fn import_state_rejects_malformed_words() {
        let mut adam = Adam::new(0.05);
        assert!(!adam.import_state(&[1.0]), "adaptive state needs the counter pair");
        assert!(!adam.import_state(&[0.0, 0.0, 1.0]), "odd moment split rejected");
        assert!(adam.import_state(&[0.0, 0.0]), "empty moments are a fresh optimizer");
    }

    #[test]
    fn step_decay_schedule() {
        let s = StepDecay { initial: 1.0, factor: 0.5, every: 10 };
        assert_eq!(s.at(0), 1.0);
        assert_eq!(s.at(9), 1.0);
        assert_eq!(s.at(10), 0.5);
        assert_eq!(s.at(25), 0.25);
    }

    #[test]
    fn constant_schedule_never_decays() {
        let s = StepDecay::constant(0.01);
        assert_eq!(s.at(0), s.at(10_000));
    }
}
