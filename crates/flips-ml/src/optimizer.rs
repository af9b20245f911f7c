//! First-order optimizers over flat parameter vectors.
//!
//! One of each serves the two sides of federated learning:
//!
//! - **client side** — parties run [`Sgd`] steps on local mini-batch
//!   gradients (paper Algorithm 1, lines 4–6);
//! - **server side** — FL algorithms apply the aggregated *pseudo-gradient*
//!   (global model minus averaged client model) through a server optimizer:
//!   plain averaging for FedAvg/FedProx, and one [`Adaptive`] step for the
//!   FedOpt family, whose [`Rule`] picks FedYogi, FedAdam or FedAdagrad
//!   (paper §2.1).

use serde::{Deserialize, Serialize};

/// Stochastic gradient descent with optional classical momentum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// SGD with classical momentum `beta`.
    pub fn with_momentum(lr: f32, beta: f32) -> Self {
        Sgd { lr, momentum: beta, velocity: Vec::new() }
    }

    /// Applies one update step, `params ← params − lr·v` with
    /// `v ← β·v + grad` (`v = grad` without momentum).
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != params.len()`, or if the optimizer was
    /// previously stepped with a different parameter length.
    pub fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "sgd: grad/param length mismatch");
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grad) {
                *p -= self.lr * g;
            }
            return;
        }
        if self.velocity.len() != params.len() {
            assert!(self.velocity.is_empty(), "sgd: parameter length changed mid-run");
            self.velocity = vec![0.0; params.len()];
        }
        for ((p, &g), v) in params.iter_mut().zip(grad).zip(&mut self.velocity) {
            *v = self.momentum * *v + g;
            *p -= self.lr * *v;
        }
    }
}

/// How the adaptive family accumulates its second moment `v` — the one
/// thing FedYogi, FedAdam and FedAdagrad's server steps disagree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rule {
    /// Adam (Kingma & Ba), the server optimizer of FedAdam:
    /// `v ← β₂·v + (1−β₂)·g²`, an exponential moving average.
    Adam,
    /// Yogi (Zaheer et al.), the server optimizer of FedYogi, which the
    /// paper reports as the best-performing FL algorithm on non-IID data
    /// (§2.1): `v ← v − (1−β₂)·sign(v − g²)·g²`, additive, so `v` reacts
    /// slowly when gradients shrink.
    Yogi,
    /// Adagrad (Duchi et al.), the server optimizer of FedAdagrad:
    /// `v ← v + g²`, monotone accumulation with no β₂ and no bias
    /// correction of `v`.
    Adagrad,
}

/// The adaptive server optimizer: a first moment `m` and a second-moment
/// accumulator `v` per parameter, and `p ← p − lr · m̂ / (√v̂ + ε)` with
/// `v` accumulated by its [`Rule`], under the paper-standard `β₁ = 0.9`,
/// `β₂ = 0.99` and `ε = 1e-3`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adaptive {
    rule: Rule,
    lr: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

const BETA1: f32 = 0.9;
const BETA2: f32 = 0.99;
const EPS: f32 = 1e-3;

impl Adaptive {
    /// The optimizer for `rule` with learning rate `lr`.
    pub fn new(rule: Rule, lr: f32) -> Self {
        Adaptive { rule, lr, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Applies one update step; the moments are sized on first use.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != params.len()`, or if the optimizer was
    /// previously stepped with a different parameter length.
    pub fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "adaptive: grad/param length mismatch");
        if self.m.len() != params.len() {
            assert!(self.m.is_empty(), "adaptive: parameter length changed mid-run");
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        self.t += 1;
        let bias1 = 1.0 - BETA1.powi(self.t as i32);
        let bias2 = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grad[i];
            let g2 = g * g;
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g;
            match self.rule {
                Rule::Adam => {
                    self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * g2;
                }
                Rule::Yogi => {
                    let sign = (self.v[i] - g2).signum();
                    self.v[i] -= (1.0 - BETA2) * sign * g2;
                }
                Rule::Adagrad => {
                    self.v[i] += g2;
                }
            }
            let (m_hat, v_hat) = match self.rule {
                // Adagrad traditionally applies no bias correction.
                Rule::Adagrad => (self.m[i] / bias1, self.v[i]),
                _ => (self.m[i] / bias1, self.v[i] / bias2),
            };
            params[i] -= self.lr * m_hat / (v_hat.max(0.0).sqrt() + EPS);
        }
    }

    /// The accumulated state as flat `f32` words, bit-exactly:
    /// `[t_lo_bits, t_hi_bits, m…, v…]` — the step counter split across
    /// two f32 bit patterns so the round-trip is exact for any `u64`,
    /// followed by the two moment vectors (equal lengths).
    pub fn export_state(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(2 + self.m.len() + self.v.len());
        out.push(f32::from_bits(self.t as u32));
        out.push(f32::from_bits((self.t >> 32) as u32));
        out.extend_from_slice(&self.m);
        out.extend_from_slice(&self.v);
        out
    }

    /// Restores state produced by [`Adaptive::export_state`] on an
    /// optimizer of the same rule and learning rate. Returns `false`
    /// (leaving the optimizer untouched) when the words cannot be that
    /// layout.
    pub fn import_state(&mut self, state: &[f32]) -> bool {
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

    fn converges_on_quadratic(mut step: impl FnMut(&mut [f32], &[f32])) -> f32 {
        let mut w = vec![5.0f32, -3.0, 2.0];
        for _ in 0..500 {
            let g = quadratic_grad(&w);
            step(&mut w, &g);
        }
        w.iter().map(|x| x.abs()).fold(0.0, f32::max)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(converges_on_quadratic(|w, g| opt.step(w, g)) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        assert!(converges_on_quadratic(|w, g| opt.step(w, g)) < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adaptive::new(Rule::Adam, 0.05);
        assert!(converges_on_quadratic(|w, g| opt.step(w, g)) < 1e-2);
    }

    #[test]
    fn yogi_converges_on_quadratic() {
        let mut opt = Adaptive::new(Rule::Yogi, 0.05);
        assert!(converges_on_quadratic(|w, g| opt.step(w, g)) < 1e-2);
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        let mut opt = Adaptive::new(Rule::Adagrad, 0.5);
        assert!(converges_on_quadratic(|w, g| opt.step(w, g)) < 1e-1);
    }

    #[test]
    fn sgd_single_step_matches_hand_computation() {
        let mut opt = Sgd::new(0.1);
        let mut w = vec![1.0];
        opt.step(&mut w, &[2.0]);
        assert!((w[0] - 0.8).abs() < 1e-7);
    }

    #[test]
    fn yogi_second_moment_is_additive() {
        // After one step from v=0, Yogi: v = -(1-β₂)·sign(0-g²)·g² =
        // (1-β₂)·g², identical to Adam's first step; they diverge later when
        // gradients shrink. Check both take the identical first step.
        let mut yogi = Adaptive::new(Rule::Yogi, 0.1);
        let mut adam = Adaptive::new(Rule::Adam, 0.1);
        let mut wy = vec![1.0f32];
        let mut wa = vec![1.0f32];
        yogi.step(&mut wy, &[0.5]);
        adam.step(&mut wa, &[0.5]);
        assert!((wy[0] - wa[0]).abs() < 1e-6);
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
        for (rule, lr) in [(Rule::Adam, 0.05), (Rule::Yogi, 0.05), (Rule::Adagrad, 0.5)] {
            let mut opt = Adaptive::new(rule, lr);
            let mut w = vec![5.0f32, -3.0, 2.0];
            for _ in 0..7 {
                let g = quadratic_grad(&w);
                opt.step(&mut w, &g);
            }
            let mut twin = Adaptive::new(rule, lr);
            assert!(twin.import_state(&opt.export_state()), "{rule:?} state imports");
            let mut w_twin = w.clone();
            let g = quadratic_grad(&w);
            opt.step(&mut w, &g);
            twin.step(&mut w_twin, &g);
            let same = w.iter().zip(&w_twin).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{rule:?} resumed step diverged");
        }
    }

    #[test]
    fn import_state_rejects_malformed_words() {
        let mut adam = Adaptive::new(Rule::Adam, 0.05);
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
