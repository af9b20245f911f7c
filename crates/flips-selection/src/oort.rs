//! The Oort baseline — guided participant selection (Lai et al.,
//! OSDI'21; paper §4.1).
//!
//! Oort scores each party by the product of:
//!
//! - **statistical utility** — `|B_i| · √(Σ_{b∈B_i} loss(b)² / |B_i|)`:
//!   parties whose data currently incurs high loss contribute more to
//!   convergence. With per-party mean loss `ℓ_i` reported by the runtime
//!   this evaluates to `n_i · ℓ_i` (the within-party loss spread is not
//!   observable from aggregate feedback — the standard approximation);
//! - **system utility** — `(T / t_i)^α` for parties slower than the
//!   developer-preferred round duration `T` (α = 2), 1 otherwise;
//! - an **exploration bonus** `√(0.1 · ln r / Δr_i)` rewarding parties not
//!   selected recently (Δr_i = rounds since last selection).
//!
//! Each round, `(1 − ε)` of the budget exploits the top-utility parties
//! (utilities clipped at the 95th percentile) and `ε` explores parties
//! never selected before; `ε` decays from 0.9 by ×0.98 per round with a
//! 0.2 floor. Under straggler regimes Oort overprovisions 1.3× (paper
//! §5.3). Stragglers have their utility halved, mirroring Oort's
//! de-prioritization of unreliable clients.

use crate::types::{validate_request, ParticipantSelector, PartyId, RoundFeedback, SelectionError};
use flips_ml::rng::{sample_without_replacement, seeded};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Initial exploration fraction ε (the OSDI'21 artifact's value, as are
/// the constants below).
const EPSILON_INIT: f64 = 0.9;
/// Multiplicative ε decay per round.
const EPSILON_DECAY: f64 = 0.98;
/// ε floor.
const EPSILON_MIN: f64 = 0.2;
/// System-utility penalty exponent α.
const ALPHA: f64 = 2.0;
/// Utility clipping quantile.
const CLIP_QUANTILE: f64 = 0.95;
/// Utility penalty factor applied to stragglers.
const STRAGGLER_PENALTY: f64 = 0.5;

/// The two settings of the Oort policy a job chooses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OortConfig {
    /// Developer-preferred round duration `T` (seconds).
    pub preferred_duration: f64,
    /// Round-size multiplier (1.3 under stragglers, per the paper).
    pub overprovision: f64,
}

impl Default for OortConfig {
    fn default() -> Self {
        OortConfig { preferred_duration: 1.0, overprovision: 1.0 }
    }
}

impl OortConfig {
    /// The configuration the paper runs under straggler regimes:
    /// "OORT selects 1.3x the parties in FL at each round to overprovision
    /// for straggler parties" (§5.3).
    pub fn with_straggler_overprovisioning() -> Self {
        OortConfig { overprovision: 1.3, ..Default::default() }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PartyStats {
    /// Latest statistical utility (n_i · ℓ_i), straggler-penalized.
    utility: f64,
    /// Latest observed duration (seconds).
    duration: Option<f64>,
    /// Last round this party was *reported* on.
    last_round: Option<usize>,
    /// Whether the party has ever been selected.
    explored: bool,
}

/// The Oort participant selector.
#[derive(Debug)]
pub struct OortSelector {
    config: OortConfig,
    data_sizes: Vec<usize>,
    stats: Vec<PartyStats>,
    epsilon: f64,
    rng: StdRng,
}

impl OortSelector {
    /// Creates a selector; `data_sizes[i]` is party `i`'s sample count
    /// (public metadata in Oort).
    pub fn new(data_sizes: Vec<usize>, config: OortConfig, seed: u64) -> Self {
        let n = data_sizes.len();
        OortSelector {
            epsilon: EPSILON_INIT,
            config,
            data_sizes,
            stats: vec![PartyStats::default(); n],
            rng: seeded(seed),
        }
    }

    /// Creates a selector over a streamed roster, pulling each party's
    /// sample count from the source — bit-identical to
    /// [`OortSelector::new`] fed the same counts. Oort's online state
    /// stays dense (≈48 B/party: the score inputs must survive between
    /// rounds), but no caller-side roster vector is materialized: the
    /// counts come in one [`CandidateSource::data_sizes`] read.
    ///
    /// [`CandidateSource::data_sizes`]: crate::streaming::CandidateSource::data_sizes
    ///
    /// # Errors
    ///
    /// Rejects a roster the source cannot read.
    pub fn from_source(
        source: &dyn crate::streaming::CandidateSource,
        config: OortConfig,
        seed: u64,
    ) -> Result<Self, SelectionError> {
        let data_sizes = source.data_sizes().map_err(|e| {
            SelectionError::InvalidConfiguration(format!("cannot read the roster: {e}"))
        })?;
        Ok(OortSelector::new(data_sizes.into_iter().map(|n| n as usize).collect(), config, seed))
    }

    /// Current exploration fraction ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn system_utility(&self, party: PartyId) -> f64 {
        match self.stats[party].duration {
            Some(t) if t > self.config.preferred_duration => {
                (self.config.preferred_duration / t).powf(ALPHA)
            }
            _ => 1.0,
        }
    }

    /// Exploitation score of an explored party at `round`.
    fn score(&self, party: PartyId, round: usize, clip: f64) -> f64 {
        let s = &self.stats[party];
        let stat = s.utility.min(clip);
        let staleness = match s.last_round {
            Some(last) => {
                let gap = (round.saturating_sub(last)).max(1) as f64;
                (0.1 * ((round + 2) as f64).ln() * gap).sqrt()
            }
            None => 0.0,
        };
        (stat + staleness) * self.system_utility(party)
    }

    /// The clipping threshold: the `CLIP_QUANTILE` of current utilities.
    fn clip_threshold(&self) -> f64 {
        let mut utils: Vec<f64> =
            self.stats.iter().filter(|s| s.last_round.is_some()).map(|s| s.utility).collect();
        if utils.is_empty() {
            return f64::INFINITY;
        }
        utils.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((utils.len() as f64 - 1.0) * CLIP_QUANTILE).round() as usize;
        utils[idx]
    }
}

impl ParticipantSelector for OortSelector {
    fn name(&self) -> &'static str {
        "oort"
    }

    fn select(&mut self, round: usize, target: usize) -> Result<Vec<PartyId>, SelectionError> {
        let n = self.data_sizes.len();
        validate_request(target, n)?;
        let total =
            (((target as f64) * self.config.overprovision).ceil() as usize).clamp(target, n);

        let explored: Vec<PartyId> = (0..n).filter(|&p| self.stats[p].explored).collect();
        let unexplored: Vec<PartyId> = (0..n).filter(|&p| !self.stats[p].explored).collect();

        let explore_want = ((self.epsilon * total as f64).round() as usize).min(unexplored.len());
        let exploit_want = total - explore_want;

        let mut selected: Vec<PartyId> = Vec::with_capacity(total);
        let mut chosen: HashSet<PartyId> = HashSet::with_capacity(total);

        // Exploit: the best-scoring explored parties (score descending, id ascending).
        let clip = self.clip_threshold();
        let mut ranked: Vec<_> =
            explored.iter().map(|&p| (self.score(p, round, clip), p)).collect();
        ranked.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });
        for &(_, p) in ranked.iter().take(exploit_want) {
            if chosen.insert(p) {
                selected.push(p);
            }
        }

        // Explore: uniform over never-selected parties.
        if explore_want > 0 {
            let picks = sample_without_replacement(&mut self.rng, unexplored.len(), explore_want);
            for i in picks {
                let p = unexplored[i];
                if chosen.insert(p) {
                    selected.push(p);
                }
            }
        }

        // Top up from any remaining parties (exploit pool smaller than
        // requested early in the job).
        if selected.len() < total {
            let mut rest: Vec<PartyId> = (0..n).filter(|p| !chosen.contains(p)).collect();
            // Shuffle for unbiased top-up.
            flips_ml::rng::shuffle(&mut self.rng, &mut rest);
            for p in rest {
                if selected.len() >= total {
                    break;
                }
                chosen.insert(p);
                selected.push(p);
            }
        }

        for &p in &selected {
            self.stats[p].explored = true;
        }
        self.epsilon = (self.epsilon * EPSILON_DECAY).max(EPSILON_MIN);
        Ok(selected)
    }

    fn report(&mut self, feedback: &RoundFeedback) {
        for &p in &feedback.completed {
            let s = &mut self.stats[p];
            if let Some(&loss) = feedback.train_loss.get(&p) {
                s.utility = self.data_sizes[p] as f64 * loss.max(0.0);
            }
            if let Some(&d) = feedback.duration.get(&p) {
                s.duration = Some(d);
            }
            s.last_round = Some(feedback.round);
        }
        for &p in &feedback.stragglers {
            let s = &mut self.stats[p];
            s.utility *= STRAGGLER_PENALTY;
            s.last_round = Some(feedback.round);
            // A straggler observably exceeded the deadline.
            let slow = self.config.preferred_duration * 2.0;
            s.duration = Some(s.duration.map_or(slow, |d| d.max(slow)));
        }
    }

    fn num_parties(&self) -> usize {
        self.data_sizes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn selector(n: usize) -> OortSelector {
        OortSelector::new(vec![100; n], OortConfig::default(), 42)
    }

    fn feedback(
        round: usize,
        completed: &[PartyId],
        losses: &[(PartyId, f64)],
        stragglers: &[PartyId],
    ) -> RoundFeedback {
        RoundFeedback {
            round,
            selected: completed.iter().chain(stragglers).copied().collect(),
            completed: completed.to_vec(),
            stragglers: stragglers.to_vec(),
            train_loss: losses.iter().copied().collect::<HashMap<_, _>>(),
            ..Default::default()
        }
    }

    #[test]
    fn selects_requested_count_without_duplicates() {
        let mut s = selector(40);
        let picks = s.select(0, 10).unwrap();
        assert_eq!(picks.len(), 10);
        let set: HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let mut s = selector(40);
        for round in 0..200 {
            let _ = s.select(round, 5).unwrap();
        }
        assert!((s.epsilon() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn high_loss_parties_are_prioritized() {
        let mut s = selector(20);
        // Make every party explored with known losses: party 7 has a much
        // higher loss than everyone else.
        let all: Vec<PartyId> = (0..20).collect();
        let losses: Vec<(PartyId, f64)> =
            (0..20).map(|p| (p, if p == 7 { 5.0 } else { 0.1 + 0.01 * p as f64 })).collect();
        s.report(&feedback(0, &all, &losses, &[]));
        for st in &mut s.stats {
            st.explored = true;
        }
        // With ε at its floor after many decays, exploitation dominates.
        s.epsilon = 0.0;
        let mut count7 = 0;
        for round in 1..20 {
            let picks = s.select(round, 4).unwrap();
            if picks.contains(&7) {
                count7 += 1;
            }
            s.report(&feedback(round, &picks, &[(7, 5.0)], &[]));
        }
        assert!(count7 >= 15, "high-loss party picked only {count7}/19 rounds");
    }

    #[test]
    fn slow_parties_are_deprioritized() {
        let mut s = selector(10);
        let all: Vec<PartyId> = (0..10).collect();
        let losses: Vec<(PartyId, f64)> = (0..10).map(|p| (p, 1.0)).collect();
        let mut fb = feedback(0, &all, &losses, &[]);
        // Party 3 is 10x slower than the preferred duration.
        for p in 0..10 {
            fb.duration.insert(p, if p == 3 { 10.0 } else { 0.5 });
        }
        s.report(&fb);
        s.epsilon = 0.0;
        let picks = s.select(1, 5).unwrap();
        assert!(!picks.contains(&3), "slow party must rank below equal-loss fast parties");
    }

    #[test]
    fn stragglers_lose_utility() {
        let mut s = selector(10);
        let all: Vec<PartyId> = (0..10).collect();
        let losses: Vec<(PartyId, f64)> = (0..10).map(|p| (p, 1.0)).collect();
        s.report(&feedback(0, &all, &losses, &[]));
        let before = s.stats[4].utility;
        s.report(&feedback(1, &[], &[], &[4]));
        assert!(s.stats[4].utility < before);
        assert!(s.stats[4].duration.unwrap() >= 2.0);
    }

    #[test]
    fn overprovisioning_selects_extra() {
        let mut s =
            OortSelector::new(vec![100; 40], OortConfig::with_straggler_overprovisioning(), 1);
        let picks = s.select(0, 10).unwrap();
        assert_eq!(picks.len(), 13, "1.3x overprovisioning");
    }

    #[test]
    fn overprovisioning_is_capped_at_population() {
        let mut s = OortSelector::new(
            vec![10; 10],
            OortConfig { overprovision: 5.0, ..Default::default() },
            1,
        );
        let picks = s.select(0, 9).unwrap();
        assert_eq!(picks.len(), 10);
    }

    #[test]
    fn exploration_prefers_unexplored_parties() {
        let mut s = selector(30);
        let first = s.select(0, 10).unwrap();
        let second = s.select(1, 10).unwrap();
        // With ε ≈ 0.9 the second round must still be mostly new parties.
        let repeats = second.iter().filter(|p| first.contains(p)).count();
        assert!(repeats <= 3, "second round repeated {repeats} parties at high ε");
    }

    #[test]
    fn clipping_caps_outlier_utilities() {
        let mut s = selector(20);
        let all: Vec<PartyId> = (0..20).collect();
        let mut losses: Vec<(PartyId, f64)> = (0..20).map(|p| (p, 1.0)).collect();
        losses[0].1 = 1e9; // absurd outlier
        s.report(&feedback(0, &all, &losses, &[]));
        let clip = s.clip_threshold();
        assert!(clip < 1e9 * 100.0, "clip threshold must exclude the outlier");
        let score0 = s.score(0, 1, clip);
        let score1 = s.score(1, 1, clip);
        assert!(score0 / score1 < 10.0, "outlier dominance must be bounded");
    }

    #[test]
    fn rejects_invalid_targets() {
        let mut s = selector(5);
        assert!(s.select(0, 0).is_err());
        assert!(s.select(0, 6).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = OortSelector::new(vec![50; 25], OortConfig::default(), 9);
        let mut b = OortSelector::new(vec![50; 25], OortConfig::default(), 9);
        for round in 0..5 {
            assert_eq!(a.select(round, 8).unwrap(), b.select(round, 8).unwrap());
        }
    }
}
