//! The GradClus baseline — clustered sampling on model updates (Fraboni
//! et al., ICML'21; paper §4.1).
//!
//! GradClus maintains a per-party *gradient sketch*. Sketches start as
//! random vectors and are replaced by (a low-dimensional projection of)
//! the party's real model update whenever the party participates, as the
//! FL runtime reports it in [`RoundFeedback::update_sketch`] — the
//! paper: "The gradients assigned in the beginning are random numbers and
//! get iteratively updated as the party gets picked." Each round it
//! performs hierarchical clustering over the pairwise similarity matrix of
//! all sketches into `S(r)` clusters and samples **one party per cluster
//! uniformly at random**.

use crate::types::{validate_request, ParticipantSelector, PartyId, RoundFeedback, SelectionError};
use flips_clustering::hierarchical::{hierarchical_from_distances, pairwise_cosine_distance};
use flips_ml::rng::{normal, seeded};
use rand::rngs::StdRng;
use rand::Rng;

/// The gradient-clustering participant selector.
#[derive(Debug)]
pub struct GradClusSelector {
    sketches: Vec<Vec<f32>>,
    sketch_dim: usize,
    rng: StdRng,
}

impl GradClusSelector {
    /// Creates a selector over `num_parties` parties with
    /// `sketch_dim`-dimensional gradient sketches (initialized randomly).
    ///
    /// # Errors
    ///
    /// Rejects zero parties or a zero sketch dimension.
    pub fn new(num_parties: usize, sketch_dim: usize, seed: u64) -> Result<Self, SelectionError> {
        if num_parties == 0 {
            return Err(SelectionError::InvalidConfiguration("zero parties".into()));
        }
        if sketch_dim == 0 {
            return Err(SelectionError::InvalidConfiguration("zero sketch dim".into()));
        }
        let mut rng = seeded(seed);
        let sketches = (0..num_parties)
            .map(|_| (0..sketch_dim).map(|_| normal(&mut rng, 0.0, 1.0) as f32).collect())
            .collect();
        Ok(GradClusSelector { sketches, sketch_dim, rng })
    }

    /// Creates a selector over a streamed roster — identical to
    /// [`GradClusSelector::new`] with the source's party count. The
    /// per-party sketches (`sketch_dim` f32s each) remain dense: they
    /// *are* the policy's state, refreshed from round feedback.
    ///
    /// # Errors
    ///
    /// Rejects zero parties or a zero sketch dimension.
    pub fn from_source(
        source: &dyn crate::streaming::CandidateSource,
        sketch_dim: usize,
        seed: u64,
    ) -> Result<Self, SelectionError> {
        GradClusSelector::new(source.num_parties(), sketch_dim, seed)
    }

    /// The sketch dimension parties' updates are projected to.
    pub fn sketch_dim(&self) -> usize {
        self.sketch_dim
    }

    /// Current sketch of a party (diagnostics).
    pub fn sketch(&self, party: PartyId) -> &[f32] {
        &self.sketches[party]
    }
}

impl ParticipantSelector for GradClusSelector {
    fn name(&self) -> &'static str {
        "grad_cls"
    }

    fn select(&mut self, _round: usize, target: usize) -> Result<Vec<PartyId>, SelectionError> {
        let n = self.sketches.len();
        validate_request(target, n)?;
        // Hierarchical clustering over gradient similarity into `target`
        // clusters; similarity = cosine (direction of the update matters,
        // not its magnitude).
        let distances = pairwise_cosine_distance(&self.sketches)
            .map_err(|e| SelectionError::InvalidConfiguration(e.to_string()))?;
        let labels = hierarchical_from_distances(&distances, target)
            .map_err(|e| SelectionError::InvalidConfiguration(e.to_string()))?;
        let mut clusters: Vec<Vec<PartyId>> = vec![Vec::new(); target];
        for (party, &c) in labels.iter().enumerate() {
            clusters[c].push(party);
        }
        // One uniform pick per cluster.
        let mut selected = Vec::with_capacity(target);
        for members in clusters.iter().filter(|m| !m.is_empty()) {
            selected.push(members[self.rng.random_range(0..members.len())]);
        }
        Ok(selected)
    }

    fn report(&mut self, feedback: &RoundFeedback) {
        for (&party, sketch) in &feedback.update_sketch {
            if party < self.sketches.len() && sketch.len() == self.sketch_dim {
                self.sketches[party] = sketch.clone();
            }
        }
    }

    fn num_parties(&self) -> usize {
        self.sketches.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn selects_requested_count_without_duplicates() {
        let mut s = GradClusSelector::new(30, 8, 1).unwrap();
        let picks = s.select(0, 10).unwrap();
        assert_eq!(picks.len(), 10);
        let set: HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn picks_one_party_per_gradient_group() {
        // Construct sketches forming two clear direction groups, then ask
        // for 2 clusters: exactly one pick per group.
        let mut s = GradClusSelector::new(10, 4, 2).unwrap();
        let mut fb = RoundFeedback::default();
        for p in 0..10 {
            let dir = if p < 5 { vec![1.0, 1.0, 0.0, 0.0] } else { vec![0.0, 0.0, -1.0, 1.0] };
            fb.update_sketch.insert(p, dir);
        }
        s.report(&fb);
        for round in 0..10 {
            let picks = s.select(round, 2).unwrap();
            assert_eq!(picks.len(), 2);
            let groups: HashSet<bool> = picks.iter().map(|&p| p < 5).collect();
            assert_eq!(groups.len(), 2, "round {round}: picks {picks:?} not diverse");
        }
    }

    #[test]
    fn report_updates_sketches() {
        let mut s = GradClusSelector::new(5, 3, 3).unwrap();
        let before = s.sketch(2).to_vec();
        let mut fb = RoundFeedback::default();
        fb.update_sketch.insert(2, vec![9.0, 9.0, 9.0]);
        s.report(&fb);
        assert_ne!(s.sketch(2), &before[..]);
        assert_eq!(s.sketch(2), &[9.0, 9.0, 9.0]);
    }

    #[test]
    fn report_ignores_malformed_sketches() {
        let mut s = GradClusSelector::new(5, 3, 4).unwrap();
        let before = s.sketch(1).to_vec();
        let mut fb = RoundFeedback::default();
        fb.update_sketch.insert(1, vec![1.0]); // wrong dim
        fb.update_sketch.insert(99, vec![1.0, 1.0, 1.0]); // unknown party
        s.report(&fb);
        assert_eq!(s.sketch(1), &before[..]);
    }

    #[test]
    fn a_non_finite_sketch_does_not_stop_selection() {
        // A diverged party's update can sketch to NaN or ±∞; the hierarchy
        // over the rest must still be built every round.
        let mut s = GradClusSelector::new(12, 3, 6).unwrap();
        let mut fb = RoundFeedback::default();
        fb.update_sketch.insert(2, vec![f32::NAN, 1.0, 0.0]);
        fb.update_sketch.insert(5, vec![f32::INFINITY, f32::NEG_INFINITY, 1.0]);
        s.report(&fb);
        for round in 0..5 {
            let picks = s.select(round, 4).unwrap();
            assert!(!picks.is_empty() && picks.len() <= 4, "round {round}: {picks:?}");
            let distinct: HashSet<_> = picks.iter().collect();
            assert_eq!(distinct.len(), picks.len(), "round {round}: {picks:?}");
        }
    }

    #[test]
    fn rejects_invalid_configs_and_targets() {
        assert!(GradClusSelector::new(0, 8, 1).is_err());
        assert!(GradClusSelector::new(8, 0, 1).is_err());
        let mut s = GradClusSelector::new(5, 2, 1).unwrap();
        assert!(s.select(0, 0).is_err());
        assert!(s.select(0, 6).is_err());
    }

    #[test]
    fn deterministic_per_seed_and_feedback() {
        let run = || {
            let mut s = GradClusSelector::new(20, 4, 77).unwrap();
            let mut all = Vec::new();
            for round in 0..4 {
                let picks = s.select(round, 5).unwrap();
                let mut fb = RoundFeedback::default();
                for &p in &picks {
                    fb.update_sketch.insert(p, vec![p as f32, 1.0, -(p as f32), 0.5]);
                }
                s.report(&fb);
                all.push(picks);
            }
            all
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn initial_random_sketches_give_near_random_selection() {
        // Before any feedback, sketches are random noise: selection should
        // still return valid, diverse parties.
        let mut s = GradClusSelector::new(25, 6, 5).unwrap();
        let mut seen: HashMap<PartyId, usize> = HashMap::new();
        for round in 0..20 {
            for p in s.select(round, 5).unwrap() {
                *seen.entry(p).or_default() += 1;
            }
        }
        assert!(seen.len() > 10, "selection collapsed to {} parties", seen.len());
    }
}
