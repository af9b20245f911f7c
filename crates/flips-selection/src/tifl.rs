//! The TiFL baseline — tier-based federated learning (Chai et al.,
//! HPDC'20; paper §4.1).
//!
//! TiFL groups parties into **latency tiers** from profiled training
//! times and, each round, picks one tier and samples all `Nr` parties from
//! it, so a round is never slower than its slowest tier — the straggler
//! mitigation. Two refinements from the paper:
//!
//! - **credits** bound how often each tier may be chosen, preserving
//!   fairness across tiers;
//! - **adaptive tier selection** re-weights the tier-choice probability
//!   toward tiers whose observed global-model accuracy is lagging, and
//!   re-tiers parties from freshly observed durations on the fly.

use crate::types::{validate_request, ParticipantSelector, PartyId, RoundFeedback, SelectionError};
use flips_ml::parallel;
use flips_ml::rng::{sample_without_replacement, seeded};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Tunables of the TiFL policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TiflConfig {
    /// Number of latency tiers (the paper's default is 5).
    pub num_tiers: usize,
    /// Selection credits granted to each tier.
    pub credits_per_tier: usize,
    /// Re-tier from observed durations every this many rounds
    /// (0 disables adaptive re-tiering).
    pub retier_every: usize,
    /// EWMA weight for per-tier accuracy estimates.
    pub accuracy_ewma: f64,
}

impl Default for TiflConfig {
    fn default() -> Self {
        TiflConfig { num_tiers: 5, credits_per_tier: 50, retier_every: 20, accuracy_ewma: 0.5 }
    }
}

/// The TiFL participant selector.
#[derive(Debug)]
pub struct TiflSelector {
    config: TiflConfig,
    /// Latest latency estimate per party (profiled, then updated online).
    latencies: Vec<f64>,
    /// Every party in `(latency, id)` order; tier `t` (0 = fastest) is
    /// its `t`-th of `credits.len()` equal bands. Ids are held as `u32`
    /// (a roster has at most 2³² parties), half the memory of `usize`.
    order: Vec<u32>,
    /// Parties whose estimate [`ParticipantSelector::report`] changed
    /// since `order` was last sorted — all a re-tier has to move.
    touched: Vec<PartyId>,
    /// Remaining credits per tier.
    credits: Vec<usize>,
    /// EWMA of global accuracy observed when each tier was used.
    tier_accuracy: Vec<Option<f64>>,
    /// The tier charged for the in-flight round.
    last_tier: Option<usize>,
    rng: StdRng,
}

impl TiflSelector {
    /// Creates a selector from profiled per-party training latencies
    /// (seconds) — the output of TiFL's profiling phase.
    ///
    /// # Errors
    ///
    /// Rejects an empty profile, one of more than 2³² parties or a zero
    /// tier count.
    pub fn new(latencies: Vec<f64>, config: TiflConfig, seed: u64) -> Result<Self, SelectionError> {
        if latencies.is_empty() {
            return Err(SelectionError::InvalidConfiguration("no parties profiled".into()));
        }
        if u32::try_from(latencies.len() - 1).is_err() {
            return Err(SelectionError::InvalidConfiguration("more than 2^32 parties".into()));
        }
        if config.num_tiers == 0 {
            return Err(SelectionError::InvalidConfiguration("zero tiers".into()));
        }
        let num_tiers = config.num_tiers.min(latencies.len());
        let workers = match latencies.len() {
            n if n < PARALLEL_SORT_PARTIES => 1,
            n => parallel::threads(n),
        };
        let order = tier_order(&latencies, workers);
        Ok(TiflSelector {
            credits: vec![config.credits_per_tier; num_tiers],
            tier_accuracy: vec![None; num_tiers],
            order,
            touched: Vec::new(),
            latencies,
            config,
            last_tier: None,
            rng: seeded(seed),
        })
    }

    /// Creates a selector over a streamed roster, pulling each party's
    /// profiled latency from the source — bit-identical to
    /// [`TiflSelector::new`] fed the same profile. The tier order and
    /// the latency estimates stay dense (12 B/party: TiFL re-tiers from
    /// them online), but no caller-side profile vector is materialized:
    /// the profile comes in one [`CandidateSource::latency_hints`] read.
    ///
    /// [`CandidateSource::latency_hints`]: crate::streaming::CandidateSource::latency_hints
    ///
    /// # Errors
    ///
    /// Rejects a roster the source cannot read, an empty one or a zero
    /// tier count.
    pub fn from_source(
        source: &dyn crate::streaming::CandidateSource,
        config: TiflConfig,
        seed: u64,
    ) -> Result<Self, SelectionError> {
        let latencies = source.latency_hints().map_err(|e| {
            SelectionError::InvalidConfiguration(format!("cannot read the roster: {e}"))
        })?;
        TiflSelector::new(latencies, config, seed)
    }

    /// Current tier membership (diagnostics; tier 0 is fastest).
    pub fn tiers(&self) -> Vec<Vec<PartyId>> {
        (0..self.credits.len())
            .map(|t| {
                band(&self.order, self.credits.len(), t).iter().map(|&p| p as PartyId).collect()
            })
            .collect()
    }

    /// Remaining credits per tier.
    pub fn credits(&self) -> &[usize] {
        &self.credits
    }

    /// Adaptive tier-choice weights: unevaluated tiers weigh highest;
    /// evaluated tiers weigh by accuracy rank (worst accuracy → largest
    /// weight), per TiFL §4.3.
    fn tier_weights(&self) -> Vec<f64> {
        let m = self.credits.len();
        // Rank evaluated tiers by accuracy ascending.
        let mut evaluated: Vec<(usize, f64)> = self
            .tier_accuracy
            .iter()
            .enumerate()
            .filter_map(|(t, acc)| acc.map(|a| (t, a)))
            .collect();
        evaluated.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut weights = vec![m as f64; m]; // unevaluated default: max weight
        for (rank, &(t, _)) in evaluated.iter().enumerate() {
            weights[t] = (m - rank) as f64;
        }
        // Zero out tiers without credits or members.
        for (t, w) in weights.iter_mut().enumerate() {
            if self.credits[t] == 0 || band(&self.order, self.credits.len(), t).is_empty() {
                *w = 0.0;
            }
        }
        weights
    }

    /// Re-sorts `order` by the current estimates in O(N + d log N) for
    /// `d` touched parties instead of sorting all N again: the touched
    /// are dropped from the order and sorted among themselves, then each
    /// is put back where a binary search among the untouched finds its
    /// place, slowest first, the run of untouched parties above it
    /// shifting up as one block. Same `(latency, id)` order as a full
    /// sort, so the same tiers. (Their count is fixed by the roster
    /// size: credits and accuracy estimates carry over per tier index.)
    fn retier(&mut self) {
        let mut moved = std::mem::take(&mut self.touched);
        if moved.is_empty() {
            return; // same estimates, same order
        }
        let (latencies, order) = (&self.latencies, &mut self.order);
        let place = |p: usize| (latency_key(latencies[p]), p);
        let mut is_moved = vec![false; latencies.len()];
        moved.retain(|&p| !std::mem::replace(&mut is_moved[p], true));
        moved.sort_unstable_by_key(|&p| place(p));
        order.retain(|&p| !is_moved[p as usize]);
        let mut unplaced = order.len();
        order.resize(latencies.len(), 0);
        for (below, &party) in moved.iter().enumerate().rev() {
            let at = order[..unplaced].partition_point(|&p| place(p as usize) < place(party));
            order.copy_within(at..unplaced, at + below + 1);
            order[at + below] = party as u32;
            unplaced = at;
        }
    }
}

/// Tier `t` of `num_tiers` over `order`: its `t`-th band of
/// `⌈n / num_tiers⌉` parties, the last bands short (or empty) when the
/// roster does not divide.
fn band(order: &[u32], num_tiers: usize, t: usize) -> &[u32] {
    let n = order.len();
    let per_tier = n.div_ceil(num_tiers);
    &order[(t * per_tier).min(n)..((t + 1) * per_tier).min(n)]
}

/// Rosters at least this large sort their tier order on two cores;
/// below it the spawn and the merge cost what the second core saves
/// (PERFORMANCE.md, TiFL's set-up: level at 2¹⁴, 23–31 % faster at 2¹⁵).
const PARALLEL_SORT_PARTIES: usize = 1 << 15;

/// An estimate's key in the tiering order (latency ascending, ties by
/// party id): the float's bits, a negative's flipped whole and a
/// positive's sign bit set, so the keys order as unsigned integers the
/// way the latencies do. `-0.0` keys as `+0.0`, and every NaN above
/// `+∞`, slower than any number, which keeps the order total — what the
/// re-tier's binary search relies on.
fn latency_key(latency: f64) -> u64 {
    if latency.is_nan() {
        return u64::MAX;
    }
    let bits = if latency == 0.0 { 0 } else { latency.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// One party's place in the tiering order, 12 bytes: its key's halves,
/// then its id.
type Entry = [u32; 3];

/// An [`Entry`]'s `(key, id)` as one number, so a sort compares once.
fn rank(entry: &Entry) -> u128 {
    u128::from(entry[0]) << 64 | u128::from(entry[1]) << 32 | u128::from(entry[2])
}

/// Every party in tiering order, sorted on up to two of `workers`
/// threads: each keys and sorts a contiguous run of entries, and one
/// two-way merge writes the runs' ids. A third run would need a k-way
/// merge, whose cost on distinct latencies eats what a third core saves.
fn tier_order(latencies: &[f64], workers: usize) -> Vec<u32> {
    let mut entries = vec![[0; 3]; latencies.len()];
    let lens = parallel::for_each_chunk(&mut entries, 1, workers.min(2), |offset, run| {
        let parties = latencies[offset..].iter().zip(offset as u32..);
        for (entry, (&latency, p)) in run.iter_mut().zip(parties) {
            let key = latency_key(latency);
            *entry = [(key >> 32) as u32, key as u32, p];
        }
        run.sort_unstable_by_key(rank);
        run.len()
    });
    let (a, b) = entries.split_at(lens[0]);
    let (mut i, mut j) = (0, 0);
    let mut order = Vec::with_capacity(entries.len());
    while i < a.len() && j < b.len() {
        if rank(&b[j]) < rank(&a[i]) {
            order.push(b[j][2]);
            j += 1;
        } else {
            order.push(a[i][2]);
            i += 1;
        }
    }
    order.extend(a[i..].iter().chain(&b[j..]).map(|entry| entry[2]));
    order
}

impl ParticipantSelector for TiflSelector {
    fn name(&self) -> &'static str {
        "tifl"
    }

    fn select(&mut self, round: usize, target: usize) -> Result<Vec<PartyId>, SelectionError> {
        validate_request(target, self.latencies.len())?;
        if self.config.retier_every > 0
            && round > 0
            && round.is_multiple_of(self.config.retier_every)
        {
            self.retier();
        }
        let mut weights = self.tier_weights();
        if weights.iter().all(|&w| w == 0.0) {
            // All credits exhausted: TiFL would stop; a long-running job
            // refreshes credits instead (documented deviation for round
            // budgets exceeding total credits).
            self.credits.iter_mut().for_each(|c| *c = self.config.credits_per_tier);
            weights = self.tier_weights();
        }
        let tier = flips_data::dist::categorical(&mut self.rng, &weights);
        self.credits[tier] = self.credits[tier].saturating_sub(1);
        self.last_tier = Some(tier);

        // Sample within the tier; top up from the next-fastest tiers when
        // the tier is smaller than the round.
        let mut selected = Vec::with_capacity(target);
        let mut tier_order: Vec<usize> =
            std::iter::once(tier).chain((0..self.credits.len()).filter(|&t| t != tier)).collect();
        tier_order[1..].sort_unstable();
        for t in tier_order {
            if selected.len() >= target {
                break;
            }
            let members = band(&self.order, self.credits.len(), t);
            let want = (target - selected.len()).min(members.len());
            if want == 0 {
                continue;
            }
            let picks = sample_without_replacement(&mut self.rng, members.len(), want);
            selected.extend(picks.into_iter().map(|i| members[i] as PartyId));
        }
        Ok(selected)
    }

    fn report(&mut self, feedback: &RoundFeedback) {
        // Online latency refresh for adaptive re-tiering.
        for (&p, &d) in &feedback.duration {
            if p < self.latencies.len() {
                self.latencies[p] = d;
                self.touched.push(p);
            }
        }
        // Stragglers observably exceeded the deadline: inflate their
        // estimate so re-tiering demotes them.
        for &p in &feedback.stragglers {
            if p < self.latencies.len() {
                self.latencies[p] *= 2.0;
                self.touched.push(p);
            }
        }
        if self.config.retier_every == 0 {
            self.touched.clear(); // nothing will ever re-tier from it
        }
        if let Some(t) = self.last_tier.take() {
            let acc = feedback.global_accuracy;
            self.tier_accuracy[t] = Some(match self.tier_accuracy[t] {
                Some(prev) => {
                    (1.0 - self.config.accuracy_ewma) * prev + self.config.accuracy_ewma * acc
                }
                None => acc,
            });
        }
    }

    fn num_parties(&self) -> usize {
        self.latencies.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The tiering order as a comparator — what `new` sorted by before
    /// the keyed sort, and its oracle: latency ascending, ties by id, a
    /// NaN slower than any number.
    fn by_latency(latencies: &[f64], a: PartyId, b: PartyId) -> std::cmp::Ordering {
        let (la, lb) = (latencies[a], latencies[b]);
        la.partial_cmp(&lb).unwrap_or_else(|| la.is_nan().cmp(&lb.is_nan())).then(a.cmp(&b))
    }

    fn oracle_order(latencies: &[f64]) -> Vec<u32> {
        let mut order: Vec<PartyId> = (0..latencies.len()).collect();
        order.sort_by(|&a, &b| by_latency(latencies, a, b));
        order.into_iter().map(|p| p as u32).collect()
    }

    /// The tier `party` sits in (0 = fastest).
    fn tier_of(s: &TiflSelector, party: PartyId) -> usize {
        s.tiers()
            .iter()
            .position(|members| members.contains(&party))
            .expect("every party is tiered")
    }

    /// 25 parties with latency equal to party id (5 clean tiers of 5).
    fn selector() -> TiflSelector {
        let latencies: Vec<f64> = (0..25).map(|i| i as f64).collect();
        TiflSelector::new(latencies, TiflConfig::default(), 3).unwrap()
    }

    #[test]
    fn tiers_band_by_latency() {
        let s = selector();
        assert_eq!(s.tiers().len(), 5);
        for (t, members) in s.tiers().iter().enumerate() {
            assert_eq!(members.len(), 5);
            for &p in members.iter() {
                assert_eq!(p / 5, t, "party {p} in tier {t}");
            }
        }
    }

    #[test]
    fn a_round_draws_from_one_tier_when_it_fits() {
        let mut s = selector();
        for round in 0..10 {
            let picks = s.select(round, 4).unwrap();
            assert_eq!(picks.len(), 4);
            let tiers: HashSet<usize> = picks.iter().map(|&p| tier_of(&s, p)).collect();
            assert_eq!(tiers.len(), 1, "round {round} mixed tiers: {picks:?}");
        }
    }

    #[test]
    fn oversized_round_spills_into_other_tiers() {
        let mut s = selector();
        let picks = s.select(0, 12).unwrap();
        assert_eq!(picks.len(), 12);
        let set: HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn credits_are_consumed_and_refreshed() {
        let latencies: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let cfg =
            TiflConfig { num_tiers: 2, credits_per_tier: 1, retier_every: 0, ..Default::default() };
        let mut s = TiflSelector::new(latencies, cfg, 1).unwrap();
        let _ = s.select(0, 3).unwrap();
        let _ = s.select(1, 3).unwrap();
        assert_eq!(s.credits(), &[0, 0]);
        // Third round triggers a refresh rather than a panic.
        let picks = s.select(2, 3).unwrap();
        assert_eq!(picks.len(), 3);
        assert!(s.credits().iter().sum::<usize>() > 0);
    }

    #[test]
    fn lagging_tiers_gain_weight() {
        let mut s = selector();
        // Tell the selector tier 0 performs great and tier 4 poorly.
        for (tier, acc) in [(0usize, 0.9f64), (4, 0.2)] {
            s.last_tier = Some(tier);
            s.report(&RoundFeedback { global_accuracy: acc, ..Default::default() });
        }
        let w = s.tier_weights();
        assert!(w[4] > w[0], "lagging tier must outweigh leading tier: {w:?}");
        // Unevaluated tiers keep the maximum weight.
        assert_eq!(w[1], 5.0);
    }

    #[test]
    fn straggler_latency_inflation_demotes_on_retier() {
        let latencies: Vec<f64> = vec![1.0; 10];
        let cfg = TiflConfig { num_tiers: 2, retier_every: 1, ..Default::default() };
        let mut s = TiflSelector::new(latencies, cfg, 5).unwrap();
        // Party 0 straggles hard, repeatedly.
        for round in 0..3 {
            let _ = s.select(round, 2).unwrap();
            s.report(&RoundFeedback { round, stragglers: vec![0], ..Default::default() });
        }
        let _ = s.select(3, 2).unwrap(); // triggers retier
        assert_eq!(tier_of(&s, 0), 1, "chronic straggler must land in the slow tier");
    }

    /// The incremental re-tier against the full sort it replaces: after
    /// any mix of reports — ties, repeats, stragglers, untouched rounds,
    /// infinities, NaNs and their later repair — every re-tier
    /// leaves exactly the tiers a selector new to those estimates sorts.
    #[test]
    fn retier_equals_a_full_sort_after_any_report_sequence() {
        use rand::Rng;
        let mut rng = seeded(0x71F1);
        for case in 0..300 {
            let n = rng.random_range(1..80usize);
            let cfg = TiflConfig {
                num_tiers: rng.random_range(1..7),
                retier_every: rng.random_range(1..4),
                ..Default::default()
            };
            let profile: Vec<f64> = (0..n).map(|_| rng.random_range(0..6) as f64 * 0.5).collect();
            let mut s = TiflSelector::new(profile, cfg, case).unwrap();
            let with_nans = case % 4 == 0;
            for round in 0..12 {
                let cohort = s.select(round, rng.random_range(1..=n.min(8))).unwrap();
                if round > 0 && round % cfg.retier_every == 0 {
                    let fresh = TiflSelector::new(s.latencies.clone(), cfg, 0).unwrap();
                    assert_eq!(s.tiers(), fresh.tiers(), "case {case}, round {round}");
                    assert_eq!(s.order, oracle_order(&s.latencies), "case {case}, round {round}");
                }
                let mut feedback = RoundFeedback { round, ..Default::default() };
                for &p in &cohort {
                    match rng.random_range(0..10) {
                        0 => feedback.stragglers.push(p),
                        1 => {} // no signal for this party
                        2 if with_nans => drop(feedback.duration.insert(p, f64::NAN)),
                        3 => drop(feedback.duration.insert(p, f64::INFINITY)),
                        _ => drop(feedback.duration.insert(p, rng.random_range(0..6) as f64 * 0.5)),
                    }
                }
                // Someone outside the cohort, and an id off the roster.
                feedback.duration.insert(rng.random_range(0..n + 3), -0.0);
                s.report(&feedback);
            }
        }
    }

    /// The keyed sort against the comparator sort it replaced, on the
    /// floats that order oddly — NaNs of both signs, ±0.0, ±∞, subnormals
    /// and the extremes — among heavy duplicates, at sizes below and
    /// above the parallel threshold, on 1 and 2 workers, and through
    /// `new`, which picks the workers itself.
    #[test]
    fn keyed_order_equals_the_comparator_sort() {
        use rand::Rng;
        let odd = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
        ];
        let mut rng = seeded(0x50_27);
        for n in [1, 2, 3, 17, 1000, PARALLEL_SORT_PARTIES - 1, PARALLEL_SORT_PARTIES + 1001] {
            let latencies: Vec<f64> = (0..n)
                .map(|_| match rng.random_range(0..4) {
                    0 => odd[rng.random_range(0..odd.len())],
                    1 => rng.random_range(0..8) as f64 * 0.25,
                    _ => rng.random::<f64>() * 4.0 - 2.0,
                })
                .collect();
            let oracle = oracle_order(&latencies);
            for workers in 1..=2 {
                assert_eq!(
                    tier_order(&latencies, workers),
                    oracle,
                    "{n} parties, {workers} workers"
                );
            }
            let s = TiflSelector::new(latencies, TiflConfig::default(), 1).unwrap();
            assert_eq!(s.order, oracle, "{n} parties through new");
        }
    }

    /// `partial_cmp(..).unwrap_or(Equal)` was not a total order with a
    /// NaN in the profile, and the standard sort may panic on one.
    #[test]
    fn a_nan_estimate_is_the_slowest_not_a_panic() {
        let mut latencies: Vec<f64> = (0..40).map(|i| ((i * 7) % 40) as f64).collect();
        latencies[3] = f64::NAN;
        latencies[17] = f64::NAN;
        let s = TiflSelector::new(latencies, TiflConfig::default(), 1).unwrap();
        assert_eq!(s.tiers()[4][6..], [3, 17]);
    }

    #[test]
    fn accuracy_ewma_blends() {
        let mut s = selector();
        s.last_tier = Some(2);
        s.report(&RoundFeedback { global_accuracy: 0.4, ..Default::default() });
        s.last_tier = Some(2);
        s.report(&RoundFeedback { global_accuracy: 0.8, ..Default::default() });
        let acc = s.tier_accuracy[2].unwrap();
        assert!((acc - 0.6).abs() < 1e-9, "0.5-EWMA of 0.4 then 0.8 is 0.6, got {acc}");
    }

    #[test]
    fn rejects_bad_configs_and_targets() {
        assert!(TiflSelector::new(vec![], TiflConfig::default(), 1).is_err());
        assert!(TiflSelector::new(vec![1.0], TiflConfig { num_tiers: 0, ..Default::default() }, 1)
            .is_err());
        let mut s = selector();
        assert!(s.select(0, 0).is_err());
        assert!(s.select(0, 26).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let latencies: Vec<f64> = (0..20).map(|i| (i % 7) as f64).collect();
            let mut s = TiflSelector::new(latencies, TiflConfig::default(), 11).unwrap();
            (0..6).map(|r| s.select(r, 5).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn more_tiers_than_parties_is_clamped() {
        let s = TiflSelector::new(vec![1.0, 2.0], TiflConfig::default(), 1).unwrap();
        assert_eq!(s.tiers().len(), 2);
    }
}
