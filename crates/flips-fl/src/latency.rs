//! The platform-heterogeneity model.
//!
//! Real FL deployments span devices of wildly different capability (paper
//! §2.3). This model assigns each party a multiplicative **speed factor**
//! drawn log-normally — a standard heavy-tailed fit for device populations
//! — and derives a simulated round duration from the party's sample count.
//! Oort's system utility and TiFL's tiers both consume these durations.
//!
//! The model is consumed from two directions:
//!
//! - *a priori* by selectors that profile device speed (TiFL's tiers,
//!   Oort's system utility) and by the legacy straggler injector's
//!   slow-biased victim draw;
//! - *a posteriori* through [`ObservedLatency`]: a job's
//!   `Stragglers` feeds every round-trip duration a party
//!   actually reports back into its sample set, and the
//!   [`crate::config::DeadlinePolicy`] derives the
//!   next round's deadline from those observations — the straggler model
//!   the paper injects synthetically becomes an emergent property of the
//!   measured population.

use flips_ml::rng::{derive_seed, normal, seeded};
use serde::{Deserialize, Serialize};

/// Per-party simulated compute latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Seconds of compute per training sample per epoch on a speed-1
    /// device.
    pub per_sample_cost: f64,
    /// Fixed per-round overhead (startup + network), seconds.
    pub fixed_cost: f64,
    /// Speed factor per party (1.0 = reference device; larger = slower).
    speed: Vec<f64>,
}

impl LatencyModel {
    /// Samples a heterogeneity model for `num_parties` parties.
    ///
    /// `sigma` is the log-normal shape parameter; 0 makes all parties
    /// identical, 0.5 gives a realistic ~5× spread between fast and slow
    /// devices.
    pub fn sample(num_parties: usize, sigma: f64, seed: u64) -> Self {
        let mut rng = seeded(derive_seed(seed, 0x01A7_E9C7));
        let speed = (0..num_parties).map(|_| normal(&mut rng, 0.0, sigma).exp()).collect();
        LatencyModel { per_sample_cost: 1e-4, fixed_cost: 0.05, speed }
    }

    /// A homogeneous model (all parties speed 1).
    pub fn uniform(num_parties: usize) -> Self {
        LatencyModel { per_sample_cost: 1e-4, fixed_cost: 0.05, speed: vec![1.0; num_parties] }
    }

    /// A model with explicitly given per-party speed factors.
    ///
    /// # Panics
    ///
    /// Panics if any speed factor is non-positive.
    pub fn with_speeds(speed: Vec<f64>) -> Self {
        assert!(speed.iter().all(|&s| s > 0.0), "speed factors must be positive");
        LatencyModel { per_sample_cost: 1e-4, fixed_cost: 0.05, speed }
    }

    /// Number of parties covered.
    pub fn num_parties(&self) -> usize {
        self.speed.len()
    }

    /// The speed factor of a party.
    pub fn speed_factor(&self, party: usize) -> f64 {
        self.speed[party]
    }

    /// Simulated duration of `epochs` local epochs over `num_samples`
    /// samples at `party`.
    pub fn duration(&self, party: usize, num_samples: usize, epochs: usize) -> f64 {
        self.fixed_cost + self.speed[party] * self.per_sample_cost * (num_samples * epochs) as f64
    }

    /// Per-party durations for a fixed workload — TiFL's profiling pass.
    pub fn profile(&self, samples_per_party: &[usize], epochs: usize) -> Vec<f64> {
        assert_eq!(samples_per_party.len(), self.speed.len(), "profile length mismatch");
        (0..self.speed.len()).map(|p| self.duration(p, samples_per_party[p], epochs)).collect()
    }
}

/// Round-trip latency samples observed on a live job.
///
/// Every [`crate::WireMessage::LocalUpdate`] reports the simulated
/// duration of the round trip that produced it (dispatch → local
/// training → reply). Drivers record each one here, and the
/// [`crate::config::DeadlinePolicy`] turns the accumulated sample set
/// into the next round's deadline.
///
/// Order independence is load-bearing: sharded drivers observe the same
/// *multiset* of samples in a nondeterministic *order*, so every derived
/// statistic must be a pure function of the multiset. [`quantile`]
/// guarantees that by sorting internally.
///
/// [`quantile`]: ObservedLatency::quantile
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservedLatency {
    /// All samples, in arrival order (never consulted in that order).
    samples: Vec<f64>,
    /// Scratch for quantile extraction, sorted on demand.
    sorted: Vec<f64>,
    /// Samples appended since `sorted` was last rebuilt.
    dirty: bool,
    /// Batch boundaries (end indices into `samples`), sealed by
    /// [`ObservedLatency::seal_batch`] at round opens. The EWMA policy
    /// smooths over per-batch means, so the boundaries — not arrival
    /// order — are what must be deterministic.
    batches: Vec<usize>,
}

impl ObservedLatency {
    /// An empty sample set.
    pub fn new() -> Self {
        ObservedLatency::default()
    }

    /// Records one observed round-trip duration (seconds).
    ///
    /// Non-finite or negative samples are ignored — a corrupt wire
    /// message must not be able to poison the deadline statistics.
    pub fn record(&mut self, duration: f64) {
        if duration.is_finite() && duration >= 0.0 {
            self.samples.push(duration);
            self.dirty = true;
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples in arrival order plus the sealed batch
    /// boundaries — everything a checkpoint needs to rebuild this
    /// sample set bit-exactly via [`ObservedLatency::from_parts`].
    pub fn parts(&self) -> (&[f64], &[usize]) {
        (&self.samples, &self.batches)
    }

    /// Rebuilds a sample set from [`ObservedLatency::parts`] output.
    /// Returns `None` when the boundaries are not ascending end indices
    /// into `samples` — a corrupt snapshot must not produce a sample
    /// set the policies would misread.
    pub fn from_parts(samples: Vec<f64>, batches: Vec<usize>) -> Option<Self> {
        let ascending = batches.windows(2).all(|w| w[0] <= w[1])
            && batches.last().is_none_or(|&b| b <= samples.len());
        if !ascending || samples.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return None;
        }
        Some(ObservedLatency { dirty: !samples.is_empty(), samples, sorted: Vec::new(), batches })
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the observed samples, or `None`
    /// while no sample exists. Uses the nearest-rank method on the
    /// sorted multiset, so the result is independent of arrival order —
    /// the property that lets sharded and single-threaded drivers derive
    /// identical deadlines.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if self.dirty {
            self.sorted.clear();
            self.sorted.extend_from_slice(&self.samples);
            self.sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite by construction"));
            self.dirty = false;
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// Seals the samples recorded since the last seal into one batch
    /// (a no-op when nothing new arrived, so replaying a policy query
    /// never perturbs the batch structure). Drivers call this once per
    /// round open — a deterministic point — giving every execution mode
    /// identical batch boundaries.
    pub fn seal_batch(&mut self) {
        let end = self.samples.len();
        if self.batches.last().copied().unwrap_or(0) < end {
            self.batches.push(end);
        }
    }

    /// Batches sealed so far.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// The exponentially weighted moving average of the per-batch mean
    /// durations (`alpha` = weight of the newest batch), or `None`
    /// while no batch holds a sample. Unsealed tail samples count as
    /// one provisional batch.
    ///
    /// Bit-exact order independence is load-bearing here exactly as in
    /// [`ObservedLatency::quantile`]: each batch mean is summed over the
    /// batch's samples in *sorted* order (f64 addition does not
    /// associate), so sharded drivers — which observe a batch's multiset
    /// in nondeterministic order — derive the identical deadline.
    pub fn ewma(&self, alpha: f64) -> Option<f64> {
        let mut scratch = Vec::new();
        let mut start = 0usize;
        let mut smoothed: Option<f64> = None;
        let ends = self.batches.iter().copied().chain(
            (self.batches.last().copied().unwrap_or(0) < self.samples.len())
                .then_some(self.samples.len()),
        );
        for end in ends {
            scratch.clear();
            scratch.extend_from_slice(&self.samples[start..end]);
            scratch.sort_by(|a, b| a.partial_cmp(b).expect("finite by construction"));
            let mean = scratch.iter().sum::<f64>() / scratch.len() as f64;
            smoothed = Some(match smoothed {
                None => mean,
                Some(prev) => alpha * mean + (1.0 - alpha) * prev,
            });
            start = end;
        }
        smoothed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_parties_have_identical_durations() {
        let m = LatencyModel::uniform(5);
        let d: Vec<f64> = (0..5).map(|p| m.duration(p, 100, 2)).collect();
        assert!(d.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
    }

    #[test]
    fn duration_scales_with_work() {
        let m = LatencyModel::uniform(1);
        assert!(m.duration(0, 200, 2) > m.duration(0, 100, 2));
        assert!(m.duration(0, 100, 4) > m.duration(0, 100, 2));
    }

    #[test]
    fn sampled_model_is_heterogeneous_and_positive() {
        let m = LatencyModel::sample(100, 0.5, 42);
        let speeds: Vec<f64> = (0..100).map(|p| m.speed_factor(p)).collect();
        assert!(speeds.iter().all(|&s| s > 0.0));
        let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = speeds.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 2.0, "spread {max}/{min} too small for sigma 0.5");
    }

    #[test]
    fn sigma_zero_degenerates_to_uniform() {
        let m = LatencyModel::sample(10, 0.0, 1);
        for p in 0..10 {
            assert!((m.speed_factor(p) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        assert_eq!(LatencyModel::sample(20, 0.5, 7), LatencyModel::sample(20, 0.5, 7));
        assert_ne!(LatencyModel::sample(20, 0.5, 7), LatencyModel::sample(20, 0.5, 8));
    }

    #[test]
    fn profile_covers_all_parties() {
        let m = LatencyModel::sample(4, 0.3, 3);
        let prof = m.profile(&[10, 20, 30, 40], 2);
        assert_eq!(prof.len(), 4);
        assert!(prof.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn observed_quantiles_are_order_independent() {
        let mut forward = ObservedLatency::new();
        let mut backward = ObservedLatency::new();
        let samples = [0.5, 0.1, 0.9, 0.3, 0.7];
        for &s in &samples {
            forward.record(s);
        }
        for &s in samples.iter().rev() {
            backward.record(s);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(forward.quantile(q), backward.quantile(q), "q = {q}");
        }
        assert_eq!(forward.quantile(0.5), Some(0.5));
        assert_eq!(forward.quantile(1.0), Some(0.9));
        assert_eq!(forward.quantile(0.0), Some(0.1));
    }

    #[test]
    fn observed_is_empty_until_a_sample_arrives() {
        let mut obs = ObservedLatency::new();
        assert!(obs.is_empty());
        assert_eq!(obs.quantile(0.5), None);
        obs.record(0.2);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs.quantile(0.5), Some(0.2));
    }

    #[test]
    fn hostile_samples_are_ignored() {
        let mut obs = ObservedLatency::new();
        obs.record(f64::NAN);
        obs.record(f64::INFINITY);
        obs.record(-1.0);
        assert!(obs.is_empty(), "non-finite/negative samples must not poison the stats");
        obs.record(0.4);
        obs.record(f64::NAN);
        assert_eq!(obs.quantile(1.0), Some(0.4));
    }

    #[test]
    fn ewma_is_order_independent_within_batches() {
        // Same batches, different arrival order inside each — the bit
        // pattern of the smoothed mean must not move.
        let mut forward = ObservedLatency::new();
        let mut backward = ObservedLatency::new();
        for batch in [[0.5, 0.1, 0.9], [0.3, 0.7, 0.2]] {
            for &s in &batch {
                forward.record(s);
            }
            for &s in batch.iter().rev() {
                backward.record(s);
            }
            forward.seal_batch();
            backward.seal_batch();
        }
        let (a, b) = (forward.ewma(0.3).unwrap(), backward.ewma(0.3).unwrap());
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn ewma_weights_recent_batches_by_alpha() {
        let mut obs = ObservedLatency::new();
        assert_eq!(obs.ewma(0.5), None, "no samples, no average");
        obs.record(0.2);
        obs.seal_batch();
        assert_eq!(obs.ewma(0.5), Some(0.2), "one batch: its mean");
        obs.record(1.0);
        obs.seal_batch();
        assert_eq!(obs.ewma(0.5), Some(0.6), "0.5·1.0 + 0.5·0.2");
        assert_eq!(obs.ewma(1.0), Some(1.0), "alpha 1 tracks only the newest batch");
    }

    #[test]
    fn unsealed_tail_counts_as_a_provisional_batch() {
        let mut obs = ObservedLatency::new();
        obs.record(0.2);
        obs.seal_batch();
        obs.record(0.8);
        assert_eq!(obs.ewma(0.5), Some(0.5), "tail batch participates");
        obs.seal_batch();
        assert_eq!(obs.ewma(0.5), Some(0.5), "sealing the tail changes nothing");
        assert_eq!(obs.num_batches(), 2);
    }

    #[test]
    fn sealing_with_no_new_samples_is_a_no_op() {
        let mut obs = ObservedLatency::new();
        obs.seal_batch();
        assert_eq!(obs.num_batches(), 0, "an empty set seals nothing");
        obs.record(0.4);
        obs.seal_batch();
        obs.seal_batch();
        obs.seal_batch();
        assert_eq!(obs.num_batches(), 1, "replayed seals must not split batches");
    }

    #[test]
    fn quantile_tracks_samples_recorded_after_a_query() {
        // The sorted cache must invalidate on new samples.
        let mut obs = ObservedLatency::new();
        obs.record(0.1);
        assert_eq!(obs.quantile(1.0), Some(0.1));
        obs.record(0.9);
        assert_eq!(obs.quantile(1.0), Some(0.9));
    }
}
