//! The simulation's straggler model — who misses each round's deadline.
//!
//! The paper emulates platform heterogeneity "by dropping 10% or 20% of
//! participants involved in an FL round" (§5). The injector reproduces
//! that: given the selected cohort it designates `round(rate · |cohort|)`
//! victims whose updates miss the round deadline. Victims are drawn
//! uniformly by default, or biased toward slow parties (probability ∝
//! speed factor) for a more physical failure mode. A latency-derived
//! [`DeadlinePolicy`] replaces the coin flip with a deadline computed
//! from observed round trips; `Stragglers` holds both models.
//!
//! This is *driver* machinery, not protocol: the coordinator just closes
//! the round when the driver's deadline fires, and whoever has not
//! delivered an update is a straggler.

use crate::config::DeadlinePolicy;
use crate::history::RoundRecord;
use crate::latency::{LatencyModel, ObservedLatency};
use crate::FlError;
use flips_data::dist::categorical;
use flips_ml::rng::{derive_seed, seeded};
use flips_selection::PartyId;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The seeded victim draw behind [`DeadlinePolicy::Injected`].
///
/// - [`Clock::missed_deadline`] answers **who** — which members of the
///   round's cohort will not deliver an update before the collection
///   window closes. The driver never simulates work whose result is
///   destined for the floor; those parties close as stragglers when the
///   deadline fires.
/// - [`Clock::deadline_ticks`] answers **when** — how many virtual ticks
///   the window stays open on the timer wheel. The in-process driver has
///   no wheel (it fires the deadline as soon as every surviving update
///   is pumped), which is exactly the wheel schedule with every
///   completion inside the window, so histories agree bit-for-bit.
///
/// Only `Stragglers` calls a clock.
pub trait Clock: Send {
    /// Indices into `cohort` of the parties whose updates miss this
    /// round's deadline, sorted ascending. Called exactly once per round
    /// open, in round order — implementations may hold RNG state.
    fn missed_deadline(&mut self, cohort: &[PartyId], latency: &LatencyModel) -> Vec<usize>;

    /// Virtual ticks from round open to deadline on the timer wheel.
    /// Must be at least 1; defaults to 1 (deadline on the next quiet
    /// tick).
    fn deadline_ticks(&self) -> u64 {
        1
    }
}

impl Clock for StragglerInjector {
    fn missed_deadline(&mut self, cohort: &[PartyId], latency: &LatencyModel) -> Vec<usize> {
        self.strike(cohort, latency)
    }
}

impl<C: Clock + ?Sized> Clock for Box<C> {
    fn missed_deadline(&mut self, cohort: &[PartyId], latency: &LatencyModel) -> Vec<usize> {
        (**self).missed_deadline(cohort, latency)
    }

    fn deadline_ticks(&self) -> u64 {
        (**self).deadline_ticks()
    }
}

/// An arriving update judged against its round's deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// Deliver it to the coordinator.
    OnTime,
    /// Withhold it: the deadline close turns its sender into a straggler.
    Late {
        /// False for a redelivered copy of the party's update.
        first: bool,
    },
}

/// One job's straggler model, held by both drivers. Under
/// [`DeadlinePolicy::Injected`] the clock picks each round's victims,
/// whose model is withheld. Under a latency-derived policy everyone
/// trains, each reply's round-trip duration is a sample, and a reply
/// slower than the deadline derived from earlier rounds' samples is late.
pub(crate) struct Stragglers<C = Box<dyn Clock>> {
    clock: C,
    policy: DeadlinePolicy,
    observed: ObservedLatency,
    /// The open round's deadline in simulated seconds (`None` =
    /// unbounded, or the injected policy).
    deadline: Option<f64>,
    /// Parties sampled this round: a redelivered update must not count
    /// twice in the multiset the next deadline derives from.
    sampled: HashSet<PartyId>,
}

impl<C: Clock> Stragglers<C> {
    /// `clock` is consulted only under [`DeadlinePolicy::Injected`].
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] if `policy` fails validation.
    pub fn new(clock: C, policy: DeadlinePolicy) -> Result<Self, FlError> {
        policy.validate()?;
        let (observed, sampled) = (ObservedLatency::new(), HashSet::new());
        Ok(Stragglers { clock, policy, observed, deadline: None, sampled })
    }

    /// The clock and the policy, for a driver that takes the job over.
    pub fn into_parts(self) -> (C, DeadlinePolicy) {
        (self.clock, self.policy)
    }

    /// Opens a round: the parties whose model is withheld, and the
    /// deadline in timer-wheel ticks. Call exactly once per round open,
    /// in round order — the clock's RNG and the EWMA batches advance here.
    pub fn open(&mut self, cohort: &[PartyId], latency: &LatencyModel) -> (HashSet<PartyId>, u64) {
        self.sampled.clear();
        if !self.policy.is_latency_derived() {
            let missed = self.clock.missed_deadline(cohort, latency);
            return (missed.iter().map(|&i| cohort[i]).collect(), self.clock.deadline_ticks());
        }
        self.deadline = self.policy.deadline_secs(&mut self.observed);
        // An unbounded (warm-up) deadline still schedules an entry: it
        // only fires if the round somehow stalls.
        (HashSet::new(), self.deadline.map_or(1, DeadlinePolicy::ticks))
    }

    /// Judges `party`'s update of simulated round trip `duration`.
    /// `in_open_round` (asked only under a latency-derived policy) says
    /// whether it belongs to the open round's cohort; any other update
    /// is left to the coordinator. A bounded deadline takes an update
    /// only when `0 ≤ duration ≤ deadline`, so a NaN, infinite or
    /// negative duration is late. Both sides are seeded quantities, so
    /// the verdict does not depend on arrival order.
    pub fn judge(
        &mut self,
        party: PartyId,
        duration: f64,
        in_open_round: impl FnOnce() -> bool,
    ) -> Arrival {
        if !self.policy.is_latency_derived() || !in_open_round() {
            return Arrival::OnTime;
        }
        let first = self.sampled.insert(party);
        if first {
            self.observed.record(duration);
        }
        match self.deadline {
            Some(deadline) if !(0.0..=deadline).contains(&duration) => Arrival::Late { first },
            _ => Arrival::OnTime,
        }
    }

    /// The open round's deadline in simulated seconds (`None` on the
    /// injected policy or an unbounded warm-up round).
    pub fn deadline(&self) -> Option<f64> {
        self.deadline
    }

    /// The sample store `(samples, batch boundaries)` under a
    /// latency-derived policy; `None` under the injected one.
    pub fn snapshot(&self) -> Option<(Vec<f64>, Vec<usize>)> {
        self.policy.is_latency_derived().then(|| {
            let (samples, batches) = self.observed.parts();
            (samples.to_vec(), batches.to_vec())
        })
    }

    /// Brings a fresh model to a round boundary: the injected policy
    /// replays its clock against each closed round's cohort, a
    /// latency-derived one rebuilds its sample store from `snapshot`.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] for a snapshot of the other straggler
    /// model or an inconsistent sample store.
    pub fn restore(
        &mut self,
        snapshot: Option<(Vec<f64>, Vec<usize>)>,
        history: &[RoundRecord],
        latency: &LatencyModel,
    ) -> Result<(), FlError> {
        let refuse = |m: &str| FlError::InvalidConfig(format!("checkpoint latency samples {m}"));
        match (self.policy.is_latency_derived(), snapshot) {
            (false, None) => {
                for record in history {
                    let _ = self.clock.missed_deadline(&record.selected, latency);
                }
            }
            (true, Some((samples, batches))) => {
                self.observed = ObservedLatency::from_parts(samples, batches)
                    .ok_or_else(|| refuse("are inconsistent"))?;
            }
            (false, Some(_)) => return Err(refuse("given to an injected clock")),
            (true, None) => return Err(refuse("missing for a latency-derived deadline")),
        }
        Ok(())
    }
}

/// A clock replaying an explicit per-round victim script: round `r`'s
/// victims are exactly `rounds[r] ∩ cohort` (rounds past the script's
/// end strike nobody).
///
/// This is the reference implementation the guard plane's **ejection
/// equivalence** is pinned against: a breaker-ejected party is treated
/// exactly like an injected victim (model withheld, closes as a
/// straggler), so a guarded run with a hostile party must be
/// bit-identical to an unguarded run scripting that party as the victim
/// in the same rounds — see `tests/guard_plane.rs`.
#[derive(Debug, Clone)]
pub struct ScriptedClock {
    rounds: Vec<Vec<PartyId>>,
    cursor: usize,
}

impl ScriptedClock {
    /// A clock striking `rounds[r]` at the r-th round open.
    pub fn new(rounds: Vec<Vec<PartyId>>) -> Self {
        ScriptedClock { rounds, cursor: 0 }
    }
}

impl Clock for ScriptedClock {
    fn missed_deadline(&mut self, cohort: &[PartyId], _latency: &LatencyModel) -> Vec<usize> {
        let script = self.rounds.get(self.cursor);
        self.cursor += 1;
        let Some(victims) = script else { return Vec::new() };
        cohort.iter().enumerate().filter(|(_, p)| victims.contains(p)).map(|(i, _)| i).collect()
    }
}

/// How straggler victims are chosen within a round's cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StragglerBias {
    /// Uniformly at random (the paper's emulation).
    Uniform,
    /// Probability proportional to the party's latency speed factor.
    SlowBiased,
}

/// Drops a fixed fraction of each round's participants.
#[derive(Debug)]
pub struct StragglerInjector {
    rate: f64,
    bias: StragglerBias,
    rng: StdRng,
}

impl StragglerInjector {
    /// Creates an injector dropping `rate` of each cohort (0 disables).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn new(rate: f64, bias: StragglerBias, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "straggler rate must be in [0, 1), got {rate}");
        StragglerInjector { rate, bias, rng: seeded(derive_seed(seed, 0x57A6)) }
    }

    /// The configured drop rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Chooses this round's stragglers from the selected cohort.
    ///
    /// Returns the *indices into `selected`* of the victims, sorted
    /// ascending.
    pub fn strike(&mut self, selected: &[PartyId], latency: &LatencyModel) -> Vec<usize> {
        let count = (self.rate * selected.len() as f64).round() as usize;
        if count == 0 || selected.is_empty() {
            return Vec::new();
        }
        let count = count.min(selected.len());
        let mut victims: Vec<usize> = match self.bias {
            StragglerBias::Uniform => {
                flips_ml::rng::sample_without_replacement(&mut self.rng, selected.len(), count)
            }
            StragglerBias::SlowBiased => {
                let mut weights: Vec<f64> =
                    selected.iter().map(|&p| latency.speed_factor(p)).collect();
                let mut picked = Vec::with_capacity(count);
                for _ in 0..count {
                    let idx = categorical(&mut self.rng, &weights);
                    weights[idx] = 0.0;
                    picked.push(idx);
                }
                picked
            }
        };
        victims.sort_unstable();
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_the_configured_fraction() {
        let mut inj = StragglerInjector::new(0.2, StragglerBias::Uniform, 1);
        let selected: Vec<PartyId> = (0..40).collect();
        let latency = LatencyModel::uniform(40);
        let victims = inj.strike(&selected, &latency);
        assert_eq!(victims.len(), 8);
        assert!(victims.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        assert!(victims.iter().all(|&v| v < 40));
    }

    #[test]
    fn zero_rate_never_strikes() {
        let mut inj = StragglerInjector::new(0.0, StragglerBias::Uniform, 2);
        let selected: Vec<PartyId> = (0..10).collect();
        assert!(inj.strike(&selected, &LatencyModel::uniform(10)).is_empty());
    }

    #[test]
    fn rounds_small_cohorts_sensibly() {
        // 10% of 4 parties rounds to 0; 10% of 6 rounds to 1.
        let mut inj = StragglerInjector::new(0.1, StragglerBias::Uniform, 3);
        let latency = LatencyModel::uniform(10);
        assert!(inj.strike(&[0, 1, 2, 3], &latency).is_empty());
        assert_eq!(inj.strike(&[0, 1, 2, 3, 4, 5], &latency).len(), 1);
    }

    #[test]
    fn slow_bias_prefers_slow_parties() {
        // Parties 0..5 fast, 5..10 drastically slow.
        let speeds: Vec<f64> = (0..10).map(|p| if p < 5 { 0.01 } else { 100.0 }).collect();
        let latency = LatencyModel::with_speeds(speeds);
        let mut inj = StragglerInjector::new(0.3, StragglerBias::SlowBiased, 4);
        let selected: Vec<PartyId> = (0..10).collect();
        let mut slow_hits = 0;
        let mut total = 0;
        for _ in 0..50 {
            for v in inj.strike(&selected, &latency) {
                total += 1;
                if selected[v] >= 5 {
                    slow_hits += 1;
                }
            }
        }
        assert!(slow_hits as f64 / total as f64 > 0.9, "slow parties hit only {slow_hits}/{total}");
    }

    #[test]
    #[should_panic(expected = "straggler rate")]
    fn rejects_rate_of_one() {
        let _ = StragglerInjector::new(1.0, StragglerBias::Uniform, 5);
    }

    #[test]
    fn scripted_clock_replays_its_script_then_goes_quiet() {
        let mut clock = ScriptedClock::new(vec![vec![3, 7], vec![], vec![5]]);
        let latency = LatencyModel::uniform(10);
        assert_eq!(clock.deadline_ticks(), 1, "deadline on the next quiet tick");
        // Victims resolve to cohort indices; absent parties are ignored.
        assert_eq!(clock.missed_deadline(&[1, 3, 5, 7], &latency), vec![1, 3]);
        assert_eq!(clock.missed_deadline(&[1, 3, 5, 7], &latency), Vec::<usize>::new());
        assert_eq!(clock.missed_deadline(&[5, 6], &latency), vec![0]);
        assert_eq!(
            clock.missed_deadline(&[5, 6], &latency),
            Vec::<usize>::new(),
            "past the script's end nobody is struck"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut inj = StragglerInjector::new(0.25, StragglerBias::Uniform, seed);
            let selected: Vec<PartyId> = (0..20).collect();
            let latency = LatencyModel::uniform(20);
            (0..5).map(|_| inj.strike(&selected, &latency)).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
