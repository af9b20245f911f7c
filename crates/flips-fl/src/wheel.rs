//! The deterministic virtual clock under the [`crate::MultiJobDriver`].
//!
//! Each opened round schedules a `(job, round)` deadline entry; the
//! wheel advances only when the wire is quiet (no frames in flight), so
//! a run's timer order is a pure function of the job set, never of host
//! scheduling.

use std::collections::BTreeMap;

/// A deadline entry on the wheel: close `job`'s round `round` (if that
/// round is still the open one when the tick fires).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Deadline {
    pub(crate) job: u64,
    pub(crate) round: u64,
}

/// A deterministic timer wheel over virtual ticks.
///
/// Entries fire in `(tick, insertion order)` — no wall clock anywhere,
/// so two runs with the same schedule fire identically.
#[derive(Debug, Default)]
pub struct TimerWheel {
    /// `tick → entries`, fired front-to-back per tick.
    slots: BTreeMap<u64, Vec<Deadline>>,
    pub(crate) now: u64,
}

impl TimerWheel {
    /// An empty wheel at tick 0.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// The current virtual tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Timers currently scheduled.
    pub fn pending(&self) -> usize {
        self.slots.values().map(Vec::len).sum()
    }

    /// Schedules an entry `delay` ticks from now (clamped to ≥ 1 — a
    /// deadline in the past could fire before the round's own frames).
    pub(crate) fn schedule(&mut self, delay: u64, entry: Deadline) {
        self.slots.entry(self.now + delay.max(1)).or_default().push(entry);
    }

    /// Advances to the next tick holding entries and returns them, or
    /// `None` when the wheel is empty.
    pub(crate) fn advance(&mut self) -> Option<Vec<Deadline>> {
        let (&tick, _) = self.slots.iter().next()?;
        self.now = tick;
        self.slots.remove(&tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_in_tick_then_insertion_order() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(2, Deadline { job: 1, round: 0 });
        wheel.schedule(1, Deadline { job: 2, round: 0 });
        wheel.schedule(2, Deadline { job: 3, round: 0 });
        assert_eq!(wheel.pending(), 3);
        assert_eq!(wheel.advance().unwrap(), vec![Deadline { job: 2, round: 0 }]);
        assert_eq!(wheel.now(), 1);
        assert_eq!(
            wheel.advance().unwrap(),
            vec![Deadline { job: 1, round: 0 }, Deadline { job: 3, round: 0 }]
        );
        assert_eq!(wheel.now(), 2);
        assert!(wheel.advance().is_none());
    }

    #[test]
    fn zero_delay_schedules_are_clamped_forward() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(0, Deadline { job: 1, round: 0 });
        assert_eq!(wheel.advance().unwrap(), vec![Deadline { job: 1, round: 0 }]);
        assert_eq!(wheel.now(), 1, "a deadline can never fire at its own open tick");
    }
}
