//! Deterministic reconnect pacing: capped exponential backoff with
//! seeded jitter.
//!
//! Both places the socket runtime dials a peer — the party binary's
//! first connect (racing the server to `listen(2)`) and the reconnect
//! loop after a link dies mid-run — need the same policy: retry
//! quickly at first, back off geometrically so a dead server is not
//! hammered, and jitter the delays so a fleet of parties whose links
//! died together does not reconnect as a thundering herd. Everything
//! here is a pure function of `(base, cap, seed, attempt)`, so a retry
//! schedule can be asserted against a scripted clock without touching
//! a socket or a real timer.
//!
//! [`Backoff`] produces the delays; [`retry`] drives an operation over
//! them against any [`RetryClock`] (the real [`SystemClock`] in the
//! binaries, a scripted one in tests).

use flips_core::ml::rng::splitmix64;
use std::time::Duration;

/// Capped exponential backoff with deterministic jitter: attempt `n`
/// sleeps a seeded draw from `[d/2, d]` where
/// `d = min(cap, base · 2^n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A schedule starting at `base` and capping at `cap`, with jitter
    /// drawn from `seed`. A zero `base` degenerates to zero delays
    /// (spin), which is what scripted in-process tests want.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff { base, cap: cap.max(base), seed, attempt: 0 }
    }

    /// The delay for `attempt` (0-based) — a pure function, the whole
    /// point: replaying a seed replays the exact reconnect pacing.
    pub fn delay_for(base: Duration, cap: Duration, seed: u64, attempt: u32) -> Duration {
        let base_ns = base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap_ns = cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        let exp = base_ns.saturating_shl(attempt.min(63));
        let full = exp.min(cap_ns.max(base_ns));
        if full == 0 {
            return Duration::ZERO;
        }
        // Jitter in [full/2, full]: never less than half the nominal
        // delay (so backoff still backs off), never more (so the cap
        // holds).
        let half = full / 2;
        let jitter = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            % (full - half + 1);
        Duration::from_nanos(half + jitter)
    }

    /// Returns the next delay and advances the attempt counter.
    pub fn next_delay(&mut self) -> Duration {
        let d = Self::delay_for(self.base, self.cap, self.seed, self.attempt);
        self.attempt = self.attempt.saturating_add(1);
        d
    }
}

/// `u64::checked_shl` that saturates instead of wrapping — 2^attempt
/// growth must clamp, not overflow.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if rhs >= self.leading_zeros() {
            u64::MAX
        } else {
            self << rhs
        }
    }
}

/// The clock a [`retry`] loop runs against: elapsed time since the
/// loop began, and a way to wait. Production uses [`SystemClock`];
/// tests script both.
pub trait RetryClock {
    /// Time elapsed since the retry loop started.
    fn elapsed(&self) -> Duration;
    /// Waits for `delay` (or pretends to).
    fn sleep(&mut self, delay: Duration);
}

/// The real clock: `Instant` + `thread::sleep`.
#[derive(Debug)]
pub struct SystemClock(std::time::Instant);

impl SystemClock {
    /// Starts the clock now.
    pub fn start() -> Self {
        SystemClock(std::time::Instant::now())
    }
}

impl RetryClock for SystemClock {
    fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
    fn sleep(&mut self, delay: Duration) {
        std::thread::sleep(delay);
    }
}

/// Drives `op` under `backoff` until it succeeds or `budget` elapses
/// on `clock`, sleeping the schedule's delay between attempts (clipped
/// so the loop never sleeps past its own deadline).
///
/// # Errors
///
/// The last error from `op` once the budget is spent.
pub fn retry<T, E>(
    budget: Duration,
    backoff: &mut Backoff,
    clock: &mut impl RetryClock,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                let elapsed = clock.elapsed();
                if elapsed >= budget {
                    return Err(e);
                }
                let delay = backoff.next_delay().min(budget - elapsed);
                clock.sleep(delay);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// A scripted clock: `sleep` advances `elapsed` instantly and logs
    /// every delay, so a whole retry schedule asserts in microseconds.
    struct ScriptedClock {
        now: Duration,
        slept: Vec<Duration>,
    }

    impl ScriptedClock {
        fn new() -> Self {
            ScriptedClock { now: Duration::ZERO, slept: Vec::new() }
        }
    }

    impl RetryClock for ScriptedClock {
        fn elapsed(&self) -> Duration {
            self.now
        }
        fn sleep(&mut self, delay: Duration) {
            self.now += delay;
            self.slept.push(delay);
        }
    }

    #[test]
    fn delays_are_pure_and_seed_dependent() {
        for attempt in 0..20 {
            assert_eq!(
                Backoff::delay_for(10 * MS, 500 * MS, 7, attempt),
                Backoff::delay_for(10 * MS, 500 * MS, 7, attempt),
            );
        }
        let a: Vec<_> = (0..8).map(|n| Backoff::delay_for(10 * MS, 500 * MS, 1, n)).collect();
        let b: Vec<_> = (0..8).map(|n| Backoff::delay_for(10 * MS, 500 * MS, 2, n)).collect();
        assert_ne!(a, b, "different seeds must jitter differently");
    }

    #[test]
    fn delays_grow_geometrically_within_jitter_bounds() {
        let base = 10 * MS;
        let cap = 500 * MS;
        for attempt in 0..32 {
            let nominal = (base * 2u32.saturating_pow(attempt.min(16))).min(cap).max(base);
            let d = Backoff::delay_for(base, cap, 42, attempt);
            assert!(d >= nominal / 2, "attempt {attempt}: {d:?} below half of {nominal:?}");
            assert!(d <= nominal, "attempt {attempt}: {d:?} above nominal {nominal:?}");
        }
    }

    #[test]
    fn the_cap_holds_forever() {
        let cap = 200 * MS;
        for attempt in [0, 5, 31, 63, 64, 1000, u32::MAX] {
            assert!(Backoff::delay_for(10 * MS, cap, 9, attempt) <= cap);
        }
    }

    #[test]
    fn zero_base_never_sleeps() {
        for attempt in 0..8 {
            assert_eq!(
                Backoff::delay_for(Duration::ZERO, Duration::ZERO, 3, attempt),
                Duration::ZERO
            );
        }
    }

    #[test]
    fn retry_succeeds_after_scripted_failures() {
        let mut backoff = Backoff::new(10 * MS, 500 * MS, 7);
        let mut clock = ScriptedClock::new();
        let mut calls = 0;
        let result: Result<u32, &str> =
            retry(Duration::from_secs(60), &mut backoff, &mut clock, || {
                calls += 1;
                if calls < 4 {
                    Err("refused")
                } else {
                    Ok(99)
                }
            });
        assert_eq!(result, Ok(99));
        assert_eq!(calls, 4);
        assert_eq!(clock.slept.len(), 3, "one sleep per failure");
        // The scripted sleeps are exactly the schedule's first three
        // draws — the loop is a pure function of (seed, failures).
        for (n, d) in clock.slept.iter().enumerate() {
            assert_eq!(*d, Backoff::delay_for(10 * MS, 500 * MS, 7, n as u32));
        }
    }

    #[test]
    fn retry_returns_the_last_error_when_the_budget_is_spent() {
        let mut backoff = Backoff::new(10 * MS, 100 * MS, 7);
        let mut clock = ScriptedClock::new();
        let mut calls = 0u32;
        let result: Result<(), u32> = retry(300 * MS, &mut backoff, &mut clock, || {
            calls += 1;
            Err(calls)
        });
        assert_eq!(result, Err(calls), "the final attempt's error surfaces");
        assert!(clock.now <= 300 * MS + 100 * MS, "never sleeps far past the budget");
        assert!(calls > 1, "budget allows several attempts");
    }

    #[test]
    fn sleeps_are_clipped_to_the_remaining_budget() {
        let mut backoff = Backoff::new(100 * MS, 400 * MS, 1);
        let mut clock = ScriptedClock::new();
        let budget = 150 * MS;
        let _: Result<(), &str> = retry(budget, &mut backoff, &mut clock, || Err("down"));
        assert_eq!(clock.now, budget, "clipped sleeps land exactly on the deadline");
    }
}
