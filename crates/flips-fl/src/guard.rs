//! The deterministic guard plane: policy-driven inbound-frame
//! middleware in front of the protocol state machines.
//!
//! Every hostile input the drivers see — floods, forged senders,
//! corrupt payloads — used to be merely *counted*
//! ([`crate::DriverStats`]); nothing ever throttled, ejected or
//! drained, so one misbehaving party degraded every round for
//! everyone. This module supplies the middleware-layer answer the
//! policy-free-middleware literature frames as the layer's core job:
//! enforcement as composable, configurable **stages in front of the
//! application state machine**, not ad-hoc checks inside it.
//!
//! Like everything else in this workspace the stack is **sans-IO and
//! deterministic**: the [`GuardPlane`] owns no sockets and reads no
//! wall clock. Drivers feed it observations (a frame's length, a
//! decoded sender, a coordinator rejection) and ask for verdicts; time
//! enters only through the driver's own simulated round cadence — every
//! bucket refill and breaker transition happens at a round open, which
//! the timer wheel fires deterministically. Two identical runs
//! therefore produce identical guard decisions, which is what makes
//! every guard behavior provable by replay (see `tests/guard_plane.rs`).
//!
//! # Stage order
//!
//! Inbound frames traverse the stages in a fixed order; the first
//! refusing stage wins and the frame is counted and dropped — no stage
//! ever touches round state:
//!
//! 1. **frame-size guard** ([`GuardConfig::max_frame_bytes`]) — after
//!    the transport has reassembled the frame and before decode, so an
//!    oversized frame costs its buffer (at most the stream's 256 MiB
//!    ceiling, [`MAX_FRAME_BYTES`]) but never a decoded value;
//! 2. **decode** (the existing corrupt/codec-mismatch/unknown-job
//!    handling, unchanged — undecodable frames may still *strike* their
//!    claimed sender, see below);
//! 3. **circuit breaker** — a [`BreakerState::Open`] sender's model
//!    updates are dropped (control traffic still passes, see
//!    [Breakers](#circuit-breakers));
//! 4. **rate limit** — a per-`(job, party)` token bucket refilled at
//!    each round open;
//! 5. **admission control** — a per-job budget of frames admitted into
//!    the open round; a full round refuses the rest.
//!
//! # Circuit breakers
//!
//! Each `(job, party)` pair carries a three-state breaker:
//!
//! ```text
//!            strikes ≥ threshold at round open
//!   Closed ───────────────────────────────────▶ Open
//!     ▲                                          │ cooldown_rounds
//!     │ probe round with zero strikes            ▼ round opens later
//!     └────────────────────────────────────── HalfOpen
//!                 (any strike re-opens)
//! ```
//!
//! *Strikes* accumulate during a round from the hostile signals the
//! drivers already classify: rate-limit violations, coordinator
//! rejections (except benign at-least-once duplicates), and corrupt or
//! codec-mismatched frames attributed by header peek. (A deadline-late
//! update is only counted: a slow party is heterogeneity, not
//! hostility.) All transitions happen **at round open**, a
//! deterministic point on the driver thread, so mid-round arrival order
//! can never decide a state change.
//!
//! While a breaker is [`BreakerState::Open`] the party is **ejected**:
//! the driver withholds its global-model delivery exactly as it does
//! for an injected straggler victim, so the party closes out of each
//! round as a straggler without the job paying wire bytes or training
//! for it — and its inbound `LocalUpdate`s are dropped at the guard.
//! Control traffic (heartbeats, aborts) still passes, which keeps an
//! ejected round **bit-identical** to the same round under an injected
//! victim set (`tests/guard_plane.rs` pins this equivalence with a
//! scripted clock). After [`BreakerConfig::cooldown_rounds`] round
//! opens the breaker half-opens: one probe round with full delivery;
//! a clean probe closes the breaker, any strike re-opens it.
//!
//! Identity on this wire is *claimed*, not proven — a flood forging
//! party `p`'s id trips `p`'s breaker (authenticated framing is the
//! `flips-tee` roadmap item). Guards therefore default to thresholds
//! generous enough that protocol-conformant traffic, duplicates from
//! at-least-once delivery included, never strikes anyone into ejection.
//!
//! # Graceful drain
//!
//! Drain is driver-level ([`crate::MultiJobDriver::begin_drain`]): open
//! rounds run to their deadline, every subsequent round open is refused
//! (counted in [`crate::DriverStats::drain_refused_selections`]), and
//! the driver reports a final quiescent snapshot
//! ([`crate::MultiJobDriver::drain_report`]) once no round is open.

use crate::transport::MAX_FRAME_BYTES;
use crate::FlError;
use flips_selection::PartyId;
use std::collections::BTreeMap;

/// Per-party token-bucket rate limiting, refilled at each round open of
/// the job the bucket belongs to — the only deterministic clock the
/// drivers have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity (and the initial fill): the largest burst of
    /// frames one party may land between two round opens.
    pub burst: u32,
    /// Tokens granted to every tracked bucket of a job at each of the
    /// job's round opens (capped at `burst`).
    pub per_round: u32,
}

impl Default for RateLimit {
    /// Generous defaults: protocol-conformant traffic (one heartbeat
    /// plus one update per selected round, plus a handful of
    /// at-least-once redeliveries) never comes near them.
    fn default() -> Self {
        RateLimit { burst: 64, per_round: 16 }
    }
}

/// Circuit-breaker policy for one guard plane (applied per
/// `(job, party)` pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Strikes within one round window that trip the breaker at the
    /// next round open.
    pub strike_threshold: u32,
    /// Round opens an [`BreakerState::Open`] party sits ejected before
    /// the breaker half-opens for a probe round (≥ 1).
    pub cooldown_rounds: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { strike_threshold: 32, cooldown_rounds: 2 }
    }
}

/// The state of one `(job, party)` circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: all traffic passes, strikes accumulate.
    #[default]
    Closed,
    /// Tripped: the party is ejected from rounds (model delivery
    /// withheld) and its updates are dropped at the guard.
    Open,
    /// Probing: one round of full delivery; a clean round closes the
    /// breaker, any strike re-opens it.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Configuration of one [`GuardPlane`]. The default enables every
/// stage at thresholds protocol-conformant traffic never reaches, so
/// a guarded happy-path run is bit-identical to an unguarded one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Frames longer than this are dropped after reassembly, before
    /// decode. Clamped to the hard transport ceiling [`MAX_FRAME_BYTES`],
    /// the only cap a [`crate::StreamTransport`] itself enforces (see
    /// [`crate::StreamTransport::new`] for why it skips no frame).
    pub max_frame_bytes: usize,
    /// Per-party token-bucket rate limiting (`None` disables).
    pub rate_limit: Option<RateLimit>,
    /// Per-party circuit breakers (`None` disables).
    pub breaker: Option<BreakerConfig>,
    /// Admission control: at most `factor × |cohort|` frames are
    /// admitted into each open round of a job; the rest are refused
    /// (`None` disables).
    pub admission_factor: Option<u32>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            max_frame_bytes: MAX_FRAME_BYTES,
            rate_limit: Some(RateLimit::default()),
            breaker: Some(BreakerConfig::default()),
            admission_factor: Some(16),
        }
    }
}

impl GuardConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] for a zero frame cap, a zero-capacity
    /// bucket, a zero strike threshold, a zero cooldown, or a zero
    /// admission factor.
    pub fn validate(&self) -> Result<(), FlError> {
        if self.max_frame_bytes == 0 {
            return Err(FlError::InvalidConfig("guard frame cap must be positive".into()));
        }
        if let Some(rl) = self.rate_limit {
            if rl.burst == 0 {
                return Err(FlError::InvalidConfig("rate-limit burst must be positive".into()));
            }
        }
        if let Some(b) = self.breaker {
            if b.strike_threshold == 0 {
                return Err(FlError::InvalidConfig("breaker strike threshold must be ≥ 1".into()));
            }
            if b.cooldown_rounds == 0 {
                return Err(FlError::InvalidConfig("breaker cooldown must be ≥ 1 round".into()));
            }
        }
        if self.admission_factor == Some(0) {
            return Err(FlError::InvalidConfig("admission factor must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// What an inbound frame is, as far as the guard cares: model payloads
/// are suppressed by an open breaker, control traffic passes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A [`crate::WireMessage::LocalUpdate`] — the payload an open
    /// breaker drops.
    Update,
    /// Control traffic (heartbeat, abort) — passes an open breaker so
    /// an ejected round stays bit-identical to a victim-injected one.
    Control,
}

/// The guard plane's decision for one admitted-or-refused frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameVerdict {
    /// The frame proceeds to the coordinator.
    Admit,
    /// Dropped: the sender's breaker is open.
    BreakerOpen,
    /// Dropped: the sender's token bucket is empty (this also strikes
    /// the sender).
    RateLimited,
    /// Dropped: the job's open round already admitted its budget.
    RoundFull,
}

/// One recorded breaker transition — `(job, party)` moved to `to` at
/// the job's `open_index`-th round open. The log is a pure function of
/// the strike schedule, which the replay suite asserts by running the
/// same chaos schedule twice and comparing logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// The job whose breaker moved.
    pub job: u64,
    /// The claimed sender the breaker guards.
    pub party: u64,
    /// How many rounds the job had opened when the transition fired
    /// (0-based: the transition evaluated at the k-th open).
    pub open_index: u64,
    /// The state entered.
    pub to: BreakerState,
}

/// Per-`(job, party)` guard state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartyGuard {
    /// The breaker state.
    pub state: BreakerState,
    /// Strikes since the job's last round open.
    pub strikes: u32,
    /// Rounds left before an open breaker half-opens.
    pub opens_left: u64,
    /// Token bucket; `None` until first sight (filled to burst).
    pub tokens: Option<u32>,
}

/// Per-job guard state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobGuard {
    /// Frames admitted into the open round so far.
    pub admitted: u32,
    /// The open round's admission budget (`None` = unlimited).
    pub budget: Option<u32>,
    /// Round opens seen (drives breaker cooldowns and the transition
    /// log's `open_index`).
    pub opens: u64,
}

/// The full mutable state of a [`GuardPlane`] — what a checkpoint
/// carries so a restored run's guard verdicts replay bit-identically
/// (open breakers, partial admission budgets and half-spent token
/// buckets included). The configuration is not part of it: a restore
/// re-validates that through [`GuardPlane::new`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuardState {
    /// Per-`(job, party)` breaker and bucket state.
    pub parties: BTreeMap<(u64, u64), PartyGuard>,
    /// Per-job admission and open state.
    pub jobs: BTreeMap<u64, JobGuard>,
    /// The transition log so far, in firing order.
    pub transitions: Vec<BreakerTransition>,
}

/// The outcome of evaluating a job's guards at a round open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenOutcome {
    /// Cohort members whose breaker is open — the driver withholds
    /// their model delivery (they close as stragglers).
    pub ejected: Vec<PartyId>,
    /// Breakers newly tripped to [`BreakerState::Open`] at this open
    /// (feeds [`crate::DriverStats::parties_ejected`]).
    pub tripped: u32,
}

/// The sans-IO guard state machine: per-party breakers and buckets,
/// per-job admission budgets, and the breaker transition log.
///
/// Drivers own one guard plane per wire
/// ([`crate::MultiJobDriver::set_guard`]) and call into it from their
/// pump and round-open paths; the plane itself never performs I/O and
/// never touches round state.
#[derive(Debug)]
pub struct GuardPlane {
    config: GuardConfig,
    state: GuardState,
}

impl GuardPlane {
    /// A guard plane enforcing `config`.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] if the configuration is invalid (see
    /// [`GuardConfig::validate`]).
    pub fn new(mut config: GuardConfig) -> Result<Self, FlError> {
        config.validate()?;
        config.max_frame_bytes = config.max_frame_bytes.min(MAX_FRAME_BYTES);
        Ok(GuardPlane { config, state: GuardState::default() })
    }

    /// The enforced configuration (frame cap already clamped to the
    /// transport ceiling).
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Whether a frame of `len` bytes passes the size guard.
    pub fn frame_len_ok(&self, len: usize) -> bool {
        len <= self.config.max_frame_bytes
    }

    /// Runs the post-decode stages — breaker, rate limit, admission —
    /// for a frame claiming to come from `(job, party)`. The first
    /// refusing stage wins; a rate-limit refusal also strikes the
    /// sender.
    pub fn admit(&mut self, job: u64, party: u64, kind: FrameKind) -> FrameVerdict {
        let breaker = self.config.breaker;
        let rate = self.config.rate_limit;
        let guard = self.state.parties.entry((job, party)).or_default();
        if breaker.is_some() && guard.state == BreakerState::Open && kind == FrameKind::Update {
            return FrameVerdict::BreakerOpen;
        }
        if let Some(rl) = rate {
            let tokens = guard.tokens.get_or_insert(rl.burst);
            if *tokens == 0 {
                guard.strikes = guard.strikes.saturating_add(1);
                return FrameVerdict::RateLimited;
            }
            *tokens -= 1;
        }
        let job_guard = self.state.jobs.entry(job).or_default();
        if let Some(budget) = job_guard.budget {
            if job_guard.admitted >= budget {
                return FrameVerdict::RoundFull;
            }
        }
        job_guard.admitted = job_guard.admitted.saturating_add(1);
        FrameVerdict::Admit
    }

    /// Records one hostile signal against `(job, party)` — a
    /// coordinator rejection, an attributed corrupt frame, a late
    /// update. Strikes accumulate until the job's next round open,
    /// where the breaker evaluates them (no mid-round transitions).
    pub fn strike(&mut self, job: u64, party: u64) {
        if self.config.breaker.is_none() {
            return;
        }
        let guard = self.state.parties.entry((job, party)).or_default();
        guard.strikes = guard.strikes.saturating_add(1);
    }

    /// Evaluates a job's guards at a round open: breaker transitions
    /// fire (the only place they may), every tracked bucket of the job
    /// refills, the admission budget resets, and the cohort members
    /// currently ejected are returned.
    pub fn on_round_open(&mut self, job: u64, cohort: &[PartyId]) -> OpenOutcome {
        let open_index = {
            let job_guard = self.state.jobs.entry(job).or_default();
            job_guard.admitted = 0;
            job_guard.budget =
                self.config.admission_factor.map(|f| f.saturating_mul(cohort.len().max(1) as u32));
            let idx = job_guard.opens;
            job_guard.opens += 1;
            idx
        };
        let mut tripped = 0u32;
        if let Some(cfg) = self.config.breaker {
            for ((j, party), guard) in self.state.parties.range_mut((job, 0)..=(job, u64::MAX)) {
                debug_assert_eq!(*j, job);
                let strikes = std::mem::take(&mut guard.strikes);
                let next = match guard.state {
                    BreakerState::Closed if strikes >= cfg.strike_threshold => {
                        Some(BreakerState::Open)
                    }
                    BreakerState::Closed => None,
                    BreakerState::Open if strikes >= cfg.strike_threshold => {
                        // Still under attack: re-arm the cooldown.
                        guard.opens_left = cfg.cooldown_rounds;
                        None
                    }
                    BreakerState::Open if guard.opens_left > 1 => {
                        guard.opens_left -= 1;
                        None
                    }
                    BreakerState::Open => Some(BreakerState::HalfOpen),
                    BreakerState::HalfOpen if strikes > 0 => Some(BreakerState::Open),
                    BreakerState::HalfOpen => Some(BreakerState::Closed),
                };
                if let Some(to) = next {
                    if to == BreakerState::Open {
                        guard.opens_left = cfg.cooldown_rounds;
                        tripped += 1;
                    }
                    guard.state = to;
                    self.state.transitions.push(BreakerTransition {
                        job,
                        party: *party,
                        open_index,
                        to,
                    });
                }
            }
        }
        if let Some(rl) = self.config.rate_limit {
            for (_, guard) in self.state.parties.range_mut((job, 0)..=(job, u64::MAX)) {
                let tokens = guard.tokens.get_or_insert(rl.burst);
                *tokens = tokens.saturating_add(rl.per_round).min(rl.burst);
            }
        }
        let ejected = cohort
            .iter()
            .copied()
            .filter(|&p| {
                self.state
                    .parties
                    .get(&(job, p as u64))
                    .is_some_and(|g| g.state == BreakerState::Open)
            })
            .collect();
        OpenOutcome { ejected, tripped }
    }

    /// The breaker state of `(job, party)` (untracked pairs are
    /// [`BreakerState::Closed`]).
    pub fn breaker_state(&self, job: u64, party: u64) -> BreakerState {
        self.state.parties.get(&(job, party)).map_or(BreakerState::Closed, |g| g.state)
    }

    /// Every breaker transition so far, in firing order — a pure
    /// function of the strike schedule.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.state.transitions
    }

    /// Retires a party's guard state: its breaker, strike count and
    /// token bucket leave with it. A churned party that later rejoins
    /// starts from a clean slate, exactly like a party seen for the
    /// first time.
    pub fn retire(&mut self, job: u64, party: u64) {
        self.state.parties.remove(&(job, party));
    }

    /// The full mutable guard state, as a checkpoint stores it.
    pub fn state(&self) -> &GuardState {
        &self.state
    }

    /// Replaces the mutable guard state with one previously read through
    /// [`GuardPlane::state`] on a plane with the same configuration.
    pub fn restore(&mut self, state: GuardState) {
        self.state = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(breaker: BreakerConfig) -> GuardPlane {
        GuardPlane::new(GuardConfig {
            breaker: Some(breaker),
            rate_limit: Some(RateLimit { burst: 4, per_round: 2 }),
            admission_factor: Some(2),
            ..GuardConfig::default()
        })
        .unwrap()
    }

    fn strict() -> BreakerConfig {
        BreakerConfig { strike_threshold: 2, cooldown_rounds: 2 }
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        assert!(GuardConfig::default().validate().is_ok());
        let bad = GuardConfig { max_frame_bytes: 0, ..GuardConfig::default() };
        assert!(bad.validate().is_err());
        let bad = GuardConfig {
            rate_limit: Some(RateLimit { burst: 0, per_round: 1 }),
            ..GuardConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = GuardConfig {
            breaker: Some(BreakerConfig { strike_threshold: 0, ..BreakerConfig::default() }),
            ..GuardConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = GuardConfig {
            breaker: Some(BreakerConfig { cooldown_rounds: 0, ..BreakerConfig::default() }),
            ..GuardConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = GuardConfig { admission_factor: Some(0), ..GuardConfig::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn frame_cap_is_clamped_to_the_transport_ceiling() {
        let g =
            GuardPlane::new(GuardConfig { max_frame_bytes: usize::MAX, ..GuardConfig::default() })
                .unwrap();
        assert_eq!(g.config().max_frame_bytes, MAX_FRAME_BYTES);
        assert!(g.frame_len_ok(MAX_FRAME_BYTES));
        assert!(!g.frame_len_ok(MAX_FRAME_BYTES + 1));
    }

    /// A plane with admission disabled, so bucket tests see only the
    /// rate-limit stage.
    fn bucket_plane() -> GuardPlane {
        GuardPlane::new(GuardConfig {
            breaker: Some(strict()),
            rate_limit: Some(RateLimit { burst: 4, per_round: 2 }),
            admission_factor: None,
            ..GuardConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn token_bucket_exhausts_and_refills_at_round_open() {
        let mut g = bucket_plane();
        g.on_round_open(7, &[1]);
        for _ in 0..4 {
            assert_eq!(g.admit(7, 1, FrameKind::Control), FrameVerdict::Admit);
        }
        assert_eq!(g.admit(7, 1, FrameKind::Control), FrameVerdict::RateLimited);
        // Refill grants per_round = 2, capped at burst.
        g.on_round_open(7, &[1]);
        assert_eq!(g.admit(7, 1, FrameKind::Control), FrameVerdict::Admit);
        assert_eq!(g.admit(7, 1, FrameKind::Control), FrameVerdict::Admit);
        assert_eq!(g.admit(7, 1, FrameKind::Control), FrameVerdict::RateLimited);
    }

    #[test]
    fn rate_limits_are_per_party_isolated() {
        let mut g = bucket_plane();
        g.on_round_open(7, &[1, 2]);
        for _ in 0..8 {
            let _ = g.admit(7, 1, FrameKind::Control);
        }
        assert_eq!(g.admit(7, 1, FrameKind::Control), FrameVerdict::RateLimited);
        assert_eq!(g.admit(7, 2, FrameKind::Control), FrameVerdict::Admit, "party 2 untouched");
    }

    #[test]
    fn admission_budget_refuses_a_full_round() {
        // factor 2 × cohort 1 = 2 admitted frames per round.
        let mut g = plane(strict());
        g.on_round_open(7, &[1]);
        assert_eq!(g.admit(7, 1, FrameKind::Control), FrameVerdict::Admit);
        assert_eq!(g.admit(7, 2, FrameKind::Control), FrameVerdict::Admit);
        assert_eq!(g.admit(7, 3, FrameKind::Control), FrameVerdict::RoundFull);
        g.on_round_open(7, &[1]);
        assert_eq!(g.admit(7, 3, FrameKind::Control), FrameVerdict::Admit, "budget reset");
    }

    #[test]
    fn breaker_trips_only_at_round_open_and_ejects() {
        let mut g = plane(strict());
        g.on_round_open(7, &[1, 2]);
        g.strike(7, 1);
        g.strike(7, 1);
        // Mid-round: still closed (transitions only fire at opens).
        assert_eq!(g.breaker_state(7, 1), BreakerState::Closed);
        assert_eq!(g.admit(7, 1, FrameKind::Update), FrameVerdict::Admit);
        let out = g.on_round_open(7, &[1, 2]);
        assert_eq!(g.breaker_state(7, 1), BreakerState::Open);
        assert_eq!(out.ejected, vec![1]);
        assert_eq!(out.tripped, 1);
        // Open: updates drop, control passes.
        assert_eq!(g.admit(7, 1, FrameKind::Update), FrameVerdict::BreakerOpen);
        assert_eq!(g.admit(7, 1, FrameKind::Control), FrameVerdict::Admit);
        assert_eq!(g.admit(7, 2, FrameKind::Update), FrameVerdict::Admit, "party 2 unaffected");
    }

    #[test]
    fn breaker_cools_down_half_opens_and_closes_on_a_clean_probe() {
        let mut g = plane(strict());
        g.on_round_open(7, &[1]);
        g.strike(7, 1);
        g.strike(7, 1);
        assert_eq!(g.on_round_open(7, &[1]).ejected, vec![1], "open 1: tripped");
        assert_eq!(g.on_round_open(7, &[1]).ejected, vec![1], "open 2: cooling");
        let probe = g.on_round_open(7, &[1]);
        assert!(probe.ejected.is_empty(), "open 3: half-open probe participates");
        assert_eq!(g.breaker_state(7, 1), BreakerState::HalfOpen);
        let closed = g.on_round_open(7, &[1]);
        assert!(closed.ejected.is_empty());
        assert_eq!(g.breaker_state(7, 1), BreakerState::Closed, "clean probe closes");
    }

    #[test]
    fn dirty_probe_reopens_the_breaker() {
        let mut g = plane(strict());
        g.on_round_open(7, &[1]);
        g.strike(7, 1);
        g.strike(7, 1);
        g.on_round_open(7, &[1]); // open
        g.on_round_open(7, &[1]); // cooling
        g.on_round_open(7, &[1]); // half-open probe
        g.strike(7, 1);
        let out = g.on_round_open(7, &[1]);
        assert_eq!(g.breaker_state(7, 1), BreakerState::Open, "dirty probe re-opens");
        assert_eq!(out.tripped, 1, "a re-trip counts as a new ejection");
        assert_eq!(out.ejected, vec![1]);
    }

    #[test]
    fn sustained_strikes_keep_the_breaker_open() {
        let mut g = plane(strict());
        g.on_round_open(7, &[1]);
        for _ in 0..6 {
            g.strike(7, 1);
            g.strike(7, 1);
            let out = g.on_round_open(7, &[1]);
            assert_eq!(g.breaker_state(7, 1), BreakerState::Open);
            assert_eq!(out.ejected, vec![1], "under sustained attack the party stays ejected");
        }
    }

    #[test]
    fn transition_log_is_a_pure_function_of_the_strike_schedule() {
        let run = || {
            let mut g = plane(strict());
            g.on_round_open(7, &[1, 2]);
            g.strike(7, 1);
            g.strike(7, 1);
            g.on_round_open(7, &[1, 2]);
            g.on_round_open(7, &[1, 2]);
            g.on_round_open(7, &[1, 2]);
            g.on_round_open(7, &[1, 2]);
            g.transitions().to_vec()
        };
        let a = run();
        assert_eq!(a, run(), "same schedule, same transitions");
        assert_eq!(
            a.iter().map(|t| t.to).collect::<Vec<_>>(),
            vec![BreakerState::Open, BreakerState::HalfOpen, BreakerState::Closed]
        );
        assert!(a.iter().all(|t| t.job == 7 && t.party == 1));
    }

    #[test]
    fn disabled_stages_admit_everything() {
        let mut g = GuardPlane::new(GuardConfig {
            rate_limit: None,
            breaker: None,
            admission_factor: None,
            ..GuardConfig::default()
        })
        .unwrap();
        g.on_round_open(7, &[1]);
        for _ in 0..1000 {
            assert_eq!(g.admit(7, 1, FrameKind::Update), FrameVerdict::Admit);
        }
        g.strike(7, 1);
        assert!(g.on_round_open(7, &[1]).ejected.is_empty());
        assert!(g.transitions().is_empty());
    }
}
