//! Seeded, replayable fault injection for the serialized wire.
//!
//! The fault suites (`tests/transport_faults.rs`,
//! `tests/sharded_runtime.rs`) used to hand-craft their hostile frames
//! ad hoc — a truncated slice here, a flipped magic there. This module
//! generalizes that into a **deterministic chaos schedule**: a pure
//! function from `(seed, link, inbound-frame index)` to a
//! [`ChaosAction`], applied by a [`ChaosTransport`] wrapper around any
//! [`Transport`]. Because the schedule is a pure function, every run
//! under it is replayable — which is what lets the guard suite assert
//! that breaker behavior under chaos is itself a pure function of the
//! schedule (run twice, compare transition logs), and that the seeded
//! histories of untargeted jobs stay bit-identical under any schedule.
//!
//! # Actions
//!
//! Each inbound frame draws one action (overridable per index for
//! scripted scenarios):
//!
//! - [`ChaosAction::Deliver`] — pass through (the dominant draw);
//! - [`ChaosAction::Duplicate`] — deliver, and queue an identical copy
//!   (at-least-once redelivery);
//! - [`ChaosAction::CorruptCopy`] — deliver, and queue a copy with its
//!   message magic flipped (bit rot that cannot decode — the codec has
//!   no payload checksum, so a *decodable* corruption would be
//!   indistinguishable from a legitimate message);
//! - [`ChaosAction::Delay`] — queue the frame instead of delivering it
//!   now (applied to local-update frames only, the one kind whose
//!   in-round order is provably irrelevant — control frames downgrade
//!   to a delivery, because breaking their per-link FIFO can push a
//!   heartbeat past its round's eager close and change the round's
//!   observed byte accounting);
//! - [`ChaosAction::Flood`] — deliver, and queue `n` forged heartbeats
//!   claiming the schedule's flood target (round `u64::MAX`, so a
//!   coordinator can only ever reject them — a flood probes the guard
//!   plane, not the round state machine);
//! - [`ChaosAction::Drop`] — discard (weight 0 by default: dropping
//!   protocol frames genuinely loses state, which is a different test
//!   than "hostile traffic must not move anything");
//! - [`ChaosAction::Disconnect`] — sever the link: the drawn frame and
//!   everything after it on that link are held, in order, until the
//!   wire runs dry, when the link "reconnects" and the held traffic
//!   flows again. Whole-link FIFO is preserved, so this is the one
//!   destructive-looking fault seeded histories provably survive — it
//!   models exactly what the socket runtime's reconnect/resume path
//!   guarantees (weight 0 by default; recovery suites turn it on).
//!
//! Queued frames sit in a backlog released only when the inner
//! transport runs dry, so chaos reorders traffic **within** a pump
//! window but never across a clock advance — drivers pump until quiet
//! before advancing time, and the wrapper keeps that invariant intact.
//!
//! # Determinism scope
//!
//! Over a lockstep wire — one link, or N under [`crate::run_lockstep`],
//! one thread moving every frame — the whole run is deterministic: the same
//! seed applies the same action to the same frame, so the applied-chaos
//! log, the breaker transitions and every counter replay
//! (`tests/guard_plane.rs` runs each schedule twice on 1, 2 and 3 links
//! and compares everything). Over `flips_net`'s socket runtime the
//! *schedule* is still a pure function of `(link, index)`, but where a
//! pump window ends — when the backlog is released and severed links
//! come back — depends on thread and kernel timing, so chaos tests
//! there assert histories and order-independent counters only.

use crate::message::{frame, AGGREGATOR_DEST};
use crate::transport::Transport;
use crate::{FlError, WireMessage};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};

/// What the schedule does to one inbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Pass the frame through untouched.
    Deliver,
    /// Discard the frame (destructive; default weight 0).
    Drop,
    /// Deliver the frame and queue an identical copy.
    Duplicate,
    /// Deliver the frame and queue a copy with its message magic
    /// flipped (fails decode, counted as corrupt by the receiver).
    CorruptCopy,
    /// Queue the frame; it arrives when the wire next runs dry. Only
    /// applied to local-update frames (order-independent at round
    /// close); control frames downgrade to [`ChaosAction::Deliver`].
    Delay,
    /// Deliver the frame and queue this many forged heartbeats claiming
    /// the schedule's flood target.
    Flood(u32),
    /// Sever the link: this frame and every later frame on the link are
    /// backlogged (in order) until the wire next runs dry, when the
    /// link "reconnects" and the held traffic is released. Whole-link
    /// FIFO is preserved, so seeded histories survive an outage — the
    /// fault models a TCP link death inside one pump window. Weight 0
    /// by default.
    Disconnect,
}

/// Relative draw weights for the seeded action stream. A frame's action
/// is drawn proportionally; all-zero weights deliver everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosWeights {
    /// Weight of [`ChaosAction::Deliver`].
    pub deliver: u32,
    /// Weight of [`ChaosAction::Drop`].
    pub drop: u32,
    /// Weight of [`ChaosAction::Duplicate`].
    pub duplicate: u32,
    /// Weight of [`ChaosAction::CorruptCopy`].
    pub corrupt: u32,
    /// Weight of [`ChaosAction::Delay`].
    pub delay: u32,
    /// Weight of [`ChaosAction::Flood`].
    pub flood: u32,
    /// Weight of [`ChaosAction::Disconnect`].
    pub disconnect: u32,
}

impl Default for ChaosWeights {
    /// Non-destructive defaults: deliveries dominate, drops are off.
    fn default() -> Self {
        ChaosWeights {
            deliver: 12,
            drop: 0,
            duplicate: 1,
            corrupt: 1,
            delay: 1,
            flood: 1,
            disconnect: 0,
        }
    }
}

impl ChaosWeights {
    fn total(&self) -> u64 {
        u64::from(self.deliver)
            + u64::from(self.drop)
            + u64::from(self.duplicate)
            + u64::from(self.corrupt)
            + u64::from(self.delay)
            + u64::from(self.flood)
            + u64::from(self.disconnect)
    }
}

/// A deterministic, replayable fault schedule: a pure function from
/// `(link, inbound-frame index)` to a [`ChaosAction`], plus explicit
/// per-index overrides for scripted scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSchedule {
    seed: u64,
    weights: ChaosWeights,
    /// Forged flood heartbeats claim this `(job, party)`. Defaults to a
    /// job nobody owns, so a flood can strike no real breaker unless a
    /// test aims it at one.
    flood_job: u64,
    /// See `flood_job`.
    flood_party: u64,
    /// Frames forged per drawn [`ChaosAction::Flood`].
    flood_frames: u32,
    /// Only frames of this job draw non-[`ChaosAction::Deliver`]
    /// actions (`None` = all frames do). Lets a test perturb one job
    /// while proving its wire-mates never move.
    target_job: Option<u64>,
    /// Scripted exceptions: `(link, index) → action`.
    overrides: BTreeMap<(usize, u64), ChaosAction>,
}

impl ChaosSchedule {
    /// A seeded schedule with the default (non-destructive) weights and
    /// a flood target no coordinator owns.
    pub fn seeded(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            weights: ChaosWeights::default(),
            flood_job: 0xDEAD_BEEF,
            flood_party: 0,
            flood_frames: 4,
            target_job: None,
            overrides: BTreeMap::new(),
        }
    }

    /// A schedule that delivers everything — chaos comes only from
    /// [`ChaosSchedule::at`] overrides. The scripted-scenario base.
    pub fn quiet() -> Self {
        let mut s = ChaosSchedule::seeded(0);
        s.weights = ChaosWeights {
            deliver: 1,
            drop: 0,
            duplicate: 0,
            corrupt: 0,
            delay: 0,
            flood: 0,
            disconnect: 0,
        };
        s
    }

    /// Replaces the draw weights.
    #[must_use]
    pub fn weights(mut self, weights: ChaosWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Restricts non-delivery actions to frames of one job.
    #[must_use]
    pub fn target_job(mut self, job: u64) -> Self {
        self.target_job = Some(job);
        self
    }

    /// Aims forged floods at a `(job, party)` pair and sets the forged
    /// frame count per flood action.
    #[must_use]
    pub fn flood_target(mut self, job: u64, party: u64, frames: u32) -> Self {
        self.flood_job = job;
        self.flood_party = party;
        self.flood_frames = frames;
        self
    }

    /// Scripts an explicit action for the `index`-th inbound frame on
    /// `link`, overriding the seeded draw.
    #[must_use]
    pub fn at(mut self, link: usize, index: u64, action: ChaosAction) -> Self {
        self.overrides.insert((link, index), action);
        self
    }

    /// The action for the `index`-th inbound frame on `link` — a pure
    /// function of the schedule, which is the whole point.
    pub fn action_for(&self, link: usize, index: u64) -> ChaosAction {
        if let Some(action) = self.overrides.get(&(link, index)) {
            return *action;
        }
        let total = self.weights.total();
        if total == 0 {
            return ChaosAction::Deliver;
        }
        let mut r = splitmix64(
            self.seed
                ^ (link as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        ) % total;
        let w = self.weights;
        for (weight, action) in [
            (w.deliver, ChaosAction::Deliver),
            (w.drop, ChaosAction::Drop),
            (w.duplicate, ChaosAction::Duplicate),
            (w.corrupt, ChaosAction::CorruptCopy),
            (w.delay, ChaosAction::Delay),
            (w.flood, ChaosAction::Flood(self.flood_frames)),
            (w.disconnect, ChaosAction::Disconnect),
        ] {
            if r < u64::from(weight) {
                return action;
            }
            r -= u64::from(weight);
        }
        ChaosAction::Deliver
    }

    /// The forged frame a flood action injects: a heartbeat claiming
    /// the flood target, with round `u64::MAX` so no open round can
    /// ever accept it — it exists to exercise guards, not rounds.
    fn flood_frame(&self) -> Bytes {
        frame(
            AGGREGATOR_DEST,
            &WireMessage::Heartbeat {
                job: self.flood_job,
                round: u64::MAX,
                party: self.flood_party,
            },
        )
    }
}

/// One applied (non-delivery) action, for post-run assertions: the
/// receiver's counters must account for exactly these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// The link the frame arrived on.
    pub link: usize,
    /// The frame's inbound index on that link.
    pub index: u64,
    /// The action applied.
    pub action: ChaosAction,
}

/// A [`Transport`] wrapper applying a [`ChaosSchedule`] to inbound
/// frames. Sends pass through untouched; wrap each side of a wire
/// separately to perturb both directions.
#[derive(Debug)]
pub struct ChaosTransport<T: Transport> {
    inner: T,
    schedule: Option<ChaosSchedule>,
    /// Inbound frames seen per link (the schedule's index domain).
    seen: Vec<u64>,
    /// Frames the schedule queued, released when the inner transport
    /// runs dry — chaos reorders within a pump window, never across a
    /// clock advance.
    backlog: VecDeque<(usize, Bytes)>,
    /// Links severed by [`ChaosAction::Disconnect`]: while down, every
    /// frame of the link is backlogged in arrival order. All links come
    /// back up when the inner transport runs dry.
    down: Vec<bool>,
    log: Vec<ChaosEvent>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` under `schedule`.
    pub fn new(inner: T, schedule: ChaosSchedule) -> Self {
        ChaosTransport { schedule: Some(schedule), ..Self::inert(inner) }
    }

    /// Wraps `inner` with no schedule: a pure passthrough. Lets callers
    /// build one driver type whether or not chaos is enabled.
    pub fn inert(inner: T) -> Self {
        let links = inner.links().max(1);
        ChaosTransport {
            inner,
            schedule: None,
            seen: vec![0; links],
            backlog: VecDeque::new(),
            down: vec![false; links],
            log: Vec::new(),
        }
    }

    /// Every non-delivery action applied so far, in application order.
    pub fn log(&self) -> &[ChaosEvent] {
        &self.log
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutable access to the wrapped transport — below the seam, where
    /// a socket event loop's link-control traffic goes.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Whether an action applies to this frame (the schedule may be
    /// scoped to one job).
    fn targeted(schedule: &ChaosSchedule, raw: &[u8]) -> bool {
        match schedule.target_job {
            None => true,
            Some(job) => crate::message::frame_job_of(raw) == Some(job),
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
        self.inner.send(frame)
    }

    fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
        Ok(self.try_recv_tagged()?.map(|(_, frame)| frame))
    }

    fn links(&self) -> usize {
        self.inner.links()
    }

    fn link_for(&self, job: u64, party: u64) -> usize {
        self.inner.link_for(job, party)
    }

    fn try_recv_tagged(&mut self) -> Result<Option<(usize, Bytes)>, FlError> {
        let ChaosTransport { inner, schedule, seen, backlog, down, log } = self;
        let Some(schedule) = schedule.as_ref() else {
            return inner.try_recv_tagged();
        };
        loop {
            let Some((link, raw)) = inner.try_recv_tagged()? else {
                // Inner dry: severed links reconnect, then the backlog
                // is released (delayed frames, injected copies, and a
                // dead link's held traffic arrive here, still inside
                // the pump window).
                down.fill(false);
                return Ok(backlog.pop_front());
            };
            let index = {
                if link >= seen.len() {
                    seen.resize(link + 1, 0);
                }
                let i = seen[link];
                seen[link] += 1;
                i
            };
            if link >= down.len() {
                down.resize(link + 1, false);
            }
            if down[link] {
                // The link is severed: hold the frame (its chaos index
                // is consumed above, so the schedule's draw stream for
                // later frames is unaffected by the outage).
                backlog.push_back((link, raw));
                continue;
            }
            let mut action = if Self::targeted(schedule, &raw) {
                schedule.action_for(link, index)
            } else {
                ChaosAction::Deliver
            };
            // Delay only reorders local updates: aggregation re-sorts
            // them by party id at round close, so a late update is
            // provably harmless. Delaying a *control* frame breaks the
            // per-link FIFO the protocol assumes — a heartbeat pushed
            // past its round's eager close (rounds close the instant
            // the last update lands) bounces as WrongRound and its
            // bytes vanish from the round's observed accounting.
            if action == ChaosAction::Delay && !crate::message::frame_is_update(&raw) {
                action = ChaosAction::Deliver;
            }
            if action != ChaosAction::Deliver {
                log.push(ChaosEvent { link, index, action });
            }
            match action {
                ChaosAction::Deliver => return Ok(Some((link, raw))),
                ChaosAction::Drop => continue,
                ChaosAction::Duplicate => {
                    backlog.push_back((link, raw.clone()));
                    return Ok(Some((link, raw)));
                }
                ChaosAction::CorruptCopy => {
                    let mut copy = raw.to_vec();
                    // Flip the message magic (first byte past the frame
                    // header): the copy cannot decode, but its claimed
                    // job/party still peek for guard attribution.
                    if let Some(byte) = copy.get_mut(crate::message::FRAME_HEADER) {
                        *byte ^= 0xFF;
                    }
                    backlog.push_back((link, Bytes::from(copy)));
                    return Ok(Some((link, raw)));
                }
                ChaosAction::Delay => {
                    backlog.push_back((link, raw));
                    continue;
                }
                ChaosAction::Flood(n) => {
                    let forged = schedule.flood_frame();
                    for _ in 0..n {
                        backlog.push_back((link, forged.clone()));
                    }
                    return Ok(Some((link, raw)));
                }
                ChaosAction::Disconnect => {
                    down[link] = true;
                    backlog.push_back((link, raw));
                    continue;
                }
            }
        }
    }
}

/// SplitMix64: the standard 64-bit finalizer — enough mixing that
/// consecutive frame indices draw independent-looking actions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{deframe, frame_job_of};
    use crate::transport::MemoryTransport;

    fn heartbeat(job: u64, party: u64) -> Bytes {
        frame(AGGREGATOR_DEST, &WireMessage::Heartbeat { job, round: 0, party })
    }

    #[test]
    fn schedule_is_a_pure_function() {
        let s = ChaosSchedule::seeded(42);
        for link in 0..4 {
            for index in 0..256 {
                assert_eq!(s.action_for(link, index), s.action_for(link, index));
            }
        }
        assert_eq!(s, ChaosSchedule::seeded(42));
    }

    #[test]
    fn distinct_seeds_draw_distinct_streams() {
        let a: Vec<_> = (0..64).map(|i| ChaosSchedule::seeded(1).action_for(0, i)).collect();
        let b: Vec<_> = (0..64).map(|i| ChaosSchedule::seeded(2).action_for(0, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn default_weights_never_drop() {
        let s = ChaosSchedule::seeded(7);
        for index in 0..2048 {
            assert_ne!(s.action_for(0, index), ChaosAction::Drop);
        }
    }

    #[test]
    fn overrides_beat_the_seeded_draw() {
        let s = ChaosSchedule::quiet().at(1, 3, ChaosAction::Drop);
        assert_eq!(s.action_for(1, 3), ChaosAction::Drop);
        assert_eq!(s.action_for(1, 2), ChaosAction::Deliver);
        assert_eq!(s.action_for(0, 3), ChaosAction::Deliver);
    }

    #[test]
    fn quiet_schedule_is_a_passthrough() {
        let (mut tx, rx) = MemoryTransport::pair();
        tx.send(&heartbeat(1, 2)).unwrap();
        let mut chaos = ChaosTransport::new(rx, ChaosSchedule::quiet());
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 2));
        assert!(chaos.try_recv().unwrap().is_none());
        assert!(chaos.log().is_empty());
    }

    #[test]
    fn duplicate_queues_an_identical_copy_behind_live_traffic() {
        let (mut tx, rx) = MemoryTransport::pair();
        tx.send(&heartbeat(1, 2)).unwrap();
        tx.send(&heartbeat(1, 3)).unwrap();
        let schedule = ChaosSchedule::quiet().at(0, 0, ChaosAction::Duplicate);
        let mut chaos = ChaosTransport::new(rx, schedule);
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 2));
        // Live traffic first; the copy surfaces when the inner runs dry.
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 3));
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 2));
        assert!(chaos.try_recv().unwrap().is_none());
        assert_eq!(
            chaos.log(),
            &[ChaosEvent { link: 0, index: 0, action: ChaosAction::Duplicate }]
        );
    }

    #[test]
    fn corrupt_copy_cannot_decode_but_still_peeks() {
        let (mut tx, rx) = MemoryTransport::pair();
        tx.send(&heartbeat(9, 2)).unwrap();
        let schedule = ChaosSchedule::quiet().at(0, 0, ChaosAction::CorruptCopy);
        let mut chaos = ChaosTransport::new(rx, schedule);
        let original = chaos.try_recv().unwrap().unwrap();
        assert!(deframe(original).is_ok());
        let copy = chaos.try_recv().unwrap().unwrap();
        assert!(deframe(copy.clone()).is_err(), "flipped magic must not decode");
        assert_eq!(frame_job_of(&copy), Some(9), "attribution survives the corruption");
    }

    fn update(job: u64, party: u64) -> Bytes {
        frame(
            AGGREGATOR_DEST,
            &WireMessage::LocalUpdate {
                job,
                round: 0,
                party,
                num_samples: 1,
                mean_loss: 0.5,
                duration: 0.1,
                params: vec![1.0, 2.0],
            },
        )
    }

    #[test]
    fn delay_holds_an_update_until_the_wire_runs_dry() {
        let (mut tx, rx) = MemoryTransport::pair();
        tx.send(&update(1, 2)).unwrap();
        tx.send(&heartbeat(1, 3)).unwrap();
        let schedule = ChaosSchedule::quiet().at(0, 0, ChaosAction::Delay);
        let mut chaos = ChaosTransport::new(rx, schedule);
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 3));
        assert_eq!(chaos.try_recv().unwrap().unwrap(), update(1, 2));
        assert!(chaos.try_recv().unwrap().is_none());
    }

    #[test]
    fn delay_downgrades_to_deliver_for_control_frames() {
        // Delaying a heartbeat past its round's close would change the
        // round's observed byte accounting — so control frames must
        // pass through in FIFO order even when the draw says Delay.
        let (mut tx, rx) = MemoryTransport::pair();
        tx.send(&heartbeat(1, 2)).unwrap();
        tx.send(&heartbeat(1, 3)).unwrap();
        let schedule = ChaosSchedule::quiet().at(0, 0, ChaosAction::Delay);
        let mut chaos = ChaosTransport::new(rx, schedule);
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 2));
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 3));
        assert!(chaos.try_recv().unwrap().is_none());
        assert!(chaos.log().is_empty(), "a downgraded delay was never applied");
    }

    #[test]
    fn flood_injects_forged_frames_for_the_target() {
        let (mut tx, rx) = MemoryTransport::pair();
        tx.send(&heartbeat(1, 2)).unwrap();
        let schedule = ChaosSchedule::quiet().flood_target(7, 5, 3).at(0, 0, ChaosAction::Flood(3));
        let mut chaos = ChaosTransport::new(rx, schedule);
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 2));
        for _ in 0..3 {
            let forged = chaos.try_recv().unwrap().unwrap();
            match deframe(forged).unwrap().1 {
                WireMessage::Heartbeat { job, round, party } => {
                    assert_eq!((job, round, party), (7, u64::MAX, 5));
                }
                other => panic!("wrong forged message {other:?}"),
            }
        }
        assert!(chaos.try_recv().unwrap().is_none());
    }

    #[test]
    fn drop_discards_the_frame() {
        let (mut tx, rx) = MemoryTransport::pair();
        tx.send(&heartbeat(1, 2)).unwrap();
        tx.send(&heartbeat(1, 3)).unwrap();
        let schedule = ChaosSchedule::quiet().at(0, 0, ChaosAction::Drop);
        let mut chaos = ChaosTransport::new(rx, schedule);
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 3));
        assert!(chaos.try_recv().unwrap().is_none());
    }

    #[test]
    fn target_job_scopes_the_chaos() {
        let (mut tx, rx) = MemoryTransport::pair();
        tx.send(&heartbeat(1, 2)).unwrap(); // untargeted job
        tx.send(&heartbeat(9, 3)).unwrap(); // targeted job
                                            // Index 0 and 1 both scripted to drop — only job 9's frame may
                                            // actually draw it.
        let schedule = ChaosSchedule::quiet().target_job(9).at(0, 0, ChaosAction::Drop).at(
            0,
            1,
            ChaosAction::Drop,
        );
        let mut chaos = ChaosTransport::new(rx, schedule);
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 2));
        assert!(chaos.try_recv().unwrap().is_none(), "job 9's frame was dropped");
    }

    #[test]
    fn disconnect_holds_the_whole_link_until_the_wire_runs_dry() {
        let (mut tx, rx) = MemoryTransport::pair();
        tx.send(&heartbeat(1, 2)).unwrap();
        tx.send(&update(1, 3)).unwrap();
        tx.send(&heartbeat(1, 4)).unwrap();
        let schedule = ChaosSchedule::quiet().at(0, 0, ChaosAction::Disconnect);
        let mut chaos = ChaosTransport::new(rx, schedule);
        // The link died on its first frame: everything is held, then
        // released in arrival order once the wire runs dry — whole-link
        // FIFO survives the outage.
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 2));
        assert_eq!(chaos.try_recv().unwrap().unwrap(), update(1, 3));
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 4));
        assert!(chaos.try_recv().unwrap().is_none());
        assert_eq!(
            chaos.log(),
            &[ChaosEvent { link: 0, index: 0, action: ChaosAction::Disconnect }]
        );
    }

    #[test]
    fn disconnect_still_consumes_chaos_indices_while_down() {
        // Frames held by a dead link keep consuming schedule indices, so
        // an outage cannot shift later frames onto different draws.
        let (mut tx, rx) = MemoryTransport::pair();
        for party in 0..4 {
            tx.send(&heartbeat(1, party)).unwrap();
        }
        let schedule =
            ChaosSchedule::quiet().at(0, 0, ChaosAction::Disconnect).at(0, 2, ChaosAction::Drop);
        let mut chaos = ChaosTransport::new(rx, schedule);
        // Index 2's Drop lands on the frame held behind the outage:
        // held frames drew no action, so the drop silently never fires —
        // indices were consumed, overrides on held frames are inert.
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 0));
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 1));
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 2));
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 3));
        assert!(chaos.try_recv().unwrap().is_none());
    }

    /// A two-link inbound-only transport for exercising per-link faults.
    struct TwoLinks {
        queue: VecDeque<(usize, Bytes)>,
    }

    impl Transport for TwoLinks {
        fn send(&mut self, _frame: &[u8]) -> Result<(), FlError> {
            Ok(())
        }
        fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
            Ok(self.queue.pop_front().map(|(_, f)| f))
        }
        fn links(&self) -> usize {
            2
        }
        fn try_recv_tagged(&mut self) -> Result<Option<(usize, Bytes)>, FlError> {
            Ok(self.queue.pop_front())
        }
    }

    #[test]
    fn disconnect_leaves_other_links_flowing() {
        let inner = TwoLinks {
            queue: VecDeque::from([
                (0, heartbeat(1, 2)),
                (1, heartbeat(1, 3)),
                (0, heartbeat(1, 4)),
            ]),
        };
        let schedule = ChaosSchedule::quiet().at(0, 0, ChaosAction::Disconnect);
        let mut chaos = ChaosTransport::new(inner, schedule);
        // Link 0 is down; link 1's frame flows live, link 0's traffic
        // waits for the dry point.
        assert_eq!(chaos.try_recv_tagged().unwrap().unwrap(), (1, heartbeat(1, 3)));
        assert_eq!(chaos.try_recv_tagged().unwrap().unwrap(), (0, heartbeat(1, 2)));
        assert_eq!(chaos.try_recv_tagged().unwrap().unwrap(), (0, heartbeat(1, 4)));
        assert!(chaos.try_recv_tagged().unwrap().is_none());
    }

    #[test]
    fn inert_wrapper_is_invisible() {
        let (mut tx, rx) = MemoryTransport::pair();
        tx.send(&heartbeat(1, 2)).unwrap();
        let mut chaos = ChaosTransport::inert(rx);
        assert_eq!(chaos.try_recv().unwrap().unwrap(), heartbeat(1, 2));
        assert!(chaos.try_recv().unwrap().is_none());
        assert!(chaos.log().is_empty());
    }
}
