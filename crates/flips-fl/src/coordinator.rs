//! The sans-IO round coordinator — selection/aggregation *policy* as a
//! pure state machine (paper §2, Figure 1).
//!
//! [`Coordinator`] owns everything the aggregator side of the protocol
//! *decides*: which parties join a round, which updates are accepted,
//! when a round closes, how updates aggregate into the global model, and
//! what the selector learns from the outcome. It owns nothing the
//! aggregator side *does*: no sockets, no threads, no clocks, no local
//! training. Drivers feed [`Event`]s and execute the returned
//! [`Effect`]s; see [`crate::events`] for the vocabulary and
//! [`crate::FlJob`] for the in-process simulation driver.
//!
//! A round's lifecycle:
//!
//! ```text
//!  Idle ──open_round()──▶ Open ──UpdateReceived*──▶ Open
//!                          │  ▲                      │
//!                          │  └──── Heartbeat ───────┘
//!                          │
//!            DeadlineExpired │ (or cohort complete)
//!                          ▼
//!            close: aggregate → evaluate → selector feedback
//!                          │
//!          RoundClosed(record) [+ JobFinished(history)]
//! ```
//!
//! Rounds have real open/close semantics: duplicate updates are rejected
//! (never double-aggregated), late updates for closed rounds bounce with
//! [`RejectReason::WrongRound`], and parties that miss the deadline close
//! as stragglers — the deadline *is* the straggler mechanism, there is no
//! separate injection path inside the protocol.

use crate::aggtree::{ExactWeightedSum, RoundSum, MAX_WEIGHT};
use crate::codec::ModelCodec;
use crate::config::FlAlgorithm;
use crate::events::{Effect, Event, RejectReason};
use crate::history::{History, RoundRecord};
use crate::message::{heartbeat_bytes, local_update_bytes, PartialEntry, WireMessage};
use crate::server::ServerState;
use crate::FlError;
use flips_data::Dataset;
use flips_ml::metrics::ConfusionMatrix;
use flips_ml::model::{Model, ModelSpec};
use flips_ml::rng::{derive_seed, seeded};
use flips_selection::{ParticipantSelector, PartyId, RoundFeedback};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Static configuration of one coordinator.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Job identifier stamped on every message (rejects foreign traffic).
    pub job_id: u64,
    /// The agreed model architecture.
    pub model: ModelSpec,
    /// The FL algorithm (server-side optimizer).
    pub algorithm: FlAlgorithm,
    /// Round budget.
    pub rounds: usize,
    /// Parties per round (`Nr`; selectors may overprovision beyond it).
    pub parties_per_round: usize,
    /// Dimension of the update sketches reported to GradClus.
    pub sketch_dim: usize,
    /// The model-payload wire codec announced in every selection notice
    /// (negotiated once per job; serialized drivers encode model frames
    /// with it). Byte *accounting* stays raw-canonical regardless.
    pub codec: ModelCodec,
    /// Master seed; the global-model initialization stream derives from
    /// it.
    pub seed: u64,
}

/// Where one selected party stands in the open round.
#[derive(Debug)]
enum Slot {
    /// Its update has not arrived; the round waits on it.
    Pending,
    /// Its update was accepted: what a tree partial carries per covered
    /// party is exactly what a flat update leaves here too, its
    /// parameters gone into the round's [`RoundSum`] at the same moment.
    Done(PartialEntry),
    /// The driver reported it gone, or it withdrew.
    Dropped,
}

#[derive(Debug)]
struct Seat {
    slot: Slot,
    /// The party acked its selection notice.
    acked: bool,
}

/// What an inbound message claims of the open round
/// ([`Coordinator::admit`]).
#[derive(Debug, Clone, Copy)]
enum Claim {
    /// No one party's seat: a tree partial's container is the inner
    /// node's frame.
    Round,
    /// A seat, whatever became of it: a heartbeat acks the notice, not
    /// the update.
    Seat(u64),
    /// A seat still waiting for its update: a flat update, a partial's
    /// entry, an abort.
    Pending(u64),
}

/// The one-element effect list a refused message leaves behind.
fn rejected(party: Option<u64>, round: u64, reason: RejectReason) -> Vec<Effect> {
    vec![Effect::Rejected { party: party.map(|p| p as PartyId), round, reason }]
}

/// Book-keeping of the currently open round: one seat per selected
/// party in an ordered map, so whatever is read out at close comes in
/// party-id order however the messages arrived.
#[derive(Debug)]
struct OpenRound {
    round: u64,
    /// Selection order, as the policy returned it (the record and the
    /// straggler list keep it).
    selected: Vec<PartyId>,
    seats: BTreeMap<PartyId, Seat>,
    /// Seats still [`Slot::Pending`]; the round closes itself at zero.
    waiting: usize,
    /// The global this round dispatched: what every update is sketched
    /// against, shared with the outbound model frames.
    dispatched: Arc<[f32]>,
    sum: RoundSum,
    bytes_down: u64,
}

impl OpenRound {
    /// Resolves `party`'s pending seat to `slot`; `true` when it was the
    /// last one the round was waiting on.
    fn settle(&mut self, party: u64, slot: Slot) -> bool {
        let seat = self.seats.get_mut(&(party as PartyId)).expect("settle follows admission");
        debug_assert!(matches!(seat.slot, Slot::Pending));
        seat.slot = slot;
        self.waiting -= 1;
        self.waiting == 0
    }
}

/// The aggregator-side protocol state machine.
///
/// See the [module docs](self) for the event/effect contract.
///
/// # Example
///
/// Drive one round by hand — open it, then expire the deadline; every
/// side effect a real deployment would need (sends, closes) comes back
/// as an [`Effect`] for the driver to execute:
///
/// ```
/// use flips_data::dataset::balanced_test_set;
/// use flips_data::DatasetProfile;
/// use flips_fl::{Coordinator, CoordinatorConfig, Effect, Event, FlAlgorithm, ModelCodec};
/// use flips_selection::RandomSelector;
///
/// let profile = DatasetProfile::femnist();
/// let config = CoordinatorConfig {
///     job_id: 0xF11F,
///     model: profile.model.clone(),
///     algorithm: FlAlgorithm::fedyogi(),
///     rounds: 1,
///     parties_per_round: 2,
///     sketch_dim: 8,
///     codec: ModelCodec::Raw,
///     seed: 7,
/// };
/// let selector = Box::new(RandomSelector::new(6, 7));
/// let test_set = balanced_test_set(&profile, 4, 7);
/// let mut coordinator = Coordinator::new(config, 6, test_set, selector).unwrap();
///
/// let effects = coordinator.open_round().unwrap();
/// assert_eq!(effects.len(), 4, "2 selected parties × (notice + model)");
///
/// // No update arrived before the driver's deadline: the round closes
/// // with every selected party a straggler, and the job (budget 1) ends.
/// let closed = coordinator.handle(Event::DeadlineExpired).unwrap();
/// assert!(closed.iter().any(|e| matches!(e, Effect::RoundClosed(_))));
/// assert!(coordinator.is_finished());
/// ```
pub struct Coordinator {
    config: CoordinatorConfig,
    num_parties: usize,
    selector: Box<dyn ParticipantSelector>,
    server: ServerState,
    global: Vec<f32>,
    eval_model: Box<dyn Model>,
    test_set: Dataset,
    history: History,
    /// Completed rounds.
    round: usize,
    open: Option<OpenRound>,
    finished: bool,
    /// Reused weighted-mean buffer between the round's sum and the
    /// server optimizer.
    accum: Vec<f64>,
    /// Roster availability mask: `active[p]` is flipped by
    /// [`Event::PartyLeft`] / [`Event::PartyJoined`] and filters every
    /// selection (the policy keeps drawing from the full roster so its
    /// random stream — and therefore every seeded history — is
    /// churn-independent).
    active: Vec<bool>,
    /// Every [`RoundFeedback`] delivered to the selector, in order — the
    /// replay tape a checkpoint restore uses to rebuild selector state
    /// deterministically.
    feedback_log: Vec<RoundFeedback>,
    /// Which [`RoundSum`] the next round opens with — see
    /// [`Coordinator::set_exact_fold`].
    exact_fold: bool,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("job_id", &self.config.job_id)
            .field("algorithm", &self.config.algorithm)
            .field("selector", &self.selector.name())
            .field("round", &self.round)
            .field("open", &self.open.is_some())
            .field("finished", &self.finished)
            .finish()
    }
}

impl Coordinator {
    /// Creates a coordinator for a roster of `num_parties` parties.
    ///
    /// The global model is initialized from the job seed (paper §2:
    /// agreed at job start), exactly as every party initializes its local
    /// architecture.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for inconsistent inputs (zero
    /// rounds, round size exceeding the roster, selector sized for a
    /// different roster, test set not matching the architecture).
    pub fn new(
        config: CoordinatorConfig,
        num_parties: usize,
        test_set: Dataset,
        selector: Box<dyn ParticipantSelector>,
    ) -> Result<Self, FlError> {
        if num_parties == 0 {
            return Err(FlError::InvalidConfig("no parties".into()));
        }
        if config.parties_per_round == 0 || config.parties_per_round > num_parties {
            return Err(FlError::InvalidConfig(format!(
                "parties_per_round {} must be in 1..={num_parties}",
                config.parties_per_round,
            )));
        }
        if config.rounds == 0 {
            return Err(FlError::InvalidConfig("zero rounds".into()));
        }
        if config.sketch_dim == 0 {
            return Err(FlError::InvalidConfig("sketch_dim must be positive".into()));
        }
        if selector.num_parties() != num_parties {
            return Err(FlError::InvalidConfig(format!(
                "selector sized for {} parties, roster has {num_parties}",
                selector.num_parties(),
            )));
        }
        if test_set.classes != config.model.num_classes()
            || test_set.x.cols() != config.model.input_dim()
        {
            return Err(FlError::InvalidConfig(
                "test set does not match the model architecture".into(),
            ));
        }
        let init_model = config.model.build(&mut seeded(derive_seed(config.seed, 0x6106A1)));
        let global = init_model.params();
        Ok(Coordinator {
            server: ServerState::new(config.algorithm),
            eval_model: init_model,
            selector,
            num_parties,
            test_set,
            global,
            history: History::new(),
            round: 0,
            open: None,
            finished: false,
            accum: Vec::new(),
            active: vec![true; num_parties],
            feedback_log: Vec::new(),
            exact_fold: false,
            config,
        })
    }

    /// Chooses the sum every later round aggregates with: the default
    /// f64 weighted fold in party-id order, or the **exact fold** — every
    /// update folds into one 256-bit fixed-point sum
    /// ([`crate::aggtree::ExactWeightedSum`]) as it is accepted, with a
    /// single rounding at close. Everything else about a round — who is
    /// admitted, what is recorded, the feedback sketches (always against
    /// the round's *dispatched* global) — is the same code either way.
    ///
    /// Exact mode is what makes aggregation trees pinnable: partials
    /// folded at [`crate::PartyPool`] inner nodes
    /// ([`WireMessage::PartialUpdate`]) merge into the same bits as a
    /// flat exact run regardless of how updates were partitioned — so a
    /// flat exact-fold run is the equivalence oracle for every tree
    /// topology. Default mode cannot merge a pre-folded partial (rejected
    /// as [`RejectReason::WrongDirection`]) and its histories are **not**
    /// comparable to exact-mode histories: the two sums round differently.
    ///
    /// Takes effect at the next [`Coordinator::open_round`]; the mode is
    /// not checkpointed — a restoring runtime re-applies it.
    pub fn set_exact_fold(&mut self, on: bool) {
        self.exact_fold = on;
    }

    /// Whether the exact-fold aggregation path is active.
    pub fn exact_fold(&self) -> bool {
        self.exact_fold
    }

    /// The dimension of the update sketches reported to the selector —
    /// tree inner nodes must compute shipped sketches at exactly this
    /// width.
    pub fn sketch_dim(&self) -> usize {
        self.config.sketch_dim
    }

    /// The job identifier stamped on every outbound message.
    pub fn job_id(&self) -> u64 {
        self.config.job_id
    }

    /// The model-payload wire codec this job announces in its selection
    /// notices.
    pub fn codec(&self) -> ModelCodec {
        self.config.codec
    }

    /// Number of completed rounds.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether the round budget is exhausted.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The current global model parameters.
    pub fn global_params(&self) -> &[f32] {
        &self.global
    }

    /// The job history so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The open round's cohort in selection order, if a round is open.
    pub fn open_cohort(&self) -> Option<&[PartyId]> {
        self.open.as_ref().map(|o| o.selected.as_slice())
    }

    /// Parties that have acked their selection notice this round.
    pub fn heartbeats_this_round(&self) -> usize {
        self.open.as_ref().map_or(0, |o| o.seats.values().filter(|s| s.acked).count())
    }

    /// The roster availability mask — `false` entries have
    /// [left](Event::PartyLeft) and are excluded from selection.
    pub fn active_mask(&self) -> &[bool] {
        &self.active
    }

    /// The selector feedback delivered so far, one entry per closed
    /// round — the checkpoint replay tape.
    pub fn feedback_log(&self) -> &[RoundFeedback] {
        &self.feedback_log
    }

    /// The server optimizer's persistent words (empty for
    /// FedAvg/FedProx) — see [`ServerState::export_optimizer`].
    pub fn export_optimizer(&self) -> Vec<f32> {
        self.server.export_optimizer()
    }

    /// Restores a freshly-constructed coordinator to the state it had
    /// after its last closed round: the history and feedback tapes, the
    /// global model, the server optimizer words and the availability
    /// mask, with the selector rebuilt by *replaying* its event stream
    /// (one `select` + one `report` per closed round) — selectors are
    /// deterministic given seed + feedback, so replay reproduces their
    /// internal state bit-exactly without serializing it.
    ///
    /// # Errors
    ///
    /// [`FlError::Protocol`] when this coordinator already made progress
    /// (restore targets a fresh twin of the crashed instance);
    /// [`FlError::InvalidConfig`] on tape/model/mask shapes that do not
    /// fit this job's configuration. On error the coordinator must be
    /// discarded — the selector may be partially replayed.
    pub fn restore(
        &mut self,
        history: Vec<RoundRecord>,
        feedback: Vec<RoundFeedback>,
        global: Vec<f32>,
        optimizer_state: &[f32],
        active: &[bool],
    ) -> Result<(), FlError> {
        if self.round != 0 || self.open.is_some() || !self.history.is_empty() {
            return Err(FlError::Protocol("restore requires a fresh coordinator".into()));
        }
        if history.len() != feedback.len() {
            return Err(FlError::InvalidConfig(format!(
                "history has {} rounds but feedback has {}",
                history.len(),
                feedback.len()
            )));
        }
        if history.len() > self.config.rounds {
            return Err(FlError::InvalidConfig(format!(
                "snapshot has {} closed rounds, job budget is {}",
                history.len(),
                self.config.rounds
            )));
        }
        if global.len() != self.global.len() {
            return Err(FlError::InvalidConfig(format!(
                "snapshot model has {} params, architecture has {}",
                global.len(),
                self.global.len()
            )));
        }
        if active.len() != self.num_parties {
            return Err(FlError::InvalidConfig(format!(
                "snapshot mask covers {} parties, roster has {}",
                active.len(),
                self.num_parties
            )));
        }
        for (r, fb) in feedback.iter().enumerate() {
            if fb.round != r {
                return Err(FlError::InvalidConfig(format!(
                    "feedback tape out of order: entry {r} is for round {}",
                    fb.round
                )));
            }
        }
        if !self.server.import_optimizer(optimizer_state) {
            return Err(FlError::InvalidConfig(
                "snapshot optimizer state does not fit the algorithm".into(),
            ));
        }
        // Replay the selector's whole life: the pick of each closed
        // round (discarded — the outcome is already on the tape) and the
        // feedback it learned from.
        for (r, fb) in feedback.iter().enumerate() {
            let _ = self.selector.select(r, self.config.parties_per_round)?;
            self.selector.report(fb);
        }
        // Availability is re-announced after replay so a policy that
        // listens sees the roster as it stood at the checkpoint.
        for (p, &a) in active.iter().enumerate() {
            if !a {
                self.selector.set_available(p, false);
            }
        }
        self.global = global;
        self.eval_model.set_params(&self.global)?;
        self.round = history.len();
        self.finished = self.round == self.config.rounds;
        self.history = History::new();
        for record in history {
            self.history.push(record);
        }
        self.feedback_log = feedback;
        self.active = active.to_vec();
        Ok(())
    }

    /// Opens the next round: runs the selection policy and emits one
    /// [`WireMessage::SelectionNotice`] and one
    /// [`WireMessage::GlobalModel`] per selected party.
    ///
    /// The selector's output is guarded: duplicate ids are dropped
    /// (keeping first occurrence, preserving selection order) and
    /// out-of-roster ids are a hard error — a policy bug must not corrupt
    /// the round.
    ///
    /// # Errors
    ///
    /// [`FlError::Protocol`] if a round is already open or the job
    /// finished; [`FlError::InvalidConfig`] for out-of-roster selections;
    /// selection failures propagate.
    pub fn open_round(&mut self) -> Result<Vec<Effect>, FlError> {
        if self.finished {
            return Err(FlError::Protocol("job finished: no more rounds to open".into()));
        }
        if let Some(open) = &self.open {
            return Err(FlError::Protocol(format!("round {} is already open", open.round)));
        }
        let raw = self.selector.select(self.round, self.config.parties_per_round)?;
        let mut seen = HashSet::with_capacity(raw.len());
        let mut selected = Vec::with_capacity(raw.len());
        for p in raw {
            if p >= self.num_parties {
                return Err(FlError::InvalidConfig(format!(
                    "selector returned party {p}, roster has {}",
                    self.num_parties
                )));
            }
            if seen.insert(p) {
                selected.push(p);
            }
        }
        if selected.is_empty() {
            return Err(FlError::InvalidConfig("selector returned no parties".into()));
        }
        // Churn filter: departed parties drop out of the pick (selection
        // order preserved; the policy's stream is never perturbed). If
        // churn emptied the pick entirely, fall back to the first `Nr`
        // available slots in index order so the job keeps making
        // progress as long as anyone is left.
        if self.active.iter().any(|&a| !a) {
            selected.retain(|&p| self.active[p]);
            if selected.is_empty() {
                selected = (0..self.num_parties)
                    .filter(|&p| self.active[p])
                    .take(self.config.parties_per_round)
                    .collect();
            }
            if selected.is_empty() {
                return Err(FlError::Protocol(
                    "no parties available: the whole roster left".into(),
                ));
            }
        }

        let round = self.round as u64;
        let job = self.config.job_id;
        let mut effects = Vec::with_capacity(2 * selected.len());
        let mut bytes_down = 0u64;
        // ONE shared copy of the round's parameters: every dispatched
        // model clones the `Arc`, not the floats (the per-dispatch
        // `Vec<f32>` clone was the protocol layer's last hot-path
        // allocation — see PERFORMANCE.md).
        let params: Arc<[f32]> = Arc::from(self.global.as_slice());
        for &p in &selected {
            let notice = WireMessage::SelectionNotice {
                job,
                round,
                party: p as u64,
                codec: self.config.codec,
            };
            let model = WireMessage::GlobalModel { job, round, params: Arc::clone(&params) };
            bytes_down += (notice.wire_size() + model.wire_size()) as u64;
            effects.push(Effect::Send { to: p, msg: notice });
            effects.push(Effect::Send { to: p, msg: model });
        }
        self.open = Some(OpenRound {
            round,
            seats: selected
                .iter()
                .map(|&p| (p, Seat { slot: Slot::Pending, acked: false }))
                .collect(),
            waiting: selected.len(),
            selected,
            sum: RoundSum::new(self.exact_fold, params.len()),
            dispatched: params,
            bytes_down,
        });
        Ok(effects)
    }

    /// Feeds one event into the state machine.
    ///
    /// Invalid inbound messages never corrupt state — they surface as
    /// [`Effect::Rejected`] and the round continues. A deadline with no
    /// open round is a benign no-op (timers may fire late).
    ///
    /// # Errors
    ///
    /// Only aggregation/evaluation failures at round close propagate.
    pub fn handle(&mut self, event: Event) -> Result<Vec<Effect>, FlError> {
        let close = match event {
            Event::UpdateReceived(msg) => match self.book(msg) {
                Ok(cohort_complete) => cohort_complete,
                Err(rejections) => return Ok(rejections),
            },
            Event::PartyDropped(party) => self.open.as_mut().is_some_and(|open| {
                matches!(open.seats.get(&party), Some(Seat { slot: Slot::Pending, .. }))
                    && open.settle(party as u64, Slot::Dropped)
            }),
            Event::DeadlineExpired => self.open.is_some(),
            Event::PartyJoined(party) => {
                // Only a known roster slot can (re)join; an unknown id is
                // a benign no-op, as is a join of an already-active slot.
                if party < self.num_parties && !self.active[party] {
                    self.active[party] = true;
                    self.selector.set_available(party, true);
                }
                false
            }
            Event::PartyLeft(party) => {
                if party < self.num_parties && self.active[party] {
                    self.active[party] = false;
                    self.selector.set_available(party, false);
                    // Departure mid-round doubles as a drop: the open
                    // round stops waiting and closes it out as a
                    // straggler.
                    return self.handle(Event::PartyDropped(party));
                }
                false
            }
        };
        if close {
            self.close_round()
        } else {
            Ok(Vec::new())
        }
    }

    /// The one admission ladder every inbound message climbs: right job,
    /// a round open, that round — and, for a message that speaks for a
    /// party, a seat in the cohort which (for anything but a heartbeat)
    /// is still waiting for its update. A refusal is the rejection
    /// effect, and has touched nothing.
    fn admit(&mut self, job: u64, round: u64, claim: Claim) -> Result<&mut OpenRound, Vec<Effect>> {
        let (party, pending) = match claim {
            Claim::Round => (None, false),
            Claim::Seat(party) => (Some(party), false),
            Claim::Pending(party) => (Some(party), true),
        };
        let refuse = |reason| Err(rejected(party, round, reason));
        if job != self.config.job_id {
            return refuse(RejectReason::WrongJob);
        }
        let Some(open) = &mut self.open else { return refuse(RejectReason::NoOpenRound) };
        if round != open.round {
            return refuse(RejectReason::WrongRound);
        }
        let Some(party) = party else { return Ok(open) };
        // An id past `usize` is past the roster too.
        match usize::try_from(party).ok().and_then(|p| open.seats.get(&p)).map(|s| &s.slot) {
            None => refuse(RejectReason::NotSelected),
            Some(Slot::Dropped) if pending => refuse(RejectReason::PartyDropped),
            Some(Slot::Done(_)) if pending => refuse(RejectReason::DuplicateUpdate),
            Some(_) => Ok(open),
        }
    }

    /// Books one inbound message into the open round. `Ok(true)` means
    /// the cohort is now complete; `Err` carries the rejections, and a
    /// rejected message has changed nothing.
    fn book(&mut self, msg: WireMessage) -> Result<bool, Vec<Effect>> {
        let round = msg.round();
        let sketch_dim = self.config.sketch_dim;
        match msg {
            WireMessage::LocalUpdate {
                job,
                party,
                num_samples,
                mean_loss,
                duration,
                params,
                ..
            } => {
                let open = self.admit(job, round, Claim::Pending(party))?;
                // Besides a wrong-length vector, the exact sum refuses
                // what lies outside its domain (a non-finite or
                // astronomically-scaled parameter, a weight outside
                // 1..2³²): that bounces here, the seat still pending,
                // instead of erroring the whole round at close.
                let sketch = open
                    .sum
                    .accept(party as PartyId, params, num_samples, &open.dispatched, sketch_dim)
                    .map_err(|_| rejected(Some(party), round, RejectReason::WrongModelSize))?;
                let entry = PartialEntry { party, num_samples, mean_loss, duration, sketch };
                Ok(open.settle(party, Slot::Done(entry)))
            }
            WireMessage::PartialUpdate { job, total_weight, entries, dim, limbs, .. } => {
                // The aggregation-tree uplink: a pre-folded partial
                // covering several parties. Container-level problems
                // reject once with no sender (the frame is the inner
                // node's, not any one party's); entry-level problems
                // reject per covered party and discard the whole partial
                // unmerged — a folded sum cannot exclude one bad entry,
                // and an inner-node bug must not corrupt the aggregate.
                let container = |reason| Err(rejected(None, round, reason));
                let open = self.admit(job, round, Claim::Round)?;
                if !open.sum.is_exact() {
                    // Only the exact sum can merge partials; for the
                    // default one the frame is a protocol-shape
                    // violation, not data.
                    return container(RejectReason::WrongDirection);
                }
                if dim as usize != open.dispatched.len() || limbs.len() != dim as usize * 4 {
                    return container(RejectReason::WrongModelSize);
                }
                if entries.is_empty() {
                    // Nothing folded in: benign no-op (an inner node may
                    // flush an empty cycle).
                    return Ok(false);
                }
                let mut rejections = Vec::new();
                let mut weight_sum = 0u64;
                let mut seen = HashSet::with_capacity(entries.len());
                for e in &entries {
                    let entry = |reason| rejected(Some(e.party), round, reason);
                    match self.admit(job, round, Claim::Pending(e.party)) {
                        Err(refusal) => rejections.extend(refusal),
                        Ok(_) if !seen.insert(e.party) => {
                            rejections.extend(entry(RejectReason::DuplicateUpdate));
                        }
                        // Or a weight a flat update's fold would refuse.
                        Ok(_)
                            if e.sketch.len() != sketch_dim
                                || !(1..MAX_WEIGHT).contains(&e.num_samples) =>
                        {
                            rejections.extend(entry(RejectReason::WrongModelSize));
                        }
                        Ok(_) => {}
                    }
                    weight_sum = weight_sum.saturating_add(e.num_samples);
                }
                if !rejections.is_empty() {
                    return Err(rejections);
                }
                // The declared fold weight must equal the entries' sum
                // (a skewed weight would silently bias the mean), and
                // the limb block must rebuild into a sum the round's own
                // can take — `merge` checks before it touches a limb.
                let open = self.admit(job, round, Claim::Round)?;
                let merged = total_weight == weight_sum
                    && ExactWeightedSum::from_raw(&limbs, total_weight, entries.len() as u64)
                        .and_then(|partial| open.sum.merge(&partial))
                        .is_ok();
                if !merged {
                    return container(RejectReason::WrongModelSize);
                }
                // From here each covered party is booked exactly as if
                // its update had traveled flat (byte accounting at close
                // included), so tree and flat histories agree.
                let mut complete = false;
                for e in entries {
                    complete = open.settle(e.party, Slot::Done(e));
                }
                Ok(complete)
            }
            WireMessage::Heartbeat { job, party, .. } => {
                let open = self.admit(job, round, Claim::Seat(party))?;
                // A bit, so idempotent: an at-least-once transport may
                // redeliver the ack within the deadline window, and a
                // duplicate must not inflate the round's byte accounting
                // (the transport suite pins histories bit-identical under
                // duplicate delivery).
                open.seats.get_mut(&(party as PartyId)).expect("admitted").acked = true;
                Ok(false)
            }
            // A party withdrawing is equivalent to the transport losing
            // it — but only a this-job, this-round abort from a party the
            // round still waits on may touch round state; anything else
            // bounces like any other message.
            WireMessage::Abort { job, party, .. } => {
                Ok(self.admit(job, round, Claim::Pending(party))?.settle(party, Slot::Dropped))
            }
            WireMessage::SelectionNotice { party, .. } => {
                Err(rejected(Some(party), round, RejectReason::WrongDirection))
            }
            WireMessage::GlobalModel { .. } => {
                Err(rejected(None, round, RejectReason::WrongDirection))
            }
        }
    }

    /// Closes the open round: finishes the round's sum into the global
    /// model, evaluates on the aggregator-held balanced test set, feeds
    /// the selector, records the round and tells stragglers to abort.
    /// Everything per-party is read off the seat map in party-id order,
    /// so nothing here depends on the order messages arrived in.
    fn close_round(&mut self) -> Result<Vec<Effect>, FlError> {
        let OpenRound { round: wire_round, selected, seats, sum, mut bytes_down, .. } =
            self.open.take().expect("close_round requires an open round");
        let round = self.round;

        // Byte accounting is raw-canonical: every accepted update counts
        // as one flat frame, every acked notice as one heartbeat.
        let update_bytes = local_update_bytes(self.global.len()) as u64;
        let mut bytes_up = 0u64;
        let mut feedback =
            RoundFeedback::for_round(round, selected.clone(), Vec::new(), Vec::new(), 0.0);
        for (party, seat) in seats {
            bytes_up += u64::from(seat.acked) * heartbeat_bytes() as u64;
            if let Slot::Done(entry) = seat.slot {
                bytes_up += update_bytes;
                feedback.completed.push(party);
                feedback.train_loss.insert(party, entry.mean_loss);
                feedback.duration.insert(party, entry.duration);
                feedback.update_sketch.insert(party, entry.sketch);
            }
        }
        let completed = &feedback.completed;
        feedback.stragglers =
            selected.iter().copied().filter(|p| !feedback.train_loss.contains_key(p)).collect();

        // Advance the global model (a fully-straggled round leaves it
        // unchanged, as a real aggregator would resample).
        let mean_train_loss = if completed.is_empty() {
            0.0
        } else {
            sum.finish_into(&mut self.accum)?;
            self.server.apply_aggregate(&mut self.global, &self.accum)?;
            completed.iter().map(|p| feedback.train_loss[p]).sum::<f64>() / completed.len() as f64
        };
        let round_duration = completed.iter().map(|p| feedback.duration[p]).fold(0.0, f64::max);

        // Evaluate on the aggregator-held balanced test set (§4.4).
        self.eval_model.set_params(&self.global)?;
        let predictions = flips_ml::model::predict(self.eval_model.as_ref(), &self.test_set.x);
        let cm = ConfusionMatrix::from_predictions(
            self.test_set.classes,
            &self.test_set.y,
            &predictions,
        );
        let accuracy = cm.balanced_accuracy();

        // Selector feedback — the round-close event is the only channel
        // through which policies learn.
        feedback.global_accuracy = accuracy;
        self.selector.report(&feedback);

        // Stragglers are told to stop working on the now-closed round.
        let mut effects: Vec<Effect> = Vec::with_capacity(feedback.stragglers.len() + 2);
        for &p in &feedback.stragglers {
            let msg = WireMessage::Abort {
                job: self.config.job_id,
                round: wire_round,
                party: p as u64,
                reason: "deadline expired".into(),
            };
            bytes_down += msg.wire_size() as u64;
            effects.push(Effect::Send { to: p, msg });
        }

        let record = RoundRecord {
            round,
            selected,
            completed: feedback.completed.clone(),
            stragglers: feedback.stragglers.clone(),
            accuracy,
            per_label_recall: cm.recalls(),
            mean_train_loss,
            bytes_down,
            bytes_up,
            round_duration,
        };
        self.feedback_log.push(feedback);
        self.history.push(record.clone());
        self.round += 1;
        effects.push(Effect::RoundClosed(record));
        if self.round == self.config.rounds {
            self.finished = true;
            effects.push(Effect::JobFinished(self.history.clone()));
        }
        Ok(effects)
    }
}
