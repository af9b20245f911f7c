//! The serialized-transport driver: many concurrent FL jobs multiplexed
//! over one byte channel.
//!
//! This is the second driver over the sans-IO protocol (the first is the
//! in-process [`crate::FlJob`]). Where `FlJob` passes one job's messages
//! by value, the [`MultiJobDriver`] owns **N coordinators keyed by job
//! id** and speaks to the party side exclusively through a
//! [`Transport`]: every message is [`WireMessage::encode`]d, framed with
//! its destination, sent as bytes, and [`WireMessage::decode`]d on the
//! far side — the codec is on the hot path, not just under test.
//!
//! The driver demultiplexes inbound frames to the right coordinator by
//! the job id every message carries, drains each coordinator's effects
//! back onto the wire, and fires [`Event::DeadlineExpired`] per job from
//! the [`TimerWheel`] ([`crate::wheel`]). Corrupt frames and unknown job
//! ids are counted and dropped — they cannot disturb any job's round
//! state. The party side of the wire is [`crate::PartyPool`] ([`crate::pool`]).
//!
//! Who misses a deadline is decided by the job's `Stragglers` — the
//! same type the in-process driver holds — so the two drivers share
//! deadline semantics by construction; a seeded run over this path is
//! bit-identical to the same seed under `FlJob` (see
//! `tests/protocol_equivalence.rs`).

use crate::checkpoint::{Checkpoint, CodecRefSnapshot, JobSnapshot};
use crate::codec::{CodecMap, CodecScratch, ModelCodec, Role};
use crate::config::DeadlinePolicy;
use crate::coordinator::Coordinator;
use crate::events::{Effect, Event, RejectReason};
use crate::guard::{FrameKind, FrameVerdict, GuardConfig, GuardPlane};
use crate::history::History;
use crate::latency::LatencyModel;
use crate::message::{
    deframe_update, deframe_with, frame_into, frame_is_update, frame_job_of, frame_party_of,
    AGGREGATOR_DEST,
};
use crate::straggler::{Arrival, Clock, Stragglers};
use crate::transport::Transport;
use crate::wheel::{Deadline, TimerWheel};
use crate::{FlError, JobParts, PartyEndpoint, WireMessage};
use bytes::{Bytes, BytesMut};
use flips_selection::PartyId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Counters of what the driver saw on the wire. Purely observational —
/// none of these paths mutate round state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DriverStats {
    /// Frames sent (downlink).
    pub frames_sent: u64,
    /// Frames received (uplink), including rejected ones.
    pub frames_received: u64,
    /// Bytes sent (downlink), as actually encoded by each job's
    /// negotiated codec — compare against the raw-canonical accounting
    /// in [`crate::RoundRecord`] to read off the compression win.
    pub bytes_sent: u64,
    /// Bytes received (uplink), frame headers included.
    pub bytes_received: u64,
    /// Frames that failed deframing/decoding (truncation, corruption).
    pub corrupt_frames: u64,
    /// Frames whose model payload carried a corrupt codec tag or one
    /// disagreeing with the job's negotiated codec — dropped without
    /// touching round state.
    pub codec_mismatch_frames: u64,
    /// Well-formed messages carrying a job id no coordinator owns.
    pub unknown_job_frames: u64,
    /// Messages a coordinator bounced ([`Effect::Rejected`]).
    pub rejected_messages: u64,
    /// Updates that arrived past their round's latency-derived deadline
    /// (withheld from the coordinator; the wheel closes the sender out
    /// as a straggler). Always 0 on the injected-clock path.
    pub late_updates: u64,
    /// Frames dropped by the guard plane's size cap before decode
    /// (see [`GuardConfig::max_frame_bytes`]).
    pub oversized_frames: u64,
    /// Frames refused because the sender's token bucket was empty
    /// (each refusal also strikes the sender's breaker).
    pub rate_limited_frames: u64,
    /// Frames dropped because the sender's circuit breaker was open.
    pub breaker_dropped_frames: u64,
    /// Frames refused by per-round admission control (round already at
    /// its admission budget).
    pub admission_refused_frames: u64,
    /// Breaker trips: parties ejected at a round open (a party
    /// re-tripping after a failed half-open probe counts again).
    pub parties_ejected: u64,
    /// Round opens refused because the driver was draining.
    pub drain_refused_selections: u64,
    /// Links whose peer died mid-run (EOF/reset/probe timeout) and whose
    /// slot state was parked awaiting a resume.
    pub links_lost: u64,
    /// Parked links a reconnecting peer successfully re-attached to.
    pub links_resumed: u64,
    /// Roster segments written to disk by attached [`crate::RosterStore`]s
    /// (see [`MultiJobDriver::attach_roster`]). Computed live from the
    /// stores, never checkpointed — a restored store re-counts from
    /// zero.
    pub roster_spilled: u64,
    /// Roster segments loaded back from disk by attached stores.
    pub roster_loaded: u64,
}

/// One `field => name, help;` row per [`DriverStats`] counter.
macro_rules! counters {
    ($($field:ident => $name:literal, $help:literal;)*) => {
        [$(StatCounter { word: |s| &mut s.$field, name: $name, help: $help }),*]
    };
}

/// One [`DriverStats`] counter: its field, and the name and help text
/// it is exposed under as a Prometheus counter.
#[derive(Clone, Copy)]
pub struct StatCounter {
    /// The counter's field.
    pub word: fn(&mut DriverStats) -> &mut u64,
    /// The Prometheus metric name.
    pub name: &'static str,
    /// The Prometheus help text.
    pub help: &'static str,
}

impl DriverStats {
    /// Every counter once, in checkpoint word order: a checkpoint writes
    /// and reads the first [`DriverStats::PERSISTED`], and `/metrics`
    /// renders them all. The two roster counters come last — computed
    /// live from attached stores, never persisted.
    pub const COUNTERS: [StatCounter; 19] = counters! {
        frames_sent => "flips_frames_sent_total", "Frames sent (downlink).";
        frames_received => "flips_frames_received_total", "Frames received (uplink).";
        bytes_sent => "flips_bytes_sent_total", "Bytes sent (downlink), as encoded.";
        bytes_received => "flips_bytes_received_total", "Bytes received (uplink).";
        corrupt_frames => "flips_corrupt_frames_total", "Frames that failed deframing.";
        codec_mismatch_frames => "flips_codec_mismatch_frames_total",
            "Model payloads disagreeing with the negotiated codec.";
        unknown_job_frames => "flips_unknown_job_frames_total",
            "Well-formed frames for a job nobody owns.";
        rejected_messages => "flips_rejected_messages_total", "Messages a coordinator bounced.";
        late_updates => "flips_late_updates_total", "Updates withheld past their round deadline.";
        oversized_frames => "flips_oversized_frames_total", "Frames dropped by the guard size cap.";
        rate_limited_frames => "flips_rate_limited_frames_total",
            "Frames refused by per-party rate limits.";
        breaker_dropped_frames => "flips_breaker_dropped_frames_total",
            "Frames dropped while a sender's breaker was open.";
        admission_refused_frames => "flips_admission_refused_frames_total",
            "Frames refused by per-round admission control.";
        parties_ejected => "flips_parties_ejected_total", "Breaker trips ejecting a party.";
        drain_refused_selections => "flips_drain_refused_selections_total",
            "Round opens refused while draining.";
        links_lost => "flips_links_lost_total",
            "Links whose peer died mid-run (slot parked for resume).";
        links_resumed => "flips_link_resumes_total",
            "Parked links a reconnecting peer re-attached to.";
        roster_spilled => "flips_roster_segments_spilled_total",
            "Roster segments sealed to the spill directory.";
        roster_loaded => "flips_roster_segments_loaded_total",
            "Spilled roster segments paged back into memory.";
    };

    /// How many leading [`DriverStats::COUNTERS`] a checkpoint persists.
    pub const PERSISTED: usize = 17;
}

/// The final snapshot a drained driver reports (see
/// [`MultiJobDriver::drain_report`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Wire counters at quiescence.
    pub stats: DriverStats,
    /// The virtual tick the driver reached.
    pub tick: u64,
    /// `(job id, rounds completed)` per registered job, ascending by id.
    pub rounds_completed: Vec<(u64, usize)>,
    /// Jobs that still have a round open — empty once the drain is
    /// complete ([`MultiJobDriver::is_quiescent`]).
    pub open_rounds: Vec<u64>,
}

/// Frames [`MultiJobDriver::pump`] reads ahead per decode worker.
const WINDOW_PER_WORKER: usize = 2;

/// An update frame decoded ahead of its turn, and the epoch of the
/// reference it decoded against.
struct Ahead {
    epoch: u64,
    decoded: Result<(u64, WireMessage), FlError>,
}

/// One job under the driver's management: its protocol state machine
/// and its straggler model.
struct JobState {
    coordinator: Coordinator,
    latency: Arc<LatencyModel>,
    stragglers: Stragglers,
}

/// The aggregator side of a serialized link: N coordinators multiplexed
/// over one [`Transport`].
///
/// Drive it with [`MultiJobDriver::start`], then alternate
/// [`MultiJobDriver::pump`] (while frames flow) and
/// [`MultiJobDriver::advance_clock`] (when the wire is quiet) until
/// [`MultiJobDriver::is_finished`] — or let [`crate::run_lockstep`] do exactly
/// that against its in-process [`crate::PartyPool`]s.
///
/// # Example
///
/// Serve one seeded job over two in-memory links — every message
/// crosses the wire as encoded bytes ([`crate::memory_wire`] is
/// [`crate::split`] + [`MultiJobDriver::install`] + one
/// [`crate::PartyPool::install`] per link; over a single link,
/// [`MultiJobDriver::add_parts`] and [`crate::PartyPool::add_job`] on a
/// [`crate::MemoryTransport::pair`] wire the same thing by hand):
///
/// ```
/// use flips_data::dataset::{balanced_test_set, generate_population};
/// use flips_data::{partition, DatasetProfile, PartitionStrategy};
/// use flips_fl::{
///     memory_wire, run_lockstep, FlJob, FlJobConfig, LocalTrainingConfig, WireOptions,
/// };
/// use flips_selection::RandomSelector;
///
/// let profile = DatasetProfile::femnist().scaled(6, 30);
/// let population = generate_population(&profile, profile.default_total_samples, 3);
/// let parts = partition(&population, 6, PartitionStrategy::Iid, 5, 3).unwrap();
/// let config = FlJobConfig {
///     rounds: 1,
///     parties_per_round: 2,
///     local: LocalTrainingConfig { epochs: 1, ..Default::default() },
///     ..FlJobConfig::new(profile.model.clone())
/// };
/// let selector = Box::new(RandomSelector::new(6, 3));
/// let job =
///     FlJob::new(parts.parties, balanced_test_set(&profile, 4, 3), config, selector).unwrap();
///
/// let id = job.coordinator().job_id();
/// let (mut driver, mut pools) =
///     memory_wire(vec![job.into_parts()], &WireOptions::new(2)).unwrap();
/// run_lockstep(&mut driver, &mut pools).unwrap();
/// assert_eq!(driver.history(id).unwrap().len(), 1);
/// ```
pub struct MultiJobDriver<T: Transport> {
    transport: T,
    /// Job id → state; `BTreeMap` so every sweep is in stable id order.
    jobs: BTreeMap<u64, JobState>,
    wheel: TimerWheel,
    stats: DriverStats,
    /// Per-link, per-job payload codec state (sender side of global
    /// models), one map per transport link: the delta reference is
    /// *link* state — two links of a multi-link wire see different
    /// frame subsets, so sharing one reference across links would desync
    /// the moment a broadcast skips a link (see [`Transport::links`]).
    /// Doubles as the per-link negotiation table: a link whose
    /// registered codec differs from the job-wide default
    /// ([`MultiJobDriver::set_link_codec`]) gets its selection notices
    /// rewritten to announce the link's codec.
    codecs: Vec<CodecMap>,
    /// Reused frame-encode scratch: grow-only, so the steady-state
    /// encode path performs no heap allocation.
    scratch: BytesMut,
    /// The inbound guard plane, if installed (see [`crate::guard`]).
    guard: Option<GuardPlane>,
    /// Graceful drain: open rounds finish, new opens are refused.
    draining: bool,
    started: bool,
    /// Deferred-open mode (strictly opt-in): a closed round queues its
    /// job here instead of reopening inline, so the caller can observe
    /// — and checkpoint — the round boundary before the next round's
    /// frames exist. See [`MultiJobDriver::set_deferred_opens`].
    deferred_opens: bool,
    /// Jobs whose next open is queued (close order; drained by
    /// [`MultiJobDriver::open_pending`]).
    pending_open: Vec<u64>,
    /// Roster stores attached for observability
    /// ([`MultiJobDriver::attach_roster`]); their spill/load counters
    /// surface through [`MultiJobDriver::stats`].
    rosters: Vec<std::sync::Arc<crate::RosterStore>>,
}

impl<T: Transport> std::fmt::Debug for MultiJobDriver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiJobDriver")
            .field("jobs", &self.jobs.len())
            .field("tick", &self.wheel.now())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<T: Transport> MultiJobDriver<T> {
    /// A driver over `transport` with no jobs yet.
    pub fn new(transport: T) -> Self {
        let links = transport.links().max(1);
        MultiJobDriver {
            transport,
            jobs: BTreeMap::new(),
            wheel: TimerWheel::new(),
            stats: DriverStats::default(),
            codecs: (0..links).map(|_| CodecMap::new(Role::Sender)).collect(),
            scratch: BytesMut::new(),
            guard: None,
            draining: false,
            started: false,
            deferred_opens: false,
            pending_open: Vec::new(),
            rosters: Vec::new(),
        }
    }

    /// Attaches a roster store so its spill/load traffic shows up in
    /// [`MultiJobDriver::stats`] (`roster_spilled` / `roster_loaded`,
    /// summed across attached stores). Observability only: selection
    /// reads the store through its own handle; the driver never touches
    /// the records. Counters are live — they are *not* checkpointed,
    /// and a restored run re-counts from its own store's zero.
    pub fn attach_roster(&mut self, roster: std::sync::Arc<crate::RosterStore>) {
        self.rosters.push(roster);
    }

    /// Installs (or replaces) the inbound guard plane (see
    /// [`crate::guard`] for the stage order and breaker semantics).
    /// Guard decisions are part of the seeded history, so the guard must
    /// be in place before [`MultiJobDriver::start`].
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] if `config` fails
    /// [`GuardConfig::validate`]; [`FlError::Protocol`] after
    /// [`MultiJobDriver::start`].
    pub fn set_guard(&mut self, config: GuardConfig) -> Result<(), FlError> {
        if self.started {
            return Err(FlError::Protocol("cannot install a guard on a started driver".into()));
        }
        self.guard = Some(GuardPlane::new(config)?);
        Ok(())
    }

    /// The installed guard plane (breaker states and the transition
    /// log), if any.
    pub fn guard(&self) -> Option<&GuardPlane> {
        self.guard.as_ref()
    }

    /// Enters graceful drain: every open round runs to its deadline
    /// normally, but no further round is opened — each refused open is
    /// counted in [`DriverStats::drain_refused_selections`]. Once no
    /// round remains open the driver is
    /// [`MultiJobDriver::is_quiescent`] and [`crate::run_lockstep`] returns
    /// with the partial histories intact.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Whether [`MultiJobDriver::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Whether a draining driver has reached quiescence: no job has a
    /// round open (each is either finished or was refused its next
    /// open). Always `false` unless draining.
    pub fn is_quiescent(&self) -> bool {
        self.draining
            && self
                .jobs
                .values()
                .all(|j| j.coordinator.is_finished() || j.coordinator.open_cohort().is_none())
    }

    /// The final snapshot of a drained driver — call once
    /// [`MultiJobDriver::is_quiescent`].
    pub fn drain_report(&self) -> DrainReport {
        DrainReport {
            stats: self.stats,
            tick: self.wheel.now(),
            rounds_completed: self
                .jobs
                .iter()
                .map(|(&id, j)| (id, j.coordinator.history().len()))
                .collect(),
            open_rounds: self
                .jobs
                .iter()
                .filter(|(_, j)| j.coordinator.open_cohort().is_some())
                .map(|(&id, _)| id)
                .collect(),
        }
    }

    /// Strikes the sender an undecodable frame *claims* to be from, when
    /// the claimed job is registered and corrupt-striking is enabled.
    /// Attribution is necessarily header-claimed — an attacker can frame
    /// another party — but a forger who can write arbitrary headers
    /// could impersonate that party outright anyway; the guard's
    /// trust boundary is the frame header, same as routing's.
    fn strike_claimed_sender(&mut self, job: Option<u64>, party: Option<u64>) {
        let Some(guard) = &mut self.guard else { return };
        if !guard.strikes_on_corrupt() {
            return;
        }
        if let (Some(job), Some(party)) = (job, party) {
            if self.jobs.contains_key(&job) {
                guard.strike(job, party);
            }
        }
    }

    /// Registers a job: its coordinator (which carries the job id every
    /// message is keyed by), its deadline clock, and the latency model
    /// the clock consults. Returns the job id.
    ///
    /// This is the injected-victim path; [`MultiJobDriver::add_parts`]
    /// routes a job to injected or latency-derived deadlines as its
    /// configuration asks.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] if the job id is already registered
    /// (two jobs seeded identically — re-seed one);
    /// [`FlError::Protocol`] after [`MultiJobDriver::start`].
    pub fn add_job(
        &mut self,
        coordinator: Coordinator,
        clock: Box<dyn Clock>,
        latency: Arc<LatencyModel>,
    ) -> Result<u64, FlError> {
        self.add_job_with(coordinator, Stragglers::new(clock, DeadlinePolicy::Injected)?, latency)
    }

    /// Registers a split [`crate::FlJob`] (see [`crate::FlJob::into_parts`]),
    /// under the deadline policy its configuration asks for, and
    /// returns the job id together with the endpoints the caller must
    /// hand to the party side ([`crate::PartyPool::add_job`]; a
    /// multi-link wire goes through [`crate::split`] instead).
    ///
    /// # Errors
    ///
    /// As [`MultiJobDriver::add_job`].
    pub fn add_parts(&mut self, parts: JobParts) -> Result<(u64, Vec<PartyEndpoint>), FlError> {
        let JobParts { coordinator, endpoints, clock, latency, deadline } = parts;
        let stragglers = Stragglers::new(Box::new(clock) as Box<dyn Clock>, deadline)?;
        let id = self.add_job_with(coordinator, stragglers, latency)?;
        Ok((id, endpoints))
    }

    fn add_job_with(
        &mut self,
        coordinator: Coordinator,
        stragglers: Stragglers,
        latency: Arc<LatencyModel>,
    ) -> Result<u64, FlError> {
        if self.started {
            return Err(FlError::Protocol("cannot add jobs to a started driver".into()));
        }
        let id = coordinator.job_id();
        if self.jobs.contains_key(&id) {
            return Err(FlError::InvalidConfig(format!("job id {id:#x} already registered")));
        }
        for link_codecs in &mut self.codecs {
            link_codecs.register(id, coordinator.codec());
        }
        self.jobs.insert(id, JobState { coordinator, latency, stragglers });
        Ok(id)
    }

    /// Opens round 0 of every job (in job-id order) and puts the first
    /// frames on the wire.
    ///
    /// # Errors
    ///
    /// [`FlError::Protocol`] on a second `start` or an empty job set;
    /// selection/transport failures propagate.
    pub fn start(&mut self) -> Result<(), FlError> {
        if self.started {
            return Err(FlError::Protocol("driver already started".into()));
        }
        if self.jobs.is_empty() {
            return Err(FlError::Protocol("no jobs registered".into()));
        }
        self.started = true;
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        for id in ids {
            self.open_next_round(id)?;
        }
        Ok(())
    }

    /// Whether every job has exhausted its round budget.
    pub fn is_finished(&self) -> bool {
        self.jobs.values().all(|j| j.coordinator.is_finished())
    }

    /// The registered job ids, ascending.
    pub fn job_ids(&self) -> Vec<u64> {
        self.jobs.keys().copied().collect()
    }

    /// A job's history so far.
    pub fn history(&self, job: u64) -> Option<&History> {
        self.jobs.get(&job).map(|j| j.coordinator.history())
    }

    /// A job's coordinator (inspection in tests/examples).
    pub fn coordinator(&self, job: u64) -> Option<&Coordinator> {
        self.jobs.get(&job).map(|j| &j.coordinator)
    }

    /// Wire/rejection counters, with roster spill/load counters summed
    /// live from the attached stores ([`MultiJobDriver::attach_roster`]).
    pub fn stats(&self) -> DriverStats {
        let mut stats = self.stats;
        for roster in &self.rosters {
            stats.roster_spilled += roster.spilled();
            stats.roster_loaded += roster.loaded();
        }
        stats
    }

    /// The underlying transport — e.g. to read a
    /// [`crate::ChaosTransport`]'s applied-action log after a run.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the underlying transport — a socket event
    /// loop reaches the links it flushes and probes through this.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// The codec a job was registered with — the job-wide default its
    /// coordinator announces. Individual links may override it
    /// ([`MultiJobDriver::set_link_codec`]); what a given link actually
    /// speaks is [`MultiJobDriver::link_codec_of`].
    pub fn codec_of(&self, job: u64) -> Option<ModelCodec> {
        self.jobs.get(&job).map(|j| j.coordinator.codec())
    }

    /// The codec `job`'s model frames travel with on `link` — the
    /// per-link override if one was set, the job-wide default otherwise.
    pub fn link_codec_of(&self, job: u64, link: usize) -> Option<ModelCodec> {
        self.codecs.get(link)?.codec_of(job)
    }

    /// Overrides the codec `job`'s model frames travel with on one
    /// specific transport link (see [`crate::Transport::links`]), leaving
    /// every other link on the job-wide default. This is per-link
    /// negotiation's sender half: when the overridden link's selection
    /// notices go out, [`MultiJobDriver`] rewrites the announced codec to
    /// the link's pinned one, so each link's parties negotiate exactly
    /// the codec their frames will travel with. Per-link reference state
    /// already exists (one [`CodecMap`] per link), so heterogeneous
    /// codecs on one job never share a delta reference.
    ///
    /// Like [`crate::PartyPool::pin_codec`], the pin is out-of-band
    /// configuration: both sides must agree (the wire plan hands one
    /// table to both — see [`crate::WireOptions::link_codecs`]),
    /// and a wire notice can never renegotiate it.
    ///
    /// # Errors
    ///
    /// [`FlError::Protocol`] after [`MultiJobDriver::start`];
    /// [`FlError::InvalidConfig`] for an unregistered job or a link index
    /// the transport does not have.
    pub fn set_link_codec(
        &mut self,
        job: u64,
        link: usize,
        codec: ModelCodec,
    ) -> Result<(), FlError> {
        if self.started {
            return Err(FlError::Protocol(
                "cannot change a link's codec on a started driver".into(),
            ));
        }
        if !self.jobs.contains_key(&job) {
            return Err(FlError::InvalidConfig(format!("job id {job:#x} not registered")));
        }
        let links = self.codecs.len();
        let Some(link_codecs) = self.codecs.get_mut(link) else {
            return Err(FlError::InvalidConfig(format!(
                "link {link} out of range: transport has {links}"
            )));
        };
        link_codecs.register(job, codec);
        Ok(())
    }

    /// The current virtual tick.
    pub fn tick(&self) -> u64 {
        self.wheel.now()
    }

    /// Drains every frame currently available on the transport, routing
    /// each decoded message to its job's coordinator and sending the
    /// resulting effects. Rounds that complete early (full cohort
    /// delivered) close and reopen inline.
    ///
    /// Frames are read a small window at a time (a few per core, never a
    /// whole drain, so a flood holds no more decoded models than that).
    /// The window's delta-codec updates that pass the guard's size cap
    /// decode first, one worker per frame, each against its link's
    /// read-only reference; then every frame of the window takes its
    /// turn in arrival order, exactly as if read alone. A frame whose
    /// `(link, job)` reference moved since its decode (a round closed
    /// earlier in the window) decodes again in its turn, so nothing
    /// depends on the worker count. Raw and f16 updates decode in their
    /// turn: their codec is a copy.
    ///
    /// Returns whether any frame was processed — pump until `false`
    /// (the wire is quiet), then [`MultiJobDriver::advance_clock`].
    ///
    /// # Errors
    ///
    /// Transport failures and coordinator aggregation/evaluation
    /// failures propagate. Corrupt frames and unknown job ids do *not* —
    /// they are counted in [`DriverStats`] and dropped, leaving every
    /// job's round state untouched.
    pub fn pump(&mut self) -> Result<bool, FlError> {
        self.pump_on(flips_ml::parallel::threads(usize::MAX))
    }

    /// [`MultiJobDriver::pump`], decoding on at most `workers` threads.
    fn pump_on(&mut self, workers: usize) -> Result<bool, FlError> {
        let mut progressed = false;
        let mut window = Vec::new();
        loop {
            let mut failed = None;
            while window.len() < WINDOW_PER_WORKER * workers {
                match self.transport.try_recv_tagged() {
                    Ok(Some(frame)) => window.push(frame),
                    Ok(None) => break,
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            // A transport failure ends the pump once the frames read
            // before it have had their turn.
            if window.is_empty() {
                return failed.map_or(Ok(progressed), Err);
            }
            progressed = true;
            let decoded = self.decode_ahead(&window, workers);
            for ((link, raw), decoded) in window.drain(..).zip(decoded) {
                self.take_frame(link, raw, decoded)?;
            }
            if let Some(e) = failed {
                return Err(e);
            }
        }
    }

    /// Decodes the delta-codec updates of `window` that pass the size
    /// cap on up to `workers` threads: each frame's result with the
    /// epoch of the reference it decoded against, `None` for every
    /// other frame. One worker decodes nothing ahead.
    fn decode_ahead(&mut self, window: &[(usize, Bytes)], workers: usize) -> Vec<Option<Ahead>> {
        let mut ahead: Vec<Option<Ahead>> = window.iter().map(|_| None).collect();
        let mut work = Vec::new();
        for (i, (link, raw)) in window.iter().enumerate() {
            let (Some(map), Some(job)) = (self.codecs.get(*link), frame_job_of(raw)) else {
                continue;
            };
            let codec = map.get(job);
            if frame_is_update(raw)
                && codec.codec().tracks_reference()
                && self.guard.as_ref().is_none_or(|g| g.frame_len_ok(raw.len()))
            {
                work.push((i, *link, job, raw.clone()));
            }
        }
        let workers = workers.min(work.len());
        if workers <= 1 {
            return ahead;
        }
        // One scratch per worker, sized here (a buffer a worker first
        // sizes stays in its thread's allocator arena) and held for this
        // window only, so the pool's turn can reuse the memory.
        let mut scratches: Vec<CodecScratch> = (0..workers).map(|_| Default::default()).collect();
        for &(_, link, job, _) in &work {
            let codec = self.codecs[link].get(job);
            let n = codec.reference_snapshot().map_or(0, |(_, params)| params.len());
            for scratch in &mut scratches {
                scratch.reserve_decode(codec.codec(), n);
            }
        }
        let codecs = &self.codecs;
        let done =
            flips_ml::parallel::map_with(work, &mut scratches, |scratch, (i, link, job, raw)| {
                let decoded = deframe_update(raw, &codecs[link], scratch);
                (i, Ahead { epoch: codecs[link].get(job).epoch(), decoded })
            });
        for (i, decoded) in done {
            ahead[i] = Some(decoded);
        }
        ahead
    }

    /// One frame's turn: guard, decode (unless decoded ahead against the
    /// reference still in place), late-update judgment, coordinator.
    fn take_frame(&mut self, link: usize, raw: Bytes, ahead: Option<Ahead>) -> Result<(), FlError> {
        self.stats.frames_received += 1;
        self.stats.bytes_received += raw.len() as u64;
        // Guard stage 1 — size cap, before any decode work touches
        // the payload. The claimed sender is struck like a corrupt
        // frame's: an oversized frame is hostile framing either way.
        if let Some(guard) = &self.guard {
            if !guard.frame_len_ok(raw.len()) {
                self.stats.oversized_frames += 1;
                let (job, party) = (frame_job_of(&raw), frame_party_of(&raw));
                self.strike_claimed_sender(job, party);
                return Ok(());
            }
        }
        let peeked_job = frame_job_of(&raw);
        let peeked_party = frame_party_of(&raw);
        let Some(link_codecs) = self.codecs.get_mut(link) else {
            return Err(FlError::Transport(format!(
                "transport tagged a frame with link {link}, but only {} exist",
                self.codecs.len()
            )));
        };
        let decoded = match ahead {
            Some(Ahead { epoch, decoded })
                if peeked_job.is_some_and(|job| link_codecs.get(job).epoch() == epoch) =>
            {
                decoded
            }
            _ => deframe_with(raw, link_codecs),
        };
        let msg = match decoded {
            Ok((AGGREGATOR_DEST, msg)) => msg,
            // A party-addressed frame on the uplink is misrouted;
            // treat like any other malformed traffic.
            Ok(_) | Err(FlError::Codec(_)) => {
                self.stats.corrupt_frames += 1;
                self.strike_claimed_sender(peeked_job, peeked_party);
                return Ok(());
            }
            Err(FlError::CodecMismatch(_)) => {
                // A compressed frame for a job nobody owns fails
                // the raw-fallback tag check before it can reach
                // the unknown-job check below — attribute it to
                // the routing counter, not the codec one.
                if peeked_job.is_some_and(|j| self.jobs.contains_key(&j)) {
                    self.stats.codec_mismatch_frames += 1;
                    self.strike_claimed_sender(peeked_job, peeked_party);
                } else {
                    self.stats.unknown_job_frames += 1;
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let job_id = msg.job();
        let Some(state) = self.jobs.get_mut(&job_id) else {
            self.stats.unknown_job_frames += 1;
            return Ok(());
        };
        // Guard stages 2–4 — breaker, rate limit, admission — for
        // any message claiming a sender. The checks run in that
        // order: an ejected party's traffic never consumes tokens or
        // admission budget, and a rate-limited frame never consumes
        // admission budget. All three verdicts are pure functions of
        // the per-party frame sequence and round opens, so they are
        // identical under any transport interleaving that preserves
        // per-party order.
        if let Some(guard) = &mut self.guard {
            let party = match &msg {
                WireMessage::LocalUpdate { party, .. }
                | WireMessage::Heartbeat { party, .. }
                | WireMessage::Abort { party, .. } => Some(*party),
                _ => None,
            };
            if let Some(party) = party {
                let kind = if matches!(msg, WireMessage::LocalUpdate { .. }) {
                    FrameKind::Update
                } else {
                    FrameKind::Control
                };
                match guard.admit(job_id, party, kind) {
                    FrameVerdict::Admit => {}
                    FrameVerdict::BreakerOpen => {
                        self.stats.breaker_dropped_frames += 1;
                        return Ok(());
                    }
                    FrameVerdict::RateLimited => {
                        self.stats.rate_limited_frames += 1;
                        return Ok(());
                    }
                    FrameVerdict::RoundFull => {
                        self.stats.admission_refused_frames += 1;
                        return Ok(());
                    }
                }
            }
        }
        // A late update is withheld — the wheel will close its sender
        // out as a straggler. Every copy is withheld (a redelivered
        // late update reaching the coordinator would be *accepted* —
        // the party is still pending), but only the first counts, so
        // `late_updates` equals the straggler count under
        // at-least-once delivery too. (Counted, never a breaker
        // strike: see `guard`.)
        if let WireMessage::LocalUpdate { round, party, duration, .. } = &msg {
            let (pid, coordinator) = (*party as PartyId, &state.coordinator);
            let in_open_round = || {
                coordinator.round() as u64 == *round
                    && coordinator.open_cohort().is_some_and(|c| c.contains(&pid))
            };
            if let Arrival::Late { first } = state.stragglers.judge(pid, *duration, in_open_round) {
                self.stats.late_updates += u64::from(first);
                return Ok(());
            }
        }
        let effects = state.coordinator.handle(Event::UpdateReceived(msg))?;
        self.apply_effects(job_id, effects)?;
        Ok(())
    }

    /// Advances the timer wheel to the next live deadline and fires it
    /// (plus any stale entries for rounds that already closed early,
    /// which are skipped harmlessly). Call only when the wire is quiet —
    /// [`MultiJobDriver::pump`] returned `false` and the peer has
    /// nothing in flight — or simulated time will overtake in-flight
    /// frames.
    ///
    /// Returns whether any deadline fired; `false` means the wheel is
    /// empty (every job finished, or nothing was started).
    ///
    /// # Errors
    ///
    /// Aggregation/evaluation/selection and transport failures
    /// propagate.
    pub fn advance_clock(&mut self) -> Result<bool, FlError> {
        while let Some(entries) = self.wheel.advance() {
            let mut fired = false;
            for Deadline { job, round } in entries {
                let Some(state) = self.jobs.get_mut(&job) else { continue };
                // Stale entry: the round closed early (or the job
                // finished) before its deadline came up.
                let live = state.coordinator.open_cohort().is_some()
                    && state.coordinator.round() as u64 == round;
                if !live {
                    continue;
                }
                fired = true;
                let effects = state.coordinator.handle(Event::DeadlineExpired)?;
                self.apply_effects(job, effects)?;
            }
            if fired {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Executes a batch of coordinator effects: sends go on the wire
    /// (encoded + framed), rejections are counted, and a closed round
    /// immediately opens the job's next one.
    fn apply_effects(&mut self, job_id: u64, effects: Vec<Effect>) -> Result<(), FlError> {
        let mut reopen = false;
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => self.send_to_party(to, &msg)?,
                Effect::Rejected { party, reason, .. } => {
                    self.stats.rejected_messages += 1;
                    // A coordinator bounce is breaker evidence — except a
                    // duplicate, which is exactly what an at-least-once
                    // transport legitimately redelivers.
                    if reason != RejectReason::DuplicateUpdate {
                        if let (Some(guard), Some(p)) = (&mut self.guard, party) {
                            guard.strike(job_id, p as u64);
                        }
                    }
                }
                Effect::RoundClosed(_) => reopen = true,
                Effect::JobFinished(_) => {}
            }
        }
        if reopen {
            if self.deferred_opens {
                self.pending_open.push(job_id);
            } else {
                self.open_next_round(job_id)?;
            }
        }
        Ok(())
    }

    /// Opens a job's next round (unless finished): runs selection,
    /// resolves this round's deadline, schedules it on the wheel, and
    /// sends the round's frames — except the model, to every party the
    /// job's `Stragglers` withholds (work whose result never arrives
    /// is not simulated).
    fn open_next_round(&mut self, job_id: u64) -> Result<(), FlError> {
        let state = self.jobs.get_mut(&job_id).expect("job registered");
        if state.coordinator.is_finished() {
            return Ok(());
        }
        if self.draining {
            self.stats.drain_refused_selections += 1;
            return Ok(());
        }
        let round = state.coordinator.round() as u64;
        let effects = state.coordinator.open_round()?;
        let selected: Vec<PartyId> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg: WireMessage::SelectionNotice { .. } } => Some(*to),
                _ => None,
            })
            .collect();
        let (mut victims, deadline_ticks) = state.stragglers.open(&selected, &state.latency);
        // Guard stage 5 — breaker evaluation at the deterministic point.
        // A round open is the one moment every execution mode reaches in
        // the same order with the same accumulated strikes, so breaker
        // transitions here are arrival-order-independent. An ejected
        // party is treated exactly like an injected victim: its model is
        // withheld and the round closes it out as a straggler, which is
        // what makes ejection equivalence testable against a
        // [`crate::ScriptedClock`] reference run.
        if let Some(guard) = &mut self.guard {
            let outcome = guard.on_round_open(job_id, &selected);
            self.stats.parties_ejected += u64::from(outcome.tripped);
            victims.extend(outcome.ejected);
        }
        self.wheel.schedule(deadline_ticks, Deadline { job: job_id, round });
        for effect in effects {
            let Effect::Send { to, msg } = effect else { continue };
            if victims.contains(&to) && matches!(msg, WireMessage::GlobalModel { .. }) {
                continue; // misses the deadline; never simulated
            }
            self.send_to_party(to, &msg)?;
        }
        Ok(())
    }

    /// Switches round reopening to deferred mode: a closed round queues
    /// its job on [`MultiJobDriver::open_pending`] instead of opening the
    /// next round inline, exposing the round boundary to the caller
    /// (the checkpoint hook). Opens still happen in close order, after
    /// the pump drains — chaos indices and seeded histories are
    /// unchanged, because chaos draws only against uplink frames and the
    /// uplink order is preserved.
    ///
    /// # Errors
    ///
    /// [`FlError::Protocol`] after [`MultiJobDriver::start`].
    pub fn set_deferred_opens(&mut self, deferred: bool) -> Result<(), FlError> {
        if self.started {
            return Err(FlError::Protocol("cannot change open mode on a started driver".into()));
        }
        self.deferred_opens = deferred;
        Ok(())
    }

    /// Whether any job's next round open is queued (deferred mode only).
    pub fn has_pending_opens(&self) -> bool {
        !self.pending_open.is_empty()
    }

    /// Opens every queued round (close order) and sends its frames.
    ///
    /// # Errors
    ///
    /// Selection and transport failures propagate.
    pub fn open_pending(&mut self) -> Result<(), FlError> {
        let pending = std::mem::take(&mut self.pending_open);
        for job_id in pending {
            self.open_next_round(job_id)?;
        }
        Ok(())
    }

    /// Whether every job sits at a round boundary (no round open) — the
    /// only state a [`MultiJobDriver::checkpoint`] can capture.
    pub fn at_round_boundary(&self) -> bool {
        self.jobs.values().all(|j| j.coordinator.open_cohort().is_none())
    }

    /// The transport lost a link's peer; its slot state was parked. Pure
    /// accounting — the net runtime calls this when it detects link
    /// death.
    pub fn note_link_lost(&mut self) {
        self.stats.links_lost += 1;
    }

    /// A parked link's peer reconnected and resumed its session.
    pub fn note_link_resumed(&mut self) {
        self.stats.links_resumed += 1;
    }

    /// A party left `job` for good: the coordinator stops selecting it
    /// (closing it out of any open round as a straggler) and its guard
    /// state — breaker, strikes, rate-limit bucket — retires with it.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] for an unregistered job; close/reopen
    /// failures propagate (departure can complete an open round).
    pub fn party_left(&mut self, job: u64, party: PartyId) -> Result<(), FlError> {
        let Some(state) = self.jobs.get_mut(&job) else {
            return Err(FlError::InvalidConfig(format!("job id {job:#x} not registered")));
        };
        let effects = state.coordinator.handle(Event::PartyLeft(party))?;
        if let Some(guard) = &mut self.guard {
            guard.retire(job, party as u64);
        }
        self.apply_effects(job, effects)
    }

    /// A departed roster slot rejoined `job`: eligible again at the next
    /// round open, with fresh guard state (like a first-seen party).
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] for an unregistered job.
    pub fn party_joined(&mut self, job: u64, party: PartyId) -> Result<(), FlError> {
        let Some(state) = self.jobs.get_mut(&job) else {
            return Err(FlError::InvalidConfig(format!("job id {job:#x} not registered")));
        };
        let effects = state.coordinator.handle(Event::PartyJoined(party))?;
        self.apply_effects(job, effects)
    }

    /// Captures a [`Checkpoint`] of the whole coordinator plane at a
    /// round boundary: per-job protocol state (model, optimizer,
    /// roster mask, history + feedback tapes, observed-latency store),
    /// the wire counters and virtual tick, the guard plane, and every
    /// link's delta-codec reference.
    ///
    /// # Errors
    ///
    /// [`FlError::Protocol`] unless every job is at a round boundary
    /// (checkpoints of half-open rounds cannot restore bit-identically —
    /// in-flight frames are not capturable state).
    pub fn checkpoint(&self) -> Result<Checkpoint, FlError> {
        if !self.at_round_boundary() {
            return Err(FlError::Protocol(
                "checkpoint requires a round boundary (a round is open)".into(),
            ));
        }
        let jobs = self
            .jobs
            .iter()
            .map(|(&id, state)| JobSnapshot {
                job: id,
                global: state.coordinator.global_params().to_vec(),
                optimizer: state.coordinator.export_optimizer(),
                active: state.coordinator.active_mask().to_vec(),
                history: state.coordinator.history().records().to_vec(),
                feedback: state.coordinator.feedback_log().to_vec(),
                observed: state.stragglers.snapshot(),
            })
            .collect();
        let mut codec_refs = Vec::new();
        for (link, map) in self.codecs.iter().enumerate() {
            for (job, ref_round, params) in map.reference_snapshots() {
                codec_refs.push(CodecRefSnapshot { link: link as u32, job, ref_round, params });
            }
        }
        Ok(Checkpoint {
            tick: self.wheel.now(),
            draining: self.draining,
            stats: self.stats,
            jobs,
            guard: self.guard.as_ref().map(|g| g.state().clone()),
            codec_refs,
        })
    }

    /// Restores a freshly-built driver (same jobs, same guard config,
    /// same transport shape) to a checkpointed round boundary. After
    /// this, [`MultiJobDriver::start`] opens each unfinished job's next
    /// round exactly as the uninterrupted run would have — same
    /// selections, same victims, same deadline ticks, and (via the
    /// re-keyed per-link references) the same encoded bytes.
    ///
    /// # Errors
    ///
    /// [`FlError::Protocol`] on a started driver;
    /// [`FlError::InvalidConfig`] when the snapshot does not fit this
    /// driver's configuration (job set, straggler models, guard
    /// presence, link count, codec kinds, model shapes). On error the
    /// driver must be discarded — selectors may be partially replayed.
    pub fn restore(&mut self, cp: &Checkpoint) -> Result<(), FlError> {
        if self.started {
            return Err(FlError::Protocol("cannot restore a started driver".into()));
        }
        let snapshot_ids: Vec<u64> = cp.jobs.iter().map(|j| j.job).collect();
        let registered: Vec<u64> = self.jobs.keys().copied().collect();
        if snapshot_ids != registered {
            return Err(FlError::InvalidConfig(format!(
                "checkpoint covers jobs {snapshot_ids:x?}, driver has {registered:x?}"
            )));
        }
        match (&self.guard, &cp.guard) {
            (Some(_), Some(_)) | (None, None) => {}
            (Some(_), None) => {
                return Err(FlError::InvalidConfig(
                    "driver has a guard plane but the checkpoint carries none".into(),
                ));
            }
            (None, Some(_)) => {
                return Err(FlError::InvalidConfig(
                    "checkpoint carries guard state but no guard is installed".into(),
                ));
            }
        }
        for snap in &cp.jobs {
            let state = self.jobs.get_mut(&snap.job).expect("id sets match");
            state.coordinator.restore(
                snap.history.clone(),
                snap.feedback.clone(),
                snap.global.clone(),
                &snap.optimizer,
                &snap.active,
            )?;
            state.stragglers.restore(snap.observed.clone(), &snap.history, &state.latency)?;
        }
        if let (Some(guard), Some(snap)) = (&mut self.guard, &cp.guard) {
            guard.restore(snap.clone());
        }
        for r in &cp.codec_refs {
            let links = self.codecs.len();
            let Some(map) = self.codecs.get_mut(r.link as usize) else {
                return Err(FlError::InvalidConfig(format!(
                    "checkpoint re-keys link {}, transport has {links}",
                    r.link
                )));
            };
            if !map.seed_reference(r.job, r.ref_round, &r.params) {
                return Err(FlError::InvalidConfig(format!(
                    "cannot re-key job {:#x} on link {}: codec keeps no reference or shape differs",
                    r.job, r.link
                )));
            }
        }
        self.stats = cp.stats;
        self.draining = cp.draining;
        self.wheel.now = cp.tick;
        Ok(())
    }

    fn send_to_party(&mut self, to: PartyId, msg: &WireMessage) -> Result<(), FlError> {
        // Encode with the job's negotiated codec — against the codec
        // state of the link this frame will travel on — into the reused
        // scratch: zero allocation once the scratch has warmed up.
        let link = self.transport.link_for(msg.job(), to as u64);
        let Some(link_codecs) = self.codecs.get_mut(link) else {
            // Same contract violation `pump` hard-errors on: encoding
            // against the wrong link's CodecMap would silently desync
            // the delta reference, which is far worse than failing.
            return Err(FlError::Transport(format!(
                "transport routed a frame to link {link}, but only {} exist",
                self.codecs.len()
            )));
        };
        // Per-link negotiation: the coordinator announces its job-wide
        // codec, but this link may pin a different one — rewrite the
        // notice so every party negotiates the codec its link actually
        // speaks.
        if let WireMessage::SelectionNotice { job, round, party, codec } = msg {
            let pinned = link_codecs.codec_of(*job);
            if let Some(pinned) = pinned.filter(|p| p != codec) {
                let adjusted = WireMessage::SelectionNotice {
                    job: *job,
                    round: *round,
                    party: *party,
                    codec: pinned,
                };
                frame_into(to as u64, &adjusted, link_codecs.for_job(*job), &mut self.scratch);
                self.stats.frames_sent += 1;
                self.stats.bytes_sent += self.scratch.len() as u64;
                return self.transport.send(self.scratch.as_slice());
            }
        }
        frame_into(to as u64, msg, link_codecs.for_job(msg.job()), &mut self.scratch);
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += self.scratch.len() as u64;
        self.transport.send(self.scratch.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::PayloadCodec;
    use crate::guard::BreakerTransition;
    use crate::message::FRAME_HEADER;
    use crate::plan::{place, split};
    use crate::transport::{MemoryRouter, MemoryTransport};
    use crate::{FlJob, FlJobConfig, LocalTrainingConfig, PartyPool, WireOptions};
    use flips_data::dataset::{balanced_test_set, generate_population};
    use flips_data::DatasetProfile;
    use flips_selection::RandomSelector;
    use std::collections::VecDeque;

    /// The driver end of a memory wire, slipping scripted frames into
    /// the uplink right behind the frame that prompted them.
    struct Tap<F> {
        inner: MemoryRouter,
        script: F,
        pending: VecDeque<(usize, Bytes)>,
    }

    impl<F: FnMut(usize, &[u8]) -> Vec<(usize, Bytes)>> Transport for Tap<F> {
        fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
            self.inner.send(frame)
        }

        fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
            Ok(self.try_recv_tagged()?.map(|(_, frame)| frame))
        }

        fn links(&self) -> usize {
            self.inner.links()
        }

        fn link_for(&self, job: u64, dest: u64) -> usize {
            self.inner.link_for(job, dest)
        }

        fn try_recv_tagged(&mut self) -> Result<Option<(usize, Bytes)>, FlError> {
            if let Some(frame) = self.pending.pop_front() {
                return Ok(Some(frame));
            }
            let frame = self.inner.try_recv_tagged()?;
            if let Some((link, frame)) = &frame {
                self.pending.extend((self.script)(*link, frame));
            }
            Ok(frame)
        }
    }

    /// Ten parties of 2–240 samples, four a round, no stragglers.
    fn job(seed: u64, codec: ModelCodec) -> JobParts {
        let profile = DatasetProfile::femnist().scaled(10, 30);
        let sizes = [3usize, 180, 7, 64, 2, 240, 15, 96, 5, 120];
        let datasets = (0..).zip(sizes).map(|(i, n)| generate_population(&profile, n, i)).collect();
        let config = FlJobConfig {
            rounds: 4,
            parties_per_round: 4,
            codec,
            local: LocalTrainingConfig { epochs: 1, batch_size: 16, ..Default::default() },
            seed,
            ..FlJobConfig::new(profile.model.clone())
        };
        let test = balanced_test_set(&profile, 10, 11);
        let selector = Box::new(RandomSelector::new(10, seed));
        FlJob::new(datasets, test, config, selector).unwrap().into_parts()
    }

    /// A DeltaEntropy update whose params block is the all-zero delta:
    /// it decodes to whatever reference its link holds for `job`.
    fn zero_update(job: u64, round: u64, party: u64, n: usize) -> Bytes {
        let params = vec![0.0; n];
        let mut codec = PayloadCodec::new(ModelCodec::DeltaEntropy, Role::Receiver);
        assert!(codec.force_reference(0, &params));
        let msg = WireMessage::LocalUpdate {
            job,
            round,
            party,
            num_samples: 5,
            mean_loss: 0.5,
            duration: 0.1,
            params,
        };
        let mut out = BytesMut::new();
        frame_into(AGGREGATOR_DEST, &msg, &mut codec, &mut out);
        Bytes::from(out.as_slice().to_vec())
    }

    /// DeltaEntropy, Raw and TopK jobs on two guarded links, with
    /// scripted uplink frames, driven to the end on `workers` decode
    /// workers: every history, the counters and the breaker log.
    fn run_on(workers: usize) -> (Vec<History>, DriverStats, Vec<BreakerTransition>) {
        let jobs: Vec<JobParts> =
            [(1, ModelCodec::DeltaEntropy), (2, ModelCodec::Raw), (3, ModelCodec::TopK { k: 64 })]
                .into_iter()
                .map(|(seed, codec)| job(seed, codec))
                .collect();
        let delta = jobs[0].coordinator.job_id();
        let n = jobs[0].endpoints[0].party().num_params();
        let cap = 4 * n + 256;
        let guard = GuardConfig { max_frame_bytes: cap, ..GuardConfig::default() };
        let wire = WireOptions { guard: Some(guard), ..WireOptions::new(2) };
        let (jobs, shares) = split(jobs, &wire).unwrap();

        // Round 1 of the delta job: behind its first update, a truncated
        // copy and a copy padded past the size cap; behind the update
        // completing its cohort, every party's all-zero delta for round
        // 2 on that party's link — round 2's cohort is seated by them,
        // decoded against the reference round 2's open just moved.
        let mut seen = BTreeMap::<u64, usize>::new();
        let script = move |link: usize, frame: &[u8]| -> Vec<(usize, Bytes)> {
            if !frame_is_update(frame) || frame_job_of(frame) != Some(delta) {
                return Vec::new();
            }
            // dest ‖ magic ‖ tag ‖ job ‖ round
            let round = frame[FRAME_HEADER + 13..FRAME_HEADER + 21].try_into().unwrap();
            let count = seen.entry(u64::from_le_bytes(round)).or_default();
            *count += 1;
            match (u64::from_le_bytes(round), *count) {
                (1, 1) => {
                    let mut long = frame.to_vec();
                    long.resize(cap + 1, 0);
                    let short = frame[..frame.len() - 1].to_vec();
                    vec![(link, Bytes::from(short)), (link, Bytes::from(long))]
                }
                (1, 4) => (0..10).map(|p| (place(p, 2), zero_update(delta, 2, p, n))).collect(),
                _ => Vec::new(),
            }
        };
        let (driver_ends, pool_ends): (Vec<_>, Vec<_>) =
            shares.iter().map(|_| MemoryTransport::pair()).unzip();
        let tap = Tap { inner: MemoryRouter::new(driver_ends), script, pending: VecDeque::new() };
        let mut driver = MultiJobDriver::install(tap, jobs, &wire).unwrap();
        let mut pools: Vec<_> = pool_ends
            .into_iter()
            .zip(shares)
            .map(|(end, share)| PartyPool::install(end, share, wire.guard.as_ref()))
            .collect();

        driver.start().unwrap();
        while !driver.is_finished() {
            loop {
                let mut progressed = driver.pump_on(workers).unwrap();
                for pool in &mut pools {
                    progressed |= pool.pump().unwrap();
                }
                if !progressed {
                    break;
                }
            }
            if !driver.is_finished() {
                assert!(driver.advance_clock().unwrap(), "stalled");
            }
        }
        let histories =
            driver.job_ids().into_iter().map(|j| driver.history(j).unwrap().clone()).collect();
        let transitions = driver.guard().unwrap().transitions().to_vec();
        (histories, driver.stats(), transitions)
    }

    #[test]
    fn every_worker_count_decodes_the_same() {
        let (histories, stats, transitions) = run_on(1);
        assert!(histories.iter().all(|h| h.len() == 4), "every job ran its budget");
        assert_eq!(stats.oversized_frames, 1, "the padded copy");
        assert_eq!(stats.corrupt_frames, 1, "the truncated copy");
        assert!(stats.rejected_messages >= 6, "the zero updates of unselected parties");
        for workers in [2, 3, 8] {
            let (h, s, t) = run_on(workers);
            assert!(h == histories, "{workers} workers: histories differ");
            assert_eq!(s, stats, "{workers} workers");
            assert_eq!(t, transitions, "{workers} workers");
        }
    }

    #[test]
    fn empty_driver_refuses_to_start() {
        let (a, _b) = MemoryTransport::pair();
        let mut driver = MultiJobDriver::new(a);
        assert!(matches!(driver.start(), Err(FlError::Protocol(_))));
    }

    #[test]
    fn link_codec_overrides_validate_job_and_link() {
        let (a, _b) = MemoryTransport::pair();
        let mut driver = MultiJobDriver::new(a);
        // Unknown job: refused before any link state is touched.
        assert!(matches!(
            driver.set_link_codec(7, 0, ModelCodec::DeltaEntropy),
            Err(FlError::InvalidConfig(_))
        ));
        assert_eq!(driver.link_codec_of(7, 0), None);
        assert_eq!(driver.codec_of(7), None);
    }
}
