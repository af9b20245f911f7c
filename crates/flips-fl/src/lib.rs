//! # flips-fl — the federated-learning runtime
//!
//! A policy-agnostic FL aggregator in the mold the paper describes (§2),
//! built **sans-IO**: round policy is a pure state machine that consumes
//! protocol events and emits effects, and everything that touches the
//! outside world (transport, clocks, training schedulers) lives in a
//! driver. Each round, the coordinator *selects* participants (through
//! any [`flips_selection::ParticipantSelector`]), *dispatches* the global
//! model as wire messages, parties *train locally* (Algorithm 1,
//! participant side), updates are *collected* until the round deadline —
//! parties that miss it close as stragglers — then *aggregated*, and the
//! server optimizer advances the global model.
//!
//! Modules:
//!
//! - [`config`] — FL algorithms (FedAvg, FedProx, FedYogi, FedAdam,
//!   FedAdagrad) and job/local-training configuration;
//! - [`message`] — the wire protocol with exact byte accounting (the
//!   paper's communication-cost metric);
//! - [`codec`] — pluggable, per-link negotiated model-payload codecs
//!   (raw f32, bit-exact XOR-delta compression with an optional rANS
//!   entropy stage, lossy top-k sparsification, opt-in f16) and the
//!   reference-model state both ends of a wire share;
//! - [`rans`] — the hand-rolled static-model range coder behind the
//!   entropy stage;
//! - [`mod@format`] — the format layer: the one bounded reader (and its
//!   `put_*` twins) every decoder of untrusted bytes here sits on;
//! - [`events`] — the [`Event`]/[`Effect`] vocabulary of the sans-IO
//!   protocol;
//! - [`coordinator`] — the aggregator-side protocol state machine
//!   (selection, round open/close, duplicate rejection, aggregation,
//!   evaluation, selector feedback) — no I/O, clocks or training;
//! - [`endpoint`] — the party-side protocol state machine
//!   (`GlobalModel` in, `LocalUpdate` out);
//! - [`party`] — participant-side local training;
//! - [`latency`] — the platform-heterogeneity model (per-party speeds);
//! - [`straggler`] — the simulation's deadline model: one
//!   `Stragglers` per job, held by both drivers, decides who misses
//!   each round's deadline — the paper's injected 10%/20% straggler
//!   regimes or a deadline derived from observed latency;
//! - [`server`] — update aggregation and server optimizers;
//! - [`history`] — per-round records and the metrics the paper's tables
//!   report (rounds-to-target, peak accuracy, bytes transferred);
//! - [`aggregator`] — the in-process driver pumping coordinator and
//!   endpoints;
//! - [`transport`] — length-prefix framing over byte streams (a TCP
//!   socket or the in-memory [`transport::duplex`] pipe) and its
//!   multi-link router: every message crosses as encoded bytes;
//! - [`driver`] — the serialized-transport driver: a
//!   [`driver::MultiJobDriver`] multiplexing many concurrent jobs over
//!   one transport, on the deterministic [`wheel::TimerWheel`];
//! - [`pool`] — the [`pool::PartyPool`] serving the party side of that
//!   wire (and folding it, in aggregation-tree mode), and
//!   [`run_lockstep`], the loop that runs a driver and its pools — one
//!   per link — to completion on one thread (training and the
//!   delta-codec uplink fan out);
//! - [`plan`] — the wire plan: party placement, per-link codecs and tree
//!   mode decided once ([`plan::WireOptions`], [`plan::split`]) and
//!   installed on both wire ends ([`plan::memory_wire`] does it over
//!   in-memory links);
//! - [`guard`] — the deterministic inbound guard plane: per-party
//!   token-bucket rate limits, circuit breakers ejecting chronically
//!   hostile parties, per-round admission control, and graceful drain —
//!   all driven by round opens, never by wall clocks;
//! - [`chaos`] — the seeded fault-injection harness: a replayable
//!   schedule of drop/duplicate/corrupt/delay/flood actions applied at
//!   the transport seam, for exercising the guard plane (and everything
//!   above it) deterministically.
//!
//! One thread moves every frame; three kinds of work fan out through
//! `flips_ml::parallel`. [`FlJob`] and each [`PartyPool`] train a
//! round's cohort on one worker per core, through the same cohort
//! trainer. Each pool worker also encodes the delta-codec updates it
//! trains. The [`MultiJobDriver`] decodes a few delta-codec update
//! frames at a time, one worker per frame, before it takes them in
//! arrival order. Raw and f16 payloads, whose codec is a copy, stay on
//! the one thread. Protocol frames cross threads only in `flips-net`,
//! the runtime the binaries ship.
//!
//! # Example: one seeded round trip
//!
//! Drive a small seeded job to completion and read its history (the
//! one-stop [`SimulationBuilder`] in `flips-core` wraps exactly this):
//!
//! ```
//! use flips_fl::{FlJob, FlJobConfig, LocalTrainingConfig};
//! use flips_data::dataset::{balanced_test_set, generate_population};
//! use flips_data::{partition, DatasetProfile, PartitionStrategy};
//! use flips_selection::RandomSelector;
//!
//! let profile = DatasetProfile::femnist().scaled(8, 30);
//! let population = generate_population(&profile, profile.default_total_samples, 7);
//! let parts =
//!     partition(&population, 8, PartitionStrategy::Dirichlet { alpha: 1.0 }, 5, 7).unwrap();
//! let test = balanced_test_set(&profile, 5, 7);
//! let config = FlJobConfig {
//!     rounds: 2,
//!     parties_per_round: 3,
//!     local: LocalTrainingConfig { epochs: 1, ..Default::default() },
//!     ..FlJobConfig::new(profile.model.clone())
//! };
//! let selector = Box::new(RandomSelector::new(8, 7));
//! let mut job = FlJob::new(parts.parties, test, config, selector).unwrap();
//! let history = job.run().unwrap();
//! assert_eq!(history.len(), 2);
//! ```
//!
//! [`SimulationBuilder`]: https://docs.rs/flips-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod aggtree;
pub mod chaos;
pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod coordinator;
pub mod driver;
pub mod endpoint;
pub mod events;
pub mod format;
pub mod guard;
pub mod history;
pub mod latency;
pub mod message;
pub mod party;
pub mod plan;
pub mod pool;
pub mod rans;
pub mod roster;
pub mod server;
pub mod straggler;
pub mod transport;
pub mod wheel;

pub use aggregator::{FlJob, FlJobConfig, JobParts};
pub use aggtree::{ExactWeightedSum, SKETCH_DIM};
pub use chaos::{ChaosAction, ChaosEvent, ChaosSchedule, ChaosTransport, ChaosWeights};
pub use checkpoint::{Checkpoint, CodecRefSnapshot, JobSnapshot};
pub use codec::{CodecMap, ModelCodec, Negotiation, PayloadCodec};
pub use config::{DeadlinePolicy, FlAlgorithm, LocalTrainingConfig};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use driver::{DrainReport, DriverStats, MultiJobDriver};
pub use endpoint::PartyEndpoint;
pub use events::{Effect, Event, RejectReason};
pub use guard::{
    BreakerConfig, BreakerState, BreakerTransition, FrameKind, FrameVerdict, GuardConfig,
    GuardPlane, GuardState, JobGuard, OpenOutcome, PartyGuard, RateLimit,
};
pub use history::{History, RoundRecord};
pub use latency::{LatencyModel, ObservedLatency};
pub use message::WireMessage;
pub use plan::{memory_wire, split, LinkShare, MemoryWire, ShareJob, WireOptions, WithWire};
pub use pool::{run_lockstep, PartyPool};
pub use roster::{PartyRecord, RosterBuilder, RosterStore};
pub use straggler::{Clock, ScriptedClock, StragglerInjector};
pub use transport::{duplex, MemoryRouter, MemoryTransport, Router, StreamTransport, Transport};
pub use wheel::TimerWheel;

/// Errors produced by the FL runtime.
#[derive(Debug)]
pub enum FlError {
    /// Configuration rejected before the job started.
    InvalidConfig(String),
    /// A selection policy failed.
    Selection(flips_selection::SelectionError),
    /// A model/parameter operation failed.
    Ml(flips_ml::MlError),
    /// A wire message failed to decode.
    Codec(String),
    /// A model payload's codec tag was corrupt or disagreed with the
    /// job's negotiated codec — kept distinct from [`FlError::Codec`] so
    /// drivers can count mismatches separately from generic corruption.
    CodecMismatch(String),
    /// The round protocol was violated (round opened twice, job driven
    /// past its budget, a message sent in the wrong direction).
    Protocol(String),
    /// A transport failed to move frames (broken pipe, I/O error).
    Transport(String),
}

impl std::fmt::Display for FlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlError::InvalidConfig(m) => write!(f, "invalid FL job config: {m}"),
            FlError::Selection(e) => write!(f, "selection failed: {e}"),
            FlError::Ml(e) => write!(f, "model operation failed: {e}"),
            FlError::Codec(m) => write!(f, "wire codec error: {m}"),
            FlError::CodecMismatch(m) => write!(f, "model codec mismatch: {m}"),
            FlError::Protocol(m) => write!(f, "protocol violation: {m}"),
            FlError::Transport(m) => write!(f, "transport failure: {m}"),
        }
    }
}

impl std::error::Error for FlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlError::Selection(e) => Some(e),
            FlError::Ml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<flips_selection::SelectionError> for FlError {
    fn from(e: flips_selection::SelectionError) -> Self {
        FlError::Selection(e)
    }
}

impl From<flips_ml::MlError> for FlError {
    fn from(e: flips_ml::MlError) -> Self {
        FlError::Ml(e)
    }
}
