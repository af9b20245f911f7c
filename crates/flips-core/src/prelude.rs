//! Convenience re-exports for examples, tests and downstream users.
//!
//! ```
//! use flips_core::prelude::*;
//! let profile = DatasetProfile::fashion_mnist();
//! assert_eq!(profile.classes, 10);
//! ```

pub use crate::builder::{JobSpec, SimulationBuilder, SimulationMeta, SimulationReport};
pub use crate::middleware::{Ceremony, FlipsMiddleware, MiddlewareConfig, PrivateClustering};
pub use crate::FlipsError;

pub use flips_data::{
    dataset::{balanced_test_set, generate_population},
    partition, Dataset, DatasetProfile, LabelDistribution, PartitionStrategy,
};
pub use flips_fl::{
    memory_wire, run_lockstep, transport::duplex, BreakerConfig, BreakerState, ChaosAction,
    ChaosSchedule, ChaosTransport, ChaosWeights, Clock, Coordinator, CoordinatorConfig,
    DeadlinePolicy, DriverStats, Effect, Event, FlAlgorithm, FlJob, FlJobConfig, GuardConfig,
    GuardPlane, History, JobParts, LatencyModel, LocalTrainingConfig, MemoryTransport, ModelCodec,
    MultiJobDriver, ObservedLatency, PartyEndpoint, PartyPool, PartyRecord, RateLimit,
    RejectReason, RosterBuilder, RosterStore, RoundRecord, ScriptedClock, StragglerInjector,
    StreamTransport, TimerWheel, Transport, WireMessage, WireOptions, WithWire,
};
pub use flips_ml::{metrics::ConfusionMatrix, model::ModelSpec, Matrix, Model};
pub use flips_selection::{ParticipantSelector, PartyId, RoundFeedback, SelectorKind};
pub use flips_tee::OverheadModel;
