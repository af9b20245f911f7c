//! Readiness-driven socket runtime for FLIPS: the sans-IO protocol
//! core served over real TCP by an epoll event loop.
//!
//! Every other driver in this workspace — [`flips_fl::FlJob`]'s
//! in-process loop, [`flips_fl::run_lockstep`] over one link or N —
//! moves frames through memory, on one thread. This crate alone moves
//! the *same* frames across threads and processes: length-prefixed TCP
//! links between a coordinator process (`flips-server`) and party
//! worker processes (`flips-party`), multiplexed onto one
//! [`mio`]-style epoll selector per side, with write-interest-driven
//! flushing instead of spin-polling for backpressure.
//!
//! The determinism contract carries over unchanged. Simulated time
//! stays the clock, and the coordinator only advances it when the wire
//! is provably quiet — established by the FIFO status-probe
//! [control protocol](control) rather than by lockstep turn-taking.
//! Because control frames are stripped below the chaos/guard seam, a
//! seeded run over sockets replays the single-threaded goldens (and
//! seeded chaos histories) bit-identically; the equivalence suite in
//! `tests/` holds this against every selector at 1, 2 and 4 links.
//!
//! Layering, bottom up:
//!
//! - [`control`] — the link-level control frames (Hello, quiescence
//!   probes, shutdown), invisible above the framing layer.
//! - [`link`] — one private session (a nonblocking
//!   [`flips_fl::StreamTransport`], data counters, retained frames,
//!   park-and-resume) embedded by [`CoordLink`] and [`PartyLink`], which
//!   add their half of the control protocol; [`SocketRouter`] is
//!   [`flips_fl::transport::Router`] over `CoordLink`s — the router the
//!   in-memory wire uses, so placement is [`flips_fl::plan`]'s.
//! - [`server`] / [`party`] — the two event loops.
//! - [`metrics`] — Prometheus text exposition + the `/healthz` and
//!   `/metrics` plane, served from the same selector.
//! - [`backoff`] — deterministic reconnect pacing: capped exponential
//!   backoff with seeded jitter, shared by first connects and
//!   mid-run link resumption.
//! - [`config`] — the TOML deployment config both binaries read.
//! - [`runtime`] — [`run_socket`], the in-process harness wiring both
//!   loops over loopback for tests and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod config;
pub mod control;
pub mod link;
pub mod metrics;
pub mod party;
pub mod runtime;
pub mod server;

pub use backoff::{retry, Backoff, RetryClock, SystemClock};
pub use config::NetConfig;
pub use link::{CoordLink, HelloInfo, PartyLink, SocketRouter};
pub use metrics::{render_party_metrics, render_server_metrics, HealthPlane, PartySnapshot};
pub use party::{party_loop_with, PartyOptions};
pub use runtime::{connect_with_retry, run_socket, SocketOptions, SocketOutcome};
pub use server::{serve, ServerOptions, ServerOutcome, CHECKPOINT_FILE};
