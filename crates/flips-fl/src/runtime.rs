//! The threaded sharded runtime: party shards on worker threads, the
//! multiplexed driver on a dedicated coordinator thread.
//!
//! This is the third driver over the sans-IO protocol, and the first
//! concurrent one. Where [`crate::run_lockstep`] alternates one
//! [`MultiJobDriver`] and one [`PartyPool`] on the calling thread, here:
//!
//! - the party side is **sharded**: the roster is split across `N`
//!   worker threads, each owning a disjoint set of [`crate::PartyEndpoint`]s in
//!   its own [`PartyPool`] and its own [`MemoryTransport`] endpoint onto
//!   the shared wire. Local training — the dominant cost of a round —
//!   runs truly in parallel across shards;
//! - the [`MultiJobDriver`] runs on a **dedicated coordinator thread**,
//!   polling the shards' nonblocking transports through a
//!   [`ShardRouter`] that places each downlink frame by its destination
//!   party and drains every shard's uplink;
//! - simulated time advances only when the wire is provably quiet (see
//!   [Quiet detection](#quiet-detection)), so the timer wheel's
//!   deadline order is a pure function of the job set — never of host
//!   scheduling.
//!
//! # Determinism
//!
//! Sharded runs produce histories **bit-identical** to the seeded
//! single-threaded path, for any shard count. Three properties carry
//! the proof:
//!
//! 1. *Order-independent rounds.* The coordinator keeps the round in a
//!    map ordered by party id and reads everything out of it at close —
//!    the aggregate (ascending-id f64 fold, or the commutative exact
//!    sum), the feedback, the byte counts; a heartbeat is a bit on its
//!    seat — so no per-round quantity depends on arrival order.
//! 2. *Order-independent deadlines.* On the latency-derived path the
//!    accept/withhold decision compares each update's seeded training
//!    duration against a deadline derived from the *multiset* of
//!    previously observed durations ([`crate::ObservedLatency`] sorts
//!    internally) — both sides are independent of thread interleaving.
//! 3. *Quiet-gated time.* A deadline tick can only fire when no frame
//!    is in flight anywhere, so simulated time can never overtake a
//!    training reply that a slower thread has not delivered yet.
//!
//! The equivalence suite (`tests/sharded_runtime.rs`) pins 1-, 2- and
//! 4-shard runs to the single-threaded goldens, with and without
//! scheduling jitter.
//!
//! # Quiet detection
//!
//! The coordinator thread may advance the clock only when every frame
//! everywhere has been processed. Each worker publishes a `busy` flag
//! (set **before** it pops from its inbox, cleared after its replies
//! are on the wire, both `SeqCst`); the runtime keeps an observer clone
//! of every shard's inbox. The wire is quiet iff, in order:
//!
//! 1. every shard inbox is empty and every `busy` flag is clear — once
//!    that holds, no worker can wake again until the coordinator itself
//!    sends, and any uplink reply a worker produced is already visible
//!    behind its `busy` store;
//! 2. a final [`MultiJobDriver::pump`] drains nothing.
//!
//! Only then does [`MultiJobDriver::advance_clock`] fire the next
//! deadline.

use crate::chaos::ChaosEvent;
use crate::driver::{DriverStats, MultiJobDriver};
use crate::guard::BreakerTransition;
use crate::message::frame_dest;
use crate::plan::{place, split, WireOptions, WithWire};
use crate::pool::PartyPool;
use crate::transport::{MemoryTransport, Transport};
use crate::{FlError, History, JobParts};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How long an idle worker parks before re-checking its inbox. Short
/// enough that a single-core box still round-robins promptly; long
/// enough not to burn a core spinning.
const IDLE_PARK: Duration = Duration::from_micros(50);

/// Options of one sharded run: the shared [`WireOptions`] (one link per
/// worker-thread shard; builders via [`WithWire`]) plus the stress
/// suite's thread-level perturbations.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Placement, guard, chaos schedule, link codecs and tree mode.
    pub wire: WireOptions,
    /// When non-zero, each worker sleeps a pseudo-random `0..jitter_ns`
    /// nanoseconds before processing each inbox batch — the stress
    /// suite's scheduling perturbation. Histories must not move.
    pub jitter_ns: u64,
    /// Seed of the per-worker jitter streams.
    pub jitter_seed: u64,
    /// Hostile frames slipped onto the coordinator's uplink while the
    /// run is in flight (fault-injection tests). Sent from a dedicated
    /// chaos thread at unsynchronized times; the run's histories must
    /// not move.
    pub chaos_uplink: Vec<Bytes>,
    /// Hostile frames slipped onto shard 0's downlink inbox while the
    /// run is in flight.
    pub chaos_downlink: Vec<Bytes>,
}

impl RuntimeOptions {
    /// Options for `shards` worker threads, no perturbation.
    pub fn new(shards: usize) -> Self {
        RuntimeOptions {
            wire: WireOptions::new(shards),
            jitter_ns: 0,
            jitter_seed: 0,
            chaos_uplink: Vec::new(),
            chaos_downlink: Vec::new(),
        }
    }
}

impl WithWire for RuntimeOptions {
    fn wire_mut(&mut self) -> &mut WireOptions {
        &mut self.wire
    }
}

/// The outcome of a completed sharded run.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Final per-job histories, keyed by job id.
    pub histories: BTreeMap<u64, History>,
    /// The coordinator-side wire counters.
    pub stats: DriverStats,
    /// Per-shard counts of frames the shard could not route (corrupt or
    /// addressed to an endpoint it does not own).
    pub shard_unroutable: Vec<u64>,
    /// Per-shard counts of routable frames an endpoint refused.
    pub shard_rejected: Vec<u64>,
    /// Per-shard counts of downlink frames dropped for a corrupt or
    /// mismatched model codec tag (the per-link seam the mixed-codec
    /// fault suite asserts on).
    pub shard_codec_mismatch: Vec<u64>,
    /// Per-shard counts of downlink frames dropped by the guard's size
    /// cap (all zero when no guard was installed).
    pub shard_oversized: Vec<u64>,
    /// The guard plane's breaker transition log (empty when no guard
    /// was installed).
    pub breaker_transitions: Vec<BreakerTransition>,
    /// The chaos actions actually applied, in application order (empty
    /// when no schedule was installed).
    pub chaos_events: Vec<ChaosEvent>,
}

/// The coordinator side of the sharded wire: one [`MemoryTransport`]
/// link per shard, each frame placed by the destination word in its
/// header ([`place`] — the rule [`crate::plan::split`] sharded the
/// endpoints by, and the one `flips_net::SocketRouter` routes by).
///
/// Implements [`Transport`], so the unmodified [`MultiJobDriver`] drives
/// a sharded party side exactly as it drives a single serialized link —
/// the concurrency is invisible above this seam. A frame for a party no
/// shard registered still travels to the shard its id names, whose pool
/// counts it unroutable.
#[derive(Debug)]
pub struct ShardRouter {
    /// Driver-side link ends, one per shard.
    links: Vec<MemoryTransport>,
}

impl ShardRouter {
    /// A router over one driver-side link end per shard.
    pub(crate) fn new(links: Vec<MemoryTransport>) -> Self {
        ShardRouter { links }
    }
}

impl Transport for ShardRouter {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
        let Some(dest) = frame_dest(frame) else {
            return Err(FlError::Transport("frame too short to route to a shard".into()));
        };
        let shard = place(dest, self.links.len());
        self.links[shard].send(frame)
    }

    fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
        Ok(self.try_recv_tagged()?.map(|(_, frame)| frame))
    }

    fn links(&self) -> usize {
        self.links.len()
    }

    fn link_for(&self, _job: u64, dest: u64) -> usize {
        place(dest, self.links.len())
    }

    fn try_recv_tagged(&mut self) -> Result<Option<(usize, Bytes)>, FlError> {
        // Sweep the shards in fixed order; the driver pumps until no
        // link yields anything, so fairness is a non-issue and the
        // fixed order keeps sweeps cheap and predictable.
        for (i, link) in self.links.iter_mut().enumerate() {
            if let Some(frame) = link.try_recv()? {
                return Ok(Some((i, frame)));
            }
        }
        Ok(None)
    }
}

/// Per-worker shared state the coordinator thread observes.
struct ShardState {
    /// Set before the worker pops its inbox, cleared after its replies
    /// are sent — the worker half of quiet detection.
    busy: AtomicBool,
    /// Observer clone of the shard's inbox (the other half).
    probe: MemoryTransport,
}

/// A tiny xorshift stream for worker jitter — no shared RNG state, one
/// independent stream per worker.
struct Jitter {
    state: u64,
    max_ns: u64,
}

impl Jitter {
    fn new(seed: u64, max_ns: u64) -> Self {
        Jitter { state: seed | 1, max_ns }
    }

    /// Sleeps a pseudo-random `0..max_ns` (no-op when disabled).
    fn perturb(&mut self) {
        if self.max_ns == 0 {
            return;
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let ns = self.state % self.max_ns;
        if ns < 1_000 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }
}

/// Runs every job to completion across `opts.wire.links` worker threads,
/// returning each job's final history and the wire counters.
///
/// The roster is placed on shards by [`crate::plan::split`]; each shard
/// owns its endpoints' training and its own transport endpoint, and the
/// driver runs on a dedicated coordinator thread. Histories are
/// bit-identical to the same jobs under [`crate::run_lockstep`] and the
/// in-process [`crate::FlJob`] — see the [module docs](self) for why.
///
/// # Errors
///
/// [`FlError::InvalidConfig`] for zero shards or an empty job set;
/// construction, transport, aggregation and stall failures propagate
/// from the coordinator thread.
///
/// # Panics
///
/// Panics if a worker thread panics (a training bug, not an I/O
/// condition).
pub fn run_sharded(jobs: Vec<JobParts>, opts: &RuntimeOptions) -> Result<ShardedOutcome, FlError> {
    let (driver_jobs, shares) = split(jobs, &opts.wire)?;

    // One memory link per shard. The driver keeps the `driver_ends`
    // (behind the router); each worker gets a `shard_end`; the runtime
    // keeps observer clones of both shard-side ends for quiet detection
    // and chaos injection.
    let (driver_ends, shard_ends): (Vec<_>, Vec<_>) =
        shares.iter().map(|_| MemoryTransport::pair()).unzip();
    let chaos_to_driver = shard_ends[0].clone();
    let chaos_to_shard = driver_ends[0].clone();
    let states: Vec<ShardState> = shard_ends
        .iter()
        .map(|end| ShardState { busy: AtomicBool::new(false), probe: end.clone() })
        .collect();

    let driver = MultiJobDriver::install(ShardRouter::new(driver_ends), driver_jobs, &opts.wire)?;
    let pools: Vec<_> = shard_ends
        .into_iter()
        .zip(shares)
        .map(|(end, share)| PartyPool::install(end, share, opts.wire.guard.as_ref()))
        .collect();

    let shutdown = AtomicBool::new(false);
    let worker_error: Mutex<Option<FlError>> = Mutex::new(None);

    let (drive_result, mut finished_pools) = std::thread::scope(|scope| {
        let worker_handles: Vec<_> = pools
            .into_iter()
            .enumerate()
            .map(|(i, pool)| {
                let state = &states[i];
                let shutdown = &shutdown;
                let worker_error = &worker_error;
                let jitter = Jitter::new(
                    opts.jitter_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64),
                    opts.jitter_ns,
                );
                scope.spawn(move || worker_loop(pool, state, shutdown, worker_error, jitter))
            })
            .collect();

        // The chaos thread sends every frame unconditionally (its total
        // work is bounded and memory-queue sends never block): frames
        // that land after the run completed are drained by the final
        // pump below, so the observability counters the stress suite
        // asserts on are deterministic, not a race with run completion.
        let chaos_handle = if !opts.chaos_uplink.is_empty() || !opts.chaos_downlink.is_empty() {
            let mut to_driver = chaos_to_driver;
            let mut to_shard = chaos_to_shard;
            let up = opts.chaos_uplink.clone();
            let down = opts.chaos_downlink.clone();
            let mut jitter = Jitter::new(opts.jitter_seed ^ 0xC4A05, opts.jitter_ns.max(10_000));
            Some(scope.spawn(move || {
                for frame in up {
                    jitter.perturb();
                    let _ = to_driver.send(&frame);
                }
                for frame in down {
                    jitter.perturb();
                    let _ = to_shard.send(&frame);
                }
            }))
        } else {
            None
        };

        // The dedicated coordinator thread: starts the jobs, pumps the
        // router, advances simulated time when the wire is quiet.
        let driver_handle = scope.spawn(|| drive(driver, &states, &worker_error));
        let drive_result = driver_handle.join().expect("coordinator thread panicked");
        // Shutdown order matters for deterministic counters: all chaos
        // frames must be queued before the workers see the shutdown
        // flag, because a worker only exits once its inbox is drained.
        if let Some(h) = chaos_handle {
            h.join().expect("chaos thread panicked");
        }
        shutdown.store(true, Ordering::SeqCst);
        let finished_pools: Vec<_> =
            worker_handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect();
        (drive_result, finished_pools)
    });

    let mut driver = drive_result?;
    // Final drain: count any frames (chaos traffic, post-completion
    // worker replies) still sitting on the uplink. Every job is
    // finished, so nothing here can touch round state.
    while driver.pump()? {}
    let histories = driver
        .job_ids()
        .into_iter()
        .map(|id| (id, driver.history(id).expect("registered job").clone()))
        .collect();
    Ok(ShardedOutcome {
        histories,
        stats: driver.stats(),
        shard_unroutable: finished_pools.iter().map(PartyPool::unroutable).collect(),
        shard_oversized: finished_pools.iter().map(PartyPool::oversized).collect(),
        shard_codec_mismatch: finished_pools.iter().map(|p| p.codec_mismatch()).collect(),
        breaker_transitions: driver.guard().map_or_else(Vec::new, |g| g.transitions().to_vec()),
        chaos_events: driver.transport().log().to_vec(),
        shard_rejected: finished_pools.drain(..).map(|p| p.rejected()).collect(),
    })
}

/// One shard worker: waits for downlink frames, processes them (training
/// included) with the `busy` flag raised, parks briefly when idle.
fn worker_loop(
    mut pool: PartyPool<MemoryTransport>,
    state: &ShardState,
    shutdown: &AtomicBool,
    worker_error: &Mutex<Option<FlError>>,
    mut jitter: Jitter,
) -> PartyPool<MemoryTransport> {
    loop {
        if state.probe.pending() == 0 {
            // Exit only with a drained inbox, so chaos frames queued
            // before the shutdown flag was raised are still processed
            // (and counted) rather than silently abandoned.
            if shutdown.load(Ordering::SeqCst) {
                return pool;
            }
            std::thread::park_timeout(IDLE_PARK);
            continue;
        }
        // `busy` must be raised before the first pop and lowered only
        // after every reply is on the wire — the coordinator's quiet
        // check relies on exactly this window (see the module docs).
        state.busy.store(true, Ordering::SeqCst);
        jitter.perturb();
        let result = pool.pump();
        state.busy.store(false, Ordering::SeqCst);
        if let Err(e) = result {
            *worker_error.lock().expect("error slot") = Some(e);
            return pool;
        }
    }
}

/// The coordinator thread body.
fn drive<T: Transport + Send>(
    mut driver: MultiJobDriver<T>,
    states: &[ShardState],
    worker_error: &Mutex<Option<FlError>>,
) -> Result<MultiJobDriver<T>, FlError> {
    let run = (|| {
        driver.start()?;
        loop {
            if let Some(e) = worker_error.lock().expect("error slot").take() {
                return Err(e);
            }
            let progressed = driver.pump()?;
            if driver.is_finished() {
                return Ok(());
            }
            if progressed {
                continue;
            }
            let shards_idle =
                states.iter().all(|s| s.probe.pending() == 0 && !s.busy.load(Ordering::SeqCst));
            if !shards_idle {
                std::thread::yield_now();
                continue;
            }
            // Shards idle with empty inboxes: they cannot wake until we
            // send again, and any reply they produced is already
            // visible. One final drain, then time may advance.
            if driver.pump()? {
                continue;
            }
            if !driver.advance_clock()? {
                return Err(FlError::Protocol(
                    "sharded driver stalled: wire quiet, no live deadline, jobs unfinished".into(),
                ));
            }
        }
    })();
    run.map(|()| driver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{frame, AGGREGATOR_DEST};
    use crate::WireMessage;

    #[test]
    fn zero_shards_is_rejected() {
        match run_sharded(Vec::new(), &RuntimeOptions::new(0)) {
            Err(FlError::InvalidConfig(m)) => assert!(m.contains("shard"), "{m}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn empty_job_set_is_rejected() {
        assert!(matches!(
            run_sharded(Vec::new(), &RuntimeOptions::new(2)),
            Err(FlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn router_rejects_unroutable_frames() {
        let (a, _b) = MemoryTransport::pair();
        let mut router = ShardRouter::new(vec![a]);
        assert!(matches!(router.send(&[1, 2, 3]), Err(FlError::Transport(_))));
    }

    #[test]
    fn router_routes_by_job_and_dest_and_drains_all_links() {
        let (a0, mut b0) = MemoryTransport::pair();
        let (a1, mut b1) = MemoryTransport::pair();
        let mut router = ShardRouter::new(vec![a0, a1]);
        let m0 = frame(0, &WireMessage::Heartbeat { job: 9, round: 0, party: 0 });
        let m1 = frame(1, &WireMessage::Heartbeat { job: 9, round: 0, party: 1 });
        router.send(m0.as_slice()).unwrap();
        router.send(m1.as_slice()).unwrap();
        assert_eq!(b0.try_recv().unwrap().unwrap(), m0);
        assert_eq!(b1.try_recv().unwrap().unwrap(), m1);
        // Uplink: both shard ends reply; the router drains both.
        let up = frame(AGGREGATOR_DEST, &WireMessage::Heartbeat { job: 9, round: 0, party: 0 });
        b0.send(up.as_slice()).unwrap();
        b1.send(up.as_slice()).unwrap();
        assert!(router.try_recv().unwrap().is_some());
        assert!(router.try_recv().unwrap().is_some());
        assert!(router.try_recv().unwrap().is_none());
    }
}
