//! The in-process socket harness: coordinator and party workers as
//! threads of one process, wired over real TCP loopback sockets.
//!
//! [`run_socket`] runs [`crate::serve`] and one
//! [`crate::party_loop_with`] per link, each pool on its own thread —
//! the same code the deployable binaries run, arranged so a test can
//! drive a complete multi-process topology (epoll event loops, TCP
//! framing, quiescence probes and all) in one call and compare the
//! resulting histories bit-for-bit against the single-threaded goldens.

use crate::backoff::{retry, Backoff, SystemClock};
use crate::link::{net_err, PartyLink};
use crate::party::{party_loop_with, PartyOptions};
use crate::server::{serve, ServerOptions, ServerOutcome};
use flips_fl::chaos::ChaosEvent;
use flips_fl::guard::BreakerTransition;
use flips_fl::{split, DriverStats, FlError, History, JobParts, PartyPool, WireOptions, WithWire};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Options of one loopback socket run: the shared [`WireOptions`] (one
/// TCP link and party worker thread per link; builders via
/// [`WithWire`]) plus the session-resume test knob.
#[derive(Debug, Clone)]
pub struct SocketOptions {
    /// Placement, guard, chaos schedule and tree mode.
    pub wire: WireOptions,
    /// Test knob: worker `slot` severs its connection after receiving
    /// `after` data frames (one-shot), exercising a real mid-run TCP
    /// link death. Setting it runs the session-resume plane: the server
    /// parks dead links and every worker reconnects and resumes instead
    /// of failing.
    pub party_drop: Option<(usize, u64)>,
}

impl SocketOptions {
    /// Options for `links` TCP links, no guard, no chaos.
    pub fn new(links: usize) -> Self {
        SocketOptions { wire: WireOptions::new(links), party_drop: None }
    }
}

impl WithWire for SocketOptions {
    fn wire_mut(&mut self) -> &mut WireOptions {
        &mut self.wire
    }
}

/// The outcome of a completed socket run: the driver's and the
/// per-link pools' read-outs, collected across the worker threads.
#[derive(Debug)]
pub struct SocketOutcome {
    /// Final per-job histories, keyed by job id.
    pub histories: BTreeMap<u64, History>,
    /// The coordinator-side wire counters.
    pub stats: DriverStats,
    /// Per-link counts of frames the worker could not route.
    pub link_unroutable: Vec<u64>,
    /// Per-link counts of routable frames an endpoint refused.
    pub link_rejected: Vec<u64>,
    /// Per-link counts of downlink frames dropped by the guard's size
    /// cap (all zero when no guard was installed).
    pub link_oversized: Vec<u64>,
    /// The guard plane's breaker transition log (empty when no guard
    /// was installed).
    pub breaker_transitions: Vec<BreakerTransition>,
    /// The chaos actions actually applied, in application order (empty
    /// when no schedule was installed).
    pub chaos_events: Vec<ChaosEvent>,
}

/// Connects to `addr` under the [`crate::backoff`] schedule — a peer
/// process may still be on its way to `listen(2)` (the deployable
/// party binary races the server's startup; in-process harness
/// connects land first try), and a reconnecting party must not hammer
/// a server that is still restarting. The jitter seed is derived from
/// the target port, so a fleet of parties dialing one address spreads
/// its retries while each party's own schedule stays replayable.
///
/// # Errors
///
/// The last connect error once `timeout` elapses.
pub fn connect_with_retry(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, FlError> {
    let mut backoff = Backoff::new(
        Duration::from_millis(10),
        Duration::from_millis(500),
        0xC0_4EC7 ^ u64::from(addr.port()),
    );
    let mut clock = SystemClock::start();
    retry(timeout, &mut backoff, &mut clock, || TcpStream::connect(addr).map_err(net_err))
}

/// Runs every job to completion over `opts.wire.links` loopback TCP links,
/// one party worker thread per link, returning each job's final history
/// and the wire counters. Histories are bit-identical to the same jobs
/// under every other driver in the workspace — see [`crate::server`]'s
/// module docs for the quiescence argument.
///
/// # Errors
///
/// [`FlError::InvalidConfig`] for zero links or an empty job set;
/// socket, protocol and aggregation failures propagate (the
/// coordinator's error wins when both sides fail).
///
/// # Panics
///
/// Panics if a worker thread panics (a training bug, not an I/O
/// condition).
pub fn run_socket(jobs: Vec<JobParts>, opts: &SocketOptions) -> Result<SocketOutcome, FlError> {
    // The coordinator-side pieces go to the server; each link's share
    // goes to its worker thread.
    let (server_jobs, shares) = split(jobs, &opts.wire)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(net_err)?;
    let addr = listener.local_addr().map_err(net_err)?;

    let resume = opts.party_drop.is_some();
    let server_opts =
        ServerOptions { wire: opts.wire.clone(), resume, ..ServerOptions::new(opts.wire.links) };

    let (server_result, worker_results) = std::thread::scope(|scope| {
        let workers: Vec<_> = shares
            .into_iter()
            .map(|share| {
                let guard = opts.wire.guard;
                let party_opts = PartyOptions {
                    resume_addr: resume.then_some(addr),
                    drop_after: opts
                        .party_drop
                        .and_then(|(slot, after)| (slot == share.link).then_some(after)),
                };
                scope.spawn(move || -> Result<PartyPool<PartyLink>, FlError> {
                    let stream = connect_with_retry(addr, Duration::from_secs(30))?;
                    party_loop_with(stream, share, guard.as_ref(), None, &party_opts)
                })
            })
            .collect();
        let server_result = serve(&listener, server_jobs, &server_opts, None);
        let worker_results: Vec<_> =
            workers.into_iter().map(|h| h.join().expect("party worker panicked")).collect();
        (server_result, worker_results)
    });

    let ServerOutcome { histories, stats, breaker_transitions, chaos_events, .. } = server_result?;
    let mut pools = Vec::with_capacity(worker_results.len());
    for result in worker_results {
        pools.push(result?);
    }
    Ok(SocketOutcome {
        histories,
        stats,
        link_unroutable: pools.iter().map(PartyPool::unroutable).collect(),
        link_oversized: pools.iter().map(PartyPool::oversized).collect(),
        link_rejected: pools.iter().map(|p| p.rejected()).collect(),
        breaker_transitions,
        chaos_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_links_is_rejected() {
        assert!(matches!(
            run_socket(Vec::new(), &SocketOptions::new(0)),
            Err(FlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_job_set_is_rejected() {
        assert!(matches!(
            run_socket(Vec::new(), &SocketOptions::new(2)),
            Err(FlError::InvalidConfig(_))
        ));
    }
}
