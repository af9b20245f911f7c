//! The coordinator's readiness-driven event loop.
//!
//! [`serve`] runs one [`MultiJobDriver`] — guard plane, chaos seam and
//! all — behind an epoll selector: every party connection, plus the
//! optional health listener, registers with one [`mio::Poll`], and the
//! loop sleeps in `epoll_wait` until a frame, a probe answer or a
//! metrics scrape arrives. Write interest is registered per link only
//! while its outbox holds staged bytes, so backpressure costs no
//! spinning: a full kernel buffer parks the frames in the
//! [`StreamTransport`](flips_fl::StreamTransport) outbox and the next
//! `EPOLLOUT` resumes them.
//!
//! # Quiescence over real sockets
//!
//! Simulated time may only advance when the wire is provably quiet —
//! the invariant [`flips_fl::run_lockstep`] gets for free by pumping
//! every pool on the calling thread until nothing moves. Across threads
//! and processes quiet is established with a counting protocol over
//! per-link TCP FIFO (frame formats in [`crate::control`]) — the only
//! cross-thread quiescence protocol in the workspace:
//!
//! 1. When a pump makes no progress, the loop probes every non-quiet
//!    link with `StatusReq(seq)` (one probe in flight per link).
//! 2. A party answers only after fully pumping its pool, so by FIFO the
//!    coordinator has already processed every data frame the party sent
//!    before the answer when it reads the answer.
//! 3. A link is quiet iff its newest probe is answered **and** the
//!    answer's counters match the coordinator's *current* counters in
//!    both directions (`party.received == sent_here`, `party.sent ==
//!    received_here`) **and** its outbox is empty. Frames that moved
//!    after the probe left make the answer stale, which re-arms the
//!    probe — the protocol converges because in-flight frames land.
//! 4. All links quiet → one defensive pump → the timer wheel fires the
//!    next deadline, exactly as in the lockstep driver.
//!
//! The destination-modulo-links routing is the same pure assignment
//! ([`flips_fl::plan::place`]) the in-memory wire uses, so a socket run
//! and an N-link lockstep run carry identical per-link data-frame
//! sequences — which is what lets the chaos schedule's
//! per-`(link, index)` actions, and therefore entire seeded guarded
//! runs, replay bit-identically over TCP.
//!
//! # Failure recovery
//!
//! With [`ServerOptions::resume`] on, a dead party connection **parks**
//! its link instead of aborting the run: the slot's counters, retained
//! frames and codec references stay alive, a parked link is never
//! quiet (so simulated time cannot advance past the outage), and the
//! listener keeps accepting. A reconnecting party presents the slot's
//! session token in its Hello; both sides then retransmit exactly the
//! frames the other never received, and the run continues on the same
//! seeded trajectory. [`ServerOptions::checkpoint_dir`] additionally
//! snapshots the whole coordinator plane at every round boundary
//! (atomic write, versioned format — see [`flips_fl::Checkpoint`]);
//! [`ServerOptions::restore`] rebuilds a crashed coordinator from such
//! a snapshot, pushing every link's delta-codec reference back out to
//! the (fresh) parties over [`ControlMsg::RefSync`] before the first
//! data frame.

use crate::control::{session_token, ControlMsg};
use crate::link::{net_err, prepare_stream, CoordLink, SocketRouter};
use crate::metrics::{render_server_metrics, HealthPlane};
use flips_fl::chaos::{ChaosEvent, ChaosTransport};
use flips_fl::guard::BreakerTransition;
use flips_fl::{
    Checkpoint, DriverStats, FlError, History, JobParts, MultiJobDriver, Transport, WireOptions,
    WithWire,
};
use mio::{Events, Interest, Poll, Token};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The event loop's safety-net wakeup. All real work is event-driven;
/// this only bounds how late the loop notices an error condition — and,
/// with resume on, how late it notices a reconnecting party (the
/// mid-run listener is deliberately not in the selector: 20 ms of
/// accept latency against a reconnect budget of seconds is nothing,
/// and it keeps the steady-state loop untouched).
const POLL_TIMEOUT: Duration = Duration::from_millis(20);

/// How long the post-run flush waits for slow peers before giving up
/// (they still observe EOF).
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(10);

/// How long to wait for all links' parties to connect and say Hello.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a parked link may wait for its party to reconnect before
/// the run aborts after all.
const RESUME_TIMEOUT: Duration = Duration::from_secs(30);

/// The on-disk checkpoint filename inside
/// [`ServerOptions::checkpoint_dir`].
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Options of one coordinator run: the shared [`WireOptions`] (one link
/// per party connection to accept; builders via [`WithWire`]) plus the
/// failure-recovery plane.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Placement, guard, chaos schedule and tree mode. The party
    /// process serving a link must hold the matching
    /// [`flips_fl::LinkShare`] of the same plan.
    pub wire: WireOptions,
    /// Park dead links and let their parties reconnect and resume the
    /// session (module docs) instead of aborting the run.
    pub resume: bool,
    /// Snapshot the coordinator plane into
    /// `<dir>/`[`CHECKPOINT_FILE`] at every round boundary (atomic
    /// tmp-file + rename).
    pub checkpoint_dir: Option<PathBuf>,
    /// Restore the run from a checkpoint before the first round: the
    /// driver resumes mid-history and every link's delta reference is
    /// re-seeded on the connecting parties via [`ControlMsg::RefSync`].
    pub restore: Option<Checkpoint>,
}

impl WithWire for ServerOptions {
    fn wire_mut(&mut self) -> &mut WireOptions {
        &mut self.wire
    }
}

impl ServerOptions {
    /// Options for `links` party connections, no guard, no chaos, no
    /// recovery plane.
    pub fn new(links: usize) -> Self {
        ServerOptions {
            wire: WireOptions::new(links),
            resume: false,
            checkpoint_dir: None,
            restore: None,
        }
    }
}

/// The outcome of a completed coordinator run.
#[derive(Debug)]
pub struct ServerOutcome {
    /// Final per-job histories, keyed by job id.
    pub histories: BTreeMap<u64, History>,
    /// The coordinator-side wire counters.
    pub stats: DriverStats,
    /// The guard plane's breaker transition log (empty when no guard
    /// was installed).
    pub breaker_transitions: Vec<BreakerTransition>,
    /// The chaos actions actually applied, in application order (empty
    /// when no schedule was installed).
    pub chaos_events: Vec<ChaosEvent>,
    /// Round-boundary snapshots written this run (zero unless
    /// [`ServerOptions::checkpoint_dir`] was set).
    pub checkpoint_rounds: u64,
}

/// Accepts `links` connections and places each by its Hello's slot.
/// Every placed link gets its session token assigned and a
/// `HelloAck` — followed by that slot's `ref_syncs` reference seeds,
/// counted in the ack — as its first outbound frames.
fn accept_links(
    listener: &TcpListener,
    links: usize,
    resume: bool,
    ref_syncs: &[Vec<ControlMsg>],
) -> Result<Vec<CoordLink>, FlError> {
    listener.set_nonblocking(true).map_err(net_err)?;
    let deadline = Instant::now() + ACCEPT_TIMEOUT;
    let mut slots: Vec<Option<CoordLink>> = (0..links).map(|_| None).collect();
    let mut pending: Vec<CoordLink> = Vec::new();
    let mut filled = 0;
    while filled < links {
        if Instant::now() > deadline {
            return Err(FlError::Transport(format!(
                "timed out waiting for party connections ({filled}/{links} links up)"
            )));
        }
        match listener.accept() {
            Ok((stream, _)) => {
                prepare_stream(&stream)?;
                pending.push(CoordLink::new(stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(net_err(e)),
        }
        // Poll pending connections for their Hello. This is setup-phase
        // code on an otherwise idle process; a short sleep beats wiring
        // a second selector for a handful of handshakes.
        let mut i = 0;
        while i < pending.len() {
            if let Some(frame) = pending[i].try_recv()? {
                return Err(FlError::Protocol(format!(
                    "party sent a {}-byte data frame before its Hello",
                    frame.len()
                )));
            }
            match pending[i].hello() {
                Some(hello) => {
                    let shard = hello.shard;
                    if hello.token != 0 {
                        return Err(FlError::Protocol(format!(
                            "party on link slot {shard} presented a session token during the \
                             initial accept phase"
                        )));
                    }
                    let mut link = pending.swap_remove(i);
                    let slot = slots.get_mut(shard as usize).ok_or_else(|| {
                        FlError::Protocol(format!(
                            "party announced link slot {shard}, but only {links} links exist"
                        ))
                    })?;
                    if slot.is_some() {
                        return Err(FlError::Protocol(format!(
                            "two parties announced link slot {shard}"
                        )));
                    }
                    link.assign_token(session_token(shard));
                    // Acked while still non-resumable: a party lost
                    // during start-up is a start-up failure, not a
                    // parked link.
                    link.send_hello_ack(true, &ref_syncs[shard as usize])?;
                    link.set_resumable(resume);
                    *slot = Some(link);
                    filled += 1;
                }
                None => i += 1,
            }
        }
        if filled < links {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(slots.into_iter().map(|s| s.expect("all slots filled")).collect())
}

/// The links of a running driver: the router owns them, the driver the
/// router, and the event loop reaches them *below* the chaos seam —
/// where control traffic goes — to flush, probe, resume and shut down.
fn links_of(driver: &mut MultiJobDriver<ChaosTransport<SocketRouter>>) -> &mut [CoordLink] {
    driver.transport_mut().inner_mut().links_mut()
}

/// Flushes every link's staged bytes and keeps each link's epoll write
/// interest registered exactly while its outbox is non-empty. Returns
/// whether any link still has staged bytes.
fn flush_links(
    links: &mut [CoordLink],
    poll: &Poll,
    write_registered: &mut [bool],
) -> Result<bool, FlError> {
    let mut any_pending = false;
    for (i, l) in links.iter_mut().enumerate() {
        if l.is_parked() {
            continue;
        }
        if l.wants_write() {
            l.flush()?;
        }
        let wants = l.wants_write();
        any_pending |= wants;
        if wants != write_registered[i] {
            let interest =
                if wants { Interest::READABLE | Interest::WRITABLE } else { Interest::READABLE };
            poll.registry().reregister(l, Token(i), interest).map_err(net_err)?;
            write_registered[i] = wants;
        }
    }
    Ok(any_pending)
}

/// Writes `cp` into `dir/`[`CHECKPOINT_FILE`] atomically: a crash
/// mid-write leaves the previous snapshot intact, never a truncated
/// file (the decoder would reject one anyway — the envelope's digest —
/// but a complete older snapshot restores, a version-1 file from before
/// an upgrade included; a rejected newer one does not).
fn write_checkpoint(dir: &Path, cp: &Checkpoint) -> Result<(), FlError> {
    let io = |e: std::io::Error| FlError::Transport(format!("checkpoint write failed: {e}"));
    std::fs::create_dir_all(dir).map_err(io)?;
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    std::fs::write(&tmp, cp.encode()).map_err(io)?;
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE)).map_err(io)?;
    Ok(())
}

/// Runs every job to completion over `opts.wire.links` party connections
/// accepted from `listener`, returning each job's final history and the
/// wire counters. `health`, when given, serves `/metrics` and
/// `/healthz` from the same event loop for the duration of the run.
///
/// Endpoints inside the given [`JobParts`] are dropped — the party side
/// of each job lives in whatever processes connect (see
/// [`crate::party_loop_with`]); only the coordinator-side pieces run here.
/// Histories are bit-identical to the same jobs under
/// [`flips_fl::run_lockstep`] at any link count — see the
/// [module docs](self) for why, including across parked-and-resumed
/// links and a checkpoint/restore cycle.
///
/// # Errors
///
/// [`FlError::InvalidConfig`] for zero links or an empty job set;
/// accept-phase timeouts, socket failures, protocol violations and
/// aggregation failures propagate. Without [`ServerOptions::resume`], a
/// dead party connection is fatal; with it, only a party that stays
/// gone past `RESUME_TIMEOUT` is.
pub fn serve(
    listener: &TcpListener,
    jobs: Vec<JobParts>,
    opts: &ServerOptions,
    health: Option<TcpListener>,
) -> Result<ServerOutcome, FlError> {
    let wire = &opts.wire;
    // Fail before blocking in accept, not after.
    wire.admit(jobs.len())?;
    // The restored references go out per-slot inside the accept-phase
    // handshake, so every party seeds its pool before it can possibly
    // see a data frame encoded against the reference.
    let mut ref_syncs: Vec<Vec<ControlMsg>> = vec![Vec::new(); wire.links];
    if let Some(cp) = &opts.restore {
        for r in &cp.codec_refs {
            let slot = ref_syncs.get_mut(r.link as usize).ok_or_else(|| {
                FlError::InvalidConfig(format!(
                    "checkpoint re-keys link {}, run has {}",
                    r.link, wire.links
                ))
            })?;
            slot.push(ControlMsg::RefSync {
                job: r.job,
                round: r.ref_round,
                params: r.params.clone(),
            });
        }
    }
    let links = accept_links(listener, wire.links, opts.resume, &ref_syncs)?;
    let job_count = jobs.len() as u64;
    // The endpoints live in the party processes; only the
    // coordinator-side pieces are installed here.
    let mut driver = MultiJobDriver::install(SocketRouter::new(links), jobs, wire)?;
    if let Some(cp) = &opts.restore {
        driver.restore(cp)?;
    }
    if opts.checkpoint_dir.is_some() {
        // Round opens queue at round closes so the boundary state can
        // be snapshotted before the next round's frames exist.
        driver.set_deferred_opens(true)?;
    }
    let mut checkpoint_rounds: u64 = 0;

    let mut poll = Poll::new().map_err(net_err)?;
    let mut events = Events::with_capacity(64);
    for (i, l) in links_of(&mut driver).iter().enumerate() {
        poll.registry().register(l, Token(i), Interest::READABLE).map_err(net_err)?;
    }
    let mut write_registered = vec![false; wire.links];
    let mut health_plane = HealthPlane::new(health)?;
    health_plane.register(poll.registry())?;
    // Reconnecting parties park here until their Hello arrives.
    let mut reconnects: Vec<CoordLink> = Vec::new();
    // When each link went down, while it is down.
    let mut parked_since: Vec<Option<Instant>> = vec![None; wire.links];

    driver.start()?;
    flush_links(links_of(&mut driver), &poll, &mut write_registered)?;

    loop {
        // The loop sleeps here: frames, probe answers, write-readiness
        // and metrics scrapes all arrive as epoll events.
        poll.poll(&mut events, Some(POLL_TIMEOUT)).map_err(net_err)?;
        let health_tokens: Vec<usize> =
            events.iter().map(|e| e.token().0).filter(|t| health_plane.owns(*t)).collect();
        for token in health_tokens {
            let stats = driver.stats();
            let transitions = driver.guard().map_or(0, |g| g.transitions().len() as u64);
            let finished = driver.is_finished();
            health_plane.handle(poll.registry(), token, &mut || {
                render_server_metrics(&stats, transitions, checkpoint_rounds, job_count, finished)
            })?;
        }

        // Pump to exhaustion, then fall straight through to the
        // quiescence check: the wire is drained, so the only way
        // anything more can arrive is via a probe answer or a clock
        // advance — sleeping first would stall every simulated-time
        // step on the poll timeout. In checkpoint mode, round opens
        // queue at round closes; each boundary is snapshotted before
        // the queued opens put the next round on the wire.
        loop {
            while driver.pump()? {}
            if !driver.has_pending_opens() {
                break;
            }
            if let Some(dir) = &opts.checkpoint_dir {
                if driver.at_round_boundary() {
                    write_checkpoint(dir, &driver.checkpoint()?)?;
                    checkpoint_rounds += 1;
                }
            }
            driver.open_pending()?;
        }
        flush_links(links_of(&mut driver), &poll, &mut write_registered)?;
        if driver.is_finished() {
            break;
        }

        // Link-death sweep: a resumable link that died mid-I/O parked
        // itself; one that went EOF cleanly is parked here. Without
        // resume, any dead link aborts the run (the old contract).
        // Every outage is counted once, here: `parked_since` is empty
        // exactly until this sweep has seen the link down.
        for i in 0..wire.links {
            let l = &mut links_of(&mut driver)[i];
            if !l.is_parked() && l.is_eof() {
                if !opts.resume {
                    return Err(FlError::Transport(
                        "a party closed its link before the run finished".into(),
                    ));
                }
                l.park();
            }
            if l.is_parked() && parked_since[i].is_none() {
                // The dead socket stays open inside the link until the
                // resume swaps it out; deregistering keeps its EOF
                // readiness from busy-looping the poll.
                let _ = poll.registry().deregister(l);
                write_registered[i] = false;
                parked_since[i] = Some(Instant::now());
                driver.note_link_lost();
            }
        }
        for since in parked_since.iter().flatten() {
            if since.elapsed() > RESUME_TIMEOUT {
                return Err(FlError::Transport(format!(
                    "a parked link's party did not reconnect within {RESUME_TIMEOUT:?}"
                )));
            }
        }

        // Resume seam: reconnecting parties are accepted here, matched
        // to their slot by session token, and replayed the frames they
        // missed. Stray connections (bad token, fresh Hello) are
        // dropped — the run's roster is fixed at accept time.
        if opts.resume {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        prepare_stream(&stream)?;
                        reconnects.push(CoordLink::new(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(net_err(e)),
                }
            }
            let mut i = 0;
            while i < reconnects.len() {
                if reconnects[i].try_recv()?.is_some() || reconnects[i].is_eof() {
                    // Data before Hello, or died while pending.
                    reconnects.swap_remove(i);
                    continue;
                }
                let Some(hello) = reconnects[i].hello() else {
                    i += 1;
                    continue;
                };
                let slot = hello.shard as usize;
                let links = links_of(&mut driver);
                if hello.token == 0 || links.get(slot).is_none_or(|l| l.token() != hello.token) {
                    reconnects.swap_remove(i);
                    continue;
                }
                let l = &mut links[slot];
                if parked_since[slot].is_none() {
                    // The party noticed the death first. Park the link
                    // and let the next sweep account for the loss; the
                    // reconnect waits that one turn of the loop.
                    l.park();
                    i += 1;
                    continue;
                }
                l.resume_with(reconnects.swap_remove(i).into_stream(), hello);
                l.send_hello_ack(false, &[])?;
                l.retransmit_unacked()?;
                if l.is_parked() {
                    // The party died again mid-handshake and the link
                    // absorbed it: still the same outage. The slot keeps
                    // its `parked_since` — `RESUME_TIMEOUT` bounds the
                    // whole of it — and stays unregistered.
                    continue;
                }
                poll.registry().register(l, Token(slot), Interest::READABLE).map_err(net_err)?;
                parked_since[slot] = None;
                driver.note_link_resumed();
            }
        }

        // Nothing moved: run the quiescence protocol (module docs). A
        // parked link is never quiet, so simulated time holds still
        // across an outage — deadlines cannot fire against a party
        // that isn't there to answer.
        let mut all_quiet = true;
        for l in links_of(&mut driver) {
            if l.needs_probe() {
                l.send_probe()?;
            }
            all_quiet &= l.quiet();
        }
        if !all_quiet {
            // Probes may be staged behind a full buffer; keep the write
            // interest honest before sleeping.
            flush_links(links_of(&mut driver), &poll, &mut write_registered)?;
            continue;
        }
        // Provably quiet: one defensive drain, then time advances.
        if driver.pump()? {
            continue;
        }
        if !driver.advance_clock()? {
            return Err(FlError::Protocol(
                "socket driver stalled: wire quiet, no live deadline, jobs unfinished".into(),
            ));
        }
    }

    // Final drain (chaos leftovers and post-completion replies are
    // counted), then the final boundary snapshot and shutdown.
    while driver.pump()? {}
    if let Some(dir) = &opts.checkpoint_dir {
        if driver.at_round_boundary() {
            write_checkpoint(dir, &driver.checkpoint()?)?;
            checkpoint_rounds += 1;
        }
    }
    for l in links_of(&mut driver) {
        l.send_shutdown()?;
    }
    // Linger until every party has read the shutdown notice and closed
    // its end: closing first would race in-flight probe answers and can
    // RST the shutdown frame out of the party's receive buffer. Late
    // control frames are read and discarded; data after finish would be
    // a protocol bug and is surfaced.
    let flush_deadline = Instant::now() + SHUTDOWN_TIMEOUT;
    loop {
        let links = links_of(&mut driver);
        let pending = flush_links(links, &poll, &mut write_registered)?;
        let mut all_closed = true;
        for l in links {
            if let Some(frame) = l.try_recv()? {
                return Err(FlError::Protocol(format!(
                    "party sent a {}-byte data frame after the run finished",
                    frame.len()
                )));
            }
            all_closed &= l.is_parked() || l.is_eof();
        }
        if (all_closed && !pending) || Instant::now() > flush_deadline {
            break; // slow peers still observe EOF on drop
        }
        poll.poll(&mut events, Some(Duration::from_millis(5))).map_err(net_err)?;
    }

    let histories = driver
        .job_ids()
        .into_iter()
        .map(|id| (id, driver.history(id).expect("registered job").clone()))
        .collect();
    Ok(ServerOutcome {
        histories,
        stats: driver.stats(),
        breaker_transitions: driver.guard().map_or_else(Vec::new, |g| g.transitions().to_vec()),
        chaos_events: driver.transport().log().to_vec(),
        checkpoint_rounds,
    })
}
