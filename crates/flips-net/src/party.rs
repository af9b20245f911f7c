//! The party worker's readiness-driven event loop.
//!
//! [`party_loop_with`] serves one link slot of the socket wire: a
//! [`PartyPool`] — the same unmodified pool the in-memory lockstep
//! pumps — pumped whenever the connection reads ready, with the
//! [control protocol](crate::control) answered in between pumps. The
//! ordering is the load-bearing part: a quiescence probe is answered
//! only *after* a full pool pump has processed every pending downlink
//! frame and put every reply on the wire (or in the outbox), so the
//! answer is a FIFO barrier the coordinator's quiet check can trust.
//! The same ordering rule protects codec state: a `RefSync` reference
//! seed pauses the data plane (see [`crate::link::PartyLink`]) until
//! this loop has applied it to the pool, so no frame encoded against a
//! restored reference is ever decoded without it.
//!
//! [`PartyOptions`] holds the failure-recovery behaviours:
//! reconnect-and-resume after a dead connection (under the seeded
//! [backoff](crate::backoff) schedule), and a deliberate link-death
//! knob for chaos tests.

use crate::link::{net_err, PartyLink};
use crate::metrics::{render_party_metrics, HealthPlane, PartySnapshot};
use flips_fl::{FlError, GuardConfig, LinkShare, PartyPool};
use mio::{Events, Interest, Poll, Token};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// The worker loop's safety-net wakeup (all real work is event-driven).
const POLL_TIMEOUT: Duration = Duration::from_millis(20);

/// The total budget one reconnect attempt may spend dialing (the
/// per-attempt pacing comes from [`crate::backoff`]).
const RECONNECT_BUDGET: Duration = Duration::from_secs(30);

/// How long to wait for the server's hello-ack after a Hello.
const HELLO_TIMEOUT: Duration = Duration::from_secs(60);

/// The epoll token of the data link (health tokens live far above).
const LINK_TOKEN: Token = Token(0);

/// Failure-recovery options of one party worker.
#[derive(Debug, Clone, Default)]
pub struct PartyOptions {
    /// Where to reconnect when the server connection dies mid-run.
    /// `None` keeps the old contract: a dead connection is fatal.
    pub resume_addr: Option<SocketAddr>,
    /// Test knob: deliberately sever the connection (both directions,
    /// as a crash would) once this many data frames have been
    /// received. One-shot; requires `resume_addr`.
    pub drop_after: Option<u64>,
}

/// Serves link slot `share.link` over `stream` — the endpoints, pinned
/// codecs and tree role [`flips_fl::split`] placed there — until the
/// coordinator's shutdown notice, then returns the finished pool (its
/// observability counters outlive the run). `health`, when given,
/// serves `/metrics` and `/healthz` from the same event loop; default
/// [`PartyOptions`] never reconnect.
///
/// The connection is switched to nonblocking + `TCP_NODELAY` and a
/// Hello naming the share's link slot is the first frame out — accept
/// order at the server is nondeterministic, so the slot must be
/// announced, not assumed. The server's hello-ack is awaited before the
/// loop starts; it carries the session token a later reconnect
/// presents, and any restored codec references ride directly behind it.
///
/// # Errors
///
/// Socket failures, protocol violations and training failures
/// propagate; a server that disappears without a shutdown notice is a
/// [`FlError::Transport`] — with `opts.resume_addr` set, only once a
/// reconnect exhausts its budget (or the server answers it with a fresh
/// session — the run state is gone).
pub fn party_loop_with(
    stream: TcpStream,
    share: LinkShare,
    guard: Option<&GuardConfig>,
    health: Option<TcpListener>,
    opts: &PartyOptions,
) -> Result<PartyPool<PartyLink>, FlError> {
    let shard = share.link as u32;
    crate::link::prepare_stream(&stream)?;
    let mut link = PartyLink::new(stream);
    link.set_resumable(opts.resume_addr.is_some());
    link.send_hello(shard)?;
    link.await_hello_ack(HELLO_TIMEOUT)?;
    let parties = share.parties() as u64;
    let mut pool = PartyPool::install(link, share, guard);

    let mut poll = Poll::new().map_err(net_err)?;
    let mut events = Events::with_capacity(16);
    poll.registry().register(pool.transport(), LINK_TOKEN, Interest::READABLE).map_err(net_err)?;
    let mut write_registered = false;
    let mut health_plane = HealthPlane::new(health)?;
    health_plane.register(poll.registry())?;
    let mut dropped = false;

    loop {
        poll.poll(&mut events, Some(POLL_TIMEOUT)).map_err(net_err)?;
        let health_tokens: Vec<usize> =
            events.iter().map(|e| e.token().0).filter(|t| health_plane.owns(*t)).collect();
        for token in health_tokens {
            let snap = PartySnapshot {
                shard,
                parties,
                unroutable: pool.unroutable(),
                rejected: pool.rejected(),
                codec_mismatch: pool.codec_mismatch(),
                renegotiations_rejected: pool.renegotiations_rejected(),
                oversized: pool.oversized(),
            };
            health_plane.handle(poll.registry(), token, &mut || render_party_metrics(&snap))?;
        }

        // Pump to exhaustion — local training for every delivered model
        // happens inside — and only then answer any quiescence probes:
        // the probe answer must sit behind every reply in the stream.
        // Reference seeds are applied *before* every pump: the link
        // pauses its data plane at each RefSync, and no frame encoded
        // against a seeded reference may decode before the seed lands.
        loop {
            let mut seeded = false;
            while let Some((job, round, params)) = pool.transport_mut().take_ref_sync() {
                if !pool.seed_reference(job, round, &params) {
                    return Err(FlError::Protocol(format!(
                        "server re-keyed job {job:#x} round {round}, but this pool's codec \
                         keeps no reference of that shape"
                    )));
                }
                seeded = true;
            }
            if !pool.pump()? && !seeded {
                break;
            }
        }
        if let Some(after) = opts.drop_after {
            let link = pool.transport_mut();
            if !dropped && link.data_received() >= after {
                // The chaos knob: die like a crashed process would.
                link.sever();
                dropped = true;
            }
        }
        let link = pool.transport_mut();
        if link.is_shutdown() {
            // The coordinator has stopped listening for quiescence;
            // answering now would race its socket teardown.
            while link.take_status_req().is_some() {}
        } else {
            while let Some(seq) = link.take_status_req() {
                link.send_status(seq)?;
            }
        }
        if link.wants_write() {
            link.flush()?;
        }
        let wants = link.wants_write();
        if wants != write_registered {
            let interest =
                if wants { Interest::READABLE | Interest::WRITABLE } else { Interest::READABLE };
            poll.registry().reregister(link, LINK_TOKEN, interest).map_err(net_err)?;
            write_registered = wants;
        }
        if link.is_shutdown() && !wants {
            // FIN now: the pool (and the socket inside it) outlives
            // this loop, and the coordinator lingers until it sees EOF.
            link.close();
            return Ok(pool);
        }
        if link.is_broken() || (link.is_eof() && !link.is_shutdown()) {
            let Some(addr) = opts.resume_addr else {
                return Err(FlError::Transport(
                    "server closed the link without a shutdown notice".into(),
                ));
            };
            // Reconnect-and-resume: dial under the seeded backoff
            // schedule, present the session token and our counters,
            // and retransmit what the ack says the server never saw.
            let _ = poll.registry().deregister(link);
            let stream = crate::runtime::connect_with_retry(addr, RECONNECT_BUDGET)?;
            crate::link::prepare_stream(&stream)?;
            link.resume_with(stream);
            link.send_hello(shard)?;
            let (received, _sent, fresh) = link.await_hello_ack(HELLO_TIMEOUT)?;
            if fresh {
                return Err(FlError::Protocol(
                    "reconnect was answered with a fresh session: the server lost this \
                     run's state"
                        .into(),
                ));
            }
            link.retransmit_from(received)?;
            poll.registry().register(link, LINK_TOKEN, Interest::READABLE).map_err(net_err)?;
            write_registered = false;
        }
    }
}
