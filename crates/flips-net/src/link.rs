//! Socket-backed link types: the coordinator's per-connection state,
//! the router multiplexing them behind one [`Transport`], and the
//! party-side link.
//!
//! All three wrap a [`StreamTransport`] over a nonblocking `TcpStream`
//! and strip the [control protocol](crate::control) *below* the
//! [`Transport`] seam: the protocol state machines, the driver's wire
//! counters and the chaos schedule's per-link frame indices all see
//! exactly the data-frame sequences the in-memory multi-link lockstep
//! sees. Control traffic — quiescence probes, session handshakes,
//! shutdown — is this module's private business.
//!
//! # Link-loss resilience
//!
//! Both ends retain every sent data frame until the peer's counters
//! acknowledge it (probe traffic carries the counters, so retention is
//! pruned continuously). When a connection dies, a *resumable*
//! [`CoordLink`] **parks** instead of erroring: counters, retained
//! frames and codec state stay alive while the socket is gone. A
//! reconnecting party presents its session token and counters in its
//! Hello; each side then retransmits exactly the frames the peer never
//! received, so the per-link data-frame sequence — and therefore every
//! seeded history and chaos index — is identical to an uninterrupted
//! run.

use crate::control::{is_control_frame, ControlMsg};
use bytes::Bytes;
use flips_fl::plan::place;
use flips_fl::transport::StreamTransport;
use flips_fl::{FlError, Transport};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::{Arc, Mutex};

/// A raw file descriptor as an epoll-registrable source (the owning
/// `TcpStream` lives inside a [`StreamTransport`], so registration goes
/// through the fd captured at link construction).
#[derive(Debug, Clone, Copy)]
pub struct Fd(pub RawFd);

impl AsRawFd for Fd {
    fn as_raw_fd(&self) -> RawFd {
        self.0
    }
}

/// Prepares a stream for the event loop: `TCP_NODELAY` (length-prefixed
/// frames are small; Nagle plus delayed ACK would add ~40 ms to every
/// probe round trip) and nonblocking mode (the [`StreamTransport`]
/// contract).
pub fn prepare_stream(stream: &TcpStream) -> Result<(), FlError> {
    stream.set_nodelay(true).map_err(net_err)?;
    stream.set_nonblocking(true).map_err(net_err)?;
    Ok(())
}

/// Maps an I/O error into the workspace error type.
pub fn net_err(e: std::io::Error) -> FlError {
    FlError::Transport(format!("socket error: {e}"))
}

/// The fields of a party's Hello, as the accept path consumes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloInfo {
    /// The link slot the connection serves.
    pub shard: u32,
    /// The session token presented (0 = fresh connection).
    pub token: u64,
    /// Data frames the party has received on the link so far.
    pub received: u64,
    /// Data frames the party has sent on the link so far.
    pub sent: u64,
}

/// Sent data frames kept until the peer's counters acknowledge them,
/// shared by both link ends. `base` is the absolute index of the front
/// frame (= frames already acknowledged).
#[derive(Debug, Default)]
struct Retained {
    frames: VecDeque<Vec<u8>>,
    base: u64,
}

impl Retained {
    fn push(&mut self, frame: &[u8]) {
        self.frames.push_back(frame.to_vec());
    }

    /// Drops every frame the peer has received (absolute index below
    /// `acked`).
    fn prune(&mut self, acked: u64) {
        while self.base < acked && !self.frames.is_empty() {
            self.frames.pop_front();
            self.base += 1;
        }
    }

    /// Re-sends every still-retained frame — the resume
    /// retransmission. Counters are *not* bumped: these frames were
    /// counted when first sent.
    fn retransmit(&mut self, stream: &mut StreamTransport<TcpStream>) -> Result<(), FlError> {
        for frame in &self.frames {
            stream.send(frame)?;
        }
        Ok(())
    }
}

/// One coordinator-side connection: the framed stream plus the data
/// counters, probe state and retained-frame queue the quiescence and
/// resume protocols run on.
#[derive(Debug)]
pub struct CoordLink {
    stream: StreamTransport<TcpStream>,
    fd: RawFd,
    /// Data frames sent / received on this link (control excluded).
    data_sent: u64,
    data_received: u64,
    /// The newest probe sequence issued, and whether its answer is
    /// still in flight.
    probe_seq: u64,
    probe_outstanding: bool,
    /// The party's counter snapshot from the newest answered probe.
    acked_seq: u64,
    acked_received: u64,
    acked_sent: u64,
    /// The peer's Hello, once seen.
    hello: Option<HelloInfo>,
    /// The session token issued for this link (0 until assigned).
    token: u64,
    /// Sent data frames not yet acknowledged by the party's counters.
    retained: Retained,
    /// Whether a dead connection parks this link instead of erroring.
    resumable: bool,
    /// Whether the link is parked: the socket is gone, state is alive.
    parked: bool,
    /// One-shot flag for the event loop: the link parked since the
    /// last sweep (drive `links_lost` accounting exactly once).
    just_parked: bool,
}

impl CoordLink {
    /// Wraps an accepted, [`prepare_stream`]-configured connection.
    pub fn new(stream: TcpStream) -> CoordLink {
        let fd = stream.as_raw_fd();
        CoordLink {
            stream: StreamTransport::new(stream),
            fd,
            data_sent: 0,
            data_received: 0,
            probe_seq: 0,
            probe_outstanding: false,
            acked_seq: 0,
            acked_received: 0,
            acked_sent: 0,
            hello: None,
            token: 0,
            retained: Retained::default(),
            resumable: false,
            parked: false,
            just_parked: false,
        }
    }

    /// The peer's Hello, if it has arrived (the accept phase polls this
    /// to place the connection).
    pub fn hello(&self) -> Option<HelloInfo> {
        self.hello
    }

    /// Issues this link's session token (sent to the party in its
    /// HelloAck; presented back on reconnect).
    pub fn assign_token(&mut self, token: u64) {
        self.token = token;
    }

    /// The session token issued for this link.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Makes a dead connection park this link (state preserved for a
    /// resume) instead of surfacing a transport error.
    pub fn set_resumable(&mut self, resumable: bool) {
        self.resumable = resumable;
    }

    /// Whether the peer closed its write side.
    pub fn is_eof(&self) -> bool {
        self.stream.is_eof()
    }

    /// Whether the link is parked: no socket, state alive, waiting for
    /// the party to reconnect.
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// Parks the link: the connection is considered dead; counters,
    /// retained frames and probe state stay alive for a resume.
    pub fn park(&mut self) {
        if !self.parked {
            self.parked = true;
            self.just_parked = true;
            // The in-flight probe died with the socket.
            self.probe_outstanding = false;
        }
    }

    /// Takes the one-shot "parked since last sweep" flag.
    pub fn take_just_parked(&mut self) -> bool {
        std::mem::take(&mut self.just_parked)
    }

    /// Parks on an I/O error when resumable; propagates it otherwise.
    fn absorb<T: Default>(&mut self, result: Result<T, FlError>) -> Result<T, FlError> {
        match result {
            Ok(v) => Ok(v),
            Err(e) if self.resumable => {
                self.park();
                drop(e);
                Ok(T::default())
            }
            Err(e) => Err(e),
        }
    }

    /// The connection's file descriptor (for epoll registration).
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Re-attaches a parked (or dying) link to a fresh connection: the
    /// old socket and any half-read/half-written frames are discarded,
    /// and the retained queue is pruned to the frames the party's
    /// Hello counters do not acknowledge. Counters and codec state are
    /// untouched. Call [`CoordLink::send_hello_ack`] and then
    /// [`CoordLink::retransmit_unacked`] to complete the resume — the
    /// ack must precede the retransmitted data so the party can await
    /// it.
    pub fn resume_with(&mut self, stream: TcpStream, party: HelloInfo) {
        let fd = stream.as_raw_fd();
        self.stream = StreamTransport::new(stream);
        self.fd = fd;
        self.parked = false;
        self.just_parked = false;
        self.probe_outstanding = false;
        // The Hello's counters are as authoritative as a probe answer.
        self.acked_received = party.received;
        self.acked_sent = party.sent;
        self.retained.prune(party.received);
    }

    /// Retransmits every retained frame the resumed party has not
    /// received, in order — so the data-frame sequence over the link
    /// equals an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Propagates failure on the new stream.
    pub fn retransmit_unacked(&mut self) -> Result<(), FlError> {
        self.retained.retransmit(&mut self.stream)
    }

    /// Unwraps the connection (a Hello-reading wrapper in the accept
    /// path hands its socket to the slot's real link this way).
    pub fn into_stream(self) -> TcpStream {
        self.stream.into_inner()
    }

    /// Sends one data frame (staged on backpressure, retained until the
    /// party acknowledges it; a parked link retains without sending).
    ///
    /// # Errors
    ///
    /// Propagates stream failure ([`FlError::Transport`]) on a
    /// non-resumable link; a resumable link parks instead.
    pub fn send_data(&mut self, frame: &[u8]) -> Result<(), FlError> {
        self.data_sent += 1;
        self.retained.push(frame);
        if self.parked {
            return Ok(());
        }
        let result = self.stream.send(frame);
        self.absorb(result)
    }

    /// Receives the next *data* frame, consuming any control frames in
    /// between (probe answers update this link's ack state and prune
    /// the retained queue). A parked link reads as empty.
    ///
    /// # Errors
    ///
    /// Stream failure (non-resumable links only), or a malformed
    /// control frame (a peer speaking a different protocol revision).
    pub fn try_recv_data(&mut self) -> Result<Option<Bytes>, FlError> {
        if self.parked {
            return Ok(None);
        }
        loop {
            let received = self.stream.try_recv();
            let Some(frame) = self.absorb(received)? else {
                return Ok(None);
            };
            if !is_control_frame(&frame) {
                self.data_received += 1;
                return Ok(Some(frame));
            }
            match ControlMsg::decode(&frame)? {
                ControlMsg::Status { seq, received, sent } => {
                    if seq == self.probe_seq {
                        self.probe_outstanding = false;
                        self.acked_seq = seq;
                        self.acked_received = received;
                        self.acked_sent = sent;
                    }
                    // Answers to superseded probes are stale for the
                    // quiet check, but their counters still only grow —
                    // safe (and useful) for pruning retention.
                    self.retained.prune(received);
                }
                ControlMsg::Hello { shard, token, received, sent } => {
                    self.hello = Some(HelloInfo { shard, token, received, sent });
                }
                ControlMsg::StatusReq { .. }
                | ControlMsg::Shutdown
                | ControlMsg::HelloAck { .. }
                | ControlMsg::RefSync { .. } => {
                    return Err(FlError::Protocol("party sent a server-only control frame".into()));
                }
            }
        }
    }

    /// Issues a fresh quiescence probe, carrying this side's counters
    /// as retransmit acknowledgements. A no-op while parked.
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn send_probe(&mut self) -> Result<(), FlError> {
        if self.parked {
            return Ok(());
        }
        self.probe_seq += 1;
        self.probe_outstanding = true;
        let msg = ControlMsg::StatusReq {
            seq: self.probe_seq,
            received: self.data_received,
            sent: self.data_sent,
        };
        let result = self.stream.send(&msg.encode());
        self.absorb(result)
    }

    /// Answers a Hello: the session handshake reply, immediately
    /// followed by `ref_syncs` (already counted in the ack, so the
    /// party knows how many to drain before its first data frame).
    ///
    /// # Errors
    ///
    /// Propagates stream failure.
    pub fn send_hello_ack(&mut self, fresh: bool, ref_syncs: &[ControlMsg]) -> Result<(), FlError> {
        let ack = ControlMsg::HelloAck {
            token: self.token,
            received: self.data_received,
            sent: self.data_sent,
            fresh,
            ref_syncs: ref_syncs.len() as u32,
        };
        self.stream.send(&ack.encode())?;
        for msg in ref_syncs {
            debug_assert!(matches!(msg, ControlMsg::RefSync { .. }));
            self.stream.send(&msg.encode())?;
        }
        Ok(())
    }

    /// Sends the end-of-run notice (a no-op while parked: the party is
    /// gone; its reconnect attempt will find the server gone too).
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn send_shutdown(&mut self) -> Result<(), FlError> {
        if self.parked {
            return Ok(());
        }
        let result = self.stream.send(&ControlMsg::Shutdown.encode());
        self.absorb(result)
    }

    /// Whether this link is provably quiet: the newest probe is
    /// answered, the answer's counters match this side's *current*
    /// counters in both directions (per-link TCP FIFO makes the answer
    /// a barrier — see the [control docs](crate::control)), and nothing
    /// is staged locally. A link that never carried a frame is
    /// vacuously quiet; a parked link never is (frames may be lost in
    /// flight until the party's reconnect Hello says otherwise).
    pub fn quiet(&self) -> bool {
        !self.parked
            && !self.probe_outstanding
            && self.acked_received == self.data_sent
            && self.acked_sent == self.data_received
            && !self.stream.wants_write()
    }

    /// Whether the quiescence protocol should issue a (re-)probe: not
    /// quiet, and no probe in flight (either never probed, or the last
    /// answer went stale because frames moved since). Parked links are
    /// not probed.
    pub fn needs_probe(&self) -> bool {
        !self.parked && !self.quiet() && !self.probe_outstanding
    }

    /// Whether staged bytes are waiting for write-readiness.
    pub fn wants_write(&self) -> bool {
        !self.parked && self.stream.wants_write()
    }

    /// Flushes staged bytes; `true` when the outbox drained.
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn flush(&mut self) -> Result<bool, FlError> {
        if self.parked {
            return Ok(true);
        }
        let result = self.stream.flush();
        match result {
            Ok(done) => Ok(done),
            Err(e) if self.resumable => {
                self.park();
                drop(e);
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }
}

/// The coordinator side of the socket wire: one [`CoordLink`] per party
/// process, demultiplexed by the destination word every frame carries.
///
/// Implements [`Transport`], so the unmodified
/// [`MultiJobDriver`](flips_fl::MultiJobDriver) drives remote parties
/// exactly as it drives in-memory pools. Frames are placed on links by
/// [`flips_fl::plan::place`] — the rule [`flips_fl::MemoryRouter`]
/// uses, so a socket topology and an in-memory one carry identical
/// per-link frame sequences.
///
/// Links live behind `Arc<Mutex<_>>` because the event loop needs them
/// too (readiness-driven flushing, probe issuance, resume handshakes)
/// while the driver owns the router; both run on the coordinator
/// thread, so the lock is never contended — it is a sharing structure,
/// not a synchronization point.
#[derive(Debug)]
pub struct SocketRouter {
    links: Vec<Arc<Mutex<CoordLink>>>,
}

impl SocketRouter {
    /// A router over `links` (index = link slot).
    pub fn new(links: Vec<Arc<Mutex<CoordLink>>>) -> SocketRouter {
        SocketRouter { links }
    }

    fn link(&self, i: usize) -> std::sync::MutexGuard<'_, CoordLink> {
        self.links[i].lock().expect("coordinator link poisoned")
    }
}

impl Transport for SocketRouter {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
        let Some(dest) = flips_fl::message::frame_dest(frame) else {
            return Err(FlError::Transport("frame too short to route to a link".into()));
        };
        self.link(place(dest, self.links.len())).send_data(frame)
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
        // Fixed sweep order, like the memory router: the driver pumps
        // until every link runs dry, so fairness is a non-issue.
        for i in 0..self.links.len() {
            if let Some(frame) = self.link(i).try_recv_data()? {
                return Ok(Some((i, frame)));
            }
        }
        Ok(None)
    }
}

/// The party side of one socket link. Implements [`Transport`] for an
/// unmodified [`PartyPool`](flips_fl::PartyPool); control frames are
/// stripped on receive and stashed for the party event loop
/// ([`PartyLink::take_status_req`], [`PartyLink::is_shutdown`],
/// [`PartyLink::take_ref_sync`]).
#[derive(Debug)]
pub struct PartyLink {
    stream: StreamTransport<TcpStream>,
    fd: RawFd,
    data_sent: u64,
    data_received: u64,
    status_reqs: VecDeque<u64>,
    shutdown: bool,
    /// The session token the server's HelloAck issued (0 before the
    /// first ack).
    token: u64,
    /// The newest HelloAck, until the handshake takes it.
    hello_ack: Option<(u64, u64, u64, bool, u32)>,
    /// Codec-reference seeds stashed for the event loop. Receiving one
    /// pauses the data plane (see [`PartyLink::try_recv`]) so the seed
    /// is applied before any frame encoded against it is decoded.
    ref_syncs: VecDeque<(u64, u64, Vec<f32>)>,
    /// Sent data frames not yet acknowledged by the server's counters.
    retained: Retained,
    /// Whether a dead connection marks this link broken (reconnectable)
    /// instead of surfacing a transport error.
    resumable: bool,
    /// The connection died; the event loop should reconnect.
    broken: bool,
}

impl PartyLink {
    /// Wraps a connected, [`prepare_stream`]-configured stream.
    pub fn new(stream: TcpStream) -> PartyLink {
        let fd = stream.as_raw_fd();
        PartyLink {
            stream: StreamTransport::new(stream),
            fd,
            data_sent: 0,
            data_received: 0,
            status_reqs: VecDeque::new(),
            shutdown: false,
            token: 0,
            hello_ack: None,
            ref_syncs: VecDeque::new(),
            retained: Retained::default(),
            resumable: false,
            broken: false,
        }
    }

    /// Makes a dead connection mark this link broken (for the event
    /// loop to reconnect) instead of surfacing a transport error.
    pub fn set_resumable(&mut self, resumable: bool) {
        self.resumable = resumable;
    }

    /// Whether the connection died (resumable links only; the event
    /// loop reconnects via [`PartyLink::resume_with`]).
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// The session token the server issued (0 before the first ack).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The connection's file descriptor (for epoll registration).
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Marks this link broken on an I/O error when resumable;
    /// propagates it otherwise.
    fn absorb<T: Default>(&mut self, result: Result<T, FlError>) -> Result<T, FlError> {
        match result {
            Ok(v) => Ok(v),
            Err(e) if self.resumable => {
                self.broken = true;
                drop(e);
                Ok(T::default())
            }
            Err(e) => Err(e),
        }
    }

    /// Identifies this connection's link slot — and, on reconnect, its
    /// session — to the server: the mandatory first frame (accept order
    /// is nondeterministic; the Hello makes link identity explicit).
    /// Carries this side's data counters so the server knows exactly
    /// which retained frames to retransmit.
    ///
    /// # Errors
    ///
    /// Propagates stream failure.
    pub fn send_hello(&mut self, shard: u32) -> Result<(), FlError> {
        let msg = ControlMsg::Hello {
            shard,
            token: self.token,
            received: self.data_received,
            sent: self.data_sent,
        };
        self.stream.send(&msg.encode())
    }

    /// Swaps in a fresh connection after the old one died: half-read
    /// and half-written frames are discarded (retransmission covers
    /// them), counters and retained frames survive, stale probe
    /// requests are dropped (their answers would be lies — the server
    /// re-probes).
    pub fn resume_with(&mut self, stream: TcpStream) {
        let fd = stream.as_raw_fd();
        self.stream = StreamTransport::new(stream);
        self.fd = fd;
        self.status_reqs.clear();
        self.broken = false;
    }

    /// Blocks (politely — 1 ms naps on a nonblocking socket) until the
    /// server's HelloAck arrives, returning `(received, sent, fresh)`
    /// from it. The server sends the ack before any retransmitted data
    /// frame, so a data frame arriving first is a protocol violation.
    ///
    /// # Errors
    ///
    /// Stream failure, a data frame before the ack, or `timeout`
    /// elapsing.
    pub fn await_hello_ack(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<(u64, u64, bool), FlError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(frame) = self.try_recv()? {
                return Err(FlError::Protocol(format!(
                    "server sent a {}-byte data frame before its hello-ack",
                    frame.len()
                )));
            }
            if self.broken {
                return Err(FlError::Transport("connection died awaiting hello-ack".into()));
            }
            if let Some((token, received, sent, fresh, _)) = self.hello_ack.take() {
                self.token = token;
                return Ok((received, sent, fresh));
            }
            if std::time::Instant::now() > deadline {
                return Err(FlError::Transport("timed out awaiting hello-ack".into()));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Retransmits every retained frame the server's ack counters do
    /// not cover (absolute index `from` on). Counters are untouched —
    /// these frames were counted when first sent.
    ///
    /// # Errors
    ///
    /// Propagates stream failure.
    pub fn retransmit_from(&mut self, from: u64) -> Result<(), FlError> {
        self.retained.prune(from);
        self.retained.retransmit(&mut self.stream)
    }

    /// Data frames received on this link so far (the deliberate
    /// link-death test knob triggers off this).
    pub fn data_received(&self) -> u64 {
        self.data_received
    }

    /// The oldest unanswered quiescence probe, if any. Answer only
    /// after a full pool pump — the FIFO barrier the server's quiet
    /// check relies on.
    pub fn take_status_req(&mut self) -> Option<u64> {
        self.status_reqs.pop_front()
    }

    /// The oldest unapplied codec-reference seed, if any (see
    /// [`ControlMsg::RefSync`]). The event loop applies these to its
    /// pool between pumps.
    pub fn take_ref_sync(&mut self) -> Option<(u64, u64, Vec<f32>)> {
        self.ref_syncs.pop_front()
    }

    /// Answers probe `seq` with this side's current data counters.
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn send_status(&mut self, seq: u64) -> Result<(), FlError> {
        let msg = ControlMsg::Status { seq, received: self.data_received, sent: self.data_sent };
        let result = self.stream.send(&msg.encode());
        self.absorb(result)
    }

    /// Whether the server announced end-of-run.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Whether the server closed its write side.
    pub fn is_eof(&self) -> bool {
        self.stream.is_eof()
    }

    /// Whether staged bytes are waiting for write-readiness.
    pub fn wants_write(&self) -> bool {
        !self.broken && self.stream.wants_write()
    }

    /// Flushes staged bytes; `true` when the outbox drained.
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn flush(&mut self) -> Result<bool, FlError> {
        if self.broken {
            return Ok(true);
        }
        let result = self.stream.flush();
        match result {
            Ok(done) => Ok(done),
            Err(e) if self.resumable => {
                self.broken = true;
                drop(e);
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }

    /// Half-closes the connection (FIN) so the coordinator observes
    /// EOF even while this link — and its counters — stays alive
    /// inside a returned pool. Errors are ignored: the peer may
    /// already be gone, which serves the same purpose.
    pub fn close(&self) {
        let _ = self.stream.get_ref().shutdown(std::net::Shutdown::Write);
    }

    /// Severs the connection in *both* directions — the deliberate
    /// link-death test knob (a crash simulated without a process exit).
    pub fn sever(&mut self) {
        let _ = self.stream.get_ref().shutdown(std::net::Shutdown::Both);
        if self.resumable {
            self.broken = true;
        }
    }
}

impl Transport for PartyLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
        self.data_sent += 1;
        self.retained.push(frame);
        if self.broken {
            return Ok(());
        }
        let result = self.stream.send(frame);
        self.absorb(result)
    }

    fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
        if self.broken {
            return Ok(None);
        }
        loop {
            let received = self.stream.try_recv();
            let Some(frame) = self.absorb(received)? else {
                return Ok(None);
            };
            if !is_control_frame(&frame) {
                self.data_received += 1;
                return Ok(Some(frame));
            }
            match ControlMsg::decode(&frame)? {
                ControlMsg::StatusReq { seq, received, sent } => {
                    self.status_reqs.push_back(seq);
                    // The server's received count acknowledges our
                    // retained frames.
                    self.retained.prune(received);
                    let _ = sent;
                }
                ControlMsg::Shutdown => self.shutdown = true,
                ControlMsg::HelloAck { token, received, sent, fresh, ref_syncs } => {
                    // Stash and STOP, like RefSync below: the handshake
                    // ([`PartyLink::await_hello_ack`]) must observe the
                    // ack before any data frame behind it is surfaced.
                    self.hello_ack = Some((token, received, sent, fresh, ref_syncs));
                    self.token = token;
                    return Ok(None);
                }
                ControlMsg::RefSync { job, round, params } => {
                    // Stash and STOP: the seed must be applied (by the
                    // event loop) before any following frame — which
                    // may be encoded against it — is decoded. The pump
                    // resumes after application.
                    self.ref_syncs.push_back((job, round, params));
                    return Ok(None);
                }
                ControlMsg::Hello { .. } | ControlMsg::Status { .. } => {
                    return Err(FlError::Protocol("server sent a party-only control frame".into()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flips_fl::message::frame;
    use flips_fl::WireMessage;

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        prepare_stream(&client).unwrap();
        prepare_stream(&server).unwrap();
        (client, server)
    }

    fn drain_until<F: FnMut() -> bool>(mut done: F) {
        for _ in 0..2_000 {
            if done() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("condition never became true");
    }

    #[test]
    fn control_frames_are_invisible_to_the_data_plane() {
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        let mut party = PartyLink::new(c);

        // Party sends a status answer, then a data frame; the
        // coordinator's data plane must surface only the data frame.
        coord.send_probe().unwrap();
        let data = frame(u64::MAX, &WireMessage::Heartbeat { job: 9, round: 0, party: 1 });
        party.try_recv().unwrap(); // absorb the probe (returns None: control only)
        let seq = party.take_status_req().expect("probe stashed");
        party.send_status(seq).unwrap();
        Transport::send(&mut party, &data).unwrap();

        let mut got = None;
        drain_until(|| {
            got = coord.try_recv_data().unwrap();
            got.is_some()
        });
        assert_eq!(got.unwrap(), data);
        assert_eq!(coord.data_received, 1, "control frames must not count as data");
    }

    #[test]
    fn quiet_requires_matching_counters_in_both_directions() {
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        let mut party = PartyLink::new(c);
        assert!(coord.quiet(), "an untouched link is vacuously quiet");

        let data = frame(3, &WireMessage::Heartbeat { job: 9, round: 0, party: 3 });
        coord.send_data(&data).unwrap();
        assert!(!coord.quiet(), "a sent frame without an ack cannot be quiet");
        assert!(coord.needs_probe());
        coord.send_probe().unwrap();
        assert!(!coord.needs_probe(), "one probe in flight at a time");

        // Party pumps (receives the data frame), then answers.
        drain_until(|| {
            party.try_recv().unwrap();
            party.take_status_req().map(|seq| party.send_status(seq).unwrap()).is_some()
        });
        drain_until(|| {
            coord.try_recv_data().unwrap();
            coord.quiet()
        });
    }

    #[test]
    fn stale_probe_answers_do_not_mark_the_link_quiet() {
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        let mut party = PartyLink::new(c);
        let data = frame(3, &WireMessage::Heartbeat { job: 9, round: 0, party: 3 });
        coord.send_data(&data).unwrap();
        coord.send_probe().unwrap();
        // The party answers while it has seen only the first frame.
        drain_until(|| {
            party.try_recv().unwrap();
            party.take_status_req().map(|seq| party.send_status(seq).unwrap()).is_some()
        });
        // A second frame departs after that answer was computed: the
        // answer accounts for one frame of two and must read as stale.
        coord.send_data(&data).unwrap();
        drain_until(|| {
            coord.try_recv_data().unwrap();
            !coord.probe_outstanding
        });
        assert!(!coord.quiet(), "an answer predating the second frame proved nothing");
        assert!(coord.needs_probe(), "staleness must trigger a re-probe");
    }

    #[test]
    fn router_routes_by_destination_modulo_links() {
        let (c0, s0) = tcp_pair();
        let (c1, s1) = tcp_pair();
        let links = vec![
            Arc::new(Mutex::new(CoordLink::new(s0))),
            Arc::new(Mutex::new(CoordLink::new(s1))),
        ];
        let mut router = SocketRouter::new(links);
        assert_eq!(router.links(), 2);
        assert_eq!(router.link_for(9, 4), 0);
        assert_eq!(router.link_for(9, 7), 1);
        // The router and the plan's shares agree on every placement.
        let wire = flips_fl::WireOptions::new(2);
        for party in 0..64usize {
            assert_eq!(router.link_for(9, party as u64), wire.link_of(party));
        }

        let even = frame(4, &WireMessage::Heartbeat { job: 9, round: 0, party: 4 });
        let odd = frame(7, &WireMessage::Heartbeat { job: 9, round: 0, party: 7 });
        router.send(&even).unwrap();
        router.send(&odd).unwrap();
        assert!(matches!(router.send(&[1, 2]), Err(FlError::Transport(_))));

        let mut p0 = PartyLink::new(c0);
        let mut p1 = PartyLink::new(c1);
        drain_until(|| p0.try_recv().unwrap().is_some_and(|f| f == even));
        drain_until(|| p1.try_recv().unwrap().is_some_and(|f| f == odd));
    }

    #[test]
    fn probe_counters_prune_retained_frames_on_both_sides() {
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        let mut party = PartyLink::new(c);
        let data = frame(3, &WireMessage::Heartbeat { job: 9, round: 0, party: 3 });
        coord.send_data(&data).unwrap();
        Transport::send(&mut party, &data).unwrap();
        assert_eq!(coord.retained.frames.len(), 1);
        assert_eq!(party.retained.frames.len(), 1);
        // One full probe round trip: the party learns the server
        // received its frame, the server learns the party received its.
        drain_until(|| coord.try_recv_data().unwrap().is_some());
        coord.send_probe().unwrap();
        drain_until(|| {
            party.try_recv().unwrap();
            party.take_status_req().map(|seq| party.send_status(seq).unwrap()).is_some()
        });
        drain_until(|| {
            coord.try_recv_data().unwrap();
            coord.retained.frames.is_empty()
        });
        assert!(party.retained.frames.is_empty(), "the probe's counters acked the party's frame");
        assert_eq!(coord.retained.base, 1);
        assert_eq!(party.retained.base, 1);
    }

    #[test]
    fn a_dead_party_parks_a_resumable_link_instead_of_erroring() {
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        coord.set_resumable(true);
        let mut party = PartyLink::new(c);
        party.sever();
        drop(party);
        let data = frame(3, &WireMessage::Heartbeat { job: 9, round: 0, party: 3 });
        // Recv + send on the dead socket must park, not error.
        drain_until(|| {
            coord.try_recv_data().unwrap();
            coord.send_data(&data).unwrap();
            let _ = coord.flush().unwrap();
            coord.is_parked() || coord.is_eof()
        });
        if !coord.is_parked() {
            coord.park(); // EOF without an error also parks (the loop's job)
        }
        assert!(coord.take_just_parked());
        assert!(!coord.take_just_parked(), "the parked flag is one-shot");
        assert!(!coord.quiet(), "a parked link must hold the clock");
        assert!(!coord.needs_probe(), "a parked link cannot be probed");
        // Sends while parked retain silently.
        let before = coord.data_sent;
        coord.send_data(&data).unwrap();
        assert_eq!(coord.data_sent, before + 1);
        assert!(coord.try_recv_data().unwrap().is_none());
    }

    #[test]
    fn resume_retransmits_exactly_the_unacknowledged_frames() {
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        coord.set_resumable(true);
        coord.assign_token(42);
        let f0 = frame(3, &WireMessage::Heartbeat { job: 9, round: 0, party: 3 });
        let f1 = frame(3, &WireMessage::Heartbeat { job: 9, round: 1, party: 3 });
        let f2 = frame(3, &WireMessage::Heartbeat { job: 9, round: 2, party: 3 });
        coord.send_data(&f0).unwrap();
        coord.send_data(&f1).unwrap();
        coord.send_data(&f2).unwrap();
        drop(c); // the party's first connection dies
        coord.park();

        // The party reconnects claiming it received only f0.
        let (c2, s2) = tcp_pair();
        // (swap the server end into the coordinator link)
        coord.resume_with(s2, HelloInfo { shard: 0, token: 42, received: 1, sent: 0 });
        coord.send_hello_ack(false, &[]).unwrap();
        coord.retransmit_unacked().unwrap();
        assert!(!coord.is_parked());
        let mut party = PartyLink::new(c2);
        let ack = party.await_hello_ack(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(ack, (0, 3, false), "the ack precedes the retransmits and carries counters");
        let mut got = Vec::new();
        drain_until(|| {
            if let Some(f) = party.try_recv().unwrap() {
                got.push(f);
            }
            got.len() == 2
        });
        assert_eq!(got, vec![f1.clone(), f2.clone()], "exactly the unacked frames, in order");
        assert_eq!(coord.data_sent, 3, "retransmission must not recount frames");
    }

    #[test]
    fn hello_ack_and_ref_sync_reach_the_party_in_order() {
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        coord.assign_token(7);
        let seeds = vec![
            ControlMsg::RefSync { job: 9, round: 2, params: vec![1.0, 2.0] },
            ControlMsg::RefSync { job: 11, round: 2, params: vec![3.0] },
        ];
        coord.send_hello_ack(true, &seeds).unwrap();
        let mut party = PartyLink::new(c);
        let (received, _sent, fresh) =
            party.await_hello_ack(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!((received, fresh, party.token()), (0, true, 7));
        // Ref syncs pause the data plane one at a time.
        drain_until(|| {
            party.try_recv().unwrap();
            party.ref_syncs.len() == 2
        });
        assert_eq!(party.take_ref_sync(), Some((9, 2, vec![1.0, 2.0])));
        assert_eq!(party.take_ref_sync(), Some((11, 2, vec![3.0])));
        assert_eq!(party.take_ref_sync(), None);
    }
}
