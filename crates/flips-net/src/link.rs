//! Socket-backed link types: the coordinator's per-connection
//! [`CoordLink`] (N of them behind one [`SocketRouter`]) and the
//! party-side [`PartyLink`], both built on one private `Session`.
//!
//! A session wraps a [`StreamTransport`] over a nonblocking `TcpStream`
//! and strips the [control protocol](crate::control) *below* the
//! [`Transport`] seam: the protocol state machines, the driver's wire
//! counters and the chaos schedule's per-link frame indices all see
//! exactly the data-frame sequences the in-memory multi-link lockstep
//! sees. Control traffic — quiescence probes, session handshakes,
//! shutdown — is this module's private business. The session is the
//! mechanism both ends share; which half of the control protocol an end
//! speaks — one `match` over the messages it may legally receive — is
//! all a [`CoordLink`] or a [`PartyLink`] adds.
//!
//! # Link-loss resilience
//!
//! Both ends of a *resumable* link retain every sent data frame until
//! the peer's counters acknowledge it (probe traffic carries the
//! counters, so retention is pruned continuously). When the connection
//! dies, the session goes **down** instead of erroring — a [`CoordLink`]
//! reads as parked, a [`PartyLink`] as broken: counters, retained
//! frames and codec state stay alive while the socket is gone. A
//! reconnecting party presents its session token and counters in its
//! Hello; each side then retransmits exactly the frames the peer never
//! received, so the per-link data-frame sequence — and therefore every
//! seeded history and chaos index — is identical to an uninterrupted
//! run.

use crate::control::{is_control_frame, ControlMsg};
use bytes::Bytes;
use flips_fl::transport::{Router, StreamTransport};
use flips_fl::{FlError, Transport};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

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

/// Sent data frames kept until the peer's counters acknowledge them.
/// `base` is the absolute index of the front frame (= frames already
/// acknowledged).
#[derive(Debug, Default)]
struct Retained {
    frames: VecDeque<Vec<u8>>,
    base: u64,
}

impl Retained {
    /// Drops every frame the peer has received (absolute index below
    /// `acked`).
    fn prune(&mut self, acked: u64) {
        while self.base < acked && !self.frames.is_empty() {
            self.frames.pop_front();
            self.base += 1;
        }
    }
}

/// Everything a link end is regardless of which end it is: the framed
/// stream, the data counters and retained-frame queue the quiescence
/// and resume protocols run on, and whether the connection is gone.
#[derive(Debug)]
struct Session {
    stream: StreamTransport<TcpStream>,
    /// Data frames sent / received on this link (control excluded).
    data_sent: u64,
    data_received: u64,
    /// Sent data frames the peer's counters have not acknowledged yet
    /// (kept only on a resumable link — nothing else can re-send them).
    retained: Retained,
    /// Whether a dead connection takes this session down (state kept
    /// for a resume) instead of surfacing a transport error. Both event
    /// loops set it before the link's first data frame, so retention
    /// never starts mid-sequence.
    resumable: bool,
    /// The socket is gone, the state is alive: sends are held and
    /// receives read as empty until a resume swaps a stream in.
    down: bool,
}

impl Session {
    fn new(stream: TcpStream) -> Session {
        Session {
            stream: StreamTransport::new(stream),
            data_sent: 0,
            data_received: 0,
            retained: Retained::default(),
            resumable: false,
            down: false,
        }
    }

    /// Goes down on an I/O error when resumable, reporting `idle` — what
    /// the operation reads as on a dead link; propagates it otherwise.
    fn absorb<T>(&mut self, result: Result<T, FlError>, idle: T) -> Result<T, FlError> {
        match result {
            Err(_) if self.resumable => {
                self.down = true;
                Ok(idle)
            }
            other => other,
        }
    }

    /// Sends one data frame: counted first, retained while resumable,
    /// then sent (staged on backpressure) — or held while down.
    fn send_data(&mut self, frame: &[u8]) -> Result<(), FlError> {
        self.data_sent += 1;
        if self.resumable {
            self.retained.frames.push_back(frame.to_vec());
        }
        if self.down {
            return Ok(());
        }
        let result = self.stream.send(frame);
        self.absorb(result, ())
    }

    /// Sends one control frame (neither counted nor retained; dropped
    /// while down — the peer that would read it is gone).
    fn send_control(&mut self, msg: &ControlMsg) -> Result<(), FlError> {
        if self.down {
            return Ok(());
        }
        let result = self.stream.send(&msg.encode());
        self.absorb(result, ())
    }

    /// The next frame off the wire: `Ok` a data frame (counted), `Err` a
    /// control message (decoded) for this end's `match`; `None` when
    /// nothing complete is buffered or the session is down.
    fn recv(&mut self) -> Result<Option<Result<Bytes, ControlMsg>>, FlError> {
        if self.down {
            return Ok(None);
        }
        let received = self.stream.try_recv();
        let Some(frame) = self.absorb(received, None)? else {
            return Ok(None);
        };
        if is_control_frame(&frame) {
            return Ok(Some(Err(ControlMsg::decode(&frame)?)));
        }
        self.data_received += 1;
        Ok(Some(Ok(frame)))
    }

    /// Whether staged bytes are waiting for write-readiness.
    fn wants_write(&self) -> bool {
        !self.down && self.stream.wants_write()
    }

    /// Flushes staged bytes; `true` when the outbox drained.
    fn flush(&mut self) -> Result<bool, FlError> {
        if self.down {
            return Ok(true);
        }
        let result = self.stream.flush();
        self.absorb(result, true)
    }

    /// Swaps in a fresh connection: the old socket and any half-read or
    /// half-written frames are discarded (retransmission covers them);
    /// counters and retained frames survive.
    fn resume_with(&mut self, stream: TcpStream) {
        self.stream = StreamTransport::new(stream);
        self.down = false;
    }

    /// The resume retransmission: drops the frames `acked` covers, then
    /// re-sends every still-retained one in order. Counters are *not*
    /// bumped — these frames were counted when first sent.
    fn retransmit(&mut self, acked: u64) -> Result<(), FlError> {
        self.retained.prune(acked);
        if self.down {
            return Ok(());
        }
        let result = self.retained.frames.iter().try_for_each(|frame| self.stream.send(frame));
        self.absorb(result, ())
    }
}

/// One coordinator-side connection: a `Session` plus the probe state,
/// Hello and token of the server half of the control protocol. As a
/// [`Transport`] it is the link's data plane: a parked link holds what
/// is sent and reads as empty; control frames never surface.
#[derive(Debug)]
pub struct CoordLink {
    session: Session,
    /// The newest probe sequence issued, and whether its answer is
    /// still in flight.
    probe_seq: u64,
    probe_outstanding: bool,
    /// The party's counter snapshot from the newest answered probe.
    acked_received: u64,
    acked_sent: u64,
    /// The peer's Hello, once seen.
    hello: Option<HelloInfo>,
    /// The session token issued for this link (0 until assigned).
    token: u64,
}

impl CoordLink {
    /// Wraps an accepted, [`prepare_stream`]-configured connection.
    pub fn new(stream: TcpStream) -> CoordLink {
        CoordLink {
            session: Session::new(stream),
            probe_seq: 0,
            probe_outstanding: false,
            acked_received: 0,
            acked_sent: 0,
            hello: None,
            token: 0,
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
    /// resume) instead of surfacing a transport error. Set before the
    /// first data frame: only a resumable link retains what it sends.
    pub fn set_resumable(&mut self, resumable: bool) {
        self.session.resumable = resumable;
    }

    /// Whether the peer closed its write side.
    pub fn is_eof(&self) -> bool {
        self.session.stream.is_eof()
    }

    /// Whether the link is parked: no socket, state alive, waiting for
    /// the party to reconnect.
    pub fn is_parked(&self) -> bool {
        self.session.down
    }

    /// Parks the link: the connection is considered dead; counters,
    /// retained frames and codec state stay alive for a resume.
    pub fn park(&mut self) {
        self.session.down = true;
    }

    /// Re-attaches a parked (or dying) link to a fresh connection (see
    /// `Session::resume_with`); the probe in flight died with the old
    /// socket. Call [`CoordLink::send_hello_ack`] and then
    /// [`CoordLink::retransmit_unacked`] to complete the resume — the
    /// ack must precede the retransmitted data so the party can await
    /// it.
    pub fn resume_with(&mut self, stream: TcpStream, party: HelloInfo) {
        self.session.resume_with(stream);
        self.probe_outstanding = false;
        // The Hello's counters are as authoritative as a probe answer.
        self.acked_received = party.received;
        self.acked_sent = party.sent;
    }

    /// Retransmits every retained frame the resumed party has not
    /// received, in order — so the data-frame sequence over the link
    /// equals an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Propagates failure on the new stream (non-resumable links only;
    /// a resumable link whose party is gone again re-parks).
    pub fn retransmit_unacked(&mut self) -> Result<(), FlError> {
        self.session.retransmit(self.acked_received)
    }

    /// Unwraps the connection (a Hello-reading wrapper in the accept
    /// path hands its socket to the slot's real link this way).
    pub fn into_stream(self) -> TcpStream {
        self.session.stream.into_inner()
    }

    /// Issues a fresh quiescence probe, carrying this side's counters
    /// as retransmit acknowledgements. A no-op while parked.
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn send_probe(&mut self) -> Result<(), FlError> {
        if self.session.down {
            return Ok(());
        }
        self.probe_seq += 1;
        self.probe_outstanding = true;
        self.session.send_control(&ControlMsg::StatusReq {
            seq: self.probe_seq,
            received: self.session.data_received,
            sent: self.session.data_sent,
        })
    }

    /// Answers a Hello: the session handshake reply, immediately
    /// followed by `ref_syncs` (already counted in the ack, so the
    /// party knows how many to drain before its first data frame).
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn send_hello_ack(&mut self, fresh: bool, ref_syncs: &[ControlMsg]) -> Result<(), FlError> {
        self.session.send_control(&ControlMsg::HelloAck {
            token: self.token,
            received: self.session.data_received,
            sent: self.session.data_sent,
            fresh,
            ref_syncs: ref_syncs.len() as u32,
        })?;
        for msg in ref_syncs {
            debug_assert!(matches!(msg, ControlMsg::RefSync { .. }));
            self.session.send_control(msg)?;
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
        self.session.send_control(&ControlMsg::Shutdown)
    }

    /// Whether this link is provably quiet: the newest probe is
    /// answered, the answer's counters match this side's *current*
    /// counters in both directions (per-link TCP FIFO makes the answer
    /// a barrier — see the [control docs](crate::control)), and nothing
    /// is staged locally. A link that never carried a frame is
    /// vacuously quiet; a parked link never is (frames may be lost in
    /// flight until the party's reconnect Hello says otherwise).
    pub fn quiet(&self) -> bool {
        !self.session.down
            && !self.probe_outstanding
            && self.acked_received == self.session.data_sent
            && self.acked_sent == self.session.data_received
            && !self.session.stream.wants_write()
    }

    /// Whether the quiescence protocol should issue a (re-)probe: not
    /// quiet, and no probe in flight (either never probed, or the last
    /// answer went stale because frames moved since). Parked links are
    /// not probed.
    pub fn needs_probe(&self) -> bool {
        !self.session.down && !self.quiet() && !self.probe_outstanding
    }

    /// Whether staged bytes are waiting for write-readiness.
    pub fn wants_write(&self) -> bool {
        self.session.wants_write()
    }

    /// Flushes staged bytes; `true` when the outbox drained.
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn flush(&mut self) -> Result<bool, FlError> {
        self.session.flush()
    }
}

/// The current connection's descriptor, for epoll registration: a link
/// registers as itself, so a resume's new socket needs no bookkeeping.
impl AsRawFd for CoordLink {
    fn as_raw_fd(&self) -> RawFd {
        self.session.stream.get_ref().as_raw_fd()
    }
}

impl Transport for CoordLink {
    /// Stream failure surfaces ([`FlError::Transport`]) on a
    /// non-resumable link only; a resumable link parks instead.
    fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
        self.session.send_data(frame)
    }

    /// Probe answers met on the way update this link's ack state and
    /// prune the retained queue. Errors as [`CoordLink::send`], and on
    /// a malformed or server-only control frame (a peer speaking a
    /// different protocol revision).
    fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
        loop {
            let msg = match self.session.recv()? {
                None => return Ok(None),
                Some(Ok(frame)) => return Ok(Some(frame)),
                Some(Err(msg)) => msg,
            };
            match msg {
                ControlMsg::Status { seq, received, sent } => {
                    if seq == self.probe_seq {
                        self.probe_outstanding = false;
                        self.acked_received = received;
                        self.acked_sent = sent;
                    }
                    // Answers to superseded probes are stale for the
                    // quiet check, but their counters still only grow —
                    // safe (and useful) for pruning retention.
                    self.session.retained.prune(received);
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
}

/// The coordinator side of the socket wire: one [`CoordLink`] per party
/// process behind the workspace's one [`Router`], so the unmodified
/// [`MultiJobDriver`](flips_fl::MultiJobDriver) drives remote parties as
/// it drives in-memory pools, over identical per-link frame sequences.
/// The router owns the links; the event loop reaches them through the
/// driver ([`Router::links_mut`]) to flush, probe and resume them.
pub type SocketRouter = Router<CoordLink>;

/// The party side of one socket link: a `Session` plus what the party
/// half of the control protocol stashes for the party event loop
/// ([`PartyLink::take_status_req`], [`PartyLink::is_shutdown`],
/// [`PartyLink::take_ref_sync`]). Implements [`Transport`] for an
/// unmodified [`PartyPool`](flips_fl::PartyPool).
#[derive(Debug)]
pub struct PartyLink {
    session: Session,
    status_reqs: VecDeque<u64>,
    shutdown: bool,
    /// The session token the server's HelloAck issued (0 before the
    /// first ack).
    token: u64,
    /// The newest HelloAck's `(received, sent, fresh)`, until the
    /// handshake takes it.
    hello_ack: Option<(u64, u64, bool)>,
    /// Codec-reference seeds stashed for the event loop. Receiving one
    /// pauses the data plane (see [`PartyLink::try_recv`]) so the seed
    /// is applied before any frame encoded against it is decoded.
    ref_syncs: VecDeque<(u64, u64, Vec<f32>)>,
}

impl PartyLink {
    /// Wraps a connected, [`prepare_stream`]-configured stream.
    pub fn new(stream: TcpStream) -> PartyLink {
        PartyLink {
            session: Session::new(stream),
            status_reqs: VecDeque::new(),
            shutdown: false,
            token: 0,
            hello_ack: None,
            ref_syncs: VecDeque::new(),
        }
    }

    /// Makes a dead connection mark this link broken (for the event
    /// loop to reconnect) instead of surfacing a transport error. Set
    /// before the first data frame, as on a [`CoordLink`].
    pub fn set_resumable(&mut self, resumable: bool) {
        self.session.resumable = resumable;
    }

    /// Whether the connection died (resumable links only; the event
    /// loop reconnects via [`PartyLink::resume_with`]).
    pub fn is_broken(&self) -> bool {
        self.session.down
    }

    /// The session token the server issued (0 before the first ack).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Identifies this connection's link slot — and, on reconnect, its
    /// session — to the server: the mandatory first frame (accept order
    /// is nondeterministic; the Hello makes link identity explicit).
    /// Carries this side's data counters so the server knows exactly
    /// which retained frames to retransmit.
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn send_hello(&mut self, shard: u32) -> Result<(), FlError> {
        self.session.send_control(&ControlMsg::Hello {
            shard,
            token: self.token,
            received: self.session.data_received,
            sent: self.session.data_sent,
        })
    }

    /// Swaps in a fresh connection after the old one died (see
    /// `Session::resume_with`); stale probe requests are dropped
    /// (their answers would be lies — the server re-probes).
    pub fn resume_with(&mut self, stream: TcpStream) {
        self.session.resume_with(stream);
        self.status_reqs.clear();
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
    pub fn await_hello_ack(&mut self, timeout: Duration) -> Result<(u64, u64, bool), FlError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.try_recv()? {
                return Err(FlError::Protocol(format!(
                    "server sent a {}-byte data frame before its hello-ack",
                    frame.len()
                )));
            }
            if self.session.down {
                return Err(FlError::Transport("connection died awaiting hello-ack".into()));
            }
            if let Some(ack) = self.hello_ack.take() {
                return Ok(ack);
            }
            if Instant::now() > deadline {
                return Err(FlError::Transport("timed out awaiting hello-ack".into()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Retransmits every retained frame the server's ack counters do
    /// not cover (absolute index `from` on). Counters are untouched —
    /// these frames were counted when first sent.
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn retransmit_from(&mut self, from: u64) -> Result<(), FlError> {
        self.session.retransmit(from)
    }

    /// Data frames received on this link so far (the deliberate
    /// link-death test knob triggers off this).
    pub fn data_received(&self) -> u64 {
        self.session.data_received
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
        self.session.send_control(&ControlMsg::Status {
            seq,
            received: self.session.data_received,
            sent: self.session.data_sent,
        })
    }

    /// Whether the server announced end-of-run.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Whether the server closed its write side.
    pub fn is_eof(&self) -> bool {
        self.session.stream.is_eof()
    }

    /// Whether staged bytes are waiting for write-readiness.
    pub fn wants_write(&self) -> bool {
        self.session.wants_write()
    }

    /// Flushes staged bytes; `true` when the outbox drained.
    ///
    /// # Errors
    ///
    /// Propagates stream failure (non-resumable links only).
    pub fn flush(&mut self) -> Result<bool, FlError> {
        self.session.flush()
    }

    /// Half-closes the connection (FIN) so the coordinator observes
    /// EOF even while this link — and its counters — stays alive
    /// inside a returned pool. Errors are ignored: the peer may
    /// already be gone, which serves the same purpose.
    pub fn close(&self) {
        let _ = self.session.stream.get_ref().shutdown(std::net::Shutdown::Write);
    }

    /// Severs the connection in *both* directions — the deliberate
    /// link-death test knob (a crash simulated without a process exit).
    pub fn sever(&mut self) {
        let _ = self.session.stream.get_ref().shutdown(std::net::Shutdown::Both);
        if self.session.resumable {
            self.session.down = true;
        }
    }
}

/// The current connection's descriptor, for epoll registration.
impl AsRawFd for PartyLink {
    fn as_raw_fd(&self) -> RawFd {
        self.session.stream.get_ref().as_raw_fd()
    }
}

impl Transport for PartyLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
        self.session.send_data(frame)
    }

    fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
        loop {
            let msg = match self.session.recv()? {
                None => return Ok(None),
                Some(Ok(frame)) => return Ok(Some(frame)),
                Some(Err(msg)) => msg,
            };
            match msg {
                ControlMsg::StatusReq { seq, received, sent: _ } => {
                    self.status_reqs.push_back(seq);
                    // The server's received count acknowledges our
                    // retained frames.
                    self.session.retained.prune(received);
                }
                ControlMsg::Shutdown => self.shutdown = true,
                ControlMsg::HelloAck { token, received, sent, fresh, ref_syncs: _ } => {
                    // Stash and STOP, like RefSync below: the handshake
                    // ([`PartyLink::await_hello_ack`]) must observe the
                    // ack before any data frame behind it is surfaced.
                    self.hello_ack = Some((received, sent, fresh));
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
            std::thread::sleep(Duration::from_millis(1));
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
        party.send(&data).unwrap();

        let mut got = None;
        drain_until(|| {
            got = coord.try_recv().unwrap();
            got.is_some()
        });
        assert_eq!(got.unwrap(), data);
        assert_eq!(coord.session.data_received, 1, "control frames must not count as data");
    }

    #[test]
    fn quiet_requires_matching_counters_in_both_directions() {
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        let mut party = PartyLink::new(c);
        assert!(coord.quiet(), "an untouched link is vacuously quiet");

        let data = frame(3, &WireMessage::Heartbeat { job: 9, round: 0, party: 3 });
        coord.send(&data).unwrap();
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
            coord.try_recv().unwrap();
            coord.quiet()
        });
    }

    #[test]
    fn stale_probe_answers_do_not_mark_the_link_quiet() {
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        let mut party = PartyLink::new(c);
        let data = frame(3, &WireMessage::Heartbeat { job: 9, round: 0, party: 3 });
        coord.send(&data).unwrap();
        coord.send_probe().unwrap();
        // The party answers while it has seen only the first frame.
        drain_until(|| {
            party.try_recv().unwrap();
            party.take_status_req().map(|seq| party.send_status(seq).unwrap()).is_some()
        });
        // A second frame departs after that answer was computed: the
        // answer accounts for one frame of two and must read as stale.
        coord.send(&data).unwrap();
        drain_until(|| {
            coord.try_recv().unwrap();
            !coord.probe_outstanding
        });
        assert!(!coord.quiet(), "an answer predating the second frame proved nothing");
        assert!(coord.needs_probe(), "staleness must trigger a re-probe");
    }

    /// The one router contract, whatever the link type: placement is
    /// the plan's, a frame too short to carry a destination is refused,
    /// downlinks land on the link their destination names and uplinks
    /// come back tagged with the link they arrived on.
    fn check_router<L: Transport, P: Transport>(driver_ends: Vec<L>, mut party_ends: Vec<P>) {
        let mut router = Router::new(driver_ends);
        assert_eq!(router.links(), 2);
        let wire = flips_fl::WireOptions::new(2);
        for party in 0..64usize {
            assert_eq!(router.link_for(party as u64), wire.link_of(party));
        }

        let even = frame(4, &WireMessage::Heartbeat { job: 9, round: 0, party: 4 });
        let odd = frame(7, &WireMessage::Heartbeat { job: 9, round: 0, party: 7 });
        router.send(&even).unwrap();
        router.send(&odd).unwrap();
        assert!(matches!(router.send(&[1, 2]), Err(FlError::Transport(_))));
        drain_until(|| party_ends[0].try_recv().unwrap().is_some_and(|f| f == even));
        drain_until(|| party_ends[1].try_recv().unwrap().is_some_and(|f| f == odd));

        // Link 1 answers first: the sweep passes over the idle link 0
        // and the tag names the link, not the arrival order.
        let ups: Vec<_> = (0..2u64)
            .map(|party| frame(u64::MAX, &WireMessage::Heartbeat { job: 9, round: 0, party }))
            .collect();
        for link in [1usize, 0] {
            party_ends[link].send(&ups[link]).unwrap();
            let mut got = None;
            drain_until(|| {
                got = router.try_recv_tagged().unwrap();
                got.is_some()
            });
            assert_eq!(got.unwrap(), (link, ups[link].clone()));
        }
        assert!(router.try_recv().unwrap().is_none());
    }

    #[test]
    fn router_routes_by_destination_modulo_links() {
        use flips_fl::MemoryTransport;
        let (a0, b0) = MemoryTransport::pair();
        let (a1, b1) = MemoryTransport::pair();
        check_router(vec![a0, a1], vec![b0, b1]);

        let (c0, s0) = tcp_pair();
        let (c1, s1) = tcp_pair();
        check_router(
            vec![CoordLink::new(s0), CoordLink::new(s1)],
            vec![PartyLink::new(c0), PartyLink::new(c1)],
        );
    }

    #[test]
    fn probe_counters_prune_retained_frames_on_both_sides() {
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        let mut party = PartyLink::new(c);
        coord.set_resumable(true);
        party.set_resumable(true);
        let data = frame(3, &WireMessage::Heartbeat { job: 9, round: 0, party: 3 });
        coord.send(&data).unwrap();
        party.send(&data).unwrap();
        assert_eq!(coord.session.retained.frames.len(), 1);
        assert_eq!(party.session.retained.frames.len(), 1);
        // One full probe round trip: the party learns the server
        // received its frame, the server learns the party received its.
        drain_until(|| coord.try_recv().unwrap().is_some());
        coord.send_probe().unwrap();
        drain_until(|| {
            party.try_recv().unwrap();
            party.take_status_req().map(|seq| party.send_status(seq).unwrap()).is_some()
        });
        drain_until(|| {
            coord.try_recv().unwrap();
            coord.session.retained.frames.is_empty()
        });
        assert!(
            party.session.retained.frames.is_empty(),
            "the probe's counters acked the party's frame"
        );
        assert_eq!(coord.session.retained.base, 1);
        assert_eq!(party.session.retained.base, 1);
    }

    #[test]
    fn a_link_that_cannot_resume_counts_its_frames_but_retains_none() {
        // Nothing can ever re-send a non-resumable link's frames, so
        // copying them would be a dead store; the counters the quiet
        // check runs on move all the same.
        let (c, s) = tcp_pair();
        let mut coord = CoordLink::new(s);
        let mut party = PartyLink::new(c);
        let data = frame(3, &WireMessage::Heartbeat { job: 9, round: 0, party: 3 });
        coord.send(&data).unwrap();
        party.send(&data).unwrap();
        assert!(coord.session.retained.frames.is_empty());
        assert!(party.session.retained.frames.is_empty());
        assert_eq!((coord.session.data_sent, party.session.data_sent), (1, 1));
        drain_until(|| party.try_recv().unwrap().is_some());
        assert_eq!(party.session.data_received, 1);
    }

    #[test]
    fn a_party_gone_again_mid_handshake_re_parks_a_resumable_link() {
        // A flapping party: it reconnects, says Hello and crashes again
        // before the handshake's frames are out. A resumable link goes
        // back down — the outage is still the resume timeout's to bound
        // — where a non-resumable one surfaces the dead socket.
        let model =
            WireMessage::GlobalModel { job: 9, round: 0, params: vec![0.5; 250_000].into() };
        let big = frame(3, &model);
        for resumable in [true, false] {
            let (c, s) = tcp_pair();
            let mut coord = CoordLink::new(s);
            coord.set_resumable(true);
            for _ in 0..4 {
                coord.send(&big).unwrap(); // ~4 MB retained, none acknowledged
            }
            drop(c);
            coord.park();

            let (c2, s2) = tcp_pair();
            drop(c2);
            // (retention needed the flag; the handshake is what is under test)
            coord.set_resumable(resumable);
            coord.resume_with(s2, HelloInfo { shard: 0, token: 42, received: 0, sent: 0 });
            assert!(!coord.is_parked());
            let mut handshake = || -> Result<(), FlError> {
                coord.send_hello_ack(false, &[])?;
                coord.retransmit_unacked()?;
                while !coord.flush()? {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            };
            if resumable {
                handshake().expect("a resumable link absorbs the dead socket");
                assert!(coord.is_parked(), "and waits for the next reconnect");
                assert_eq!(
                    coord.session.retained.frames.len(),
                    4,
                    "with everything still retained"
                );
            } else {
                assert!(matches!(handshake(), Err(FlError::Transport(_))));
            }
        }
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
            coord.try_recv().unwrap();
            coord.send(&data).unwrap();
            let _ = coord.flush().unwrap();
            coord.is_parked() || coord.is_eof()
        });
        if !coord.is_parked() {
            coord.park(); // EOF without an error also parks (the loop's job)
        }
        assert!(!coord.quiet(), "a parked link must hold the clock");
        assert!(!coord.needs_probe(), "a parked link cannot be probed");
        // Sends while parked retain silently.
        let before = coord.session.data_sent;
        coord.send(&data).unwrap();
        assert_eq!(coord.session.data_sent, before + 1);
        assert!(coord.try_recv().unwrap().is_none());
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
        coord.send(&f0).unwrap();
        coord.send(&f1).unwrap();
        coord.send(&f2).unwrap();
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
        let ack = party.await_hello_ack(Duration::from_secs(5)).unwrap();
        assert_eq!(ack, (0, 3, false), "the ack precedes the retransmits and carries counters");
        let mut got = Vec::new();
        drain_until(|| {
            if let Some(f) = party.try_recv().unwrap() {
                got.push(f);
            }
            got.len() == 2
        });
        assert_eq!(got, vec![f1.clone(), f2.clone()], "exactly the unacked frames, in order");
        assert_eq!(coord.session.data_sent, 3, "retransmission must not recount frames");
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
        let (received, _sent, fresh) = party.await_hello_ack(Duration::from_secs(5)).unwrap();
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
