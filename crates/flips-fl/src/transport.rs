//! Frame-oriented byte transports for the FL wire protocol.
//!
//! A [`Transport`] moves opaque frames — [`crate::message::frame`]d,
//! [`crate::WireMessage::encode`]d bytes — between the aggregator driver
//! and the party side. Unlike the in-process [`crate::FlJob`] path, **every**
//! message that crosses a transport exists as serialized bytes, so the
//! codec (and its rejection of corrupt traffic) is exercised end to end.
//!
//! One implementation carries every link: [`StreamTransport`],
//! length-prefix framing over any `Read + Write` byte stream — a
//! `std::net::TcpStream` in nonblocking mode, or the in-process
//! [`duplex`] pipe ([`MemoryTransport`] is that pairing). An in-memory
//! link therefore crosses the same framing and partial-frame
//! reassembly as a TCP one. The byte handling is std's: a pipe
//! direction is a `VecDeque<u8>`, a receive is one `read_to_end` into
//! the reassembly buffer, and bytes a full stream refuses wait in a
//! `VecDeque<u8>` outbox. [`Router`] fans one logical wire out across
//! N links of one type ([`MemoryRouter`] across N in-memory ones).
//!
//! All transports here are *polled*: [`Transport::try_recv`] returns
//! `Ok(None)` when no complete frame is available instead of blocking.
//! That keeps drivers lock-step-schedulable (the
//! [`crate::driver::MultiJobDriver`] advances its timer wheel only when
//! the wire is quiet), which is what makes serialized runs bit-exactly
//! reproducible.

use crate::message::frame_dest;
use crate::plan::place;
use crate::FlError;
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard};

/// Frames larger than this are rejected before allocation — no legal
/// message in this workspace approaches 256 MiB, so a corrupt length
/// prefix cannot make a receiver balloon.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// A bidirectional, frame-oriented byte channel.
///
/// # Example
///
/// The in-memory pair — [`StreamTransport`] over a [`duplex`] pipe —
/// delivers frames intact and in order, and an empty pipe reads as
/// `None` rather than blocking:
///
/// ```
/// use flips_fl::{MemoryTransport, Transport};
///
/// let (mut a, mut b) = MemoryTransport::pair();
/// a.send(b"frame-1").unwrap();
/// let frame = b.try_recv().unwrap().expect("one frame queued");
/// assert_eq!(frame.as_slice(), b"frame-1");
/// assert!(b.try_recv().unwrap().is_none(), "polled, never blocks");
/// ```
///
/// A transport is usually one point-to-point link, but it may
/// *multiplex several independent links* behind one interface —
/// [`Router`] fans one logical wire out across N memory links or
/// (`flips_net::SocketRouter`) N TCP connections. Stateful
/// payload codecs (the delta reference of
/// [`crate::ModelCodec::DeltaLossless`]) are per-link state, so
/// multi-link transports must expose their topology:
/// [`Transport::links`] declares how many links exist,
/// [`Transport::link_for`] routes an outbound frame's destination to
/// its link, and [`Transport::try_recv_tagged`] attributes each inbound
/// frame to the link it arrived on. Point-to-point transports keep the
/// defaults (a single link `0`).
pub trait Transport {
    /// Queues one frame for the peer.
    ///
    /// Takes a borrowed frame so senders can encode into a reused
    /// scratch buffer: a stream transport writes it straight through
    /// and copies only the bytes the stream will not take yet.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the underlying channel cannot
    /// accept the frame (closed pipe, I/O error).
    fn send(&mut self, frame: &[u8]) -> Result<(), FlError>;

    /// Receives the next complete frame, or `None` when nothing is
    /// currently available (never blocks).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] on I/O failure or a frame whose
    /// length prefix exceeds [`MAX_FRAME_BYTES`].
    fn try_recv(&mut self) -> Result<Option<Bytes>, FlError>;

    /// Number of independent links this transport multiplexes (1 for a
    /// point-to-point channel). Senders keep per-link codec state sized
    /// by this.
    fn links(&self) -> usize {
        1
    }

    /// The link that will carry an outbound frame for `dest`. Must be
    /// below [`Transport::links`].
    fn link_for(&self, _dest: u64) -> usize {
        0
    }

    /// Receives the next complete frame together with the link it
    /// arrived on. The default wraps [`Transport::try_recv`] with link
    /// `0`; multi-link transports must override it.
    ///
    /// # Errors
    ///
    /// As [`Transport::try_recv`].
    fn try_recv_tagged(&mut self) -> Result<Option<(usize, Bytes)>, FlError> {
        Ok(self.try_recv()?.map(|frame| (0, frame)))
    }
}

/// The coordinator side of a multi-link wire: one link end of type `L`
/// per link — [`MemoryTransport`]s in process ([`MemoryRouter`]),
/// `flips_net::CoordLink`s over TCP (`flips_net::SocketRouter`) — each
/// outbound frame placed by the destination word in its header
/// ([`place`], the rule [`crate::plan::split`] shares endpoints out
/// by), each inbound frame tagged with the link it arrived on. It is the
/// only router in the workspace, so an in-memory topology and a socket
/// one carry identical per-link frame sequences by construction.
///
/// Implements [`Transport`], so the unmodified
/// [`crate::MultiJobDriver`] drives N pools exactly as it drives one
/// serialized link. A frame for a party no link registered still
/// travels to the link its id names, whose pool counts it unroutable.
#[derive(Debug)]
pub struct Router<L> {
    /// Driver-side link ends, index = link.
    links: Vec<L>,
}

/// The [`Router`] of the in-memory multi-link wire.
pub type MemoryRouter = Router<MemoryTransport>;

impl<L: Transport> Router<L> {
    /// A router over one driver-side link end per link.
    pub fn new(links: Vec<L>) -> Self {
        Router { links }
    }

    /// The driver-side end of `link` — frame through a clone of a
    /// memory end's pipe (`StreamTransport::new(end.get_ref().clone())`)
    /// to slip frames onto a live downlink, as the fault suites do.
    pub fn link(&self, link: usize) -> &L {
        &self.links[link]
    }

    /// Every driver-side link end, index = link — a socket event loop
    /// flushes, probes and resumes its links through this, below
    /// whatever wraps the router.
    pub fn links_mut(&mut self) -> &mut [L] {
        &mut self.links
    }
}

impl<L: Transport> Transport for Router<L> {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
        let Some(dest) = frame_dest(frame) else {
            return Err(FlError::Transport("frame too short to route to a link".into()));
        };
        let link = place(dest, self.links.len());
        self.links[link].send(frame)
    }

    fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
        Ok(self.try_recv_tagged()?.map(|(_, frame)| frame))
    }

    fn links(&self) -> usize {
        self.links.len()
    }

    fn link_for(&self, dest: u64) -> usize {
        place(dest, self.links.len())
    }

    fn try_recv_tagged(&mut self) -> Result<Option<(usize, Bytes)>, FlError> {
        // Sweep the links in fixed order; the driver pumps until no
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

/// Length-prefix framing over a byte stream: each frame travels as a
/// little-endian `u32` length followed by that many payload bytes.
///
/// The stream must be *nonblocking* (reads return
/// [`ErrorKind::WouldBlock`] when no bytes are available) — both the
/// in-process [`duplex`] pipe and a `TcpStream` after
/// `set_nonblocking(true)` qualify. Partial frames are reassembled
/// across calls, so a frame split by the kernel's socket buffering
/// decodes exactly once, whole.
pub struct StreamTransport<S> {
    stream: S,
    /// Reassembly buffer, filled by `read_to_end`; consumed frames
    /// advance `cursor` instead of shifting the buffer, so a burst of
    /// frames is extracted in O(n) total (the buffer compacts once
    /// fully drained).
    pending: Vec<u8>,
    cursor: usize,
    /// The stream reported end-of-file: the peer is gone for good.
    eof: bool,
    /// Send-side staging for bytes the kernel would not take: when a
    /// nonblocking write returns [`ErrorKind::WouldBlock`] mid-frame,
    /// the unwritten tail queues here and [`StreamTransport::flush`]
    /// resumes it from the front — a frame is never torn on the wire.
    outbox: VecDeque<u8>,
}

impl<S: std::fmt::Debug> std::fmt::Debug for StreamTransport<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamTransport")
            .field("stream", &self.stream)
            .field("buffered", &(self.pending.len() - self.cursor))
            .field("eof", &self.eof)
            .finish()
    }
}

impl<S: Read + Write> StreamTransport<S> {
    /// Wraps a nonblocking byte stream. A length prefix above
    /// [`MAX_FRAME_BYTES`], which no conformant sender can produce,
    /// poisons the stream; every frame within it is reassembled whole.
    ///
    /// There is no smaller receive-side cap that skips a frame: the
    /// sender has already counted it as sent, so the socket runtime's
    /// quiescence check (`party.sent == received_here`) would never pass
    /// and the run would stall. The guard plane's
    /// [`crate::GuardConfig::max_frame_bytes`] drops an over-cap frame
    /// after reassembly, before decode, where it is counted as received.
    pub fn new(stream: S) -> Self {
        StreamTransport {
            stream,
            pending: Vec::new(),
            cursor: 0,
            eof: false,
            outbox: VecDeque::new(),
        }
    }

    /// Whether send-side bytes are waiting for the stream to accept
    /// them ([`StreamTransport::flush`] has work to do). An event loop
    /// registers write interest exactly while this holds.
    pub fn wants_write(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Pushes staged send-side bytes into the stream until it reports
    /// [`ErrorKind::WouldBlock`] or the buffer drains. Returns whether
    /// the buffer is now empty (`true` = nothing left to write; an
    /// event loop drops write interest on `true`).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] on any I/O failure other than
    /// `WouldBlock`.
    pub fn flush(&mut self) -> Result<bool, FlError> {
        // The ring's front slice is the oldest bytes; once it drains, the
        // back slice (if the ring wrapped) becomes the front.
        while !self.outbox.is_empty() {
            let front = self.outbox.as_slices().0;
            let n = write_until_blocked(&mut self.stream, front)?;
            let blocked = n < front.len();
            self.outbox.drain(..n);
            if blocked {
                return Ok(false);
            }
        }
        let _ = self.stream.flush();
        Ok(true)
    }

    /// Writes `bytes` through the stream, staging whatever the kernel
    /// refuses in the outbox (order-preserving: if bytes are already
    /// staged, the new ones queue behind them).
    fn write_or_stage(&mut self, bytes: &[u8]) -> Result<(), FlError> {
        // Anything already staged must go first, or frames interleave.
        let written = if !self.wants_write() || self.flush()? {
            write_until_blocked(&mut self.stream, bytes)?
        } else {
            0
        };
        self.outbox.extend(&bytes[written..]);
        Ok(())
    }

    /// Consumes the transport, returning the underlying stream.
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// The underlying stream (e.g. to half-close a socket while the
    /// transport's counters stay alive).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Whether the stream reported end-of-file (the peer closed its
    /// write side).
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Pulls whatever the stream has ready into the reassembly buffer.
    /// `read_to_end` retries `Interrupted` itself and keeps what it read
    /// when it meets `WouldBlock`; only `Ok` means end-of-file.
    fn fill(&mut self) -> Result<(), FlError> {
        if self.eof {
            return Ok(());
        }
        match self.stream.read_to_end(&mut self.pending) {
            Ok(_) => self.eof = true,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(FlError::Transport(format!("stream read failed: {e}"))),
        }
        Ok(())
    }

    /// Reclaims the consumed prefix of the reassembly buffer when it
    /// outweighs the live tail (each byte is memmoved at most once).
    fn compact(&mut self) {
        if self.cursor == self.pending.len() {
            self.pending.clear();
            self.cursor = 0;
        } else if self.cursor > self.pending.len() - self.cursor {
            // A busy stream may never hit a fully-drained instant, so
            // the buffer must track in-flight bytes, not bytes-ever-seen.
            self.pending.drain(..self.cursor);
            self.cursor = 0;
        }
    }
}

impl<S: Read + Write> Transport for StreamTransport<S> {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
        // Mirror the receive-side cap before anything hits the wire: an
        // oversized frame would otherwise be fatal on the *peer's*
        // try_recv (poisoning every multiplexed job from the wrong side
        // of the link), and ≥ 4 GiB would silently wrap the u32 prefix
        // and desync the stream.
        if frame.len() > MAX_FRAME_BYTES {
            return Err(FlError::Transport(format!(
                "refusing to send a {}-byte frame (cap {MAX_FRAME_BYTES})",
                frame.len()
            )));
        }
        // A nonblocking stream may take only part of the frame (a full
        // kernel socket buffer reads as `WouldBlock` mid-write): the
        // unwritten tail is staged in the outbox rather than erroring,
        // and [`StreamTransport::flush`] resumes it on write readiness.
        self.write_or_stage(&(frame.len() as u32).to_le_bytes())?;
        self.write_or_stage(frame)?;
        if !self.wants_write() {
            let _ = self.stream.flush();
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
        self.fill()?;
        let buffered = &self.pending[self.cursor..];
        if buffered.len() < 4 {
            // A dead peer must not look like a quiet wire: a stream
            // that ended mid-frame is an error, a cleanly drained one
            // is distinguishable from idle via `is_eof`.
            return if self.eof && !buffered.is_empty() {
                Err(FlError::Transport("stream closed mid-frame by the peer".into()))
            } else {
                Ok(None)
            };
        }
        let len = u32::from_le_bytes(buffered[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(FlError::Transport(format!(
                "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
            )));
        }
        if buffered.len() < 4 + len {
            return if self.eof {
                Err(FlError::Transport("stream closed mid-frame by the peer".into()))
            } else {
                Ok(None) // frame still in flight
            };
        }
        let frame = Bytes::copy_from_slice(&buffered[4..4 + len]);
        self.cursor += 4 + len;
        self.compact();
        Ok(Some(frame))
    }
}

/// Writes `bytes` until they are all through or the stream reports
/// [`ErrorKind::WouldBlock`], and returns how many it took.
fn write_until_blocked(stream: &mut impl Write, bytes: &[u8]) -> Result<usize, FlError> {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(FlError::Transport("stream refused bytes (peer closed?)".into())),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(FlError::Transport(format!("stream write failed: {e}"))),
        }
    }
    Ok(written)
}

/// One direction of an in-process byte pipe.
type ByteQueue = Arc<Mutex<VecDeque<u8>>>;

/// Locks one direction of a pipe.
fn lock(queue: &ByteQueue) -> std::io::Result<MutexGuard<'_, VecDeque<u8>>> {
    queue.lock().map_err(|_| std::io::Error::new(ErrorKind::BrokenPipe, "pipe poisoned"))
}

/// One end of an in-process duplex byte pipe (see [`duplex`]).
///
/// Each direction is a `VecDeque<u8>` behind a mutex, read and written
/// through std's `Read` / `Write` for it, except that an empty pipe
/// reads as [`ErrorKind::WouldBlock`] (like a nonblocking socket), not
/// as end-of-file; writes always succeed. The pipe deliberately has no
/// backpressure — it stands in for a socket in deterministic
/// single-threaded tests and benchmarks, where "peer not scheduled yet"
/// is the only reason bytes linger.
///
/// A clone is another handle onto the *same* pipe. Wrapped in its own
/// [`StreamTransport`], it is how a fault suite slips whole frames onto
/// a live in-memory link: they arrive behind what is already in flight.
/// (A clone that reads takes the bytes from the end it was cloned from.)
#[derive(Clone)]
pub struct PipeEnd {
    read_from: ByteQueue,
    write_to: ByteQueue,
}

impl std::fmt::Debug for PipeEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeEnd")
            .field("readable", &lock(&self.read_from).map(|b| b.len()).unwrap_or(0))
            .finish()
    }
}

/// Creates an in-process bidirectional byte pipe: what either end
/// writes, the other reads, as a raw byte stream (no message
/// boundaries — that is [`StreamTransport`]'s job, which is exactly why
/// the pair exercises real framing).
pub fn duplex() -> (PipeEnd, PipeEnd) {
    let a_to_b = ByteQueue::default();
    let b_to_a = ByteQueue::default();
    (
        PipeEnd { read_from: Arc::clone(&b_to_a), write_to: Arc::clone(&a_to_b) },
        PipeEnd { read_from: a_to_b, write_to: b_to_a },
    )
}

/// An in-memory link end: length-prefix framing over a [`duplex`] pipe,
/// byte for byte what a TCP link carries.
pub type MemoryTransport = StreamTransport<PipeEnd>;

impl MemoryTransport {
    /// Creates a connected pair of in-memory link ends.
    pub fn pair() -> (MemoryTransport, MemoryTransport) {
        let (a, b) = duplex();
        (StreamTransport::new(a), StreamTransport::new(b))
    }
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut queue = lock(&self.read_from)?;
        if queue.is_empty() {
            // An empty `VecDeque` reads as end-of-file; an empty pipe
            // is a quiet one.
            return Err(std::io::Error::new(ErrorKind::WouldBlock, "pipe empty"));
        }
        queue.read(buf)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.write_to)?.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{deframe, frame, AGGREGATOR_DEST};
    use crate::WireMessage;

    fn msg(party: u64) -> WireMessage {
        WireMessage::Heartbeat { job: 9, round: 2, party }
    }

    #[test]
    fn memory_pair_delivers_in_order_both_directions() {
        let (mut a, mut b) = MemoryTransport::pair();
        a.send(&frame(0, &msg(0))).unwrap();
        a.send(&frame(1, &msg(1))).unwrap();
        b.send(&frame(AGGREGATOR_DEST, &msg(2))).unwrap();
        let (d0, m0) = deframe(b.try_recv().unwrap().unwrap()).unwrap();
        let (d1, m1) = deframe(b.try_recv().unwrap().unwrap()).unwrap();
        assert_eq!((d0, m0), (0, msg(0)));
        assert_eq!((d1, m1), (1, msg(1)));
        assert!(b.try_recv().unwrap().is_none());
        let (d2, m2) = deframe(a.try_recv().unwrap().unwrap()).unwrap();
        assert_eq!((d2, m2), (AGGREGATOR_DEST, msg(2)));
    }

    #[test]
    fn memory_clone_shares_the_link() {
        // The fault suites' injection path: a clone of a live end's pipe,
        // framed by its own StreamTransport. An injected 40 KB frame
        // arrives whole, behind the frames already sent, exactly once,
        // and never on the injecting end.
        let (mut a, mut b) = MemoryTransport::pair();
        b.send(&frame(AGGREGATOR_DEST, &msg(1))).unwrap();
        b.send(&frame(AGGREGATOR_DEST, &msg(2))).unwrap();
        let mut injector = StreamTransport::new(b.get_ref().clone());
        let big = WireMessage::GlobalModel { job: 3, round: 0, params: vec![0.5; 10_000].into() };
        injector.send(&frame(AGGREGATOR_DEST, &big)).unwrap();
        b.send(&frame(AGGREGATOR_DEST, &msg(3))).unwrap();
        let got: Vec<WireMessage> =
            std::iter::from_fn(|| a.try_recv().unwrap()).map(|f| deframe(f).unwrap().1).collect();
        assert_eq!(got, [msg(1), msg(2), big, msg(3)]);
        assert!(b.try_recv().unwrap().is_none(), "injection is peer-bound, not self-bound");
        assert!(injector.try_recv().unwrap().is_none());
    }

    #[test]
    fn pipe_reads_front_first_then_would_block() {
        // Reads into buffers smaller than what is queued take the bytes
        // from the front; an empty pipe is quiet, not closed.
        let (mut a, mut b) = duplex();
        a.write_all(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        let mut buf = [0u8; 4];
        for want in [&[0, 1, 2, 3][..], &[4, 5, 6, 7], &[8, 9]] {
            let n = b.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], want);
        }
        let err = b.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    #[test]
    fn router_rejects_unroutable_frames() {
        let (a, _b) = MemoryTransport::pair();
        let mut router = MemoryRouter::new(vec![a]);
        assert!(matches!(router.send(&[1, 2, 3]), Err(FlError::Transport(_))));
    }

    #[test]
    fn router_routes_by_job_and_dest_and_drains_all_links() {
        let (a0, mut b0) = MemoryTransport::pair();
        let (a1, mut b1) = MemoryTransport::pair();
        let mut router = MemoryRouter::new(vec![a0, a1]);
        let m0 = frame(0, &msg(0));
        let m1 = frame(1, &msg(1));
        router.send(m0.as_slice()).unwrap();
        router.send(m1.as_slice()).unwrap();
        assert_eq!(b0.try_recv().unwrap().unwrap(), m0);
        assert_eq!(b1.try_recv().unwrap().unwrap(), m1);
        // Uplink: both pool ends reply; the router drains both, tagged.
        let up = frame(AGGREGATOR_DEST, &msg(0));
        b0.send(up.as_slice()).unwrap();
        b1.send(up.as_slice()).unwrap();
        assert_eq!(router.try_recv_tagged().unwrap().unwrap().0, 0);
        assert_eq!(router.try_recv_tagged().unwrap().unwrap().0, 1);
        assert!(router.try_recv().unwrap().is_none());
    }

    #[test]
    fn stream_transport_round_trips_frames_over_a_pipe() {
        let (a, b) = duplex();
        let mut tx = StreamTransport::new(a);
        let mut rx = StreamTransport::new(b);
        let big = WireMessage::GlobalModel { job: 3, round: 0, params: vec![0.25; 10_000].into() };
        tx.send(&frame(5, &big)).unwrap();
        tx.send(&frame(6, &msg(6))).unwrap();
        let (d, m) = deframe(rx.try_recv().unwrap().unwrap()).unwrap();
        assert_eq!((d, &m), (5, &big));
        let (d, m) = deframe(rx.try_recv().unwrap().unwrap()).unwrap();
        assert_eq!((d, m), (6, msg(6)));
        assert!(rx.try_recv().unwrap().is_none());
    }

    #[test]
    fn stream_transport_reassembles_partial_frames() {
        // Feed a frame byte-by-byte: try_recv must withhold it until the
        // last byte arrives, then deliver it whole.
        let (mut raw, b) = duplex();
        let mut rx = StreamTransport::new(b);
        let frame_bytes = {
            let payload = frame(4, &msg(4));
            let mut on_wire = (payload.len() as u32).to_le_bytes().to_vec();
            on_wire.extend_from_slice(payload.as_slice());
            on_wire
        };
        for &byte in &frame_bytes[..frame_bytes.len() - 1] {
            raw.write_all(&[byte]).unwrap();
            assert!(rx.try_recv().unwrap().is_none(), "frame delivered before complete");
        }
        raw.write_all(&frame_bytes[frame_bytes.len() - 1..]).unwrap();
        let (d, m) = deframe(rx.try_recv().unwrap().unwrap()).unwrap();
        assert_eq!((d, m), (4, msg(4)));
    }

    /// A one-shot stream: yields its bytes, then reports end-of-file —
    /// the shape of a peer that wrote and disconnected.
    struct FiniteStream(Vec<u8>);

    impl Read for FiniteStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0.drain(..n);
            Ok(n)
        }
    }

    impl Write for FiniteStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn clean_eof_drains_buffered_frames_then_reads_idle() {
        let payload = frame(1, &msg(1));
        let mut on_wire = (payload.len() as u32).to_le_bytes().to_vec();
        on_wire.extend_from_slice(payload.as_slice());
        let mut rx = StreamTransport::new(FiniteStream(on_wire));
        assert_eq!(deframe(rx.try_recv().unwrap().unwrap()).unwrap(), (1, msg(1)));
        assert!(rx.try_recv().unwrap().is_none(), "cleanly drained");
        assert!(rx.is_eof(), "disconnect is observable");
    }

    #[test]
    fn eof_mid_frame_is_a_transport_error_not_a_quiet_wire() {
        // A dead peer must surface, or the driver would close every
        // remaining round with 100% stragglers and "complete" bogusly.
        let payload = frame(1, &msg(1));
        let mut on_wire = (payload.len() as u32).to_le_bytes().to_vec();
        on_wire.extend_from_slice(payload.as_slice());
        for cut in [2, 7, on_wire.len() - 1] {
            let mut rx = StreamTransport::new(FiniteStream(on_wire[..cut].to_vec()));
            assert!(
                matches!(rx.try_recv(), Err(FlError::Transport(_))),
                "stream cut at byte {cut} must error"
            );
        }
    }

    #[test]
    fn burst_of_frames_is_extracted_without_requeueing() {
        // Many frames landing in one fill() come out one per try_recv,
        // in order (the cursor, not a drain, does the consuming).
        let (mut raw, b) = duplex();
        let mut rx = StreamTransport::new(b);
        for party in 0..50u64 {
            let payload = frame(party, &msg(party));
            raw.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
            raw.write_all(payload.as_slice()).unwrap();
        }
        for party in 0..50u64 {
            let (d, m) = deframe(rx.try_recv().unwrap().unwrap()).unwrap();
            assert_eq!((d, m), (party, msg(party)));
        }
        assert!(rx.try_recv().unwrap().is_none());
    }

    #[test]
    fn configurable_cap_keeps_the_hard_ceiling_fatal() {
        // The configurable cap is the guard plane's, applied after
        // reassembly: the stream delivers an over-cap frame whole and stays
        // in sync, and only a prefix past the hard ceiling is fatal.
        let guard = crate::GuardPlane::new(crate::GuardConfig {
            max_frame_bytes: 256,
            ..Default::default()
        })
        .unwrap();
        let (mut raw, b) = duplex();
        let mut rx = StreamTransport::new(b);
        let big = vec![0xAB; 10_000];
        let after = frame(2, &msg(2));
        for payload in [big.as_slice(), after.as_slice()] {
            raw.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
            raw.write_all(payload).unwrap();
        }
        let got = rx.try_recv().unwrap().unwrap();
        assert_eq!(got.as_ref(), big.as_slice());
        assert!(!guard.frame_len_ok(got.len()), "the guard, not the stream, refuses it");
        assert_eq!(deframe(rx.try_recv().unwrap().unwrap()).unwrap(), (2, msg(2)));
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        assert!(
            matches!(rx.try_recv(), Err(FlError::Transport(_))),
            "a length no conformant sender can produce still poisons the stream"
        );
    }

    #[test]
    fn stream_transport_rejects_hostile_length_prefix() {
        // A prefix at the hard ceiling is a frame still in flight; one
        // byte past it poisons the stream.
        for (len, fatal) in
            [(MAX_FRAME_BYTES as u32, false), (MAX_FRAME_BYTES as u32 + 1, true), (u32::MAX, true)]
        {
            let (mut raw, b) = duplex();
            let mut rx = StreamTransport::new(b);
            raw.write_all(&len.to_le_bytes()).unwrap();
            match rx.try_recv() {
                Err(FlError::Transport(_)) => assert!(fatal, "prefix {len} is not fatal"),
                Ok(None) => assert!(!fatal, "prefix {len} must poison the stream"),
                other => panic!("prefix {len}: {other:?}"),
            }
        }
    }

    #[test]
    fn deframe_rejects_short_and_corrupt_frames() {
        assert!(deframe(Bytes::from(vec![1, 2, 3])).is_err(), "shorter than the header");
        let mut corrupt = frame(2, &msg(2)).to_vec();
        corrupt[FRAME_HEADER_END] ^= 0xFF; // clobber the message magic
        assert!(deframe(Bytes::from(corrupt)).is_err());
    }

    const FRAME_HEADER_END: usize = crate::message::FRAME_HEADER;

    #[test]
    fn send_buffers_partial_frames_when_the_socket_backs_up_and_drains_on_flush() {
        // The backpressure regression test: keep sending large frames
        // into a nonblocking TCP socket whose peer reads nothing. The
        // kernel buffer fills, `write` starts returning `WouldBlock`
        // mid-frame, and send must stage the tail instead of erroring
        // (the pre-fix `write_all` surfaced `WouldBlock` as a transport
        // error). Draining the peer plus `flush` must then deliver
        // every frame intact, in order.
        let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(_) => return, // sandboxed environments may forbid sockets
        };
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();
        server.set_nonblocking(true).unwrap();
        let mut tx = StreamTransport::new(client);
        let mut rx = StreamTransport::new(server);

        // 64 KiB payloads overwhelm default socket buffers quickly;
        // keep sending until the kernel actually refuses bytes so the
        // test is independent of the host's buffer sizing.
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for i in 0..512u32 {
            let frame = vec![(i % 251) as u8; 64 * 1024 + (i % 7) as usize];
            tx.send(&frame).unwrap(); // must never error with WouldBlock
            frames.push(frame);
            if tx.wants_write() && frames.len() >= 4 {
                break;
            }
        }
        assert!(tx.wants_write(), "the kernel buffer never filled — grow the payloads");

        // Drain: alternate receiving (freeing kernel buffer space) and
        // flushing the staged tail until everything is through.
        let mut received = Vec::new();
        for _ in 0..100_000 {
            let _ = tx.flush().unwrap();
            while let Some(frame) = rx.try_recv().unwrap() {
                received.push(frame);
            }
            if received.len() == frames.len() && !tx.wants_write() {
                break;
            }
            std::thread::yield_now();
        }
        assert!(!tx.wants_write(), "outbox never drained");
        assert_eq!(received.len(), frames.len());
        for (got, want) in received.iter().zip(&frames) {
            assert_eq!(got.as_slice(), want.as_slice(), "frame torn or reordered");
        }
    }

    #[test]
    fn staged_sends_queue_behind_each_other_in_order() {
        // A stream that accepts a few bytes then blocks: successive
        // sends must stage in order and flush() must resume mid-frame,
        // also once the outbox ring has wrapped.
        struct Throttled {
            taken: Vec<u8>,
            budget: usize,
        }
        impl Read for Throttled {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(ErrorKind::WouldBlock, "nothing"))
            }
        }
        impl Write for Throttled {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    return Err(std::io::Error::new(ErrorKind::WouldBlock, "full"));
                }
                let n = self.budget.min(buf.len());
                self.taken.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut tx = StreamTransport::new(Throttled { taken: Vec::new(), budget: 6 });
        tx.send(b"abcdef").unwrap(); // 4-byte prefix + 2 payload bytes fit
        assert!(tx.wants_write(), "4 payload bytes staged");
        assert_eq!(tx.stream.taken.len(), 6);
        tx.stream.budget = 2;
        assert!(!tx.flush().unwrap(), "a partial flush: \"cd\" moves, \"ef\" stays");
        assert_eq!(tx.stream.taken.len(), 8);
        tx.send(b"gh").unwrap(); // fully staged behind the first tail
        assert!(tx.wants_write());
        assert_eq!(tx.stream.taken.len(), 8, "staged, not written");
        assert!(!tx.outbox.as_slices().1.is_empty(), "the outbox ring wrapped");
        assert!(!tx.flush().unwrap(), "no budget: nothing moves");
        tx.stream.budget = usize::MAX;
        assert!(tx.flush().unwrap(), "budget restored: everything drains");
        let mut want = 6u32.to_le_bytes().to_vec();
        want.extend_from_slice(b"abcdef");
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(b"gh");
        assert_eq!(tx.stream.taken, want, "bytes arrive exactly once, in order");
    }

    #[test]
    fn works_over_nonblocking_tcp() {
        // The same framing over a real socket pair — nonblocking, so
        // try_recv polls instead of hanging.
        let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(_) => return, // sandboxed environments may forbid sockets
        };
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();
        server.set_nonblocking(true).unwrap();
        let mut tx = StreamTransport::new(client);
        let mut rx = StreamTransport::new(server);
        tx.send(&frame(1, &msg(1))).unwrap();
        // A nonblocking socket may need a few polls before delivery.
        for _ in 0..1000 {
            if let Some(f) = rx.try_recv().unwrap() {
                assert_eq!(deframe(f).unwrap(), (1, msg(1)));
                return;
            }
            std::thread::yield_now();
        }
        panic!("frame never arrived over TCP");
    }
}
