//! One end of one job's wire: the reference rules every
//! reference-tracking codec shares, and the one delta envelope —
//! `tag ‖ count ‖ mode ‖ inline image | u32 ‖ body` — around the
//! stage-specific bodies ([`super::rle`], [`crate::rans`],
//! [`super::topk`]).

use super::{f16, rle, topk, ModelCodec, Role};
use crate::format::{put_f32s, Reader};
use crate::{rans, FlError};
use bytes::{BufMut, Bytes, BytesMut};
use std::sync::Arc;

/// Delta payload sub-mode: full inline-raw image (no reference yet, or
/// a body that would not undercut it).
pub(super) const MODE_INLINE: u8 = 0;
/// Delta payload sub-mode: a stage body against the reference.
pub(super) const MODE_DELTA: u8 = 1;

/// One job's payload codec state on one end of the wire: the negotiated
/// codec and the reference model. The compression scratch is apart from
/// it (a `CodecScratch`): the update paths read the reference through
/// `&self`, so any number of threads can encode or decode updates
/// against one reference at once, each in its own scratch. The
/// global-model paths move the reference and use the codec's own.
pub struct PayloadCodec {
    codec: ModelCodec,
    role: Role,
    reference: Vec<f32>,
    /// Round of the reference (replay guard: never regress).
    ref_round: u64,
    has_reference: bool,
    /// Bumped whenever the reference's bits move: an update decoded
    /// ahead of time is good only while this stays where it was.
    epoch: u64,
    /// The reference as a receiver last handed it out: a same-round
    /// rebroadcast decodes to the reference itself, and answers with a
    /// clone of this `Arc` instead of a fresh copy of the model. `None`
    /// whenever the reference moved without a decode.
    ref_arc: Option<Arc<[f32]>>,
    /// `(addr, len)` of the buffer the sender's reference was copied
    /// from — same-round rebroadcasts share one `Arc`, so a pointer
    /// match proves the payload IS the reference and the zero-delta
    /// block can be emitted in O(1) without re-shuffling.
    ref_src: (usize, usize),
    /// Architecture bound on reference commits (see
    /// [`PayloadCodec::set_expected_len`]).
    expected_len: Option<usize>,
    /// Top-k only: the true (pre-sparsification) parameters last
    /// offered as a global model — same-round rebroadcast detection
    /// must compare against what was *offered*, not against the lossy
    /// reconstruction the reference holds.
    offered: Vec<f32>,
    /// The global-model paths' scratch.
    scratch: CodecScratch,
}

/// Grow-only compression scratch (like the GEMM pack buffers): with one
/// reused per thread, steady-state encode and decode allocate nothing
/// but the decoded parameters themselves. Which buffers a codec touches
/// is its own business — a scratch serves every codec.
#[derive(Default)]
pub(crate) struct CodecScratch {
    /// Byte-plane shuffle of a delta (4·n bytes).
    planes: Vec<u8>,
    /// rANS renorm bytes and symbol tables.
    coder: rans::Scratch,
    /// The delta body on its way from the stage into the envelope; on
    /// decode, the canonical all-zero container.
    body: Vec<u8>,
    /// Top-k's candidates and picks.
    picks: topk::Picks,
}

impl CodecScratch {
    /// Sizes, on the calling thread, the model-sized buffers encoding an
    /// `n`-param update under `codec` touches (the body grows to what
    /// the codec ships). A buffer a worker thread first sizes lands in
    /// that thread's allocator arena, which keeps the memory resident
    /// after the buffer moves on.
    pub(crate) fn reserve_encode(&mut self, codec: ModelCodec, n: usize) {
        match codec {
            ModelCodec::Raw | ModelCodec::F16 => {}
            ModelCodec::DeltaLossless => reserve_to(&mut self.planes, 4 * n),
            ModelCodec::DeltaEntropy => {
                reserve_to(&mut self.planes, 4 * n);
                self.coder.reserve_encode(n);
            }
            ModelCodec::TopK { k } => self.picks.reserve(n, k as usize),
        }
    }

    /// [`CodecScratch::reserve_encode`] for decoding an update.
    pub(crate) fn reserve_decode(&mut self, codec: ModelCodec, n: usize) {
        if matches!(codec, ModelCodec::DeltaLossless | ModelCodec::DeltaEntropy) {
            reserve_to(&mut self.planes, 4 * n);
        }
        if codec == ModelCodec::DeltaEntropy {
            self.coder.reserve_decode();
        }
    }

    /// Appends the body of an all-zero delta over `n` params (a
    /// rebroadcast of the reference itself), O(1) in the model size:
    /// a few zero-run tokens, four single-symbol rANS streams (one
    /// symbol at the full frequency budget never moves the coder
    /// state), or no pairs at all.
    fn zero_body(&mut self, codec: ModelCodec, n: usize) {
        match codec {
            ModelCodec::DeltaLossless => rle::put_zero_run(4 * n, &mut self.body),
            ModelCodec::DeltaEntropy => rans::encode_zero_planes(n, &mut self.body),
            _ => {}
        }
    }

    /// Appends the body of `params` against a same-length `reference`.
    /// Returns `false` when the block should go inline instead: a body
    /// that would not undercut the raw image (a hostile-entropy delta
    /// can RLE-expand ~1.4×, the rANS header alone is up to 544 bytes)
    /// must not exceed the block's worst-case bound.
    fn delta_body(&mut self, codec: ModelCodec, params: &[f32], reference: &[f32]) -> bool {
        let n = params.len();
        match codec {
            ModelCodec::Raw | ModelCodec::F16 => false,
            ModelCodec::DeltaLossless => {
                build_delta_planes(params, reference, &mut self.planes);
                rle::compress(&self.planes, &mut self.body);
                self.body.len() < 4 * n
            }
            // An empty model has no planes to code.
            ModelCodec::DeltaEntropy if n == 0 => false,
            ModelCodec::DeltaEntropy => {
                build_delta_planes(params, reference, &mut self.planes);
                rans::encode_planes(&self.planes, n, &mut self.coder, &mut self.body);
                self.body.len() < 4 * n
            }
            ModelCodec::TopK { k } => self.picks.select(k, params, reference, &mut self.body),
        }
    }

    /// Decodes a delta `body` against `reference` onto `out` — or
    /// returns `true` with `out` untouched when the body is the
    /// all-zero delta, whose answer is the reference itself. The RLE
    /// recognizes *any* stream of only zero runs, the entropy stage
    /// exactly the one canonical container.
    fn apply(
        &mut self,
        codec: ModelCodec,
        body: &[u8],
        reference: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<bool, FlError> {
        let n = reference.len();
        match codec {
            ModelCodec::Raw | ModelCodec::F16 => unreachable!("plain payloads have no delta mode"),
            ModelCodec::DeltaLossless => {
                if rle::zero_only_stream_len(body) == Some(4 * n) {
                    return Ok(true);
                }
                // (Zero runs of any other total fail here, like every
                // stream that does not fill the planes exactly.)
                rle::decompress(body, 4 * n, &mut self.planes)?;
                gather_from_planes(&self.planes, reference, out);
            }
            ModelCodec::DeltaEntropy => {
                self.body.clear();
                rans::encode_zero_planes(n, &mut self.body);
                if body == self.body.as_slice() {
                    return Ok(true);
                }
                rans::decode_planes(body, n, &mut self.coder, &mut self.planes)?;
                gather_from_planes(&self.planes, reference, out);
            }
            ModelCodec::TopK { .. } => topk::apply_pairs(body, reference, out)?,
        }
        Ok(false)
    }
}

/// What one unit of the envelope's `u32` is worth in body bytes: the
/// compressed stages count bytes, top-k counts pairs.
fn unit(codec: ModelCodec) -> usize {
    match codec {
        ModelCodec::TopK { .. } => topk::PAIR_BYTES,
        _ => 1,
    }
}

/// Grows `v`'s capacity to at least `cap` elements.
fn reserve_to<T>(v: &mut Vec<T>, cap: usize) {
    v.reserve(cap.saturating_sub(v.len()));
}

impl std::fmt::Debug for PayloadCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PayloadCodec")
            .field("codec", &self.codec)
            .field("role", &self.role)
            .field("reference", &self.has_reference.then_some(self.reference.len()))
            .finish()
    }
}

impl PayloadCodec {
    /// Fresh codec state for one end of one job's wire.
    pub fn new(codec: ModelCodec, role: Role) -> Self {
        PayloadCodec {
            codec,
            role,
            reference: Vec::new(),
            ref_round: 0,
            has_reference: false,
            epoch: 0,
            ref_arc: None,
            ref_src: (0, 0),
            expected_len: None,
            offered: Vec::new(),
            scratch: CodecScratch::default(),
        }
    }

    /// The negotiated codec.
    pub fn codec(&self) -> ModelCodec {
        self.codec
    }

    /// Whether a reference model has been established.
    pub fn has_reference(&self) -> bool {
        self.has_reference
    }

    /// Counts the moves of the reference's bits: two equal readings
    /// bracket a stretch in which every update decoded the same.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pins the parameter count references must have. A receiver that
    /// knows the job's architecture (the party pool does — its
    /// endpoints hold the agreed model) refuses to let any other-sized
    /// decoded model become the reference, so a forged wrong-length
    /// inline frame cannot poison the delta state of a live job.
    pub fn set_expected_len(&mut self, len: usize) {
        self.expected_len = Some(len);
    }

    /// Runs `f` on this codec with its own scratch lent out — how a
    /// `&mut` caller reaches the `&self` update paths.
    pub(crate) fn with_scratch<R>(&mut self, f: impl FnOnce(&Self, &mut CodecScratch) -> R) -> R {
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = f(self, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// Appends one encoded params block for a `GlobalModel` payload.
    /// A [`Role::Sender`] advances its reference — to `params` for the
    /// lossless delta codecs, and to the *reconstruction* (reference
    /// with the transmitted pairs applied) for the lossy top-k tier, so
    /// both ends keep referencing the same bits.
    pub fn encode_global(&mut self, round: u64, params: &[f32], out: &mut BytesMut) {
        // Same-round rebroadcast: the delta is identically zero — the
        // degenerate block is emitted directly, no shuffle/sort, and
        // the reference stays where it is. (Raw/f16 keep no reference —
        // they must not pay a full-model memcpy per dispatched frame.)
        let rebroadcast = self.role == Role::Sender
            && !params.is_empty()
            && self.is_reference_rebroadcast(round, params);
        let delta = self.with_scratch(|pc, s| pc.encode_block(params, rebroadcast, s, out));
        if rebroadcast || self.role != Role::Sender || !self.codec.tracks_reference() {
            return;
        }
        match self.codec {
            // An inline image reconstructs to the true model, whatever
            // the stage.
            ModelCodec::TopK { .. } if delta => {
                // Advance to the reconstruction the receiver will now
                // hold: the old reference with the shipped pairs
                // applied.
                self.scratch.picks.apply_sent(&mut self.reference);
                self.ref_round = round;
                self.epoch += 1;
                self.ref_src = (params.as_ptr() as usize, params.len());
            }
            _ => self.set_reference(round, params),
        }
        if let ModelCodec::TopK { .. } = self.codec {
            // `params` itself is remembered separately so a same-round
            // rebroadcast of the same buffer is recognized.
            self.offered.clear();
            self.offered.extend_from_slice(params);
        }
    }

    /// Appends one encoded params block for a `LocalUpdate` payload
    /// (uses the reference, never advances it).
    pub fn encode_update(&mut self, params: &[f32], out: &mut BytesMut) {
        self.with_scratch(|pc, s| pc.encode_update_with(params, s, out));
    }

    /// [`PayloadCodec::encode_update`] in a caller's scratch: the same
    /// bytes, from any thread.
    pub(crate) fn encode_update_with(
        &self,
        params: &[f32],
        scratch: &mut CodecScratch,
        out: &mut BytesMut,
    ) {
        let _ = self.encode_block(params, false, scratch, out);
    }

    /// Decodes a `GlobalModel` params block. A [`Role::Receiver`]
    /// advances its reference to the decoded model only for a strictly
    /// newer round: a same-round rebroadcast decodes to the reference
    /// itself (no redundant full-model re-commit), a stale or
    /// same-round *replay* cannot re-commit — a redelivered first
    /// frame of the current round would decode against the round's own
    /// reference into garbage, and under a `>=` guard that garbage
    /// would poison the reference — and the decoded length must honor
    /// [`PayloadCodec::set_expected_len`] / the established reference
    /// (a forged or corrupt self-contained frame must not poison live
    /// delta state; the message still decodes — the protocol layer
    /// rejects and counts it).
    ///
    /// # Errors
    ///
    /// [`FlError::CodecMismatch`] on a codec tag other than the
    /// negotiated one (or an unknown tag byte); [`FlError::Codec`] on
    /// truncation, hostile lengths or malformed compression streams.
    pub fn decode_global(&mut self, round: u64, buf: &mut Bytes) -> Result<Arc<[f32]>, FlError> {
        let mut r = Reader::new(buf.as_slice(), "params block");
        let out = self.read_global(round, &mut r);
        let used = r.position();
        let _ = buf.split_to(used);
        out
    }

    /// [`PayloadCodec::decode_global`] from a message's own reader.
    pub(crate) fn read_global(
        &mut self,
        round: u64,
        r: &mut Reader<'_>,
    ) -> Result<Arc<[f32]>, FlError> {
        let mut decoded = Vec::with_capacity(self.reference.len());
        let is_reference = self.with_scratch(|pc, s| pc.read_params(r, s, &mut decoded));
        is_reference.map(|is_reference| {
            let len = if is_reference { self.reference.len() } else { decoded.len() };
            let fresh = !self.has_reference || round > self.ref_round;
            let len_ok = self.expected_len.is_none_or(|l| l == len)
                && (!self.has_reference || self.reference.len() == len);
            let commit =
                self.codec.tracks_reference() && self.role == Role::Receiver && fresh && len_ok;
            if is_reference {
                // The same bits under a newer round: only the round moves.
                if commit {
                    self.ref_round = round;
                }
                let reference = &self.reference;
                Arc::clone(self.ref_arc.get_or_insert_with(|| Arc::from(reference.as_slice())))
            } else {
                let arc: Arc<[f32]> = Arc::from(decoded.as_slice());
                if commit {
                    self.set_reference(round, &decoded);
                    self.ref_arc = Some(Arc::clone(&arc));
                }
                arc
            }
        })
    }

    /// Decodes a `LocalUpdate` params block (uses the reference, never
    /// advances it).
    ///
    /// # Errors
    ///
    /// As [`PayloadCodec::decode_global`].
    pub fn decode_update(&mut self, buf: &mut Bytes) -> Result<Vec<f32>, FlError> {
        let mut r = Reader::new(buf.as_slice(), "params block");
        let out = self.with_scratch(|pc, s| pc.read_update(&mut r, s));
        let used = r.position();
        let _ = buf.split_to(used);
        out
    }

    /// [`PayloadCodec::decode_update`] from a message's own reader, in a
    /// caller's scratch.
    pub(crate) fn read_update(
        &self,
        r: &mut Reader<'_>,
        scratch: &mut CodecScratch,
    ) -> Result<Vec<f32>, FlError> {
        let mut out = Vec::with_capacity(self.reference.len());
        if self.read_params(r, scratch, &mut out)? {
            out.extend_from_slice(&self.reference);
        }
        Ok(out)
    }

    /// Forcibly re-keys the reference to `params` at `round` — the
    /// resume/restore path, where both ends of a wire deterministically
    /// resynchronize to the last mutually-acknowledged global model.
    /// Returns `false` (state untouched) when the length violates
    /// [`PayloadCodec::set_expected_len`] or the codec keeps no
    /// reference at all. The rebroadcast pointer hint is invalidated:
    /// the next encode against these bits takes the ordinary delta path,
    /// which emits the identical byte stream.
    pub fn force_reference(&mut self, round: u64, params: &[f32]) -> bool {
        if !self.codec.tracks_reference() {
            return false;
        }
        if self.expected_len.is_some_and(|l| l != params.len()) {
            return false;
        }
        self.set_reference(round, params);
        self.ref_src = (0, 0);
        true
    }

    /// The current reference model, as `(round, params)` — what a
    /// checkpoint records so a restored sender re-keys to the exact bits
    /// (for the top-k tier that is the lossy *reconstruction*, which is
    /// precisely what the next delta must be computed against).
    pub fn reference_snapshot(&self) -> Option<(u64, &[f32])> {
        self.has_reference.then_some((self.ref_round, self.reference.as_slice()))
    }

    fn set_reference(&mut self, round: u64, params: &[f32]) {
        self.reference.clear();
        self.reference.extend_from_slice(params);
        self.ref_round = round;
        self.has_reference = true;
        self.epoch += 1;
        self.ref_arc = None;
        self.ref_src = (params.as_ptr() as usize, params.len());
    }

    /// Whether `params` is bit-identical to the reference. The
    /// address/length/round triple is only a cheap *hint* (a same-round
    /// rebroadcast hands the codec the very `Arc` buffer its reference
    /// was copied from); the bitwise compare below is what makes the
    /// answer sound — an allocator recycling a freed buffer at the same
    /// address (ABA) must not smuggle different data through the
    /// zero-delta fast path. The compare is a linear scan, still an
    /// order of magnitude cheaper than the shuffle+RLE it skips, and it
    /// only runs when the pointer hint already matched.
    fn is_reference_rebroadcast(&self, round: u64, params: &[f32]) -> bool {
        // Top-k's stored reference is the lossy reconstruction; the
        // bits to compare against are the true params of the last
        // encode.
        let baseline: &[f32] = match self.codec {
            ModelCodec::TopK { .. } => &self.offered,
            _ => &self.reference,
        };
        self.has_reference
            && self.ref_round == round
            && self.ref_src == (params.as_ptr() as usize, params.len())
            && baseline.len() == params.len()
            && params.iter().zip(baseline).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The one encode path: `tag ‖ count`, then the plain image, or the
    /// delta envelope — the stage's body when there is a same-length
    /// reference and the body undercuts raw (`zero` forces the all-zero
    /// body of a rebroadcast), the inline image otherwise. Reserves the
    /// block's exact size before writing it. Returns whether a delta
    /// body was shipped.
    fn encode_block(
        &self,
        params: &[f32],
        zero: bool,
        s: &mut CodecScratch,
        out: &mut BytesMut,
    ) -> bool {
        let n = params.len();
        let delta = self.codec.tracks_reference() && {
            s.body.clear();
            if zero {
                s.zero_body(self.codec, n);
                true
            } else {
                self.has_reference
                    && self.reference.len() == n
                    && s.delta_body(self.codec, params, &self.reference)
            }
        };
        let image = match self.codec {
            ModelCodec::Raw => 4 * n,
            ModelCodec::F16 => 2 * n,
            _ if delta => 1 + 4 + s.body.len(),
            _ => 1 + 4 + 4 * n,
        };
        out.reserve(1 + 8 + image);
        out.put_u8(self.codec.tag());
        out.put_u64_le(n as u64);
        match self.codec {
            ModelCodec::Raw => put_f32s(out, params),
            ModelCodec::F16 => f16::put_f16s(out, params),
            _ if delta => {
                out.put_u8(MODE_DELTA);
                out.put_u32_le((s.body.len() / unit(self.codec)) as u32);
                out.put_slice(&s.body);
            }
            _ => {
                out.put_u8(MODE_INLINE);
                put_f32s(out, params);
            }
        }
        delta
    }

    /// The one decode path: decodes a params block onto the (empty)
    /// `out` — or returns `true` with `out` untouched when the block is
    /// an all-zero delta, whose answer is the reference itself (a
    /// rebroadcast costs its receiver no plane expansion, XOR gather or
    /// model copy).
    fn read_params(
        &self,
        r: &mut Reader<'_>,
        s: &mut CodecScratch,
        out: &mut Vec<f32>,
    ) -> Result<bool, FlError> {
        let (tag, count) = (r.u8()?, r.u64()?);
        if tag != self.codec.tag() {
            return Err(FlError::CodecMismatch(match ModelCodec::tag_name(tag) {
                Some(got) => {
                    format!("payload encoded as {got}, job negotiated {}", self.codec)
                }
                None => format!("corrupt codec tag {tag:#x}"),
            }));
        }
        match self.codec {
            ModelCodec::Raw => out.extend(r.f32s(count)?),
            ModelCodec::F16 => f16::read_f16s(r, count, out)?,
            _ => {
                let inline = r.tag("delta mode", |mode| match mode {
                    MODE_INLINE => Some(true),
                    MODE_DELTA => Some(false),
                    _ => None,
                })?;
                if inline {
                    out.extend(r.f32s(count)?);
                    return Ok(false);
                }
                if !self.has_reference {
                    return Err(FlError::Codec("delta payload before any reference model".into()));
                }
                let n = self.reference.len();
                if count != n as u64 {
                    return Err(FlError::Codec(format!(
                        "delta payload for {count} params, reference holds {n}"
                    )));
                }
                let unit = unit(self.codec);
                let len = r.len32(unit)? * unit;
                let body = r.bytes(len)?;
                return s.apply(self.codec, body, &self.reference, out);
            }
        }
        Ok(false)
    }
}

/// Fills `planes` with the byte-plane-shuffled XOR delta of `params`
/// against `reference` (callers guarantee equal lengths).
fn build_delta_planes(params: &[f32], reference: &[f32], planes: &mut Vec<u8>) {
    let n = params.len();
    planes.resize(4 * n, 0);
    // Four disjoint plane slices zipped with the input: no index
    // arithmetic, no bounds check — the shuffle vectorizes.
    let (lo, hi) = planes.split_at_mut(2 * n);
    let ((p0, p1), (p2, p3)) = (lo.split_at_mut(n), hi.split_at_mut(n));
    let deltas = params.iter().zip(reference).map(|(x, r)| x.to_bits() ^ r.to_bits());
    for ((((d, b0), b1), b2), b3) in deltas.zip(p0).zip(p1).zip(p2).zip(p3) {
        [*b0, *b1, *b2, *b3] = d.to_le_bytes();
    }
}

/// XOR-gathers the shuffled delta `planes` (4·n bytes) against
/// `reference` into `out` — the shared tail of the lossless delta
/// decoders.
pub(super) fn gather_from_planes(planes: &[u8], reference: &[f32], out: &mut Vec<f32>) {
    let n = reference.len();
    let (lo, hi) = planes[..4 * n].split_at(2 * n);
    let ((p0, p1), (p2, p3)) = (lo.split_at(n), hi.split_at(n));
    out.extend(reference.iter().zip(p0).zip(p1).zip(p2).zip(p3).map(
        |((((r, &b0), &b1), &b2), &b3)| {
            f32::from_bits(r.to_bits() ^ u32::from_le_bytes([b0, b1, b2, b3]))
        },
    ));
}
