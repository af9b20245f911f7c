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

/// One job's payload codec state: the negotiated codec, the reference
/// model, and reused compression scratch (grow-only, like the GEMM pack
/// buffers — steady-state encode/decode allocates nothing but the
/// decoded payload itself).
pub struct PayloadCodec {
    codec: ModelCodec,
    role: Role,
    reference: Vec<f32>,
    /// Round of the reference (replay guard: never regress).
    ref_round: u64,
    has_reference: bool,
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
    /// Decoded-parameter scratch for global models.
    decoded: Vec<f32>,
    /// The delta body on its way from the stage into the envelope.
    body: Vec<u8>,
    stage: Stage,
}

/// What the codecs do not share: the body of a delta block and the
/// scratch producing it. Each stage keeps its own quirks — the envelope
/// only asks for a body and hands one back.
enum Stage {
    /// Raw and f16: no reference, no delta mode.
    Plain,
    /// Byte-plane shuffle (scratch, 4·n bytes) + zero-RLE.
    Rle { planes: Vec<u8> },
    /// Byte-plane shuffle + rANS (renorm bytes and symbol tables).
    Rans { planes: Vec<u8>, coder: rans::Scratch },
    /// Sparse `(index, value)` pairs.
    TopK(topk::TopK),
}

impl Stage {
    fn new(codec: ModelCodec) -> Self {
        match codec {
            ModelCodec::Raw | ModelCodec::F16 => Stage::Plain,
            ModelCodec::DeltaLossless => Stage::Rle { planes: Vec::new() },
            ModelCodec::DeltaEntropy => {
                Stage::Rans { planes: Vec::new(), coder: rans::Scratch::default() }
            }
            ModelCodec::TopK { k } => Stage::TopK(topk::TopK::new(k)),
        }
    }

    /// What one unit of the envelope's `u32` is worth in body bytes:
    /// the compressed stages count bytes, top-k counts pairs.
    fn unit(&self) -> usize {
        match self {
            Stage::TopK(_) => topk::PAIR_BYTES,
            _ => 1,
        }
    }

    /// Appends the body of an all-zero delta over `n` params (a
    /// rebroadcast of the reference itself), O(1) in the model size:
    /// a few zero-run tokens, four single-symbol rANS streams (one
    /// symbol at the full frequency budget never moves the coder
    /// state), or no pairs at all.
    fn zero_body(&self, n: usize, body: &mut Vec<u8>) {
        match self {
            Stage::Rle { .. } => rle::put_zero_run(4 * n, body),
            Stage::Rans { .. } => rans::encode_zero_planes(n, body),
            Stage::Plain | Stage::TopK(_) => {}
        }
    }

    /// Appends the body of `params` against a same-length `reference`.
    /// Returns `false` when the block should go inline instead: a body
    /// that would not undercut the raw image (a hostile-entropy delta
    /// can RLE-expand ~1.4×, the rANS header alone is up to 544 bytes)
    /// must not exceed the reserve-ahead bound.
    fn delta_body(&mut self, params: &[f32], reference: &[f32], body: &mut Vec<u8>) -> bool {
        let n = params.len();
        match self {
            Stage::Plain => false,
            Stage::Rle { planes } => {
                build_delta_planes(params, reference, planes);
                rle::compress(planes, body);
                body.len() < 4 * n
            }
            // An empty model has no planes to code.
            Stage::Rans { .. } if n == 0 => false,
            Stage::Rans { planes, coder } => {
                build_delta_planes(params, reference, planes);
                rans::encode_planes(planes, n, coder, body);
                body.len() < 4 * n
            }
            Stage::TopK(topk) => topk.select(params, reference, body),
        }
    }

    /// Decodes a delta `body` against `reference` onto `out` — or
    /// returns `true` with `out` untouched when the body is the
    /// all-zero delta, whose answer is the reference itself. The RLE
    /// recognizes *any* stream of only zero runs, the entropy stage
    /// exactly the one canonical container (built in `scratch`).
    fn apply(
        &mut self,
        body: &[u8],
        reference: &[f32],
        scratch: &mut Vec<u8>,
        out: &mut Vec<f32>,
    ) -> Result<bool, FlError> {
        let n = reference.len();
        match self {
            Stage::Plain => unreachable!("plain payloads have no delta mode"),
            Stage::Rle { planes } => {
                if rle::zero_only_stream_len(body) == Some(4 * n) {
                    return Ok(true);
                }
                // (Zero runs of any other total fail here, like every
                // stream that does not fill the planes exactly.)
                rle::decompress(body, 4 * n, planes)?;
                gather_from_planes(planes, reference, out);
            }
            Stage::Rans { planes, coder } => {
                scratch.clear();
                rans::encode_zero_planes(n, scratch);
                if body == scratch.as_slice() {
                    return Ok(true);
                }
                rans::decode_planes(body, n, coder, planes)?;
                gather_from_planes(planes, reference, out);
            }
            Stage::TopK(_) => topk::apply_pairs(body, reference, out)?,
        }
        Ok(false)
    }
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
            ref_arc: None,
            ref_src: (0, 0),
            expected_len: None,
            decoded: Vec::new(),
            body: Vec::new(),
            stage: Stage::new(codec),
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

    /// Pins the parameter count references must have. A receiver that
    /// knows the job's architecture (the party pool does — its
    /// endpoints hold the agreed model) refuses to let any other-sized
    /// decoded model become the reference, so a forged wrong-length
    /// inline frame cannot poison the delta state of a live job.
    pub fn set_expected_len(&mut self, len: usize) {
        self.expected_len = Some(len);
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
        let delta = self.encode_block(params, rebroadcast, out);
        if rebroadcast || self.role != Role::Sender || !self.codec.tracks_reference() {
            return;
        }
        match &mut self.stage {
            // An inline image reconstructs to the true model, whatever
            // the stage.
            Stage::TopK(topk) if delta => {
                // Advance to the reconstruction the receiver will now
                // hold: the old reference with the shipped pairs
                // applied.
                topk.apply_sent(&mut self.reference);
                self.ref_round = round;
                self.ref_src = (params.as_ptr() as usize, params.len());
            }
            _ => self.set_reference(round, params),
        }
        if let Stage::TopK(topk) = &mut self.stage {
            // `params` itself is remembered separately so a same-round
            // rebroadcast of the same buffer is recognized.
            topk.set_offered(params);
        }
    }

    /// Appends one encoded params block for a `LocalUpdate` payload
    /// (uses the reference, never advances it).
    pub fn encode_update(&mut self, params: &[f32], out: &mut BytesMut) {
        let _ = self.encode_block(params, false, out);
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
        let mut decoded = std::mem::take(&mut self.decoded);
        decoded.clear();
        let arc = self.read_params(r, &mut decoded).map(|is_reference| {
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
        });
        self.decoded = decoded;
        arc
    }

    /// Decodes a `LocalUpdate` params block (uses the reference, never
    /// advances it).
    ///
    /// # Errors
    ///
    /// As [`PayloadCodec::decode_global`].
    pub fn decode_update(&mut self, buf: &mut Bytes) -> Result<Vec<f32>, FlError> {
        let mut r = Reader::new(buf.as_slice(), "params block");
        let out = self.read_update(&mut r);
        let used = r.position();
        let _ = buf.split_to(used);
        out
    }

    /// [`PayloadCodec::decode_update`] from a message's own reader.
    pub(crate) fn read_update(&mut self, r: &mut Reader<'_>) -> Result<Vec<f32>, FlError> {
        let mut out = Vec::with_capacity(self.reference.len());
        if self.read_params(r, &mut out)? {
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
        let baseline: &[f32] = match &self.stage {
            Stage::TopK(topk) => topk.offered(),
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
    /// body of a rebroadcast), the inline image otherwise. Returns
    /// whether a delta body was shipped.
    fn encode_block(&mut self, params: &[f32], zero: bool, out: &mut BytesMut) -> bool {
        let n = params.len();
        out.reserve(self.codec.max_params_block_bytes(n));
        out.put_u8(self.codec.tag());
        out.put_u64_le(n as u64);
        match self.codec {
            ModelCodec::Raw => put_f32s(out, params),
            ModelCodec::F16 => f16::put_f16s(out, params),
            _ => {
                self.body.clear();
                let delta = if zero {
                    self.stage.zero_body(n, &mut self.body);
                    true
                } else {
                    self.has_reference
                        && self.reference.len() == n
                        && self.stage.delta_body(params, &self.reference, &mut self.body)
                };
                if delta {
                    out.put_u8(MODE_DELTA);
                    out.put_u32_le((self.body.len() / self.stage.unit()) as u32);
                    out.put_slice(&self.body);
                } else {
                    out.put_u8(MODE_INLINE);
                    put_f32s(out, params);
                }
                return delta;
            }
        }
        false
    }

    /// The one decode path: decodes a params block onto the (empty)
    /// `out` — or returns `true` with `out` untouched when the block is
    /// an all-zero delta, whose answer is the reference itself (a
    /// rebroadcast costs its receiver no plane expansion, XOR gather or
    /// model copy).
    fn read_params(&mut self, r: &mut Reader<'_>, out: &mut Vec<f32>) -> Result<bool, FlError> {
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
                let unit = self.stage.unit();
                let len = r.len32(unit)? * unit;
                let body = r.bytes(len)?;
                return self.stage.apply(body, &self.reference, &mut self.body, out);
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
