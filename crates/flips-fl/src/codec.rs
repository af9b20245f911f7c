//! Pluggable model-payload codecs: how a `GlobalModel`/`LocalUpdate`
//! parameter vector travels as bytes.
//!
//! PR 3 put every FL message on real bytes and measured the price: the
//! ~params·4-byte model frames dominate the serialized driver's round
//! overhead. This module makes the payload encoding a **negotiated,
//! per-job choice** — the classic adaptive-middleware move — without
//! touching the protocol state machines:
//!
//! - [`ModelCodec::Raw`] — f32 little-endian, the compatibility default.
//!   Exactly the pre-codec wire image (plus the one-byte codec tag).
//! - [`ModelCodec::DeltaLossless`] — XOR-delta of each parameter's bits
//!   against a per-job *reference model* (the last global model both
//!   ends of the wire already hold), byte-plane shuffled and
//!   zero-run-length encoded. **Bit-exact** on decode — NaN payloads,
//!   signed zeros and subnormals survive — so seeded histories over the
//!   compressed wire still pin the `FlJob` goldens.
//! - [`ModelCodec::DeltaEntropy`] — the delta pipeline above plus a
//!   static-model [rANS entropy stage](crate::rans) over the shuffled
//!   planes in place of the zero-RLE: still **bit-exact**, and the
//!   literal bytes the RLE ships at full width now cost their entropy.
//!   A per-block inline fallback keeps hostile-entropy payloads inside
//!   the same reserve-ahead bound the RLE honors.
//! - [`ModelCodec::TopK`] — a *lossy* sparsification tier: only the `k`
//!   largest-magnitude delta coordinates against the reference travel,
//!   as `(index, value)` pairs with deterministic tie-breaking by
//!   index, so seeded histories stay replayable even though the model
//!   itself is approximated.
//! - [`ModelCodec::F16`] — lossy IEEE half precision for deployments
//!   that opt in (never a default): halves model bytes unconditionally,
//!   at ~3 decimal digits of mantissa.
//!
//! The codec is carried per job in the coordinator config, announced in
//! every [`SelectionNotice`](crate::WireMessage::SelectionNotice), and
//! negotiated once per job on the receiving side ([`CodecMap::negotiate`]).
//! Since the per-link negotiation PR the announcement is scoped to the
//! *link*: the driver may pin a different codec per link on one job
//! ([`crate::MultiJobDriver::set_link_codec`]), each link's
//! `SelectionNotice` carries that link's codec, and each receiving pool
//! pins per (link, job) with the same once-only renegotiation-refusal
//! rules. A decoder rejects mismatched or corrupt codec tags with
//! [`FlError::CodecMismatch`] — the frame is dropped and counted, round
//! state untouched.
//!
//! The byte-level layout of every payload and announcement is specified
//! normatively in `docs/WIRE.md`.
//!
//! ## The reference model
//!
//! Both ends of a wire hold a per-job [`PayloadCodec`] whose reference
//! is "the last global model that crossed this wire for this job":
//!
//! - the **sender** of global models (the aggregator driver) updates its
//!   reference when it *encodes* a `GlobalModel`;
//! - the **receiver** (the party pool) updates its reference when it
//!   *decodes* one (never regressing to an older round, so a replayed
//!   stale frame cannot desynchronize the ends).
//!
//! `LocalUpdate` payloads delta against the same reference but never
//! update it. The first `GlobalModel` of a job (no reference yet) goes
//! inline-raw and establishes the reference on both ends; every later
//! model frame is a delta. Within a round the 2nd..Nth copies of the
//! same broadcast XOR to all-zero and collapse to a few RLE tokens, and
//! across rounds the aggregate moves the model little, so the deltas'
//! exponent/sign planes are almost entirely zero.
//!
//! ## Trust boundary
//!
//! The wire is **unauthenticated** — exactly like the pre-codec raw
//! wire, where an injector could already hand any endpoint arbitrary
//! model parameters or forged aborts. The codec layer therefore defends
//! against *corruption and confusion*, not against an active forger:
//! corrupt/truncated/mismatched-tag frames are rejected and counted,
//! stale replays cannot regress a reference, wrong-direction frames
//! cannot move codec state, and a decoded model of the wrong
//! architecture length can never become a reference
//! ([`PayloadCodec::set_expected_len`]). What it cannot do is
//! distinguish a *well-formed, right-length* forged frame from
//! legitimate traffic — no unauthenticated scheme can; on the delta
//! wire such a frame can poison the reference where on the raw wire it
//! poisons one round of training. Deployments that need the stronger
//! property must authenticate frames (the attested TEE channel layer in
//! `flips-tee` is the natural place) and can pre-pin each job's codec
//! out-of-band with [`crate::PartyPool::pin_codec`] instead of trusting
//! the first notice.

use crate::FlError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How model-parameter payloads are encoded on the wire for one job.
///
/// # Example
///
/// A sender/receiver codec pair round-trips a global model bit-exactly
/// under [`ModelCodec::DeltaLossless`] — the first model goes inline
/// and establishes the shared reference, later rounds travel as
/// XOR-deltas:
///
/// ```
/// use bytes::BytesMut;
/// use flips_fl::codec::{ModelCodec, PayloadCodec, Role};
///
/// let mut tx = PayloadCodec::new(ModelCodec::DeltaLossless, Role::Sender);
/// let mut rx = PayloadCodec::new(ModelCodec::DeltaLossless, Role::Receiver);
/// for (round, params) in [[1.0f32, -2.5, 0.0], [1.25, -2.5, 0.0]].iter().enumerate() {
///     let mut buf = BytesMut::new();
///     tx.encode_global(round as u64, params, &mut buf);
///     let mut wire = buf.freeze();
///     let decoded = rx.decode_global(round as u64, &mut wire).unwrap();
///     assert_eq!(&decoded[..], params, "bit-exact across the compressed wire");
/// }
/// assert!(rx.has_reference(), "the receiver tracks the sender's reference");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ModelCodec {
    /// f32 little-endian, the compatibility default.
    #[default]
    Raw,
    /// Bit-exact XOR-delta vs the per-job reference model, byte-plane
    /// shuffled + zero-run-length encoded.
    DeltaLossless,
    /// Lossy IEEE 754 half precision (opt-in only, never a default).
    F16,
    /// Bit-exact XOR-delta planes entropy-coded with a static-model
    /// [rANS stage](crate::rans) (inline fallback bounds hostile
    /// payloads at the raw image size).
    DeltaEntropy,
    /// Lossy top-k sparsification: the `k` largest-magnitude delta
    /// coordinates vs the reference travel as `(index, value_bits)`
    /// pairs; untransmitted coordinates keep their reference value.
    /// Ties in magnitude break by ascending index, so encoding is a
    /// pure function of `(params, reference, k)` and seeded histories
    /// replay bit-identically.
    TopK {
        /// Coordinates transmitted per model frame.
        k: u32,
    },
}

const TAG_RAW: u8 = 0;
const TAG_DELTA: u8 = 1;
const TAG_F16: u8 = 2;
const TAG_ENTROPY: u8 = 3;
const TAG_TOPK: u8 = 4;

/// Delta payload sub-mode: full inline-raw image (no reference yet).
const MODE_INLINE: u8 = 0;
/// Delta payload sub-mode: XOR-delta planes vs the reference.
const MODE_DELTA: u8 = 1;

impl ModelCodec {
    /// The one-byte wire tag.
    pub fn tag(self) -> u8 {
        match self {
            ModelCodec::Raw => TAG_RAW,
            ModelCodec::DeltaLossless => TAG_DELTA,
            ModelCodec::F16 => TAG_F16,
            ModelCodec::DeltaEntropy => TAG_ENTROPY,
            ModelCodec::TopK { .. } => TAG_TOPK,
        }
    }

    /// Parses a wire tag. `None` for unknown tags *and* for the top-k
    /// tag: top-k carries a `k` parameter the tag byte alone cannot
    /// recover — announcements travel through
    /// [`ModelCodec::decode_announcement`], which reads it.
    pub fn from_tag(tag: u8) -> Option<ModelCodec> {
        match tag {
            TAG_RAW => Some(ModelCodec::Raw),
            TAG_DELTA => Some(ModelCodec::DeltaLossless),
            TAG_F16 => Some(ModelCodec::F16),
            TAG_ENTROPY => Some(ModelCodec::DeltaEntropy),
            _ => None,
        }
    }

    /// The human-readable name of a wire tag, known or not (decoder
    /// diagnostics).
    fn tag_name(tag: u8) -> Option<&'static str> {
        match tag {
            TAG_RAW => Some("raw"),
            TAG_DELTA => Some("delta-lossless"),
            TAG_F16 => Some("f16"),
            TAG_ENTROPY => Some("delta-entropy"),
            TAG_TOPK => Some("topk"),
            _ => None,
        }
    }

    /// Human-readable name (benchmarks, logs).
    pub fn label(self) -> &'static str {
        match self {
            ModelCodec::Raw => "raw",
            ModelCodec::DeltaLossless => "delta-lossless",
            ModelCodec::F16 => "f16",
            ModelCodec::DeltaEntropy => "delta-entropy",
            ModelCodec::TopK { .. } => "topk",
        }
    }

    /// Whether decode reproduces the encoded parameters bit-for-bit.
    pub fn is_lossless(self) -> bool {
        !matches!(self, ModelCodec::F16 | ModelCodec::TopK { .. })
    }

    /// Whether this codec maintains a reference model on both ends of
    /// the wire (and therefore pays the reference-advance bookkeeping
    /// on global-model encode/decode).
    pub fn tracks_reference(self) -> bool {
        matches!(
            self,
            ModelCodec::DeltaLossless | ModelCodec::DeltaEntropy | ModelCodec::TopK { .. }
        )
    }

    /// Worst-case bytes of one encoded params block of `n` parameters
    /// (codec tag + count + payload) — what an encoder reserves ahead.
    pub fn max_params_block_bytes(self, n: usize) -> usize {
        let head = 1 + 8; // codec tag + count
        match self {
            ModelCodec::Raw => head + 4 * n,
            // mode + comp_len + tokens; literal tokens add 3 bytes per
            // 65535-byte run, plus one possibly-short token per plane.
            ModelCodec::DeltaLossless => head + 1 + 4 + 4 * n + 3 * (4 * n / RUN_CAP + 5),
            ModelCodec::F16 => head + 2 * n,
            // mode + comp_len/pair-count + the inline fallback image
            // (the compressed/sparse path is strictly smaller — the
            // encoder falls back before it would exceed the raw size).
            ModelCodec::DeltaEntropy | ModelCodec::TopK { .. } => head + 1 + 4 + 4 * n,
        }
    }

    /// Bytes of this codec's announcement inside a `SelectionNotice`:
    /// the tag byte, plus the u32 `k` parameter for [`ModelCodec::TopK`].
    pub fn announcement_bytes(self) -> usize {
        match self {
            ModelCodec::TopK { .. } => 1 + 4,
            _ => 1,
        }
    }

    /// Appends this codec's announcement (tag byte, then top-k's u32
    /// `k` little-endian).
    pub fn encode_announcement(self, out: &mut BytesMut) {
        out.put_u8(self.tag());
        if let ModelCodec::TopK { k } = self {
            out.put_u32_le(k);
        }
    }

    /// Parses an announcement written by
    /// [`ModelCodec::encode_announcement`].
    ///
    /// # Errors
    ///
    /// [`FlError::Codec`] on an empty buffer, an unknown tag, or a
    /// truncated top-k parameter.
    pub fn decode_announcement(buf: &mut Bytes) -> Result<ModelCodec, FlError> {
        if buf.remaining() < 1 {
            return Err(FlError::Codec("truncated codec announcement".into()));
        }
        let tag = buf.get_u8();
        if tag == TAG_TOPK {
            if buf.remaining() < 4 {
                return Err(FlError::Codec("truncated top-k announcement parameter".into()));
            }
            return Ok(ModelCodec::TopK { k: buf.get_u32_le() });
        }
        ModelCodec::from_tag(tag)
            .ok_or_else(|| FlError::Codec(format!("unknown codec tag {tag:#x}")))
    }
}

impl std::fmt::Display for ModelCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which end of the wire a [`PayloadCodec`] serves — decides which
/// operation (encode or decode of a `GlobalModel`) advances the
/// reference, so a hostile echoed frame on the wrong link direction can
/// never move codec state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Sends global models (the aggregator driver): reference advances
    /// on *encode*.
    Sender,
    /// Receives global models (the party pool): reference advances on
    /// *decode*.
    Receiver,
}

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
    /// Byte-plane shuffle scratch, 4·n bytes.
    planes: Vec<u8>,
    /// RLE / rANS token scratch.
    tokens: Vec<u8>,
    /// rANS renorm bytes and symbol tables.
    rans: crate::rans::Scratch,
    /// Decoded-parameter scratch for global models.
    decoded: Vec<f32>,
    /// Top-k candidate scratch: `(magnitude key, index)`.
    cands: Vec<(u32, u32)>,
    /// Top-k selected pairs of the last encode, `(index, value bits)`
    /// ascending by index — what the sender applies to advance its
    /// reference to the *reconstruction* (the model the receiver now
    /// holds), not to the true parameters.
    pairs: Vec<(u32, u32)>,
    /// Whether the last top-k params encode fell back to the inline
    /// image (then the reconstruction IS the true model).
    topk_inline: bool,
    /// The true (pre-sparsification) parameters behind the top-k
    /// reference — same-round rebroadcast detection must compare the
    /// offered params against what was *offered* last time, not against
    /// the lossy reconstruction.
    true_ref: Vec<f32>,
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
            planes: Vec::new(),
            tokens: Vec::new(),
            rans: crate::rans::Scratch::default(),
            decoded: Vec::new(),
            cands: Vec::new(),
            pairs: Vec::new(),
            topk_inline: false,
            true_ref: Vec::new(),
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
        if !self.codec.tracks_reference() {
            // Raw/f16 keep no reference — they must not pay a
            // full-model memcpy per dispatched frame.
            self.encode_params(params, out);
            return;
        }
        if self.role == Role::Sender
            && !params.is_empty()
            && self.is_reference_rebroadcast(round, params)
        {
            // Same-round rebroadcast: the delta is identically zero —
            // emit the degenerate block directly, no shuffle/sort.
            match self.codec {
                ModelCodec::DeltaLossless => self.encode_zero_delta(params.len(), out),
                ModelCodec::DeltaEntropy => self.encode_zero_entropy(params.len(), out),
                ModelCodec::TopK { .. } => self.encode_empty_topk(params.len(), out),
                _ => unreachable!("only reference-tracking codecs reach here"),
            }
            return;
        }
        self.encode_params(params, out);
        if self.role != Role::Sender {
            return;
        }
        if let ModelCodec::TopK { .. } = self.codec {
            if self.topk_inline {
                self.set_reference(round, params);
            } else {
                // Advance to the reconstruction the receiver will now
                // hold: the old reference with the shipped pairs
                // applied. `params` itself is remembered separately so
                // a same-round rebroadcast of the same buffer is
                // recognized.
                for &(i, bits) in &self.pairs {
                    self.reference[i as usize] = f32::from_bits(bits);
                }
                self.ref_round = round;
                self.has_reference = true;
                self.ref_src = (params.as_ptr() as usize, params.len());
            }
            self.true_ref.clear();
            self.true_ref.extend_from_slice(params);
        } else {
            self.set_reference(round, params);
        }
    }

    /// Appends one encoded params block for a `LocalUpdate` payload
    /// (uses the reference, never advances it).
    pub fn encode_update(&mut self, params: &[f32], out: &mut BytesMut) {
        self.encode_params(params, out);
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
        let mut decoded = std::mem::take(&mut self.decoded);
        decoded.clear();
        let arc = self.decode_params(buf, &mut decoded).map(|is_reference| {
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
        let mut out = Vec::with_capacity(self.reference.len());
        if self.decode_params(buf, &mut out)? {
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
        self.reference.clear();
        self.reference.extend_from_slice(params);
        self.ref_round = round;
        self.has_reference = true;
        self.ref_arc = None;
        self.ref_src = (0, 0);
        self.true_ref.clear();
        self.pairs.clear();
        self.topk_inline = false;
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
        // encode, kept in `true_ref`.
        let baseline: &[f32] = match self.codec {
            ModelCodec::TopK { .. } => &self.true_ref,
            _ => &self.reference,
        };
        self.has_reference
            && self.ref_round == round
            && self.ref_src == (params.as_ptr() as usize, params.len())
            && baseline.len() == params.len()
            && params.iter().zip(baseline).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Emits the delta block of an all-zero delta (a rebroadcast of the
    /// reference itself): `ceil(4n / RUN_CAP)` zero-run tokens, O(1) in
    /// the model size.
    fn encode_zero_delta(&mut self, n: usize, out: &mut BytesMut) {
        self.tokens.clear();
        let mut remaining = 4 * n;
        while remaining > 0 {
            let run = remaining.min(RUN_CAP);
            self.tokens.push(RUN_ZERO);
            self.tokens.extend_from_slice(&(run as u16).to_le_bytes());
            remaining -= run;
        }
        out.reserve(1 + 8 + 1 + 4 + self.tokens.len());
        out.put_u8(self.codec.tag());
        out.put_u64_le(n as u64);
        out.put_u8(MODE_DELTA);
        out.put_u32_le(self.tokens.len() as u32);
        out.put_slice(&self.tokens);
    }

    /// Emits the entropy-coded block of an all-zero delta, O(1) in the
    /// model size. Each plane's rANS stream is its header (one symbol at
    /// the full frequency budget never moves the coder state), so the
    /// ~190 bytes are written without materializing a plane.
    fn encode_zero_entropy(&mut self, n: usize, out: &mut BytesMut) {
        self.tokens.clear();
        crate::rans::encode_zero_planes(n, &mut self.tokens);
        out.reserve(1 + 8 + 1 + 4 + self.tokens.len());
        out.put_u8(self.codec.tag());
        out.put_u64_le(n as u64);
        out.put_u8(MODE_DELTA);
        out.put_u32_le(self.tokens.len() as u32);
        out.put_slice(&self.tokens);
    }

    /// Emits the top-k block of a zero delta: no pairs at all, O(1).
    fn encode_empty_topk(&mut self, n: usize, out: &mut BytesMut) {
        out.reserve(1 + 8 + 1 + 4);
        out.put_u8(self.codec.tag());
        out.put_u64_le(n as u64);
        out.put_u8(MODE_DELTA);
        out.put_u32_le(0);
    }

    fn encode_params(&mut self, params: &[f32], out: &mut BytesMut) {
        out.reserve(self.codec.max_params_block_bytes(params.len()));
        out.put_u8(self.codec.tag());
        out.put_u64_le(params.len() as u64);
        match self.codec {
            ModelCodec::Raw => {
                for &p in params {
                    out.put_f32_le(p);
                }
            }
            ModelCodec::F16 => {
                for &p in params {
                    out.put_slice(&f32_to_f16_bits(p).to_le_bytes());
                }
            }
            ModelCodec::DeltaLossless => {
                if !self.has_reference || self.reference.len() != params.len() {
                    out.put_u8(MODE_INLINE);
                    for &p in params {
                        out.put_f32_le(p);
                    }
                    return;
                }
                let n = params.len();
                self.build_delta_planes(params);
                self.tokens.clear();
                rle_compress(&self.planes, &mut self.tokens);
                // A hostile-entropy delta (short zero runs threaded
                // between literals) can RLE-expand up to ~1.4×; fall
                // back to the inline image so an encoded block never
                // exceeds its raw size (which is also what keeps the
                // reserve-ahead bound honest — no mid-encode
                // reallocation of the scratch).
                if self.tokens.len() >= 4 * n {
                    out.put_u8(MODE_INLINE);
                    for &p in params {
                        out.put_f32_le(p);
                    }
                    return;
                }
                out.put_u8(MODE_DELTA);
                out.put_u32_le(self.tokens.len() as u32);
                out.put_slice(&self.tokens);
            }
            ModelCodec::DeltaEntropy => {
                if !self.has_reference || self.reference.len() != params.len() || params.is_empty()
                {
                    out.put_u8(MODE_INLINE);
                    for &p in params {
                        out.put_f32_le(p);
                    }
                    return;
                }
                let n = params.len();
                self.build_delta_planes(params);
                self.tokens.clear();
                crate::rans::encode_planes(&self.planes, n, &mut self.rans, &mut self.tokens);
                // Same reserve-ahead discipline as the RLE stage: a
                // near-incompressible delta (the rANS header alone is
                // up to 544 bytes) falls back to the inline image so no
                // block exceeds its raw size.
                if self.tokens.len() >= 4 * n {
                    out.put_u8(MODE_INLINE);
                    for &p in params {
                        out.put_f32_le(p);
                    }
                    return;
                }
                out.put_u8(MODE_DELTA);
                out.put_u32_le(self.tokens.len() as u32);
                out.put_slice(&self.tokens);
            }
            ModelCodec::TopK { k } => {
                self.topk_inline = true;
                if !self.has_reference || self.reference.len() != params.len() {
                    out.put_u8(MODE_INLINE);
                    for &p in params {
                        out.put_f32_le(p);
                    }
                    return;
                }
                let n = params.len();
                // Candidates: coordinates whose bits differ from the
                // reference, keyed by |params − reference| (NaN deltas
                // key as the largest magnitudes — a NaN-poisoned
                // coordinate must not be silently dropped).
                let mut cands = std::mem::take(&mut self.cands);
                cands.clear();
                for (i, (&x, &r)) in params.iter().zip(&self.reference).enumerate() {
                    if x.to_bits() != r.to_bits() {
                        let key = (x - r).to_bits() & 0x7FFF_FFFF;
                        cands.push((key, i as u32));
                    }
                }
                // Keep the k largest keys; the comparator's index
                // tie-break makes it a total order, so the selected
                // *set* is a pure function of the input regardless of
                // partition internals.
                let k = k as usize;
                if cands.len() > k {
                    cands.select_nth_unstable_by(k, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                    cands.truncate(k);
                }
                self.pairs.clear();
                self.pairs.extend(cands.iter().map(|&(_, i)| (i, params[i as usize].to_bits())));
                self.pairs.sort_unstable_by_key(|&(i, _)| i);
                self.cands = cands;
                // Dense deltas (or tiny models) where the pair list
                // would not undercut the raw image go inline — and
                // inline is also bit-exact, so the fallback only ever
                // *improves* fidelity.
                if 4 + 8 * self.pairs.len() >= 4 * n {
                    out.put_u8(MODE_INLINE);
                    for &p in params {
                        out.put_f32_le(p);
                    }
                    return;
                }
                self.topk_inline = false;
                out.put_u8(MODE_DELTA);
                out.put_u32_le(self.pairs.len() as u32);
                for &(i, bits) in &self.pairs {
                    out.put_u32_le(i);
                    out.put_u32_le(bits);
                }
            }
        }
    }

    /// Fills `self.planes` with the byte-plane-shuffled XOR delta of
    /// `params` against the reference (callers guarantee equal
    /// lengths).
    fn build_delta_planes(&mut self, params: &[f32]) {
        let n = params.len();
        self.planes.resize(4 * n, 0);
        // Four disjoint plane slices zipped with the input: no index
        // arithmetic, no bounds check — the shuffle vectorizes.
        let (lo, hi) = self.planes.split_at_mut(2 * n);
        let ((p0, p1), (p2, p3)) = (lo.split_at_mut(n), hi.split_at_mut(n));
        let deltas = params.iter().zip(&self.reference).map(|(x, r)| x.to_bits() ^ r.to_bits());
        for ((((d, b0), b1), b2), b3) in deltas.zip(p0).zip(p1).zip(p2).zip(p3) {
            [*b0, *b1, *b2, *b3] = d.to_le_bytes();
        }
    }

    /// Decodes one params block into `out` — or returns `true` with
    /// `out` untouched when the block is an all-zero delta, whose answer
    /// is the reference itself (a rebroadcast costs its receiver no
    /// plane expansion, XOR gather or model copy).
    fn decode_params(&mut self, buf: &mut Bytes, out: &mut Vec<f32>) -> Result<bool, FlError> {
        if buf.remaining() < 1 + 8 {
            return Err(FlError::Codec("truncated params block".into()));
        }
        let tag = buf.get_u8();
        if tag != self.codec.tag() {
            return Err(FlError::CodecMismatch(match ModelCodec::tag_name(tag) {
                Some(got) => {
                    format!("payload encoded as {got}, job negotiated {}", self.codec)
                }
                None => format!("corrupt codec tag {tag:#x}"),
            }));
        }
        let count = buf.get_u64_le();
        match self.codec {
            ModelCodec::Raw => {
                let n = checked_count(count, 4, buf.remaining())?;
                out.clear();
                out.extend((0..n).map(|_| buf.get_f32_le()));
            }
            ModelCodec::F16 => {
                let n = checked_count(count, 2, buf.remaining())?;
                out.clear();
                out.extend(
                    (0..n)
                        .map(|_| f16_bits_to_f32(u16::from_le_bytes([buf.get_u8(), buf.get_u8()]))),
                );
            }
            ModelCodec::DeltaLossless => {
                if buf.remaining() < 1 {
                    return Err(FlError::Codec("truncated delta mode byte".into()));
                }
                match buf.get_u8() {
                    MODE_INLINE => {
                        let n = checked_count(count, 4, buf.remaining())?;
                        out.clear();
                        out.extend((0..n).map(|_| buf.get_f32_le()));
                    }
                    MODE_DELTA => {
                        if !self.has_reference {
                            return Err(FlError::Codec(
                                "delta payload before any reference model".into(),
                            ));
                        }
                        let n = self.reference.len();
                        if count != n as u64 {
                            return Err(FlError::Codec(format!(
                                "delta payload for {count} params, reference holds {n}"
                            )));
                        }
                        if buf.remaining() < 4 {
                            return Err(FlError::Codec("truncated delta length".into()));
                        }
                        let comp_len = buf.get_u32_le() as usize;
                        if comp_len > buf.remaining() {
                            return Err(FlError::Codec(format!(
                                "delta stream of {comp_len} bytes exceeds the {} remaining",
                                buf.remaining()
                            )));
                        }
                        let comp = buf.split_to(comp_len);
                        // A stream of only zero-run tokens is a
                        // rebroadcast of the reference itself.
                        if let Some(total) = zero_only_stream_len(comp.as_slice()) {
                            if total != 4 * n {
                                return Err(FlError::Codec(format!(
                                    "RLE stream yields {total} bytes, delta planes need {}",
                                    4 * n
                                )));
                            }
                            return Ok(true);
                        }
                        rle_decompress(comp.as_slice(), 4 * n, &mut self.planes)?;
                        out.clear();
                        gather_from_planes(&self.planes, &self.reference, out);
                    }
                    other => {
                        return Err(FlError::Codec(format!("unknown delta mode {other}")));
                    }
                }
            }
            ModelCodec::DeltaEntropy => {
                if buf.remaining() < 1 {
                    return Err(FlError::Codec("truncated delta mode byte".into()));
                }
                match buf.get_u8() {
                    MODE_INLINE => {
                        let n = checked_count(count, 4, buf.remaining())?;
                        out.clear();
                        out.extend((0..n).map(|_| buf.get_f32_le()));
                    }
                    MODE_DELTA => {
                        if !self.has_reference {
                            return Err(FlError::Codec(
                                "delta payload before any reference model".into(),
                            ));
                        }
                        let n = self.reference.len();
                        if count != n as u64 {
                            return Err(FlError::Codec(format!(
                                "delta payload for {count} params, reference holds {n}"
                            )));
                        }
                        if buf.remaining() < 4 {
                            return Err(FlError::Codec("truncated delta length".into()));
                        }
                        let comp_len = buf.get_u32_le() as usize;
                        if comp_len > buf.remaining() {
                            return Err(FlError::Codec(format!(
                                "entropy stream of {comp_len} bytes exceeds the {} remaining",
                                buf.remaining()
                            )));
                        }
                        let comp = buf.split_to(comp_len);
                        // A rebroadcast of the reference itself is one
                        // fixed container: recognized by its bytes.
                        self.tokens.clear();
                        crate::rans::encode_zero_planes(n, &mut self.tokens);
                        if comp.as_slice() == self.tokens {
                            return Ok(true);
                        }
                        let (rans, planes) = (&mut self.rans, &mut self.planes);
                        crate::rans::decode_planes(comp.as_slice(), n, rans, planes)?;
                        out.clear();
                        gather_from_planes(&self.planes, &self.reference, out);
                    }
                    other => {
                        return Err(FlError::Codec(format!("unknown delta mode {other}")));
                    }
                }
            }
            ModelCodec::TopK { .. } => {
                if buf.remaining() < 1 {
                    return Err(FlError::Codec("truncated delta mode byte".into()));
                }
                match buf.get_u8() {
                    MODE_INLINE => {
                        let n = checked_count(count, 4, buf.remaining())?;
                        out.clear();
                        out.extend((0..n).map(|_| buf.get_f32_le()));
                    }
                    MODE_DELTA => {
                        if !self.has_reference {
                            return Err(FlError::Codec(
                                "top-k payload before any reference model".into(),
                            ));
                        }
                        let n = self.reference.len();
                        if count != n as u64 {
                            return Err(FlError::Codec(format!(
                                "top-k payload for {count} params, reference holds {n}"
                            )));
                        }
                        if buf.remaining() < 4 {
                            return Err(FlError::Codec("truncated top-k pair count".into()));
                        }
                        let npairs = buf.get_u32_le() as usize;
                        if npairs > n || npairs.checked_mul(8).is_none_or(|b| b > buf.remaining()) {
                            return Err(FlError::Codec(format!(
                                "{npairs} top-k pairs exceed the model or the buffer"
                            )));
                        }
                        out.clear();
                        out.extend_from_slice(&self.reference);
                        let mut prev: Option<u32> = None;
                        for _ in 0..npairs {
                            let i = buf.get_u32_le();
                            let bits = buf.get_u32_le();
                            if i as usize >= n {
                                return Err(FlError::Codec(format!(
                                    "top-k index {i} out of range for {n} params"
                                )));
                            }
                            if prev.is_some_and(|p| p >= i) {
                                return Err(FlError::Codec(
                                    "top-k indices must strictly ascend".into(),
                                ));
                            }
                            prev = Some(i);
                            out[i as usize] = f32::from_bits(bits);
                        }
                    }
                    other => {
                        return Err(FlError::Codec(format!("unknown delta mode {other}")));
                    }
                }
            }
        }
        Ok(false)
    }
}

/// XOR-gathers the shuffled delta `planes` (4·n bytes) against
/// `reference` into `out` — the shared tail of the lossless delta
/// decoders.
fn gather_from_planes(planes: &[u8], reference: &[f32], out: &mut Vec<f32>) {
    let n = reference.len();
    let (lo, hi) = planes[..4 * n].split_at(2 * n);
    let ((p0, p1), (p2, p3)) = (lo.split_at(n), hi.split_at(n));
    out.extend(reference.iter().zip(p0).zip(p1).zip(p2).zip(p3).map(
        |((((r, &b0), &b1), &b2), &b3)| {
            f32::from_bits(r.to_bits() ^ u32::from_le_bytes([b0, b1, b2, b3]))
        },
    ));
}

/// Overflow-safe "count · elem bytes must be present" guard (the same
/// hostile-length defense the pre-codec decoder used).
fn checked_count(count: u64, elem: usize, remaining: usize) -> Result<usize, FlError> {
    usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(elem).map(|bytes| (n, bytes)))
        .filter(|&(_, bytes)| bytes <= remaining)
        .map(|(n, _)| n)
        .ok_or_else(|| FlError::Codec("length prefix exceeds buffer".into()))
}

/// Outcome of offering a codec for a job on the receiving end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Negotiation {
    /// First offer for this job: the codec is now pinned.
    Established,
    /// The offer matches the pinned codec (idempotent re-announcement).
    Match,
    /// The offer conflicts with the pinned codec — the frame must be
    /// dropped; a job's codec is negotiated exactly once.
    Conflict,
}

/// Per-job payload codec state for one end of a multiplexed wire.
///
/// Jobs not (yet) registered fall back to a stateless [`ModelCodec::Raw`]
/// codec, so legacy raw traffic decodes without negotiation.
pub struct CodecMap {
    role: Role,
    jobs: BTreeMap<u64, PayloadCodec>,
    /// Architecture bound applied to codecs registered later (the pool
    /// learns a job's parameter count before its first notice).
    expected: BTreeMap<u64, usize>,
    fallback: PayloadCodec,
}

impl std::fmt::Debug for CodecMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodecMap")
            .field("role", &self.role)
            .field("jobs", &self.jobs.len())
            .finish()
    }
}

impl CodecMap {
    /// An empty map for one end of the wire.
    pub fn new(role: Role) -> Self {
        CodecMap {
            role,
            jobs: BTreeMap::new(),
            expected: BTreeMap::new(),
            fallback: PayloadCodec::new(ModelCodec::Raw, role),
        }
    }

    /// Records the agreed parameter count of a job's architecture:
    /// every codec (re)registered for the job refuses to commit a
    /// reference model of any other length.
    pub fn expect_len(&mut self, job: u64, len: usize) {
        self.expected.insert(job, len);
        if let Some(pc) = self.jobs.get_mut(&job) {
            pc.set_expected_len(len);
        }
    }

    /// Registers a job's codec outright (the sender side knows its own
    /// configuration; no negotiation involved).
    pub fn register(&mut self, job: u64, codec: ModelCodec) {
        let mut pc = PayloadCodec::new(codec, self.role);
        if let Some(&len) = self.expected.get(&job) {
            pc.set_expected_len(len);
        }
        self.jobs.insert(job, pc);
    }

    /// Offers `codec` for `job` — the receive-side handshake driven by
    /// [`SelectionNotice`](crate::WireMessage::SelectionNotice) frames.
    /// The first offer pins the codec; repeats are idempotent; a
    /// conflicting offer is refused (state unchanged).
    pub fn negotiate(&mut self, job: u64, codec: ModelCodec) -> Negotiation {
        match self.jobs.get(&job) {
            None => {
                self.register(job, codec);
                Negotiation::Established
            }
            Some(pc) if pc.codec() == codec => Negotiation::Match,
            Some(_) => Negotiation::Conflict,
        }
    }

    /// The pinned codec for a job, if negotiated/registered.
    pub fn codec_of(&self, job: u64) -> Option<ModelCodec> {
        self.jobs.get(&job).map(PayloadCodec::codec)
    }

    /// The payload codec a frame of `job` should use (raw fallback for
    /// unregistered jobs).
    pub fn for_job(&mut self, job: u64) -> &mut PayloadCodec {
        match self.jobs.get_mut(&job) {
            Some(pc) => pc,
            None => &mut self.fallback,
        }
    }

    /// Re-keys a registered job's reference (see
    /// [`PayloadCodec::force_reference`]). Returns `false` when the job
    /// has no registered codec, the codec keeps no reference, or the
    /// length violates the job's architecture bound.
    pub fn seed_reference(&mut self, job: u64, round: u64, params: &[f32]) -> bool {
        self.jobs.get_mut(&job).is_some_and(|pc| pc.force_reference(round, params))
    }

    /// Every established reference in the map, as
    /// `(job, ref_round, params)` ascending by job — the checkpoint's
    /// view of one link's delta state.
    pub fn reference_snapshots(&self) -> Vec<(u64, u64, Vec<f32>)> {
        self.jobs
            .iter()
            .filter_map(|(&job, pc)| {
                pc.reference_snapshot().map(|(round, params)| (job, round, params.to_vec()))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Zero-run-length coding of the shuffled delta planes.
// ---------------------------------------------------------------------

const RUN_ZERO: u8 = 0x00;
const RUN_LITERAL: u8 = 0x01;
/// Max bytes one token covers (u16 count).
const RUN_CAP: usize = u16::MAX as usize;
/// Zero runs shorter than this fold into the surrounding literal — a
/// zero token costs 3 bytes, so breaking a literal for less loses.
const MIN_ZERO_RUN: usize = 4;

/// Compresses `src` into `out` as `(kind, u16 count[, bytes])` tokens.
fn rle_compress(src: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < src.len() {
        if src[i] == 0 {
            let run = src[i..].iter().position(|&b| b != 0).unwrap_or(src.len() - i);
            if run >= MIN_ZERO_RUN {
                let mut remaining = run;
                while remaining > 0 {
                    let n = remaining.min(RUN_CAP);
                    out.push(RUN_ZERO);
                    out.extend_from_slice(&(n as u16).to_le_bytes());
                    remaining -= n;
                }
                i += run;
                continue;
            }
        }
        // Literal run: until a qualifying zero run begins (or the token
        // count saturates).
        let start = i;
        while i < src.len() && i - start < RUN_CAP {
            if src[i] == 0 {
                let zrun = src[i..].iter().position(|&b| b != 0).unwrap_or(src.len() - i);
                if zrun >= MIN_ZERO_RUN {
                    break;
                }
                i = (i + zrun).min(start + RUN_CAP);
            } else {
                i += 1;
            }
        }
        out.push(RUN_LITERAL);
        out.extend_from_slice(&((i - start) as u16).to_le_bytes());
        out.extend_from_slice(&src[start..i]);
    }
}

/// If the stream is exclusively well-formed zero-run tokens, returns
/// the total byte count they cover (`None` otherwise — fall through to
/// the general decoder, which also produces the errors).
fn zero_only_stream_len(mut src: &[u8]) -> Option<usize> {
    let mut total = 0usize;
    while !src.is_empty() {
        if src.len() < 3 || src[0] != RUN_ZERO {
            return None;
        }
        let count = u16::from_le_bytes([src[1], src[2]]) as usize;
        if count == 0 {
            return None;
        }
        total = total.checked_add(count)?;
        src = &src[3..];
    }
    Some(total)
}

/// Decompresses a token stream into exactly `expect` bytes.
fn rle_decompress(mut src: &[u8], expect: usize, out: &mut Vec<u8>) -> Result<(), FlError> {
    out.clear();
    while !src.is_empty() {
        if src.len() < 3 {
            return Err(FlError::Codec("truncated RLE token".into()));
        }
        let count = u16::from_le_bytes([src[1], src[2]]) as usize;
        if count == 0 {
            return Err(FlError::Codec("empty RLE token".into()));
        }
        if out.len() + count > expect {
            return Err(FlError::Codec("RLE stream overflows the delta planes".into()));
        }
        match src[0] {
            RUN_ZERO => {
                out.resize(out.len() + count, 0);
                src = &src[3..];
            }
            RUN_LITERAL => {
                if src.len() < 3 + count {
                    return Err(FlError::Codec("truncated RLE literal".into()));
                }
                out.extend_from_slice(&src[3..3 + count]);
                src = &src[3 + count..];
            }
            other => return Err(FlError::Codec(format!("unknown RLE token kind {other}"))),
        }
    }
    if out.len() != expect {
        return Err(FlError::Codec(format!(
            "RLE stream yields {} bytes, delta planes need {expect}",
            out.len()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// IEEE 754 binary16 conversion (no half-precision crate offline).
// ---------------------------------------------------------------------

/// Converts an `f32` to IEEE 754 binary16 bits, round-to-nearest-even.
/// Overflow saturates to ±∞; NaN stays NaN (a payload bit is forced so
/// a truncated-payload NaN cannot collapse into an infinity).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;
    if exp32 == 0xFF {
        if man == 0 {
            return sign | 0x7C00; // ±inf
        }
        let payload = ((man >> 13) as u16) & 0x03FF;
        return sign | 0x7C00 | 0x0200 | payload; // NaN, quiet bit forced
    }
    let exp = exp32 - 127 + 15;
    if exp >= 0x1F {
        return sign | 0x7C00; // overflow → ±inf
    }
    if exp <= 0 {
        if exp < -10 {
            return sign; // underflow → ±0
        }
        // Subnormal half: shift the (implicit-1) mantissa into place.
        let man = man | 0x0080_0000;
        let shift = (14 - exp) as u32; // 14..=24
        let half = (man >> shift) as u16;
        let round_bit = 1u32 << (shift - 1);
        let rem = man & ((1u32 << shift) - 1);
        if rem > round_bit || (rem == round_bit && half & 1 == 1) {
            return sign | (half + 1); // may carry into the exponent: correct
        }
        return sign | half;
    }
    let mut half = ((exp as u16) << 10) | ((man >> 13) as u16);
    let rem = man & 0x1FFF;
    if rem > 0x1000 || (rem == 0x1000 && half & 1 == 1) {
        half += 1; // mantissa carry may roll into the exponent: correct
    }
    sign | half
}

/// Converts IEEE 754 binary16 bits to the exactly-representable `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x03FF) as u32;
    let bits = match exp {
        0 => {
            if man == 0 {
                sign // ±0
            } else {
                // Subnormal half = man · 2⁻²⁴, exact in f32.
                let magnitude = man as f32 * (1.0 / 16_777_216.0);
                sign | magnitude.to_bits()
            }
        }
        0x1F => sign | 0x7F80_0000 | (man << 13), // ±inf / NaN
        _ => sign | ((exp + 112) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &mut PayloadCodec, peer: &mut PayloadCodec, params: &[f32]) -> Vec<f32> {
        let mut buf = BytesMut::new();
        codec.encode_global(0, params, &mut buf);
        let mut bytes = buf.freeze();
        let out = peer.decode_global(0, &mut bytes).unwrap();
        assert_eq!(bytes.remaining(), 0, "decode must consume the block exactly");
        out.to_vec()
    }

    fn pair(codec: ModelCodec) -> (PayloadCodec, PayloadCodec) {
        (PayloadCodec::new(codec, Role::Sender), PayloadCodec::new(codec, Role::Receiver))
    }

    fn hostile_f32s() -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            1.0,
            -2.5,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x807F_FFFF), // negative subnormal
            f32::from_bits(0x7FC0_1234), // NaN with payload
            f32::MAX,
        ]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn raw_and_delta_are_bit_exact_on_hostile_values() {
        for codec in [ModelCodec::Raw, ModelCodec::DeltaLossless, ModelCodec::DeltaEntropy] {
            let (mut tx, mut rx) = pair(codec);
            let params = hostile_f32s();
            // Twice: first pass establishes the delta reference
            // (inline), second exercises the XOR-delta path proper.
            assert_eq!(bits(&roundtrip(&mut tx, &mut rx, &params)), bits(&params), "{codec}");
            let shifted: Vec<f32> =
                params.iter().map(|x| f32::from_bits(x.to_bits() ^ 0x0000_0101)).collect();
            assert_eq!(bits(&roundtrip(&mut tx, &mut rx, &shifted)), bits(&shifted), "{codec}");
        }
    }

    #[test]
    fn identical_rebroadcast_collapses_to_a_few_bytes() {
        let (mut tx, _) = pair(ModelCodec::DeltaLossless);
        let params: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
        let mut first = BytesMut::new();
        tx.encode_global(0, &params, &mut first);
        let mut second = BytesMut::new();
        tx.encode_global(0, &params, &mut second);
        assert!(first.len() > 4 * params.len(), "first frame is inline-raw");
        assert!(
            second.len() < 64,
            "identical rebroadcast must RLE to almost nothing, got {} bytes",
            second.len()
        );
    }

    #[test]
    fn nearby_model_compresses_well() {
        let (mut tx, mut rx) = pair(ModelCodec::DeltaLossless);
        let params: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
        roundtrip(&mut tx, &mut rx, &params);
        // An SGD-sized nudge: same exponents, low-mantissa churn.
        let nudged: Vec<f32> = params.iter().map(|x| x * (1.0 + 1e-4)).collect();
        let mut buf = BytesMut::new();
        tx.encode_update(&nudged, &mut buf);
        assert!(
            buf.len() < 3 * params.len(),
            "small-exponent deltas must beat 4 B/param, got {} bytes for {} params",
            buf.len(),
            params.len()
        );
        let decoded = rx.decode_update(&mut buf.freeze()).unwrap();
        assert_eq!(bits(&decoded), bits(&nudged));
    }

    #[test]
    fn f16_halves_the_payload() {
        let (mut tx, mut rx) = pair(ModelCodec::F16);
        let params: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).cos()).collect();
        let mut buf = BytesMut::new();
        tx.encode_update(&params, &mut buf);
        assert_eq!(buf.len(), 1 + 8 + 2 * params.len());
        let decoded = rx.decode_update(&mut buf.freeze()).unwrap();
        for (d, p) in decoded.iter().zip(&params) {
            assert!((d - p).abs() <= p.abs() * 1e-3 + 1e-6, "f16 {d} too far from {p}");
        }
    }

    #[test]
    fn codec_tag_mismatch_is_rejected_distinctly() {
        let (mut tx, _) = pair(ModelCodec::Raw);
        let mut buf = BytesMut::new();
        tx.encode_update(&[1.0, 2.0], &mut buf);
        let mut rx = PayloadCodec::new(ModelCodec::DeltaLossless, Role::Receiver);
        assert!(matches!(rx.decode_update(&mut buf.freeze()), Err(FlError::CodecMismatch(_))));
    }

    #[test]
    fn corrupt_codec_tag_is_rejected_distinctly() {
        let (mut tx, mut rx) = pair(ModelCodec::Raw);
        let mut buf = BytesMut::new();
        tx.encode_update(&[1.0], &mut buf);
        let mut bytes = buf.freeze().to_vec();
        bytes[0] = 0x7F;
        assert!(matches!(
            rx.decode_update(&mut Bytes::from(bytes)),
            Err(FlError::CodecMismatch(_))
        ));
    }

    #[test]
    fn delta_before_reference_is_rejected() {
        let (mut tx, _) = pair(ModelCodec::DeltaLossless);
        let params = [1.0f32, 2.0];
        tx.set_reference(0, &params); // sender has one, receiver does not
        let mut buf = BytesMut::new();
        tx.encode_update(&params, &mut buf);
        let mut rx = PayloadCodec::new(ModelCodec::DeltaLossless, Role::Receiver);
        assert!(matches!(rx.decode_update(&mut buf.freeze()), Err(FlError::Codec(_))));
    }

    #[test]
    fn corrupt_delta_streams_never_panic_or_decode() {
        let (mut tx, mut rx) = pair(ModelCodec::DeltaLossless);
        let params: Vec<f32> = (0..256).map(|i| i as f32 * 0.5).collect();
        roundtrip(&mut tx, &mut rx, &params);
        let mut buf = BytesMut::new();
        tx.encode_update(&params, &mut buf);
        let clean = buf.freeze().to_vec();
        // Unknown token kind, truncations at every prefix, oversized
        // comp_len: every corruption fails cleanly.
        let mut bad_kind = clean.clone();
        bad_kind[1 + 8 + 1 + 4] = 0xFF;
        assert!(rx.decode_update(&mut Bytes::from(bad_kind)).is_err());
        for cut in 0..clean.len() {
            assert!(
                rx.decode_update(&mut Bytes::from(clean[..cut].to_vec())).is_err(),
                "decoded from a {cut}-byte prefix"
            );
        }
        let mut bad_len = clean.clone();
        bad_len[1 + 8 + 1..1 + 8 + 1 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(rx.decode_update(&mut Bytes::from(bad_len)).is_err());
        // And the clean stream still decodes after all that rejection.
        assert_eq!(bits(&rx.decode_update(&mut Bytes::from(clean)).unwrap()), bits(&params));
    }

    #[test]
    fn replayed_stale_global_does_not_regress_the_receiver_reference() {
        let (mut tx, mut rx) = pair(ModelCodec::DeltaLossless);
        let round0: Vec<f32> = vec![1.0; 64];
        let round1: Vec<f32> = vec![1.5; 64];
        let mut frame0 = BytesMut::new();
        tx.encode_global(0, &round0, &mut frame0);
        let frame0 = frame0.freeze();
        rx.decode_global(0, &mut frame0.clone()).unwrap();
        let mut frame1 = BytesMut::new();
        tx.encode_global(1, &round1, &mut frame1);
        rx.decode_global(1, &mut frame1.freeze()).unwrap();
        // Replay the (inline-raw, self-contained) round-0 frame.
        rx.decode_global(0, &mut frame0.clone()).unwrap();
        assert_eq!(rx.reference, round1, "stale replay moved the reference backwards");
        // The wire stays in sync: a round-2 delta still decodes.
        let round2: Vec<f32> = vec![1.25; 64];
        let mut frame2 = BytesMut::new();
        tx.encode_global(2, &round2, &mut frame2);
        let decoded = rx.decode_global(2, &mut frame2.freeze()).unwrap();
        assert_eq!(bits(&decoded), bits(&round2));
    }

    #[test]
    fn hostile_entropy_delta_falls_back_to_inline_within_the_reserve() {
        // A period-5 plane pattern (one literal byte, then a 4-byte
        // zero run) makes the RLE token stream ~1.4× the plane bytes;
        // the encoder must fall back to the inline image so no block
        // exceeds its reserve-ahead bound (and the scratch never
        // reallocates mid-encode).
        let (mut tx, mut rx) = pair(ModelCodec::DeltaLossless);
        let reference: Vec<f32> = vec![0.0; 4096];
        roundtrip(&mut tx, &mut rx, &reference);
        // Differ from the reference in exactly one byte plane, every
        // 5th parameter: plane bytes read x,0,0,0,0,x,0,0,0,0,…
        let hostile: Vec<f32> =
            (0..4096).map(|i| if i % 5 == 0 { f32::from_bits(0xFF) } else { 0.0 }).collect();
        let mut buf = BytesMut::new();
        tx.encode_update(&hostile, &mut buf);
        assert!(
            buf.len() <= ModelCodec::DeltaLossless.max_params_block_bytes(hostile.len()),
            "encoded block {} exceeds the reserve bound",
            buf.len()
        );
        assert!(
            buf.len() <= 1 + 8 + 1 + 4 * hostile.len(),
            "worst case must cap at the inline image, got {}",
            buf.len()
        );
        let decoded = rx.decode_update(&mut buf.freeze()).unwrap();
        assert_eq!(bits(&decoded), bits(&hostile));
    }

    #[test]
    fn wrong_length_inline_global_cannot_become_the_reference() {
        // The receiver pins the architecture size: a decoded global of
        // any other length (a forged or corrupt self-contained frame)
        // decodes but never commits, so live delta state survives.
        let (mut tx, mut rx) = pair(ModelCodec::DeltaLossless);
        rx.set_expected_len(8);
        let legit: Vec<f32> = vec![1.0; 8];
        assert_eq!(bits(&roundtrip(&mut tx, &mut rx, &legit)), bits(&legit));
        // Forge: fresh sender codec → inline mode, wrong length, a
        // round that would pin the replay guard forever.
        let mut forger = PayloadCodec::new(ModelCodec::DeltaLossless, Role::Sender);
        let mut buf = BytesMut::new();
        forger.encode_global(u64::MAX, &[9.0; 3], &mut buf);
        let decoded = rx.decode_global(u64::MAX, &mut buf.freeze()).unwrap();
        assert_eq!(decoded.len(), 3, "the frame itself still decodes");
        assert_eq!(rx.reference, legit, "the forged frame must not move the reference");
        // The wire stays live: the next legitimate delta still decodes
        // and still advances the reference.
        let next: Vec<f32> = vec![1.5; 8];
        let mut frame = BytesMut::new();
        tx.encode_global(1, &next, &mut frame);
        let got = rx.decode_global(1, &mut frame.freeze()).unwrap();
        assert_eq!(bits(&got), bits(&next));
        assert_eq!(rx.reference, next);
    }

    #[test]
    fn rle_roundtrips_edge_patterns() {
        for src in [
            vec![],
            vec![0u8; 5],
            vec![7u8; 5],
            vec![0, 1, 0, 1, 0, 1],
            [vec![0; 100], vec![9; 3], vec![0; 70_000], vec![1, 2, 3]].concat(),
            vec![0; RUN_CAP + 1],
            vec![5; RUN_CAP + 1],
        ] {
            let mut tokens = Vec::new();
            rle_compress(&src, &mut tokens);
            let mut out = Vec::new();
            rle_decompress(&tokens, src.len(), &mut out).unwrap();
            assert_eq!(out, src);
        }
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // f16::MAX
        assert_eq!(f32_to_f16_bits(65536.0), 0x7C00); // overflow → inf
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xFC00);
        assert_eq!(f32_to_f16_bits(5.96e-8), 0x0001); // smallest subnormal
        assert_eq!(f32_to_f16_bits(1e-10), 0x0000); // underflow → 0
        let nan = f32_to_f16_bits(f32::NAN);
        assert_eq!(nan & 0x7C00, 0x7C00);
        assert_ne!(nan & 0x03FF, 0, "NaN must stay NaN");
        assert!(f16_bits_to_f32(0x7E00).is_nan());
        assert_eq!(f16_bits_to_f32(0x3C00), 1.0);
        assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f16_bits_to_f32(0x8000).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn f16_roundtrip_is_identity_on_f16_grid() {
        // Every finite half value maps to an exactly-representable f32
        // and back to the same bits.
        for h in 0..=u16::MAX {
            if (h >> 10) & 0x1F == 0x1F {
                continue; // inf/NaN handled above
            }
            assert_eq!(f32_to_f16_bits(f16_bits_to_f32(h)), h, "h={h:#06x}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1.0 + 2⁻¹¹ is exactly between 1.0 and the next half (1.0 +
        // 2⁻¹⁰); even mantissa wins.
        assert_eq!(f32_to_f16_bits(1.0 + 0.000_488_281_25), 0x3C00);
        // Just above the midpoint rounds up.
        assert_eq!(f32_to_f16_bits(1.0 + 0.000_488_4), 0x3C01);
    }

    #[test]
    fn negotiation_pins_once_and_refuses_conflicts() {
        let mut map = CodecMap::new(Role::Receiver);
        assert_eq!(map.negotiate(7, ModelCodec::DeltaLossless), Negotiation::Established);
        assert_eq!(map.negotiate(7, ModelCodec::DeltaLossless), Negotiation::Match);
        assert_eq!(map.negotiate(7, ModelCodec::Raw), Negotiation::Conflict);
        assert_eq!(map.codec_of(7), Some(ModelCodec::DeltaLossless), "conflict must not repin");
        assert_eq!(map.codec_of(8), None);
        assert_eq!(map.for_job(8).codec(), ModelCodec::Raw, "unknown jobs fall back to raw");
    }

    #[test]
    fn codec_tags_roundtrip_and_unknown_tags_fail() {
        for codec in
            [ModelCodec::Raw, ModelCodec::DeltaLossless, ModelCodec::F16, ModelCodec::DeltaEntropy]
        {
            assert_eq!(ModelCodec::from_tag(codec.tag()), Some(codec));
        }
        // Top-k's tag alone cannot recover k: announcements carry it.
        assert_eq!(ModelCodec::from_tag(ModelCodec::TopK { k: 8 }.tag()), None);
        assert_eq!(ModelCodec::from_tag(99), None);
    }

    /// The normative tag values of `docs/WIRE.md` §codec-tags. Changing
    /// any of these is a wire break: update the spec and say so loudly.
    #[test]
    fn codec_tag_values_match_the_wire_spec() {
        assert_eq!(ModelCodec::Raw.tag(), 0);
        assert_eq!(ModelCodec::DeltaLossless.tag(), 1);
        assert_eq!(ModelCodec::F16.tag(), 2);
        assert_eq!(ModelCodec::DeltaEntropy.tag(), 3);
        assert_eq!(ModelCodec::TopK { k: 1 }.tag(), 4);
        // And the delta sub-modes the spec names.
        assert_eq!(MODE_INLINE, 0);
        assert_eq!(MODE_DELTA, 1);
        assert_eq!(RUN_ZERO, 0x00);
        assert_eq!(RUN_LITERAL, 0x01);
    }

    #[test]
    fn announcements_roundtrip_including_the_topk_parameter() {
        for codec in [
            ModelCodec::Raw,
            ModelCodec::DeltaLossless,
            ModelCodec::F16,
            ModelCodec::DeltaEntropy,
            ModelCodec::TopK { k: 0 },
            ModelCodec::TopK { k: 1024 },
            ModelCodec::TopK { k: u32::MAX },
        ] {
            let mut buf = BytesMut::new();
            codec.encode_announcement(&mut buf);
            assert_eq!(buf.len(), codec.announcement_bytes(), "{codec}");
            let mut bytes = buf.freeze();
            assert_eq!(ModelCodec::decode_announcement(&mut bytes).unwrap(), codec);
            assert_eq!(bytes.remaining(), 0, "{codec} announcement fully consumed");
        }
        // Truncated top-k parameter and unknown tags fail cleanly.
        assert!(ModelCodec::decode_announcement(&mut Bytes::from(vec![4u8, 1, 0])).is_err());
        assert!(ModelCodec::decode_announcement(&mut Bytes::from(vec![99u8])).is_err());
        assert!(ModelCodec::decode_announcement(&mut Bytes::new()).is_err());
    }

    #[test]
    fn entropy_delta_beats_the_rle_on_literal_heavy_deltas() {
        let params: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
        let nudged: Vec<f32> = params.iter().map(|x| x * (1.0 + 1e-4)).collect();
        let mut sizes = std::collections::BTreeMap::new();
        for codec in [ModelCodec::DeltaLossless, ModelCodec::DeltaEntropy] {
            let (mut tx, mut rx) = pair(codec);
            roundtrip(&mut tx, &mut rx, &params);
            let mut buf = BytesMut::new();
            tx.encode_update(&nudged, &mut buf);
            sizes.insert(codec.label(), buf.len());
            let decoded = rx.decode_update(&mut buf.freeze()).unwrap();
            assert_eq!(bits(&decoded), bits(&nudged), "{codec} must stay bit-exact");
        }
        assert!(
            sizes["delta-entropy"] < sizes["delta-lossless"],
            "entropy stage must undercut the RLE: {sizes:?}"
        );
    }

    #[test]
    fn entropy_rebroadcast_is_small_and_decodes_to_the_reference() {
        let (mut tx, mut rx) = pair(ModelCodec::DeltaEntropy);
        let params: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
        let mut first = BytesMut::new();
        tx.encode_global(0, &params, &mut first);
        let first = rx.decode_global(0, &mut first.freeze()).unwrap();
        let mut second = BytesMut::new();
        tx.encode_global(0, &params, &mut second);
        // Four single-symbol streams (5-byte plane header, 32-byte
        // bitmap, one frequency, the state) behind the 14-byte block
        // header: the model's size appears nowhere.
        assert_eq!(second.len(), 4 * (5 + 38) + 14);
        let decoded = rx.decode_global(0, &mut second.freeze()).unwrap();
        assert_eq!(bits(&decoded), bits(&params));
        assert!(Arc::ptr_eq(&decoded, &first), "a rebroadcast hands out the round's own model");
    }

    #[test]
    fn rebroadcast_of_a_rekeyed_reference_decodes_to_its_bits() {
        // After a restore the receiver holds the reference without ever
        // having decoded it: the first all-zero delta still answers with
        // those bits, and the next one shares the allocation.
        for codec in [ModelCodec::DeltaLossless, ModelCodec::DeltaEntropy] {
            let (mut tx, mut rx) = pair(codec);
            let params: Vec<f32> = (0..1000).map(|i| (i as f32).cos()).collect();
            assert!(tx.force_reference(3, &params) && rx.force_reference(3, &params));
            let mut arcs = Vec::new();
            for _ in 0..2 {
                let mut buf = BytesMut::new();
                tx.encode_global(3, &params, &mut buf);
                arcs.push(rx.decode_global(3, &mut buf.freeze()).unwrap());
            }
            assert_eq!(bits(&arcs[0]), bits(&params), "{codec}");
            assert!(Arc::ptr_eq(&arcs[0], &arcs[1]), "{codec}");
            // A newer model moves the reference off the shared buffer.
            let nudged: Vec<f32> = params.iter().map(|x| x + 1.0).collect();
            let mut buf = BytesMut::new();
            tx.encode_global(4, &nudged, &mut buf);
            let next = rx.decode_global(4, &mut buf.freeze()).unwrap();
            assert_eq!(bits(&next), bits(&nudged), "{codec}");
            assert_eq!(bits(&arcs[0]), bits(&params), "{codec}: handed-out models never change");
        }
    }

    /// A `DeltaEntropy` delta block for `n` params around `container`.
    fn entropy_block(n: usize, container: &[u8]) -> Bytes {
        let mut block = BytesMut::new();
        block.put_u8(ModelCodec::DeltaEntropy.tag());
        block.put_u64_le(n as u64);
        block.put_u8(MODE_DELTA);
        block.put_u32_le(container.len() as u32);
        block.put_slice(container);
        block.freeze()
    }

    /// One single-symbol rANS plane: `sym` at the full frequency budget.
    fn single_symbol_plane(sym: u8, state: u32, renorm: &[u8]) -> Vec<u8> {
        let mut plane = vec![0u8];
        plane.extend_from_slice(&(38 + renorm.len() as u32).to_le_bytes());
        let mut bitmap = [0u8; 32];
        bitmap[usize::from(sym) / 8] |= 1 << (sym % 8);
        plane.extend_from_slice(&bitmap);
        plane.extend_from_slice(&(crate::rans::M as u16).to_le_bytes());
        plane.extend_from_slice(&state.to_le_bytes());
        plane.extend_from_slice(renorm);
        plane
    }

    #[test]
    fn forged_single_symbol_planes_decode_as_the_reference_decoder_would() {
        use crate::rans::{reference, RANS_L};
        let (mut tx, mut rx) = pair(ModelCodec::DeltaEntropy);
        let params: Vec<f32> = (0..100).map(|i| i as f32 * 0.25).collect();
        roundtrip(&mut tx, &mut rx, &params);
        let n = params.len();
        let zero = single_symbol_plane(0, RANS_L, &[]);
        let decode = |rx: &mut PayloadCodec, plane1: &[u8]| {
            let container = [&zero[..], plane1, &zero[..], &zero[..]].concat();
            let mut planes = Vec::new();
            let want = reference::decode_planes(&container, n, &mut planes).map(|()| {
                let mut want = Vec::new();
                gather_from_planes(&planes, &params, &mut want);
                bits(&want)
            });
            let got = rx.decode_update(&mut entropy_block(n, &container)).map(|v| bits(&v));
            match (&got, &want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want),
                (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                _ => panic!("codec {got:?}, reference decoder {want:?}"),
            }
            got
        };
        // The genuine article: all four planes zero, the reference itself.
        assert_eq!(decode(&mut rx, &zero).unwrap(), bits(&params));
        // The short-circuit runs the symbol loop's checks, not fewer: a
        // state off the start state and stray renorm bytes are refused.
        assert!(decode(&mut rx, &single_symbol_plane(0, RANS_L + 1, &[])).is_err());
        assert!(decode(&mut rx, &single_symbol_plane(0, RANS_L - 1, &[])).is_err());
        assert!(decode(&mut rx, &single_symbol_plane(0, RANS_L, &[0])).is_err());
        // A non-zero single symbol is a legal plane, not a rebroadcast:
        // byte 1 of every delta is 5.
        let fives = decode(&mut rx, &single_symbol_plane(5, RANS_L, &[])).unwrap();
        let want: Vec<u32> = params.iter().map(|x| x.to_bits() ^ 0x0500).collect();
        assert_eq!(fives, want);
    }

    #[test]
    fn hostile_entropy_payload_falls_back_to_inline_within_the_reserve() {
        // White-noise bit patterns: the delta planes are uniform bytes,
        // rANS gains nothing, and the encoder must ship the inline
        // image instead of exceeding the reserve bound.
        let (mut tx, mut rx) = pair(ModelCodec::DeltaEntropy);
        let reference: Vec<f32> = vec![0.0; 512];
        roundtrip(&mut tx, &mut rx, &reference);
        let hostile: Vec<f32> =
            (0u32..512).map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9))).collect();
        let mut buf = BytesMut::new();
        tx.encode_update(&hostile, &mut buf);
        assert!(
            buf.len() <= ModelCodec::DeltaEntropy.max_params_block_bytes(hostile.len()),
            "encoded block {} exceeds the reserve bound",
            buf.len()
        );
        assert_eq!(buf.as_slice()[1 + 8], MODE_INLINE, "hostile entropy must go inline");
        let decoded = rx.decode_update(&mut buf.freeze()).unwrap();
        assert_eq!(bits(&decoded), bits(&hostile));
    }

    #[test]
    fn corrupt_entropy_streams_never_panic_or_decode() {
        let (mut tx, mut rx) = pair(ModelCodec::DeltaEntropy);
        let params: Vec<f32> = (0..256).map(|i| i as f32 * 0.5).collect();
        roundtrip(&mut tx, &mut rx, &params);
        let nudged: Vec<f32> = params.iter().map(|x| x * (1.0 + 1e-4)).collect();
        let mut buf = BytesMut::new();
        tx.encode_update(&nudged, &mut buf);
        let clean = buf.freeze().to_vec();
        assert_eq!(clean[1 + 8], MODE_DELTA, "test premise: the delta path is exercised");
        for cut in 0..clean.len() {
            assert!(
                rx.decode_update(&mut Bytes::from(clean[..cut].to_vec())).is_err(),
                "decoded from a {cut}-byte prefix"
            );
        }
        let mut bad_len = clean.clone();
        bad_len[1 + 8 + 1..1 + 8 + 1 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(rx.decode_update(&mut Bytes::from(bad_len)).is_err());
        // The clean stream still decodes after all that rejection.
        assert_eq!(bits(&rx.decode_update(&mut Bytes::from(clean)).unwrap()), bits(&nudged));
    }

    #[test]
    fn topk_transmits_exactly_the_k_largest_coordinates() {
        let (mut tx, mut rx) = pair(ModelCodec::TopK { k: 3 });
        let reference: Vec<f32> = vec![0.0; 64];
        assert_eq!(
            bits(&roundtrip(&mut tx, &mut rx, &reference)),
            bits(&reference),
            "first frame is inline and bit-exact"
        );
        let mut next = reference.clone();
        next[5] = 0.1;
        next[17] = -4.0;
        next[18] = 2.0;
        next[40] = 0.5;
        next[63] = -0.2;
        let mut buf = BytesMut::new();
        tx.encode_global(1, &next, &mut buf);
        assert_eq!(buf.len(), 1 + 8 + 1 + 4 + 8 * 3, "3 pairs travel");
        let decoded = rx.decode_global(1, &mut buf.freeze()).unwrap();
        // The 3 largest magnitudes (17, 18, 40) land; 5 and 63 do not.
        let mut expect = reference.clone();
        expect[17] = -4.0;
        expect[18] = 2.0;
        expect[40] = 0.5;
        assert_eq!(bits(&decoded), bits(&expect));
        // Sender and receiver references both hold the reconstruction:
        // the next round's frame decodes against it bit-exactly at k=n.
        assert_eq!(tx.reference, rx.reference, "references stay in lockstep");
    }

    #[test]
    fn topk_ties_break_by_ascending_index() {
        let (mut tx, mut rx) = pair(ModelCodec::TopK { k: 2 });
        let reference: Vec<f32> = vec![0.0; 32];
        roundtrip(&mut tx, &mut rx, &reference);
        // Four coordinates move by exactly the same magnitude.
        let mut next = reference.clone();
        for i in [3usize, 9, 12, 30] {
            next[i] = 1.0;
        }
        let mut buf = BytesMut::new();
        tx.encode_global(1, &next, &mut buf);
        let decoded = rx.decode_global(1, &mut buf.freeze()).unwrap();
        let mut expect = reference.clone();
        expect[3] = 1.0;
        expect[9] = 1.0;
        assert_eq!(bits(&decoded), bits(&expect), "lowest indices win the tie");
    }

    #[test]
    fn topk_rebroadcast_is_empty_and_all_receivers_converge() {
        // One link codec pair, two cohort members on the link — exactly
        // how the driver/pool share per-link state. The first round-1
        // frame carries pairs; the second (same Arc-backed buffer) is
        // the empty rebroadcast; both must decode to the same model.
        let (mut tx, mut rx) = pair(ModelCodec::TopK { k: 2 });
        let reference: Vec<f32> = vec![1.0; 16];
        let mut buf = BytesMut::new();
        tx.encode_global(0, &reference, &mut buf);
        rx.decode_global(0, &mut buf.freeze()).unwrap();
        let moved: Vec<f32> = (0..16).map(|i| 1.0 + i as f32 * 0.01).collect();
        let mut first = BytesMut::new();
        tx.encode_global(1, &moved, &mut first);
        let got_a = rx.decode_global(1, &mut first.freeze()).unwrap();
        let mut second = BytesMut::new();
        tx.encode_global(1, &moved, &mut second);
        assert_eq!(second.len(), 1 + 8 + 1 + 4, "rebroadcast carries zero pairs");
        let got_b = rx.decode_global(1, &mut second.freeze()).unwrap();
        assert_eq!(bits(&got_a), bits(&got_b), "cohort members must hold one round-1 model");
        assert_eq!(tx.reference, rx.reference, "references stay in lockstep");
    }

    #[test]
    fn topk_dense_delta_falls_back_to_the_exact_inline_image() {
        // k ≥ n/2: the pair list cannot undercut the raw image, so the
        // encoder ships inline — which is bit-exact.
        let (mut tx, mut rx) = pair(ModelCodec::TopK { k: 64 });
        let reference: Vec<f32> = vec![0.0; 64];
        roundtrip(&mut tx, &mut rx, &reference);
        let moved: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut buf = BytesMut::new();
        tx.encode_global(1, &moved, &mut buf);
        assert_eq!(buf.as_slice()[1 + 8], MODE_INLINE);
        assert!(buf.len() <= ModelCodec::TopK { k: 64 }.max_params_block_bytes(moved.len()));
        let decoded = rx.decode_global(1, &mut buf.freeze()).unwrap();
        assert_eq!(bits(&decoded), bits(&moved));
        assert_eq!(tx.reference, rx.reference);
    }

    #[test]
    fn corrupt_topk_streams_never_panic_or_decode() {
        let (mut tx, mut rx) = pair(ModelCodec::TopK { k: 4 });
        let reference: Vec<f32> = vec![0.0; 256];
        roundtrip(&mut tx, &mut rx, &reference);
        let mut moved = reference.clone();
        moved[10] = 1.0;
        moved[200] = -2.0;
        let mut buf = BytesMut::new();
        tx.encode_update(&moved, &mut buf);
        let clean = buf.freeze().to_vec();
        assert_eq!(clean[1 + 8], MODE_DELTA);
        for cut in 0..clean.len() {
            assert!(
                rx.decode_update(&mut Bytes::from(clean[..cut].to_vec())).is_err(),
                "decoded from a {cut}-byte prefix"
            );
        }
        // Out-of-range index.
        let mut bad_idx = clean.clone();
        bad_idx[1 + 8 + 1 + 4..1 + 8 + 1 + 4 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(rx.decode_update(&mut Bytes::from(bad_idx)).is_err());
        // Non-ascending indices (duplicate).
        let mut dup = clean.clone();
        let second_pair = 1 + 8 + 1 + 4 + 8;
        let first_pair: [u8; 4] = clean[1 + 8 + 1 + 4..1 + 8 + 1 + 4 + 4].try_into().unwrap();
        dup[second_pair..second_pair + 4].copy_from_slice(&first_pair);
        assert!(rx.decode_update(&mut Bytes::from(dup)).is_err());
        // Hostile pair count.
        let mut bad_count = clean.clone();
        bad_count[1 + 8 + 1..1 + 8 + 1 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(rx.decode_update(&mut Bytes::from(bad_count)).is_err());
        // The clean stream still decodes.
        let decoded = rx.decode_update(&mut Bytes::from(clean)).unwrap();
        let mut expect = reference.clone();
        expect[10] = 1.0;
        expect[200] = -2.0;
        assert_eq!(bits(&decoded), bits(&expect));
    }

    #[test]
    fn topk_is_not_lossless_and_the_delta_codecs_are() {
        assert!(ModelCodec::Raw.is_lossless());
        assert!(ModelCodec::DeltaLossless.is_lossless());
        assert!(ModelCodec::DeltaEntropy.is_lossless());
        assert!(!ModelCodec::F16.is_lossless());
        assert!(!ModelCodec::TopK { k: 1 }.is_lossless());
        assert!(!ModelCodec::Raw.tracks_reference());
        assert!(!ModelCodec::F16.tracks_reference());
        assert!(ModelCodec::DeltaLossless.tracks_reference());
        assert!(ModelCodec::DeltaEntropy.tracks_reference());
        assert!(ModelCodec::TopK { k: 1 }.tracks_reference());
    }

    #[test]
    fn replayed_stale_entropy_global_does_not_regress_the_reference() {
        let (mut tx, mut rx) = pair(ModelCodec::DeltaEntropy);
        let round0: Vec<f32> = vec![1.0; 64];
        let round1: Vec<f32> = vec![1.5; 64];
        let mut frame0 = BytesMut::new();
        tx.encode_global(0, &round0, &mut frame0);
        let frame0 = frame0.freeze();
        rx.decode_global(0, &mut frame0.clone()).unwrap();
        let mut frame1 = BytesMut::new();
        tx.encode_global(1, &round1, &mut frame1);
        rx.decode_global(1, &mut frame1.freeze()).unwrap();
        rx.decode_global(0, &mut frame0.clone()).unwrap();
        assert_eq!(rx.reference, round1, "stale replay moved the reference backwards");
        let round2: Vec<f32> = vec![1.25; 64];
        let mut frame2 = BytesMut::new();
        tx.encode_global(2, &round2, &mut frame2);
        let decoded = rx.decode_global(2, &mut frame2.freeze()).unwrap();
        assert_eq!(bits(&decoded), bits(&round2));
    }
}
