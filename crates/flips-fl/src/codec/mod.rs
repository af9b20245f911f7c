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
//!   the same worst-case block bound the RLE honors.
//! - [`ModelCodec::TopK`] — a *lossy* sparsification tier: only the `k`
//!   largest-magnitude delta coordinates against the reference travel,
//!   as `(index, value)` pairs with deterministic tie-breaking by
//!   index, so seeded histories stay replayable even though the model
//!   itself is approximated.
//! - [`ModelCodec::F16`] — lossy IEEE half precision for deployments
//!   that opt in (never a default): halves model bytes unconditionally,
//!   at ~3 decimal digits of mantissa.
//!
//! The codec is carried per job in the coordinator config, spoken on
//! every link, announced in every
//! [`SelectionNotice`](crate::WireMessage::SelectionNotice), and pinned
//! once per (link, job) on the receiving side ([`CodecMap::negotiate`]):
//! a planned wire pins it out-of-band, a hand-built one on the first
//! notice, and a later notice naming another codec is refused. Its delta
//! reference is per (link, job) too, because each link sees different
//! frames. A decoder rejects mismatched or corrupt codec tags with
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

mod f16;
mod payload;
mod rle;
// Test-only: the file opens with `#![cfg(test)]`.
mod tests;
mod topk;

pub use f16::{f16_bits_to_f32, f32_to_f16_bits};
pub(crate) use payload::CodecScratch;
pub use payload::PayloadCodec;

use crate::format::Reader;
use crate::FlError;
use bytes::{BufMut, BytesMut};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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

    /// The human-readable name of a wire tag, if it is a known one
    /// (decoder diagnostics).
    fn tag_name(tag: u8) -> Option<&'static str> {
        match tag {
            TAG_TOPK => Some("topk"),
            _ => ModelCodec::from_tag(tag).map(ModelCodec::label),
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
    /// (codec tag + count + payload) — the bound every encoding of `n`
    /// parameters stays within.
    pub fn max_params_block_bytes(self, n: usize) -> usize {
        let head = 1 + 8; // codec tag + count
        match self {
            ModelCodec::Raw => head + 4 * n,
            // mode + comp_len + tokens; literal tokens add 3 bytes per
            // 65535-byte run, plus one possibly-short token per plane.
            ModelCodec::DeltaLossless => head + 1 + 4 + 4 * n + 3 * (4 * n / rle::RUN_CAP + 5),
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
    pub fn decode_announcement(r: &mut Reader<'_>) -> Result<ModelCodec, FlError> {
        match r.u8()? {
            TAG_TOPK => Ok(ModelCodec::TopK { k: r.u32()? }),
            tag => ModelCodec::from_tag(tag)
                .ok_or_else(|| FlError::Codec(format!("unknown codec tag {tag:#x}"))),
        }
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

    /// [`CodecMap::for_job`] read-only: what the update paths need, so
    /// several threads can encode or decode one job's updates at once.
    pub(crate) fn get(&self, job: u64) -> &PayloadCodec {
        self.jobs.get(&job).unwrap_or(&self.fallback)
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
