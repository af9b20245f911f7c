//! The FL wire protocol, with exact byte accounting.
//!
//! The paper's headline cost metric is communication: rounds saved
//! translate directly into model-update bytes not sent. This module
//! defines the messages of a synchronization round with a compact
//! little-endian binary codec so byte counts are exact and stable.
//!
//! A round exchanges five message kinds:
//!
//! - [`WireMessage::SelectionNotice`] — aggregator → party: "you are in
//!   round `round` of job `job`" (and announces the job's negotiated
//!   model-payload codec);
//! - [`WireMessage::GlobalModel`] — aggregator → party: the round's
//!   global parameters;
//! - [`WireMessage::LocalUpdate`] — party → aggregator: the trained
//!   local update;
//! - [`WireMessage::Heartbeat`] — party → aggregator: liveness ack;
//! - [`WireMessage::Abort`] — either direction: abandon the round/job.
//!
//! Every message carries the `(job, round)` pair so a transport can
//! multiplex concurrent jobs and the coordinator can reject stale or
//! foreign traffic. Update statistics (`mean_loss`, `duration`) travel as
//! `f64` so an in-process round trip through the protocol is bit-exact.
//!
//! Model parameter payloads travel through the job's negotiated
//! [`ModelCodec`] (see [`crate::codec`]): [`WireMessage::encode`] /
//! [`WireMessage::decode`] are the raw-codec compatibility pair, while
//! the hot wire path uses [`WireMessage::encode_into`] (writing into a
//! caller-owned, reused scratch buffer — no allocation per message) and
//! [`WireMessage::decode_with`] (resolving the per-job payload codec).
//!
//! The byte-accounting helpers ([`WireMessage::wire_size`],
//! [`global_model_bytes`], …) report the **raw-codec canonical size**:
//! the paper's communication metric stays codec-independent (and seeded
//! histories stay bit-identical whichever codec the wire negotiates);
//! the actually-transmitted bytes per codec are counted by the driver
//! ([`crate::DriverStats`]).
//!
//! (Only the `serde` *traits* are permitted in this workspace — no format
//! crate — so the codec is hand-rolled on `bytes`.)

use crate::codec::{CodecMap, CodecScratch, ModelCodec, PayloadCodec, Role};
use crate::format::{put_f32s, Reader};
use crate::FlError;
use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Protocol magic, guards against decoding foreign buffers.
const MAGIC: u32 = 0xF11F_5002;

const TAG_GLOBAL: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_NOTICE: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_PARTIAL: u8 = 6;

/// Fixed bytes of one [`PartialEntry`] on the wire (party, num_samples,
/// mean_loss, duration, sketch length prefix), before the sketch floats.
const PARTIAL_ENTRY_HEAD: usize = 8 + 8 + 8 + 8 + 4;

/// magic + tag.
const HEADER: usize = 4 + 1;

/// Codec tag + parameter count prefixing every params block.
const PARAMS_HEAD: usize = 1 + 8;

/// A message on the aggregator ↔ party wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireMessage {
    /// Aggregator → party: selection announcement for a round.
    SelectionNotice {
        /// Job identifier.
        job: u64,
        /// Round number.
        round: u64,
        /// The selected party.
        party: u64,
        /// The job's model-payload codec, which every link speaks
        /// (pinned once per (link, job); a later notice carrying a
        /// different codec is refused).
        codec: ModelCodec,
    },
    /// Aggregator → party: the round's global model.
    GlobalModel {
        /// Job identifier.
        job: u64,
        /// Round number.
        round: u64,
        /// Flat global-model parameters, shared — one broadcast round
        /// clones the `Arc`, never the floats.
        params: Arc<[f32]>,
    },
    /// Party → aggregator: a trained local update.
    LocalUpdate {
        /// Job identifier.
        job: u64,
        /// Round number.
        round: u64,
        /// Sender party.
        party: u64,
        /// Local sample count `n_i` (the FedAvg weight).
        num_samples: u64,
        /// Mean local training loss (Oort's utility signal).
        mean_loss: f64,
        /// Simulated training duration, seconds.
        duration: f64,
        /// Flat trained parameters `x_i^(r,τ)`.
        params: Vec<f32>,
    },
    /// Party → aggregator: liveness ack for an open round.
    Heartbeat {
        /// Job identifier.
        job: u64,
        /// Round number.
        round: u64,
        /// Sender party.
        party: u64,
    },
    /// Inner node → aggregator: a pre-folded partial aggregate covering
    /// several parties' local updates (the aggregation-tree uplink).
    ///
    /// The parameter payload is the **exact fixed-point weighted sum**
    /// of the covered updates ([`crate::aggtree::ExactWeightedSum`] raw
    /// limbs), so the coordinator can merge partials in any arrival
    /// order or grouping and recover the bit-exact flat fold. Per-party
    /// metadata (FedAvg weight, loss, duration, selector-feedback
    /// sketch) travels per entry; only the trained parameters are
    /// pre-folded away.
    ///
    /// Partials always travel under the raw payload codec: the limb
    /// payload is already a dense integer block, and delta/top-k model
    /// codecs are keyed to f32 parameter vectors.
    PartialUpdate {
        /// Job identifier.
        job: u64,
        /// Round number.
        round: u64,
        /// Sum of the covered entries' `num_samples` (the fold's total
        /// FedAvg weight).
        total_weight: u64,
        /// Per-party metadata for every update folded into `limbs`.
        entries: Vec<PartialEntry>,
        /// Model dimension (parameters per update).
        dim: u32,
        /// `4 × dim` little-endian `u64` limbs — one signed 256-bit
        /// fixed-point accumulator per parameter, in parameter order
        /// (see [`crate::aggtree::ExactWeightedSum::raw_limbs`]).
        limbs: Vec<u64>,
    },
    /// Either direction: abandon the round (aggregator → party) or
    /// withdraw from it (party → aggregator).
    Abort {
        /// Job identifier.
        job: u64,
        /// Round number.
        round: u64,
        /// The party the abort concerns (sender when party-originated,
        /// addressee otherwise).
        party: u64,
        /// Human-readable cause.
        reason: String,
    },
}

/// One party's contribution inside a [`WireMessage::PartialUpdate`]:
/// everything the coordinator needs from that party's local update
/// *except* the trained parameters, which the inner node has already
/// folded into the partial's exact weighted sum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialEntry {
    /// The covered party.
    pub party: u64,
    /// That party's local sample count `n_i` (its FedAvg weight inside
    /// the fold).
    pub num_samples: u64,
    /// Mean local training loss (Oort's utility signal).
    pub mean_loss: f64,
    /// Simulated training duration, seconds.
    pub duration: f64,
    /// The selector-feedback sketch of this party's update delta,
    /// computed by the inner node against the round's dispatched global
    /// (the coordinator can no longer derive it once parameters are
    /// folded away).
    pub sketch: Vec<f32>,
}

/// Where a decode finds the codec state of its model payloads.
enum Payloads<'a> {
    /// The receiving end's own map: a global model may move its
    /// reference.
    Owned(&'a mut CodecMap),
    /// A read-only map and a caller's scratch: local updates, from any
    /// thread.
    Shared(&'a CodecMap, &'a mut CodecScratch),
}

impl WireMessage {
    /// The job identifier every message carries.
    pub fn job(&self) -> u64 {
        match self {
            WireMessage::SelectionNotice { job, .. }
            | WireMessage::GlobalModel { job, .. }
            | WireMessage::LocalUpdate { job, .. }
            | WireMessage::PartialUpdate { job, .. }
            | WireMessage::Heartbeat { job, .. }
            | WireMessage::Abort { job, .. } => *job,
        }
    }

    /// The round number every message carries.
    pub fn round(&self) -> u64 {
        match self {
            WireMessage::SelectionNotice { round, .. }
            | WireMessage::GlobalModel { round, .. }
            | WireMessage::LocalUpdate { round, .. }
            | WireMessage::PartialUpdate { round, .. }
            | WireMessage::Heartbeat { round, .. }
            | WireMessage::Abort { round, .. } => *round,
        }
    }

    /// Encodes to the binary wire format with the raw payload codec
    /// (compatibility convenience; the wire path uses
    /// [`WireMessage::encode_into`] with the job's negotiated codec and
    /// a reused scratch buffer).
    pub fn encode(&self) -> Bytes {
        let mut codec = PayloadCodec::new(ModelCodec::Raw, Role::Sender);
        let mut buf = BytesMut::with_capacity(self.wire_size());
        self.encode_into(&mut codec, &mut buf);
        buf.freeze()
    }

    /// Appends the binary wire format to `buf`, encoding model payloads
    /// through `codec`. Each part reserves its exact size before it is
    /// written, so with a reused (grow-only) scratch the steady-state
    /// encode performs **no heap allocation** — the symmetric fix to the
    /// decode path's allocation-free scalar reads.
    pub fn encode_into(&self, codec: &mut PayloadCodec, buf: &mut BytesMut) {
        self.put_fields(buf);
        match self {
            WireMessage::GlobalModel { round, params, .. } => {
                codec.encode_global(*round, params, buf);
            }
            WireMessage::LocalUpdate { params, .. } => codec.encode_update(params, buf),
            _ => {}
        }
    }

    /// Appends everything [`WireMessage::encode_into`] writes but the
    /// params block.
    fn put_fields(&self, buf: &mut BytesMut) {
        buf.reserve(self.fields_size());
        buf.put_u32_le(MAGIC);
        match self {
            WireMessage::SelectionNotice { job, round, party, codec: announced } => {
                buf.put_u8(TAG_NOTICE);
                buf.put_u64_le(*job);
                buf.put_u64_le(*round);
                buf.put_u64_le(*party);
                announced.encode_announcement(buf);
            }
            WireMessage::GlobalModel { job, round, .. } => {
                buf.put_u8(TAG_GLOBAL);
                buf.put_u64_le(*job);
                buf.put_u64_le(*round);
            }
            WireMessage::LocalUpdate {
                job,
                round,
                party,
                num_samples,
                mean_loss,
                duration,
                ..
            } => {
                buf.put_u8(TAG_UPDATE);
                buf.put_u64_le(*job);
                buf.put_u64_le(*round);
                buf.put_u64_le(*party);
                buf.put_u64_le(*num_samples);
                buf.put_f64_le(*mean_loss);
                buf.put_f64_le(*duration);
            }
            WireMessage::PartialUpdate { job, round, total_weight, entries, dim, limbs } => {
                debug_assert_eq!(limbs.len(), *dim as usize * 4, "limb block / dim mismatch");
                buf.put_u8(TAG_PARTIAL);
                buf.put_u64_le(*job);
                buf.put_u64_le(*round);
                buf.put_u64_le(*total_weight);
                buf.put_u32_le(entries.len() as u32);
                for e in entries {
                    buf.put_u64_le(e.party);
                    buf.put_u64_le(e.num_samples);
                    buf.put_f64_le(e.mean_loss);
                    buf.put_f64_le(e.duration);
                    buf.put_u32_le(e.sketch.len() as u32);
                    put_f32s(buf, &e.sketch);
                }
                // Raw always: the limb block is already a dense integer
                // payload, not an f32 vector a model codec understands.
                buf.put_u32_le(*dim);
                for limb in limbs {
                    buf.put_u64_le(*limb);
                }
            }
            WireMessage::Heartbeat { job, round, party } => {
                buf.put_u8(TAG_HEARTBEAT);
                buf.put_u64_le(*job);
                buf.put_u64_le(*round);
                buf.put_u64_le(*party);
            }
            WireMessage::Abort { job, round, party, reason } => {
                buf.put_u8(TAG_ABORT);
                buf.put_u64_le(*job);
                buf.put_u64_le(*round);
                buf.put_u64_le(*party);
                buf.put_u32_le(reason.len() as u32);
                buf.put_slice(reason.as_bytes());
            }
        }
    }

    /// Decodes from the binary wire format, resolving model payloads
    /// with the raw codec (compatibility convenience for single-job
    /// raw-wire callers; the multiplexed drivers use
    /// [`WireMessage::decode_with`]).
    ///
    /// Decoding never panics: bad magic, unknown tags, truncation,
    /// overlong length prefixes and invalid UTF-8 all surface as
    /// [`FlError::Codec`]; a non-raw payload codec tag surfaces as
    /// [`FlError::CodecMismatch`].
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Codec`] / [`FlError::CodecMismatch`] on any
    /// malformed buffer.
    pub fn decode(buf: Bytes) -> Result<Self, FlError> {
        let mut map = CodecMap::new(Role::Receiver);
        Self::decode_with(buf, &mut map)
    }

    /// Decodes from the binary wire format, resolving each model payload
    /// through the per-job codec state in `codecs` (jobs not registered
    /// there decode with the raw fallback).
    ///
    /// # Errors
    ///
    /// [`FlError::Codec`] on any malformed buffer;
    /// [`FlError::CodecMismatch`] when a model payload's codec tag is
    /// corrupt or disagrees with the job's negotiated codec. Neither
    /// touches any round state — drivers count and drop.
    pub fn decode_with(buf: Bytes, codecs: &mut CodecMap) -> Result<Self, FlError> {
        Self::decode_from(buf, Payloads::Owned(codecs))
    }

    fn decode_from(buf: Bytes, mut payloads: Payloads<'_>) -> Result<Self, FlError> {
        let mut r = Reader::new(buf.as_slice(), "message");
        let magic = r.u32()?;
        if magic != MAGIC {
            return Err(FlError::Codec(format!("bad magic {magic:#x}")));
        }
        let msg = match r.u8()? {
            TAG_NOTICE => {
                // A notice too short to hold an announcement is a corrupt
                // frame; only an announcement that is there and does not
                // parse is a codec mismatch.
                r.need(8 * 3 + 1)?;
                let (job, round, party) = (r.u64()?, r.u64()?, r.u64()?);
                let codec = ModelCodec::decode_announcement(&mut r).map_err(|e| {
                    FlError::CodecMismatch(format!(
                        "selection notice carries a corrupt codec announcement: {e}"
                    ))
                })?;
                WireMessage::SelectionNotice { job, round, party, codec }
            }
            TAG_GLOBAL => {
                let (job, round) = (r.u64()?, r.u64()?);
                let Payloads::Owned(codecs) = &mut payloads else {
                    return Err(FlError::Codec(
                        "a global model decodes only against its receiver's own codec state".into(),
                    ));
                };
                let params = codecs.for_job(job).read_global(round, &mut r)?;
                WireMessage::GlobalModel { job, round, params }
            }
            TAG_UPDATE => {
                let (job, round, party, num_samples) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
                let (mean_loss, duration) = (r.f64()?, r.f64()?);
                let params = match &mut payloads {
                    Payloads::Owned(codecs) => {
                        codecs.for_job(job).with_scratch(|pc, s| pc.read_update(&mut r, s))
                    }
                    Payloads::Shared(codecs, scratch) => {
                        codecs.get(job).read_update(&mut r, scratch)
                    }
                }?;
                WireMessage::LocalUpdate {
                    job,
                    round,
                    party,
                    num_samples,
                    mean_loss,
                    duration,
                    params,
                }
            }
            TAG_PARTIAL => {
                let (job, round, total_weight) = (r.u64()?, r.u64()?, r.u64()?);
                // Each entry occupies at least its fixed head, so a
                // hostile count cannot force a huge allocation.
                let count = r.len32(PARTIAL_ENTRY_HEAD)?;
                let entries = r.seq(count, |r| {
                    Ok(PartialEntry {
                        party: r.u64()?,
                        num_samples: r.u64()?,
                        mean_loss: r.f64()?,
                        duration: r.f64()?,
                        sketch: {
                            let len = r.u32()?;
                            r.f32s(len.into())?.collect()
                        },
                    })
                })?;
                let dim = r.u32()?;
                // Four u64 limbs per parameter, all of them present.
                let num_limbs = 4 * r.count(dim.into(), 4 * 8)?;
                let limbs = r.seq(num_limbs, Reader::u64)?;
                WireMessage::PartialUpdate { job, round, total_weight, entries, dim, limbs }
            }
            TAG_HEARTBEAT => {
                WireMessage::Heartbeat { job: r.u64()?, round: r.u64()?, party: r.u64()? }
            }
            TAG_ABORT => {
                let (job, round, party) = (r.u64()?, r.u64()?, r.u64()?);
                let len = r.len32(1)?;
                let reason = String::from_utf8(r.bytes(len)?.to_vec())
                    .map_err(|_| FlError::Codec("abort reason is not UTF-8".into()))?;
                WireMessage::Abort { job, round, party, reason }
            }
            other => return Err(FlError::Codec(format!("unknown tag {other}"))),
        };
        // A message is exactly one frame: trailing bytes mean the tag and
        // payload disagree (e.g. a corrupted tag re-parsing a longer
        // variant's prefix) and must not decode silently.
        r.finish()?;
        Ok(msg)
    }

    /// Exact encoded size in bytes **under the raw payload codec** — the
    /// canonical byte-accounting size (codec-independent, so histories
    /// stay comparable across wire codecs). For the raw codec this is
    /// exactly `encode().len()`.
    pub fn wire_size(&self) -> usize {
        match self {
            // The announcement is part of the notice itself, so its
            // (codec-dependent) length is canonical, not a payload
            // encoding artifact: top-k notices carry 4 extra bytes for
            // `k`, every other codec exactly the tag byte.
            WireMessage::SelectionNotice { codec, .. } => {
                HEADER + 8 * 3 + codec.announcement_bytes()
            }
            WireMessage::GlobalModel { params, .. } => global_model_bytes(params.len()),
            WireMessage::LocalUpdate { params, .. } => local_update_bytes(params.len()),
            WireMessage::PartialUpdate { entries, limbs, .. } => {
                HEADER
                    + 8 * 3
                    + 4
                    + entries.iter().map(|e| PARTIAL_ENTRY_HEAD + e.sketch.len() * 4).sum::<usize>()
                    + 4
                    + limbs.len() * 8
            }
            WireMessage::Heartbeat { .. } => heartbeat_bytes(),
            WireMessage::Abort { reason, .. } => HEADER + 8 * 3 + 4 + reason.len(),
        }
    }

    /// Encoded size of everything but a model's params block (what
    /// [`Self::encode_into`] reserves before the block reserves its own).
    fn fields_size(&self) -> usize {
        match self {
            WireMessage::GlobalModel { .. } => HEADER + 8 * 2,
            WireMessage::LocalUpdate { .. } => HEADER + 8 * 3 + 8 + 8 + 8,
            other => other.wire_size(),
        }
    }
}

/// Frame destination of aggregator-bound (uplink) traffic.
///
/// Downlink frames carry the destination party id; party ids live in
/// `0..roster`, so the all-ones sentinel can never collide with one.
pub const AGGREGATOR_DEST: u64 = u64::MAX;

/// Bytes a frame adds in front of the encoded message (the destination).
pub const FRAME_HEADER: usize = 8;

/// Wraps an encoded message into a transport frame: an 8-byte
/// little-endian destination followed by the [`WireMessage::encode`]
/// bytes (raw payload codec). The destination is a party id on the
/// downlink and [`AGGREGATOR_DEST`] on the uplink; the *source* needs no
/// header field because every uplink message kind already carries its
/// sender.
pub fn frame(dest: u64, msg: &WireMessage) -> Bytes {
    let mut codec = PayloadCodec::new(ModelCodec::Raw, Role::Sender);
    let mut buf = BytesMut::with_capacity(FRAME_HEADER + msg.wire_size());
    frame_into(dest, msg, &mut codec, &mut buf);
    buf.freeze()
}

/// Builds a transport frame into a caller-owned scratch buffer,
/// encoding model payloads through the job's `codec`. Clears `out`
/// first; the scratch is grow-only, so the steady-state frame path
/// allocates nothing.
pub fn frame_into(dest: u64, msg: &WireMessage, codec: &mut PayloadCodec, out: &mut BytesMut) {
    out.clear();
    out.reserve(FRAME_HEADER);
    out.put_u64_le(dest);
    msg.encode_into(codec, out);
}

/// [`frame_into`] for a local update, against a read-only `codec` in a
/// caller's scratch: the same bytes, from any thread. Returns `false`,
/// writing nothing, for any other message.
pub(crate) fn frame_update_into(
    dest: u64,
    msg: &WireMessage,
    codec: &PayloadCodec,
    scratch: &mut CodecScratch,
    out: &mut BytesMut,
) -> bool {
    let WireMessage::LocalUpdate { params, .. } = msg else { return false };
    out.clear();
    out.reserve(FRAME_HEADER);
    out.put_u64_le(dest);
    msg.put_fields(out);
    codec.encode_update_with(params, scratch, out);
    true
}

/// Peeks the job id of a framed message without decoding it: every
/// message kind carries its job at the same fixed offset
/// (`dest ‖ magic ‖ tag ‖ job`). Returns `None` for frames too short to
/// hold one. Drivers use this to attribute an undecodable frame (e.g. a
/// codec mismatch) to the right counter — unknown job vs bad payload —
/// and the chaos seam peeks it to scope a schedule to one job.
pub fn frame_job_of(frame: &[u8]) -> Option<u64> {
    let job = frame.get(FRAME_HEADER + HEADER..FRAME_HEADER + HEADER + 8)?;
    Some(u64::from_le_bytes(job.try_into().expect("8 bytes")))
}

/// Peeks the claimed sender of a framed party-bearing message without
/// decoding it: selection notices, local updates, heartbeats and aborts
/// all carry their party at the same fixed offset
/// (`dest ‖ magic ‖ tag ‖ job ‖ round ‖ party`). Returns `None` for
/// global models (which carry no party) and for frames too short to
/// hold the field. The guard plane uses this to attribute an
/// *undecodable* frame (corrupt payload, codec mismatch) to the sender
/// its header claims — the claim is untrusted, which is exactly why it
/// feeds a circuit breaker rather than any round state.
pub fn frame_party_of(frame: &[u8]) -> Option<u64> {
    let tag = *frame.get(FRAME_HEADER + 4)?;
    if !matches!(tag, TAG_NOTICE | TAG_UPDATE | TAG_HEARTBEAT | TAG_ABORT) {
        return None;
    }
    let off = FRAME_HEADER + HEADER + 16;
    let party = frame.get(off..off + 8)?;
    Some(u64::from_le_bytes(party.try_into().expect("8 bytes")))
}

/// Peeks the `(job, round)` of a framed `GlobalModel` without decoding
/// it — decoding may advance the receiver's delta reference. Returns
/// `None` for every other frame. The party pool uses this to decide
/// whether a model may join its training batch.
pub(crate) fn frame_model_of(frame: &[u8]) -> Option<(u64, u64)> {
    if frame.get(FRAME_HEADER + 4) != Some(&TAG_GLOBAL) {
        return None;
    }
    let round = frame.get(FRAME_HEADER + HEADER + 8..FRAME_HEADER + HEADER + 16)?;
    Some((frame_job_of(frame)?, u64::from_le_bytes(round.try_into().expect("8 bytes"))))
}

/// Peeks whether a framed message is a selection notice.
pub(crate) fn frame_is_notice(frame: &[u8]) -> bool {
    frame.get(FRAME_HEADER + 4) == Some(&TAG_NOTICE)
}

/// Peeks whether a framed message is a party's local update — the one
/// frame kind whose delivery order within a round is provably
/// irrelevant (accepted updates are re-sorted by party id at round
/// close). [`crate::chaos`] scopes its delay action to these frames:
/// reordering a *control* frame can push a heartbeat past its round's
/// eager close, which legitimately changes observed byte accounting.
pub fn frame_is_update(frame: &[u8]) -> bool {
    frame.get(FRAME_HEADER + 4) == Some(&TAG_UPDATE)
}

/// Peeks the destination of a transport frame (the first header field):
/// a party id on the downlink, [`AGGREGATOR_DEST`] on the uplink.
/// Returns `None` for frames too short to hold one.
pub fn frame_dest(frame: &[u8]) -> Option<u64> {
    let dest = frame.get(..FRAME_HEADER)?;
    Some(u64::from_le_bytes(dest.try_into().expect("8 bytes")))
}

/// Splits a transport frame into its destination and decoded message
/// (raw payload codec; the multiplexed drivers use [`deframe_with`]).
///
/// # Errors
///
/// Returns [`FlError::Codec`] on a frame too short for its header or on
/// any payload the message decoder rejects.
pub fn deframe(frame: Bytes) -> Result<(u64, WireMessage), FlError> {
    let mut map = CodecMap::new(Role::Receiver);
    deframe_with(frame, &mut map)
}

/// Splits a transport frame into its destination and decoded message,
/// resolving model payloads through the per-job codec state in `codecs`.
///
/// # Errors
///
/// As [`WireMessage::decode_with`], plus [`FlError::Codec`] on a frame
/// shorter than its header.
pub fn deframe_with(
    mut frame: Bytes,
    codecs: &mut CodecMap,
) -> Result<(u64, WireMessage), FlError> {
    let dest = Reader::new(frame.as_slice(), "frame header").u64()?;
    let _ = frame.split_to(FRAME_HEADER);
    Ok((dest, WireMessage::decode_with(frame, codecs)?))
}

/// [`deframe_with`] against a read-only map, in a caller's scratch: the
/// same result, from any thread — except for a global model, whose
/// decode may move its receiver's reference ([`FlError::Codec`]).
///
/// # Errors
///
/// As [`deframe_with`].
pub(crate) fn deframe_update(
    mut frame: Bytes,
    codecs: &CodecMap,
    scratch: &mut CodecScratch,
) -> Result<(u64, WireMessage), FlError> {
    let dest = Reader::new(frame.as_slice(), "frame header").u64()?;
    let _ = frame.split_to(FRAME_HEADER);
    Ok((dest, WireMessage::decode_from(frame, Payloads::Shared(codecs, scratch))?))
}

/// Wire size of one selection notice whose codec announcement is a bare
/// tag byte (every codec except [`ModelCodec::TopK`], whose notices add
/// a u32 `k` — use [`WireMessage::wire_size`] on a built notice for the
/// general answer).
pub fn selection_notice_bytes() -> usize {
    HEADER + 8 * 3 + 1
}

/// Raw-codec wire size of one global-model broadcast for a model of
/// `num_params` parameters (for communication accounting without
/// building messages).
pub fn global_model_bytes(num_params: usize) -> usize {
    HEADER + 8 * 2 + PARAMS_HEAD + num_params * 4
}

/// Raw-codec wire size of one local update for a model of `num_params`
/// parameters.
pub fn local_update_bytes(num_params: usize) -> usize {
    HEADER + 8 * 3 + 8 + 8 + 8 + PARAMS_HEAD + num_params * 4
}

/// Wire size of one heartbeat.
pub fn heartbeat_bytes() -> usize {
    HEADER + 8 * 3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_update() -> WireMessage {
        WireMessage::LocalUpdate {
            job: 99,
            round: 12,
            party: 7,
            num_samples: 250,
            mean_loss: 0.42,
            duration: 1.5,
            params: vec![1.0, -2.5, 3.25, 0.0],
        }
    }

    fn sample_partial() -> WireMessage {
        let mut sum = crate::aggtree::ExactWeightedSum::new(3);
        sum.fold(&[1.0, -2.0, 0.5], 10).unwrap();
        sum.fold(&[0.25, 4.0, -1.5], 30).unwrap();
        WireMessage::PartialUpdate {
            job: 99,
            round: 12,
            total_weight: sum.total_weight(),
            entries: vec![
                PartialEntry {
                    party: 3,
                    num_samples: 10,
                    mean_loss: 0.5,
                    duration: 1.0,
                    sketch: vec![0.125, -0.5],
                },
                PartialEntry {
                    party: 8,
                    num_samples: 30,
                    mean_loss: 0.25,
                    duration: 2.0,
                    sketch: Vec::new(),
                },
            ],
            dim: 3,
            limbs: sum.raw_limbs(),
        }
    }

    fn one_of_each() -> [WireMessage; 6] {
        [
            WireMessage::SelectionNotice {
                job: 1,
                round: 2,
                party: 3,
                codec: ModelCodec::DeltaLossless,
            },
            WireMessage::GlobalModel { job: 1, round: 2, params: vec![0.5; 10].into() },
            sample_update(),
            sample_partial(),
            WireMessage::Heartbeat { job: 1, round: 2, party: 3 },
            WireMessage::Abort { job: 1, round: 2, party: 3, reason: "deadline".into() },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in one_of_each() {
            assert_eq!(WireMessage::decode(msg.encode()).unwrap(), msg, "{msg:?}");
        }
    }

    /// The parent commit's frames, one per variant: a field moved in
    /// both the encoder and the decoder still fails here.
    #[test]
    fn one_of_each_holds_its_golden_frame() {
        let golden: [&str; 6] = [
            "050000000000000002501ff10301000000000000000200000000000000030000000000000001",
            concat!(
                "050000000000000002501ff10101000000000000000200000000000000000a000000000000000000",
                "003f0000003f0000003f0000003f0000003f0000003f0000003f0000003f0000003f0000003f",
            ),
            concat!(
                "050000000000000002501ff10263000000000000000c000000000000000700000000000000fa0000",
                "0000000000e17a14ae47e1da3f000000000000f83f0004000000000000000000803f000020c00000",
                "504000000000",
            ),
            concat!(
                "050000000000000002501ff10663000000000000000c000000000000002800000000000000020000",
                "0003000000000000000a00000000000000000000000000e03f000000000000f03f02000000000000",
                "3e000000bf08000000000000001e00000000000000000000000000d03f0000000000000040000000",
                "00030000000000000000000000000000000000000000008011000000000000000000000000000000",
                "00000000000000000000000000000000640000000000000000000000000000000000000000000000",
                "0000000000000000d8ffffffffffffffffffffffff",
            ),
            "050000000000000002501ff104010000000000000002000000000000000300000000000000",
            concat!(
                "050000000000000002501ff105010000000000000002000000000000000300000000000000080000",
                "00646561646c696e65",
            ),
        ];
        for (msg, want) in one_of_each().iter().zip(golden) {
            let hex: String = frame(5, msg).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "{msg:?}");
        }
    }

    #[test]
    fn wire_size_matches_encoding() {
        let mut msgs = one_of_each().to_vec();
        msgs.push(WireMessage::GlobalModel { job: 0, round: 9, params: Vec::new().into() });
        msgs.push(WireMessage::Abort { job: 0, round: 0, party: 0, reason: String::new() });
        for msg in msgs {
            assert_eq!(msg.encode().len(), msg.wire_size(), "{msg:?}");
        }
    }

    #[test]
    fn size_helpers_match_messages() {
        let msg = WireMessage::GlobalModel { job: 4, round: 0, params: vec![0.0; 17].into() };
        assert_eq!(global_model_bytes(17), msg.wire_size());
        assert_eq!(local_update_bytes(4), sample_update().wire_size());
        let msg =
            WireMessage::SelectionNotice { job: 1, round: 1, party: 1, codec: ModelCodec::Raw };
        assert_eq!(selection_notice_bytes(), msg.wire_size());
        let msg = WireMessage::Heartbeat { job: 1, round: 1, party: 1 };
        assert_eq!(heartbeat_bytes(), msg.wire_size());
    }

    #[test]
    fn notice_codec_survives_the_wire() {
        for codec in [
            ModelCodec::Raw,
            ModelCodec::DeltaLossless,
            ModelCodec::F16,
            ModelCodec::DeltaEntropy,
            ModelCodec::TopK { k: 64 },
        ] {
            let msg = WireMessage::SelectionNotice { job: 1, round: 0, party: 2, codec };
            assert_eq!(msg.encode().len(), msg.wire_size(), "{codec}");
            match WireMessage::decode(msg.encode()).unwrap() {
                WireMessage::SelectionNotice { codec: got, .. } => assert_eq!(got, codec),
                other => panic!("wrong variant {other:?}"),
            }
        }
        // Only top-k widens the notice: its `k` parameter travels.
        let base = WireMessage::SelectionNotice {
            job: 1,
            round: 0,
            party: 2,
            codec: ModelCodec::DeltaEntropy,
        };
        let topk = WireMessage::SelectionNotice {
            job: 1,
            round: 0,
            party: 2,
            codec: ModelCodec::TopK { k: 64 },
        };
        assert_eq!(base.wire_size(), selection_notice_bytes());
        assert_eq!(topk.wire_size(), selection_notice_bytes() + 4);
    }

    #[test]
    fn notice_with_corrupt_codec_tag_is_rejected() {
        let msg =
            WireMessage::SelectionNotice { job: 1, round: 0, party: 2, codec: ModelCodec::Raw };
        let mut bytes = msg.encode().to_vec();
        let n = bytes.len();
        bytes[n - 1] = 0x5A;
        assert!(matches!(WireMessage::decode(Bytes::from(bytes)), Err(FlError::CodecMismatch(_))));
    }

    #[test]
    fn non_raw_payload_needs_negotiated_context() {
        // A delta-encoded model frame cannot decode through the
        // raw-compatibility path — it must surface as a codec mismatch,
        // not as garbage parameters.
        let msg = WireMessage::GlobalModel { job: 7, round: 0, params: vec![1.0; 8].into() };
        let mut codec = PayloadCodec::new(ModelCodec::DeltaLossless, Role::Sender);
        let mut buf = BytesMut::new();
        msg.encode_into(&mut codec, &mut buf);
        assert!(matches!(WireMessage::decode(buf.freeze()), Err(FlError::CodecMismatch(_))));
    }

    #[test]
    fn negotiated_delta_wire_round_trips_bit_exactly() {
        let mut tx = CodecMap::new(Role::Sender);
        let mut rx = CodecMap::new(Role::Receiver);
        tx.register(7, ModelCodec::DeltaLossless);
        rx.register(7, ModelCodec::DeltaLossless);
        let r0 = WireMessage::GlobalModel {
            job: 7,
            round: 0,
            params: vec![1.0, f32::NAN, -0.0, 3.5].into(),
        };
        let r1 = WireMessage::GlobalModel {
            job: 7,
            round: 1,
            params: vec![1.0625, f32::NAN, 0.0, 3.4375].into(),
        };
        for msg in [&r0, &r1] {
            let mut buf = BytesMut::new();
            frame_into(5, msg, tx.for_job(7), &mut buf);
            let (dest, decoded) = deframe_with(buf.freeze(), &mut rx).unwrap();
            assert_eq!(dest, 5);
            let (
                WireMessage::GlobalModel { params: want, .. },
                WireMessage::GlobalModel { params: got, .. },
            ) = (msg, &decoded)
            else {
                panic!("wrong variant {decoded:?}")
            };
            let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(want, got);
        }
    }

    #[test]
    fn job_and_round_accessors_cover_every_variant() {
        for msg in one_of_each() {
            assert_eq!(msg.job(), msg.clone().job());
            assert!(msg.round() <= 12);
        }
        assert_eq!(sample_update().job(), 99);
        assert_eq!(sample_update().round(), 12);
    }

    #[test]
    fn frame_party_peek_covers_party_bearing_variants() {
        for msg in one_of_each() {
            let framed = frame(1, &msg);
            let expected = match &msg {
                WireMessage::GlobalModel { .. } | WireMessage::PartialUpdate { .. } => None,
                WireMessage::SelectionNotice { party, .. }
                | WireMessage::LocalUpdate { party, .. }
                | WireMessage::Heartbeat { party, .. }
                | WireMessage::Abort { party, .. } => Some(*party),
            };
            assert_eq!(frame_party_of(framed.as_slice()), expected, "{msg:?}");
        }
        assert_eq!(frame_party_of(&[0u8; 5]), None, "too short for a tag");
        assert_eq!(frame_party_of(&[0u8; 20]), None, "unknown tag");
    }

    #[test]
    fn update_statistics_survive_exactly() {
        // f64 on the wire: the coordinator's aggregation sees bit-exact
        // loss/duration, so an in-process protocol round trip cannot
        // perturb the job history.
        let loss = 0.1f64 + 0.2;
        let duration = 1.0 / 3.0;
        let msg = WireMessage::LocalUpdate {
            job: 1,
            round: 1,
            party: 1,
            num_samples: 10,
            mean_loss: loss,
            duration,
            params: vec![],
        };
        match WireMessage::decode(msg.encode()).unwrap() {
            WireMessage::LocalUpdate { mean_loss, duration: d, .. } => {
                assert_eq!(mean_loss.to_bits(), loss.to_bits());
                assert_eq!(d.to_bits(), duration.to_bits());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn tag_corruption_cannot_reparse_payload_bearing_messages() {
        // The decoder rejects trailing bytes, so a flipped tag cannot
        // silently re-parse a params-carrying message as a shorter
        // fixed-size variant (e.g. LocalUpdate → SelectionNotice).
        let payload_bearing = [
            sample_update(),
            WireMessage::GlobalModel { job: 1, round: 2, params: vec![1.0; 8].into() },
        ];
        for msg in payload_bearing {
            let bytes = msg.encode().to_vec();
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[4] ^= 1 << bit;
                assert!(
                    WireMessage::decode(Bytes::from(corrupted)).is_err(),
                    "{msg:?} decoded with tag bit {bit} flipped"
                );
            }
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        for msg in one_of_each() {
            let mut bytes = msg.encode().to_vec();
            bytes.push(0);
            assert!(
                WireMessage::decode(Bytes::from(bytes)).is_err(),
                "{msg:?} decoded with a trailing byte"
            );
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample_update().encode().to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(WireMessage::decode(Bytes::from(bytes)), Err(FlError::Codec(_))));
    }

    #[test]
    fn rejects_unknown_tag() {
        let mut bytes = sample_update().encode().to_vec();
        bytes[4] = 99;
        assert!(WireMessage::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        for msg in one_of_each() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let truncated = bytes.slice(0..cut);
                assert!(
                    WireMessage::decode(truncated).is_err(),
                    "decode succeeded on {cut}-byte prefix of {msg:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_hostile_length_prefix_without_allocation() {
        // A params count of u64::MAX must fail cleanly (no overflow, no
        // attempted 64 EiB allocation).
        let mut bytes = WireMessage::GlobalModel { job: 1, round: 1, params: Vec::new().into() }
            .encode()
            .to_vec();
        let len_off = bytes.len() - 8;
        bytes[len_off..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(WireMessage::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn rejects_non_utf8_abort_reason() {
        let mut bytes = WireMessage::Abort { job: 1, round: 1, party: 1, reason: "xx".into() }
            .encode()
            .to_vec();
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        bytes[n - 2] = 0xFE;
        assert!(WireMessage::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn empty_params_are_legal() {
        let msg = WireMessage::GlobalModel { job: 0, round: 1, params: Vec::new().into() };
        assert_eq!(WireMessage::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn frame_into_reuses_the_scratch_without_reallocating() {
        // The zero-copy contract on the hot path: after the first
        // (warm-up) frame, re-framing messages of the same shape moves
        // neither the scratch buffer nor its capacity.
        let mut codec = PayloadCodec::new(ModelCodec::Raw, Role::Sender);
        let mut scratch = BytesMut::new();
        let msg = WireMessage::GlobalModel { job: 3, round: 0, params: vec![0.5; 4096].into() };
        frame_into(1, &msg, &mut codec, &mut scratch);
        let cap = scratch.capacity();
        let ptr = scratch.as_slice().as_ptr();
        for round in 1..5u64 {
            let msg = WireMessage::GlobalModel { job: 3, round, params: vec![0.25; 4096].into() };
            frame_into(1, &msg, &mut codec, &mut scratch);
            assert_eq!(scratch.capacity(), cap, "scratch grew on a same-shape message");
            assert_eq!(scratch.as_slice().as_ptr(), ptr, "scratch moved");
            assert_eq!(scratch.len(), FRAME_HEADER + msg.wire_size());
        }
    }
}
