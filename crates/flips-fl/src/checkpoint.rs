//! Versioned on-disk snapshots of the coordinator plane.
//!
//! A [`Checkpoint`] captures everything the aggregator side needs to
//! resume from a round boundary bit-identically: per-job protocol state
//! (global model, optimizer words, availability mask, the history and
//! selector-feedback tapes), the driver's wire counters and virtual
//! tick, the guard plane's breakers/budgets, and every per-link delta
//! reference so re-keyed codecs emit the exact byte streams the
//! uninterrupted run would have.
//!
//! The codec is deliberately boring and hostile-input-proof:
//!
//! - **Versioned**: a 4-byte magic (`FLCK`) and a `u32` format version
//!   lead the file; unknown versions are rejected, never guessed at.
//! - **Checksummed**: the format layer's envelope ([`crate::format`])
//!   puts a 64-bit digest after the version; a flipped bit anywhere
//!   fails the load before any field is interpreted. Version 2 (a word
//!   digest) is written, version 1 (FNV-1a-64) still opens.
//! - **Panic-free**: decoding runs on the format layer's bounded
//!   [`Reader`] — truncation, hostile lengths, bad enum tags and
//!   trailing garbage all surface as [`FlError::Codec`], and a failed
//!   decode returns nothing partial (the only output is a
//!   fully-validated [`Checkpoint`] value).
//!
//! Serialization is sans-IO like the rest of this crate: encode/decode
//! work on byte slices, and only `flips-net` touches the filesystem
//! (atomically, via tmp-file + rename).

use crate::driver::DriverStats;
use crate::format::{put_bool, put_f32s, put_map, put_option, put_vec, seal, unseal, Reader};
use crate::guard::{BreakerState, BreakerTransition, GuardState, JobGuard, PartyGuard};
use crate::history::RoundRecord;
use crate::FlError;
use bytes::BufMut;
use flips_selection::{PartyId, RoundFeedback};

/// File magic: "FLCK" (FLIPS checkpoint).
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"FLCK";
/// Current format version (1 differs in the envelope's digest alone).
pub const CHECKPOINT_VERSION: u32 = crate::format::ENVELOPE_VERSION;

/// One link's delta-codec reference at the snapshot boundary: what the
/// sender must re-key to so the next encoded global is byte-identical
/// to the uninterrupted run's.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecRefSnapshot {
    /// The link (party wire) the reference belongs to.
    pub link: u32,
    /// The job multiplexed on that link.
    pub job: u64,
    /// The round the reference was committed at.
    pub ref_round: u64,
    /// The reference bits (for top-k, the lossy reconstruction).
    pub params: Vec<f32>,
}

/// One job's complete protocol state at a round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSnapshot {
    /// The job id.
    pub job: u64,
    /// The global model after the last closed round.
    pub global: Vec<f32>,
    /// The server optimizer's persistent words (empty for
    /// FedAvg/FedProx).
    pub optimizer: Vec<f32>,
    /// The roster availability mask (churn state).
    pub active: Vec<bool>,
    /// Closed-round records, in order.
    pub history: Vec<RoundRecord>,
    /// The selector feedback tape, one entry per closed round — replayed
    /// at restore to rebuild selector state deterministically.
    pub feedback: Vec<RoundFeedback>,
    /// The observed-latency store `(samples, batch boundaries)` for jobs
    /// on the observed deadline path; `None` for injected clocks.
    pub observed: Option<(Vec<f64>, Vec<usize>)>,
}

/// A complete coordinator-plane snapshot at a round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The driver's virtual tick.
    pub tick: u64,
    /// Whether the driver was draining.
    pub draining: bool,
    /// Wire counters at the boundary (restored so post-resume totals
    /// equal the uninterrupted run's, encoded byte counts included).
    pub stats: DriverStats,
    /// Per-job protocol state, ascending by job id.
    pub jobs: Vec<JobSnapshot>,
    /// The guard plane's mutable state, if a guard was installed.
    pub guard: Option<GuardState>,
    /// Per-link delta references, ascending by `(link, job)`.
    pub codec_refs: Vec<CodecRefSnapshot>,
}

// ---------------------------------------------------------------------
// The payload, shape by shape: each writer sits beside its reader, both
// on the format layer (`crate::format`). Encoding is infallible — every
// in-memory state has a representation; decoding never panics and never
// returns anything partial.
// ---------------------------------------------------------------------

fn put_ids(out: &mut Vec<u8>, ids: &[PartyId]) {
    put_vec(out, ids, |out, &p| out.put_u64_le(p as u64));
}

fn ids(r: &mut Reader<'_>) -> Result<Vec<PartyId>, FlError> {
    r.vec(8, Reader::usize)
}

fn put_f32_vec(out: &mut Vec<u8>, v: &[f32]) {
    out.put_u64_le(v.len() as u64);
    put_f32s(out, v);
}

fn f32_vec(r: &mut Reader<'_>) -> Result<Vec<f32>, FlError> {
    let n = r.u64()?;
    Ok(r.f32s(n)?.collect())
}

fn put_record(out: &mut Vec<u8>, rec: &RoundRecord) {
    out.put_u64_le(rec.round as u64);
    put_ids(out, &rec.selected);
    put_ids(out, &rec.completed);
    put_ids(out, &rec.stragglers);
    out.put_f64_le(rec.accuracy);
    put_vec(out, &rec.per_label_recall, |out, &recall| {
        put_option(out, recall, |out, v| out.put_f64_le(v));
    });
    out.put_f64_le(rec.mean_train_loss);
    out.put_u64_le(rec.bytes_down);
    out.put_u64_le(rec.bytes_up);
    out.put_f64_le(rec.round_duration);
}

fn record(r: &mut Reader<'_>) -> Result<RoundRecord, FlError> {
    Ok(RoundRecord {
        round: r.usize()?,
        selected: ids(r)?,
        completed: ids(r)?,
        stragglers: ids(r)?,
        accuracy: r.f64()?,
        per_label_recall: r.vec(1, |r| r.option(Reader::f64))?,
        mean_train_loss: r.f64()?,
        bytes_down: r.u64()?,
        bytes_up: r.u64()?,
        round_duration: r.f64()?,
    })
}

fn put_feedback(out: &mut Vec<u8>, fb: &RoundFeedback) {
    out.put_u64_le(fb.round as u64);
    put_ids(out, &fb.selected);
    put_ids(out, &fb.completed);
    put_ids(out, &fb.stragglers);
    put_map(out, &fb.train_loss, |out, &v| out.put_f64_le(v));
    put_map(out, &fb.duration, |out, &v| out.put_f64_le(v));
    put_map(out, &fb.update_sketch, |out, v| put_f32_vec(out, v));
    out.put_f64_le(fb.global_accuracy);
}

fn feedback(r: &mut Reader<'_>) -> Result<RoundFeedback, FlError> {
    Ok(RoundFeedback {
        round: r.usize()?,
        selected: ids(r)?,
        completed: ids(r)?,
        stragglers: ids(r)?,
        train_loss: r.map(8, Reader::f64)?,
        duration: r.map(8, Reader::f64)?,
        update_sketch: r.map(8, f32_vec)?,
        global_accuracy: r.f64()?,
    })
}

/// Breaker states by wire tag.
const BREAKER_STATES: [BreakerState; 3] =
    [BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen];

fn put_breaker_state(out: &mut Vec<u8>, s: BreakerState) {
    let tag = BREAKER_STATES.iter().position(|&b| b == s).expect("every state has a tag");
    out.put_u8(tag as u8);
}

fn breaker_state(r: &mut Reader<'_>) -> Result<BreakerState, FlError> {
    r.tag("breaker state", |b| BREAKER_STATES.get(usize::from(b)).copied())
}

fn put_guard(out: &mut Vec<u8>, g: &GuardState) {
    out.put_u64_le(g.parties.len() as u64);
    for (&(job, party), p) in &g.parties {
        out.put_u64_le(job);
        out.put_u64_le(party);
        put_breaker_state(out, p.state);
        out.put_u32_le(p.strikes);
        out.put_u64_le(p.opens_left);
        put_option(out, p.tokens, |out, t| out.put_u32_le(t));
    }
    out.put_u64_le(g.jobs.len() as u64);
    for (&job, j) in &g.jobs {
        out.put_u64_le(job);
        out.put_u32_le(j.admitted);
        put_option(out, j.budget, |out, b| out.put_u32_le(b));
        out.put_u64_le(j.opens);
    }
    put_vec(out, &g.transitions, |out, t| {
        out.put_u64_le(t.job);
        out.put_u64_le(t.party);
        out.put_u64_le(t.open_index);
        put_breaker_state(out, t.to);
    });
}

fn guard(r: &mut Reader<'_>) -> Result<GuardState, FlError> {
    let mut state = GuardState::default();
    for _ in 0..r.len(1)? {
        let key = (r.u64()?, r.u64()?);
        let party = PartyGuard {
            state: breaker_state(r)?,
            strikes: r.u32()?,
            opens_left: r.u64()?,
            tokens: r.option(Reader::u32)?,
        };
        if state.parties.insert(key, party).is_some() {
            return Err(r.bad(format_args!("guard state repeats party {key:?}")));
        }
    }
    for _ in 0..r.len(1)? {
        let job = r.u64()?;
        let guard =
            JobGuard { admitted: r.u32()?, budget: r.option(Reader::u32)?, opens: r.u64()? };
        if state.jobs.insert(job, guard).is_some() {
            return Err(r.bad(format_args!("guard state repeats job {job:#x}")));
        }
    }
    state.transitions = r.vec(25, |r| {
        Ok(BreakerTransition {
            job: r.u64()?,
            party: r.u64()?,
            open_index: r.u64()?,
            to: breaker_state(r)?,
        })
    })?;
    Ok(state)
}

fn put_job(out: &mut Vec<u8>, job: &JobSnapshot) {
    out.put_u64_le(job.job);
    put_f32_vec(out, &job.global);
    put_f32_vec(out, &job.optimizer);
    put_vec(out, &job.active, |out, &a| put_bool(out, a));
    put_vec(out, &job.history, put_record);
    put_vec(out, &job.feedback, put_feedback);
    put_option(out, job.observed.as_ref(), |out, (samples, batches)| {
        put_vec(out, samples, |out, &s| out.put_f64_le(s));
        put_ids(out, batches);
    });
}

fn job(r: &mut Reader<'_>) -> Result<JobSnapshot, FlError> {
    Ok(JobSnapshot {
        job: r.u64()?,
        global: f32_vec(r)?,
        optimizer: f32_vec(r)?,
        active: r.vec(1, Reader::bool)?,
        history: r.vec(1, record)?,
        feedback: r.vec(1, feedback)?,
        observed: r.option(|r| Ok((r.vec(8, Reader::f64)?, ids(r)?)))?,
    })
}

impl Checkpoint {
    /// Serializes the snapshot: header (magic, version, checksum) then
    /// the canonical payload.
    pub fn encode(&self) -> Vec<u8> {
        seal(CHECKPOINT_MAGIC, |out| {
            out.put_u64_le(self.tick);
            put_bool(out, self.draining);
            let mut stats = self.stats;
            for c in &DriverStats::COUNTERS[..DriverStats::PERSISTED] {
                out.put_u64_le(*(c.word)(&mut stats));
            }
            put_vec(out, &self.jobs, put_job);
            put_option(out, self.guard.as_ref(), put_guard);
            put_vec(out, &self.codec_refs, |out, r| {
                out.put_u32_le(r.link);
                out.put_u64_le(r.job);
                out.put_u64_le(r.ref_round);
                put_f32_vec(out, &r.params);
            });
        })
    }

    /// Deserializes a snapshot, validating magic, version, checksum and
    /// every field — the function either returns a complete, internally
    /// consistent [`Checkpoint`] or an error, never anything partial,
    /// and never panics on hostile input.
    ///
    /// # Errors
    ///
    /// [`FlError::Codec`] on any malformation: wrong magic, unknown
    /// version, checksum mismatch, truncation, impossible lengths, bad
    /// enum/option/bool tags, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, FlError> {
        let payload = unseal(bytes, CHECKPOINT_MAGIC, "checkpoint")?;
        let mut r = Reader::new(payload, "checkpoint");
        let tick = r.u64()?;
        let draining = r.bool()?;
        let mut stats = DriverStats::default();
        for c in &DriverStats::COUNTERS[..DriverStats::PERSISTED] {
            *(c.word)(&mut stats) = r.u64()?;
        }
        let checkpoint = Checkpoint {
            tick,
            draining,
            stats,
            jobs: r.vec(1, job)?,
            guard: r.option(guard)?,
            codec_refs: r.vec(24, |r| {
                Ok(CodecRefSnapshot {
                    link: r.u32()?,
                    job: r.u64()?,
                    ref_round: r.u64()?,
                    params: f32_vec(r)?,
                })
            })?,
        };
        r.finish()?;
        Ok(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample() -> Checkpoint {
        let mut fb = RoundFeedback::for_round(0, vec![2, 0, 1], vec![0, 2], vec![1], 0.5);
        fb.train_loss.insert(0, 1.25);
        fb.train_loss.insert(2, 0.75);
        fb.duration.insert(0, 3.0);
        fb.duration.insert(2, 4.5);
        fb.update_sketch.insert(0, vec![1.0, -2.0]);
        fb.update_sketch.insert(2, vec![f32::NAN, 0.0]);
        Checkpoint {
            tick: 42,
            draining: true,
            stats: DriverStats {
                frames_sent: 10,
                bytes_sent: 999,
                links_lost: 2,
                links_resumed: 1,
                ..DriverStats::default()
            },
            jobs: vec![JobSnapshot {
                job: 0xF11F,
                global: vec![0.5, -0.25, f32::INFINITY],
                optimizer: vec![1.0, 2.0],
                active: vec![true, false, true],
                history: vec![RoundRecord {
                    round: 0,
                    selected: vec![2, 0, 1],
                    completed: vec![0, 2],
                    stragglers: vec![1],
                    accuracy: 0.5,
                    per_label_recall: vec![Some(0.25), None, Some(1.0)],
                    mean_train_loss: 1.0,
                    bytes_down: 100,
                    bytes_up: 50,
                    round_duration: 2.5,
                }],
                feedback: vec![fb],
                observed: Some((vec![0.1, 0.2], vec![2])),
            }],
            guard: Some(GuardState {
                parties: BTreeMap::from([(
                    (0xF11F, 1),
                    PartyGuard {
                        state: BreakerState::Open,
                        strikes: 3,
                        opens_left: 2,
                        tokens: Some(7),
                    },
                )]),
                jobs: BTreeMap::from([(
                    0xF11F,
                    JobGuard { admitted: 5, budget: Some(48), opens: 1 },
                )]),
                transitions: vec![BreakerTransition {
                    job: 0xF11F,
                    party: 1,
                    open_index: 1,
                    to: BreakerState::Open,
                }],
            }),
            codec_refs: vec![CodecRefSnapshot {
                link: 1,
                job: 0xF11F,
                ref_round: 0,
                params: vec![0.5, -0.25, f32::INFINITY],
            }],
        }
    }

    /// f32 NaNs break PartialEq; compare snapshots through their
    /// canonical encodings instead.
    fn assert_same(a: &Checkpoint, b: &Checkpoint) {
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn round_trips_a_representative_snapshot() {
        let cp = sample();
        let bytes = cp.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_same(&cp, &back);
        assert_eq!(back.stats.links_lost, 2);
        assert_eq!(back.jobs[0].observed, Some((vec![0.1, 0.2], vec![2])));
    }

    /// The header digest (bytes 8..16) covers the header word, the
    /// length and every payload byte, so length + one `u64` pin the whole
    /// image — a field moved in both the writer and the reader still
    /// fails here.
    #[test]
    fn sample_snapshot_holds_its_golden_bytes() {
        let bytes = sample().encode();
        assert_eq!(&bytes[..8], b"FLCK\x02\0\0\0");
        let checksum = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        assert_eq!((bytes.len(), checksum), (809, 2_938_713_306_171_909_841));
    }

    /// The same snapshot as the parent commit's encoder wrote it —
    /// version 1, its length and FNV-1a checksum the ones that commit's
    /// golden test pinned — committed as a file: a `checkpoint.bin` from
    /// before the upgrade still restores, to the same values.
    #[test]
    fn version_1_snapshot_fixture_still_decodes_and_re_encodes_as_version_2() {
        let v1: &[u8] = include_bytes!("../tests/fixtures/sample.v1.flck");
        assert_eq!(&v1[..8], b"FLCK\x01\0\0\0");
        let checksum = u64::from_le_bytes(v1[8..16].try_into().unwrap());
        assert_eq!((v1.len(), checksum), (809, 10_123_825_977_314_528_017));
        let v2 = Checkpoint::decode(v1).unwrap().encode();
        assert_eq!(v2, sample().encode());
        assert_eq!(v2[16..], v1[16..], "versions differ in the header alone");
    }

    #[test]
    fn every_truncation_is_rejected_without_panicking() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().encode();
        // The header's checksum protects the payload; flips inside the
        // header itself break magic/version/checksum directly.
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x01;
            assert!(Checkpoint::decode(&evil).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        // The checksum already catches the altered payload slice.
        assert!(Checkpoint::decode(&bytes).is_err());
    }

    #[test]
    fn foreign_magic_and_future_versions_are_refused() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(Checkpoint::decode(&bytes).is_err());
        let mut bytes = sample().encode();
        bytes[4] = 0xFF;
        assert!(Checkpoint::decode(&bytes).is_err());
    }

    /// `guard` as the one state of an otherwise empty checkpoint, with
    /// byte `at` of the guard section (which starts after the tick, the
    /// draining flag, the counters, the empty job list and the option
    /// tag) set to `to`.
    fn guard_with_byte(guard: GuardState, at: usize, to: u8) -> Vec<u8> {
        let cp = Checkpoint {
            tick: 0,
            draining: false,
            stats: DriverStats::default(),
            jobs: Vec::new(),
            guard: Some(guard),
            codec_refs: Vec::new(),
        };
        let bytes = cp.encode();
        let mut payload = unseal(&bytes, CHECKPOINT_MAGIC, "checkpoint").unwrap().to_vec();
        payload[8 + 1 + 8 * DriverStats::PERSISTED + 8 + 1 + at] = to;
        seal(CHECKPOINT_MAGIC, |out| out.put_slice(&payload))
    }

    /// A guard section naming one `(job, party)` or one job twice has no
    /// state to restore to — keeping either entry would apply something
    /// other than the file's contents — so it fails the decode.
    #[test]
    fn a_guard_section_repeating_a_key_is_refused() {
        let party = PartyGuard::default();
        let parties = GuardState {
            parties: BTreeMap::from([((7, 1), party.clone()), ((7, 2), party)]),
            ..GuardState::default()
        };
        // Count, then 30-byte entries (job, party, state, strikes,
        // opens_left, an empty bucket): the second entry's party id.
        let at = 8 + 30 + 8;
        assert!(Checkpoint::decode(&guard_with_byte(parties.clone(), at, 2)).is_ok());
        let repeated = Checkpoint::decode(&guard_with_byte(parties, at, 1));
        assert!(matches!(repeated, Err(FlError::Codec(_))), "{repeated:?}");

        let jobs = GuardState {
            jobs: BTreeMap::from([(7, JobGuard::default()), (8, JobGuard::default())]),
            ..GuardState::default()
        };
        // No parties, then the job count and 21-byte entries (job,
        // admitted, no budget, opens): the second entry's job id.
        let at = 8 + 8 + 21;
        assert!(Checkpoint::decode(&guard_with_byte(jobs.clone(), at, 8)).is_ok());
        let repeated = Checkpoint::decode(&guard_with_byte(jobs, at, 7));
        assert!(matches!(repeated, Err(FlError::Codec(_))), "{repeated:?}");
    }

    #[test]
    fn hostile_length_prefixes_cannot_force_allocation() {
        // A payload claiming 2^60 jobs must fail fast on the length
        // guard, not attempt the allocation.
        let mut payload = Vec::new();
        payload.put_u64_le(0); // tick
        payload.push(0); // draining
        for _ in 0..DriverStats::PERSISTED {
            payload.put_u64_le(0);
        }
        payload.put_u64_le(1 << 60); // jobs count
        let bytes = seal(CHECKPOINT_MAGIC, |out| out.put_slice(&payload));
        assert!(Checkpoint::decode(&bytes).is_err());
    }
}
