//! Property tests of the checkpoint wire format.
//!
//! The format is the crash-recovery trust boundary: whatever coordinator
//! state exists in memory must survive `encode → decode` bit-exactly
//! (mid-drain drivers, open breakers, partial admission budgets, NaN
//! accuracies, delta references — all of it), and *no* corrupt or
//! truncated byte string may decode into anything, panic included.

use flips_fl::driver::DriverStats;
use flips_fl::guard::{BreakerState, BreakerTransition, GuardState, JobGuard, PartyGuard};
use flips_fl::history::RoundRecord;
use flips_fl::{Checkpoint, CodecRefSnapshot, JobSnapshot};
use flips_selection::{PartyId, RoundFeedback};
use proptest::collection::vec;
use proptest::prelude::*;

fn any_u64() -> impl Strategy<Value = u64> {
    0u64..=u64::MAX
}

fn any_u32() -> impl Strategy<Value = u32> {
    0u32..=u32::MAX
}

fn any_bool() -> impl Strategy<Value = bool> {
    (0u64..2).prop_map(|b| b == 1)
}

/// `Option<V>` off a coin flip (the shim has no `proptest::option`).
fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u64..2, s).prop_map(|(tag, v)| if tag == 1 { Some(v) } else { None })
}

/// Any f32 bit pattern, NaNs and subnormals included.
fn any_f32() -> impl Strategy<Value = f32> {
    any_u32().prop_map(f32::from_bits)
}

/// Any f64 bit pattern (arbitrary NaN payloads included).
fn any_f64() -> impl Strategy<Value = f64> {
    any_u64().prop_map(f64::from_bits)
}

fn f32_vec() -> impl Strategy<Value = Vec<f32>> {
    vec(any_f32(), 0..24)
}

fn party_vec() -> impl Strategy<Value = Vec<PartyId>> {
    vec(0usize..16, 0..8)
}

fn round_record() -> impl Strategy<Value = RoundRecord> {
    (
        (0usize..64, party_vec(), party_vec(), party_vec(), any_f64()),
        (vec(opt(any_f64()), 0..6), any_f64(), any_u64(), any_u64(), any_f64()),
    )
        .prop_map(
            |(
                (round, selected, completed, stragglers, accuracy),
                (per_label_recall, mean_train_loss, bytes_down, bytes_up, round_duration),
            )| RoundRecord {
                round,
                selected,
                completed,
                stragglers,
                accuracy,
                per_label_recall,
                mean_train_loss,
                bytes_down,
                bytes_up,
                round_duration,
            },
        )
}

fn feedback() -> impl Strategy<Value = RoundFeedback> {
    (
        (0usize..64, party_vec(), party_vec(), party_vec(), any_f64()),
        (
            vec((0usize..16, any_f64()), 0..6),
            vec((0usize..16, any_f64()), 0..6),
            vec((0usize..16, f32_vec()), 0..6),
        ),
    )
        .prop_map(|((round, selected, completed, stragglers, acc), (loss, dur, sketch))| {
            let mut fb = RoundFeedback::for_round(round, selected, completed, stragglers, acc);
            fb.train_loss = loss.into_iter().collect();
            fb.duration = dur.into_iter().collect();
            fb.update_sketch = sketch.into_iter().collect();
            fb
        })
}

fn job_snapshot() -> impl Strategy<Value = JobSnapshot> {
    (
        (any_u64(), f32_vec(), f32_vec(), vec(any_bool(), 0..16)),
        (
            vec(round_record(), 0..3),
            vec(feedback(), 0..3),
            opt((vec(any_f64(), 0..12), vec(0usize..64, 0..6))),
        ),
    )
        .prop_map(|((job, global, optimizer, active), (history, feedback, observed))| {
            JobSnapshot { job, global, optimizer, active, history, feedback, observed }
        })
}

fn breaker_state() -> impl Strategy<Value = BreakerState> {
    (0u64..3).prop_map(|tag| match tag {
        0 => BreakerState::Closed,
        1 => BreakerState::Open,
        _ => BreakerState::HalfOpen,
    })
}

/// Keys repeat freely in the drawn vectors; collecting them into the
/// state's maps keeps the last value per key.
fn guard_state() -> impl Strategy<Value = GuardState> {
    (
        vec(
            ((any_u64(), 0u64..16, breaker_state()), (any_u32(), any_u64(), opt(any_u32())))
                .prop_map(|((job, party, state), (strikes, opens_left, tokens))| {
                    ((job, party), PartyGuard { state, strikes, opens_left, tokens })
                }),
            0..5,
        ),
        vec(
            (any_u64(), any_u32(), opt(any_u32()), any_u64()).prop_map(
                |(job, admitted, budget, opens)| (job, JobGuard { admitted, budget, opens }),
            ),
            0..4,
        ),
        vec(
            (any_u64(), 0u64..16, any_u64(), breaker_state()).prop_map(
                |(job, party, open_index, to)| BreakerTransition { job, party, open_index, to },
            ),
            0..4,
        ),
    )
        .prop_map(|(parties, jobs, transitions)| GuardState {
            parties: parties.into_iter().collect(),
            jobs: jobs.into_iter().collect(),
            transitions,
        })
}

/// The persisted counters drawn at random; the two roster counters are
/// live gauges of attached stores — the snapshot codec neither writes
/// nor restores them, so the round-trip property holds only at their
/// reset value.
fn stats() -> impl Strategy<Value = DriverStats> {
    vec(any_u64(), DriverStats::PERSISTED).prop_map(|words| {
        let mut stats = DriverStats::default();
        for (c, w) in DriverStats::COUNTERS.iter().zip(words) {
            *(c.word)(&mut stats) = w;
        }
        stats
    })
}

fn checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        (any_u64(), any_bool(), stats()),
        (
            vec(job_snapshot(), 0..3),
            opt(guard_state()),
            vec(
                (any_u32(), any_u64(), any_u64(), f32_vec()).prop_map(
                    |(link, job, ref_round, params)| CodecRefSnapshot {
                        link,
                        job,
                        ref_round,
                        params,
                    },
                ),
                0..4,
            ),
        ),
    )
        .prop_map(|((tick, draining, stats), (jobs, guard, codec_refs))| Checkpoint {
            tick,
            draining,
            stats,
            jobs,
            guard,
            codec_refs,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary coordinator states — NaN metrics, open breakers,
    /// half-spent budgets, empty and populated tapes — round-trip
    /// through the versioned wire format to the exact canonical bytes.
    /// (f32/f64 NaNs break `PartialEq`, so equality is judged on the
    /// canonical encoding, like the format's own unit tests do.)
    #[test]
    fn encode_decode_round_trips_arbitrary_states(cp in checkpoint()) {
        let bytes = cp.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        prop_assert_eq!(bytes, back.encode());
    }

    /// Every strict prefix of a valid snapshot is rejected with a clean
    /// error — never a panic, never a partial value.
    #[test]
    fn every_truncation_is_rejected(cp in checkpoint(), frac in 0.0f64..1.0) {
        let bytes = cp.encode();
        let cut = ((bytes.len() as f64) * frac) as usize; // always < len
        prop_assert!(Checkpoint::decode(&bytes[..cut]).is_err());
    }

    /// A single corrupted byte anywhere — header, checksum or payload —
    /// fails the load cleanly.
    #[test]
    fn any_single_byte_corruption_is_rejected(
        cp in checkpoint(),
        pos in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = cp.encode();
        let i = ((bytes.len() as f64) * pos) as usize;
        bytes[i] ^= flip;
        prop_assert!(Checkpoint::decode(&bytes).is_err());
    }

    /// Trailing garbage after a well-formed snapshot is rejected — the
    /// format owns the whole file.
    #[test]
    fn trailing_garbage_is_rejected(cp in checkpoint(), tail in vec(0u8..=255, 1..16)) {
        let mut bytes = cp.encode();
        bytes.extend_from_slice(&tail);
        prop_assert!(Checkpoint::decode(&bytes).is_err());
    }
}
