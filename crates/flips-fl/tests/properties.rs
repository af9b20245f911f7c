//! Property-based tests of the FL runtime: wire-codec round-trips,
//! aggregation invariants, straggler-injection bounds.

use flips_fl::codec::ModelCodec;
use flips_fl::message::WireMessage;
use flips_fl::party::LocalUpdate;
use flips_fl::server::weighted_average;
use flips_fl::straggler::StragglerInjector;
use flips_fl::LatencyModel;
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1e6f32..1e6).prop_map(|x| x)
}

/// A strategy producing one message of every protocol variant.
fn any_message() -> impl Strategy<Value = WireMessage> {
    (
        0u8..5,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..10_000,
        proptest::collection::vec(finite_f32(), 0..64),
        0usize..24,
    )
        .prop_map(|(kind, job, round, party, params, reason_len)| match kind {
            0 => WireMessage::SelectionNotice {
                job,
                round,
                party,
                codec: match party % 3 {
                    0 => ModelCodec::Raw,
                    1 => ModelCodec::DeltaLossless,
                    _ => ModelCodec::F16,
                },
            },
            1 => WireMessage::GlobalModel { job, round, params: params.into() },
            2 => WireMessage::LocalUpdate {
                job,
                round,
                party,
                num_samples: party.wrapping_mul(3) % 100_000,
                mean_loss: params.first().copied().unwrap_or(0.5) as f64,
                duration: (round % 977) as f64 * 0.01,
                params,
            },
            3 => WireMessage::Heartbeat { job, round, party },
            _ => WireMessage::Abort { job, round, party, reason: "x".repeat(reason_len) },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_variant_round_trips_and_sizes_exactly(msg in any_message()) {
        // wire_size() always equals encode().len(), for every variant.
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), msg.wire_size());
        prop_assert_eq!(WireMessage::decode(encoded).unwrap(), msg);
    }

    #[test]
    fn truncated_messages_never_decode(msg in any_message(), frac in 0.0f64..1.0) {
        // Every proper prefix must fail cleanly — no panic, no partial
        // value.
        let bytes = msg.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert!(WireMessage::decode(bytes.slice(0..cut)).is_err());
    }

    #[test]
    fn corrupted_messages_never_panic(
        msg in any_message(),
        flip_byte in 0usize..4096,
        xor in 1u8..=255,
    ) {
        // Flipping any byte either fails decoding or yields another
        // well-formed message (payload bits are not self-describing) —
        // but it must never panic. Magic flips must always fail; a tag
        // flip must fail whenever it changes the frame length (the
        // decoder rejects trailing bytes), i.e. for every message whose
        // variants differ in size. Only fixed-size variants of identical
        // layout (notice/heartbeat, or an empty-params model) can alias
        // under a tag flip — the tag is their sole discriminator.
        let mut bytes = msg.encode().to_vec();
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= xor;
        let result = WireMessage::decode(bytes::Bytes::from(bytes));
        if idx < 4 {
            prop_assert!(result.is_err(), "corrupted magic decoded");
        }
    }

    #[test]
    fn foreign_buffers_never_panic(
        junk in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        // Arbitrary bytes (random length, random content) must never
        // panic the decoder; decoding only succeeds if the buffer
        // happens to start with the protocol magic.
        let result = WireMessage::decode(bytes::Bytes::from(junk.clone()));
        if junk.len() < 5 || junk[..4] != 0xF11F_5002u32.to_le_bytes() {
            prop_assert!(result.is_err());
        }
    }

    #[test]
    fn weighted_average_lies_within_the_convex_hull(
        a in proptest::collection::vec(-100.0f32..100.0, 1..8),
        b_offset in proptest::collection::vec(-100.0f32..100.0, 1..8),
        na in 1usize..1000,
        nb in 1usize..1000,
    ) {
        let n = a.len().min(b_offset.len());
        let a = &a[..n];
        let b: Vec<f32> = a.iter().zip(&b_offset[..n]).map(|(x, o)| x + o).collect();
        let updates = vec![
            LocalUpdate { params: a.to_vec(), num_samples: na, mean_loss: 0.0, duration: 0.0 },
            LocalUpdate { params: b.clone(), num_samples: nb, mean_loss: 0.0, duration: 0.0 },
        ];
        let avg = weighted_average(&updates).unwrap();
        for i in 0..n {
            let lo = a[i].min(b[i]) - 1e-3;
            let hi = a[i].max(b[i]) + 1e-3;
            prop_assert!((lo..=hi).contains(&avg[i]), "coordinate {i} escaped hull");
        }
    }

    #[test]
    fn weighted_average_is_permutation_invariant(
        params in proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, 4),
            2..6,
        ),
    ) {
        let updates: Vec<LocalUpdate> = params
            .iter()
            .enumerate()
            .map(|(i, p)| LocalUpdate {
                params: p.clone(),
                num_samples: i + 1,
                mean_loss: 0.0,
                duration: 0.0,
            })
            .collect();
        let mut reversed = updates.clone();
        reversed.reverse();
        let a = weighted_average(&updates).unwrap();
        let b = weighted_average(&reversed).unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn straggler_injector_respects_rate_and_bounds(
        rate in 0.0f64..0.9,
        cohort in 1usize..60,
        seed in 0u64..500,
    ) {
        let selected: Vec<usize> = (0..cohort).collect();
        let mut inj = StragglerInjector::new(rate, seed);
        let victims = inj.strike(&selected);
        let expected = (rate * cohort as f64).round() as usize;
        prop_assert_eq!(victims.len(), expected.min(cohort));
        // Sorted, distinct, in-range indices.
        prop_assert!(victims.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(victims.iter().all(|&v| v < cohort));
    }

    #[test]
    fn latency_durations_are_monotone_in_work(
        parties in 1usize..20,
        sigma in 0.0f64..1.0,
        seed in 0u64..300,
        samples in 1usize..500,
    ) {
        let m = LatencyModel::sample(parties, sigma, seed);
        for p in 0..parties {
            let d1 = m.duration(p, samples, 1);
            let d2 = m.duration(p, samples * 2, 1);
            let d3 = m.duration(p, samples, 2);
            prop_assert!(d1 > 0.0);
            prop_assert!(d2 >= d1);
            prop_assert!(d3 >= d1);
        }
    }
}
