#![cfg(test)]

use super::payload::{gather_from_planes, MODE_DELTA, MODE_INLINE};
use super::rle::{RUN_CAP, RUN_LITERAL, RUN_ZERO};
use super::*;
use bytes::{Buf, Bytes};
use std::sync::Arc;

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

/// The codec's current reference bits.
fn reference_of(codec: &PayloadCodec) -> &[f32] {
    codec.reference_snapshot().expect("a reference is established").1
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
    assert!(matches!(rx.decode_update(&mut Bytes::from(bytes)), Err(FlError::CodecMismatch(_))));
}

#[test]
fn delta_before_reference_is_rejected() {
    let (mut tx, _) = pair(ModelCodec::DeltaLossless);
    let params = [1.0f32, 2.0];
    assert!(tx.force_reference(0, &params)); // sender has one, receiver does not
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

/// A stale (inline-raw, self-contained) round-0 frame replayed after
/// round 1 must not move the receiver's reference backwards.
fn stale_replay_leaves_the_reference(codec: ModelCodec) {
    let (mut tx, mut rx) = pair(codec);
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
    assert_eq!(reference_of(&rx), round1, "stale replay moved the reference backwards");
    // The wire stays in sync: a round-2 delta still decodes.
    let round2: Vec<f32> = vec![1.25; 64];
    let mut frame2 = BytesMut::new();
    tx.encode_global(2, &round2, &mut frame2);
    let decoded = rx.decode_global(2, &mut frame2.freeze()).unwrap();
    assert_eq!(bits(&decoded), bits(&round2));
}

#[test]
fn replayed_stale_global_does_not_regress_the_receiver_reference() {
    stale_replay_leaves_the_reference(ModelCodec::DeltaLossless);
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
    assert_eq!(reference_of(&rx), legit, "the forged frame must not move the reference");
    // The wire stays live: the next legitimate delta still decodes
    // and still advances the reference.
    let next: Vec<f32> = vec![1.5; 8];
    let mut frame = BytesMut::new();
    tx.encode_global(1, &next, &mut frame);
    let got = rx.decode_global(1, &mut frame.freeze()).unwrap();
    assert_eq!(bits(&got), bits(&next));
    assert_eq!(reference_of(&rx), next);
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
        rle::compress(&src, &mut tokens);
        let mut out = Vec::new();
        rle::decompress(&tokens, src.len(), &mut out).unwrap();
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
        let mut r = Reader::new(buf.as_slice(), "announcement");
        assert_eq!(ModelCodec::decode_announcement(&mut r).unwrap(), codec);
        r.finish().unwrap_or_else(|e| panic!("{codec} announcement not fully consumed: {e}"));
    }
    // Truncated top-k parameter and unknown tags fail cleanly.
    for bad in [&[4u8, 1, 0][..], &[99], &[]] {
        assert!(ModelCodec::decode_announcement(&mut Reader::new(bad, "announcement")).is_err());
    }
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
    assert_eq!(reference_of(&tx), reference_of(&rx), "references stay in lockstep");
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
    assert_eq!(reference_of(&tx), reference_of(&rx), "references stay in lockstep");
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
    assert_eq!(reference_of(&tx), reference_of(&rx));
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
    stale_replay_leaves_the_reference(ModelCodec::DeltaEntropy);
}
