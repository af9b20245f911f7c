//! Equivalence of every driver of the sans-IO protocol: one seeded job,
//! one history, however it is run.
//!
//! The golden values below pin a seeded 12-party / 4-round /
//! 25%-straggler simulation per selector kind. The Random, FLIPS, Oort
//! and TiFL rows were captured from the repository state *before* the
//! coordinator redesign (the `FlJob::step` god-loop) and have not moved
//! since. GradClus's rows were re-captured when feedback sketches moved
//! to accept time: GradClus clusters on the update `x − m` against the
//! global `m` the round *dispatched* (Fraboni et al.; what tree mode
//! always shipped), where the pre-refactor loop sketched after applying
//! the aggregate and so measured against the *next* global. Round 0 is
//! unchanged (no feedback yet); rounds 1–3 pick different cohorts.
//! Every driver must replay the exact same trajectories: accuracy and
//! loss to the bit (hence `f64::to_bits` comparisons), cohorts and
//! stragglers to the element.
//!
//! Byte counters are deliberately not pinned: the protocol now also
//! carries selection notices, heartbeats and aborts, so per-round wire
//! bytes legitimately grew. They are checked for self-consistency
//! against the codec instead.

use flips::fl::message::{
    global_model_bytes, heartbeat_bytes, local_update_bytes, selection_notice_bytes,
};
use flips::prelude::*;

mod common;
use common::golden_builder as builder;

/// One golden round: accuracy bits, mean-train-loss bits, duration bits,
/// selected, completed, stragglers.
type GoldenRound = (u64, u64, u64, &'static [usize], &'static [usize], &'static [usize]);

fn golden(kind: SelectorKind) -> &'static [GoldenRound] {
    match kind {
        SelectorKind::Random => &[
            (0x3fc999999999999a, 0x400075c4dd555555, 0x3fb7cbb2fc103b7a, &[2, 1, 4], &[1, 2], &[4]),
            (0x3fd2666666666666, 0x3ff6601f3bd27d28, 0x3fb6c2f6c5564444, &[5, 1, 0], &[0, 1], &[5]),
            (
                0x3fd0cccccccccccd,
                0x400a50f5e1b6db6e,
                0x3fb30856c9ed9208,
                &[6, 11, 8],
                &[6, 8],
                &[11],
            ),
            (0x3fd4cccccccccccd, 0x3ff5e8688071c71c, 0x3fb6c2f6c5564444, &[2, 1, 5], &[1, 5], &[2]),
        ],
        SelectorKind::Flips => &[
            (0x3fc999999999999a, 0x400075c4dd555555, 0x3fb7cbb2fc103b7a, &[1, 2, 3], &[1, 2], &[3]),
            (
                0x3fd0000000000000,
                0x3ff999fc8c3e4e90,
                0x3fb6c2f6c5564444,
                &[0, 1, 10, 8],
                &[1, 8, 10],
                &[0],
            ),
            (0x3fd7333333333333, 0x3ff7847be8555556, 0x3fbdccbd1dbc0820, &[4, 1, 2], &[2, 4], &[1]),
            (0x3fd999999999999a, 0x3ff1ffa301555555, 0x3fb6c2f6c5564444, &[3, 5, 1], &[1, 5], &[3]),
        ],
        SelectorKind::Oort => &[
            (
                0x3fc999999999999a,
                0x400128c8378e38e3,
                0x3fbdccbd1dbc0820,
                &[2, 1, 4, 6],
                &[1, 2, 4],
                &[6],
            ),
            (
                0x3fd599999999999a,
                0x3ff736ec8fe38e39,
                0x3fc16cde88e8ead0,
                &[0, 7, 9, 11],
                &[7, 9, 11],
                &[0],
            ),
            (
                0x3fdc000000000000,
                0x3ff94cab392e52e5,
                0x3fbdccbd1dbc0820,
                &[4, 8, 5, 3],
                &[3, 4, 8],
                &[5],
            ),
            (
                0x3fe0000000000000,
                0x3fef627cf53cf3d0,
                0x3fb6c2f6c5564444,
                &[1, 7, 8, 10],
                &[1, 8, 10],
                &[7],
            ),
        ],
        SelectorKind::GradClus => &[
            (0x3fce666666666666, 0x4000b15456aaaaaa, 0x3fc16cde88e8ead0, &[7, 3, 6], &[3, 7], &[6]),
            (
                0x3fd4000000000000,
                0x400507ba62aaaaaa,
                0x3fb7cbb2fc103b7a,
                &[0, 10, 2],
                &[2, 10],
                &[0],
            ),
            (
                0x3fd599999999999a,
                0x3ff4d65611111111,
                0x3fbdccbd1dbc0820,
                &[4, 10, 5],
                &[4, 5],
                &[10],
            ),
            (
                0x3fdd99999999999a,
                0x3ff03e4a3b111111,
                0x3fbdccbd1dbc0820,
                &[8, 4, 11],
                &[4, 11],
                &[8],
            ),
        ],
        SelectorKind::Tifl => &[
            (
                0x3fc3333333333333,
                0x40060906fc000000,
                0x3fb122f22e1da45d,
                &[6, 10, 8],
                &[6, 10],
                &[8],
            ),
            (
                0x3fd0000000000000,
                0x3ff7328d9c249249,
                0x3fb30856c9ed9208,
                &[6, 8, 10],
                &[8, 10],
                &[6],
            ),
            (
                0x3fd199999999999a,
                0x400040a05e000000,
                0x3fb6f45993f7f742,
                &[1, 11, 9],
                &[1, 9],
                &[11],
            ),
            (0x3fd8cccccccccccd, 0x3fffa49d9ac16c16, 0x3fc16cde88e8ead0, &[2, 4, 7], &[4, 7], &[2]),
        ],
    }
}

fn run(kind: SelectorKind) -> SimulationReport {
    builder(kind).run().unwrap()
}

/// Runs the same seeded job through the serialized stream transport:
/// every message encoded, framed, length-prefixed onto a byte pipe,
/// reassembled and decoded on the far side. Returns the history plus
/// the driver's wire counters (actual bytes under `codec`).
fn run_over_stream_transport_with(kind: SelectorKind, codec: ModelCodec) -> (History, DriverStats) {
    let (job, meta) = builder(kind).codec(codec).build().unwrap();
    let JobParts { coordinator, endpoints, clock, latency, .. } = job.into_parts();
    let (agg_pipe, party_pipe) = duplex();
    let mut driver = MultiJobDriver::new(StreamTransport::new(agg_pipe));
    let job_id = driver.add_job(coordinator, Box::new(clock), latency).unwrap();
    assert_eq!(job_id, meta.job_id);
    assert_eq!(driver.codec_of(job_id), Some(codec));
    let mut pool = PartyPool::new(StreamTransport::new(party_pipe));
    pool.add_job(job_id, endpoints);
    run_lockstep(&mut driver, std::slice::from_mut(&mut pool)).unwrap();
    assert_eq!(pool.negotiated_codec(job_id), Some(codec), "notice handshake must pin the codec");
    (driver.history(job_id).unwrap().clone(), driver.stats())
}

fn run_over_stream_transport(kind: SelectorKind) -> History {
    run_over_stream_transport_with(kind, ModelCodec::Raw).0
}

#[test]
fn new_driver_replays_pre_refactor_histories_bit_exactly() {
    for kind in SelectorKind::all() {
        let report = run(kind);
        let records = report.history.records();
        let expected = golden(kind);
        assert_eq!(records.len(), expected.len(), "{kind}: round count");
        for (r, (acc, loss, dur, selected, completed, stragglers)) in records.iter().zip(expected) {
            assert_eq!(
                r.accuracy.to_bits(),
                *acc,
                "{kind} round {}: accuracy {} diverged from the pre-refactor path",
                r.round,
                r.accuracy
            );
            assert_eq!(r.mean_train_loss.to_bits(), *loss, "{kind} round {}: loss", r.round);
            assert_eq!(r.round_duration.to_bits(), *dur, "{kind} round {}: duration", r.round);
            assert_eq!(r.selected, *selected, "{kind} round {}: cohort", r.round);
            assert_eq!(r.completed, *completed, "{kind} round {}: completions", r.round);
            assert_eq!(r.stragglers, *stragglers, "{kind} round {}: stragglers", r.round);
        }
    }
}

#[test]
fn serialized_stream_transport_replays_the_goldens_bit_exactly() {
    // The acceptance bar for the transport layer: a seeded single-job
    // run in which every message crosses a length-prefix-framed byte
    // stream (encode → frame → pipe → reassemble → decode) reproduces
    // the pinned pre-refactor histories bit-for-bit, per selector kind.
    for kind in SelectorKind::all() {
        let history = run_over_stream_transport(kind);
        let records = history.records();
        let expected = golden(kind);
        assert_eq!(records.len(), expected.len(), "{kind}: round count over the wire");
        for (r, (acc, loss, dur, selected, completed, stragglers)) in records.iter().zip(expected) {
            assert_eq!(r.accuracy.to_bits(), *acc, "{kind} round {}: accuracy", r.round);
            assert_eq!(r.mean_train_loss.to_bits(), *loss, "{kind} round {}: loss", r.round);
            assert_eq!(r.round_duration.to_bits(), *dur, "{kind} round {}: duration", r.round);
            assert_eq!(r.selected, *selected, "{kind} round {}: cohort", r.round);
            assert_eq!(r.completed, *completed, "{kind} round {}: completions", r.round);
            assert_eq!(r.stragglers, *stragglers, "{kind} round {}: stragglers", r.round);
        }
    }
}

#[test]
fn delta_compressed_wire_replays_the_goldens_bit_exactly() {
    // The codec acceptance bar: `DeltaLossless` is bit-exact, so the
    // same seeded runs over the *compressed* wire must still reproduce
    // the pre-refactor goldens — accuracy, loss and duration to the
    // bit, cohorts to the element — while moving measurably fewer
    // bytes than the raw wire.
    for kind in SelectorKind::all() {
        let (history, stats) = run_over_stream_transport_with(kind, ModelCodec::DeltaLossless);
        let records = history.records();
        let expected = golden(kind);
        assert_eq!(records.len(), expected.len(), "{kind}: round count over the delta wire");
        for (r, (acc, loss, dur, selected, completed, stragglers)) in records.iter().zip(expected) {
            assert_eq!(r.accuracy.to_bits(), *acc, "{kind} round {}: accuracy", r.round);
            assert_eq!(r.mean_train_loss.to_bits(), *loss, "{kind} round {}: loss", r.round);
            assert_eq!(r.round_duration.to_bits(), *dur, "{kind} round {}: duration", r.round);
            assert_eq!(r.selected, *selected, "{kind} round {}: cohort", r.round);
            assert_eq!(r.completed, *completed, "{kind} round {}: completions", r.round);
            assert_eq!(r.stragglers, *stragglers, "{kind} round {}: stragglers", r.round);
        }
        assert_eq!(stats.codec_mismatch_frames, 0, "{kind}");
        assert_eq!(stats.corrupt_frames, 0, "{kind}");
    }
}

#[test]
fn delta_codec_moves_fewer_bytes_than_raw() {
    // Same seeded workload, both codecs: identical histories (checked
    // above), different wire bills. The raw accounting in the records
    // is codec-independent; the DriverStats byte counters measure what
    // actually crossed the pipe.
    let (raw_history, raw) = run_over_stream_transport_with(SelectorKind::Random, ModelCodec::Raw);
    let (delta_history, delta) =
        run_over_stream_transport_with(SelectorKind::Random, ModelCodec::DeltaLossless);
    assert_eq!(raw_history, delta_history, "codecs must not change round outcomes");
    // Downlink: within a round the 2nd..Nth copies of the broadcast
    // XOR to zero and collapse, so the model-bearing downlink roughly
    // halves even on this tiny model. Uplink: each trained update is a
    // distinct high-entropy delta, so the win there is thinner — the
    // realistic mlp-16×256×192×10 numbers are gated exactly by
    // flbench's tests (754 075 B/round).
    assert!(
        (delta.bytes_sent as f64) < 0.55 * raw.bytes_sent as f64,
        "delta downlink should collapse rebroadcasts: {} vs {}",
        delta.bytes_sent,
        raw.bytes_sent
    );
    let raw_bytes = raw.bytes_sent + raw.bytes_received;
    let delta_bytes = delta.bytes_sent + delta.bytes_received;
    assert!(
        (delta_bytes as f64) < 0.8 * raw_bytes as f64,
        "DeltaLossless must cut total wire bytes: {delta_bytes} vs {raw_bytes}"
    );
}

#[test]
fn entropy_coded_wire_replays_the_goldens_bit_exactly() {
    // The entropy-stage acceptance bar: `DeltaEntropy` adds a rANS
    // coder over the shuffled delta planes but stays bit-exact, so all
    // five selector goldens must replay unchanged over the
    // entropy-coded wire — accuracy, loss and duration to the bit,
    // cohorts to the element.
    for kind in SelectorKind::all() {
        let (history, stats) = run_over_stream_transport_with(kind, ModelCodec::DeltaEntropy);
        let records = history.records();
        let expected = golden(kind);
        assert_eq!(records.len(), expected.len(), "{kind}: round count over the entropy wire");
        for (r, (acc, loss, dur, selected, completed, stragglers)) in records.iter().zip(expected) {
            assert_eq!(r.accuracy.to_bits(), *acc, "{kind} round {}: accuracy", r.round);
            assert_eq!(r.mean_train_loss.to_bits(), *loss, "{kind} round {}: loss", r.round);
            assert_eq!(r.round_duration.to_bits(), *dur, "{kind} round {}: duration", r.round);
            assert_eq!(r.selected, *selected, "{kind} round {}: cohort", r.round);
            assert_eq!(r.completed, *completed, "{kind} round {}: completions", r.round);
            assert_eq!(r.stragglers, *stragglers, "{kind} round {}: stragglers", r.round);
        }
        assert_eq!(stats.codec_mismatch_frames, 0, "{kind}");
        assert_eq!(stats.corrupt_frames, 0, "{kind}");
    }
}

#[test]
fn entropy_codec_moves_fewer_bytes_than_delta_lossless() {
    // The point of the entropy stage: same histories (checked above),
    // strictly smaller wire bill than the RLE-only delta wire, in both
    // directions combined and on the downlink alone.
    let (delta_history, delta) =
        run_over_stream_transport_with(SelectorKind::Random, ModelCodec::DeltaLossless);
    let (entropy_history, entropy) =
        run_over_stream_transport_with(SelectorKind::Random, ModelCodec::DeltaEntropy);
    assert_eq!(delta_history, entropy_history, "codecs must not change round outcomes");
    assert!(
        entropy.bytes_sent < delta.bytes_sent,
        "entropy downlink must beat delta: {} vs {}",
        entropy.bytes_sent,
        delta.bytes_sent
    );
    let delta_bytes = delta.bytes_sent + delta.bytes_received;
    let entropy_bytes = entropy.bytes_sent + entropy.bytes_received;
    assert!(
        entropy_bytes < delta_bytes,
        "DeltaEntropy must cut total wire bytes below DeltaLossless: {entropy_bytes} vs {delta_bytes}"
    );
}

#[test]
fn topk_wire_completes_with_sparse_model_frames() {
    // TopK is lossy — histories are NOT pinned to the goldens — but the
    // protocol must run to completion, deterministically, and a small k
    // must collapse the downlink model frames to a fraction of raw.
    let (raw_history, raw) = run_over_stream_transport_with(SelectorKind::Random, ModelCodec::Raw);
    let (topk_history, topk) =
        run_over_stream_transport_with(SelectorKind::Random, ModelCodec::TopK { k: 64 });
    assert_eq!(topk_history.len(), raw_history.len(), "every round must close under top-k");
    let (replay_history, _) =
        run_over_stream_transport_with(SelectorKind::Random, ModelCodec::TopK { k: 64 });
    assert_eq!(topk_history, replay_history, "a seeded top-k run must replay bit-identically");
    let raw_bytes = raw.bytes_sent + raw.bytes_received;
    let topk_bytes = topk.bytes_sent + topk.bytes_received;
    assert!(
        (topk_bytes as f64) < 0.6 * raw_bytes as f64,
        "top-k should collapse model frames: {topk_bytes} vs {raw_bytes}"
    );
}

#[test]
fn f16_wire_completes_with_halved_model_frames() {
    // F16 is lossy — histories are NOT pinned to the goldens — but the
    // protocol must run to completion and the wire bill must drop to
    // roughly half the raw model bytes.
    let (raw_history, raw) = run_over_stream_transport_with(SelectorKind::Random, ModelCodec::Raw);
    let (f16_history, f16) = run_over_stream_transport_with(SelectorKind::Random, ModelCodec::F16);
    assert_eq!(f16_history.len(), raw_history.len(), "every round must close under f16");
    let raw_bytes = raw.bytes_sent + raw.bytes_received;
    let f16_bytes = f16.bytes_sent + f16.bytes_received;
    assert!(
        (f16_bytes as f64) < 0.6 * raw_bytes as f64,
        "f16 should halve model frames: {f16_bytes} vs {raw_bytes}"
    );
}

#[test]
fn transport_and_in_process_drivers_agree_on_every_field() {
    // Beyond the golden fields: the full `RoundRecord`s (byte counters,
    // per-label recalls, everything `PartialEq` sees) must be identical
    // between the in-process driver and the serialized transport.
    let in_process = run(SelectorKind::Oort).history;
    let over_wire = run_over_stream_transport(SelectorKind::Oort);
    assert_eq!(in_process, over_wire);
}

#[test]
fn three_multiplexed_jobs_complete_with_isolated_deterministic_histories() {
    // Three differently-seeded jobs share ONE serialized stream — their
    // frames interleave on the same byte pipe — and each must finish
    // with exactly the history it produces when it runs alone.
    let seeds = [11u64, 23, 37];
    let solo: Vec<History> = seeds
        .iter()
        .map(|&seed| {
            let (mut job, _) = builder(SelectorKind::Random).seed(seed).build().unwrap();
            job.run().unwrap()
        })
        .collect();

    let (agg_pipe, party_pipe) = duplex();
    let mut driver = MultiJobDriver::new(StreamTransport::new(agg_pipe));
    let mut pool = PartyPool::new(StreamTransport::new(party_pipe));
    let mut ids = Vec::new();
    for &seed in &seeds {
        let (job, _) = builder(SelectorKind::Random).seed(seed).build().unwrap();
        let JobParts { coordinator, endpoints, clock, latency, .. } = job.into_parts();
        let id = driver.add_job(coordinator, Box::new(clock), latency).unwrap();
        pool.add_job(id, endpoints);
        ids.push(id);
    }
    run_lockstep(&mut driver, std::slice::from_mut(&mut pool)).unwrap();

    assert!(driver.is_finished());
    for (id, solo_history) in ids.iter().zip(&solo) {
        let multiplexed = driver.history(*id).unwrap();
        assert_eq!(multiplexed, solo_history, "job {id:#x} diverged under multiplexing");
    }
    let stats = driver.stats();
    assert_eq!(stats.corrupt_frames, 0);
    assert_eq!(stats.unknown_job_frames, 0);
    assert_eq!(stats.rejected_messages, 0);
}

#[test]
fn byte_accounting_is_self_consistent_with_the_extended_codec() {
    // Bytes are not pinned to the pre-refactor values (the protocol
    // gained notices/heartbeats/aborts); they must instead be exactly
    // derivable from the codec's per-message sizes.
    let report = run(SelectorKind::Random);
    for r in report.history.records() {
        // Recover the parameter count from the down-link equation:
        // bytes_down = |selected|·(notice + model(p)) + |stragglers|·abort.
        // The abort reason is fixed ("deadline expired", 16 bytes), so
        // solve and cross-check both directions.
        let abort_size = flips::fl::WireMessage::Abort {
            job: 0,
            round: 0,
            party: 0,
            reason: "deadline expired".into(),
        }
        .wire_size() as u64;
        let n_sel = r.selected.len() as u64;
        let n_str = r.stragglers.len() as u64;
        let n_com = r.completed.len() as u64;
        let fixed = n_sel * selection_notice_bytes() as u64 + n_str * abort_size;
        assert!(r.bytes_down > fixed, "round {}: down bytes too small", r.round);
        let per_model = (r.bytes_down - fixed) / n_sel;
        let params = (per_model as usize - global_model_bytes(0)) / 4;
        assert_eq!(
            r.bytes_down,
            n_sel * (selection_notice_bytes() + global_model_bytes(params)) as u64
                + n_str * abort_size,
            "round {}: down bytes",
            r.round
        );
        assert_eq!(
            r.bytes_up,
            n_sel * heartbeat_bytes() as u64 + n_com * local_update_bytes(params) as u64,
            "round {}: up bytes",
            r.round
        );
    }
}
