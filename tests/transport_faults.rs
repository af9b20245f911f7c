//! Transport fault injection: hostile and misrouted frames on a live
//! multiplexed link must be counted and dropped without disturbing any
//! job's round state.
//!
//! The suite runs two concurrent jobs over one [`MemoryTransport`] link
//! and slips faults onto the wire while legitimate traffic is in
//! flight, through a [`StreamTransport`] over a clone of a live end's
//! pipe. The injector frames what it sends, so a "truncated frame" is a
//! whole frame whose payload is cut short (unframed short bytes would
//! simply never complete). The oracle is always the same: each job's
//! final history equals its fault-free solo run, bit for bit.

use flips::fl::message::{frame, AGGREGATOR_DEST};
use flips::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const SEEDS: [u64; 2] = [11, 23];

fn builder(seed: u64) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(10)
        .rounds(3)
        .participation(0.3)
        .selector(SelectorKind::Random)
        .straggler_rate(0.25)
        .test_per_class(6)
        .seed(seed)
}

/// The same two jobs with `DeltaLossless` negotiated on the wire. The
/// histories are codec-independent, so the raw solo runs stay the
/// oracle.
fn delta_builder(seed: u64) -> SimulationBuilder {
    builder(seed).codec(ModelCodec::DeltaLossless)
}

fn solo_histories() -> Vec<History> {
    SEEDS
        .iter()
        .map(|&seed| {
            let (mut job, _) = builder(seed).build().unwrap();
            job.run().unwrap()
        })
        .collect()
}

/// A transport wrapper that records a copy of every frame it sends —
/// the duplicate-delivery tests replay captured uplink traffic.
struct Tap<T: Transport> {
    inner: T,
    sent: Arc<Mutex<Vec<bytes::Bytes>>>,
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), flips::fl::FlError> {
        self.sent.lock().unwrap().push(bytes::Bytes::from(frame.to_vec()));
        self.inner.send(frame)
    }
    fn try_recv(&mut self) -> Result<Option<bytes::Bytes>, flips::fl::FlError> {
        self.inner.try_recv()
    }
}

struct Link {
    driver: MultiJobDriver<MemoryTransport>,
    pool: PartyPool<Tap<MemoryTransport>>,
    /// Extra handle whose sends land in the DRIVER's inbox.
    to_driver: MemoryTransport,
    /// Extra handle whose sends land in the POOL's inbox.
    to_pool: MemoryTransport,
    /// Copies of every uplink frame the pool sent.
    uplink: Arc<Mutex<Vec<bytes::Bytes>>>,
    ids: Vec<u64>,
}

fn two_job_link() -> Link {
    link_from(builder)
}

fn two_job_delta_link() -> Link {
    link_from(delta_builder)
}

fn link_from(make: fn(u64) -> SimulationBuilder) -> Link {
    let (agg_end, party_end) = MemoryTransport::pair();
    let to_driver = StreamTransport::new(party_end.get_ref().clone());
    let to_pool = StreamTransport::new(agg_end.get_ref().clone());
    let uplink = Arc::new(Mutex::new(Vec::new()));
    let mut driver = MultiJobDriver::new(agg_end);
    let mut pool = PartyPool::new(Tap { inner: party_end, sent: Arc::clone(&uplink) });
    let mut ids = Vec::new();
    for &seed in &SEEDS {
        let (job, _) = make(seed).build().unwrap();
        let JobParts { coordinator, endpoints, clock, latency, .. } = job.into_parts();
        let id = driver.add_job(coordinator, Box::new(clock), latency).unwrap();
        pool.add_job(id, endpoints);
        ids.push(id);
    }
    Link { driver, pool, to_driver, to_pool, uplink, ids }
}

/// Runs the link to completion, invoking `inject` once per round window
/// (while that window's frames are in flight).
fn run_with_faults(link: &mut Link, mut inject: impl FnMut(u64, &mut Link)) {
    link.driver.start().unwrap();
    let mut window = 0u64;
    loop {
        inject(window, link);
        window += 1;
        loop {
            let drove = link.driver.pump().unwrap();
            let pooled = link.pool.pump().unwrap();
            if !drove && !pooled {
                break;
            }
        }
        if link.driver.is_finished() {
            return;
        }
        assert!(link.driver.advance_clock().unwrap(), "driver stalled");
    }
}

fn assert_histories_clean(link: &Link, solo: &[History]) {
    for (id, clean) in link.ids.iter().zip(solo) {
        assert_eq!(
            link.driver.history(*id).unwrap(),
            clean,
            "job {id:#x} history disturbed by injected faults"
        );
    }
}

fn heartbeat_frame(job: u64) -> bytes::Bytes {
    frame(AGGREGATOR_DEST, &WireMessage::Heartbeat { job, round: 0, party: 3 })
}

#[test]
fn truncated_and_corrupt_frames_are_dropped_without_side_effects() {
    let solo = solo_histories();
    let mut link = two_job_link();
    let job0 = link.ids[0];
    run_with_faults(&mut link, |window, link| {
        if window > 2 {
            return;
        }
        // A frame cut mid-header, one cut mid-payload, and one with a
        // clobbered protocol magic.
        let whole = heartbeat_frame(job0);
        link.to_driver.send(&whole.slice(0..5)).unwrap();
        link.to_driver.send(&whole.slice(0..whole.len() - 3)).unwrap();
        let mut bad_magic = whole.to_vec();
        bad_magic[8] ^= 0xFF;
        link.to_driver.send(&bad_magic).unwrap();
    });
    assert_eq!(link.driver.stats().corrupt_frames, 9, "3 windows × 3 bad frames");
    assert_histories_clean(&link, &solo);
}

#[test]
fn unknown_job_id_mid_stream_is_counted_and_isolated() {
    let solo = solo_histories();
    let mut link = two_job_link();
    run_with_faults(&mut link, |window, link| {
        if window > 1 {
            return;
        }
        // Well-formed traffic for a job nobody registered, in both
        // directions: the driver counts it, the pool counts it, neither
        // routes it anywhere.
        link.to_driver.send(&heartbeat_frame(0xDEAD_BEEF)).unwrap();
        let foreign =
            WireMessage::GlobalModel { job: 0xDEAD_BEEF, round: 0, params: vec![1.0; 4].into() };
        link.to_pool.send(&frame(2, &foreign)).unwrap();
    });
    assert_eq!(link.driver.stats().unknown_job_frames, 2);
    assert_eq!(link.pool.unroutable(), 2);
    assert_histories_clean(&link, &solo);
}

#[test]
fn hostile_routable_downlink_is_rejected_by_the_pool_not_fatal() {
    // Frames that decode AND route to a real endpoint but violate the
    // protocol (wrong direction, wrong architecture) must be counted
    // and dropped by the pool — one such frame must not take down the
    // pump and with it every multiplexed job.
    let solo = solo_histories();
    let mut link = two_job_link();
    let job0 = link.ids[0];
    run_with_faults(&mut link, |window, link| {
        if window > 1 {
            return;
        }
        // Wrong direction: an aggregator-bound update sent down to a party.
        let wrong_direction = WireMessage::LocalUpdate {
            job: job0,
            round: 0,
            party: 3,
            num_samples: 1,
            mean_loss: 0.0,
            duration: 0.0,
            params: vec![],
        };
        link.to_pool.send(&frame(3, &wrong_direction)).unwrap();
        // Wrong architecture: a global model that matches no agreed spec.
        let wrong_arch =
            WireMessage::GlobalModel { job: job0, round: 9, params: vec![0.0; 3].into() };
        link.to_pool.send(&frame(3, &wrong_arch)).unwrap();
    });
    assert_eq!(link.pool.rejected(), 4, "2 windows × 2 hostile frames");
    assert_eq!(link.pool.unroutable(), 0);
    assert_histories_clean(&link, &solo);
}

#[test]
fn duplicate_delivery_is_rejected_not_double_aggregated() {
    let solo = solo_histories();
    let mut link = two_job_link();
    run_with_faults(&mut link, |window, link| {
        if window == 0 {
            return; // let round 0 produce real uplink traffic first
        }
        // Redeliver every update the pool has sent so far — classic
        // at-least-once transport behavior. Each replay must bounce
        // with `DuplicateUpdate`/`WrongRound`, never re-aggregate.
        let captured: Vec<bytes::Bytes> = link.uplink.lock().unwrap().clone();
        for dup in captured {
            link.to_driver.send(&dup).unwrap();
        }
    });
    assert!(
        link.driver.stats().rejected_messages > 0,
        "replayed frames must surface as rejections"
    );
    assert_eq!(link.driver.stats().corrupt_frames, 0);
    assert_histories_clean(&link, &solo);
}

#[test]
fn interleaved_uplink_frames_from_two_jobs_demultiplex_cleanly() {
    let solo = solo_histories();
    let mut link = two_job_link();
    // Per-pump interleaving already mixes the two jobs' frames on the
    // shared queue; additionally hold ALL uplink traffic back each
    // window and release it riffle-shuffled across jobs, so the driver
    // sees j0,j1,j0,j1,… in a single drain.
    link.driver.start().unwrap();
    loop {
        loop {
            let pooled = link.pool.pump().unwrap();
            // Capture the pool's pending uplink, reorder, re-send.
            let mut held = Vec::new();
            while let Some(f) = link.to_pool.try_recv().unwrap() {
                held.push(f);
            }
            let (evens, odds): (Vec<_>, Vec<_>) =
                held.into_iter().enumerate().partition(|(i, _)| i % 2 == 0);
            for (_, f) in odds.into_iter().chain(evens) {
                link.to_driver.send(&f).unwrap();
            }
            let drove = link.driver.pump().unwrap();
            if !drove && !pooled {
                break;
            }
        }
        if link.driver.is_finished() {
            break;
        }
        assert!(link.driver.advance_clock().unwrap(), "driver stalled");
    }
    assert_histories_clean(&link, &solo);
}

#[test]
fn corrupt_frames_strike_the_claimed_sender_and_trip_its_breaker() {
    // Guard attribution: a corrupt frame cannot be trusted, but its
    // header-claimed sender can be charged for it. Enough clobbered
    // frames all claiming one party must open that party's breaker —
    // and nobody else's.
    let mut link = two_job_link();
    link.driver
        .set_guard(GuardConfig {
            rate_limit: None,
            admission_factor: None,
            breaker: Some(BreakerConfig { strike_threshold: 3, ..BreakerConfig::default() }),
            ..GuardConfig::default()
        })
        .unwrap();
    let job0 = link.ids[0];
    run_with_faults(&mut link, |window, link| {
        if window != 0 {
            return;
        }
        for _ in 0..4 {
            // heartbeat_frame claims party 3; flip the message magic so
            // only the fixed-offset header peek can attribute it.
            let mut bad = heartbeat_frame(job0).to_vec();
            bad[8] ^= 0xFF;
            link.to_driver.send(&bad).unwrap();
        }
    });
    assert_eq!(link.driver.stats().corrupt_frames, 4);
    let transitions = link.driver.guard().unwrap().transitions();
    assert!(
        transitions.iter().any(|t| t.job == job0 && t.party == 3 && t.to == BreakerState::Open),
        "4 corrupt frames over a 3-strike threshold must open party 3's breaker: {transitions:?}"
    );
    assert!(
        transitions.iter().all(|t| t.party == 3),
        "no other party may be charged for the corruption: {transitions:?}"
    );
}

#[test]
fn pool_frame_cap_drops_oversized_downlink_frames() {
    // The pool side of the configurable frame cap: an 800KB frame
    // pushed down a 512KB-capped wire is dropped and counted before
    // any decode, and every job still reaches its clean history.
    let solo = solo_histories();
    let mut link = two_job_link();
    let guard = GuardConfig { max_frame_bytes: 1 << 19, ..GuardConfig::default() };
    link.pool.set_guard(&guard);
    let job0 = link.ids[0];
    run_with_faults(&mut link, |window, link| {
        if window > 1 {
            return;
        }
        let huge =
            WireMessage::GlobalModel { job: job0, round: 0, params: vec![1.0; 200_000].into() };
        link.to_pool.send(&frame(2, &huge)).unwrap();
    });
    assert_eq!(link.pool.oversized(), 2, "2 windows × 1 over-cap frame");
    assert_eq!(link.pool.unroutable(), 0);
    assert_histories_clean(&link, &solo);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Any schedule of truncations, corruptions, foreign-job frames and
    /// duplicate replays leaves every job's history bit-identical to its
    /// fault-free run.
    #[test]
    fn random_fault_schedules_never_disturb_round_state(
        fault_kinds in proptest::collection::vec(0usize..4, 1..6),
        cut in 1usize..20,
        flip_bit in 0usize..8,
        window_mask in 0u64..8,
    ) {
        let solo = solo_histories();
        let mut link = two_job_link();
        let job0 = link.ids[0];
        run_with_faults(&mut link, |window, link| {
            if window >= 3 || (window_mask >> window) & 1 == 0 {
                return;
            }
            for &kind in &fault_kinds {
                match kind {
                    0 => {
                        let whole = heartbeat_frame(job0);
                        let cut = cut.min(whole.len() - 1);
                        link.to_driver.send(&whole.slice(0..cut)).unwrap();
                    }
                    1 => {
                        let mut corrupt = heartbeat_frame(job0).to_vec();
                        let idx = 8 + cut % 5; // somewhere in the message header
                        corrupt[idx] ^= 1 << flip_bit;
                        link.to_driver.send(&corrupt).unwrap();
                    }
                    2 => link.to_driver.send(&heartbeat_frame(0xF0E1_D2C3)).unwrap(),
                    _ => {
                        let captured: Vec<bytes::Bytes> =
                            link.uplink.lock().unwrap().clone();
                        if let Some(f) = captured.last() {
                            link.to_driver.send(f).unwrap();
                        }
                    }
                }
            }
        });
        prop_assert!(link.driver.is_finished());
        for (id, clean) in link.ids.iter().zip(&solo) {
            prop_assert_eq!(link.driver.history(*id).unwrap(), clean);
        }
    }
}

// ---------------------------------------------------------------------
// Compressed-payload faults: the DeltaLossless wire under hostile bytes.
// ---------------------------------------------------------------------

/// A codec-tagged `LocalUpdate` frame for `job` built from a fresh
/// sender codec (no reference → inline mode), yielding bytes whose
/// params block the fault tests can corrupt surgically. The delta-family
/// codecs share the block head — tag at byte 61, count at 62..70, mode
/// at 70 — so the corruption offsets hold for every tag.
fn tagged_update_frame(job: u64, wire_codec: ModelCodec) -> Vec<u8> {
    use flips::fl::codec::{PayloadCodec, Role};
    use flips::fl::message::frame_into;
    let msg = WireMessage::LocalUpdate {
        job,
        round: 0,
        party: 3,
        num_samples: 5,
        mean_loss: 0.5,
        duration: 0.1,
        params: vec![1.0, 2.0, 3.0],
    };
    let mut codec = PayloadCodec::new(wire_codec, Role::Sender);
    let mut buf = bytes::BytesMut::new();
    frame_into(AGGREGATOR_DEST, &msg, &mut codec, &mut buf);
    buf.freeze().to_vec()
}

fn delta_update_frame(job: u64) -> Vec<u8> {
    tagged_update_frame(job, ModelCodec::DeltaLossless)
}

#[test]
fn delta_wire_survives_corrupt_truncated_and_mismatched_codec_frames() {
    // Both jobs negotiate DeltaLossless; the oracle stays the raw solo
    // runs (histories are codec-independent). Each window slips four
    // hostile frames onto the uplink:
    //   1. a raw-tagged update for a delta job  → codec mismatch
    //   2. a delta update with a corrupt mode byte → corrupt frame
    //   3. a truncated delta update             → corrupt frame
    //   4. a delta update whose codec tag byte is clobbered entirely
    //      → codec mismatch (corrupt tag)
    let solo = solo_histories();
    let mut link = two_job_delta_link();
    let job0 = link.ids[0];
    run_with_faults(&mut link, |window, link| {
        if window > 1 {
            return;
        }
        let raw_tagged = frame(
            AGGREGATOR_DEST,
            &WireMessage::LocalUpdate {
                job: job0,
                round: 0,
                party: 3,
                num_samples: 5,
                mean_loss: 0.5,
                duration: 0.1,
                params: vec![1.0, 2.0, 3.0],
            },
        );
        link.to_driver.send(&raw_tagged).unwrap();

        let clean = delta_update_frame(job0);
        // The params block starts after frame dest (8) + magic+tag (5) +
        // job/round/party/samples (32) + loss/duration (16) = 61; its
        // layout is codec tag (61), count u64 (62..70), mode (70).
        let mut bad_mode = clean.clone();
        bad_mode[70] = 0xEE;
        link.to_driver.send(&bad_mode).unwrap();

        link.to_driver.send(&clean[..clean.len() - 4]).unwrap();

        let mut bad_tag = clean.clone();
        bad_tag[61] = 0x66;
        link.to_driver.send(&bad_tag).unwrap();
    });
    let stats = link.driver.stats();
    assert_eq!(stats.codec_mismatch_frames, 4, "2 windows × (raw-tagged + corrupt-tag)");
    assert_eq!(stats.corrupt_frames, 4, "2 windows × (bad mode + truncation)");
    assert_histories_clean(&link, &solo);
}

#[test]
fn delta_downlink_rejects_mismatched_codec_models() {
    // A raw-tagged GlobalModel pushed down a delta-negotiated job's
    // wire must be dropped by the pool's codec layer — never handed to
    // an endpoint, never able to move the reference model.
    let solo = solo_histories();
    let mut link = two_job_delta_link();
    let job0 = link.ids[0];
    run_with_faults(&mut link, |window, link| {
        if window > 1 {
            return;
        }
        let raw_model =
            WireMessage::GlobalModel { job: job0, round: 0, params: vec![0.5; 8].into() };
        link.to_pool.send(&frame(3, &raw_model)).unwrap();
    });
    assert_eq!(link.pool.codec_mismatch(), 2);
    assert_eq!(link.pool.rejected(), 0, "the mismatch must be dropped before the endpoint");
    assert_histories_clean(&link, &solo);
}

#[test]
fn codec_renegotiation_notices_are_dropped_and_counted() {
    // A forged notice trying to flip an established delta job to raw
    // must bounce at the pool's negotiation layer and at most annoy the
    // counters — the pinned codec, and the histories, stay put.
    let solo = solo_histories();
    let mut link = two_job_delta_link();
    let job0 = link.ids[0];
    run_with_faults(&mut link, |window, link| {
        if window != 1 {
            return; // after round 0 established the codec
        }
        let forged =
            WireMessage::SelectionNotice { job: job0, round: 1, party: 3, codec: ModelCodec::F16 };
        link.to_pool.send(&frame(3, &forged)).unwrap();
    });
    assert_eq!(link.pool.renegotiations_rejected(), 1);
    assert_eq!(link.pool.negotiated_codec(link.ids[0]), Some(ModelCodec::DeltaLossless));
    assert_histories_clean(&link, &solo);
}

#[test]
fn duplicate_selection_notices_are_idempotent_on_the_delta_wire() {
    // Redelivered notice frames (same round, same codec) re-ack without
    // perturbing negotiation, byte accounting or round state — the
    // codec-negotiation twin of PR 3's duplicate-heartbeat fix.
    let solo = solo_histories();
    let mut link = two_job_delta_link();
    let job0 = link.ids[0];
    let dup = frame(
        3,
        &WireMessage::SelectionNotice {
            job: job0,
            round: 0,
            party: 3,
            codec: ModelCodec::DeltaLossless,
        },
    );
    run_with_faults(&mut link, |window, link| {
        if window != 0 {
            return;
        }
        // Redeliver party 3's round-0 notice twice while the round is
        // in flight. The endpoint re-acks each copy; the coordinator
        // accepts the heartbeat idempotently if 3 is in the cohort and
        // bounces it otherwise — in no case does round state move.
        link.to_pool.send(&dup).unwrap();
        link.to_pool.send(&dup).unwrap();
    });
    assert_eq!(link.pool.renegotiations_rejected(), 0);
    assert_histories_clean(&link, &solo);
}

#[test]
fn forged_inline_frame_cannot_poison_the_delta_reference() {
    // A self-contained MODE_INLINE GlobalModel forged with a fresh
    // sender codec decodes without needing any reference — but it must
    // not *become* the pool's reference: the pool pins the agreed
    // architecture size at add_job, so this wrong-length frame (with a
    // sky-high round that would otherwise pin ref_round forever) is
    // rejected by the endpoint and leaves the job's delta state — and
    // hence every later legitimate delta frame — untouched.
    use flips::fl::codec::{PayloadCodec, Role};
    use flips::fl::message::frame_into;
    let solo = solo_histories();
    let mut link = two_job_delta_link();
    let job0 = link.ids[0];
    run_with_faults(&mut link, |window, link| {
        if window > 1 {
            return;
        }
        let forged =
            WireMessage::GlobalModel { job: job0, round: u64::MAX, params: vec![0.0; 3].into() };
        let mut codec = PayloadCodec::new(ModelCodec::DeltaLossless, Role::Sender);
        let mut buf = bytes::BytesMut::new();
        frame_into(3, &forged, &mut codec, &mut buf);
        link.to_pool.send(buf.as_slice()).unwrap();
    });
    assert_eq!(link.pool.rejected(), 2, "the endpoint must reject the wrong architecture");
    assert_eq!(link.pool.codec_mismatch(), 0, "the frame itself decodes — it is delta-tagged");
    assert_histories_clean(&link, &solo);
}

#[test]
fn pre_pinned_codec_defeats_a_forged_first_notice() {
    // Trust-on-first-frame lets one forged notice (injected before the
    // job's real round-0 notice) wedge a delta job permanently. A pool
    // that pins each job's codec from out-of-band configuration is
    // immune: the forged Raw notice conflicts with the pin and drops,
    // the legitimate notices match, and the job runs to its clean
    // histories.
    let solo = solo_histories();
    let mut link = two_job_delta_link();
    for &id in &link.ids {
        link.pool.pin_codec(id, ModelCodec::DeltaLossless);
    }
    let job0 = link.ids[0];
    // Inject the forged notice BEFORE start() puts any legitimate
    // frame on the wire — the strongest position for the attacker.
    let forged =
        WireMessage::SelectionNotice { job: job0, round: 0, party: 3, codec: ModelCodec::Raw };
    link.to_pool.send(&frame(3, &forged)).unwrap();
    run_with_faults(&mut link, |_, _| {});
    assert_eq!(link.pool.renegotiations_rejected(), 1, "the forged notice must conflict");
    assert_eq!(link.pool.negotiated_codec(job0), Some(ModelCodec::DeltaLossless));
    assert_histories_clean(&link, &solo);
}

#[test]
fn compressed_frames_for_unknown_jobs_count_as_unknown_not_codec_mismatch() {
    // A well-formed delta-tagged frame whose job id no coordinator owns
    // cannot decode (no codec state exists for it) — but the operator
    // signal must say "unknown job", not "codec bug": the driver peeks
    // the fixed-offset job id to attribute the drop correctly.
    let solo = solo_histories();
    let mut link = two_job_delta_link();
    run_with_faults(&mut link, |window, link| {
        if window > 1 {
            return;
        }
        link.to_driver.send(&delta_update_frame(0xDEAD_BEEF)).unwrap();
    });
    let stats = link.driver.stats();
    assert_eq!(stats.unknown_job_frames, 2);
    assert_eq!(stats.codec_mismatch_frames, 0);
    assert_histories_clean(&link, &solo);
}

#[test]
fn corrupt_entropy_frames_on_one_link_leave_sibling_links_untouched() {
    // A 2-link `DeltaEntropy` wire under fire on one link. Hostile
    // frames aimed at link 0 — a corrupt entropy payload, a truncated
    // one, and frames in the `DeltaLossless` dialect the job does not
    // speak — must be dropped and counted on link 0 alone, and the
    // history must stay bit-identical to the fault-free solo run.
    use flips::fl::codec::{PayloadCodec, Role};
    use flips::fl::message::frame_into;

    let (mut solo, _) = builder(11).build().unwrap();
    let golden = solo.run().unwrap();
    let (job, meta) = builder(11).codec(ModelCodec::DeltaEntropy).build().unwrap();
    let job0 = meta.job_id;

    // Uplink faults, all landing on link 0: an entropy update with a
    // clobbered mode byte, a truncated entropy update, and an update in
    // the DeltaLossless dialect — a codec mismatch on an entropy job.
    let entropy_update = tagged_update_frame(job0, ModelCodec::DeltaEntropy);
    let mut bad_mode = entropy_update.clone();
    bad_mode[70] = 0xEE;
    let truncated = entropy_update[..entropy_update.len() - 4].to_vec();
    let lossless_update = delta_update_frame(job0);

    // Downlink faults, landing in link 0's pool inbox: a truncated
    // entropy model and a lossless-tagged model for the same job.
    let downlink_model = |wire_codec| {
        let msg = WireMessage::GlobalModel { job: job0, round: 0, params: vec![1.0; 8].into() };
        let mut codec = PayloadCodec::new(wire_codec, Role::Sender);
        let mut buf = bytes::BytesMut::new();
        frame_into(2, &msg, &mut codec, &mut buf);
        buf.freeze().to_vec()
    };
    let entropy_model = downlink_model(ModelCodec::DeltaEntropy);
    let truncated_model = entropy_model[..entropy_model.len() - 4].to_vec();
    let lossless_model = downlink_model(ModelCodec::DeltaLossless);

    let (mut driver, mut pools) =
        memory_wire(vec![job.into_parts()], &WireOptions::new(2)).unwrap();
    let mut to_driver = StreamTransport::new(pools[0].transport().get_ref().clone());
    let mut to_pool = StreamTransport::new(driver.transport().inner().link(0).get_ref().clone());
    for hostile in [&bad_mode, &truncated, &lossless_update] {
        to_driver.send(hostile).unwrap();
    }
    for hostile in [&truncated_model, &lossless_model] {
        to_pool.send(hostile).unwrap();
    }
    run_lockstep(&mut driver, &mut pools).unwrap();

    assert_eq!(driver.history(job0), Some(&golden), "faults on link 0 disturbed the history");
    let stats = driver.stats();
    assert_eq!(stats.corrupt_frames, 2, "bad mode byte + truncation on the uplink");
    assert_eq!(
        stats.codec_mismatch_frames, 1,
        "the lossless dialect must mismatch on an entropy job"
    );
    let per_link =
        |count: fn(&PartyPool<MemoryTransport>) -> u64| [count(&pools[0]), count(&pools[1])];
    assert_eq!(
        per_link(PartyPool::codec_mismatch),
        [1, 0],
        "only link 0's pool may count the lossless-tagged model"
    );
    assert_eq!(
        per_link(PartyPool::unroutable),
        [1, 0],
        "the truncated entropy model must drop on link 0 alone"
    );
    assert_eq!(per_link(PartyPool::rejected), [0, 0]);
}
