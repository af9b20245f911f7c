//! (c) Probes: inputs captured from a real run (two consecutive
//! globals, the updates trained between them, a boundary checkpoint)
//! replayed through single public functions. Each probe runs for a fixed
//! wall-clock budget and reports the median call.

use crate::jobs::{self, Scale};
use crate::layers::{Captured, Table};
use crate::stats::median;
use crate::workloads::fl;
use bytes::{Bytes, BytesMut};
use flips_core::clustering::{optimal_k, ElbowConfig};
use flips_core::fl::codec::{CodecMap, PayloadCodec, Role};
use flips_core::fl::message::{deframe_with, frame_into, AGGREGATOR_DEST};
use flips_core::fl::party::{LocalUpdate, Party};
use flips_core::fl::server::ServerState;
use flips_core::fl::{Checkpoint, ExactWeightedSum, FrameKind};
use flips_core::middleware::{FlipsMiddleware, MiddlewareConfig};
use flips_core::ml::model::{predict, TrainWorkspace};
use flips_core::ml::rng::seeded;
use flips_core::prelude::*;
use flips_core::selection::oort::OortConfig;
use flips_core::selection::tifl::TiflConfig;
use flips_core::selection::{
    FlipsSelector, GradClusSelector, OortSelector, RandomSelector, TiflSelector,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median nanoseconds of one call of `f`. Each sample times `batch`
/// back-to-back calls (so a 20 ns call is not lost in the clock read);
/// sampling stops after `budget_ms`, with at least three samples.
fn call_ns(budget_ms: u64, batch: usize, mut f: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut samples = Vec::new();
    f(); // first call warms caches and grow-only scratch
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

pub fn run(seed: u64, scale: &Scale, captured: &Captured, table: &mut Table) -> Result<(), String> {
    let ms = scale.probe_ms;
    wire_probes(ms, captured, table)?;
    codec_probes(ms, captured, table)?;
    server_probes(seed, ms, captured, table)?;
    ml_probes(seed, ms, table)?;
    selection_probes(seed, ms, table)?;
    setup_probes(seed, scale, table)?;
    checkpoint_probes(seed, scale, table)?;
    Ok(())
}

fn update_parts(msg: &WireMessage) -> Result<(&[f32], u64, f64, f64), String> {
    match msg {
        WireMessage::LocalUpdate { params, num_samples, mean_loss, duration, .. } => {
            Ok((params, *num_samples, *mean_loss, *duration))
        }
        other => Err(format!("captured message is not an update: {other:?}")),
    }
}

// --------------------------------------------------- transport, framing, guard

fn wire_probes(ms: u64, captured: &Captured, table: &mut Table) -> Result<(), String> {
    // One raw global-model frame of the tracked model: 222 KB.
    let frame = vec![0x5Au8; 4 * captured.global_next.len() + 64];
    let (a, b) = duplex();
    let (mut tx, mut rx) = (StreamTransport::new(a), StreamTransport::new(b));
    let mut failed = false;
    let ns = call_ns(ms, 1, || {
        failed |= tx.send(&frame).is_err();
        failed |= !matches!(rx.try_recv(), Ok(Some(f)) if f.len() == frame.len());
    });
    table.set("transport.stream_222k_us", ns / 1e3);
    let (mut tx, mut rx) = MemoryTransport::pair();
    let ns = call_ns(ms, 1, || {
        failed |= tx.send(&frame).is_err();
        failed |= !matches!(rx.try_recv(), Ok(Some(f)) if f.len() == frame.len());
    });
    table.set("transport.memory_222k_us", ns / 1e3);
    if failed {
        table.problems.push("a transport lost or cut a 222 KB frame".into());
    }

    // A control frame through framing and back.
    let heartbeat = WireMessage::Heartbeat { job: 7, round: 3, party: 2 };
    let mut sender = CodecMap::new(Role::Receiver);
    let mut receiver = CodecMap::new(Role::Sender);
    sender.register(7, ModelCodec::Raw);
    receiver.register(7, ModelCodec::Raw);
    let mut scratch = BytesMut::new();
    let mut bad = 0u64;
    let ns = call_ns(ms, 64, || {
        frame_into(AGGREGATOR_DEST, &heartbeat, sender.for_job(7), &mut scratch);
        let frame = Bytes::from(scratch.as_slice().to_vec());
        let back = deframe_with(frame, &mut receiver);
        bad += u64::from(!matches!(back, Ok((AGGREGATOR_DEST, m)) if m == heartbeat));
    });
    table.set("message.control_frame_ns", ns);
    if bad != 0 {
        table.problems.push("a heartbeat did not survive framing".into());
    }

    // The guard plane: one round open, then the eight frames of a round.
    let mut guard = GuardPlane::new(GuardConfig::default()).map_err(fl("guard"))?;
    let cohort: Vec<PartyId> = vec![1, 5, 9, 13];
    let mut open_ns = Vec::new();
    let mut refused = 0u64;
    let admit_ns = call_ns(ms, 1, || {
        let t = Instant::now();
        black_box(guard.on_round_open(7, &cohort));
        open_ns.push(t.elapsed().as_nanos() as f64);
        for &party in &cohort {
            for kind in [FrameKind::Control, FrameKind::Update] {
                refused += u64::from(
                    guard.admit(7, party as u64, kind) != flips_core::fl::FrameVerdict::Admit,
                );
            }
        }
    });
    // The timed closure holds one open and eight admits; the open was
    // timed on its own inside it.
    let open = median(&open_ns);
    table.set("guard.round_open_us", open / 1e3);
    table.set("guard.admit_ns", (admit_ns - open).max(0.0) / 8.0);
    if refused != 0 {
        table.problems.push(format!("guard refused {refused} conformant frames"));
    }
    Ok(())
}

// ------------------------------------------------------------------- codecs

fn codec_probes(ms: u64, captured: &Captured, table: &mut Table) -> Result<(), String> {
    let (update, ..) = update_parts(captured.updates.first().ok_or("no update was captured")?)?;
    let codecs: [(ModelCodec, [&'static str; 3]); 5] = [
        (ModelCodec::Raw, ["codec.raw.encode_us", "codec.raw.decode_us", "codec.raw.bytes"]),
        (ModelCodec::F16, ["codec.f16.encode_us", "codec.f16.decode_us", "codec.f16.bytes"]),
        (
            ModelCodec::DeltaLossless,
            ["codec.delta.encode_us", "codec.delta.decode_us", "codec.delta.bytes"],
        ),
        (
            ModelCodec::DeltaEntropy,
            ["codec.entropy.encode_us", "codec.entropy.decode_us", "codec.entropy.bytes"],
        ),
        (
            ModelCodec::TopK { k: 4096 },
            ["codec.topk.encode_us", "codec.topk.decode_us", "codec.topk.bytes"],
        ),
    ];
    for (codec, [encode, decode, bytes]) in codecs {
        // Both ends reference the dispatched global, as after a round's
        // broadcast; the probe is the update that answers it — the
        // payload a round encodes and decodes once per party.
        let mut aggregator = PayloadCodec::new(codec, Role::Sender);
        let mut party = PayloadCodec::new(codec, Role::Receiver);
        let mut block = BytesMut::new();
        aggregator.encode_global(0, &captured.global_prev, &mut block);
        let mut wire = Bytes::from(block.as_slice().to_vec());
        party.decode_global(0, &mut wire).map_err(fl("reference decode"))?;

        let mut out = BytesMut::new();
        let ns = call_ns(ms, 1, || {
            out.clear();
            party.encode_update(update, &mut out);
        });
        table.set(encode, ns / 1e3);
        table.set(bytes, out.len() as f64);

        let encoded = Bytes::from(out.as_slice().to_vec());
        let mut wrong = 0u64;
        let ns = call_ns(ms, 1, || {
            let mut buf = encoded.clone();
            match aggregator.decode_update(&mut buf) {
                Ok(decoded) => {
                    let exact = decoded.iter().zip(update).all(|(a, b)| a.to_bits() == b.to_bits());
                    wrong +=
                        u64::from(decoded.len() != update.len() || (codec.is_lossless() && !exact));
                }
                Err(_) => wrong += 1,
            }
        });
        table.set(decode, ns / 1e3);
        if wrong != 0 {
            table.problems.push(format!("{} did not round-trip an update", codec.label()));
        }
    }
    Ok(())
}

// ------------------------------------------------- server, evaluation, exact fold

fn server_probes(seed: u64, ms: u64, captured: &Captured, table: &mut Table) -> Result<(), String> {
    let mut updates = Vec::new();
    for msg in &captured.updates {
        let (params, num_samples, mean_loss, duration) = update_parts(msg)?;
        updates.push(LocalUpdate {
            params: params.to_vec(),
            num_samples: num_samples as usize,
            mean_loss,
            duration,
        });
    }
    let dim = captured.global_prev.len();
    let mut failed = false;

    // Aggregation + optimizer step, then the optimizer step alone.
    let mut server = ServerState::new(FlAlgorithm::fedyogi());
    let mut global = captured.global_prev.to_vec();
    let ns = call_ns(ms, 1, || failed |= server.apply_round(&mut global, &updates).is_err());
    table.set("server.apply_round_us", ns / 1e3);
    let accum: Vec<f64> = captured.global_next.iter().map(|&x| f64::from(x)).collect();
    let ns = call_ns(ms, 1, || failed |= server.apply_aggregate(&mut global, &accum).is_err());
    table.set("server.optimize_us", ns / 1e3);

    // One evaluation, as a round close runs it.
    let profile = jobs::mlp256_profile();
    let test = balanced_test_set(&profile, 20, seed);
    let mut model = profile.model.build(&mut seeded(seed));
    let ns = call_ns(ms, 1, || {
        failed |= model.set_params(&captured.global_next).is_err();
        let predictions = predict(model.as_ref(), &test.x);
        let cm = ConfusionMatrix::from_predictions(test.classes, &test.y, &predictions);
        black_box(cm.balanced_accuracy());
    });
    table.set("ml.evaluate_ms", ns / 1e6);

    // The 256-bit exact fold on the same updates.
    let mut sum = ExactWeightedSum::new(dim);
    let mut next = 0usize;
    let ns = call_ns(ms, 1, || {
        let u = &updates[next % updates.len()];
        next += 1;
        failed |= sum.fold(&u.params, u.num_samples as u64).is_err();
    });
    table.set("aggtree.fold_us_per_update", ns / 1e3);
    let mut partial = ExactWeightedSum::new(dim);
    for u in &updates {
        partial.fold(&u.params, u.num_samples as u64).map_err(fl("fold"))?;
    }
    let mut root = ExactWeightedSum::new(dim);
    let ns = call_ns(ms, 1, || failed |= root.merge(&partial).is_err());
    table.set("aggtree.merge_us", ns / 1e3);
    let mut out = Vec::new();
    let ns = call_ns(ms, 1, || failed |= partial.finish_into(&mut out).is_err());
    table.set("aggtree.finish_us", ns / 1e3);
    if failed {
        table.problems.push("a server, evaluation or exact-fold probe returned an error".into());
    }
    Ok(())
}

// ----------------------------------------------------------------- training

fn gemm_inputs(n: usize) -> (Matrix, Matrix) {
    let data = |salt: u64| -> Vec<f32> {
        (0..n * n)
            .map(|i| (jobs::splitmix64(salt ^ i as u64) >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
            .collect()
    };
    (Matrix::from_vec(n, n, data(1)), Matrix::from_vec(n, n, data(2)))
}

fn ml_probes(seed: u64, ms: u64, table: &mut Table) -> Result<(), String> {
    let n = 256;
    let (a, b) = gemm_inputs(n);
    let mut out = Matrix::zeros(n, n);
    let flops = 2.0 * (n * n * n) as f64;
    let ns = call_ns(ms, 1, || a.matmul_into(&b, &mut out));
    table.set("ml.gemm_nn_256_gflops", flops / ns);
    let ns = call_ns(ms, 1, || a.matmul_tn_into(&b, &mut out));
    table.set("ml.gemm_tn_256_gflops", flops / ns);
    let ns = call_ns(ms, 1, || a.matmul_nt_into(&b, &mut out));
    table.set("ml.gemm_nt_256_gflops", flops / ns);
    black_box(out.as_slice()[0]);

    // One minibatch step (loss + gradient) of each tracked architecture.
    for (profile, metric) in [
        (jobs::mlp256_profile(), "ml.train_step_us.mlp256"),
        (DatasetProfile::ecg(), "ml.train_step_us.conv1d"),
    ] {
        let data = generate_population(&profile, profile.batch_size, seed);
        let model = profile.model.build(&mut seeded(seed));
        let mut ws = TrainWorkspace::new();
        let ns = call_ns(ms, 1, || {
            black_box(model.loss_and_grad_into(&data.x, &data.y, &mut ws));
        });
        table.set(metric, ns / 1e3);
    }

    // One party's whole local training, as `PartyEndpoint::handle` runs
    // it for a GlobalModel: the mlp256 job's first party.
    let profile = jobs::mlp256_profile().scaled(16, 1);
    let population = generate_population(&profile, profile.default_total_samples, seed);
    let parts = partition(&population, 16, PartitionStrategy::Dirichlet { alpha: 0.3 }, 5, seed)
        .map_err(|e| format!("partition: {e}"))?;
    let data = parts.parties.into_iter().next().ok_or("no party")?;
    let mut party = Party::new(0, data, &profile.model, seed);
    let global = profile.model.build(&mut seeded(seed)).params();
    let local = LocalTrainingConfig {
        epochs: profile.local_epochs,
        batch_size: profile.batch_size,
        lr_schedule: profile.lr_schedule,
        momentum: 0.0,
    };
    let latency = LatencyModel::uniform(16);
    let mut round = 0usize;
    let ns = call_ns(ms, 1, || {
        black_box(party.train(&global, round, &local, 0.0, &latency, seed).mean_loss);
        round += 1;
    });
    table.set("party.train_ms.mlp256", ns / 1e6);
    Ok(())
}

// ---------------------------------------------------------------- selection

/// 200 dense parties, 40 per round: the paper's scale.
fn selection_probes(seed: u64, ms: u64, table: &mut Table) -> Result<(), String> {
    const N: usize = 200;
    const NR: usize = 40;
    let err = |e: flips_core::selection::SelectionError| format!("selector: {e}");
    let clusters: Vec<Vec<PartyId>> =
        (0..10).map(|c| (0..N).filter(|p| p % 10 == c).collect()).collect();
    let latencies: Vec<f64> =
        (0..N).map(|i| 0.1 + (jobs::splitmix64(seed ^ i as u64) % 1000) as f64 / 100.0).collect();
    let sizes: Vec<usize> =
        (0..N).map(|i| 50 + (jobs::splitmix64(seed ^ (i as u64) << 8) % 300) as usize).collect();
    let selectors: Vec<(&'static str, Box<dyn ParticipantSelector>)> = vec![
        ("selection.random.select_us", Box::new(RandomSelector::new(N, seed))),
        ("selection.flips.select_us", Box::new(FlipsSelector::new(clusters).map_err(err)?)),
        (
            "selection.oort.select_us",
            Box::new(OortSelector::new(sizes, OortConfig::default(), seed)),
        ),
        (
            "selection.tifl.select_us",
            Box::new(TiflSelector::new(latencies, TiflConfig::default(), seed).map_err(err)?),
        ),
        (
            "selection.gradclus.select_us",
            Box::new(GradClusSelector::new(N, 32, seed).map_err(err)?),
        ),
    ];
    for (metric, mut selector) in selectors {
        let mut round = 0usize;
        let mut select_ns = Vec::new();
        let mut empty = false;
        // Selection is timed; the feedback that keeps the policy's state
        // moving is not.
        call_ns(ms, 1, || {
            let t = Instant::now();
            let picks = selector.select(round, NR).unwrap_or_default();
            select_ns.push(t.elapsed().as_nanos() as f64);
            empty |= picks.is_empty();
            let mut feedback =
                RoundFeedback::for_round(round, picks.clone(), picks.clone(), Vec::new(), 0.5);
            feedback.train_loss = picks.iter().map(|&p| (p, 1.0)).collect();
            feedback.duration = picks.iter().map(|&p| (p, 0.5)).collect();
            selector.report(&feedback);
            round += 1;
        });
        table.set(metric, median(&select_ns) / 1e3);
        if empty {
            table.problems.push(format!("{metric}: a selection came back empty"));
        }
    }
    Ok(())
}

// ------------------------------------------------------- converge's set-up path

/// The pieces of `SimulationBuilder::build` for the converge job, one
/// call each: they run once per job, so each is timed once.
fn setup_probes(seed: u64, scale: &Scale, table: &mut Table) -> Result<(), String> {
    let parties = scale.converge_parties;
    let profile = DatasetProfile::ecg().scaled(parties, scale.paper_rounds);
    let per_round = ((0.2 * parties as f64).round() as usize).clamp(1, parties);

    let t = Instant::now();
    let population = generate_population(&profile, profile.default_total_samples, seed);
    table.set("data.generate_ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let parts =
        partition(&population, parties, PartitionStrategy::Dirichlet { alpha: 0.3 }, 5, seed)
            .map_err(|e| format!("partition: {e}"))?;
    table.set("data.partition_ms", t.elapsed().as_secs_f64() * 1e3);

    let distributions = parts.label_distributions();
    let config = MiddlewareConfig {
        restarts: scale.converge_restarts,
        k_floor: Some((2 * profile.classes).min(per_round)),
        seed,
        ..Default::default()
    };
    let t = Instant::now();
    let clustering = FlipsMiddleware::cluster_privately(&distributions, &config)
        .map_err(|e| format!("cluster_privately: {e}"))?;
    table.set("middleware.cluster_privately_ms", t.elapsed().as_secs_f64() * 1e3);
    table.set("tee.entries", clustering.tee_entries() as f64);
    table.set("tee.modeled_overhead_ms", clustering.tee_overhead().as_secs_f64() * 1e3);

    // The elbow scan alone, outside the enclave, on the same points.
    let points: Vec<Vec<f32>> = distributions.iter().map(LabelDistribution::normalized).collect();
    let elbow = ElbowConfig {
        restarts: scale.converge_restarts,
        ..ElbowConfig::new(config.k_max.clamp(2, parties - 1), seed)
    };
    let t = Instant::now();
    let k = optimal_k(&points, elbow).map_err(|e| format!("optimal_k: {e}"))?.k;
    table.set("clustering.optimal_k_ms", t.elapsed().as_secs_f64() * 1e3);
    if k < 2 || clustering.k() < 2 {
        table.problems.push(format!("clustering found k = {k} / {}", clustering.k()));
    }
    Ok(())
}

// --------------------------------------------------------------- checkpoints

type WirePair = (
    MultiJobDriver<StreamTransport<flips_core::fl::transport::PipeEnd>>,
    PartyPool<StreamTransport<flips_core::fl::transport::PipeEnd>>,
    u64,
);

fn wire_pair(seed: u64, rounds: usize) -> Result<WirePair, String> {
    let job = jobs::mlp256_job(seed, rounds, ModelCodec::DeltaLossless)?;
    let JobParts { coordinator, endpoints, clock, latency, .. } = job.into_parts();
    let (agg_end, party_end) = duplex();
    let mut driver = MultiJobDriver::new(StreamTransport::new(agg_end));
    let id = driver.add_job(coordinator, Box::new(clock), latency).map_err(fl("add_job"))?;
    let mut pool = PartyPool::new(StreamTransport::new(party_end));
    pool.add_job(id, endpoints);
    Ok((driver, pool, id))
}

/// No workload checkpoints today; these are recorded so a change to the
/// snapshot format or to what it holds has a before.
fn checkpoint_probes(seed: u64, scale: &Scale, table: &mut Table) -> Result<(), String> {
    let rounds = scale.layer_rounds.max(2);
    let (mut driver, mut pool, _) = wire_pair(seed, rounds)?;
    driver.set_deferred_opens(true).map_err(fl("deferred opens"))?;
    driver.start().map_err(fl("start"))?;
    // Drive to the first round boundary and snapshot it.
    let snapshot = loop {
        let drove = driver.pump().map_err(fl("pump"))?;
        let pooled = pool.pump().map_err(fl("pool"))?;
        if drove || pooled {
            continue;
        }
        if driver.has_pending_opens() {
            break driver.checkpoint().map_err(fl("checkpoint"))?;
        }
        if !driver.advance_clock().map_err(fl("clock"))? {
            return Err("driver stalled before its first round boundary".into());
        }
    };
    let ms = scale.probe_ms;
    let mut bytes = Vec::new();
    let ns = call_ns(ms, 1, || bytes = snapshot.encode());
    table.set("checkpoint.encode_ms", ns / 1e6);
    table.set("checkpoint.bytes", bytes.len() as f64);
    let mut decoded = None;
    let ns = call_ns(ms, 1, || decoded = Checkpoint::decode(&bytes).ok());
    table.set("checkpoint.decode_ms", ns / 1e6);
    let decoded = decoded.ok_or("the snapshot did not decode")?;

    // Restore consumes a freshly built driver, so each sample builds one
    // (untimed) and times `restore` alone.
    let mut restore_ns = Vec::new();
    for _ in 0..3 {
        let (mut fresh, _pool, _) = wire_pair(seed, rounds)?;
        let t = Instant::now();
        fresh.restore(&decoded).map_err(fl("restore"))?;
        restore_ns.push(t.elapsed().as_nanos() as f64);
    }
    table.set("driver.restore_ms", median(&restore_ns) / 1e6);
    Ok(())
}

// ------------------------------------------------------------ roster access

/// Page-in against a cache hit on the sealed roster: a read that must
/// load its segment from disk, and the same read again.
pub fn roster_access(store: &RosterStore, scale: &Scale, table: &mut Table) -> Result<(), String> {
    let segments = store.num_parties().div_ceil(flips_core::fl::roster::SEGMENT_PARTIES).max(1);
    let stride = store.num_parties() / segments;
    let mut failed = false;
    // Walking one party per segment, round-robin over more segments than
    // the budget holds, misses the cache on every read.
    let mut next = 0usize;
    let miss_ns = call_ns(scale.probe_ms, 1, || {
        failed |= store.record((next % segments) * stride).is_err();
        next += 1;
    });
    let hit_ns = call_ns(scale.probe_ms, 16, || failed |= store.record(0).is_err());
    table.set("roster.hit_us", hit_ns / 1e3);
    // With fewer segments than the budget (the smoke roster) nothing can
    // miss; the figure then prices a hit, and says so by equalling it.
    table.set("roster.page_in_us", miss_ns / 1e3);
    if failed {
        table.problems.push("a roster read failed".into());
    }
    Ok(())
}
