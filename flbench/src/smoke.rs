//! Smoke tests: every workload and the whole per-layer table on inputs
//! small enough for `cargo test` (≤ 10 rounds, a 20 000-party roster).

use crate::jobs::{self, Scale};
use crate::layers;
use crate::run::{self, Outcome};
use crate::schema;
use crate::trace::Tracer;
use crate::workloads::drive_wire;
use flips_core::prelude::ModelCodec;

fn untraced(workload: &str, seed: u64) -> Outcome {
    let outcome = run::end_to_end(workload, seed, 0.0, &Scale::smoke()).unwrap();
    assert!(outcome.correct && outcome.failed == 0, "{workload}: {outcome:?}");
    assert!(outcome.attempted > 0);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    let emitted: Vec<&str> = schema::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, emitted);
    for (name, value, _) in &outcome.metrics {
        // CPU time ticks in 10 ms steps: a smoke episode can read 0.
        let floor_ok = *value > 0.0 || *name == "cpu_ms_per_round";
        assert!(value.is_finite() && floor_ok, "{workload}: {name} = {value}");
    }
    outcome
}

/// Untraced and traced. The traced run is a second run of the same
/// seed (and holds untraced episodes of its own): its digest must be the
/// first run's, and another seed's must not.
fn smoke(workload: &str) {
    let first = untraced(workload, 7);
    assert_ne!(first.digest, untraced(workload, 8).digest, "{workload}: the seed reaches no input");

    let traced = run::per_layer(workload, 7, 0.0, &Scale::smoke()).unwrap();
    assert!(traced.correct && traced.failed == 0, "{workload}: {traced:?}");
    assert_eq!(traced.digest, first.digest, "{workload}: same seed, other outputs");
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
    let emitted: Vec<&str> = schema::per_layer().map(|m| m.name).collect();
    assert_eq!(names, emitted);
    assert!(traced.metrics.iter().all(|m| m.1.is_finite()));
    // The result line is the contract's: four keys, one object per metric.
    let line = crate::json::Json::parse(&traced.result_line()).unwrap();
    assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("metrics").unwrap().keys(), emitted);
}

#[test]
fn converge_flips_smoke() {
    smoke(schema::CONVERGE);
}

#[test]
fn wire_entropy_smoke() {
    smoke(schema::WIRE);
}

#[test]
fn socket_train_smoke() {
    smoke(schema::SOCKET);
}

#[test]
fn roster_1m_tree_smoke() {
    smoke(schema::ROSTER);
}

/// The stage replay makes the real driver's calls (its history is the
/// real driver's, bit for bit — a difference lands in `problems`), and
/// its budget closes: stage self times plus the round spans' own self
/// time are the round spans' duration, so `stage.unattributed_pct` is a
/// self-time share and nothing else.
#[test]
fn stage_budget_closes_and_replays_the_real_history() {
    let table = layers::measure(5, &Scale::smoke()).unwrap();
    assert!(table.problems.is_empty(), "{:?}", table.problems);
    assert_eq!(table.failed, 0);
    let v = |name: &str| table.values[name];
    let unattributed_ms = v("stage.round_ms") * v("stage.unattributed_pct") / 100.0;
    assert!(
        (v("stage.sum_ms") + unattributed_ms - v("stage.round_ms")).abs() < 1e-6,
        "sum {} + unattributed {unattributed_ms} != round {}",
        v("stage.sum_ms"),
        v("stage.round_ms")
    );
    assert!(v("endpoint.train_ms") > 0.0 && v("message.encode_up_ms") > 0.0);
    assert_eq!(v("driver.refused_frames"), 0.0);
    assert_eq!(v("driver.frames_sent_per_round"), 8.0);
}

/// The workloads measure the gated job: the wire generator at
/// `bench_json`'s shape (seed 3, 24 rounds, no guard) moves exactly the
/// bytes per round that `BENCH_baseline.json` and CI gate on.
#[test]
fn wire_job_moves_the_gated_bytes() {
    for (codec, gate) in [
        (ModelCodec::Raw, 1_780_764u64),
        (ModelCodec::DeltaLossless, 754_075),
        (ModelCodec::DeltaEntropy, 440_163),
        (ModelCodec::TopK { k: 4096 }, 172_533),
    ] {
        let job = jobs::mlp256_job(3, 24, codec).unwrap();
        let run = drive_wire(job, false, 0, &mut Tracer::off()).unwrap();
        assert_eq!(run.history.len(), 24);
        assert_eq!((run.stats.bytes_sent + run.stats.bytes_received) / 24, gate, "{codec}");
    }
    assert_eq!(crate::workloads::mlp256_raw_bytes_per_round(), 1_780_764);
}
