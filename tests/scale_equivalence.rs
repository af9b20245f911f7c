//! The scale-equivalence plane: every scale mechanism this workspace
//! grows — streaming selection off a (possibly disk-spilled)
//! [`RosterStore`], shard-level aggregation trees, bounded-memory
//! roster state — is pinned against the flat-roster paths with the same
//! oracle every other driver had to clear: a seeded run must be
//! **bit-identical** however its roster is materialized and however its
//! updates are folded.
//!
//! Three claims, three test groups:
//!
//! 1. **Streaming selection**: every builder-made selector streams a
//!    sealed [`RosterStore`] through
//!    [`flips_selection::CandidateSource`]; whether that store sits in
//!    memory (the default, the one `tests/protocol_equivalence.rs` pins
//!    to the five selector goldens) or is paged from disk segments, the
//!    *same seeded choices* come out — in-process, over the 2-link
//!    lockstep wire, and over epoll TCP.
//! 2. **Aggregation trees**: a run whose `PartyPool` inner nodes fold
//!    their parties' updates into one exact integer partial per round
//!    equals the flat run under the same exact-fold arithmetic — full
//!    `RoundRecord` equality (byte accounting included) — while moving
//!    measurably fewer uplink frames. On latency-derived deadlines the
//!    plan keeps the pools flat, so `.with_tree()` is the flat exact
//!    fold there, late updates included.
//! 3. **Bounded memory**: a million-registered-party roster streams
//!    through selection with only a budgeted number of segments
//!    resident, and the spill/load counters surface through
//!    [`DriverStats`].

use flips::prelude::*;
use flips_net::{run_socket, SocketOptions};
use std::sync::Arc;

mod common;
use common::golden_builder;

/// A unique, self-cleaning spill directory per test.
struct SpillDir(std::path::PathBuf);

impl SpillDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("flips-scale-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SpillDir(dir)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// 1. Spilled roster ≡ in-memory roster (≡ the goldens)
// ---------------------------------------------------------------------

#[test]
fn streaming_selection_replays_every_selector_golden_in_process() {
    // The tentpole oracle, leg one: the same seeded 12-party job with
    // its roster sealed to disk behind a one-segment cache must
    // reproduce the default in-memory-store history — the golden one —
    // bit-for-bit, for all five selector kinds.
    for kind in SelectorKind::all() {
        let default = golden_builder(kind).run().unwrap().history;
        let dir = SpillDir::new(&format!("inproc-{kind}"));
        let spilled = golden_builder(kind).spill_roster(&dir.0, 1).run().unwrap().history;
        assert_eq!(spilled, default, "{kind}: disk-spilled roster moved the history");
    }
}

#[test]
fn streaming_selection_replays_the_goldens_across_two_shards() {
    // Leg one over the planned wire: spilled-roster jobs on the 2-link
    // lockstep against the default in-process golden.
    for kind in SelectorKind::all() {
        let default = golden_builder(kind).run().unwrap().history;
        let dir = SpillDir::new(&format!("sharded-{kind}"));
        let (job, meta) = golden_builder(kind).spill_roster(&dir.0, 1).build().unwrap();
        let (mut driver, mut pools) =
            memory_wire(vec![job.into_parts()], &WireOptions::new(2)).unwrap();
        run_lockstep(&mut driver, &mut pools).unwrap();
        let history = driver.history(meta.job_id).unwrap();
        assert_eq!(history, &default, "{kind}: spilled roster diverged on the 2-link wire");
        assert_eq!(driver.stats().corrupt_frames, 0, "{kind}");
    }
}

#[test]
fn streaming_selection_replays_the_goldens_over_tcp() {
    // Leg one over real sockets: spilled-roster jobs on the epoll
    // runtime, two TCP links, against the default in-process golden.
    for kind in SelectorKind::all() {
        let default = golden_builder(kind).run().unwrap().history;
        let dir = SpillDir::new(&format!("tcp-{kind}"));
        let (job, meta) = golden_builder(kind).spill_roster(&dir.0, 1).build().unwrap();
        let mut outcome = run_socket(vec![job.into_parts()], &SocketOptions::new(2)).unwrap();
        let history = outcome.histories.remove(&meta.job_id).unwrap();
        assert_eq!(history, default, "{kind}: spilled roster diverged over TCP");
    }
}

/// A small deterministic roster with distinct per-party attributes.
fn synthetic_records(n: usize) -> Vec<PartyRecord> {
    (0..n)
        .map(|i| PartyRecord {
            data_size: (i as u64 * 31) % 97 + 5,
            latency_hint: 0.05 + (i as f64 * 0.37) % 1.0,
            label_counts: vec![(i as u64 * 7) % 13, (i as u64 * 11) % 17, 3],
        })
        .collect()
}

#[test]
fn multi_segment_spill_streams_the_same_candidates_as_memory() {
    // Paging must be invisible to selection: the same 26 parties split
    // across 7 sealed segments with a single-segment cache make every
    // selector draw the same seeded cohorts as the in-memory store.
    let records = synthetic_records(26);
    let memory = RosterStore::from_records(records.clone());
    let dir = SpillDir::new("multi-seg");
    let mut rb = RosterBuilder::spilling(&dir.0, 1).unwrap().segment_cap(4).unwrap();
    for r in records {
        rb.push(r).unwrap();
    }
    let spilled = rb.finish().unwrap();
    assert_eq!(spilled.spilled(), 7, "26 parties over cap-4 segments");

    use flips::selection::oort::OortConfig;
    use flips::selection::tifl::TiflConfig;
    use flips::selection::{GradClusSelector, OortSelector, RandomSelector, TiflSelector};
    let mut pairs: Vec<(Box<dyn ParticipantSelector>, Box<dyn ParticipantSelector>)> = vec![
        (
            Box::new(RandomSelector::from_source(&memory, 11)),
            Box::new(RandomSelector::from_source(&spilled, 11)),
        ),
        (
            Box::new(OortSelector::from_source(&memory, OortConfig::default(), 11).unwrap()),
            Box::new(OortSelector::from_source(&spilled, OortConfig::default(), 11).unwrap()),
        ),
        (
            Box::new(GradClusSelector::from_source(&memory, 8, 11).unwrap()),
            Box::new(GradClusSelector::from_source(&spilled, 8, 11).unwrap()),
        ),
        (
            Box::new(TiflSelector::from_source(&memory, TiflConfig::default(), 11).unwrap()),
            Box::new(TiflSelector::from_source(&spilled, TiflConfig::default(), 11).unwrap()),
        ),
    ];
    for (from_memory, from_spill) in &mut pairs {
        for round in 0..4 {
            let a = from_memory.select(round, 5).unwrap();
            let b = from_spill.select(round, 5).unwrap();
            assert_eq!(a, b, "{}: round {round} cohort moved under paging", from_memory.name());
        }
    }
    assert!(spilled.loaded() > 0, "a single-segment cache must have paged");
}

#[test]
fn roster_counters_surface_through_driver_stats() {
    // The observability leg: a spill-backed roster attached to a driver
    // reports its sealed/paged segment counts through `DriverStats` —
    // live values, summed across attached rosters.
    let dir = SpillDir::new("driver-stats");
    let mut rb = RosterBuilder::spilling(&dir.0, 1).unwrap().segment_cap(4).unwrap();
    for r in synthetic_records(12) {
        rb.push(r).unwrap();
    }
    let store = Arc::new(rb.finish().unwrap());
    // Touch two different segments through the budget-1 cache.
    store.record(0).unwrap();
    store.record(8).unwrap();
    let loaded_before = store.loaded();
    assert!(loaded_before >= 2);

    let (agg_pipe, _party_pipe) = duplex();
    let mut driver = MultiJobDriver::new(StreamTransport::new(agg_pipe));
    driver.attach_roster(Arc::clone(&store));
    let stats = driver.stats();
    assert_eq!(stats.roster_spilled, 3, "12 parties over cap-4 segments");
    assert_eq!(stats.roster_loaded, loaded_before);
    // The counters are live, not snapshotted at attach time: party 1
    // lives in segment 0, which the budget-1 cache evicted when party 8
    // paged segment 2 in, so this read pages again.
    store.record(1).unwrap();
    assert!(driver.stats().roster_loaded > loaded_before);
}

// ---------------------------------------------------------------------
// 2. Aggregation trees ≡ flat exact fold
// ---------------------------------------------------------------------

/// Drives `builder`'s job on the lockstep serialized driver with the
/// coordinator in exact-fold mode; `tree` additionally makes the party
/// pool an aggregation-tree inner node.
fn exact_lockstep(builder: &SimulationBuilder, tree: bool) -> (History, DriverStats) {
    let (job, meta) = builder.build().unwrap();
    let mut parts = job.into_parts();
    parts.coordinator.set_exact_fold(true);
    let (agg_pipe, party_pipe) = duplex();
    let mut driver = MultiJobDriver::new(StreamTransport::new(agg_pipe));
    let (id, endpoints) = driver.add_parts(parts).unwrap();
    assert_eq!(id, meta.job_id);
    let mut pool = PartyPool::new(StreamTransport::new(party_pipe));
    pool.add_job(id, endpoints);
    if tree {
        pool.enable_tree(id);
    }
    run_lockstep(&mut driver, std::slice::from_mut(&mut pool)).unwrap();
    (driver.history(id).unwrap().clone(), driver.stats())
}

#[test]
fn tree_aggregation_equals_flat_exact_fold_for_every_selector() {
    // The tentpole oracle, leg two: folding updates at the pool and
    // merging the 256-bit integer partial at the coordinator produces
    // the same bits as folding every update flat at the coordinator —
    // full RoundRecord equality, byte accounting included, for all five
    // selectors — while the uplink moves fewer frames (one partial per
    // pool per round instead of one frame per party update).
    for kind in SelectorKind::all() {
        let (flat, flat_stats) = exact_lockstep(&golden_builder(kind), false);
        let (tree, tree_stats) = exact_lockstep(&golden_builder(kind), true);
        assert_eq!(tree, flat, "{kind}: tree aggregation moved the history");
        assert!(
            tree_stats.frames_received < flat_stats.frames_received,
            "{kind}: the tree must shrink uplink fan-in ({} vs {})",
            tree_stats.frames_received,
            flat_stats.frames_received
        );
        // Raw-canonical byte accounting means the RoundRecord byte
        // columns agree even though the wire moved fewer frames.
        for (t, f) in tree.records().iter().zip(flat.records()) {
            assert_eq!(t.bytes_up, f.bytes_up, "{kind} round {}", t.round);
            assert_eq!(t.bytes_down, f.bytes_down, "{kind} round {}", t.round);
        }
    }
}

#[test]
fn tree_aggregation_matches_flat_exact_fold_across_two_shards() {
    // Leg two on the planned wire: `WireOptions::with_tree` turns
    // every link's pool into an inner node and every coordinator into
    // an exact-fold merger; the histories must equal the single-link
    // flat exact fold for all five selectors.
    for kind in SelectorKind::all() {
        let (flat, _) = exact_lockstep(&golden_builder(kind), false);
        let (history, _) = tree_lockstep(&golden_builder(kind));
        assert_eq!(history, flat, "{kind}: 2-link tree diverged from flat exact fold");
    }
}

/// `builder`'s job over the planned 2-link lockstep in tree mode.
fn tree_lockstep(builder: &SimulationBuilder) -> (History, DriverStats) {
    let (job, meta) = builder.build().unwrap();
    let wire = WireOptions::new(2).with_tree();
    let (mut driver, mut pools) = memory_wire(vec![job.into_parts()], &wire).unwrap();
    run_lockstep(&mut driver, &mut pools).unwrap();
    (driver.history(meta.job_id).unwrap().clone(), driver.stats())
}

/// The golden workload on a latency-derived deadline tight enough that
/// the slow tail is late (`tests/sharded_runtime.rs`'s shape).
fn latency_builder() -> SimulationBuilder {
    golden_builder(SelectorKind::Random)
        .straggler_rate(0.0)
        .deadline(DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 })
        .latency_sigma(0.8)
}

#[test]
fn tree_mode_on_latency_derived_deadlines_is_the_flat_exact_fold() {
    // A pool that folds a late update into its partial hides it from
    // the driver's per-update lateness check, and the round closes with
    // no stragglers at all. So the plan keeps a latency-derived job's
    // pools flat, and `.with_tree()` must equal the flat exact fold —
    // stragglers and the late-update counter included — on the 2-link
    // lockstep and over TCP.
    let (flat, flat_stats) = exact_lockstep(&latency_builder(), false);
    assert!(flat_stats.late_updates > 0, "the deadline must bite, or the test proves nothing");
    assert_eq!(flat_stats.late_updates as usize, flat.total_stragglers());

    let (tree, tree_stats) = tree_lockstep(&latency_builder());
    assert_eq!(tree, flat, "2-link tree mode moved a latency-derived history");
    assert_eq!(tree_stats.late_updates, flat_stats.late_updates);

    let (job, meta) = latency_builder().build().unwrap();
    let opts = SocketOptions::new(2).with_tree();
    let mut outcome = run_socket(vec![job.into_parts()], &opts).unwrap();
    assert_eq!(
        outcome.histories.remove(&meta.job_id).unwrap(),
        flat,
        "TCP tree mode moved a latency-derived history"
    );
    assert_eq!(outcome.stats.late_updates, flat_stats.late_updates);
}

#[test]
fn tree_aggregation_matches_flat_exact_fold_over_tcp() {
    // Leg two over real sockets: `SocketOptions::with_tree` folds at
    // every link worker; partial frames cross kernel TCP buffers and
    // must merge into the same bits as the lockstep flat exact fold.
    for kind in [SelectorKind::Random, SelectorKind::Flips, SelectorKind::Oort] {
        let (flat, _) = exact_lockstep(&golden_builder(kind), false);
        let (job, meta) = golden_builder(kind).build().unwrap();
        let opts = SocketOptions::new(2).with_tree();
        let mut outcome = run_socket(vec![job.into_parts()], &opts).unwrap();
        let history = outcome.histories.remove(&meta.job_id).unwrap();
        assert_eq!(history, flat, "{kind}: TCP tree diverged from flat exact fold");
    }
}

#[test]
fn default_mode_coordinator_rejects_tree_partials() {
    // Safety rail: a pool folding for a coordinator that was never put
    // in exact-fold mode must not corrupt the run — the partial bounces
    // as a wrong-direction frame and the round closes out its parties
    // as stragglers rather than folding unverifiable bits.
    let (job, meta) = golden_builder(SelectorKind::Random).build().unwrap();
    let parts = job.into_parts();
    let (agg_pipe, party_pipe) = duplex();
    let mut driver = MultiJobDriver::new(StreamTransport::new(agg_pipe));
    let (id, endpoints) = driver.add_parts(parts).unwrap();
    assert_eq!(id, meta.job_id);
    let mut pool = PartyPool::new(StreamTransport::new(party_pipe));
    pool.add_job(id, endpoints);
    pool.enable_tree(id);
    run_lockstep(&mut driver, std::slice::from_mut(&mut pool)).unwrap();
    let stats = driver.stats();
    assert!(stats.rejected_messages > 0, "partials must bounce off a default-mode coordinator");
    // Every round still closes (by deadline), so the history is full
    // length even though no update was ever accepted.
    assert_eq!(driver.history(id).unwrap().len(), 4);
}

// ---------------------------------------------------------------------
// 3. Bounded-memory roster state
// ---------------------------------------------------------------------

#[test]
fn hundred_thousand_party_roster_selects_under_a_bounded_cache() {
    // The bounded-memory claim at test scale (the full 10⁶ smoke rides
    // the bench harness): 100k registered parties sealed to disk, a
    // 4-segment cache, and a seeded selection pass that touches the
    // whole roster — never more than `budget` segments resident.
    let dir = SpillDir::new("100k");
    let budget = 4;
    let mut rb = RosterBuilder::spilling(&dir.0, budget).unwrap();
    let n = 100_000usize;
    for i in 0..n {
        rb.push(PartyRecord {
            data_size: (i as u64 * 31) % 997 + 1,
            latency_hint: 0.01 + (i as f64 * 0.61) % 2.0,
            label_counts: vec![(i as u64) % 5, (i as u64) % 3],
        })
        .unwrap();
    }
    let store = rb.finish().unwrap();
    assert_eq!(store.num_parties(), n);
    assert_eq!(store.spilled() as usize, n.div_ceil(4096));
    assert!(store.resident_segments() <= budget);

    use flips::selection::tifl::TiflConfig;
    use flips::selection::{RandomSelector, TiflSelector};
    let mut random = RandomSelector::from_source(&store, 7);
    let cohort = random.select(0, 64).unwrap();
    assert_eq!(cohort.len(), 64);
    assert!(cohort.iter().all(|&p| p < n));
    // TiFL tiers the full roster by streamed latency — a complete pass
    // over every sealed segment.
    let mut tifl = TiflSelector::from_source(&store, TiflConfig::default(), 7).unwrap();
    assert_eq!(tifl.select(0, 64).unwrap().len(), 64);
    assert!(
        store.resident_segments() <= budget,
        "selection paged {} segments resident (budget {budget})",
        store.resident_segments()
    );
    assert!(store.loaded() > 0, "the pass must actually have paged");
}
