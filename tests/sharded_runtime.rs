//! Equivalence of the N-link in-memory lockstep with the single-link
//! seeded paths, and of latency-derived deadlines with an external
//! replay of the deadline policy.
//!
//! The acceptance bar for a multi-link wire is the same one every
//! driver in this workspace has had to clear: a seeded run must be
//! **bit-identical** however it is executed. The in-process [`FlJob`]
//! run is the golden oracle; the serialized single-link driver and 1-,
//! 2-, 3- and 4-link runs of [`memory_wire`] + [`run_lockstep`] — in
//! every pump order, with hostile frames on the wire — must all
//! reproduce it: per-round accepted-update sets to the element, every
//! `RoundRecord` field to the bit. The runs are single-threaded, so
//! the counters and the chaos log replay too; the same wire plan over
//! real threads and sockets is `crates/flips-net/tests/socket_runtime.rs`.
//!
//! On the latency-derived path no victim set is ever injected: the
//! suite replays the deadline policy outside the runtime (durations are
//! a pure function of the latency model) and checks the runtime's
//! stragglers are exactly the parties the policy predicts.

use flips::fl::message::{deframe, frame, AGGREGATOR_DEST};
use flips::fl::{MemoryWire, ObservedLatency, PartyPool, StreamTransport};
use flips::prelude::*;

/// The shared workload: 12 parties, 4 rounds, heterogeneous latency
/// (log-normal σ = 0.8 gives a solid fast/slow spread), and a deadline
/// at 1.1× the observed median round trip — tight enough that the slow
/// tail misses rounds once the warm-up round has seeded the samples.
fn latency_builder(seed: u64) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(12)
        .rounds(4)
        .participation(0.25)
        .alpha(0.3)
        .selector(SelectorKind::Random)
        .deadline(DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 })
        .latency_sigma(0.8)
        .clustering_restarts(3)
        .test_per_class(8)
        .seed(seed)
}

/// The legacy injected-victims workload (the transport suites' shape).
fn injected_builder(seed: u64) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(12)
        .rounds(4)
        .participation(0.25)
        .alpha(0.3)
        .selector(SelectorKind::Random)
        .straggler_rate(0.25)
        .clustering_restarts(3)
        .test_per_class(8)
        .seed(seed)
}

/// Runs `builder`'s job to completion over the in-memory wire `wire`
/// plans; the driver and `pools[link]` come back for their counters.
fn lockstep(builder: &SimulationBuilder, wire: &WireOptions) -> (History, MemoryWire) {
    let (job, meta) = builder.build().unwrap();
    let (mut driver, mut pools) = memory_wire(vec![job.into_parts()], wire).unwrap();
    run_lockstep(&mut driver, &mut pools).unwrap();
    (driver.history(meta.job_id).unwrap().clone(), (driver, pools))
}

#[test]
fn sharded_runs_reproduce_the_single_thread_golden_bit_exactly() {
    // The tentpole acceptance criterion: 1, 2 and 4 links, same
    // history as the seeded in-process run — full `RoundRecord`
    // equality, which subsumes per-round accepted-update (`completed`)
    // set equality.
    let golden = latency_builder(11).run().unwrap().history;
    assert!(
        golden.total_stragglers() > 0,
        "the workload must exercise deadline pressure, or the test proves nothing"
    );
    for links in [1, 2, 4] {
        let (history, (driver, _)) = lockstep(&latency_builder(11), &WireOptions::new(links));
        assert_eq!(history, golden, "{links}-link history diverged from the golden");
        let stats = driver.stats();
        assert_eq!(stats.corrupt_frames, 0);
        assert_eq!(stats.unknown_job_frames, 0);
        assert!(
            stats.late_updates > 0,
            "stragglers on this path must come from late updates, not injection"
        );
    }
}

#[test]
fn lockstep_serialized_driver_agrees_on_the_latency_deadline_path() {
    // The latency-derived deadline is a driver-layer policy; the
    // serialized driver on one hand-wired stream link must implement it
    // identically to both the in-process job and the planned wires.
    let golden = latency_builder(11).run().unwrap().history;
    let (job, meta) = latency_builder(11).build().unwrap();
    let (agg_pipe, party_pipe) = duplex();
    let mut driver = MultiJobDriver::new(StreamTransport::new(agg_pipe));
    let (id, endpoints) = driver.add_parts(job.into_parts()).unwrap();
    assert_eq!(id, meta.job_id);
    let mut pool = PartyPool::new(StreamTransport::new(party_pipe));
    pool.add_job(id, endpoints);
    run_lockstep(&mut driver, std::slice::from_mut(&mut pool)).unwrap();
    assert_eq!(driver.history(id).unwrap(), &golden);
    assert!(driver.stats().late_updates > 0);
}

#[test]
fn stragglers_are_exactly_the_parties_the_deadline_policy_predicts() {
    // No injected victim set exists on this path, so who straggles must
    // be derivable outside the runtime: replay the policy against the
    // latency model (round-trip durations are a pure function of party
    // id — fixed samples, fixed epochs) and compare round by round.
    let policy = DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 };
    let (job, _) = latency_builder(11).build().unwrap();
    let latency = job.latency_model().clone();
    let samples = job.sample_counts();
    let epochs = DatasetProfile::femnist().local_epochs;
    let duration = |p: usize| latency.duration(p, samples[p], epochs);

    let (history, _) = lockstep(&latency_builder(11), &WireOptions::new(2));
    let mut observed = ObservedLatency::new();
    let mut saw_straggler_round = false;
    for record in history.records() {
        let deadline = policy.deadline_secs(&mut observed);
        let expected: Vec<usize> = record
            .selected
            .iter()
            .copied()
            .filter(|&p| deadline.is_some_and(|d| duration(p) > d))
            .collect();
        assert_eq!(
            record.stragglers, expected,
            "round {}: stragglers must follow from the latency model (deadline {deadline:?})",
            record.round
        );
        saw_straggler_round |= !expected.is_empty();
        for &p in &record.selected {
            observed.record(duration(p));
        }
    }
    assert!(saw_straggler_round, "the replay never predicted a straggler — tighten the policy");
}

#[test]
fn late_update_count_equals_total_stragglers() {
    // Every straggler on the observed path is a party whose reply
    // arrived and was withheld — the two counters must agree exactly.
    let (history, (driver, _)) = lockstep(&latency_builder(11), &WireOptions::new(4));
    assert_eq!(driver.stats().late_updates as usize, history.total_stragglers());
}

#[test]
fn fixed_deadline_policy_runs_and_aborts_the_slow_tail() {
    // A hard SLA window: parties slower than 120 ms of simulated round
    // trip miss every round they are selected for, from round 0 (no
    // warm-up — the window is fixed).
    let builder = latency_builder(31).deadline(DeadlinePolicy::FixedSeconds { secs: 0.12 });
    let golden = builder.run().unwrap().history;
    let (history, _) = lockstep(&builder, &WireOptions::new(3));
    assert_eq!(history, golden);
}

#[test]
fn a_nan_infinite_or_negative_duration_misses_a_bounded_deadline() {
    // On a bounded deadline an update is on time only when
    // `0 ≤ duration ≤ deadline`. A duration the sample store refuses as
    // poison must not pass the comparison either: the update is
    // withheld — delivered twice, counted once — and its sender closes
    // as a straggler.
    let builder = latency_builder(31).deadline(DeadlinePolicy::FixedSeconds { secs: 10.0 });
    for hostile in [f64::NAN, f64::INFINITY, -1.0] {
        let (job, _) = builder.build().unwrap();
        let (agg_end, mut party_end) = MemoryTransport::pair();
        let mut driver = MultiJobDriver::new(agg_end);
        let (id, mut endpoints) = driver.add_parts(job.into_parts()).unwrap();
        driver.start().unwrap();
        let mut victim = None;
        while let Some(raw) = party_end.try_recv().unwrap() {
            let (to, msg) = deframe(raw).unwrap();
            for mut reply in endpoints[to as usize].handle(&msg).unwrap() {
                if let WireMessage::LocalUpdate { party, duration, .. } = &mut reply {
                    if *victim.get_or_insert(*party) == *party {
                        *duration = hostile;
                        party_end.send(&frame(AGGREGATOR_DEST, &reply)).unwrap();
                    }
                }
                party_end.send(&frame(AGGREGATOR_DEST, &reply)).unwrap();
            }
        }
        driver.pump().unwrap();
        assert_eq!(driver.stats().late_updates, 1, "duration {hostile} was not judged late once");
        assert!(driver.advance_clock().unwrap());
        let round = &driver.history(id).unwrap().records()[0];
        assert_eq!(round.stragglers, [victim.unwrap() as PartyId], "duration {hostile}");
        assert_eq!(round.completed.len(), round.selected.len() - 1, "duration {hostile}");
    }
}

#[test]
fn injected_victim_sets_also_shard_identically() {
    // The legacy path must survive the split unchanged: the victim
    // draw happens in the driver at round open, so the link count
    // cannot perturb the injector's RNG stream.
    let golden = injected_builder(11).run().unwrap().history;
    for links in [1, 2, 4] {
        let (history, (driver, _)) = lockstep(&injected_builder(11), &WireOptions::new(links));
        assert_eq!(history, golden, "{links}-link injected run diverged");
        assert_eq!(driver.stats().late_updates, 0, "no late updates on the injected path");
    }
}

#[test]
fn entropy_wire_replays_every_selector_golden_across_two_shards() {
    // The entropy-stage acceptance bar, multi-link flavor: all five
    // selector goldens over a 2-link wire with `DeltaEntropy`
    // negotiated on both links — bit-identical to the in-process run.
    for selector in SelectorKind::all() {
        let base = latency_builder(11).selector(selector);
        let golden = base.clone().run().unwrap().history;
        let (history, (driver, pools)) =
            lockstep(&base.codec(ModelCodec::DeltaEntropy), &WireOptions::new(2));
        assert_eq!(history, golden, "{selector:?} over the 2-link entropy wire diverged");
        assert_eq!(driver.stats().codec_mismatch_frames, 0, "{selector:?}");
        assert_eq!(driver.stats().corrupt_frames, 0, "{selector:?}");
        // Every link speaks the job's own codec.
        let job = driver.job_ids()[0];
        assert_eq!(driver.codec_of(job), Some(ModelCodec::DeltaEntropy), "{selector:?}");
        for pool in &pools {
            assert_eq!(pool.negotiated_codec(job), driver.codec_of(job), "{selector:?}");
        }
    }
}

#[test]
fn multiple_jobs_with_mixed_policies_and_codecs_share_the_sharded_wire() {
    // Three jobs — different seeds, codecs and deadline models — run
    // concurrently across the same three links; each must finish with
    // exactly its solo history.
    let configs: Vec<SimulationBuilder> = vec![
        latency_builder(11).codec(ModelCodec::DeltaLossless),
        injected_builder(23),
        latency_builder(37).deadline(DeadlinePolicy::FixedSeconds { secs: 0.12 }),
    ];
    let solo: Vec<(u64, History)> = configs
        .iter()
        .map(|b| {
            let report = b.run().unwrap();
            (report.meta.job_id, report.history)
        })
        .collect();
    let jobs: Vec<_> = configs.iter().map(|b| b.build().unwrap().0.into_parts()).collect();
    let (mut driver, mut pools) = memory_wire(jobs, &WireOptions::new(3)).unwrap();
    run_lockstep(&mut driver, &mut pools).unwrap();
    assert_eq!(driver.job_ids().len(), 3);
    for (id, history) in &solo {
        assert_eq!(
            driver.history(*id),
            Some(history),
            "job {id:#x} diverged under multi-link multiplexing"
        );
    }
}

#[test]
fn ewma_deadline_policy_shards_identically_with_guards_enabled() {
    // The EWMA deadline is sealed per round open (order-independent
    // batch means), so it must split exactly like the quantile policy —
    // here additionally with the default guard plane installed, which
    // must be invisible on a conformant run.
    let builder = latency_builder(11).deadline(DeadlinePolicy::Ewma { alpha: 0.3, slack: 1.1 });
    let golden = builder.run().unwrap().history;
    assert!(
        golden.total_stragglers() > 0,
        "the EWMA window must bite the slow tail, or the test proves nothing"
    );
    for links in [1, 2, 4] {
        let wire = WireOptions::new(links).with_guard(GuardConfig::default());
        let (history, (driver, _)) = lockstep(&builder, &wire);
        assert_eq!(history, golden, "{links}-link EWMA history diverged from the golden");
        assert_eq!(driver.stats().parties_ejected, 0);
        assert_eq!(driver.stats().rate_limited_frames, 0);
        assert!(driver.guard().unwrap().transitions().is_empty());
    }
}

#[test]
fn guards_and_seeded_chaos_leave_sharded_latency_histories_untouched() {
    // The latency-deadline flavor of the guard-plane acceptance bar:
    // seeded chaos schedules (duplicates, corrupt copies, delays and
    // floods at an unowned job) on the 2-link uplink, default guards
    // installed — bit-identical histories, chaos visible in the log.
    let golden = latency_builder(11).run().unwrap().history;
    for chaos_seed in [5u64, 77, 4242] {
        let wire = WireOptions::new(2)
            .with_guard(GuardConfig::default())
            .with_chaos(ChaosSchedule::seeded(chaos_seed));
        let (history, (driver, _)) = lockstep(&latency_builder(11), &wire);
        assert_eq!(history, golden, "chaos seed {chaos_seed} moved the 2-link history");
        assert_eq!(driver.stats().parties_ejected, 0, "seed {chaos_seed} tripped a breaker");
        assert!(driver.guard().unwrap().transitions().is_empty());
        assert!(
            !driver.transport().log().is_empty(),
            "seed {chaos_seed} applied no chaos — the run proves nothing"
        );
    }
}

/// Every order in which three pools can be pumped.
const PUMP_ORDERS: [[usize; 3]; 6] =
    [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];

#[test]
fn every_pump_order_closes_on_one_history_and_one_set_of_counters() {
    // The exhaustive small scope behind "histories are not a function
    // of scheduling": three links, all six orders in which
    // `run_lockstep` can pump their pools, every selector, latency-
    // derived and injected deadlines, default guards watching. Each
    // order must close on the in-process golden and on the very same
    // `DriverStats` — frame, byte and late-update counts included.
    let wire = WireOptions::new(3).with_guard(GuardConfig::default());
    for selector in SelectorKind::all() {
        for base in [latency_builder(11), injected_builder(11)] {
            let builder = base.selector(selector);
            let golden = builder.run().unwrap();
            let mut first: Option<DriverStats> = None;
            for order in &PUMP_ORDERS {
                let (job, _) = builder.build().unwrap();
                let (mut driver, pools) = memory_wire(vec![job.into_parts()], &wire).unwrap();
                let mut by_link: Vec<_> = pools.into_iter().map(Some).collect();
                let mut pools: Vec<_> = order.iter().map(|&l| by_link[l].take().unwrap()).collect();
                run_lockstep(&mut driver, &mut pools).unwrap();
                assert_eq!(
                    driver.history(golden.meta.job_id),
                    Some(&golden.history),
                    "{selector:?}: pump order {order:?} moved the history"
                );
                let stats = driver.stats();
                assert_eq!(
                    *first.get_or_insert(stats),
                    stats,
                    "{selector:?}: pump order {order:?} moved a wire counter"
                );
            }
        }
    }
}

/// Hostile uplink frames: a truncated frame, a corrupt magic, a
/// well-formed frame for a job nobody owns, and a forged duplicate
/// heartbeat for a real job. All must be dropped, rejected or
/// deduplicated without moving any round's state.
fn chaos_frames(real_job: u64) -> Vec<bytes::Bytes> {
    let whole =
        frame(AGGREGATOR_DEST, &WireMessage::Heartbeat { job: real_job, round: 0, party: 1 });
    let mut corrupt = whole.to_vec();
    corrupt[8] ^= 0xFF;
    vec![
        whole.slice(0..5),
        bytes::Bytes::from(corrupt),
        frame(AGGREGATOR_DEST, &WireMessage::Heartbeat { job: 0xDEAD_BEEF, round: 0, party: 3 }),
        whole,
    ]
}

#[test]
fn scheduling_jitter_and_chaos_frames_never_move_the_histories() {
    // Hostile frames slipped onto both directions of link 0 through
    // cloned pipe ends while the pools are pumped in a rotated order. The
    // fault kinds mirror `tests/transport_faults.rs`; the oracle is the
    // same — bit-identical histories, and every hostile frame visible
    // in exactly one counter.
    let golden = latency_builder(11).run().unwrap();
    for (links, rotation) in [(2, 1), (3, 2), (4, 3)] {
        let (job, _) = latency_builder(11).build().unwrap();
        let (mut driver, mut pools) =
            memory_wire(vec![job.into_parts()], &WireOptions::new(links)).unwrap();
        let mut to_driver = StreamTransport::new(pools[0].transport().get_ref().clone());
        let mut to_pool =
            StreamTransport::new(driver.transport().inner().link(0).get_ref().clone());
        for hostile in chaos_frames(golden.meta.job_id) {
            to_driver.send(&hostile).unwrap();
        }
        to_pool
            .send(&frame(
                1,
                &WireMessage::GlobalModel {
                    job: 0xDEAD_BEEF,
                    round: 0,
                    params: vec![1.0; 4].into(),
                },
            ))
            .unwrap();
        pools.rotate_left(rotation);
        run_lockstep(&mut driver, &mut pools).unwrap();
        assert_eq!(
            driver.history(golden.meta.job_id),
            Some(&golden.history),
            "hostile frames over {links} links (pump order rotated by {rotation}) moved the history"
        );
        // The hostile traffic must be visible in the counters (dropped,
        // not lost): 2 corrupt/truncated + 1 unknown job on the uplink,
        // 1 unroutable on link 0's downlink.
        assert_eq!(driver.stats().corrupt_frames, 2);
        assert_eq!(driver.stats().unknown_job_frames, 1);
        assert_eq!(pools.iter().map(PartyPool::unroutable).sum::<u64>(), 1);
    }
}
