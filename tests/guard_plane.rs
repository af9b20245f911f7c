//! The guard plane under seeded chaos: determinism, ejection
//! equivalence, drain semantics.
//!
//! Three oracles pin the guard plane's behavior:
//!
//! 1. **Transparency.** With the default (permissive) [`GuardConfig`]
//!    installed, every selector's seeded golden history replays
//!    bit-identically under ≥3 distinct seeded chaos schedules — over
//!    the single-link lockstep wire and the planned 2-link one alike.
//!    Guards must never move a protocol-conformant run.
//! 2. **Ejection ≡ victim injection.** A flooding party tripped by its
//!    breaker produces exactly the history of a run where the same
//!    party was scripted as a deadline victim in the same rounds — so
//!    ejecting a hostile party provably never moves any *other* party's
//!    history.
//! 3. **Purity.** Breaker transitions, guard counters and the applied
//!    chaos log are a pure function of the schedule, on one link or
//!    several: run the same seeded chaos twice, compare everything.
//!    Chaos scoped to one job leaves its wire-mates bit-identical to
//!    their solo runs.

use flips::fl::message::{frame, AGGREGATOR_DEST};
use flips::fl::{BreakerTransition, ChaosEvent, PartyPool};
use flips::prelude::*;
use proptest::prelude::*;

const CHAOS_SEEDS: [u64; 3] = [7, 101, 90210];

/// A 2-link wire splits the uplink across two links with their own
/// frame-index streams, so a seed that perturbs the single-link
/// lockstep wire can draw all-Deliver there; these seeds are verified
/// non-vacuous on the 2-link layout for every selector.
const SHARDED_CHAOS_SEEDS: [u64; 3] = [13, 101, 90210];

/// The golden workload of `tests/protocol_equivalence.rs`: its solo
/// run is the oracle every guarded/chaotic variant must reproduce.
fn builder(kind: SelectorKind) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(12)
        .rounds(4)
        .participation(0.25)
        .alpha(0.3)
        .selector(kind)
        .straggler_rate(0.25)
        .clustering_restarts(3)
        .test_per_class(8)
        .seed(11)
}

fn solo(kind: SelectorKind) -> History {
    builder(kind).run().unwrap().history
}

/// Runs one golden job over the serialized lockstep wire with `guard`
/// installed and `schedule` perturbing the uplink.
fn run_guarded_lockstep(
    kind: SelectorKind,
    schedule: ChaosSchedule,
    guard: GuardConfig,
) -> (History, DriverStats, Vec<BreakerTransition>, Vec<ChaosEvent>) {
    let (job, meta) = builder(kind).build().unwrap();
    let (agg_end, party_end) = MemoryTransport::pair();
    let mut driver = MultiJobDriver::new(ChaosTransport::new(agg_end, schedule));
    driver.set_guard(guard).unwrap();
    let (id, endpoints) = driver.add_parts(job.into_parts()).unwrap();
    assert_eq!(id, meta.job_id);
    let mut pool = PartyPool::new(party_end);
    pool.add_job(id, endpoints);
    run_lockstep(&mut driver, std::slice::from_mut(&mut pool)).unwrap();
    (
        driver.history(id).unwrap().clone(),
        driver.stats(),
        driver.guard().unwrap().transitions().to_vec(),
        driver.transport().log().to_vec(),
    )
}

#[test]
fn guarded_chaos_lockstep_replays_every_selector_golden() {
    // The tentpole acceptance bar, serialized mode: all five selector
    // goldens, three distinct chaos seeds, default guards — histories
    // to the bit, no breaker ever trips on conformant traffic.
    for kind in SelectorKind::all() {
        let clean = solo(kind);
        for seed in CHAOS_SEEDS {
            let (history, stats, transitions, log) =
                run_guarded_lockstep(kind, ChaosSchedule::seeded(seed), GuardConfig::default());
            assert_eq!(history, clean, "{kind}: chaos seed {seed} moved the guarded history");
            assert_eq!(stats.parties_ejected, 0, "{kind}: seed {seed} tripped a breaker");
            assert!(transitions.is_empty(), "{kind}: seed {seed} logged transitions");
            assert!(!log.is_empty(), "{kind}: seed {seed} applied no chaos — the test is vacuous");
        }
    }
}

#[test]
fn guarded_chaos_sharded_replays_every_selector_golden() {
    // Same bar on the planned 2-link wire: schedule and guards ride in
    // through `WireOptions`, each link draws from its own frame-index
    // stream, and every default-weight action is non-destructive, so
    // the histories cannot move.
    for kind in SelectorKind::all() {
        let clean = solo(kind);
        for seed in SHARDED_CHAOS_SEEDS {
            let (job, meta) = builder(kind).build().unwrap();
            let wire = WireOptions::new(2)
                .with_guard(GuardConfig::default())
                .with_chaos(ChaosSchedule::seeded(seed));
            let (mut driver, mut pools) = memory_wire(vec![job.into_parts()], &wire).unwrap();
            run_lockstep(&mut driver, &mut pools).unwrap();
            assert_eq!(
                driver.history(meta.job_id),
                Some(&clean),
                "{kind}: chaos seed {seed} moved the 2-link guarded history"
            );
            assert_eq!(driver.stats().parties_ejected, 0, "{kind}: seed {seed}");
            assert!(driver.guard().unwrap().transitions().is_empty(), "{kind}: seed {seed}");
            assert!(!driver.transport().log().is_empty(), "{kind}: seed {seed} applied no chaos");
        }
    }
}

/// A strict breaker that isolates the circuit-breaker path: no rate
/// limit, no admission cap, a low strike threshold.
fn strict_breaker(threshold: u32) -> GuardConfig {
    GuardConfig {
        rate_limit: None,
        admission_factor: None,
        breaker: Some(BreakerConfig { strike_threshold: threshold, ..BreakerConfig::default() }),
        ..GuardConfig::default()
    }
}

#[test]
fn flooding_party_is_ejected_exactly_like_a_scripted_victim() {
    // A hostile party floods the aggregator with forged out-of-round
    // heartbeats; its breaker trips and the guard ejects it at the next
    // round open. The oracle: an UNGUARDED run of the same seeded job
    // where a `ScriptedClock` marks that party a deadline victim in
    // exactly the rounds the breaker held it out — full-history
    // equality, which proves no OTHER party's trajectory moved by more
    // or less than a legitimate straggler would have moved it.
    let hostile: u64 = 1;
    let build = || builder(SelectorKind::Random).straggler_rate(0.0).build().unwrap();

    // Guarded run with the flood on the wire.
    let (job, _) = build();
    let (agg_end, party_end) = MemoryTransport::pair();
    let mut to_driver = StreamTransport::new(party_end.get_ref().clone());
    let mut driver = MultiJobDriver::new(agg_end);
    driver.set_guard(strict_breaker(4)).unwrap();
    let (id, endpoints) = driver.add_parts(job.into_parts()).unwrap();
    let mut pool = PartyPool::new(party_end);
    pool.add_job(id, endpoints);

    driver.start().unwrap();
    let mut window = 0u64;
    loop {
        if window < 2 {
            // Five forged heartbeats per window, round u64::MAX: each
            // bounces with WrongRound and strikes the claimed sender.
            let forged = frame(
                AGGREGATOR_DEST,
                &WireMessage::Heartbeat { job: id, round: u64::MAX, party: hostile },
            );
            for _ in 0..5 {
                to_driver.send(&forged).unwrap();
            }
        }
        window += 1;
        loop {
            let drove = driver.pump().unwrap();
            let pooled = pool.pump().unwrap();
            if !drove && !pooled {
                break;
            }
        }
        if driver.is_finished() {
            break;
        }
        assert!(driver.advance_clock().unwrap(), "driver stalled");
    }

    let guarded = driver.history(id).unwrap().clone();
    let stats = driver.stats();
    assert!(stats.parties_ejected >= 1, "the flood must trip the hostile party's breaker");
    let transitions = driver.guard().unwrap().transitions();
    assert!(
        transitions.iter().any(|t| t.job == id && t.party == hostile && t.to == BreakerState::Open),
        "expected an Open transition for party {hostile}, got {transitions:?}"
    );
    let script: Vec<Vec<PartyId>> =
        guarded.records().iter().map(|r| r.stragglers.clone()).collect();
    assert!(
        script.iter().any(|v| v.contains(&(hostile as PartyId))),
        "the ejection never bit — the hostile party was never held out of a round it was \
         selected for: {script:?}"
    );
    assert!(
        script.iter().flatten().all(|&p| p as u64 == hostile),
        "with straggler injection off, only the ejected party may straggle: {script:?}"
    );

    // Reference run: no guard, no flood — the same rounds scripted as
    // injected victim sets.
    let (job, _) = build();
    let JobParts { coordinator, endpoints, latency, .. } = job.into_parts();
    let (agg_end, party_end) = MemoryTransport::pair();
    let mut reference = MultiJobDriver::new(agg_end);
    let ref_id =
        reference.add_job(coordinator, Box::new(ScriptedClock::new(script)), latency).unwrap();
    assert_eq!(ref_id, id);
    let mut ref_pool = PartyPool::new(party_end);
    ref_pool.add_job(ref_id, endpoints);
    run_lockstep(&mut reference, std::slice::from_mut(&mut ref_pool)).unwrap();
    assert_eq!(
        reference.history(ref_id).unwrap(),
        &guarded,
        "breaker ejection must be indistinguishable from scripted victim injection"
    );
}

#[test]
fn drain_finishes_open_rounds_then_refuses_new_selections() {
    // Graceful drain: rounds already open run to their deadline and
    // close normally; every subsequent selection is refused; the driver
    // reports quiescence with a consistent final snapshot.
    let (agg_end, party_end) = MemoryTransport::pair();
    let mut driver = MultiJobDriver::new(agg_end);
    driver.set_guard(GuardConfig::default()).unwrap();
    let mut pool = PartyPool::new(party_end);
    let mut ids = Vec::new();
    for seed in [11u64, 23] {
        let (job, _) = builder(SelectorKind::Random).seed(seed).build().unwrap();
        let (id, endpoints) = driver.add_parts(job.into_parts()).unwrap();
        pool.add_job(id, endpoints);
        ids.push(id);
    }

    driver.start().unwrap();
    driver.begin_drain();
    assert!(driver.is_draining());
    loop {
        loop {
            let drove = driver.pump().unwrap();
            let pooled = pool.pump().unwrap();
            if !drove && !pooled {
                break;
            }
        }
        if driver.is_quiescent() {
            break;
        }
        assert!(driver.advance_clock().unwrap(), "drain stalled before quiescence");
    }

    assert!(!driver.is_finished(), "drain refuses the round budget, it does not finish it");
    assert_eq!(driver.stats().drain_refused_selections, 2, "one refused selection per job");
    for id in &ids {
        assert_eq!(
            driver.history(*id).unwrap().len(),
            1,
            "exactly the already-open round may close during drain"
        );
    }
    let report = driver.drain_report();
    assert!(report.open_rounds.is_empty(), "quiescence means no open rounds: {report:?}");
    assert_eq!(report.stats, driver.stats());
    let mut completed = report.rounds_completed.clone();
    completed.sort_unstable();
    let mut expected: Vec<(u64, usize)> = ids.iter().map(|&id| (id, 1)).collect();
    expected.sort_unstable();
    assert_eq!(completed, expected);
}

/// The smaller two-job workload of `tests/transport_faults.rs` — cheap
/// enough to run several times per proptest case.
fn small_builder(seed: u64) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(10)
        .rounds(3)
        .participation(0.3)
        .selector(SelectorKind::Random)
        .straggler_rate(0.25)
        .test_per_class(6)
        .seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random chaos schedules × breaker configs, each on 1, 2 and 3
    /// links: (a) jobs the schedule does not target stay bit-identical
    /// to their solo runs, (b) the whole guarded outcome — histories,
    /// counters, breaker transitions, applied-chaos log — is a pure
    /// function of the schedule (replay the run, compare everything).
    /// On several links that includes which `(link, index)` drew which
    /// action: the lockstep is single-threaded, so nothing is left to
    /// interleaving.
    #[test]
    fn chaos_outcomes_are_pure_and_scoped_to_the_targeted_job(
        chaos_seed in 0u64..(1 << 48),
        threshold in 6u32..24,
        cooldown in 1u64..4,
        flood_frames in 1u32..6,
        dup_w in 0u32..3,
        corrupt_w in 0u32..3,
        delay_w in 0u32..3,
        flood_w in 0u32..4,
    ) {
        let run = |links: usize| {
            let (job0, m0) = small_builder(11).build().unwrap();
            let (job1, m1) = small_builder(23).build().unwrap();
            let schedule = ChaosSchedule::seeded(chaos_seed)
                .weights(ChaosWeights {
                    deliver: 10,
                    drop: 0,
                    duplicate: dup_w,
                    corrupt: corrupt_w,
                    delay: delay_w,
                    flood: flood_w,
                    disconnect: 0,
                })
                .target_job(m0.job_id)
                // Aim forged floods at a real party of the targeted job
                // so strict thresholds genuinely trip its breaker.
                .flood_target(m0.job_id, 2, flood_frames);
            let guard = GuardConfig {
                breaker: Some(BreakerConfig {
                    strike_threshold: threshold,
                    cooldown_rounds: cooldown,
                    ..BreakerConfig::default()
                }),
                ..GuardConfig::default()
            };
            let wire = WireOptions::new(links).with_guard(guard).with_chaos(schedule);
            let jobs = vec![job0.into_parts(), job1.into_parts()];
            let (mut driver, mut pools) = memory_wire(jobs, &wire).unwrap();
            run_lockstep(&mut driver, &mut pools).unwrap();
            (
                driver.history(m0.job_id).unwrap().clone(),
                driver.history(m1.job_id).unwrap().clone(),
                driver.stats(),
                driver.guard().unwrap().transitions().to_vec(),
                driver.transport().log().to_vec(),
            )
        };

        let (mut job1, _) = small_builder(23).build().unwrap();
        let solo1 = job1.run().unwrap();
        for links in 1..=3 {
            let first = run(links);
            let second = run(links);
            prop_assert_eq!(&first.0, &second.0, "targeted job's history must replay");
            prop_assert_eq!(&first.1, &second.1, "untargeted job's history must replay");
            prop_assert_eq!(first.2, second.2, "guard counters must replay");
            prop_assert_eq!(&first.3, &second.3, "breaker transitions must replay");
            prop_assert_eq!(&first.4, &second.4, "the applied-chaos log must replay");
            prop_assert_eq!(&first.1, &solo1, "chaos scoped to one job moved its wire-mate");
        }
    }
}
