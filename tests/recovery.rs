//! The failure-recovery plane: checkpoint/restore bit-equality, party
//! churn, and `Disconnect` as a seeded replayable fault.
//!
//! Three oracles pin the recovery plane's behavior:
//!
//! 1. **Restore ≡ uninterrupted.** A run snapshotted at *every* round
//!    boundary and restored from *any* of those snapshots into a fresh
//!    driver + party pool finishes with the exact history AND the exact
//!    final wire counters of the uninterrupted run — for all five
//!    selectors, on injected and latency-derived deadlines (a checkpoint
//!    of the other straggler model is refused), and with the
//!    delta-entropy codec re-keyed from the
//!    snapshot's reference (so encoded byte counts match to the byte).
//! 2. **Churn is a roster edit, not a perturbation.** A party retired
//!    through [`MultiJobDriver::party_left`] is never selected again
//!    until [`MultiJobDriver::party_joined`] readmits it; the
//!    availability mask rides through checkpoints, so a restore mid-churn
//!    continues exactly the churned run.
//! 3. **Disconnect replays.** With the `Disconnect` chaos action drawn
//!    from a seeded schedule — severing a link and backlogging its
//!    traffic until the wire runs dry — every selector golden is
//!    bit-identical on the single-link lockstep wire and the planned
//!    2-link one alike.
//! 4. **The scale plane composes.** A run whose selectors stream a
//!    spill-backed [`RosterStore`] restores from every boundary onto the
//!    flat golden, and the roster spill/load counters are live gauges of
//!    the attached store — never checkpoint state.

use flips::fl::{ChaosEvent, Checkpoint, FlError};
use flips::prelude::*;

mod common;
use common::golden_builder as builder;

const CHAOS_SEEDS: [u64; 3] = [7, 101, 90210];
const SHARDED_CHAOS_SEEDS: [u64; 3] = [13, 101, 90210];

/// Chaos weights with the link-severing action live (drops stay off:
/// `Disconnect` must be the only new perturbation under test).
fn disconnect_weights() -> ChaosWeights {
    ChaosWeights { disconnect: 2, ..ChaosWeights::default() }
}

fn disconnects(log: &[ChaosEvent]) -> usize {
    log.iter().filter(|e| matches!(e.action, ChaosAction::Disconnect)).count()
}

/// Builds a fresh lockstep driver + pool pair for `builder`'s job.
fn fresh_pair(
    builder: &SimulationBuilder,
) -> (MultiJobDriver<MemoryTransport>, PartyPool<MemoryTransport>, u64) {
    let (job, meta) = builder.build().unwrap();
    let (agg_end, party_end) = MemoryTransport::pair();
    let mut driver = MultiJobDriver::new(agg_end);
    let (id, endpoints) = driver.add_parts(job.into_parts()).unwrap();
    assert_eq!(id, meta.job_id);
    let mut pool = PartyPool::new(party_end);
    pool.add_job(id, endpoints);
    (driver, pool, id)
}

/// [`run_lockstep`] with the checkpoint seam opened: deferred round
/// opens expose every round boundary, and a [`Checkpoint`] is captured
/// at each one (the final boundary included) — exactly the loop the
/// socket server runs when `--checkpoint-dir` is set.
fn run_lockstep_checkpointing(
    driver: &mut MultiJobDriver<MemoryTransport>,
    pool: &mut PartyPool<MemoryTransport>,
) -> Vec<Checkpoint> {
    driver.set_deferred_opens(true).unwrap();
    driver.start().unwrap();
    let mut snapshots = Vec::new();
    loop {
        loop {
            let drove = driver.pump().unwrap();
            let pooled = pool.pump().unwrap();
            if !drove && !pooled {
                break;
            }
        }
        if driver.has_pending_opens() {
            assert!(driver.at_round_boundary(), "pending open away from a round boundary");
            snapshots.push(driver.checkpoint().unwrap());
            driver.open_pending().unwrap();
            continue;
        }
        if driver.is_finished() || driver.is_quiescent() {
            assert!(driver.at_round_boundary());
            // The final round's close already queued (and snapshotted) a
            // pending open that turned out to be a no-op; only record the
            // terminal boundary when it actually differs.
            let cp = driver.checkpoint().unwrap();
            if snapshots.last().map(Checkpoint::encode) != Some(cp.encode()) {
                snapshots.push(cp);
            }
            return snapshots;
        }
        assert!(driver.advance_clock().unwrap(), "driver stalled at a quiet wire");
    }
}

/// Restores `cp` into a fresh driver + pool for `builder`'s job, seeds
/// the pool-side delta references the way the socket server's
/// `RefSync` frames would, and runs the remainder to completion.
fn restore_and_finish(
    builder: &SimulationBuilder,
    cp: &Checkpoint,
    codec: Option<ModelCodec>,
) -> (History, DriverStats, u64) {
    let (mut driver, mut pool, id) = fresh_pair(builder);
    driver.restore(cp).unwrap();
    // A restored run re-enters mid-job, past the round-0 negotiation
    // notice — pin the wire codec the way `flips-party` pins it from
    // its config before the server's `RefSync` frames land.
    if let Some(codec) = codec {
        pool.pin_codec(id, codec);
    }
    for r in &cp.codec_refs {
        assert!(
            pool.seed_reference(r.job, r.ref_round, &r.params),
            "pool refused a checkpointed delta reference (job {:#x}, round {})",
            r.job,
            r.ref_round
        );
    }
    run_lockstep(&mut driver, std::slice::from_mut(&mut pool)).unwrap();
    (driver.history(id).unwrap().clone(), driver.stats(), id)
}

#[test]
fn deferred_opens_leave_every_selector_golden_unmoved() {
    // The checkpoint seam itself must be invisible: a run whose round
    // opens are deferred to the boundary hook replays the inline-open
    // golden bit-identically and snapshots once per boundary.
    for kind in SelectorKind::all() {
        let golden = builder(kind).run().unwrap().history;
        let (mut driver, mut pool, id) = fresh_pair(&builder(kind));
        let snapshots = run_lockstep_checkpointing(&mut driver, &mut pool);
        assert_eq!(
            driver.history(id).unwrap(),
            &golden,
            "{kind}: deferred round opens moved the history"
        );
        // 4 rounds → boundaries after rounds 1..3 plus the final one.
        assert_eq!(snapshots.len(), 4, "{kind}: wrong boundary count");
        for (i, cp) in snapshots.iter().enumerate() {
            assert_eq!(cp.jobs.len(), 1);
            assert_eq!(cp.jobs[0].history.len(), i + 1, "{kind}: snapshot {i} captured early");
        }
    }
}

#[test]
fn restore_from_every_boundary_replays_the_golden() {
    // The tentpole oracle: restore-then-run is indistinguishable from
    // never having stopped — full history equality AND full
    // `DriverStats` equality (frame and byte counters included) from
    // every capturable boundary, for every selector.
    for kind in SelectorKind::all() {
        let golden = builder(kind).run().unwrap().history;
        let (mut driver, mut pool, id) = fresh_pair(&builder(kind));
        let snapshots = run_lockstep_checkpointing(&mut driver, &mut pool);
        assert_eq!(driver.history(id).unwrap(), &golden);
        let final_stats = driver.stats();
        for (i, cp) in snapshots.iter().enumerate() {
            let (history, stats, _) = restore_and_finish(&builder(kind), cp, None);
            assert_eq!(history, golden, "{kind}: restore from boundary {i} moved the history");
            assert_eq!(stats, final_stats, "{kind}: restore from boundary {i} moved the counters");
        }
    }
}

/// `builder(kind)` on a latency-derived deadline instead of injected
/// victims — σ = 0.8 gives the slow tail something to miss.
fn observed_builder(kind: SelectorKind, policy: DeadlinePolicy) -> SimulationBuilder {
    builder(kind).straggler_rate(0.0).deadline(policy).latency_sigma(0.8)
}

#[test]
fn restore_from_every_boundary_replays_the_golden_on_latency_derived_deadlines() {
    // The same oracle on the observed path, where the per-job state a
    // checkpoint must carry is the round-trip sample store (and, under
    // EWMA, its sealed batch boundaries) instead of a clock to replay.
    let refused = |on: &SimulationBuilder, cp: &Checkpoint| {
        let (mut driver, _, _) = fresh_pair(on);
        matches!(driver.restore(cp), Err(FlError::InvalidConfig(_)))
    };
    for policy in [
        DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 },
        DeadlinePolicy::Ewma { alpha: 0.3, slack: 1.1 },
    ] {
        let mut stragglers = 0;
        for kind in SelectorKind::all() {
            let shape = observed_builder(kind, policy);
            let golden = shape.clone().run().unwrap().history;
            stragglers += golden.total_stragglers();
            let (mut driver, mut pool, id) = fresh_pair(&shape);
            let snapshots = run_lockstep_checkpointing(&mut driver, &mut pool);
            assert_eq!(driver.history(id).unwrap(), &golden);
            let final_stats = driver.stats();
            for (i, cp) in snapshots.iter().enumerate() {
                assert!(cp.jobs[0].observed.is_some(), "{policy:?}/{kind}: no sample store");
                let (history, stats, _) = restore_and_finish(&shape, cp, None);
                assert_eq!(history, golden, "{policy:?}/{kind}: boundary {i} moved the history");
                assert_eq!(stats, final_stats, "{policy:?}/{kind}: boundary {i} moved a counter");
            }

            // A checkpoint from the other straggler model, and a sample
            // store whose batch boundary runs past its samples, are
            // refused rather than half-restored.
            let observed = &snapshots[1];
            let (mut injected, mut pool, _) = fresh_pair(&builder(kind));
            let injected = run_lockstep_checkpointing(&mut injected, &mut pool).remove(1);
            assert!(refused(&shape, &injected), "{policy:?}/{kind}: took an injected checkpoint");
            assert!(refused(&builder(kind), observed), "{policy:?}/{kind}: injected took samples");
            let mut corrupt = observed.clone();
            corrupt.jobs[0].observed = Some((vec![0.1], vec![2]));
            assert!(refused(&shape, &corrupt), "{policy:?}/{kind}: took an inconsistent store");
        }
        assert!(stragglers > 0, "{policy:?}: the deadline never bit — the suite is vacuous");
    }
}

#[test]
fn restore_rekeys_the_delta_codec_to_the_exact_byte_stream() {
    // The delta-entropy wire makes restore hard: every encoded global
    // is a delta against the previous reference, so a restored server
    // must re-key from the snapshot or every byte count drifts. History
    // rows carry bytes_down/bytes_up and DriverStats carries bytes_sent,
    // so equality here pins the re-keyed byte stream exactly.
    let shape = builder(SelectorKind::Flips).codec(ModelCodec::DeltaEntropy);
    let golden = shape.clone().run().unwrap().history;
    let (mut driver, mut pool, id) = fresh_pair(&shape);
    let snapshots = run_lockstep_checkpointing(&mut driver, &mut pool);
    assert_eq!(driver.history(id).unwrap(), &golden);
    let final_stats = driver.stats();
    assert!(
        snapshots.iter().skip(1).any(|cp| !cp.codec_refs.is_empty()),
        "no snapshot carried a delta reference — the re-key path is untested"
    );
    for (i, cp) in snapshots.iter().enumerate() {
        let (history, stats, _) = restore_and_finish(&shape, cp, Some(ModelCodec::DeltaEntropy));
        assert_eq!(history, golden, "delta wire: restore from boundary {i} moved the history");
        assert_eq!(stats, final_stats, "delta wire: boundary {i} drifted the byte counters");
    }
}

/// Drives a churn scenario: retire `leaver` at the first round
/// boundary, readmit at the third. Returns the history, the snapshot
/// captured at the boundary right after the leave, and the final stats.
fn run_churned(shape: &SimulationBuilder, leaver: PartyId) -> (History, Checkpoint, DriverStats) {
    let (mut driver, mut pool, id) = fresh_pair(shape);
    driver.set_deferred_opens(true).unwrap();
    driver.start().unwrap();
    let mut boundary = 0usize;
    let mut left_snapshot = None;
    loop {
        loop {
            let drove = driver.pump().unwrap();
            let pooled = pool.pump().unwrap();
            if !drove && !pooled {
                break;
            }
        }
        if driver.has_pending_opens() {
            boundary += 1;
            if boundary == 1 {
                driver.party_left(id, leaver).unwrap();
                left_snapshot = Some(driver.checkpoint().unwrap());
            } else if boundary == 3 {
                driver.party_joined(id, leaver).unwrap();
            }
            driver.open_pending().unwrap();
            continue;
        }
        if driver.is_finished() || driver.is_quiescent() {
            let history = driver.history(id).unwrap().clone();
            return (history, left_snapshot.unwrap(), driver.stats());
        }
        assert!(driver.advance_clock().unwrap());
    }
}

#[test]
fn a_departed_party_is_never_selected_until_it_rejoins() {
    // Retire a party at the first boundary: rounds 1 and 2 must select
    // from the 11-party roster without it; after the readmission at the
    // third boundary it is eligible again. The availability mask in the
    // leave-boundary snapshot records the retirement.
    for kind in SelectorKind::all() {
        let leaver: PartyId = 5;
        let (history, cp, _) = run_churned(&builder(kind), leaver);
        assert_eq!(history.len(), 4, "{kind}: churn broke round completion");
        for round in 1..3 {
            assert!(
                !history.records()[round].selected.contains(&leaver),
                "{kind}: round {round} selected the departed party {leaver}"
            );
        }
        let mask = &cp.jobs[0].active;
        assert!(!mask[leaver as usize], "{kind}: snapshot mask kept the leaver active");
        assert_eq!(mask.iter().filter(|&&a| a).count(), 11, "{kind}: wrong active count");
    }
}

#[test]
fn churn_state_survives_checkpoint_restore() {
    // Restore from the snapshot taken right after the leave — WITHOUT
    // re-issuing the churn calls on the fresh driver. The mask restored
    // off the wire format must keep the leaver out of rounds 1 and 2,
    // and (since the rejoin happened after the snapshot) the restored
    // continuation diverges from the churned original only where the
    // readmission would land — so we replay the rejoin at the same
    // boundary and demand full-history equality.
    for kind in [SelectorKind::Random, SelectorKind::Flips] {
        let leaver: PartyId = 5;
        let (churned, cp, churned_stats) = run_churned(&builder(kind), leaver);

        let (mut driver, mut pool, id) = fresh_pair(&builder(kind));
        driver.restore(&cp).unwrap();
        for r in &cp.codec_refs {
            assert!(pool.seed_reference(r.job, r.ref_round, &r.params));
        }
        driver.set_deferred_opens(true).unwrap();
        driver.start().unwrap();
        // The snapshot sits at boundary 1; the rejoin lands at 3.
        let mut boundary = 1usize;
        loop {
            loop {
                let drove = driver.pump().unwrap();
                let pooled = pool.pump().unwrap();
                if !drove && !pooled {
                    break;
                }
            }
            if driver.has_pending_opens() {
                boundary += 1;
                if boundary == 3 {
                    driver.party_joined(id, leaver).unwrap();
                }
                driver.open_pending().unwrap();
                continue;
            }
            if driver.is_finished() || driver.is_quiescent() {
                break;
            }
            assert!(driver.advance_clock().unwrap());
        }
        assert_eq!(
            driver.history(id).unwrap(),
            &churned,
            "{kind}: the restored continuation diverged from the churned run"
        );
        assert_eq!(driver.stats(), churned_stats, "{kind}: churned counters drifted");
    }
}

#[test]
fn disconnect_chaos_replays_every_selector_golden_lockstep() {
    // A seeded Disconnect severs the uplink mid-round and backlogs its
    // frames until the wire runs dry — whole-link FIFO order holds, so
    // the histories cannot move. Three seeds, five selectors, default
    // guards watching.
    for kind in SelectorKind::all() {
        let clean = builder(kind).run().unwrap().history;
        let mut severed = 0usize;
        for seed in CHAOS_SEEDS {
            let schedule = ChaosSchedule::seeded(seed).weights(disconnect_weights());
            let (job, meta) = builder(kind).build().unwrap();
            let (agg_end, party_end) = MemoryTransport::pair();
            let mut driver = MultiJobDriver::new(ChaosTransport::new(agg_end, schedule));
            driver.set_guard(GuardConfig::default()).unwrap();
            let (id, endpoints) = driver.add_parts(job.into_parts()).unwrap();
            assert_eq!(id, meta.job_id);
            let mut pool = PartyPool::new(party_end);
            pool.add_job(id, endpoints);
            run_lockstep(&mut driver, std::slice::from_mut(&mut pool)).unwrap();
            assert_eq!(
                driver.history(id).unwrap(),
                &clean,
                "{kind}: disconnect seed {seed} moved the lockstep history"
            );
            assert_eq!(driver.stats().parties_ejected, 0, "{kind}: seed {seed} tripped a breaker");
            assert!(!driver.transport().log().is_empty(), "{kind}: seed {seed} applied no chaos");
            severed += disconnects(driver.transport().log());
        }
        assert!(severed > 0, "{kind}: no seed ever severed the link — the suite is vacuous");
    }
}

#[test]
fn disconnect_chaos_replays_every_selector_golden_sharded() {
    // Same bar on the planned 2-link wire: each link severs and
    // reconnects independently under its own frame-index stream.
    for kind in SelectorKind::all() {
        let clean = builder(kind).run().unwrap().history;
        let mut severed = 0usize;
        for seed in SHARDED_CHAOS_SEEDS {
            let (job, meta) = builder(kind).build().unwrap();
            let wire = WireOptions::new(2)
                .with_guard(GuardConfig::default())
                .with_chaos(ChaosSchedule::seeded(seed).weights(disconnect_weights()));
            let (mut driver, mut pools) = memory_wire(vec![job.into_parts()], &wire).unwrap();
            run_lockstep(&mut driver, &mut pools).unwrap();
            assert_eq!(
                driver.history(meta.job_id),
                Some(&clean),
                "{kind}: disconnect seed {seed} moved the 2-link history"
            );
            assert_eq!(driver.stats().parties_ejected, 0, "{kind}: seed {seed}");
            let log = driver.transport().log();
            assert!(!log.is_empty(), "{kind}: seed {seed} applied no chaos");
            severed += disconnects(log);
        }
        assert!(severed > 0, "{kind}: no 2-link seed severed a link — the suite is vacuous");
    }
}

/// A 12-party spilling roster with a 4-record segment cap — three
/// sealed segments behind a single-segment cache, so every cross-segment
/// read pages from disk.
fn spilled_store(dir: &std::path::Path) -> std::sync::Arc<RosterStore> {
    let mut rb = RosterBuilder::spilling(dir, 1).unwrap().segment_cap(4).unwrap();
    for i in 0..12u64 {
        rb.push(PartyRecord {
            data_size: 5 + i,
            latency_hint: 0.1 + i as f64 * 0.01,
            label_counts: vec![i, 2 * i, 3],
        })
        .unwrap();
    }
    std::sync::Arc::new(rb.finish().unwrap())
}

#[test]
fn restore_composes_with_a_spilled_roster() {
    // The scale plane under the recovery plane: when the builder seals
    // its roster to disk segments and streams selection through a
    // single-segment cache, the checkpoint seam still captures every
    // boundary, and a restore from any of them finishes on the flat
    // golden with the flat run's exact wire counters.
    let base = std::env::temp_dir().join(format!("flips-recovery-spill-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    for kind in SelectorKind::all() {
        let golden = builder(kind).run().unwrap().history;
        let dir = base.join(kind.to_string());
        let shape = || builder(kind).spill_roster(&dir, 1);
        let (mut driver, mut pool, id) = fresh_pair(&shape());
        let snapshots = run_lockstep_checkpointing(&mut driver, &mut pool);
        assert_eq!(
            driver.history(id).unwrap(),
            &golden,
            "{kind}: the spilled roster moved the history"
        );
        let final_stats = driver.stats();
        for (i, cp) in snapshots.iter().enumerate() {
            let (history, stats, _) = restore_and_finish(&shape(), cp, None);
            assert_eq!(
                history, golden,
                "{kind}: restore from boundary {i} over a spilled roster moved the history"
            );
            assert_eq!(
                stats, final_stats,
                "{kind}: restore from boundary {i} over a spilled roster moved the counters"
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn roster_counters_are_live_gauges_not_checkpoint_state() {
    // `DriverStats::{roster_spilled, roster_loaded}` report on the
    // stores attached to *this* driver. A checkpoint carries none of
    // that: a restored driver reads zero until a store is attached, and
    // afterwards reports exactly the fresh store's own activity — the
    // Prometheus gauges restart with the process, by design.
    let base = std::env::temp_dir().join(format!("flips-recovery-gauge-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let kind = SelectorKind::Random;
    let golden = builder(kind).run().unwrap().history;

    let (mut driver, mut pool, id) = fresh_pair(&builder(kind));
    let store = spilled_store(&base.join("before"));
    store.record(0).unwrap();
    store.record(8).unwrap(); // cross-segment read: forces a page-in
    driver.attach_roster(std::sync::Arc::clone(&store));
    let snapshots = run_lockstep_checkpointing(&mut driver, &mut pool);
    assert_eq!(driver.history(id).unwrap(), &golden);
    let live = driver.stats();
    assert_eq!(live.roster_spilled, 3, "three sealed segments should be visible");
    assert!(live.roster_loaded > 0, "the cross-segment read never paged");

    // Restore into a fresh driver: the counters are gone with the store.
    let (mut restored, mut rpool, rid) = fresh_pair(&builder(kind));
    restored.restore(snapshots.first().unwrap()).unwrap();
    assert_eq!(restored.stats().roster_spilled, 0, "spill count leaked through the checkpoint");
    assert_eq!(restored.stats().roster_loaded, 0, "load count leaked through the checkpoint");

    // Attaching a fresh store re-counts from that store's activity only.
    let fresh = spilled_store(&base.join("after"));
    restored.attach_roster(std::sync::Arc::clone(&fresh));
    run_lockstep(&mut restored, std::slice::from_mut(&mut rpool)).unwrap();
    assert_eq!(restored.history(rid).unwrap(), &golden);
    let stats = restored.stats();
    assert_eq!(stats.roster_spilled, fresh.spilled());
    assert_eq!(stats.roster_loaded, fresh.loaded());
    std::fs::remove_dir_all(&base).ok();
}
