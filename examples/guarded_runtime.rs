//! The guard plane live: a flooding party tripped and ejected, a
//! latency-bound job counting late updates, and the determinism oracle
//! holding through all of it.
//!
//! ```text
//! cargo run --release --example guarded_runtime
//! ```
//!
//! Two jobs share one serialized link. Job `alpha` runs the paper's
//! injected-deadline path with straggler injection off; a hostile
//! handle floods the aggregator with forged out-of-round heartbeats
//! claiming one of alpha's parties, until that party's circuit breaker
//! opens and the guard ejects it from the rounds it would have joined.
//! Job `bravo` runs a latency-derived deadline, so its slow tail
//! legitimately misses rounds (late updates — pressure, not hostility).
//!
//! The punchline is the reference run: the same two seeded jobs,
//! **no guard, no flood**, with alpha's clock scripted to mark the
//! ejected party a deadline victim in exactly the rounds the breaker
//! held it out. Both histories must match bit-for-bit — ejecting a
//! hostile party is provably indistinguishable from that party
//! straggling, and no other party's trajectory moves at all. The
//! example exits nonzero if any of that fails, so CI can smoke-run it.

use flips::fl::message::{frame, AGGREGATOR_DEST};
use flips::prelude::*;

const HOSTILE: u64 = 1;

fn alpha() -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(12)
        .rounds(4)
        .participation(0.25)
        .alpha(0.3)
        .selector(SelectorKind::Random)
        .straggler_rate(0.0)
        .clustering_restarts(3)
        .test_per_class(8)
        .seed(11)
}

fn bravo() -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(12)
        .rounds(4)
        .participation(0.25)
        .selector(SelectorKind::Oort)
        .deadline(DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 })
        .latency_sigma(0.8)
        .clustering_restarts(3)
        .test_per_class(8)
        .seed(23)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Guarded run, flood on the wire -----------------------------
    let (agg_pipe, party_pipe) = MemoryTransport::pair();
    let mut hostile_handle = StreamTransport::new(party_pipe.get_ref().clone());
    let mut driver = MultiJobDriver::new(agg_pipe);
    driver.set_guard(GuardConfig {
        rate_limit: Some(RateLimit::default()),
        breaker: Some(BreakerConfig { strike_threshold: 4, ..BreakerConfig::default() }),
        admission_factor: None,
        ..GuardConfig::default()
    })?;
    let mut pool = PartyPool::new(party_pipe);

    let (job_a, meta_a) = alpha().build()?;
    let (id_a, endpoints) = driver.add_parts(job_a.into_parts())?;
    pool.add_job(id_a, endpoints);
    let (job_b, meta_b) = bravo().build()?;
    let (id_b, endpoints) = driver.add_parts(job_b.into_parts())?;
    pool.add_job(id_b, endpoints);
    println!("job alpha: id {id_a:#018x}, injected deadlines, flood target = party {HOSTILE}");
    println!("job bravo: id {id_b:#018x}, p50×1.1 latency deadline, honest slow tail");
    assert_eq!((id_a, id_b), (meta_a.job_id, meta_b.job_id));

    println!("\nrunning guarded, with forged heartbeats flooding the uplink ...");
    driver.start()?;
    let forged = frame(
        AGGREGATOR_DEST,
        &WireMessage::Heartbeat { job: id_a, round: u64::MAX, party: HOSTILE },
    );
    let mut window = 0u64;
    loop {
        if window < 2 {
            // Each forged frame bounces with WrongRound and strikes the
            // claimed sender; threshold 4 opens its breaker.
            for _ in 0..6 {
                hostile_handle.send(&forged)?;
            }
        }
        window += 1;
        while driver.pump()? | pool.pump()? {}
        if driver.is_finished() {
            break;
        }
        assert!(driver.advance_clock()?, "driver stalled");
    }

    let stats = driver.stats();
    let transitions = driver.guard().expect("guard installed").transitions().to_vec();
    let guarded_a = driver.history(id_a).expect("alpha ran").clone();
    let guarded_b = driver.history(id_b).expect("bravo ran").clone();
    println!(
        "guard plane: {} rejected, {} parties ejected, {} late updates (bravo's tail)",
        stats.rejected_messages, stats.parties_ejected, stats.late_updates
    );
    for t in &transitions {
        println!(
            "  breaker: job {:#018x} party {} -> {} (round open #{})",
            t.job, t.party, t.to, t.open_index
        );
    }
    assert!(stats.parties_ejected >= 1, "the flood must trip the hostile party's breaker");
    assert!(stats.late_updates > 0, "bravo's latency deadline must bite its slow tail");
    assert!(
        transitions.iter().any(|t| t.job == id_a && t.party == HOSTILE),
        "only the flooded party may transition"
    );

    let script: Vec<Vec<PartyId>> =
        guarded_a.records().iter().map(|r| r.stragglers.clone()).collect();
    let ejected_rounds: Vec<_> =
        guarded_a.records().iter().filter(|r| !r.stragglers.is_empty()).map(|r| r.round).collect();
    println!("party {HOSTILE} held out of round(s) {ejected_rounds:?} while its breaker was open");
    assert!(!ejected_rounds.is_empty(), "the ejection never bit a round");

    // ---- Reference run: no guard, no flood, scripted victims --------
    println!("\nreplaying unguarded with party {HOSTILE} scripted as a deadline victim ...");
    let (agg_pipe, party_pipe) = MemoryTransport::pair();
    let mut reference = MultiJobDriver::new(agg_pipe);
    let mut ref_pool = PartyPool::new(party_pipe);
    let (job_a, _) = alpha().build()?;
    let JobParts { coordinator, endpoints, latency, .. } = job_a.into_parts();
    let ref_a = reference.add_job(coordinator, Box::new(ScriptedClock::new(script)), latency)?;
    ref_pool.add_job(ref_a, endpoints);
    let (job_b, _) = bravo().build()?;
    let (ref_b, endpoints) = reference.add_parts(job_b.into_parts())?;
    ref_pool.add_job(ref_b, endpoints);
    run_lockstep(&mut reference, std::slice::from_mut(&mut ref_pool))?;

    assert_eq!(
        reference.history(ref_a).expect("alpha replayed"),
        &guarded_a,
        "ejection must be bit-identical to scripted victim injection"
    );
    assert_eq!(
        reference.history(ref_b).expect("bravo replayed"),
        &guarded_b,
        "the flood must not move the other job's history"
    );
    println!(
        "ok: breaker ejection replayed bit-identically as victim injection; \
         bravo untouched by the flood"
    );
    Ok(())
}
