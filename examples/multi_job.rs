//! Multi-job multiplexing: three concurrent FL jobs over one serialized
//! byte stream.
//!
//! ```text
//! cargo run --release --example multi_job
//! ```
//!
//! Where `quickstart` runs one job through the in-process driver, this
//! example stands up the transport stack: three differently-seeded jobs
//! (with different selection policies and straggler regimes) are
//! registered with one `MultiJobDriver`, their parties live in one
//! `PartyPool`, and every message of every round crosses a single
//! length-prefix-framed duplex pipe as encoded bytes — the frames of all
//! three jobs interleaved on the same wire, demultiplexed by the job id
//! each message carries. A deterministic timer wheel fires each job's
//! round deadlines; jobs with different deadline spacing drift in and
//! out of phase, which is exactly the traffic pattern a real aggregator
//! serving many federations sees.

use flips::prelude::*;

/// Wraps a job's straggler injector to stretch its round deadline on
/// the timer wheel — jobs with different spacing interleave instead of
/// marching in lock-step.
struct PacedClock {
    injector: StragglerInjector,
    ticks: u64,
}

impl Clock for PacedClock {
    fn missed_deadline(&mut self, cohort: &[PartyId], latency: &LatencyModel) -> Vec<usize> {
        self.injector.missed_deadline(cohort, latency)
    }
    fn deadline_ticks(&self) -> u64 {
        self.ticks
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Each job negotiates its own model-payload codec on the shared
    // wire: alpha stays on the raw default, bravo entropy-codes its
    // deltas, carol opts into lossy top-k sparsification.
    let configs = [
        ("alpha", SelectorKind::Flips, 0.00, 43u64, 1u64, ModelCodec::Raw),
        ("bravo", SelectorKind::Oort, 0.25, 44, 2, ModelCodec::DeltaEntropy),
        ("carol", SelectorKind::Random, 0.25, 45, 3, ModelCodec::TopK { k: 512 }),
    ];

    let (agg_pipe, party_pipe) = duplex();
    let mut driver = MultiJobDriver::new(StreamTransport::new(agg_pipe));
    let mut pool = PartyPool::new(StreamTransport::new(party_pipe));

    println!("registering jobs on one serialized link:");
    let mut ids = Vec::new();
    for (name, selector, straggler_rate, seed, ticks, codec) in configs {
        let (job, meta) = SimulationBuilder::new(DatasetProfile::femnist())
            .parties(15)
            .rounds(8)
            .participation(0.25)
            .selector(selector)
            .straggler_rate(straggler_rate)
            .clustering_restarts(4)
            .test_per_class(10)
            .codec(codec)
            .seed(seed)
            .build()?;
        let JobParts { coordinator, endpoints, clock, latency, .. } = job.into_parts();
        let id = driver.add_job(
            coordinator,
            Box::new(PacedClock { injector: clock, ticks }),
            latency,
        )?;
        pool.add_job(id, endpoints);
        println!(
            "  job {name}: id {id:#018x}, {} parties, {:?} selection, {}% stragglers, \
             deadline every {ticks} tick(s), {codec} payloads",
            meta.num_parties,
            selector,
            (straggler_rate * 100.0) as u32,
        );
        ids.push((name, id));
    }

    // The guard plane rides between the wire and the coordinators; on a
    // clean link its permissive defaults are pure observation.
    driver.set_guard(GuardConfig::default())?;

    println!("\nrunning all jobs to completion over the shared wire ...");
    run_lockstep(&mut driver, std::slice::from_mut(&mut pool))?;

    let stats = driver.stats();
    println!(
        "done at virtual tick {}: {} frames down ({:.2} MiB), {} frames up ({:.2} MiB), \
         {} rejected",
        driver.tick(),
        stats.frames_sent,
        stats.bytes_sent as f64 / (1024.0 * 1024.0),
        stats.frames_received,
        stats.bytes_received as f64 / (1024.0 * 1024.0),
        stats.rejected_messages
    );
    println!(
        "guard plane: {} rate-limited, {} breaker-dropped, {} admission-refused, \
         {} oversized, {} parties ejected\n",
        stats.rate_limited_frames,
        stats.breaker_dropped_frames,
        stats.admission_refused_frames,
        stats.oversized_frames,
        stats.parties_ejected
    );

    println!("job    codec           rounds  peak-acc  stragglers  accounted-MiB");
    for (name, id) in &ids {
        let history = driver.history(*id).expect("job ran");
        let codec = driver.codec_of(*id).expect("registered");
        println!(
            "{name:6} {:14} {:6}  {:8.4}  {:10}  {:13.2}",
            codec.label(),
            history.len(),
            history.peak_accuracy(),
            history.total_stragglers(),
            history.total_bytes() as f64 / (1024.0 * 1024.0)
        );
    }
    Ok(())
}
