//! The four workloads. Each is a function that runs one *episode* — set
//! up the job from seeded inputs, warm up, run a fixed number of timed
//! rounds in a closed loop, verify the outputs — and returns what it
//! measured. Round counts are fixed, so every count an episode reports
//! is a pure function of the seed; the runner repeats episodes until
//! `--seconds` have been measured.

use crate::host::{cpu_seconds, TempDir};
use crate::jobs::{self, Digest, Scale};
use crate::schema;
use crate::trace::{Tracer, NO_ROUND};
use flips_core::fl::message::{
    global_model_bytes, heartbeat_bytes, local_update_bytes, selection_notice_bytes, FRAME_HEADER,
};
use flips_core::fl::server::ServerState;
use flips_core::fl::ExactWeightedSum;
use flips_core::prelude::*;
use flips_core::selection::tifl::TiflConfig;
use flips_core::selection::TiflSelector;
use flips_net::SocketOptions;
use std::time::Instant;

/// The paper's metrics of one `converge_flips` job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paper {
    pub time_to_target_s: f64,
    pub rounds_to_target: f64,
    pub bytes_to_target: f64,
    pub peak_accuracy: f64,
    pub target_missed: f64,
}

/// What one episode measured.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Episode start to first round open.
    pub setup_s: f64,
    /// One wall-clock sample per timed round, in ms (`socket_train`:
    /// one sample per call, the call divided by its rounds).
    pub round_ms: Vec<f64>,
    pub timed_rounds: usize,
    pub timed_wall_s: f64,
    pub timed_cpu_s: f64,
    /// Episode start to last round closed: what the job's user waits.
    pub job_s: f64,
    /// Rounds attempted, warm-up included.
    pub rounds_total: usize,
    pub bytes_per_round: f64,
    /// Digest of the episode's outputs (history, or final global model).
    pub digest: u64,
    /// Output checks that failed; empty when the episode is correct.
    pub problems: Vec<String>,
    pub paper: Option<Paper>,
}

impl Episode {
    pub fn rounds_per_s(&self) -> f64 {
        self.timed_rounds as f64 / self.timed_wall_s
    }

    pub fn cpu_ms_per_round(&self) -> f64 {
        self.timed_cpu_s * 1e3 / self.timed_rounds as f64
    }
}

/// Rounds one episode of `workload` attempts — what a failed episode is
/// charged in `attempted` and `failed`.
pub fn planned_rounds(workload: &str, scale: &Scale) -> usize {
    match workload {
        schema::CONVERGE => scale.converge_rounds,
        schema::WIRE => scale.warmup_rounds + scale.wire_rounds,
        schema::SOCKET => scale.socket_rounds,
        _ => scale.warmup_rounds + scale.roster_rounds,
    }
}

/// How many seeds derived from `--seed` a workload's episodes cycle
/// through (see `Scale::converge_seeds`). The other three jobs pick
/// cohorts uniformly, so their round cost does not depend on the seed
/// and every episode repeats the same inputs.
pub fn seed_cycle(workload: &str, scale: &Scale) -> usize {
    if workload == schema::CONVERGE {
        scale.converge_seeds
    } else {
        1
    }
}

/// Runs one episode of the named workload.
///
/// `deep` adds the checks that cost a second run of the job (the
/// in-process reference history). The runner asks for them once per
/// run: every later episode is pinned to the first by its digest.
pub fn episode(
    workload: &str,
    seed: u64,
    scale: &Scale,
    deep: bool,
    tracer: &mut Tracer,
) -> Result<Episode, String> {
    tracer.set_round(NO_ROUND);
    let span = tracer.enter("episode");
    let result = match workload {
        schema::CONVERGE => converge_flips(seed, scale.converge_rounds, scale, tracer),
        schema::WIRE => wire_entropy(seed, scale, deep, tracer),
        schema::SOCKET => socket_train(seed, scale, deep, tracer),
        schema::ROSTER => roster_1m_tree(seed, scale, tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    tracer.set_round(NO_ROUND);
    tracer.exit(span);
    result
}

/// `map_err` adapter: an `FlError` with the call it came from.
pub fn fl(what: &str) -> impl Fn(flips_core::fl::FlError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- converge

/// One `converge_flips` job of `rounds` rounds: an episode of the
/// workload, or (at `Scale::paper_rounds`) the job the paper's metrics
/// are read from.
pub fn converge_flips(
    seed: u64,
    rounds: usize,
    scale: &Scale,
    tracer: &mut Tracer,
) -> Result<Episode, String> {
    let start = Instant::now();
    let span = tracer.enter("setup");
    let (mut job, _meta) =
        jobs::converge_builder(seed, rounds, scale).build().map_err(|e| format!("set-up: {e}"))?;
    tracer.exit(span);
    let setup_s = start.elapsed().as_secs_f64();

    let mut round_ms = Vec::with_capacity(rounds);
    let mut time_to_target = None;
    let cpu0 = cpu_seconds();
    let timed = Instant::now();
    for round in 0..rounds {
        tracer.set_round(round as u32);
        let span = tracer.enter("fljob.step");
        let t = Instant::now();
        let accuracy = job.step().map_err(|e| format!("round {round}: {e}"))?.accuracy;
        round_ms.push(ms(t));
        tracer.exit(span);
        if time_to_target.is_none() && accuracy >= jobs::CONVERGE_TARGET {
            time_to_target = Some(start.elapsed().as_secs_f64());
        }
    }
    let timed_wall_s = timed.elapsed().as_secs_f64();
    let timed_cpu_s = cpu_seconds() - cpu0;
    let job_s = start.elapsed().as_secs_f64();

    let history = job.history();
    let params = job.global_params().len();
    let mut problems = Vec::new();
    if history.len() != rounds {
        problems.push(format!("history has {} records, expected {rounds}", history.len()));
    }
    let job_id = job.coordinator().job_id();
    for r in history.records() {
        let abort = WireMessage::Abort {
            job: job_id,
            round: r.round as u64,
            party: 0,
            reason: "deadline expired".into(),
        };
        let down = r.selected.len() * (selection_notice_bytes() + global_model_bytes(params))
            + r.stragglers.len() * abort.wire_size();
        let up =
            r.selected.len() * heartbeat_bytes() + r.completed.len() * local_update_bytes(params);
        if r.bytes_down != down as u64 || r.bytes_up != up as u64 {
            problems.push(format!(
                "round {}: accounted {}/{} B down/up, expected {down}/{up}",
                r.round, r.bytes_down, r.bytes_up
            ));
        }
        if r.completed.len() + r.stragglers.len() != r.selected.len() {
            problems.push(format!("round {}: cohort does not split into done + late", r.round));
        }
        if !(0.0..=1.0).contains(&r.accuracy) {
            problems.push(format!("round {}: accuracy {}", r.round, r.accuracy));
        }
    }
    // Five classes: anything at or below 0.2 means nothing was learned.
    if rounds >= 100 && history.peak_accuracy() < 0.4 {
        problems
            .push(format!("peak accuracy {:.3} — the job did not learn", history.peak_accuracy()));
    }

    let target = jobs::CONVERGE_TARGET;
    let paper = Paper {
        time_to_target_s: time_to_target.unwrap_or(job_s),
        rounds_to_target: history.rounds_to_target(target).unwrap_or(rounds) as f64,
        bytes_to_target: history.bytes_to_target(target).unwrap_or(history.total_bytes()) as f64,
        peak_accuracy: history.peak_accuracy(),
        target_missed: if time_to_target.is_some() { 0.0 } else { 1.0 },
    };
    Ok(Episode {
        setup_s,
        round_ms,
        timed_rounds: rounds,
        timed_wall_s,
        timed_cpu_s,
        job_s,
        rounds_total: rounds,
        bytes_per_round: history.total_bytes() as f64 / rounds as f64,
        digest: jobs::history_digest(history),
        problems,
        paper: Some(paper),
    })
}

// -------------------------------------------------------------------- wire

/// What a lockstep run over the in-process stream wire produced.
pub struct WireRun {
    pub history: History,
    pub stats: DriverStats,
    /// `stamps[r]` is when round `r` opened; the last entry is when the
    /// final round closed.
    pub stamps: Vec<Instant>,
    /// Process CPU seconds from the open of round `timed_from` to the end.
    pub timed_cpu_s: f64,
    pub pumps: u64,
    pub idle_pumps: u64,
    /// Frames the party pool refused, could not route or could not decode.
    pub pool_dropped: u64,
}

/// Drives one `mlp256` job to completion through `MultiJobDriver` +
/// `PartyPool` over `StreamTransport` on `duplex()`. The benchmark owns
/// the pump loop (it is `run_lockstep`'s, plus stamps and spans).
/// Rounds before `timed_from` are warm-up: CPU time is counted from there.
pub fn drive_wire(
    job: FlJob,
    guard: bool,
    timed_from: usize,
    tracer: &mut Tracer,
) -> Result<WireRun, String> {
    let JobParts { coordinator, endpoints, clock, latency, .. } = job.into_parts();
    let (agg_end, party_end) = duplex();
    let mut driver = MultiJobDriver::new(StreamTransport::new(agg_end));
    let mut pool = PartyPool::new(StreamTransport::new(party_end));
    if guard {
        driver.set_guard(GuardConfig::default()).map_err(fl("guard"))?;
        pool.set_guard(&GuardConfig::default());
    }
    let id = driver.add_job(coordinator, Box::new(clock), latency).map_err(fl("add_job"))?;
    pool.add_job(id, endpoints);

    let mut run = WireRun {
        history: History::new(),
        stats: DriverStats::default(),
        stamps: vec![Instant::now()],
        timed_cpu_s: 0.0,
        pumps: 0,
        idle_pumps: 0,
        pool_dropped: 0,
    };
    let mut cpu_start = cpu_seconds();
    tracer.set_round(0);
    let mut round_span = tracer.enter("round");
    let span = tracer.enter("driver.start");
    driver.start().map_err(fl("start"))?;
    tracer.exit(span);
    loop {
        let span = tracer.enter("driver.pump");
        let drove = driver.pump().map_err(fl("driver.pump"))?;
        tracer.exit(span);
        run.pumps += 1;
        run.idle_pumps += u64::from(!drove);
        let closed = driver.history(id).map_or(0, History::len);
        while run.stamps.len() <= closed {
            // A round closed inside that pump (and the next one opened):
            // the pump is charged to the round it closed.
            tracer.exit(round_span);
            let boundary = run.stamps.len();
            run.stamps.push(Instant::now());
            if boundary == timed_from {
                cpu_start = cpu_seconds();
            }
            tracer.set_round(boundary as u32);
            round_span = tracer.enter("round");
        }
        let span = tracer.enter("pool.pump");
        let pooled = pool.pump().map_err(fl("pool.pump"))?;
        tracer.exit(span);
        if !drove && !pooled {
            if driver.is_finished() {
                break;
            }
            let span = tracer.enter("driver.advance_clock");
            let fired = driver.advance_clock().map_err(fl("advance_clock"))?;
            tracer.exit(span);
            if !fired {
                return Err("driver stalled: wire quiet, no live deadline, job unfinished".into());
            }
        }
    }
    tracer.exit(round_span);
    run.history = driver.history(id).cloned().unwrap_or_default();
    run.stats = driver.stats();
    run.timed_cpu_s = cpu_seconds() - cpu_start;
    run.pool_dropped =
        pool.rejected() + pool.unroutable() + pool.codec_mismatch() + pool.oversized();
    Ok(run)
}

/// Frames the driver refused or dropped, for any reason: must be zero
/// on a clean wire.
pub fn refused_frames(stats: &DriverStats) -> u64 {
    stats.corrupt_frames
        + stats.codec_mismatch_frames
        + stats.unknown_job_frames
        + stats.rejected_messages
        + stats.late_updates
        + stats.oversized_frames
        + stats.rate_limited_frames
        + stats.breaker_dropped_frames
        + stats.admission_refused_frames
}

/// Exact wire bytes of one `mlp256` round under the Raw codec: four
/// parties, each a notice and a model down, a heartbeat and an update up.
pub fn mlp256_raw_bytes_per_round() -> u64 {
    let p = jobs::MLP256_PARAMS;
    let per_party = selection_notice_bytes()
        + global_model_bytes(p)
        + heartbeat_bytes()
        + local_update_bytes(p)
        + 4 * FRAME_HEADER;
    4 * per_party as u64
}

/// Checks shared by the two wire workloads: clean counters, four frames
/// each way per party and round, and (`deep`) the in-process `FlJob`
/// reaching the same history from the same seed — the wire must not
/// change a result.
fn check_mlp256_outputs(
    seed: u64,
    rounds: usize,
    deep: bool,
    history: &History,
    stats: &DriverStats,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    if history.len() != rounds {
        problems.push(format!("history has {} records, expected {rounds}", history.len()));
    }
    if refused_frames(stats) != 0 {
        problems.push(format!("driver refused {} frames: {stats:?}", refused_frames(stats)));
    }
    let frames = 8 * rounds as u64;
    if stats.frames_sent != frames || stats.frames_received != frames {
        problems.push(format!(
            "{} frames sent / {} received, expected {frames} each",
            stats.frames_sent, stats.frames_received
        ));
    }
    if deep {
        let mut reference = jobs::mlp256_job(seed, rounds, ModelCodec::Raw)?;
        let expected = reference.run().map_err(|e| format!("in-process reference: {e}"))?;
        if expected != *history {
            problems.push("history differs from the in-process FlJob's for the same seed".into());
        }
    }
    Ok(())
}

fn wire_entropy(
    seed: u64,
    scale: &Scale,
    deep: bool,
    tracer: &mut Tracer,
) -> Result<Episode, String> {
    let (warmup, timed) = (scale.warmup_rounds, scale.wire_rounds);
    let rounds = warmup + timed;
    let start = Instant::now();
    let span = tracer.enter("setup");
    let job = jobs::mlp256_job(seed, rounds, ModelCodec::DeltaEntropy)?;
    tracer.exit(span);
    // drive_wire's own construction (pipe, driver, pool) is set-up too:
    // the first stamp is taken after it.
    let run = drive_wire(job, true, warmup, tracer)?;
    let setup_s = (run.stamps[0] - start).as_secs_f64();
    let job_s = (run.stamps[rounds] - start).as_secs_f64();

    let mut problems = Vec::new();
    check_mlp256_outputs(seed, rounds, deep, &run.history, &run.stats, &mut problems)?;
    if run.pool_dropped != 0 {
        problems.push(format!("party pool dropped {} frames", run.pool_dropped));
    }
    let bytes = run.stats.bytes_sent + run.stats.bytes_received;
    if bytes >= mlp256_raw_bytes_per_round() * rounds as u64 {
        problems.push(format!("entropy wire moved {bytes} B, no less than the raw wire would"));
    }
    let round_ms: Vec<f64> =
        run.stamps[warmup..].windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3).collect();
    Ok(Episode {
        setup_s,
        round_ms,
        timed_rounds: timed,
        timed_wall_s: (run.stamps[rounds] - run.stamps[warmup]).as_secs_f64(),
        timed_cpu_s: run.timed_cpu_s,
        job_s,
        rounds_total: rounds,
        bytes_per_round: bytes as f64 / rounds as f64,
        digest: jobs::history_digest(&run.history),
        problems,
        paper: None,
    })
}

// ------------------------------------------------------------------ socket

fn socket_train(
    seed: u64,
    scale: &Scale,
    deep: bool,
    tracer: &mut Tracer,
) -> Result<Episode, String> {
    let rounds = scale.socket_rounds;
    let start = Instant::now();
    let span = tracer.enter("setup");
    let parts = jobs::mlp256_job(seed, rounds, ModelCodec::Raw)?.into_parts();
    let job_id = parts.coordinator.job_id();
    // Two links = the two cores of the reference box: two party worker
    // threads, the coordinator blocked in epoll_wait. Ports are `:0`.
    let opts = SocketOptions::new(2).with_guard(GuardConfig::default());
    tracer.exit(span);
    let setup_s = start.elapsed().as_secs_f64();

    // The TCP handshake is inside the rounds, by design: it is what a
    // deployment pays per run. No warm-up — a call is atomic.
    tracer.set_round(0);
    let span = tracer.enter("net.run_socket");
    let cpu0 = cpu_seconds();
    let timed = Instant::now();
    let outcome =
        flips_net::run_socket(vec![parts], &opts).map_err(|e| format!("run_socket: {e}"))?;
    let timed_wall_s = timed.elapsed().as_secs_f64();
    let timed_cpu_s = cpu_seconds() - cpu0;
    tracer.exit(span);
    let job_s = start.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let history = outcome.histories.get(&job_id).cloned().unwrap_or_default();
    check_mlp256_outputs(seed, rounds, deep, &history, &outcome.stats, &mut problems)?;
    let dropped: u64 = outcome
        .link_unroutable
        .iter()
        .chain(&outcome.link_rejected)
        .chain(&outcome.link_oversized)
        .sum();
    if dropped != 0 || !outcome.breaker_transitions.is_empty() {
        problems.push(format!("links dropped {dropped} frames or a breaker moved"));
    }
    let bytes = outcome.stats.bytes_sent + outcome.stats.bytes_received;
    if bytes != mlp256_raw_bytes_per_round() * rounds as u64 {
        problems.push(format!(
            "raw wire moved {bytes} B over {rounds} rounds, expected exactly {} per round",
            mlp256_raw_bytes_per_round()
        ));
    }
    Ok(Episode {
        setup_s,
        round_ms: vec![timed_wall_s * 1e3 / rounds as f64],
        timed_rounds: rounds,
        timed_wall_s,
        timed_cpu_s,
        job_s,
        rounds_total: rounds,
        bytes_per_round: bytes as f64 / rounds as f64,
        digest: jobs::history_digest(&history),
        problems,
        paper: None,
    })
}

// ------------------------------------------------------------------ roster

/// A sealed, spilled roster and the scratch directory that holds it.
/// Field order matters: the store drops before its directory does.
pub struct SpilledRoster {
    pub store: RosterStore,
    pub segment_bytes: f64,
    pub seal_s: f64,
    _dir: TempDir,
}

/// Seals `parties` seeded records to disk behind the resident budget.
pub fn seal_roster(seed: u64, parties: usize) -> Result<SpilledRoster, String> {
    let dir = TempDir::new("roster")?;
    let start = Instant::now();
    let mut builder = RosterBuilder::spilling(dir.path(), jobs::ROSTER_BUDGET)
        .map_err(|e| format!("spill dir: {e}"))?;
    for i in 0..parties {
        builder.push(jobs::roster_record(seed, i)).map_err(|e| format!("roster push: {e}"))?;
    }
    let store = builder.finish().map_err(|e| format!("roster seal: {e}"))?;
    let seal_s = start.elapsed().as_secs_f64();
    let (mut files, mut bytes) = (0u64, 0u64);
    for entry in std::fs::read_dir(dir.path()).map_err(|e| format!("roster dir: {e}"))? {
        let meta = entry.and_then(|e| e.metadata()).map_err(|e| format!("roster dir: {e}"))?;
        files += 1;
        bytes += meta.len();
    }
    if files != store.spilled() || files == 0 {
        return Err(format!("{files} segment files on disk, store sealed {}", store.spilled()));
    }
    Ok(SpilledRoster { store, segment_bytes: bytes as f64 / files as f64, seal_s, _dir: dir })
}

/// One scale-plane round composed from public API (10⁶ real `Party`
/// objects cannot exist): streamed selection, page-in of every cohort
/// member, exact fold into `ROSTER_FANOUT` partials, merge at the root,
/// finish, server step, selector feedback.
pub struct RosterRound<'a> {
    pub store: &'a RosterStore,
    pub selector: TiflSelector,
    pub server: ServerState,
    pub global: Vec<f32>,
    pub updates: &'a [Vec<f32>],
    pub accum: Vec<f64>,
    pub weights: Vec<u64>,
}

impl RosterRound<'_> {
    pub fn run(&mut self, round: usize, tracer: &mut Tracer) -> Result<(), String> {
        let dim = self.global.len();
        tracer.set_round(round as u32);
        let round_span = tracer.enter("round");

        let span = tracer.enter("selection.select");
        let cohort = self
            .selector
            .select(round, jobs::ROSTER_COHORT)
            .map_err(|e| format!("round {round} select: {e}"))?;
        tracer.exit(span);

        let span = tracer.enter("roster.page_in");
        self.weights.clear();
        let mut feedback =
            RoundFeedback::for_round(round, cohort.clone(), cohort.clone(), Vec::new(), 0.5);
        for &party in &cohort {
            let record =
                self.store.record(party).map_err(|e| format!("round {round} page-in: {e}"))?;
            self.weights.push(record.data_size.max(1));
            feedback.duration.insert(party, record.latency_hint);
            feedback.train_loss.insert(party, 1.0);
        }
        tracer.exit(span);

        let span = tracer.enter("aggtree.fold");
        let mut partials: Vec<ExactWeightedSum> =
            (0..jobs::ROSTER_FANOUT).map(|_| ExactWeightedSum::new(dim)).collect();
        for (slot, &weight) in self.weights.iter().enumerate() {
            partials[slot % jobs::ROSTER_FANOUT]
                .fold(&self.updates[slot % self.updates.len()], weight)
                .map_err(|e| format!("round {round} fold: {e}"))?;
        }
        tracer.exit(span);

        let span = tracer.enter("aggtree.merge");
        let mut root = ExactWeightedSum::new(dim);
        for partial in &partials {
            root.merge(partial).map_err(|e| format!("round {round} merge: {e}"))?;
        }
        tracer.exit(span);

        let span = tracer.enter("aggtree.finish");
        root.finish_into(&mut self.accum).map_err(|e| format!("round {round} finish: {e}"))?;
        tracer.exit(span);

        let span = tracer.enter("server.apply_aggregate");
        self.server
            .apply_aggregate(&mut self.global, &self.accum)
            .map_err(|e| format!("round {round} apply: {e}"))?;
        tracer.exit(span);

        let span = tracer.enter("selection.report");
        self.selector.report(&feedback);
        tracer.exit(span);

        tracer.exit(round_span);
        Ok(())
    }

    /// The weighted mean of the last round's cohort in plain f64 — what
    /// the exact fold must agree with to rounding.
    fn reference_mean(&self) -> Vec<f64> {
        let total: f64 = self.weights.iter().map(|&w| w as f64).sum();
        let mut mean = vec![0.0f64; self.global.len()];
        for (slot, &weight) in self.weights.iter().enumerate() {
            for (m, &x) in mean.iter_mut().zip(&self.updates[slot % self.updates.len()]) {
                *m += weight as f64 * f64::from(x);
            }
        }
        mean.iter_mut().for_each(|m| *m /= total);
        mean
    }
}

fn roster_1m_tree(seed: u64, scale: &Scale, tracer: &mut Tracer) -> Result<Episode, String> {
    let (warmup, timed) = (scale.warmup_rounds, scale.roster_rounds);
    let rounds = warmup + timed;
    // Input generation, not set-up: the updates stand in for what 64
    // parties would have trained.
    let updates = jobs::synthetic_updates(seed, jobs::ROSTER_COHORT, jobs::MLP256_PARAMS);

    let start = Instant::now();
    let span = tracer.enter("setup");
    let roster = seal_roster(seed, scale.roster_parties)?;
    let selector = TiflSelector::from_source(&roster.store, TiflConfig::default(), seed)
        .map_err(|e| format!("tifl from_source: {e}"))?;
    let mut state = RosterRound {
        store: &roster.store,
        selector,
        server: ServerState::new(FlAlgorithm::fedyogi()),
        global: vec![0.0; jobs::MLP256_PARAMS],
        updates: &updates,
        accum: Vec::new(),
        weights: Vec::new(),
    };
    tracer.exit(span);
    let setup_s = start.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    for round in 0..warmup {
        state.run(round, tracer)?;
    }
    if warmup > 0 {
        let worst = state
            .reference_mean()
            .iter()
            .zip(&state.accum)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if worst > 1e-9 {
            problems.push(format!("exact fold is {worst:e} away from the f64 weighted mean"));
        }
    }
    let loaded0 = roster.store.loaded();
    let mut round_ms = Vec::with_capacity(timed);
    let cpu0 = cpu_seconds();
    let timed_start = Instant::now();
    for round in warmup..rounds {
        let t = Instant::now();
        state.run(round, tracer)?;
        round_ms.push(ms(t));
    }
    let timed_wall_s = timed_start.elapsed().as_secs_f64();
    let timed_cpu_s = cpu_seconds() - cpu0;
    let job_s = start.elapsed().as_secs_f64();

    if roster.store.resident_segments() > jobs::ROSTER_BUDGET {
        problems.push(format!(
            "{} segments resident, budget {}",
            roster.store.resident_segments(),
            jobs::ROSTER_BUDGET
        ));
    }
    let loaded = roster.store.loaded() - loaded0;
    // A roster that fits its budget (the smoke one) stays resident.
    if loaded == 0 && roster.store.spilled() > jobs::ROSTER_BUDGET as u64 {
        problems.push("nothing paged in during the timed rounds — the workload is vacuous".into());
    }
    if state.global.iter().any(|x| !x.is_finite()) {
        problems.push("global model went non-finite".into());
    }
    let mut digest = Digest::new();
    digest.floats(&state.global);
    digest.word(loaded);
    let folded = (jobs::ROSTER_COHORT * local_update_bytes(jobs::MLP256_PARAMS)) as f64;
    Ok(Episode {
        setup_s,
        round_ms,
        timed_rounds: timed,
        timed_wall_s,
        timed_cpu_s,
        job_s,
        rounds_total: rounds,
        bytes_per_round: folded + loaded as f64 * roster.segment_bytes / timed as f64,
        digest: digest.finish(),
        problems,
        paper: None,
    })
}
