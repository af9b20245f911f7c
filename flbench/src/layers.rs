//! The per-layer table: every layer measured from outside, by timing
//! calls into public functions. Three sources.
//!
//! **(a) Stage replay** — a hand driver over the `JobParts` of the
//! `wire_entropy` job that makes every call `MultiJobDriver` and
//! `PartyPool` make, one span per call, and asserts that its history
//! equals the real driver's bit for bit. Its self times are the round
//! budget; `stage.unattributed_pct` is what the spans do not cover.
//! **(b) Coarse spans** around the real drivers' public calls, in short
//! runs of each workload's job. **(c) Probes** (`probes.rs`) replaying
//! inputs captured from (a) through single public functions.
//!
//! The table does not depend on which workload the traced pass ran: it
//! is measured whole every time, from jobs built from the same seed.

use crate::jobs::{self, Scale};
use crate::probes;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, drive_wire, fl, refused_frames, RosterRound};
use bytes::BytesMut;
use flips_core::fl::codec::{CodecMap, Negotiation, Role};
use flips_core::fl::message::{deframe_with, frame_into, AGGREGATOR_DEST};
use flips_core::fl::server::ServerState;
use flips_core::fl::FrameKind;
use flips_core::fl::FrameVerdict;
use flips_core::prelude::*;
use flips_core::selection::tifl::TiflConfig;
use flips_core::selection::{RandomSelector, TiflSelector};
use flips_net::SocketOptions;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The measured table, plus what measuring it attempted and found wrong.
#[derive(Debug, Default)]
pub struct Table {
    pub values: BTreeMap<&'static str, f64>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Table {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Inputs captured from the stage replay for the probes: two consecutive
/// globals and the updates trained between them.
pub struct Captured {
    pub global_prev: Arc<[f32]>,
    pub global_next: Arc<[f32]>,
    /// `LocalUpdate` messages of the round that turned `prev` into `next`.
    pub updates: Vec<WireMessage>,
}

/// Measures the whole table.
pub fn measure(seed: u64, scale: &Scale) -> Result<Table, String> {
    let mut table = Table::default();
    let captured = stage_replay(seed, scale, &mut table)?;
    net_runs(seed, scale, &mut table)?;
    converge_run(seed, scale, &mut table)?;
    roster_run(seed, scale, &mut table)?;
    probes::run(seed, scale, &captured, &mut table)?;
    Ok(table)
}

// ------------------------------------------------------------ (a) + (b) wire

/// Span names of the stage replay, in the order a frame meets them, and
/// the metric each one's self time feeds. Together they are the budget
/// `stage.sum_ms` adds up.
const STAGES: [(&str, &str); 10] = [
    ("coordinator.open_round", "coordinator.open_round_ms"),
    ("message.encode_down", "message.encode_down_ms"),
    ("transport.stream", "transport.stream_ms"),
    ("message.decode_down", "message.decode_down_ms"),
    ("endpoint.handle", "endpoint.train_ms"),
    ("message.encode_up", "message.encode_up_ms"),
    ("guard", "guard.admit_ms"),
    ("message.decode_up", "message.decode_up_ms"),
    ("coordinator.accept", "coordinator.accept_ms"),
    ("coordinator.close", "coordinator.close_ms"),
];

/// The hand driver. One thread, one job, lockstep: open a round, move
/// every downlink frame, let the party side train and answer, move every
/// uplink frame, close — the call sequence of `MultiJobDriver::pump` and
/// `PartyPool::pump`, written out so each call can carry a span.
fn replay_stages(job: FlJob, tracer: &mut Tracer) -> Result<(History, Captured), String> {
    let JobParts { mut coordinator, endpoints, mut clock, latency, .. } = job.into_parts();
    let job_id = coordinator.job_id();
    let codec = coordinator.codec();
    let (agg_end, party_end) = duplex();
    let mut agg_wire = StreamTransport::new(agg_end);
    let mut party_wire = StreamTransport::new(party_end);
    let mut guard = GuardPlane::new(GuardConfig::default()).map_err(fl("guard"))?;
    let mut agg_codecs = CodecMap::new(Role::Sender);
    agg_codecs.register(job_id, codec);
    let mut party_codecs = CodecMap::new(Role::Receiver);
    if let Some(ep) = endpoints.first() {
        party_codecs.expect_len(job_id, ep.party().num_params());
    }
    let mut endpoints: BTreeMap<PartyId, PartyEndpoint> =
        endpoints.into_iter().map(|ep| (ep.id(), ep)).collect();
    let mut scratch = BytesMut::new();
    let mut captured = Captured {
        global_prev: Arc::from(Vec::new()),
        global_next: Arc::from(Vec::new()),
        updates: Vec::new(),
    };

    while !coordinator.is_finished() {
        let round = coordinator.round();
        tracer.set_round(round as u32);
        let round_span = tracer.enter("round");

        let span = tracer.enter("coordinator.open_round");
        let effects = coordinator.open_round().map_err(fl("open_round"))?;
        tracer.exit(span);
        let selected: Vec<PartyId> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg: WireMessage::SelectionNotice { .. } } => Some(*to),
                _ => None,
            })
            .collect();
        // The job injects no stragglers; the clock is still consulted
        // once per open, as the driver does, so its RNG stays in step.
        let victims = clock.missed_deadline(&selected, &latency);
        if !victims.is_empty() {
            return Err("the wire job is built without stragglers, yet the clock struck".into());
        }
        let span = tracer.enter("guard");
        let outcome = guard.on_round_open(job_id, &selected);
        tracer.exit(span);
        if !outcome.ejected.is_empty() {
            return Err("guard ejected a party on a clean wire".into());
        }

        // Downlink: frame and send every message of the open.
        let mut round_updates = Vec::new();
        for effect in effects {
            let Effect::Send { to, msg } = effect else { continue };
            if let WireMessage::GlobalModel { params, .. } = &msg {
                if !Arc::ptr_eq(params, &captured.global_next) {
                    captured.global_prev =
                        std::mem::replace(&mut captured.global_next, Arc::clone(params));
                }
            }
            let span = tracer.enter("message.encode_down");
            frame_into(to as u64, &msg, agg_codecs.for_job(job_id), &mut scratch);
            tracer.exit(span);
            let span = tracer.enter("transport.stream");
            agg_wire.send(scratch.as_slice()).map_err(fl("downlink send"))?;
            tracer.exit(span);
        }

        // Party side: decode, route, train, answer.
        loop {
            let span = tracer.enter("transport.stream");
            let raw = party_wire.try_recv().map_err(fl("downlink recv"))?;
            tracer.exit(span);
            let Some(raw) = raw else { break };
            let span = tracer.enter("message.decode_down");
            let (dest, msg) =
                deframe_with(raw, &mut party_codecs).map_err(fl("downlink decode"))?;
            tracer.exit(span);
            if let WireMessage::SelectionNotice { job, codec, .. } = &msg {
                if party_codecs.negotiate(*job, *codec) == Negotiation::Conflict {
                    return Err("codec renegotiation on a clean wire".into());
                }
            }
            let endpoint = endpoints
                .get_mut(&(dest as PartyId))
                .ok_or_else(|| format!("frame for unknown party {dest}"))?;
            let span = tracer.enter("endpoint.handle");
            let replies = endpoint.handle(&msg).map_err(fl("endpoint"))?;
            tracer.exit(span);
            for reply in replies {
                let span = tracer.enter("message.encode_up");
                frame_into(AGGREGATOR_DEST, &reply, party_codecs.for_job(job_id), &mut scratch);
                tracer.exit(span);
                let span = tracer.enter("transport.stream");
                party_wire.send(scratch.as_slice()).map_err(fl("uplink send"))?;
                tracer.exit(span);
                if matches!(reply, WireMessage::LocalUpdate { .. }) {
                    round_updates.push(reply);
                }
            }
        }

        // Aggregator side: guard, decode, admit, hand to the coordinator.
        let mut closed = false;
        loop {
            let span = tracer.enter("transport.stream");
            let raw = agg_wire.try_recv().map_err(fl("uplink recv"))?;
            tracer.exit(span);
            let Some(raw) = raw else { break };
            let span = tracer.enter("guard");
            let len_ok = guard.frame_len_ok(raw.len());
            tracer.exit(span);
            if !len_ok {
                return Err("guard refused a frame's size on a clean wire".into());
            }
            let span = tracer.enter("message.decode_up");
            let (_, msg) = deframe_with(raw, &mut agg_codecs).map_err(fl("uplink decode"))?;
            tracer.exit(span);
            let (party, kind) = match &msg {
                WireMessage::LocalUpdate { party, .. } => (*party, FrameKind::Update),
                WireMessage::Heartbeat { party, .. } => (*party, FrameKind::Control),
                other => return Err(format!("unexpected uplink message {other:?}")),
            };
            let span = tracer.enter("guard");
            let verdict = guard.admit(job_id, party, kind);
            tracer.exit(span);
            if verdict != FrameVerdict::Admit {
                return Err(format!("guard verdict {verdict:?} on a clean wire"));
            }
            // Whether this call closes the round is only known after it
            // returns: the span is named then.
            let span = tracer.enter("coordinator.accept");
            let effects =
                coordinator.handle(Event::UpdateReceived(msg)).map_err(fl("coordinator"))?;
            if effects.iter().any(|e| matches!(e, Effect::RoundClosed(_))) {
                tracer.rename(span, "coordinator.close");
                closed = true;
            }
            tracer.exit(span);
            if effects.iter().any(|e| matches!(e, Effect::Rejected { .. } | Effect::Send { .. })) {
                return Err(format!(
                    "round {round}: coordinator bounced a message or aborted a party"
                ));
            }
        }
        if !closed {
            return Err(format!("round {round} did not close on a full cohort"));
        }
        captured.updates = round_updates;
        tracer.exit(round_span);
    }
    // The last round's updates were trained on `global_next`; the global
    // they produced is the coordinator's final one.
    captured.global_prev =
        std::mem::replace(&mut captured.global_next, Arc::from(coordinator.global_params()));
    Ok((coordinator.history().clone(), captured))
}

fn stage_replay(seed: u64, scale: &Scale, table: &mut Table) -> Result<Captured, String> {
    let rounds = scale.layer_rounds;
    table.attempted += 2 * rounds as u64;
    let per_round = |ns: u64| ns as f64 / 1e6 / rounds as f64;

    let mut tracer = Tracer::on();
    let job = jobs::mlp256_job(seed, rounds, ModelCodec::DeltaEntropy)?;
    let (history, captured) = replay_stages(job, &mut tracer)?;
    let own = tracer.self_ns_by_name();
    let total = tracer.total_ns_by_name();
    let mut sum_ms = 0.0;
    for (span, metric) in STAGES {
        let ms = per_round(own.get(span).copied().unwrap_or(0));
        sum_ms += ms;
        table.set(metric, ms);
    }
    let round_ms = per_round(total.get("round").copied().unwrap_or(0));
    table.set("stage.sum_ms", sum_ms);
    table.set("stage.round_ms", round_ms);
    // Self time of the round spans: the part of each round no stage
    // span covers (loop control, the benchmark's own bookkeeping).
    let unattributed = per_round(own.get("round").copied().unwrap_or(0));
    table.set("stage.unattributed_pct", 100.0 * unattributed / round_ms);

    // (b) the real driver on the same job, coarse spans around its calls.
    let mut tracer = Tracer::on();
    let job = jobs::mlp256_job(seed, rounds, ModelCodec::DeltaEntropy)?;
    let real = drive_wire(job, true, 0, &mut tracer)?;
    let total = tracer.total_ns_by_name();
    for (span, metric) in [
        ("driver.pump", "driver.pump_ms"),
        ("pool.pump", "pool.pump_ms"),
        ("driver.advance_clock", "driver.advance_clock_ms"),
    ] {
        table.set(metric, per_round(total.get(span).copied().unwrap_or(0)));
    }
    table.set("driver.idle_pump_share", real.idle_pumps as f64 / real.pumps as f64);
    table.set("driver.frames_sent_per_round", real.stats.frames_sent as f64 / rounds as f64);
    table
        .set("driver.frames_received_per_round", real.stats.frames_received as f64 / rounds as f64);
    table.set("driver.refused_frames", refused_frames(&real.stats) as f64);

    if history != real.history {
        table.problems.push("stage replay history differs from the real driver's".into());
    }
    if refused_frames(&real.stats) != 0 {
        table.problems.push(format!("real driver refused {} frames", refused_frames(&real.stats)));
    }
    Ok(captured)
}

// ------------------------------------------------------------------ (b) net

fn net_runs(seed: u64, scale: &Scale, table: &mut Table) -> Result<(), String> {
    let rounds = scale.layer_rounds.max(2);
    // The socket job on the in-process pipe, one thread: what the round
    // costs before threads, the kernel and quiescence probes are added.
    let job = jobs::mlp256_job(seed, rounds, ModelCodec::Raw)?;
    let raw = drive_wire(job, true, 0, &mut Tracer::off())?;
    let lockstep_ms = (raw.stamps[rounds] - raw.stamps[0]).as_secs_f64() * 1e3 / rounds as f64;
    table.set("lockstep_raw.round_ms", lockstep_ms);

    let socket_ms = |rounds: usize| -> Result<f64, String> {
        let parts = jobs::mlp256_job(seed, rounds, ModelCodec::Raw)?.into_parts();
        let opts = SocketOptions::new(2).with_guard(GuardConfig::default());
        let start = Instant::now();
        flips_net::run_socket(vec![parts], &opts).map_err(fl("run_socket"))?;
        Ok(start.elapsed().as_secs_f64() * 1e3)
    };
    // A one-round call is the fixed cost (listen, accept, hello, probe,
    // shutdown) plus one round; the long call prices a round. Three of
    // each: one call is one reading.
    let (mut one_round, mut long) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        one_round.push(socket_ms(1)?);
        long.push(socket_ms(rounds)?);
    }
    let one = median(&one_round);
    let per_round = (median(&long) - one) / (rounds - 1) as f64;
    table.set("net.run_fixed_ms", one - per_round);
    // Negative when two worker threads train the cohort faster than one
    // thread does, which is the point of the links.
    table.set("net.residual_ms_per_round", per_round - lockstep_ms);
    table.attempted += (4 * rounds + 3) as u64;
    Ok(())
}

// ------------------------------------------------------------- (b) converge

/// One full-length job of the paper's cell: its metrics, and the round
/// time of `FlJob::step` — the only public call a converge round makes.
fn converge_run(seed: u64, scale: &Scale, table: &mut Table) -> Result<(), String> {
    table.attempted += scale.paper_rounds as u64;
    let episode = workloads::converge_flips(seed, scale.paper_rounds, scale, &mut Tracer::off())?;
    table.problems.extend(episode.problems.iter().cloned());
    let paper = episode.paper.ok_or("converge episode carries no paper metrics")?;
    table.set("fljob.step_ms", median(&episode.round_ms));
    table.set("converge.time_to_target_s", paper.time_to_target_s);
    table.set("converge.rounds_to_target", paper.rounds_to_target);
    table.set("converge.bytes_to_target", paper.bytes_to_target);
    table.set("converge.peak_accuracy", paper.peak_accuracy);
    table.set("converge.target_missed", paper.target_missed);
    Ok(())
}

// --------------------------------------------------------------- (b) roster

fn roster_run(seed: u64, scale: &Scale, table: &mut Table) -> Result<(), String> {
    let roster = workloads::seal_roster(seed, scale.roster_parties)?;
    table.set("roster.seal_1m_ms", roster.seal_s * 1e3);
    let store = &roster.store;

    let start = Instant::now();
    let mut visited = 0usize;
    store
        .visit_all(&mut |_, record| visited += record.label_counts.len())
        .map_err(fl("visit_all"))?;
    table.set("roster.visit_all_1m_ms", start.elapsed().as_secs_f64() * 1e3);
    if visited != 3 * scale.roster_parties {
        table.problems.push(format!("visit_all saw {visited} label counts"));
    }

    let start = Instant::now();
    let random = RandomSelector::from_source(store, seed);
    table.set("selection.random.from_source_1m_ms", start.elapsed().as_secs_f64() * 1e3);
    std::hint::black_box(random.num_parties());

    let start = Instant::now();
    let selector = TiflSelector::from_source(store, TiflConfig::default(), seed)
        .map_err(|e| format!("tifl: {e}"))?;
    table.set("selection.tifl.from_source_1m_ms", start.elapsed().as_secs_f64() * 1e3);

    // The workload's own round, traced: the budget of roster_1m_tree.
    let rounds = scale.layer_rounds;
    let updates = jobs::synthetic_updates(seed, jobs::ROSTER_COHORT, jobs::MLP256_PARAMS);
    let mut state = RosterRound {
        store,
        selector,
        server: ServerState::new(FlAlgorithm::fedyogi()),
        global: vec![0.0; jobs::MLP256_PARAMS],
        updates: &updates,
        accum: Vec::new(),
        weights: Vec::new(),
    };
    let mut tracer = Tracer::on();
    let loaded0 = store.loaded();
    for round in 0..rounds {
        state.run(round, &mut tracer)?;
    }
    table.attempted += rounds as u64;
    let total = tracer.total_ns_by_name();
    for (span, metric) in [
        ("selection.select", "roster.round_select_ms"),
        ("roster.page_in", "roster.round_page_in_ms"),
        ("aggtree.fold", "roster.round_fold_ms"),
        ("aggtree.merge", "roster.round_merge_ms"),
        ("aggtree.finish", "roster.round_finish_ms"),
        ("server.apply_aggregate", "roster.round_apply_ms"),
        ("selection.report", "roster.round_report_ms"),
    ] {
        table.set(metric, total.get(span).copied().unwrap_or(0) as f64 / 1e6 / rounds as f64);
    }
    table.set("roster.loaded_per_round", (store.loaded() - loaded0) as f64 / rounds as f64);
    table.set("roster.resident_segments", store.resident_segments() as f64);
    probes::roster_access(store, scale, table)?;
    Ok(())
}
