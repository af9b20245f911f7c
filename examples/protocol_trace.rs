//! Protocol trace — drive the sans-IO `Coordinator`/`PartyEndpoint` pair
//! by hand and print every message on the (virtual) wire.
//!
//! ```text
//! cargo run --release --example protocol_trace
//! ```
//!
//! This is the message-driven API underneath `FlJob`/`SimulationBuilder`:
//! a pure state machine consuming events (`UpdateReceived`,
//! `DeadlineExpired`, `PartyDropped`) and emitting effects (`Send`,
//! `RoundClosed`, `JobFinished`). Here *we* are the driver: we move the
//! messages, we decide when the deadline fires, and we even misbehave —
//! replaying a duplicate update to show the coordinator reject it — all
//! without a thread, socket or clock in sight.

use flips::fl::config::LocalTrainingConfig;
use flips::prelude::*;
use flips::selection::RandomSelector;
use std::sync::Arc;

fn label(msg: &WireMessage) -> String {
    match msg {
        WireMessage::SelectionNotice { round, party, .. } => {
            format!("SelectionNotice(round {round}, party {party})")
        }
        WireMessage::GlobalModel { round, params, .. } => {
            format!("GlobalModel(round {round}, {} params)", params.len())
        }
        WireMessage::LocalUpdate { round, party, mean_loss, .. } => {
            format!("LocalUpdate(round {round}, party {party}, loss {mean_loss:.3})")
        }
        WireMessage::Heartbeat { round, party, .. } => {
            format!("Heartbeat(round {round}, party {party})")
        }
        WireMessage::Abort { round, party, reason, .. } => {
            format!("Abort(round {round}, party {party}, {reason:?})")
        }
        WireMessage::PartialUpdate { round, total_weight, entries, .. } => {
            format!(
                "PartialUpdate(round {round}, {} parties, weight {total_weight})",
                entries.len()
            )
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small federation, assembled by hand (no SimulationBuilder).
    let parties = 6;
    let seed = 17;
    let profile = DatasetProfile::femnist().scaled(parties, 3);
    let population = generate_population(&profile, profile.default_total_samples, seed);
    let parts =
        partition(&population, parties, PartitionStrategy::Dirichlet { alpha: 0.5 }, 5, seed)?;
    let test = balanced_test_set(&profile, 10, seed);
    let latency = Arc::new(LatencyModel::sample(parties, 0.4, seed));

    let mut coordinator = Coordinator::new(
        CoordinatorConfig {
            algorithm: FlAlgorithm::FedAvg,
            rounds: 3,
            parties_per_round: 3,
            seed,
            ..CoordinatorConfig::new(profile.model.clone())
        },
        parties,
        test,
        Box::new(RandomSelector::new(parties, seed)),
    )?;
    let job_id = coordinator.job_id();

    let local = LocalTrainingConfig { epochs: 1, ..Default::default() };
    let mut endpoints: Vec<PartyEndpoint> = parts
        .parties
        .into_iter()
        .enumerate()
        .map(|(id, ds)| {
            PartyEndpoint::new(
                id,
                ds,
                &profile.model,
                job_id,
                local,
                0.0,
                Arc::clone(&latency),
                seed,
            )
        })
        .collect();

    while !coordinator.is_finished() {
        println!("── open round {} ──", coordinator.round());
        let mut inbound: Vec<WireMessage> = Vec::new();
        for effect in coordinator.open_round()? {
            if let Effect::Send { to, msg } = effect {
                println!("  agg ─▶ p{to}: {}", label(&msg));
                // In round 1 we play a flaky network: party replies to the
                // notice but its trained update never arrives in time.
                let drop_update = coordinator.round() == 1 && inbound.len() < 2;
                for reply in endpoints[to].handle(&msg)? {
                    let is_update = matches!(reply, WireMessage::LocalUpdate { .. });
                    if is_update && drop_update {
                        println!("  p{to} ─▶ agg: {} … lost in transit", label(&reply));
                    } else {
                        println!("  p{to} ─▶ agg: {}", label(&reply));
                        inbound.push(reply);
                    }
                }
            }
        }

        // Replay the first update to demonstrate duplicate rejection.
        if let Some(dup) =
            inbound.iter().find(|m| matches!(m, WireMessage::LocalUpdate { .. })).cloned()
        {
            println!("  (replaying {} — a duplicate)", label(&dup));
            inbound.push(dup);
        }

        let mut effects = Vec::new();
        for msg in inbound {
            effects.extend(coordinator.handle(Event::UpdateReceived(msg))?);
        }
        if coordinator.open_cohort().is_some() {
            println!("  ⏰ deadline expires");
            effects.extend(coordinator.handle(Event::DeadlineExpired)?);
        }
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    println!("  agg ─▶ p{to}: {}", label(&msg));
                    endpoints[to].handle(&msg)?;
                }
                Effect::Rejected { party, reason, .. } => {
                    let who = party.map_or("?".into(), |p| p.to_string());
                    println!("  ✗ rejected update from p{who}: {reason}");
                }
                Effect::RoundClosed(record) => {
                    println!(
                        "  ✔ round {} closed: completed {:?}, stragglers {:?}, accuracy {:.3}",
                        record.round, record.completed, record.stragglers, record.accuracy
                    );
                }
                Effect::JobFinished(history) => {
                    println!(
                        "  ■ job {job_id:#x} finished: peak accuracy {:.3}, {:.1} KiB on the wire",
                        history.peak_accuracy(),
                        history.total_bytes() as f64 / 1024.0
                    );
                }
            }
        }
    }
    Ok(())
}
