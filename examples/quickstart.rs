//! Quickstart: run one FLIPS-selected federated-learning job end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small FEMNIST-profile federation (40 parties, Dirichlet
//! α = 0.3), clusters label distributions privately inside the simulated
//! TEE, and trains with FedYogi for 40 rounds, printing the convergence
//! trajectory.

use flips::prelude::*;

fn main() -> Result<(), FlipsError> {
    let report = SimulationBuilder::new(DatasetProfile::femnist())
        .parties(40)
        .rounds(40)
        .participation(0.20)
        .alpha(0.3)
        .algorithm(FlAlgorithm::fedyogi())
        .selector(SelectorKind::Flips)
        .clustering_restarts(10)
        .seed(42)
        .run()?;

    println!("dataset        : {}", report.meta.profile_name);
    println!("parties        : {}", report.meta.num_parties);
    println!("parties/round  : {}", report.meta.parties_per_round);
    println!("clusters (k)   : {:?}", report.meta.k);
    println!("TEE overhead   : {:?} (clustering ceremony)", report.meta.clustering_tee_overhead);
    println!();
    println!("round  balanced-accuracy");
    for (i, acc) in report.history.accuracy_series().iter().enumerate() {
        if i % 5 == 4 || i == 0 {
            println!("{:5}  {:.4}", i + 1, acc);
        }
    }
    println!();
    println!("peak accuracy  : {:.4}", report.peak_accuracy());
    match report.rounds_to_target() {
        Some(r) => println!("target {:.0}% hit : round {r}", report.meta.target_accuracy * 100.0),
        None => println!(
            "target {:.0}%     : not reached in budget",
            report.meta.target_accuracy * 100.0
        ),
    }
    println!(
        "communication  : {:.2} MiB total",
        report.history.total_bytes() as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}
