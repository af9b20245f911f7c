//! FL-algorithm comparison under FLIPS selection (paper §2.1 / Tables
//! 1–24 across their FedYogi / FedProx / FedAvg blocks).
//!
//! ```text
//! cargo run --release --example fed_algorithms
//! ```
//!
//! Runs the same non-IID federation under all five supported algorithms
//! — the paper's three evaluated ones plus FedAdam and FedAdagrad, which
//! FLIPS also supports — and prints a per-algorithm summary. The paper's
//! expectation: adaptive server optimizers (FedYogi) handle non-IID
//! updates best; FedProx's proximal term helps over plain FedAvg.

use flips::prelude::*;

fn main() -> Result<(), FlipsError> {
    let algorithms = [
        FlAlgorithm::fedyogi(),
        FlAlgorithm::fedprox(),
        FlAlgorithm::FedAvg,
        FlAlgorithm::fedadam(),
        FlAlgorithm::fedadagrad(),
    ];
    println!("{:<12} {:>10} {:>14} {:>12}", "algorithm", "peak acc", "rounds-to-80%", "final acc");
    for algorithm in algorithms {
        let report = SimulationBuilder::new(DatasetProfile::femnist())
            .parties(60)
            .rounds(60)
            .participation(0.2)
            .alpha(0.3)
            .algorithm(algorithm)
            .selector(SelectorKind::Flips)
            .clustering_restarts(8)
            .seed(31)
            .run()?;
        let rtt = report
            .rounds_to_target()
            .map(|r| r.to_string())
            .unwrap_or_else(|| format!(">{}", report.meta.rounds));
        println!(
            "{:<12} {:>10.3} {:>14} {:>12.3}",
            algorithm.label(),
            report.peak_accuracy(),
            rtt,
            report.history.final_accuracy()
        );
    }
    Ok(())
}
