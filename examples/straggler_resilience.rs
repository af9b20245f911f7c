//! Straggler resilience — FLIPS's overprovisioning under platform
//! heterogeneity (paper §5.3, Figures 6/8).
//!
//! ```text
//! cargo run --release --example straggler_resilience
//! ```
//!
//! Drops 0% / 10% / 20% of each round's participants and compares FLIPS
//! with and without its straggler-overprovisioning mechanism (the
//! ablation `figures --figure ablation-overprovision` sweeps), plus Oort
//! with its 1.3× rule. FLIPS
//! replaces stragglers with parties from the *same label-distribution
//! cluster*, so the round's label mix stays intact.
//!
//! Under the sans-IO protocol, "dropping" a party means its `LocalUpdate`
//! misses the round deadline: the driver withholds the message, the
//! coordinator closes the round on `DeadlineExpired`, and whoever has
//! not delivered closes out as a straggler (and is sent an `Abort`).
//! Selectors observe exactly what a real deployment would — selected,
//! completed, stragglers — via the round-close feedback.

use flips::prelude::*;

fn build(
    rate: f64,
    kind: SelectorKind,
    overprovision: bool,
) -> Result<SimulationReport, FlipsError> {
    let mut b = SimulationBuilder::new(DatasetProfile::ecg())
        .parties(60)
        .rounds(60)
        .participation(0.20)
        .alpha(0.3)
        .selector(kind)
        .straggler_rate(rate)
        .clustering_restarts(8)
        .seed(23);
    if !overprovision {
        b = b.without_overprovisioning();
    }
    b.run()
}

fn main() -> Result<(), FlipsError> {
    println!("{:<28} {:>8} {:>10} {:>12}", "configuration", "peak", "final", "stragglers");
    for rate in [0.0, 0.10, 0.20] {
        for (label, kind, overprovision) in [
            ("flips", SelectorKind::Flips, true),
            ("flips (no overprovision)", SelectorKind::Flips, false),
            ("oort", SelectorKind::Oort, true),
        ] {
            let report = build(rate, kind, overprovision)?;
            println!(
                "{:<28} {:>8.3} {:>10.3} {:>12}",
                format!("{label} @ {:.0}% drop", rate * 100.0),
                report.peak_accuracy(),
                report.history.final_accuracy(),
                report.history.total_stragglers(),
            );
        }
        println!();
    }
    println!("FLIPS's benefits should endure as the drop rate rises (paper §5.3);");
    println!("disabling overprovisioning shows the mechanism's contribution.");
    Ok(())
}
