//! End-to-end straggler behaviour (paper §5.3): overprovisioning engages,
//! FLIPS keeps converging under 10–20% drop rates, and the ablation
//! switch isolates the mechanism.

use flips::prelude::*;

fn builder(kind: SelectorKind, rate: f64) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::ecg())
        .parties(30)
        .rounds(12)
        .participation(0.3)
        .alpha(0.3)
        .selector(kind)
        .straggler_rate(rate)
        .clustering_restarts(3)
        .test_per_class(8)
        .seed(13)
}

#[test]
fn flips_overprovisions_while_stragglers_are_outstanding() {
    let report = builder(SelectorKind::Flips, 0.2).run().unwrap();
    let nr = report.meta.parties_per_round;
    let overprovisioned = report
        .history
        .records()
        .iter()
        .skip(1) // round 0 has no straggler history yet
        .filter(|r| r.selected.len() > nr)
        .count();
    assert!(
        overprovisioned > 0,
        "FLIPS never overprovisioned across {} straggler-laden rounds",
        report.history.len()
    );
}

#[test]
fn ablation_switch_suppresses_overprovisioning() {
    let report = builder(SelectorKind::Flips, 0.2).without_overprovisioning().run().unwrap();
    let nr = report.meta.parties_per_round;
    assert!(
        report.history.records().iter().all(|r| r.selected.len() == nr),
        "ablated FLIPS must select exactly Nr parties"
    );
}

#[test]
fn oort_selects_1_3x_under_stragglers() {
    let report = builder(SelectorKind::Oort, 0.1).run().unwrap();
    let nr = report.meta.parties_per_round;
    let expected = ((nr as f64) * 1.3).ceil() as usize;
    for r in report.history.records() {
        assert_eq!(r.selected.len(), expected, "round {}", r.round);
    }
}

#[test]
fn no_stragglers_without_injection() {
    let report = builder(SelectorKind::Flips, 0.0).run().unwrap();
    assert_eq!(report.history.total_stragglers(), 0);
    let nr = report.meta.parties_per_round;
    assert!(report.history.records().iter().all(|r| r.selected.len() == nr));
}

#[test]
fn stragglers_scale_with_the_configured_rate() {
    let low = builder(SelectorKind::Random, 0.1).run().unwrap();
    let high = builder(SelectorKind::Random, 0.3).run().unwrap();
    assert!(
        high.history.total_stragglers() > low.history.total_stragglers(),
        "30% rate ({}) must strike more than 10% ({})",
        high.history.total_stragglers(),
        low.history.total_stragglers()
    );
}

#[test]
fn flips_still_learns_under_heavy_stragglers() {
    let report = SimulationBuilder::new(DatasetProfile::femnist())
        .parties(24)
        .rounds(20)
        .participation(0.3)
        .alpha(0.5)
        .selector(SelectorKind::Flips)
        .straggler_rate(0.2)
        .clustering_restarts(3)
        .test_per_class(10)
        .seed(21)
        .run()
        .unwrap();
    let first = report.history.records()[0].accuracy;
    assert!(
        report.peak_accuracy() > first + 0.1,
        "no learning under stragglers: {} -> {}",
        first,
        report.peak_accuracy()
    );
}
