//! Cross-crate end-to-end tests: the full pipeline (synthetic data →
//! Dirichlet partition → TEE clustering → selection → FL rounds →
//! metrics) on scaled-down versions of the paper's experiments.

use flips::prelude::*;

fn builder(profile: DatasetProfile, selector: SelectorKind) -> SimulationBuilder {
    SimulationBuilder::new(profile)
        .parties(24)
        .rounds(10)
        .participation(0.25)
        .alpha(0.3)
        .selector(selector)
        .clustering_restarts(3)
        .test_per_class(10)
        .seed(17)
}

#[test]
fn all_selectors_complete_on_all_profiles() {
    for profile in DatasetProfile::all() {
        for kind in SelectorKind::all() {
            let report = builder(profile.clone(), kind)
                .run()
                .unwrap_or_else(|e| panic!("{} / {kind}: {e}", profile.name));
            assert_eq!(report.history.len(), 10, "{} / {kind}", profile.name);
            for record in report.history.records() {
                assert!(record.selected.len() >= report.meta.parties_per_round);
                assert!((0.0..=1.0).contains(&record.accuracy));
            }
        }
    }
}

#[test]
fn round_records_are_internally_consistent() {
    let report =
        builder(DatasetProfile::ecg(), SelectorKind::Flips).straggler_rate(0.2).run().unwrap();
    for r in report.history.records() {
        // completed ∪ stragglers == selected (as sets).
        let mut resolved: Vec<_> = r.completed.iter().chain(&r.stragglers).copied().collect();
        resolved.sort_unstable();
        let mut selected = r.selected.clone();
        selected.sort_unstable();
        assert_eq!(resolved, selected, "round {} loses parties", r.round);
        // No party both completes and straggles.
        assert!(r.completed.iter().all(|p| !r.stragglers.contains(p)));
        // Byte accounting present whenever anyone completed.
        if !r.completed.is_empty() {
            assert!(r.bytes_up > 0);
            assert!(r.round_duration > 0.0);
        }
        assert!(r.bytes_down > 0);
        // Recalls are probabilities.
        for recall in r.per_label_recall.iter().flatten() {
            assert!((0.0..=1.0).contains(recall));
        }
    }
}

#[test]
fn flips_beats_random_on_imbalanced_non_iid_data() {
    // The paper's headline claim (Tables 1–4), scaled down: on the
    // ECG-shaped, heavily label-imbalanced dataset with Dirichlet(0.3)
    // partitioning, FLIPS converges to a higher balanced accuracy than
    // random selection. Averaged over 2 seeds to damp run noise.
    let run = |kind: SelectorKind, seed: u64| {
        SimulationBuilder::new(DatasetProfile::ecg())
            .parties(40)
            .rounds(35)
            .participation(0.2)
            .alpha(0.3)
            .selector(kind)
            .clustering_restarts(4)
            .test_per_class(20)
            .seed(seed)
            .run()
            .unwrap()
            .peak_accuracy()
    };
    let flips: f64 = [3u64, 4].iter().map(|&s| run(SelectorKind::Flips, s)).sum::<f64>() / 2.0;
    let random: f64 = [3u64, 4].iter().map(|&s| run(SelectorKind::Random, s)).sum::<f64>() / 2.0;
    assert!(flips > random + 0.03, "flips {flips:.3} must clearly beat random {random:.3}");
}

#[test]
fn flips_lifts_rare_label_recall() {
    // Figure 13's mechanism: the rarest label's recall under FLIPS
    // exceeds its recall under random selection.
    let run = |kind: SelectorKind| {
        SimulationBuilder::new(DatasetProfile::ecg())
            .parties(40)
            .rounds(35)
            .participation(0.2)
            .alpha(0.3)
            .selector(kind)
            .clustering_restarts(4)
            .test_per_class(20)
            .seed(5)
            .run()
            .unwrap()
    };
    let rare_labels = [1usize, 2, 3, 4]; // every non-majority ECG class
    let mean_peak_rare = |r: &SimulationReport| {
        rare_labels
            .iter()
            .map(|&l| r.history.label_recall_series(l).into_iter().flatten().fold(0.0f64, f64::max))
            .sum::<f64>()
            / rare_labels.len() as f64
    };
    let flips = run(SelectorKind::Flips);
    let random = run(SelectorKind::Random);
    assert!(
        mean_peak_rare(&flips) > mean_peak_rare(&random),
        "flips rare-recall {:.3} vs random {:.3}",
        mean_peak_rare(&flips),
        mean_peak_rare(&random)
    );
}

#[test]
fn higher_alpha_is_easier_for_random_selection() {
    // §4.3: α ≥ 1 approaches IID, where random selection suffices. The
    // random-selection gap between α = 5 and α = 0.1 should be positive.
    let run = |alpha: f64| {
        SimulationBuilder::new(DatasetProfile::femnist())
            .parties(30)
            .rounds(25)
            .participation(0.2)
            .alpha(alpha)
            .selector(SelectorKind::Random)
            .test_per_class(15)
            .seed(9)
            .run()
            .unwrap()
            .peak_accuracy()
    };
    let iid_ish = run(5.0);
    let pathological = run(0.1);
    assert!(
        iid_ish > pathological,
        "α=5 ({iid_ish:.3}) should beat α=0.1 ({pathological:.3}) under random selection"
    );
}

#[test]
fn communication_accounting_scales_with_model_and_cohort() {
    let small =
        builder(DatasetProfile::femnist(), SelectorKind::Random).participation(0.2).run().unwrap();
    let large =
        builder(DatasetProfile::femnist(), SelectorKind::Random).participation(0.5).run().unwrap();
    assert!(
        large.history.total_bytes() > small.history.total_bytes(),
        "more participants per round must cost more bytes"
    );
}
