//! Regenerates the paper's Figures 2 and 5–13, plus two ablations of
//! its mechanism (the cluster count `k`; Algorithm 1's straggler
//! overprovisioning), as CSV series on stdout.
//!
//! ```text
//! cargo run --release -p flips-bench --bin figures -- --figure 2
//! cargo run --release -p flips-bench --bin figures -- --figure 5
//! cargo run --release -p flips-bench --bin figures -- --figure 13
//! cargo run --release -p flips-bench --bin figures -- --figure ablation-k
//! cargo run --release -p flips-bench --bin figures -- --figure ablation-overprovision
//! ```
//!
//! Figure → dataset mapping follows the paper: 5/6 = MIT-BIH ECG,
//! 7/8 = HAM10000, 9/10 = FEMNIST, 11/12 = FashionMNIST; odd figures are
//! straggler-free (all five selectors), even figures inject 10%/20%
//! stragglers (FLIPS/Oort/TiFL). All curves use FedYogi, as the paper's
//! plots do. `--full` switches to paper scale.

#![forbid(unsafe_code)]

use flips_bench::{dataset, Scale, NO_STRAGGLER_COLUMNS, STRAGGLER_COLUMNS};
use flips_core::clustering::{optimal_k, ElbowConfig};
use flips_core::data::dataset::generate_population;
use flips_core::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: figures --figure <2|5|6|7|8|9|10|11|12|13|ablation-k|ablation-overprovision> [--full]"
    );
    std::process::exit(2);
}

fn main() {
    let mut figure: Option<String> = None;
    let mut scale = Scale::Fast;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--figure" => figure = Some(args.next().unwrap_or_else(|| usage())),
            "--full" => scale = Scale::Full,
            _ => usage(),
        }
    }
    let figure = figure.unwrap_or_else(|| usage());
    match figure.as_str() {
        "2" => figure2(scale),
        "5" => convergence(0, false, scale),
        "6" => convergence(0, true, scale),
        "7" => convergence(1, false, scale),
        "8" => convergence(1, true, scale),
        "9" => convergence(2, false, scale),
        "10" => convergence(2, true, scale),
        "11" => convergence(3, false, scale),
        "12" => convergence(3, true, scale),
        "13" => figure13(scale),
        "ablation-k" => ablation_k(scale),
        "ablation-overprovision" => ablation_overprovision(scale),
        _ => usage(),
    }
}

fn builder(dataset_idx: usize, scale: Scale) -> SimulationBuilder {
    let profile = dataset(dataset_idx);
    SimulationBuilder::new(profile.clone())
        .parties(scale.parties(&profile))
        .rounds(scale.rounds(&profile))
        .clustering_restarts(scale.restarts())
        .test_per_class(scale.test_per_class())
        .seed(1)
}

/// Figure 2: Davies-Bouldin score vs cluster size, with the elbow point.
fn figure2(scale: Scale) {
    let profile = dataset(0);
    let parties = scale.parties(&profile);
    let pop = generate_population(&profile, parties * 200, 1);
    let parts =
        partition(&pop, parties, PartitionStrategy::Dirichlet { alpha: 0.3 }, 5, 1).unwrap();
    let points: Vec<Vec<f32>> =
        parts.label_distributions().iter().map(|ld| ld.normalized()).collect();
    let cfg = ElbowConfig {
        restarts: scale.restarts().max(10),
        ..ElbowConfig::new(30.min(parties - 1), 1)
    };
    let result = optimal_k(&points, cfg).unwrap();
    println!("# Figure 2: DBI vs cluster size ({} label distributions)", parties);
    println!("# elbow point: k = {}", result.k);
    println!("k,davies_bouldin");
    for (k, dbi) in result.curve {
        println!("{k},{dbi:.6}");
    }
}

/// Figures 5/7/9/11 (and 6/8/10/12 with `stragglers`): convergence curves.
fn convergence(dataset_idx: usize, stragglers: bool, scale: Scale) {
    let profile = dataset(dataset_idx);
    let panels: &[(f64, f64)] = &[(0.3, 0.15), (0.3, 0.20), (0.6, 0.15), (0.6, 0.20)];
    for &(alpha, participation) in panels {
        let mut names: Vec<String> = Vec::new();
        let mut series: Vec<Vec<f64>> = Vec::new();
        if stragglers {
            for &kind in &STRAGGLER_COLUMNS {
                for rate in [0.10, 0.20] {
                    let report = builder(dataset_idx, scale)
                        .alpha(alpha)
                        .participation(participation)
                        .selector(kind)
                        .straggler_rate(rate)
                        .run()
                        .expect("figure run");
                    names.push(format!("{}_{:.0}pct_strg", kind.label(), rate * 100.0));
                    series.push(report.history.accuracy_series());
                }
            }
        } else {
            for &kind in &NO_STRAGGLER_COLUMNS {
                let report = builder(dataset_idx, scale)
                    .alpha(alpha)
                    .participation(participation)
                    .selector(kind)
                    .run()
                    .expect("figure run");
                names.push(kind.label().to_string());
                series.push(report.history.accuracy_series());
            }
        }
        println!(
            "# {}: convergence, alpha={alpha}, participation={:.0}%, stragglers={}",
            profile.name,
            participation * 100.0,
            stragglers
        );
        println!("round,{}", names.join(","));
        let rounds = series.iter().map(Vec::len).max().unwrap_or(0);
        for r in 0..rounds {
            let row: Vec<String> = series
                .iter()
                .map(|s| s.get(r).map(|a| format!("{a:.4}")).unwrap_or_default())
                .collect();
            println!("{},{}", r + 1, row.join(","));
        }
        println!();
    }
}

/// Figure 13: recall trajectory of underrepresented labels (ECG
/// arrhythmia classes; HAM `bcc`).
fn figure13(scale: Scale) {
    for (dataset_idx, label_idx, label_name) in
        [(0usize, 3usize, "F (fusion beats)"), (1, 1, "bcc")]
    {
        let profile = dataset(dataset_idx);
        let mut names = Vec::new();
        let mut series: Vec<Vec<Option<f64>>> = Vec::new();
        for &kind in &NO_STRAGGLER_COLUMNS {
            let report = builder(dataset_idx, scale)
                .alpha(0.3)
                .participation(0.20)
                .selector(kind)
                .run()
                .expect("figure run");
            names.push(kind.label().to_string());
            series.push(report.history.label_recall_series(label_idx));
        }
        println!(
            "# Figure 13: recall of underrepresented label '{label_name}' on {}",
            profile.name
        );
        println!("round,{}", names.join(","));
        let rounds = series.iter().map(Vec::len).max().unwrap_or(0);
        for r in 0..rounds {
            let row: Vec<String> = series
                .iter()
                .map(|s| s.get(r).copied().flatten().map(|a| format!("{a:.4}")).unwrap_or_default())
                .collect();
            println!("{},{}", r + 1, row.join(","));
        }
        println!();
    }
}

/// Ablation: FLIPS sensitivity to the cluster count k (§3.1's small-k /
/// large-k failure modes).
fn ablation_k(scale: Scale) {
    let profile = dataset(0);
    let parties = scale.parties(&profile);
    println!("# Ablation: FLIPS cluster-count sensitivity on {}", profile.name);
    println!("k,peak_accuracy,rounds_to_target");
    for k in [2usize, 5, 10, 14, 20, parties / 2] {
        let report = builder(0, scale)
            .alpha(0.3)
            .participation(0.20)
            .selector(SelectorKind::Flips)
            .fixed_k(k)
            .run()
            .expect("ablation run");
        println!(
            "{k},{:.4},{}",
            report.peak_accuracy(),
            report
                .rounds_to_target()
                .map(|r| r.to_string())
                .unwrap_or_else(|| format!(">{}", report.meta.rounds))
        );
    }
    let elbow = builder(0, scale)
        .alpha(0.3)
        .participation(0.20)
        .selector(SelectorKind::Flips)
        .run()
        .expect("ablation run");
    println!(
        "elbow(k={}),{:.4},{}",
        elbow.meta.k.unwrap_or(0),
        elbow.peak_accuracy(),
        elbow
            .rounds_to_target()
            .map(|r| r.to_string())
            .unwrap_or_else(|| format!(">{}", elbow.meta.rounds))
    );
}

/// Ablation: straggler overprovisioning on/off at 10%/20% drop rates.
fn ablation_overprovision(scale: Scale) {
    println!("# Ablation: FLIPS straggler overprovisioning on {}", dataset(0).name);
    println!("straggler_rate,overprovision,peak_accuracy,rounds_to_target");
    for rate in [0.10, 0.20] {
        for overprovision in [true, false] {
            let mut b = builder(0, scale)
                .alpha(0.3)
                .participation(0.20)
                .selector(SelectorKind::Flips)
                .straggler_rate(rate);
            if !overprovision {
                b = b.without_overprovisioning();
            }
            let report = b.run().expect("ablation run");
            println!(
                "{rate},{overprovision},{:.4},{}",
                report.peak_accuracy(),
                report
                    .rounds_to_target()
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| format!(">{}", report.meta.rounds))
            );
        }
    }
}
