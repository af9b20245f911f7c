//! Regenerates the paper's Tables 1–24 and Figures 2 and 5–13, plus two
//! ablations of its mechanism (the cluster count `k`; Algorithm 1's
//! straggler overprovisioning). Tables print as text, figures as CSV
//! series.
//!
//! ```text
//! cargo run --release -p flips-bench --bin results -- --table 1 --table 2
//! cargo run --release -p flips-bench --bin results -- --figure 2
//! cargo run --release -p flips-bench --bin results -- --table 1 --figure 5
//! cargo run --release -p flips-bench --bin results -- --figure ablation-k
//! cargo run --release -p flips-bench --bin results -- --all
//! ```
//!
//! Without `--full`, a scaled-down grid runs (40 parties, shorter round
//! budgets, 2 seeds) that preserves the paper's qualitative shape on a
//! laptop. `--full` uses the paper's scale (100–200 parties, 200–400
//! rounds, 6 seeds) and takes hours.
//!
//! Every view reads one memo of seeded runs (`flips_bench::Runs`), so a
//! table pair, or Table 1 with Figure 5, costs one table's simulations.
//! A rounds-to-target cell that only some seeds reached reads `r (m/s)`:
//! the mean over the `m` of `s` seeds that did.

#![forbid(unsafe_code)]

use flips_bench::{
    ablation_ks, builder, dataset, figure_cells, figure_panels, rounds_text, table_cells,
    table_layout, Cell, Panel, Runs, Scale, FIGURES, TABLE_ROWS,
};
use flips_core::clustering::{optimal_k, ElbowConfig};
use flips_core::data::dataset::generate_population;
use flips_core::prelude::*;

fn usage() -> ! {
    eprintln!("usage: results [--table N]... [--figure F]... [--all] [--full]");
    eprintln!("  N in 1..=24 (paper numbering; see flips_bench::table_layout)");
    eprintln!("  F in {}", FIGURES.join(", "));
    std::process::exit(2);
}

fn main() {
    let mut tables: Vec<usize> = Vec::new();
    let mut figures: Vec<String> = Vec::new();
    let mut scale = Scale::Fast;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--table" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if table_layout(n).is_some() => tables.push(n),
                _ => usage(),
            },
            "--figure" => figures.push(
                args.next().filter(|f| FIGURES.contains(&f.as_str())).unwrap_or_else(|| usage()),
            ),
            "--all" => {
                tables.extend(1..=24);
                figures.extend(FIGURES.map(String::from));
            }
            "--full" => scale = Scale::Full,
            _ => usage(),
        }
    }
    if tables.is_empty() && figures.is_empty() {
        usage();
    }
    tables.sort_unstable();
    tables.dedup();

    let mut runs = Runs::new(scale);
    for n in tables {
        print_table(n, &mut runs);
    }
    for figure in figures {
        match figure.as_str() {
            "2" => figure2(scale),
            "ablation-k" => ablation_k(&mut runs),
            "ablation-overprovision" => ablation_overprovision(&mut runs),
            name => figure_panels(name).iter().for_each(|panel| print_panel(panel, &mut runs)),
        }
    }
}

fn print_table(n: usize, runs: &mut Runs) {
    let (algorithm, dataset_idx, metric) = table_layout(n).expect("validated");
    let (scale, profile) = (runs.scale(), dataset(dataset_idx));
    let budget = scale.rounds(&profile);
    let metric_name = if metric == 0 {
        format!(
            "Rounds required to attain Target Accuracy ({:.0}%)",
            profile.target_accuracy * 100.0
        )
    } else {
        "Highest accuracy attained within the rounds threshold".to_string()
    };
    println!();
    println!("Table {n}: {} — {metric_name}", profile.name);
    println!(
        "FL Algorithm: {} | scale: {:?} ({} parties, {budget} rounds, {} seeds)",
        algorithm.label(),
        scale,
        scale.parties(&profile),
        scale.seeds()
    );
    let rows = table_cells(n);
    let header: String = rows[0].iter().map(|c| format!("{:>10}", column(c, "@", ""))).collect();
    println!("{:>5} {:>7} {header}", "α", "party%");
    for (&(alpha, participation), cells) in TABLE_ROWS.iter().zip(rows) {
        let mut line = format!("{:>5} {:>7}", alpha, format!("{:.0}", participation * 100.0));
        for cell in &cells {
            // Each table cell is the mean over the memo's seeds.
            let (rounds, peaks): (Vec<_>, Vec<f64>) = (0..scale.seeds())
                .map(|seed| {
                    let run = runs.run(cell, seed);
                    (run.rounds_to_target(), run.peak_accuracy())
                })
                .unzip();
            let text = if metric == 0 {
                rounds_text(&rounds, budget)
            } else {
                format!("{:.2}", peaks.iter().sum::<f64>() / peaks.len() as f64 * 100.0)
            };
            line += &format!("{text:>10}");
        }
        println!("{line}");
    }
}

/// A column's name: the selector, tagged `{sep}{percent}{suffix}` when the
/// cell injects stragglers.
fn column(cell: &Cell, sep: &str, suffix: &str) -> String {
    match cell.straggler_rate {
        0.0 => cell.selector.label().to_string(),
        rate => format!("{}{sep}{:.0}{suffix}", cell.selector.label(), rate * 100.0),
    }
}

/// Prints one panel of Figures 5–13 as CSV: a `round` column, then one
/// column per series, blank where a series has no value.
fn print_panel(panel: &Panel, runs: &mut Runs) {
    let series: Vec<Vec<Option<f64>>> = panel
        .cells
        .iter()
        .map(|cell| {
            let history = &runs.run(cell, 0).history;
            match panel.recall_of {
                Some(label) => history.label_recall_series(label),
                None => history.accuracy_series().into_iter().map(Some).collect(),
            }
        })
        .collect();
    let names: Vec<String> = panel.cells.iter().map(|c| column(c, "_", "pct_strg")).collect();
    println!("{}", panel.title);
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

/// An ablation row's peak accuracy and rounds-to-target, as CSV fields.
fn ablation_fields(report: &SimulationReport) -> String {
    let rounds = rounds_text(&[report.rounds_to_target()], report.meta.rounds);
    format!("{:.4},{rounds}", report.peak_accuracy())
}

/// Ablation: FLIPS sensitivity to the cluster count k (§3.1's small-k /
/// large-k failure modes). The elbow row is seed 0 of Table 1's cell.
fn ablation_k(runs: &mut Runs) {
    let (scale, profile, cell) = (runs.scale(), dataset(0), figure_cells("ablation-k")[0]);
    println!("# Ablation: FLIPS cluster-count sensitivity on {}", profile.name);
    println!("k,peak_accuracy,rounds_to_target");
    for k in ablation_ks(scale.parties(&profile)) {
        let report = builder(&cell, scale, 0).fixed_k(k).run().expect("ablation run");
        println!("{k},{}", ablation_fields(&report));
    }
    let elbow = runs.run(&cell, 0);
    println!("elbow(k={}),{}", elbow.meta.k.unwrap_or(0), ablation_fields(elbow));
}

/// Ablation: straggler overprovisioning on/off at 10%/20% drop rates. The
/// `true` rows are seed 0 of Table 1's cells.
fn ablation_overprovision(runs: &mut Runs) {
    println!("# Ablation: FLIPS straggler overprovisioning on {}", dataset(0).name);
    println!("straggler_rate,overprovision,peak_accuracy,rounds_to_target");
    for cell in figure_cells("ablation-overprovision") {
        let rate = cell.straggler_rate;
        println!("{rate},true,{}", ablation_fields(runs.run(&cell, 0)));
        let report =
            builder(&cell, runs.scale(), 0).without_overprovisioning().run().expect("ablation run");
        println!("{rate},false,{}", ablation_fields(&report));
    }
}
