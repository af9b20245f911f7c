//! Regenerates the paper's Tables 1–24.
//!
//! ```text
//! cargo run --release -p flips-bench --bin tables -- --table 1
//! cargo run --release -p flips-bench --bin tables -- --table 1 --table 2
//! cargo run --release -p flips-bench --bin tables -- --all
//! cargo run --release -p flips-bench --bin tables -- --table 1 --full
//! ```
//!
//! Without `--full`, a scaled-down grid runs (60 parties, shorter round
//! budgets, 2 seeds) that preserves the paper's qualitative shape on a
//! laptop. `--full` uses the paper's scale (100–200 parties, 200–400
//! rounds, 6 seeds) and takes hours.
//!
//! Tables come in (rounds-to-target, peak-accuracy) pairs over the same
//! runs, so requesting both numbers of a pair costs one sweep.

#![forbid(unsafe_code)]

use flips_bench::{
    dataset, run_cell, table_layout, Cell, CellResult, Scale, NO_STRAGGLER_COLUMNS,
    STRAGGLER_COLUMNS, TABLE_ROWS,
};
use flips_core::prelude::*;
use std::collections::BTreeMap;

fn usage() -> ! {
    eprintln!("usage: tables [--table N]... [--all] [--full]");
    eprintln!("  N in 1..=24 (paper numbering; see flips_bench::table_layout)");
    std::process::exit(2);
}

fn main() {
    let mut tables: Vec<usize> = Vec::new();
    let mut scale = Scale::Fast;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--table" => {
                let n = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                if table_layout(n).is_none() {
                    usage();
                }
                tables.push(n);
            }
            "--all" => tables.extend(1..=24),
            "--full" => scale = Scale::Full,
            _ => usage(),
        }
    }
    if tables.is_empty() {
        usage();
    }
    tables.sort_unstable();
    tables.dedup();

    // Group requested tables by (algorithm index, dataset) so each sweep
    // is executed once and serves both metrics.
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for &n in &tables {
        let idx = n - 1;
        groups.entry((idx / 8, (idx % 8) / 2)).or_default().push(n);
    }

    for ((algo_idx, dataset_idx), table_nums) in groups {
        let algorithm = FlAlgorithm::paper_algorithms()[algo_idx];
        let sweep = run_sweep(algorithm, dataset_idx, scale);
        for n in table_nums {
            let (_, _, metric) = table_layout(n).expect("validated");
            print_table(n, algorithm, dataset_idx, metric, scale, &sweep);
        }
    }
}

type Sweep = BTreeMap<(usize, usize, String), CellResult>;

/// Runs the full grid for one (algorithm, dataset): 4 rows × (5 + 3 + 3)
/// selector columns.
fn run_sweep(algorithm: FlAlgorithm, dataset_idx: usize, scale: Scale) -> Sweep {
    let mut sweep = Sweep::new();
    for (row, &(alpha, participation)) in TABLE_ROWS.iter().enumerate() {
        let blocks: [(usize, &[SelectorKind]); 3] =
            [(0, &NO_STRAGGLER_COLUMNS), (1, &STRAGGLER_COLUMNS), (2, &STRAGGLER_COLUMNS)];
        for (block, selectors) in blocks {
            let straggler_rate = [0.0, 0.10, 0.20][block];
            for &selector in selectors {
                let cell = Cell {
                    dataset: dataset_idx,
                    algorithm,
                    alpha,
                    participation,
                    straggler_rate,
                    selector,
                };
                eprintln!(
                    "running {} {} α={alpha} p={participation} strg={straggler_rate} {}",
                    dataset(dataset_idx).name,
                    algorithm.label(),
                    selector.label()
                );
                let result = run_cell(&cell, scale);
                sweep.insert((row, block, selector.label().to_string()), result);
            }
        }
    }
    sweep
}

fn print_table(
    n: usize,
    algorithm: FlAlgorithm,
    dataset_idx: usize,
    metric: usize,
    scale: Scale,
    sweep: &Sweep,
) {
    let profile = dataset(dataset_idx);
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
    let header_cols: Vec<String> = NO_STRAGGLER_COLUMNS
        .iter()
        .map(|s| s.label().to_string())
        .chain(STRAGGLER_COLUMNS.iter().map(|s| format!("{}@10", s.label())))
        .chain(STRAGGLER_COLUMNS.iter().map(|s| format!("{}@20", s.label())))
        .collect();
    println!(
        "{:>5} {:>7} {}",
        "α",
        "party%",
        header_cols.iter().map(|c| format!("{c:>10}")).collect::<String>()
    );
    for (row, &(alpha, participation)) in TABLE_ROWS.iter().enumerate() {
        let mut line = format!("{:>5} {:>7}", alpha, format!("{:.0}", participation * 100.0));
        let cols: Vec<(usize, SelectorKind)> = NO_STRAGGLER_COLUMNS
            .iter()
            .map(|&s| (0usize, s))
            .chain(STRAGGLER_COLUMNS.iter().map(|&s| (1usize, s)))
            .chain(STRAGGLER_COLUMNS.iter().map(|&s| (2usize, s)))
            .collect();
        for (block, selector) in cols {
            let cell = &sweep[&(row, block, selector.label().to_string())];
            let text = if metric == 0 {
                match cell.rounds_to_target {
                    Some(r) => format!("{r:.0}"),
                    None => format!(">{budget}"),
                }
            } else {
                format!("{:.2}", cell.peak_accuracy * 100.0)
            };
            line += &format!("{text:>10}");
        }
        println!("{line}");
    }
}
