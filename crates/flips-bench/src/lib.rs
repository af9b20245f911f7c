//! # flips-bench — the paper's evaluation harness
//!
//! Shared machinery for the `results` binary (performance is measured by
//! the separate `flbench/` package). The paper's grid (§5):
//!
//! - 4 datasets × 3 FL algorithms × α ∈ {0.3, 0.6} × participation ∈
//!   {15%, 20%} × straggler rate ∈ {0%, 10%, 20%};
//! - without stragglers all five selectors run; with stragglers the
//!   paper keeps the three best (FLIPS, Oort, TiFL);
//! - two report dimensions per grid cell: rounds-to-target (odd-numbered
//!   tables) and peak accuracy (even-numbered tables).
//!
//! Table numbering matches the paper: tables 1–8 are FedYogi, 9–16
//! FedProx, 17–24 FedAvg; within each algorithm block the datasets run
//! ECG, HAM10000, FEMNIST, FashionMNIST with (rounds, peak) pairs.
//!
//! Every table and figure is a view over one [`Runs`] memo, keyed by grid
//! [`Cell`] and seed index, so each run is simulated at most once per
//! invocation. Tables average a cell's seeds; the series of Figures 5–13
//! and the ablation rows that match a table cell read seed 0 of that cell
//! ([`figure_cells`]). Only Figure 2's elbow scan and the fixed-`k` /
//! no-overprovision ablation rows simulate on their own.
//!
//! # Example
//!
//! A [`Scale`] maps the paper's grid onto a machine budget:
//!
//! ```
//! use flips_bench::Scale;
//! use flips_core::prelude::DatasetProfile;
//!
//! let profile = DatasetProfile::femnist();
//! assert!(Scale::Fast.parties(&profile) <= Scale::Full.parties(&profile));
//! assert!(Scale::Fast.rounds(&profile) <= Scale::Full.rounds(&profile));
//! ```

#![forbid(unsafe_code)]

use flips_core::prelude::*;

/// Scale of a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale defaults: fewer parties/rounds/seeds; minutes per
    /// table, same qualitative shape.
    Fast,
    /// The paper's scale: 100–200 parties, 200–400 rounds, 6 seeds.
    Full,
}

impl Scale {
    /// Parties for a profile at this scale.
    pub fn parties(&self, profile: &DatasetProfile) -> usize {
        self.pick(profile.default_parties.min(40), profile.default_parties)
    }

    /// Round budget for a profile at this scale.
    pub fn rounds(&self, profile: &DatasetProfile) -> usize {
        let fast = profile.max_rounds.min(if profile.max_rounds > 200 { 100 } else { 80 });
        self.pick(fast, profile.max_rounds)
    }

    /// Seeds averaged per cell (paper: 6).
    pub fn seeds(&self) -> u64 {
        self.pick(2, 6)
    }

    /// K-Means restarts for the elbow scan (paper: 20).
    pub fn restarts(&self) -> usize {
        self.pick(6, 20)
    }

    /// Test-set size per class.
    pub fn test_per_class(&self) -> usize {
        self.pick(20, 50)
    }

    fn pick<T>(&self, fast: T, full: T) -> T {
        match self {
            Scale::Fast => fast,
            Scale::Full => full,
        }
    }
}

/// One cell of the evaluation grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Dataset index (0 = ECG, 1 = HAM, 2 = FEMNIST, 3 = FashionMNIST).
    pub dataset: usize,
    /// FL algorithm.
    pub algorithm: FlAlgorithm,
    /// Dirichlet α.
    pub alpha: f64,
    /// Participation fraction.
    pub participation: f64,
    /// Straggler drop rate.
    pub straggler_rate: f64,
    /// Selector.
    pub selector: SelectorKind,
}

/// Formats the rounds-to-target of `s` runs (`None`: the run missed the
/// target) as their mean over the `m` that reached it, marked `(m/s)` when
/// `0 < m < s`; `>budget` when none did.
pub fn rounds_text(runs: &[Option<usize>], budget: usize) -> String {
    let reached: Vec<f64> = runs.iter().flatten().map(|&r| r as f64).collect();
    let mean = reached.iter().sum::<f64>() / reached.len() as f64;
    match reached.len() {
        0 => format!(">{budget}"),
        m if m < runs.len() => format!("{mean:.0} ({m}/{})", runs.len()),
        _ => format!("{mean:.0}"),
    }
}

/// The profile for a dataset index.
pub fn dataset(index: usize) -> DatasetProfile {
    DatasetProfile::all().into_iter().nth(index).expect("dataset index in 0..4")
}

/// The simulation of `cell` at `scale` for seed index `seed`.
pub fn builder(cell: &Cell, scale: Scale, seed: u64) -> SimulationBuilder {
    let profile = dataset(cell.dataset);
    SimulationBuilder::new(profile.clone())
        .parties(scale.parties(&profile))
        .rounds(scale.rounds(&profile))
        .participation(cell.participation)
        .alpha(cell.alpha)
        .algorithm(cell.algorithm)
        .selector(cell.selector)
        .straggler_rate(cell.straggler_rate)
        .clustering_restarts(scale.restarts())
        .test_per_class(scale.test_per_class())
        .seed(seed * 7919 + 1)
}

/// The memo every table and figure reads: each `(cell, seed index)` run
/// is simulated once, on first request, with one progress line on stderr.
pub struct Runs {
    scale: Scale,
    memo: Vec<(Cell, u64, SimulationReport)>,
}

impl Runs {
    /// An empty memo at `scale`.
    pub fn new(scale: Scale) -> Self {
        Runs { scale, memo: Vec::new() }
    }

    /// The scale every run is simulated at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The run of `cell` at seed index `seed`, simulated if not yet memoized.
    pub fn run(&mut self, cell: &Cell, seed: u64) -> &SimulationReport {
        let i = match self.memo.iter().position(|(c, s, _)| c == cell && *s == seed) {
            Some(i) => i,
            None => {
                eprintln!("running {cell:?} seed {seed}");
                let report = builder(cell, self.scale, seed).run().expect("cell simulation runs");
                self.memo.push((*cell, seed, report));
                self.memo.len() - 1
            }
        };
        &self.memo[i].2
    }
}

/// The paper's table layout: `(algorithm, dataset, metric)` for table `n`
/// in 1..=24; metric 0 = rounds-to-target, 1 = peak accuracy.
pub fn table_layout(n: usize) -> Option<(FlAlgorithm, usize, usize)> {
    if !(1..=24).contains(&n) {
        return None;
    }
    let idx = n - 1;
    let algorithm = FlAlgorithm::paper_algorithms()[idx / 8];
    let dataset = (idx % 8) / 2;
    let metric = idx % 2;
    Some((algorithm, dataset, metric))
}

/// Selector columns of the no-straggler block, in the paper's order.
pub const NO_STRAGGLER_COLUMNS: [SelectorKind; 5] = [
    SelectorKind::Random,
    SelectorKind::Flips,
    SelectorKind::Oort,
    SelectorKind::GradClus,
    SelectorKind::Tifl,
];

/// Selector columns of the straggler blocks (the paper's three best).
pub const STRAGGLER_COLUMNS: [SelectorKind; 3] =
    [SelectorKind::Flips, SelectorKind::Oort, SelectorKind::Tifl];

/// Row settings of every table: (α, participation).
pub const TABLE_ROWS: [(f64, f64); 4] = [(0.3, 0.20), (0.3, 0.15), (0.6, 0.20), (0.6, 0.15)];

/// The cells of table `n`, row by row in [`TABLE_ROWS`] order: the five
/// straggler-free columns, then the three at 10% and the three at 20%.
pub fn table_cells(n: usize) -> Vec<Vec<Cell>> {
    let (algorithm, dataset, _) = table_layout(n).expect("table in 1..=24");
    let mut columns = NO_STRAGGLER_COLUMNS.map(|s| (0.0, s)).to_vec();
    columns.extend([0.10, 0.20].into_iter().flat_map(|r| STRAGGLER_COLUMNS.map(|s| (r, s))));
    let cell = |row, &(r, s): &_| Cell { algorithm, ..yogi(dataset, row, r, s) };
    TABLE_ROWS.iter().map(|&row| columns.iter().map(|c| cell(row, c)).collect()).collect()
}

/// A FedYogi cell: every figure series and ablation row is one.
fn yogi(dataset: usize, row: (f64, f64), straggler_rate: f64, selector: SelectorKind) -> Cell {
    let (algorithm, (alpha, participation)) = (FlAlgorithm::fedyogi(), row);
    Cell { dataset, algorithm, alpha, participation, straggler_rate, selector }
}

/// The fixed cluster counts of the `k` ablation, each once.
pub fn ablation_ks(parties: usize) -> Vec<usize> {
    let ks = [2, 5, 10, 14, 20, parties / 2];
    ks.iter().enumerate().filter(|&(i, k)| !ks[..i].contains(k)).map(|(_, &k)| k).collect()
}

/// Every figure's command-line name, in `--all` order: the paper's
/// Figures 2 and 5–13, then the ablations of the cluster count `k` (§3.1)
/// and of Algorithm 1's straggler overprovisioning.
pub const FIGURES: [&str; 12] =
    ["2", "5", "6", "7", "8", "9", "10", "11", "12", "13", "ablation-k", "ablation-overprovision"];

/// One CSV block of Figures 5–13: a series per column.
pub struct Panel {
    /// The `#` comment line above the block.
    pub title: String,
    /// `Some(label)` plots that label's recall per round, `None` accuracy.
    pub recall_of: Option<usize>,
    /// The cells whose seed-0 runs it plots, one series each.
    pub cells: Vec<Cell>,
}

/// The panels of figure `name` (none unless it is one of 5–13). Figures
/// 5/6 are MIT-BIH ECG, 7/8 HAM10000, 9/10 FEMNIST, 11/12 FashionMNIST:
/// odd ones straggler-free (all five selectors), even ones at 10%/20%
/// stragglers (FLIPS/Oort/TiFL). Figure 13 is the recall of an
/// underrepresented label (ECG `F`, HAM `bcc`). All curves use FedYogi,
/// as the paper's plots do.
pub fn figure_panels(name: &str) -> Vec<Panel> {
    let cells = |d: usize, row: (f64, f64), stragglers: bool| -> Vec<Cell> {
        if !stragglers {
            return NO_STRAGGLER_COLUMNS.map(|s| yogi(d, row, 0.0, s)).to_vec();
        }
        STRAGGLER_COLUMNS.iter().flat_map(|&s| [0.10, 0.20].map(|r| yogi(d, row, r, s))).collect()
    };
    match name.parse() {
        Ok(n @ 5..=12) => [(0.3, 0.15), (0.3, 0.20), (0.6, 0.15), (0.6, 0.20)]
            .into_iter()
            .map(|(alpha, participation)| Panel {
                title: format!(
                    "# {}: convergence, alpha={alpha}, participation={:.0}%, stragglers={}",
                    dataset((n - 5) / 2).name,
                    participation * 100.0,
                    n % 2 == 0
                ),
                recall_of: None,
                cells: cells((n - 5) / 2, (alpha, participation), n % 2 == 0),
            })
            .collect(),
        Ok(13) => [(0, 3, "F (fusion beats)"), (1, 1, "bcc")]
            .into_iter()
            .map(|(d, label, label_name)| Panel {
                title: format!(
                    "# Figure 13: recall of underrepresented label '{label_name}' on {}",
                    dataset(d).name
                ),
                recall_of: Some(label),
                cells: cells(d, (0.3, 0.20), false),
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The memo runs figure `name` reads, all at seed 0: each is a cell of
/// Tables 1–8, so the figure costs no simulation beside them. Both
/// ablations vary FLIPS on ECG at α 0.3 and 20% participation.
pub fn figure_cells(name: &str) -> Vec<Cell> {
    let flips = |rate| yogi(0, (0.3, 0.20), rate, SelectorKind::Flips);
    match name {
        "ablation-k" => vec![flips(0.0)],
        "ablation-overprovision" => vec![flips(0.10), flips(0.20)],
        _ => figure_panels(name).into_iter().flat_map(|p| p.cells).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_layout_matches_paper_numbering() {
        // Table 1: ECG rounds, FedYogi; Table 2: ECG peak, FedYogi.
        let (a, d, m) = table_layout(1).unwrap();
        assert_eq!((a.label(), d, m), ("FedYoGi", 0, 0));
        let (a, d, m) = table_layout(2).unwrap();
        assert_eq!((a.label(), d, m), ("FedYoGi", 0, 1));
        // Table 9: ECG rounds, FedProx.
        let (a, d, m) = table_layout(9).unwrap();
        assert_eq!((a.label(), d, m), ("FedProx", 0, 0));
        // Table 20: HAM peak, FedAvg.
        let (a, d, m) = table_layout(20).unwrap();
        assert_eq!((a.label(), d, m), ("FedAvg", 1, 1));
        // Table 23: FashionMNIST rounds, FedAvg.
        let (a, d, m) = table_layout(23).unwrap();
        assert_eq!((a.label(), d, m), ("FedAvg", 3, 0));
        assert!(table_layout(0).is_none());
        assert!(table_layout(25).is_none());
    }

    #[test]
    fn datasets_are_the_paper_four() {
        assert_eq!(dataset(0).name, "mit-bih-ecg");
        assert_eq!(dataset(1).name, "ham10000");
        assert_eq!(dataset(2).name, "femnist");
        assert_eq!(dataset(3).name, "fashion-mnist");
    }

    #[test]
    fn rounds_text_marks_censored_runs() {
        assert_eq!(rounds_text(&[Some(20), Some(30)], 100), "25");
        assert_eq!(rounds_text(&[Some(25), None], 100), "25 (1/2)");
        assert_eq!(rounds_text(&[None, Some(8), Some(12)], 80), "10 (2/3)");
        assert_eq!(rounds_text(&[None, None], 100), ">100");
        assert_eq!(rounds_text(&[Some(7)], 100), "7");
    }

    #[test]
    fn ablation_k_runs_each_k_once() {
        assert_eq!(ablation_ks(Scale::Fast.parties(&dataset(0))), [2, 5, 10, 14, 20]);
        assert_eq!(ablation_ks(200), [2, 5, 10, 14, 20, 100]);
    }

    #[test]
    fn tables_are_four_rows_of_eleven_cells_shared_by_each_pair() {
        for n in (1..=24).step_by(2) {
            let cells = table_cells(n);
            assert_eq!(cells.iter().map(Vec::len).collect::<Vec<_>>(), [11; 4]);
            assert_eq!(cells, table_cells(n + 1), "tables {n} and {} share runs", n + 1);
        }
    }

    /// Every figure series and every ablation row that matches a table cell
    /// reads seed 0 of a Tables 1–8 cell, so it never forks a run.
    #[test]
    fn figures_read_seed_zero_of_table_cells() {
        let cells_of = |tables: &[usize]| -> Vec<Cell> {
            tables.iter().flat_map(|&n| table_cells(n).concat()).collect()
        };
        let in_tables = |figure: &str, tables: &[usize]| {
            let cells = figure_cells(figure);
            let grid = cells_of(tables);
            assert!(!cells.is_empty(), "figure {figure} reads the memo");
            for cell in cells {
                assert!(
                    grid.contains(&cell),
                    "figure {figure}: {cell:?} is in no table {tables:?}"
                );
            }
        };
        assert!(figure_cells("2").is_empty(), "Figure 2's elbow scan runs on its own");
        for n in 5..=12 {
            in_tables(&n.to_string(), &[2 * ((n - 5) / 2) + 1]);
            assert_eq!(figure_cells(&n.to_string()).len(), if n % 2 == 0 { 24 } else { 20 });
        }
        in_tables("13", &[1, 3]);
        in_tables("ablation-k", &[1]);
        in_tables("ablation-overprovision", &[1]);
    }

    #[test]
    fn scales_are_ordered() {
        let p = DatasetProfile::ecg();
        assert!(Scale::Fast.parties(&p) <= Scale::Full.parties(&p));
        assert!(Scale::Fast.rounds(&p) <= Scale::Full.rounds(&p));
        assert!(Scale::Fast.seeds() <= Scale::Full.seeds());
    }
}
