//! # flips-bench — the paper's evaluation harness
//!
//! Shared machinery for the `tables` and `figures` binaries (performance
//! is measured by the separate `flbench/` package). The paper's grid (§5):
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
        match self {
            Scale::Fast => profile.default_parties.min(40),
            Scale::Full => profile.default_parties,
        }
    }

    /// Round budget for a profile at this scale.
    pub fn rounds(&self, profile: &DatasetProfile) -> usize {
        match self {
            Scale::Fast => profile.max_rounds.min(if profile.max_rounds > 200 { 100 } else { 80 }),
            Scale::Full => profile.max_rounds,
        }
    }

    /// Seeds averaged per cell (paper: 6).
    pub fn seeds(&self) -> u64 {
        match self {
            Scale::Fast => 2,
            Scale::Full => 6,
        }
    }

    /// K-Means restarts for the elbow scan (paper: 20).
    pub fn restarts(&self) -> usize {
        match self {
            Scale::Fast => 6,
            Scale::Full => 20,
        }
    }

    /// Test-set size per class.
    pub fn test_per_class(&self) -> usize {
        match self {
            Scale::Fast => 20,
            Scale::Full => 50,
        }
    }
}

/// One cell of the evaluation grid.
#[derive(Debug, Clone, Copy)]
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

/// The averaged outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Mean rounds-to-target across seeds that reached it; `None` when no
    /// seed reached the target within the budget (reported "> budget").
    pub rounds_to_target: Option<f64>,
    /// How many seeds reached the target.
    pub reached: usize,
    /// Mean peak accuracy across seeds.
    pub peak_accuracy: f64,
    /// Mean bytes to target across seeds that reached it.
    pub bytes_to_target: Option<f64>,
    /// FLIPS cluster count (last seed).
    pub k: Option<usize>,
}

/// The profile for a dataset index.
pub fn dataset(index: usize) -> DatasetProfile {
    DatasetProfile::all().into_iter().nth(index).expect("dataset index in 0..4")
}

/// Runs one grid cell at the given scale, averaging over seeds.
pub fn run_cell(cell: &Cell, scale: Scale) -> CellResult {
    let profile = dataset(cell.dataset);
    let mut rtts = Vec::new();
    let mut peaks = Vec::new();
    let mut bytes = Vec::new();
    let mut k = None;
    for seed in 0..scale.seeds() {
        let report = SimulationBuilder::new(profile.clone())
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
            .run()
            .expect("cell simulation runs");
        if let Some(r) = report.rounds_to_target() {
            rtts.push(r as f64);
        }
        if let Some(b) = report.history.bytes_to_target(report.meta.target_accuracy) {
            bytes.push(b as f64);
        }
        peaks.push(report.peak_accuracy());
        k = k.or(report.meta.k);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    CellResult {
        rounds_to_target: if rtts.is_empty() { None } else { Some(mean(&rtts)) },
        reached: rtts.len(),
        peak_accuracy: mean(&peaks),
        bytes_to_target: if bytes.is_empty() { None } else { Some(mean(&bytes)) },
        k,
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
    fn scales_are_ordered() {
        let p = DatasetProfile::ecg();
        assert!(Scale::Fast.parties(&p) <= Scale::Full.parties(&p));
        assert!(Scale::Fast.rounds(&p) <= Scale::Full.rounds(&p));
        assert!(Scale::Fast.seeds() <= Scale::Full.seeds());
    }
}
