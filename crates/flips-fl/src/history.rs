//! Per-round records and the summary metrics the paper's tables report.

use flips_selection::PartyId;
use serde::{Deserialize, Serialize};

/// Everything the aggregator records about one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round number (0-based).
    pub round: usize,
    /// Parties selected (including overprovisioned extras).
    pub selected: Vec<PartyId>,
    /// Parties whose updates were aggregated.
    pub completed: Vec<PartyId>,
    /// Parties that straggled.
    pub stragglers: Vec<PartyId>,
    /// Balanced accuracy of the global model on the global test set after
    /// this round (the paper's §4.4 metric).
    pub accuracy: f64,
    /// Per-label recall on the test set (Figure 13's series); `None` for
    /// labels absent from the test set.
    pub per_label_recall: Vec<Option<f64>>,
    /// Mean local training loss across completed parties.
    pub mean_train_loss: f64,
    /// Bytes sent aggregator → parties this round.
    pub bytes_down: u64,
    /// Bytes sent parties → aggregator this round.
    pub bytes_up: u64,
    /// Simulated wall-clock duration of the round (slowest completed
    /// party), seconds.
    pub round_duration: f64,
}

/// The full trajectory of one FL job.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct History {
    rounds: Vec<RoundRecord>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends a round record.
    pub fn push(&mut self, record: RoundRecord) {
        self.rounds.push(record);
    }

    /// All records in round order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.rounds
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no rounds have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The accuracy trajectory (the convergence curves of Figures 5–12).
    pub fn accuracy_series(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.accuracy).collect()
    }

    /// The recall trajectory of one label (Figure 13).
    pub fn label_recall_series(&self, label: usize) -> Vec<Option<f64>> {
        self.rounds.iter().map(|r| r.per_label_recall.get(label).copied().flatten()).collect()
    }

    /// Rounds needed to first reach `target` balanced accuracy, 1-based —
    /// the paper's "rounds required to attain target accuracy". `None`
    /// means the budget ran out (reported as "> budget" in the tables).
    pub fn rounds_to_target(&self, target: f64) -> Option<usize> {
        self.rounds.iter().position(|r| r.accuracy >= target).map(|i| i + 1)
    }

    /// Highest accuracy attained within the recorded rounds — the paper's
    /// "highest accuracy attained within the rounds threshold".
    pub fn peak_accuracy(&self) -> f64 {
        self.rounds.iter().map(|r| r.accuracy).fold(0.0, f64::max)
    }

    /// Accuracy after the final round.
    pub fn final_accuracy(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.accuracy)
    }

    /// Total bytes on the wire across all rounds (both directions) — the
    /// communication-cost metric.
    pub fn total_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes_down + r.bytes_up).sum()
    }

    /// Bytes on the wire up to (and including) first reaching `target`
    /// accuracy; `None` if never reached. Lower is better — the paper's
    /// "lower communication costs" claim quantified.
    pub fn bytes_to_target(&self, target: f64) -> Option<u64> {
        let upto = self.rounds_to_target(target)?;
        Some(self.rounds[..upto].iter().map(|r| r.bytes_down + r.bytes_up).sum())
    }

    /// Total straggler events observed.
    pub fn total_stragglers(&self) -> usize {
        self.rounds.iter().map(|r| r.stragglers.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, accuracy: f64) -> RoundRecord {
        RoundRecord {
            round,
            selected: vec![0, 1],
            completed: vec![0, 1],
            stragglers: vec![],
            accuracy,
            per_label_recall: vec![Some(accuracy), None],
            mean_train_loss: 1.0 - accuracy,
            bytes_down: 100,
            bytes_up: 80,
            round_duration: 0.5,
        }
    }

    fn rising() -> History {
        let mut h = History::new();
        for (i, acc) in [0.2, 0.4, 0.55, 0.61, 0.58, 0.72].iter().enumerate() {
            h.push(record(i, *acc));
        }
        h
    }

    #[test]
    fn rounds_to_target_is_first_crossing_one_based() {
        let h = rising();
        assert_eq!(h.rounds_to_target(0.60), Some(4));
        assert_eq!(h.rounds_to_target(0.2), Some(1));
        assert_eq!(h.rounds_to_target(0.9), None);
    }

    #[test]
    fn peak_and_final_accuracy() {
        let h = rising();
        assert_eq!(h.peak_accuracy(), 0.72);
        assert_eq!(h.final_accuracy(), 0.72);
        let mut h2 = rising();
        h2.push(record(6, 0.1));
        assert_eq!(h2.peak_accuracy(), 0.72);
        assert_eq!(h2.final_accuracy(), 0.1);
    }

    #[test]
    fn byte_accounting() {
        let h = rising();
        assert_eq!(h.total_bytes(), 6 * 180);
        assert_eq!(h.bytes_to_target(0.60), Some(4 * 180));
        assert_eq!(h.bytes_to_target(0.99), None);
    }

    #[test]
    fn series_extraction() {
        let h = rising();
        assert_eq!(h.accuracy_series().len(), 6);
        let recalls = h.label_recall_series(0);
        assert_eq!(recalls[2], Some(0.55));
        let missing = h.label_recall_series(1);
        assert!(missing.iter().all(Option::is_none));
        let out_of_range = h.label_recall_series(9);
        assert!(out_of_range.iter().all(Option::is_none));
    }

    #[test]
    fn empty_history_defaults() {
        let h = History::new();
        assert!(h.is_empty());
        assert_eq!(h.peak_accuracy(), 0.0);
        assert_eq!(h.final_accuracy(), 0.0);
        assert_eq!(h.rounds_to_target(0.1), None);
        assert_eq!(h.total_bytes(), 0);
    }

    #[test]
    fn durations_and_stragglers_accumulate() {
        let mut h = rising();
        let mut r = record(6, 0.5);
        r.stragglers = vec![3, 4];
        h.push(r);
        assert_eq!(h.total_stragglers(), 2);
    }
}
