//! Streaming candidate pools — selector construction without a
//! materialized roster.
//!
//! The flat path hands every selector dense per-party vectors built by
//! the caller (sample counts, latency profiles). That is fine at 10³
//! parties and fatal at 10⁶: the roster no longer fits in one
//! allocation, and most of it is cold at any given round. This module
//! inverts the dependency — a [`CandidateSource`] hands whoever is
//! constructing a selector the per-party columns it asks for, and a bounded
//! top-k pass ([`BoundedTopK`]) extracts what a policy actually needs
//! from the stream in O(k) memory.
//!
//! Determinism contract: every helper here is *exactly* equivalent to
//! the dense computation it replaces ([`BoundedTopK`] yields the same
//! parties in the same order as a full sort; `from_source` constructors
//! reproduce the flat constructor bit-for-bit when fed the same
//! descriptors). The scale-equivalence suite pins this against the
//! selector goldens.

use crate::types::PartyId;

/// A streamed view of the registered-party roster: everything selector
/// construction needs, read from the source instead of materialized by
/// the caller.
///
/// A constructor that needs one field of every party takes it in one
/// bulk read, in id order; a paged store answers it with one walk over
/// its pages (see `flips_fl::RosterStore`, the canonical
/// implementation).
pub trait CandidateSource {
    /// Registered parties; ids are dense in `0..num_parties()`.
    fn num_parties(&self) -> usize;

    /// Every party's local sample count (Oort's public metadata and the
    /// FedAvg weight), in id order.
    ///
    /// # Errors
    ///
    /// Whatever the source's storage refuses (an unreadable or tampered
    /// page, say).
    fn data_sizes(&self) -> Result<Vec<u64>, SourceError>;

    /// Every party's profiled training latency, seconds (TiFL's tiering
    /// input), in id order.
    ///
    /// # Errors
    ///
    /// Whatever the source's storage refuses.
    fn latency_hints(&self) -> Result<Vec<f64>, SourceError>;
}

/// Why a [`CandidateSource`]'s bulk read failed, in the source's own
/// error type.
pub type SourceError = Box<dyn std::error::Error + Send + Sync>;

/// Streaming top-`k` by `(score descending, id ascending)` — the total
/// order Oort's exploit ranking uses. Pushing all `n` candidates and
/// draining yields *exactly* the first `k` elements a full
/// sort-then-truncate would, in the same order, in O(k) memory and
/// O(n log k) time.
///
/// Scores are compared with `partial_cmp(..).unwrap_or(Equal)`,
/// mirroring the dense comparator it replaces, so NaN behaves the same
/// in both paths (ties broken by ascending id either way).
#[derive(Debug)]
pub struct BoundedTopK {
    k: usize,
    /// Max-heap ordered worst-first: the root is the weakest candidate
    /// currently kept, so a stronger push evicts it in O(log k).
    heap: std::collections::BinaryHeap<WorstFirst>,
}

/// Heap entry ordered so the *worst* candidate (lowest score, then
/// highest id) is `Greater` — i.e. at the root of a max-heap.
#[derive(Debug)]
struct WorstFirst {
    score: f64,
    id: PartyId,
}

impl WorstFirst {
    /// "Better-first" total order: score descending, id ascending —
    /// byte-for-byte the comparator in Oort's dense ranking.
    fn better_first(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.better_first(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `better_first` already ranks a worse entry `Greater`, which is
        // exactly what puts it at the root of the max-heap.
        self.better_first(other)
    }
}

impl BoundedTopK {
    /// A collector that keeps the best `k` candidates seen.
    pub fn new(k: usize) -> Self {
        BoundedTopK { k, heap: std::collections::BinaryHeap::with_capacity(k + 1) }
    }

    /// Offers one candidate.
    pub fn push(&mut self, score: f64, id: PartyId) {
        if self.k == 0 {
            return;
        }
        self.heap.push(WorstFirst { score, id });
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    /// Candidates currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains to ids in best-first order — identical to
    /// `sort_by(better_first); truncate(k)` over every pushed candidate.
    pub fn into_sorted_ids(self) -> Vec<PartyId> {
        let mut kept = self.heap.into_vec();
        kept.sort_by(|a, b| a.better_first(b));
        kept.into_iter().map(|e| e.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flips_ml::rng::seeded;
    use rand::Rng;

    fn dense_rank(mut scored: Vec<(f64, PartyId)>, k: usize) -> Vec<PartyId> {
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });
        scored.into_iter().take(k).map(|(_, p)| p).collect()
    }

    #[test]
    fn topk_matches_full_sort() {
        let mut rng = seeded(17);
        for trial in 0..50 {
            let n = 1 + (trial % 40);
            let scored: Vec<(f64, PartyId)> = (0..n)
                .map(|p| {
                    // Coarse grid forces plenty of score ties.
                    ((rng.random::<u32>() % 8) as f64, p)
                })
                .collect();
            for k in [0, 1, n / 2, n, n + 3] {
                let mut topk = BoundedTopK::new(k);
                for &(s, p) in &scored {
                    topk.push(s, p);
                }
                assert_eq!(
                    topk.into_sorted_ids(),
                    dense_rank(scored.clone(), k),
                    "trial {trial}, k {k}"
                );
            }
        }
    }

    #[test]
    fn topk_keeps_at_most_k() {
        let mut topk = BoundedTopK::new(3);
        for p in 0..100 {
            topk.push(p as f64, p);
        }
        assert_eq!(topk.len(), 3);
        assert_eq!(topk.into_sorted_ids(), vec![99, 98, 97]);
    }
}
