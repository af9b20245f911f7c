//! Property tests of the scale plane's two load-bearing invariants.
//!
//! **Partition independence**: [`ExactWeightedSum`] is the integer
//! arithmetic that lets aggregation trees exist — however a cohort's
//! updates are partitioned across inner nodes, and in whatever order
//! the partials merge, the folded limbs (and therefore the finished
//! aggregate, bit for bit) must equal the flat fold of the same
//! updates. If this property ever broke, tree topologies would leak
//! into training results.
//!
//! **Spill round-trip**: a [`RosterStore`] sealed to disk segments must
//! read back every record bit-exactly (NaN latency hints included), and
//! no truncated or bit-flipped segment file may load into anything —
//! clean error, never a panic, never a partial roster.

use flips_fl::{ExactWeightedSum, PartyRecord, RosterBuilder};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::atomic::{AtomicU64, Ordering};

/// Parameters inside [`flips_fl::aggtree::param_in_domain`]'s bounds
/// (finite, |x| < 2³¹) with enough spread to exercise the fixed point.
fn in_domain_param() -> impl Strategy<Value = f32> {
    (-1.0e6f64..1.0e6).prop_map(|x| x as f32)
}

/// One party's folded contribution: a parameter vector (dim fixed by
/// the caller) and a weight in the fold's accepted range.
type Update = (Vec<f32>, u64);

/// A cohort and its partition: `(dim, updates, inner-node labels)`.
type Cohort = (usize, Vec<Update>, Vec<usize>);

fn update(dim: usize) -> impl Strategy<Value = Update> {
    (vec(in_domain_param(), dim..=dim), 1u64..=u32::MAX as u64)
}

/// A cohort of 1..12 updates over a shared dimension, plus a partition
/// label per update assigning it to one of up to 4 inner nodes.
fn cohort() -> impl Strategy<Value = Cohort> {
    (1usize..8).prop_flat_map(|dim| {
        (1usize..12).prop_flat_map(move |n| {
            (vec(update(dim), n..=n), vec(0usize..4, n..=n))
                .prop_map(move |(updates, labels)| (dim, updates, labels))
        })
    })
}

/// Flat fold of `updates` in order.
fn flat_fold(dim: usize, updates: &[Update]) -> ExactWeightedSum {
    let mut sum = ExactWeightedSum::new(dim);
    for (params, w) in updates {
        sum.fold(params, *w).unwrap();
    }
    sum
}

/// Tree fold: per-label partial sums, merged in the given label order.
fn tree_fold(
    dim: usize,
    updates: &[Update],
    labels: &[usize],
    order: &[usize],
) -> ExactWeightedSum {
    let mut partials: Vec<ExactWeightedSum> = (0..4).map(|_| ExactWeightedSum::new(dim)).collect();
    for ((params, w), &l) in updates.iter().zip(labels) {
        partials[l].fold(params, *w).unwrap();
    }
    let mut sum = ExactWeightedSum::new(dim);
    for &l in order {
        if !partials[l].is_empty() {
            sum.merge(&partials[l]).unwrap();
        }
    }
    sum
}

/// Bit-exact equality: limbs, weight, and the finished f64 aggregate.
fn assert_same(a: &ExactWeightedSum, b: &ExactWeightedSum) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.raw_limbs(), b.raw_limbs());
    prop_assert_eq!(a.total_weight(), b.total_weight());
    let (mut fa, mut fb) = (Vec::new(), Vec::new());
    if a.total_weight() > 0 {
        a.finish_into(&mut fa).unwrap();
        b.finish_into(&mut fb).unwrap();
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&fa), bits(&fb));
    Ok(())
}

/// A unique spill directory per proptest case (cases run concurrently
/// across test threads and must never share segment files).
fn case_dir(name: &str) -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("flips-aggprops-{}-{name}-{id}", std::process::id()))
}

/// Arbitrary roster records: any u64 sizes, any f64 bit pattern as the
/// latency hint (NaNs included), 0..5 label counts.
fn record() -> impl Strategy<Value = PartyRecord> {
    (0u64..=u64::MAX, 0u64..=u64::MAX, vec(0u64..=u64::MAX, 0..5)).prop_map(
        |(data_size, latency_bits, label_counts)| PartyRecord {
            data_size,
            latency_hint: f64::from_bits(latency_bits),
            label_counts,
        },
    )
}

/// Bitwise record equality (`latency_hint` may be NaN).
fn records_eq(a: &PartyRecord, b: &PartyRecord) -> bool {
    a.data_size == b.data_size
        && a.latency_hint.to_bits() == b.latency_hint.to_bits()
        && a.label_counts == b.label_counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the cohort is split across inner nodes, the merged
    /// partials equal the flat fold — limbs, weight, finished bits.
    #[test]
    fn tree_fold_equals_flat_fold_for_any_partition((dim, updates, labels) in cohort()) {
        let flat = flat_fold(dim, &updates);
        let tree = tree_fold(dim, &updates, &labels, &[0, 1, 2, 3]);
        assert_same(&flat, &tree)?;
    }

    /// Merge order cannot matter either: forward and reverse partial
    /// merge orders land on identical bits.
    #[test]
    fn partial_merge_order_is_irrelevant((dim, updates, labels) in cohort()) {
        let fwd = tree_fold(dim, &updates, &labels, &[0, 1, 2, 3]);
        let rev = tree_fold(dim, &updates, &labels, &[3, 2, 1, 0]);
        assert_same(&fwd, &rev)?;
    }

    /// The wire image of a partial (`raw_limbs` + weight + term count)
    /// rebuilds into a sum that merges exactly like the original.
    #[test]
    fn raw_limb_round_trip_preserves_the_fold((dim, updates, labels) in cohort()) {
        let flat = flat_fold(dim, &updates);
        let terms = updates.len() as u64;
        let rebuilt =
            ExactWeightedSum::from_raw(&flat.raw_limbs(), flat.total_weight(), terms).unwrap();
        assert_same(&flat, &rebuilt)?;
        // And merging the rebuilt image into an empty sum is the
        // coordinator's actual receive path.
        let mut merged = ExactWeightedSum::new(dim);
        merged.merge(&rebuilt).unwrap();
        assert_same(&flat, &merged)?;
        let _ = labels;
    }

    /// A rejected fold must leave the sum untouched — the driver's
    /// flat-forward fallback depends on partial-failure atomicity.
    #[test]
    fn rejected_folds_are_atomic((dim, updates, _labels) in cohort(), bad_bits in 0u32..=u32::MAX) {
        let mut sum = flat_fold(dim, &updates);
        let before = (sum.raw_limbs(), sum.total_weight());
        let mut params = updates[0].0.clone();
        // Push one coordinate out of the domain (NaN/inf/huge); skip
        // the rare case the random bits land back inside it.
        let bad = f32::from_bits(bad_bits | 0x7f80_0000);
        params[0] = bad;
        prop_assert!(sum.fold(&params, 1).is_err());
        prop_assert_eq!(before, (sum.raw_limbs(), sum.total_weight()));
        // Zero weight is equally rejected, equally atomically.
        prop_assert!(sum.fold(&updates[0].0, 0).is_err());
        prop_assert_eq!(before, (sum.raw_limbs(), sum.total_weight()));
    }

    /// Arbitrary rosters — any sizes, NaN latency hints, ragged label
    /// vectors — survive seal → spill → page-in bit-exactly, record by
    /// record and under a full scan, across segment boundaries.
    #[test]
    fn spilled_rosters_round_trip_bit_exactly(
        records in vec(record(), 1..40),
        cap in 1usize..8,
        budget in 1usize..3,
    ) {
        let dir = case_dir("roundtrip");
        let mut rb = RosterBuilder::spilling(&dir, budget).unwrap().segment_cap(cap).unwrap();
        for r in &records {
            rb.push(r.clone()).unwrap();
        }
        let store = rb.finish().unwrap();
        prop_assert_eq!(store.num_parties(), records.len());
        prop_assert_eq!(store.spilled() as usize, records.len().div_ceil(cap));
        for (i, want) in records.iter().enumerate() {
            let got = store.record(i).unwrap();
            prop_assert!(records_eq(&got, want), "record {} moved through the spill", i);
        }
        let mut scanned = Vec::new();
        store.visit_all(&mut |p, r| scanned.push((p, r.clone()))).unwrap();
        prop_assert_eq!(scanned.len(), records.len());
        for (i, (p, got)) in scanned.iter().enumerate() {
            prop_assert_eq!(*p, i);
            prop_assert!(records_eq(got, &records[i]));
        }
        prop_assert!(store.resident_segments() <= budget);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The FLCK corruption harness, pointed at segment files: any
    /// truncation and any single-bit flip of a sealed segment is
    /// rejected with a clean error on page-in — never a panic, never a
    /// partial segment.
    #[test]
    fn corrupt_segment_files_are_rejected(
        records in vec(record(), 1..12),
        pos in 0.0f64..1.0,
        bit in 0usize..8,
        truncate in 0u64..2,
    ) {
        let dir = case_dir("corrupt");
        let mut rb = RosterBuilder::spilling(&dir, 1).unwrap().segment_cap(4).unwrap();
        for r in &records {
            rb.push(r.clone()).unwrap();
        }
        let store = rb.finish().unwrap();
        let seg0 = dir.join("seg-00000000.flrs");
        let bytes = std::fs::read(&seg0).unwrap();
        let mutated = if truncate == 1 {
            let cut = ((bytes.len() as f64) * pos) as usize; // < len
            bytes[..cut].to_vec()
        } else {
            let mut b = bytes.clone();
            let i = ((b.len() as f64) * pos) as usize;
            b[i] ^= 1 << bit;
            b
        };
        std::fs::write(&seg0, &mutated).unwrap();
        // Evict nothing — budget 1 and nothing resident yet, so the
        // read must page the mutated file and fail cleanly.
        prop_assert!(store.record(0).is_err());
        // Restoring the original bytes heals the store (the failure
        // was the file's, not the cache's).
        std::fs::write(&seg0, &bytes).unwrap();
        prop_assert!(records_eq(&store.record(0).unwrap(), &records[0]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
