//! Exact hierarchical aggregation: the fixed-point weighted-sum fold
//! behind the aggregation tree.
//!
//! FedAvg's weighted mean `x̄ = Σ nᵢ·xᵢ / Σ nᵢ` is not associative in
//! floating point: folding shard-level partial sums and folding the flat
//! update list round differently, so a naive aggregation tree could
//! never be pinned bit-identical to a flat run. This module removes the
//! rounding instead of fighting it: every product `nᵢ·xᵢ` (an integer
//! weight times an `f32`-originated value) is representable *exactly* in
//! a 256-bit fixed-point integer, and integer addition is associative
//! and commutative — so any partition of the updates into shard
//! partials, merged in any order, produces the same 256-bit sum, and the
//! single rounding step happens once, at [`ExactWeightedSum::finish_into`].
//!
//! That partition-independence is what lets [`crate::PartyPool`] inner
//! nodes fold their own endpoints' updates into one
//! [`crate::WireMessage::PartialUpdate`] frame per round without any
//! cross-shard coordination: the coordinator merges partials in arrival
//! order and still matches the flat fold bit-for-bit
//! (`crates/flips-fl/tests/aggregation_props.rs` pins this for
//! arbitrary partitions).
//!
//! Domain bounds (asserted, and generous for FL updates): parameters
//! must be finite `f32` with `|x| < 2³¹`, weights below `2³²`, and at
//! most `2²⁰` folded terms per sum — the scaled magnitudes then top out
//! near `2²³⁵`, well inside the signed 256-bit range.

use crate::server::weighted_average_into;
use crate::FlError;
use flips_selection::gradclus::sketch_update;
use flips_selection::PartyId;
use std::collections::BTreeMap;

/// Fixed-point scale: values are stored as `round_exact(x · 2¹⁵²)`.
/// `2⁻¹⁵²` sits below the smallest `f32`-subnormal times the largest
/// supported weight's shift, so every admissible product is exact.
const SCALE_BITS: i32 = 152;

/// Largest admissible per-update weight (exclusive).
pub(crate) const MAX_WEIGHT: u64 = 1 << 32;

/// Largest admissible parameter magnitude (exclusive).
const MAX_PARAM: f32 = 2_147_483_648.0; // 2^31

/// Whether `x` lies inside the exact fold's parameter domain (finite,
/// `|x| < 2³¹`) — what [`ExactWeightedSum::fold`] will accept.
///
/// One integer compare: non-negative floats order like their bit
/// patterns, and every infinity and NaN sits above `2³¹`'s.
pub fn param_in_domain(x: f32) -> bool {
    x.to_bits() & 0x7FFF_FFFF < MAX_PARAM.to_bits()
}

/// A signed 256-bit accumulator per parameter: little-endian `u64`
/// limbs, two's-complement, wrapping add (exact within the documented
/// domain bounds).
type Limbs = [u64; 4];

/// `acc += v + carry_in` over the four limbs, one carry chain.
#[inline(always)]
fn add256(acc: &mut Limbs, v: &Limbs, carry_in: bool) {
    let mut carry = carry_in;
    for (a, &b) in acc.iter_mut().zip(v) {
        (*a, carry) = a.carrying_add(b, carry);
    }
}

/// Parameters per block of [`ExactWeightedSum`]'s limb columns.
const LANES: usize = 8;
/// One limb of a block's [`LANES`] parameters.
type Lane = [u64; LANES];

/// [`add256`] for a block: `acc[k][l] += v[k][l]`, lane `l`'s chain
/// starting at `carry[l]` (0 or 1), its carry out of bit 63 read from the
/// top bits (both addends' set, or one set and the sum's clear).
#[inline(always)]
fn add_lanes(acc: [&mut Lane; 4], v: [&Lane; 4], mut carry: Lane) {
    for k in 0..4 {
        let (x, y) = (*acc[k], *v[k]);
        for l in 0..LANES {
            let s = x[l].wrapping_add(y[l]).wrapping_add(carry[l]);
            carry[l] = ((x[l] & y[l]) | ((x[l] | y[l]) & !s)) >> 63;
            acc[k][l] = s;
        }
    }
}

/// Adds `p[l] · w · 2¹⁵²` (exact) into lane `l`, `p` in domain, `w < 2³²`.
///
/// Works from the `f32`'s own fields: a 24-bit mantissa `m` (implicit
/// bit set unless subnormal) with `p = ±m · 2^(e − 150)`, `e` the biased
/// exponent (1 for subnormals). The product `m · w` (`u32 × u32 → u64`)
/// has at most 56 bits and lands `e + 2` ∈ 3..=159 bits up, so it spans
/// exactly two adjacent limbs, the upper one at index ≤ 3, which each
/// limb selects by index. A negative term is added as `!addend + 1` — the
/// complement folded into the limbs, the `+ 1` into the chain's carry-in
/// — so there is no branch on the data (`±0` adds `0`, or `!0 + 1`, which
/// is the same), and each step is one vector op across the lanes.
#[inline(always)]
fn add_scaled_lanes(acc: [&mut Lane; 4], p: &[f32; LANES], w: u32) {
    let (mut v, mut negative) = ([[0; LANES]; 4], [0; LANES]);
    for l in 0..LANES {
        let bits = u64::from(p[l].to_bits());
        let sign = (bits >> 31).wrapping_neg(); // 0 or !0
        let e = bits >> 23 & 0xFF;
        let product = (bits & 0x7F_FFFF | u64::from(e != 0) << 23) * u64::from(w);
        let shift = e.max(1) + (SCALE_BITS - 150) as u64;
        let (idx, off) = (shift / 64, shift % 64);
        let (lo, hi) = (product << off, product >> 1 >> (63 - off));
        for (k, limb) in (0..).zip(&mut v) {
            limb[l] = (if k == idx { lo } else { 0 } | if k == idx + 1 { hi } else { 0 }) ^ sign;
        }
        negative[l] = sign & 1;
    }
    add_lanes(acc, v.each_ref(), negative);
}

/// Converts a signed 256-bit fixed-point value back to the nearest
/// `f64` (round-to-nearest-even), the single rounding step of the fold.
///
/// The 53 kept bits and the guard bit always sit inside the two highest
/// non-zero limbs; everything below them only matters as "any bit set",
/// which is one OR of whole limbs.
fn to_f64(limbs: &Limbs) -> f64 {
    let negative = limbs[3] >> 63 == 1;
    let sign = u64::from(negative).wrapping_neg(); // 0 or !0
    let mut mag = [0u64; 4];
    add256(&mut mag, &limbs.map(|l| l ^ sign), negative);
    let (high, hi, lo, rest) = match mag {
        [0, 0, 0, 0] => return 0.0,
        [m0, 0, 0, 0] => (0, m0, 0, 0),
        [m0, m1, 0, 0] => (1, m1, m0, 0),
        [m0, m1, m2, 0] => (2, m2, m1, m0),
        [m0, m1, m2, m3] => (3, m3, m2, m1 | m0),
    };
    let lz = hi.leading_zeros();
    // The two limbs with the top set bit moved to bit 127: bits 75..=127
    // are the mantissa, bit 74 the guard, the rest sticky.
    let window = (u128::from(hi) << 64 | u128::from(lo)) << lz;
    let mut m = (window >> 75) as u64;
    let guard = window >> 74 & 1 == 1;
    let sticky = window & ((1u128 << 74) - 1) != 0 || rest != 0;
    m += u64::from(guard && (sticky || m & 1 == 1));
    // `m` ∈ [2⁵², 2⁵³] and the value is `m · 2^(top_bit − 52 − 152)`:
    // always a normal f64. Adding `m − 2⁵²` into the fraction field lets
    // a round-up to 2⁵³ carry into the exponent by itself.
    let top_bit = u64::from(high * 64 + 63 - lz);
    let biased = top_bit + (1023 - SCALE_BITS as u64);
    f64::from_bits(sign << 63 | ((biased << 52) + (m - (1 << 52))))
}

/// The exact sample-weighted sum `Σ nᵢ·xᵢ` of a set of parameter
/// vectors, with its weight total — the unit of work an aggregation-tree
/// inner node computes and the coordinator merges.
///
/// # Example
///
/// Any partition of the updates folds to the same bits:
///
/// ```
/// use flips_fl::aggtree::ExactWeightedSum;
///
/// let updates: [(&[f32], u64); 3] = [(&[1.5, -2.0], 10), (&[0.25, 4.0], 3), (&[-9.0, 0.5], 7)];
/// let mut flat = ExactWeightedSum::new(2);
/// for (p, w) in updates {
///     flat.fold(p, w).unwrap();
/// }
/// let mut left = ExactWeightedSum::new(2);
/// left.fold(updates[2].0, updates[2].1).unwrap();
/// let mut right = ExactWeightedSum::new(2);
/// right.fold(updates[0].0, updates[0].1).unwrap();
/// right.fold(updates[1].0, updates[1].1).unwrap();
/// left.merge(&right).unwrap();
/// let mut a = Vec::new();
/// let mut b = Vec::new();
/// flat.finish_into(&mut a).unwrap();
/// left.finish_into(&mut b).unwrap();
/// assert_eq!(a, b, "bit-exact under re-partition");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactWeightedSum {
    /// Limb-major: `limbs[k][i / LANES][i % LANES]` is limb `k` of parameter
    /// `i`, padded to whole blocks with lanes that only ever add `+0.0`.
    limbs: [Vec<Lane>; 4],
    dim: usize,
    total_weight: u64,
    terms: u64,
}

/// Maximum folded/merged terms per sum (keeps the accumulator inside
/// the signed 256-bit range with headroom).
const MAX_TERMS: u64 = 1 << 20;

impl ExactWeightedSum {
    /// An empty sum over `dim` parameters.
    pub fn new(dim: usize) -> Self {
        let limbs = std::array::from_fn(|_| vec![[0; LANES]; dim.div_ceil(LANES)]);
        ExactWeightedSum { limbs, dim, total_weight: 0, terms: 0 }
    }

    /// The parameter dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Block `b`'s four limb lanes.
    fn block(&self, b: usize) -> [&Lane; 4] {
        self.limbs.each_ref().map(|column| &column[b])
    }

    fn block_mut(&mut self, b: usize) -> [&mut Lane; 4] {
        self.limbs.each_mut().map(|column| &mut column[b])
    }

    /// The summed weight `Σ nᵢ`.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Whether nothing was folded in yet.
    pub fn is_empty(&self) -> bool {
        self.terms == 0
    }

    /// Folds one update in: `self += weight · params`, exactly.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] on a dimension mismatch, a
    /// non-finite or out-of-range parameter, a weight of zero or
    /// ≥ 2³², or a sum that already folded 2²⁰ terms.
    pub fn fold(&mut self, params: &[f32], weight: u64) -> Result<(), FlError> {
        if params.len() != self.dim {
            return Err(FlError::InvalidConfig(format!(
                "update has {} params, sum is over {}",
                params.len(),
                self.dim
            )));
        }
        if weight == 0 || weight >= MAX_WEIGHT {
            return Err(FlError::InvalidConfig(format!(
                "aggregation weight {weight} outside 1..2^32"
            )));
        }
        if self.terms >= MAX_TERMS {
            return Err(FlError::InvalidConfig("exact fold exceeded 2^20 terms".into()));
        }
        if let Some(bad) = params.iter().find(|x| !param_in_domain(**x)) {
            return Err(FlError::InvalidConfig(format!(
                "parameter {bad} is outside the exact-fold domain (finite, |x| < 2^31)"
            )));
        }
        // Whole blocks, the last one zero-padded: `+0.0` adds exactly 0.
        let (full, tail) = params.as_chunks::<LANES>();
        let last: [f32; LANES] = std::array::from_fn(|l| tail.get(l).copied().unwrap_or(0.0));
        for (b, p) in full.iter().chain([&last]).take(self.limbs[0].len()).enumerate() {
            add_scaled_lanes(self.block_mut(b), p, weight as u32);
        }
        self.total_weight += weight;
        self.terms += 1;
        Ok(())
    }

    /// Merges another partial sum in: `self += other`, exactly. This is
    /// the coordinator's combine step — associative and commutative, so
    /// shard partials may arrive in any order and any grouping.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] on a dimension mismatch, a term count
    /// overflowing the 2²⁰ bound or a weight total overflowing `u64`.
    pub fn merge(&mut self, other: &ExactWeightedSum) -> Result<(), FlError> {
        if other.dim != self.dim {
            return Err(FlError::InvalidConfig(format!(
                "cannot merge a {}-dim partial into a {}-dim sum",
                other.dim, self.dim
            )));
        }
        if self.terms + other.terms > MAX_TERMS {
            return Err(FlError::InvalidConfig("exact merge exceeded 2^20 terms".into()));
        }
        let Some(total_weight) = self.total_weight.checked_add(other.total_weight) else {
            return Err(FlError::InvalidConfig("exact merge overflowed the weight total".into()));
        };
        for b in 0..self.limbs[0].len() {
            add_lanes(self.block_mut(b), other.block(b), [0; LANES]);
        }
        self.total_weight = total_weight;
        self.terms += other.terms;
        Ok(())
    }

    /// Resolves the weighted mean `x̄ = Σ nᵢ·xᵢ / Σ nᵢ` into `accum` —
    /// the fold's one rounding step (per parameter: one
    /// nearest-even conversion of the 256-bit sum, one `f64` division).
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] when nothing was folded in (a weight
    /// total of zero has no mean).
    pub fn finish_into(&self, accum: &mut Vec<f64>) -> Result<(), FlError> {
        if self.total_weight == 0 {
            return Err(FlError::InvalidConfig("no updates to aggregate".into()));
        }
        let total = self.total_weight as f64;
        accum.clear();
        // Pushed one by one: as one expression, LLVM vectorizes a block's
        // eight branchy `to_f64`s across lanes, 2–3× slower than scalar.
        for b in 0..self.limbs[0].len() {
            let lanes = self.block(b);
            for l in 0..LANES {
                accum.push(to_f64(&lanes.map(|lane| lane[l])) / total);
            }
        }
        accum.truncate(self.dim);
        Ok(())
    }

    /// Serializes the accumulator limbs for the wire, little-endian
    /// limb order per parameter (`4 · dim` words).
    pub fn raw_limbs(&self) -> Vec<u64> {
        (0..self.dim).flat_map(|i| self.block(i / LANES).map(|lane| lane[i % LANES])).collect()
    }

    /// Rebuilds a partial from wire words produced by
    /// [`ExactWeightedSum::raw_limbs`]. `terms` is the number of updates
    /// folded into it (bounds the merge budget).
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] when the word count is not a multiple
    /// of 4, the term count is outside `1..=2²⁰` or the weight total is
    /// one no `terms` admissible weights add up to
    /// (`terms..=terms · (2³² − 1)`).
    pub fn from_raw(words: &[u64], total_weight: u64, terms: u64) -> Result<Self, FlError> {
        if !words.len().is_multiple_of(4) {
            return Err(FlError::InvalidConfig(format!(
                "{} limb words is not a whole number of parameters",
                words.len()
            )));
        }
        if terms == 0 || terms > MAX_TERMS {
            return Err(FlError::InvalidConfig(format!(
                "partial term count {terms} outside 1..=2^20"
            )));
        }
        if !(terms..=terms * (MAX_WEIGHT - 1)).contains(&total_weight) {
            return Err(FlError::InvalidConfig(format!(
                "partial weight {total_weight} is not the sum of {terms} weights in 1..2^32"
            )));
        }
        let mut sum = ExactWeightedSum { total_weight, terms, ..Self::new(words.len() / 4) };
        for (i, param) in words.chunks_exact(4).enumerate() {
            sum.block_mut(i / LANES).into_iter().zip(param).for_each(|(l, &w)| l[i % LANES] = w);
        }
        Ok(sum)
    }

    /// [`ExactWeightedSum::fold`] plus the update's feedback sketch
    /// against `global` (which has the sum's dimension) — the one accept
    /// step tree inner nodes and the exact coordinator share, which is
    /// why a shipped sketch and a local one are the same bits.
    ///
    /// # Errors
    ///
    /// As [`ExactWeightedSum::fold`]; a refusal leaves the sum untouched.
    pub fn fold_sketched(
        &mut self,
        params: &[f32],
        weight: u64,
        global: &[f32],
        sketch_dim: usize,
    ) -> Result<Vec<f32>, FlError> {
        self.fold(params, weight)?;
        Ok(sketch_of(params, global, sketch_dim))
    }
}

/// The selector-feedback sketch of one update: `x − m` against the
/// global `m` its round *dispatched* — what Fraboni et al. cluster on,
/// and the only reference a tree inner node ever sees.
fn sketch_of(params: &[f32], global: &[f32], sketch_dim: usize) -> Vec<f32> {
    sketch_update(params.iter().zip(global).map(|(x, g)| x - g), sketch_dim)
}

/// The running aggregate of one open round, and the only place the
/// f64/exact fork lives: the coordinator builds one at round open, hands
/// it every accepted update and finishes it at close, never asking which
/// variant it holds.
#[derive(Debug)]
pub(crate) enum RoundSum {
    /// Updates fold into the 256-bit sum as they are accepted; tree
    /// partials merge into the same limbs.
    Exact(ExactWeightedSum),
    /// `(nᵢ, xᵢ)` kept by party and folded in f64, ascending party id, at
    /// finish — the historical default, whose bits the goldens and the
    /// delta-coded byte gates are pinned on.
    Ordered(BTreeMap<PartyId, (u64, Vec<f32>)>),
}

impl RoundSum {
    pub(crate) fn new(exact: bool, dim: usize) -> Self {
        if exact {
            RoundSum::Exact(ExactWeightedSum::new(dim))
        } else {
            RoundSum::Ordered(BTreeMap::new())
        }
    }

    /// Takes `party`'s update and returns its feedback sketch against
    /// `global`. Both variants refuse a wrong-length vector; `Exact` also
    /// refuses what [`ExactWeightedSum::fold`] refuses, `Ordered` keeps
    /// its historical tolerance. A refusal leaves the aggregate untouched.
    pub(crate) fn accept(
        &mut self,
        party: PartyId,
        params: Vec<f32>,
        weight: u64,
        global: &[f32],
        sketch_dim: usize,
    ) -> Result<Vec<f32>, FlError> {
        if params.len() != global.len() {
            return Err(FlError::InvalidConfig("update length != model length".into()));
        }
        match self {
            RoundSum::Exact(sum) => sum.fold_sketched(&params, weight, global, sketch_dim),
            RoundSum::Ordered(kept) => {
                let sketch = sketch_of(&params, global, sketch_dim);
                kept.insert(party, (weight, params));
                Ok(sketch)
            }
        }
    }

    /// Whether tree partials can [`merge`](RoundSum::merge) into this sum.
    pub(crate) fn is_exact(&self) -> bool {
        matches!(self, RoundSum::Exact(_))
    }

    /// Merges a tree inner node's partial in, as
    /// [`ExactWeightedSum::merge`] (which checks before it touches a limb).
    pub(crate) fn merge(&mut self, partial: &ExactWeightedSum) -> Result<(), FlError> {
        match self {
            RoundSum::Exact(sum) => sum.merge(partial),
            RoundSum::Ordered(_) => Err(FlError::InvalidConfig("not an exact sum".into())),
        }
    }

    /// Resolves the weighted mean `x̄` of everything accepted into `accum`;
    /// an error when nothing was (or every `Ordered` weight was zero).
    pub(crate) fn finish_into(&self, accum: &mut Vec<f64>) -> Result<(), FlError> {
        match self {
            RoundSum::Exact(sum) => sum.finish_into(accum),
            RoundSum::Ordered(kept) => {
                weighted_average_into(accum, kept.values().map(|(n, x)| (*n, x.as_slice())))
            }
        }
    }
}

/// Adds `p · w · 2¹⁵²` (exact) into `acc`: [`add_scaled_lanes`]'s
/// arithmetic for one parameter, the fold's kernel until the lanes
/// replaced it, kept as the scalar definition they are held to.
#[cfg(test)]
fn add_scaled(acc: &mut Limbs, p: f32, w: u64) {
    debug_assert!(param_in_domain(p) && w < MAX_WEIGHT);
    let bits = p.to_bits();
    let negative = bits >> 31 == 1;
    let sign = u64::from(negative).wrapping_neg(); // 0 or !0
    let e = (bits >> 23) & 0xFF;
    let product = (u64::from(bits & 0x7F_FFFF) | u64::from(e != 0) << 23) * w;
    let shift = e.max(1) + (SCALE_BITS - 150) as u32;
    let (idx, off) = (shift / 64, shift % 64);
    let lo = product << off;
    let hi = product >> 1 >> (63 - off); // `product >> (64 − off)`, defined at `off = 0`
    let limb = |i: u32| {
        let at = if i == idx { lo } else { 0 };
        let above = if i == idx + 1 { hi } else { 0 };
        (at | above) ^ sign
    };
    add256(acc, &[limb(0), limb(1), limb(2), limb(3)], negative);
}

/// The kernels this module shipped before the two-limb rewrite, kept as
/// the oracle the fast ones are compared against bit for bit.
#[cfg(test)]
mod reference {
    use super::{Limbs, SCALE_BITS};

    fn add256(acc: &mut Limbs, v: &Limbs) {
        let mut carry = 0u64;
        for (a, &b) in acc.iter_mut().zip(v) {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            *a = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
    }

    fn neg256(v: &mut Limbs) {
        for limb in v.iter_mut() {
            *limb = !*limb;
        }
        add256(v, &[1, 0, 0, 0]);
    }

    /// Adds `p · w · 2¹⁵²` (exact) into `acc`.
    pub fn add_scaled(acc: &mut Limbs, p: f32, w: u64) {
        if p == 0.0 || w == 0 {
            return;
        }
        let q = f64::from(p); // exact widening
        let bits = q.to_bits();
        let negative = bits >> 63 == 1;
        // f32 → f64 never produces an f64 subnormal, so the implicit bit is
        // always set.
        let mantissa = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
        let e = ((bits >> 52) & 0x7FF) as i32 - 1023 - 52;
        let mut value = u128::from(mantissa) * u128::from(w); // ≤ 2^85 · 2^32
        let mut shift = e + SCALE_BITS;
        if shift < 0 {
            // Exact: an f32's lowest set bit is ≥ 2⁻¹⁴⁹, so the value has at
            // least 152 − 149 = 3 trailing zero bits at this point.
            debug_assert!(value.trailing_zeros() >= shift.unsigned_abs());
            value >>= shift.unsigned_abs();
            shift = 0;
        }
        let idx = (shift / 64) as usize;
        let off = (shift % 64) as u32;
        let lo = value as u64;
        let hi = (value >> 64) as u64;
        let (w0, w1, w2) = if off == 0 {
            (lo, hi, 0u64)
        } else {
            (lo << off, (hi << off) | (lo >> (64 - off)), hi >> (64 - off))
        };
        let mut addend = [0u64; 4];
        addend[idx] = w0;
        if w1 != 0 {
            addend[idx + 1] = w1;
        }
        if w2 != 0 {
            addend[idx + 2] = w2;
        }
        if negative {
            neg256(&mut addend);
        }
        add256(acc, &addend);
    }

    /// Converts a signed 256-bit fixed-point value back to the nearest
    /// `f64` (round-to-nearest-even), the single rounding step of the fold.
    pub fn to_f64(limbs: &Limbs) -> f64 {
        let negative = limbs[3] >> 63 == 1;
        let mut mag = *limbs;
        if negative {
            neg256(&mut mag);
        }
        let high = match mag.iter().rposition(|&l| l != 0) {
            Some(i) => i,
            None => return 0.0,
        };
        let top_bit = high as u32 * 64 + (63 - mag[high].leading_zeros());
        let (mut m, exp) = if top_bit <= 52 {
            // Fits 53 bits: exact (limbs above `high` are zero here).
            (u128::from(mag[1]) << 64 | u128::from(mag[0]), -SCALE_BITS)
        } else {
            let shift = top_bit - 52;
            let mut m: u128 = 0;
            for i in (0..4).rev() {
                // As shipped, minus a debug-build overflow panic: a zero
                // high limb was shifted by ≥ 128 when 53 ≤ top_bit ≤ 116.
                if mag[i] == 0 {
                    continue;
                }
                let base = i as u32 * 64;
                if base >= shift {
                    m |= u128::from(mag[i]) << (base - shift);
                } else if base + 64 > shift {
                    m |= u128::from(mag[i] >> (shift - base));
                }
            }
            // Round half to even on the dropped bits.
            let guard_pos = shift - 1;
            let guard = mag[(guard_pos / 64) as usize] >> (guard_pos % 64) & 1 == 1;
            let sticky = (0..guard_pos).any(|b| mag[(b / 64) as usize] >> (b % 64) & 1 == 1);
            if guard && (sticky || m & 1 == 1) {
                m += 1; // may carry to 2^53 — still exactly representable
            }
            (m, shift as i32 - SCALE_BITS)
        };
        if m == 0 {
            return 0.0;
        }
        // Normalize a rounding carry so the scalbn below stays exact.
        let mut exp = exp;
        if m == 1u128 << 53 {
            m >>= 1;
            exp += 1;
        }
        let out = (m as f64) * f64::powi(2.0, exp);
        if negative {
            -out
        } else {
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flips_ml::rng::seeded;
    use rand::Rng;

    fn finish(sum: &ExactWeightedSum) -> Vec<f64> {
        let mut out = Vec::new();
        sum.finish_into(&mut out).unwrap();
        out
    }

    #[test]
    fn single_update_is_identity() {
        let mut sum = ExactWeightedSum::new(3);
        sum.fold(&[1.25, -0.5, 3.0], 7).unwrap();
        assert_eq!(finish(&sum), vec![1.25, -0.5, 3.0]);
    }

    #[test]
    fn matches_rational_arithmetic_on_dyadic_inputs() {
        // 10·0.5 + 6·(−0.25) = 3.5; mean = 3.5/16 = 0.21875, exact.
        let mut sum = ExactWeightedSum::new(1);
        sum.fold(&[0.5], 10).unwrap();
        sum.fold(&[-0.25], 6).unwrap();
        assert_eq!(finish(&sum), vec![0.21875]);
    }

    #[test]
    fn partition_independent_bit_exact() {
        let mut rng = seeded(0xA6_17EE);
        let dim = 33;
        let updates: Vec<(Vec<f32>, u64)> = (0..64)
            .map(|_| {
                let params: Vec<f32> =
                    (0..dim).map(|_| (rng.random::<f32>() - 0.5) * 2000.0).collect();
                (params, rng.random_range(1..5000))
            })
            .collect();
        let mut flat = ExactWeightedSum::new(dim);
        for (p, w) in &updates {
            flat.fold(p, *w).unwrap();
        }
        // Shard by residue, merge shards in descending order.
        for shards in [2usize, 3, 7] {
            let mut partials: Vec<ExactWeightedSum> =
                (0..shards).map(|_| ExactWeightedSum::new(dim)).collect();
            for (i, (p, w)) in updates.iter().enumerate() {
                partials[i % shards].fold(p, *w).unwrap();
            }
            let mut merged = ExactWeightedSum::new(dim);
            for part in partials.iter().rev() {
                merged.merge(part).unwrap();
            }
            assert_eq!(merged, flat, "{shards} shards");
            assert_eq!(finish(&merged), finish(&flat));
        }
    }

    #[test]
    fn tiny_and_huge_magnitudes_cancel_exactly() {
        let mut sum = ExactWeightedSum::new(1);
        let tiny = f32::from_bits(1); // smallest subnormal, 2^-149
        sum.fold(&[1.0e9], 1).unwrap();
        sum.fold(&[tiny], 1).unwrap();
        sum.fold(&[-1.0e9], 1).unwrap();
        sum.fold(&[-tiny], 1).unwrap();
        assert_eq!(finish(&sum), vec![0.0]);
    }

    #[test]
    fn wire_round_trip_preserves_bits() {
        let mut rng = seeded(9);
        let mut sum = ExactWeightedSum::new(5);
        for _ in 0..10 {
            let p: Vec<f32> = (0..5).map(|_| rng.random::<f32>() - 0.5).collect();
            sum.fold(&p, rng.random_range(1..100)).unwrap();
        }
        let wire = sum.raw_limbs();
        let back = ExactWeightedSum::from_raw(&wire, sum.total_weight(), 10).unwrap();
        assert_eq!(back, sum);
    }

    #[test]
    fn matches_f64_mean_within_half_ulp_envelope() {
        // Sanity: the exact mean should sit inside the spread of naive
        // f64 left-folds (it *is* the correctly rounded sum).
        let mut rng = seeded(31);
        let updates: Vec<(f32, u64)> =
            (0..100).map(|_| (rng.random::<f32>() * 10.0 - 5.0, rng.random_range(1..50))).collect();
        let mut sum = ExactWeightedSum::new(1);
        let mut naive = 0.0f64;
        let mut total = 0.0f64;
        for &(p, w) in &updates {
            sum.fold(&[p], w).unwrap();
            naive += w as f64 * f64::from(p);
            total += w as f64;
        }
        let exact = finish(&sum)[0];
        assert!((exact - naive / total).abs() <= 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn rejects_domain_violations() {
        let mut sum = ExactWeightedSum::new(1);
        assert!(sum.fold(&[f32::NAN], 1).is_err());
        assert!(sum.fold(&[f32::INFINITY], 1).is_err());
        assert!(sum.fold(&[3.0e9], 1).is_err());
        assert!(sum.fold(&[1.0], 0).is_err());
        assert!(sum.fold(&[1.0], 1 << 32).is_err());
        assert!(sum.fold(&[1.0, 2.0], 1).is_err());
        let other = ExactWeightedSum::new(2);
        assert!(sum.merge(&other).is_err());
        let mut out = Vec::new();
        assert!(sum.finish_into(&mut out).is_err(), "empty sum has no mean");
    }

    #[test]
    fn from_raw_validates_shape() {
        assert!(ExactWeightedSum::from_raw(&[1, 2, 3], 1, 1).is_err());
        assert!(ExactWeightedSum::from_raw(&[1, 2, 3, 4], 1, 0).is_err());
        assert!(ExactWeightedSum::from_raw(&[1, 2, 3, 4], 1, MAX_TERMS + 1).is_err());
    }

    #[test]
    fn from_raw_refuses_a_weight_no_admissible_terms_add_up_to() {
        let words = [0; 4];
        for terms in [1, 3, MAX_TERMS] {
            let most = terms * (MAX_WEIGHT - 1);
            assert!(ExactWeightedSum::from_raw(&words, terms - 1, terms).is_err());
            assert!(ExactWeightedSum::from_raw(&words, terms, terms).is_ok());
            assert!(ExactWeightedSum::from_raw(&words, most, terms).is_ok());
            assert!(ExactWeightedSum::from_raw(&words, most + 1, terms).is_err());
        }
        // What used to reach `merge` and overflow its weight add.
        assert!(ExactWeightedSum::from_raw(&words, u64::MAX, 1).is_err());
        // `merge` checks that add too, before it touches a limb.
        let mut sum = ExactWeightedSum::new(1);
        sum.fold(&[1.0], 5).unwrap();
        let before = sum.clone();
        let partial = ExactWeightedSum::from_raw(&[1, 0, 0, 0], 1, 1).unwrap();
        assert!(sum.merge(&ExactWeightedSum { total_weight: u64::MAX, ..partial }).is_err());
        assert_eq!(sum, before);
    }

    /// A random signed accumulator with the headroom a real sum has:
    /// magnitude below 2²³⁶, either sign.
    fn random_acc(rng: &mut impl Rng) -> Limbs {
        let mut acc: Limbs = [rng.random(), rng.random(), rng.random(), rng.random()];
        acc[3] = ((acc[3] as i64) >> 20) as u64; // sign-extend from bit 235
        acc
    }

    /// An in-domain `f32` drawn by bit pattern, so subnormals, `±0`,
    /// every exponent up to 2³⁰ and the domain's edges all turn up.
    fn random_param(rng: &mut impl Rng) -> f32 {
        const EDGE: u32 = 0x4EFF_FFFF; // 2³¹ − ulp, the largest admissible
        let magnitude = match rng.random_range(0..8u32) {
            0 => 0,
            1 => rng.random_range(1..0x0080_0000), // subnormal
            2 => [1, 0x007F_FFFF, 0x0080_0000, EDGE][rng.random_range(0..4usize)],
            _ => rng.random_range(0..=EDGE),
        };
        let p = f32::from_bits(magnitude | rng.random_range(0..2u32) << 31);
        assert!(param_in_domain(p));
        p
    }

    #[test]
    fn the_domain_test_is_finite_and_below_two_to_the_31() {
        let mut rng = seeded(0xD0);
        let edges =
            [0, 0x4EFF_FFFF, 0x4F00_0000, 0x4F00_0001, 0x7F7F_FFFF, 0x7F80_0000, 0x7FC0_0000];
        for case in 0..100_000usize {
            let bits =
                if case < 14 { edges[case / 2] | (case as u32 % 2) << 31 } else { rng.random() };
            let x = f32::from_bits(bits);
            assert_eq!(param_in_domain(x), x.is_finite() && x.abs() < MAX_PARAM, "{bits:#x}");
        }
    }

    #[test]
    fn add_scaled_matches_the_reference_kernel_bit_for_bit() {
        let mut rng = seeded(0x2_11AB);
        for case in 0..200_000 {
            let p = random_param(&mut rng);
            let w = match case % 3 {
                0 => 1,
                1 => MAX_WEIGHT - 1,
                _ => rng.random_range(1..MAX_WEIGHT),
            };
            let start = if case % 5 == 0 { [0; 4] } else { random_acc(&mut rng) };
            let (mut fast, mut slow) = (start, start);
            add_scaled(&mut fast, p, w);
            reference::add_scaled(&mut slow, p, w);
            assert_eq!(fast, slow, "p = {p:e} ({:#x}), w = {w}, acc = {start:x?}", p.to_bits());
        }
    }

    #[test]
    fn add_scaled_lanes_is_add_scaled_in_every_lane() {
        let mut rng = seeded(0x1A_2E5);
        for case in 0..25_000 {
            let p: [f32; LANES] = std::array::from_fn(|_| random_param(&mut rng));
            let w = match case % 3 {
                0 => 1,
                1 => MAX_WEIGHT - 1,
                _ => rng.random_range(1..MAX_WEIGHT),
            };
            let start: [Limbs; LANES] = std::array::from_fn(|_| random_acc(&mut rng));
            let mut lanes: [Lane; 4] = std::array::from_fn(|k| start.map(|acc| acc[k]));
            add_scaled_lanes(lanes.each_mut(), &p, w as u32);
            for (l, mut acc) in start.into_iter().enumerate() {
                add_scaled(&mut acc, p[l], w);
                assert_eq!(lanes.map(|lane| lane[l]), acc, "lane {l}: p = {:e}, w = {w}", p[l]);
            }
        }
    }

    #[test]
    fn folded_limbs_and_means_match_the_reference_kernels() {
        // Every block shape the lanes meet: none, partial, whole, several.
        let mut rng = seeded(0xF01D);
        for dim in (0..=17).chain([255, 256, 257]) {
            let updates: Vec<(Vec<f32>, u64)> = (0..40)
                .map(|t| {
                    let w =
                        if t % 4 == 0 { MAX_WEIGHT - 1 } else { rng.random_range(1..MAX_WEIGHT) };
                    ((0..dim).map(|_| random_param(&mut rng)).collect(), w)
                })
                .collect();
            let oracle = oracle_fold(dim, updates.iter().map(|(p, w)| (p.as_slice(), *w)));
            let mut flat = ExactWeightedSum::new(dim);
            let mut halves = [ExactWeightedSum::new(dim), ExactWeightedSum::new(dim)];
            for (t, (params, w)) in updates.iter().enumerate() {
                flat.fold(params, *w).unwrap();
                halves[t % 2].fold(params, *w).unwrap();
            }
            let mut merged = ExactWeightedSum::new(dim);
            merged.merge(&halves[1]).unwrap();
            merged.merge(&halves[0]).unwrap();
            assert_matches_oracle(&flat, &oracle, &format!("fold, dim {dim}"));
            assert_matches_oracle(&merged, &oracle, &format!("merge, dim {dim}"));

            // Arbitrary accumulators: the lane carries against the chain.
            let (a, b): (Vec<Limbs>, Vec<Limbs>) =
                (0..dim).map(|_| (random_acc(&mut rng), random_acc(&mut rng))).unzip();
            let mut sum = ExactWeightedSum::from_raw(&a.concat(), 1, 1).unwrap();
            sum.merge(&ExactWeightedSum::from_raw(&b.concat(), 1, 1).unwrap()).unwrap();
            assert_eq!(sum.raw_limbs(), scalar_merge(&a, &b).concat(), "dim {dim}");
        }
    }

    /// What the reference kernels make of `updates`, parameter-major.
    fn oracle_fold<'a>(
        dim: usize,
        updates: impl IntoIterator<Item = (&'a [f32], u64)>,
    ) -> Vec<Limbs> {
        let mut oracle = vec![[0u64; 4]; dim];
        for (params, w) in updates {
            for (acc, &p) in oracle.iter_mut().zip(params) {
                reference::add_scaled(acc, p, w);
            }
        }
        oracle
    }

    /// `sum`'s wire words and finished bits against the oracle's limbs.
    fn assert_matches_oracle(sum: &ExactWeightedSum, oracle: &[Limbs], what: &str) {
        assert_eq!(sum.raw_limbs(), oracle.concat(), "{what}");
        let total = sum.total_weight() as f64;
        let want: Vec<u64> =
            oracle.iter().map(|l| (reference::to_f64(l) / total).to_bits()).collect();
        let got: Vec<u64> = finish(sum).iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "{what}");
    }

    /// `a + b` per parameter through the scalar chain.
    fn scalar_merge(a: &[Limbs], b: &[Limbs]) -> Vec<Limbs> {
        let add = |(x, y): (&Limbs, &Limbs)| {
            let mut s = *x;
            add256(&mut s, y, false);
            s
        };
        a.iter().zip(b).map(add).collect()
    }

    #[test]
    fn one_block_mixes_every_limb_index_class() {
        // Where each lane's addend lands: ±0 nowhere; subnormals in limb
        // 0; 1e-20 across limbs 0–1; 2⁻⁶⁵ (e = 62) exactly limb 1; 1e-5
        // across 1–2; 0.5 (e = 126) exactly limb 2; 2³¹ − ulp across 2–3.
        // Both signs of each, rotated through every lane, a partial block
        // behind them.
        let classes = [
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x7F_FFFF),
            1e-20,
            f32::from_bits(62 << 23),
            1e-5,
            0.5,
            f32::from_bits(0x4EFF_FFFF),
        ];
        let mut sum = ExactWeightedSum::new(13);
        let mut updates = Vec::new();
        for rotation in 0..LANES {
            for (negate, w) in [(false, 1), (true, MAX_WEIGHT - 1), (rotation % 2 == 0, 12_345)] {
                let mut params = classes.map(|p| if negate { -p } else { p }).to_vec();
                params.rotate_left(rotation);
                params.extend_from_within(..5);
                sum.fold(&params, w).unwrap();
                updates.push((params, w));
                let oracle = oracle_fold(13, updates.iter().map(|(p, w)| (p.as_slice(), *w)));
                assert_matches_oracle(&sum, &oracle, &format!("rotation {rotation}, w {w}"));
            }
        }
    }

    #[test]
    fn a_merge_carry_ripples_through_all_four_limbs() {
        // −1 + 1, 1 + −1 and (5·2¹⁹² + 2¹⁹² − 1) + 1 each carry out of
        // every limb; their negated twins too. One case a lane, across a
        // block boundary.
        let cases =
            [([!0; 4], [1, 0, 0, 0]), ([1, 0, 0, 0], [!0; 4]), ([!0, !0, !0, 5], [1, 0, 0, 0])];
        let twins = cases.iter().map(|(a, b)| (negated(a), negated(b)));
        let (a, b): (Vec<Limbs>, Vec<Limbs>) =
            cases.into_iter().chain(twins).cycle().take(11).unzip();
        let mut sum = ExactWeightedSum::from_raw(&a.concat(), 1, 1).unwrap();
        sum.merge(&ExactWeightedSum::from_raw(&b.concat(), 1, 1).unwrap()).unwrap();
        let want = scalar_merge(&a, &b);
        assert_eq!(want[..3], [[0; 4], [0; 4], [0, 0, 0, 6]]);
        assert_eq!(sum.raw_limbs(), want.concat());
    }

    #[test]
    fn the_padding_never_shows() {
        for dim in [1, 3, 5, 7, 9, 15, 17, 255, 257] {
            // Three updates and a zero vector after each, all of one sign.
            let fold = |seed: u64, zero: f32| {
                let mut rng = seeded(seed);
                let mut sum = ExactWeightedSum::new(dim);
                for w in [7, MAX_WEIGHT - 1, 1] {
                    let params: Vec<f32> = (0..dim).map(|_| random_param(&mut rng)).collect();
                    sum.fold(&params, w).unwrap();
                    sum.fold(&vec![zero; dim], w).unwrap();
                }
                sum
            };
            let seed = dim as u64;
            let (a, twin, other) = (fold(seed, 0.0), fold(seed, -0.0), fold(!seed, 0.0));
            let mut sum = a.clone();
            sum.merge(&other).unwrap();
            assert_eq!(sum.raw_limbs().len(), 4 * dim);
            assert!(sum.limbs.iter().all(|c| c.as_flattened()[dim..].iter().all(|&w| w == 0)));
            let back = ExactWeightedSum::from_raw(&sum.raw_limbs(), sum.total_weight(), sum.terms)
                .unwrap();
            // Same weights and term counts, so `==` is `raw_limbs` equality.
            for (x, y) in [(&sum, &back), (&a, &twin), (&a, &other)] {
                assert_eq!(x == y, x.raw_limbs() == y.raw_limbs(), "dim {dim}");
            }
            assert_eq!(back, sum, "dim {dim}: from_raw(raw_limbs()) is the source");
            assert_eq!(a, twin, "dim {dim}: +0 and −0 add the same nothing");
            assert_ne!(a, other, "dim {dim}");
        }
    }

    /// `−v` in two's complement.
    fn negated(v: &Limbs) -> Limbs {
        let mut neg = [0u64; 4];
        add256(&mut neg, &v.map(|l| !l), true);
        neg
    }

    /// `value << shift` as a 256-bit magnitude, optionally negated.
    fn shifted(value: u128, shift: u32, negative: bool) -> Limbs {
        let mut mag = [0u64; 4];
        for bit in 0..128 {
            if value >> bit & 1 == 1 {
                let at = bit + shift;
                mag[(at / 64) as usize] |= 1 << (at % 64);
            }
        }
        if negative {
            negated(&mag)
        } else {
            mag
        }
    }

    #[test]
    fn to_f64_rounds_like_the_reference_at_every_limb_boundary() {
        // A 53-bit mantissa (even / odd / all ones, so a round-up carries
        // to 2⁵³), then guard, then a tail that is empty, one bit just
        // under the guard, or one bit far below — slid across every bit
        // position so window, guard and sticky each straddle each limb
        // boundary in turn.
        let mantissas: [u128; 4] = [1 << 52, (1 << 52) | 1, (1 << 53) - 1, (1 << 53) - 2];
        let mut cases = 0;
        for &m in &mantissas {
            for guard in [0u128, 1] {
                for tail_bits in [0u32, 1, 40] {
                    for tail in [0u128, 1, 1 << tail_bits.saturating_sub(1)] {
                        let value =
                            ((m << 1 | guard) << tail_bits) | (tail & ((1 << tail_bits) - 1));
                        let width = 54 + tail_bits;
                        for shift in 0..=(236 - width) {
                            for negative in [false, true] {
                                let limbs = shifted(value, shift, negative);
                                assert_eq!(
                                    to_f64(&limbs).to_bits(),
                                    reference::to_f64(&limbs).to_bits(),
                                    "m {m:#x} guard {guard} tail {tail:#x}/{tail_bits} << {shift}, negative {negative}"
                                );
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 20_000);
        // Values of 53 bits or fewer are exact, a sticky bit a whole limb
        // away still breaks a tie, and zero is +0.
        for (limbs, want) in [
            ([0, 0, 0, 0], 0.0),
            ([0, 0, 1 << 24, 0], 1.0),
            ([0, 0, 3 << 23, 0], 1.5),
            ([0, 0, (1 << 24) | (1 << 23), 0], 1.5),
            (shifted(1, SCALE_BITS as u32, true), -1.0),
            ([1, 0, 0, 0], 2.0f64.powi(-SCALE_BITS)),
        ] {
            assert_eq!(to_f64(&limbs).to_bits(), want.to_bits(), "{limbs:x?}");
        }
        let tie = shifted((1 << 53) | 1, 130, false); // 2⁵³ + 1 units: a tie, rounds to even
        let broken = [1, tie[1], tie[2], tie[3]]; // the same plus one bit in limb 0
        assert!(to_f64(&broken) > to_f64(&tie));
        assert_eq!(to_f64(&broken).to_bits(), reference::to_f64(&broken).to_bits());
    }

    #[test]
    fn to_f64_matches_the_reference_on_random_sums() {
        let mut rng = seeded(0x70F6);
        for _ in 0..200_000 {
            let mut limbs = random_acc(&mut rng);
            // Vary the magnitude: sign-extend from a random bit.
            let keep = rng.random_range(1..=236u32);
            for (i, limb) in limbs.iter_mut().enumerate() {
                let base = i as u32 * 64;
                if keep <= base {
                    *limb = 0;
                } else if keep < base + 64 {
                    *limb &= (1 << (keep - base)) - 1;
                }
            }
            for v in [limbs, negated(&limbs)] {
                assert_eq!(to_f64(&v).to_bits(), reference::to_f64(&v).to_bits(), "{v:x?}");
            }
        }
    }

    #[test]
    fn a_fold_rejected_for_its_last_parameter_changes_nothing() {
        let mut sum = ExactWeightedSum::new(4);
        sum.fold(&[1.0, -2.0, 0.5, 3.0], 9).unwrap();
        let before = sum.clone();
        for bad in [f32::NAN, f32::NEG_INFINITY, MAX_PARAM, -MAX_PARAM] {
            assert!(sum.fold(&[7.0, 7.0, 7.0, bad], 3).is_err());
            assert_eq!(sum, before, "a refused update left a trace ({bad})");
        }
        assert_eq!(sum.total_weight(), 9);
        assert_eq!(sum.raw_limbs(), before.raw_limbs());
    }
}
