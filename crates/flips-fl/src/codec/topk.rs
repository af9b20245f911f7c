//! The [`ModelCodec::TopK`](super::ModelCodec::TopK) stage: candidate
//! selection on the sender, ascending-pair application on the receiver.
//! A delta body is `(u32 index, u32 value bits)` pairs, ascending by
//! index; the envelope's `u32` counts pairs, not bytes.

use crate::format::Reader;
use crate::FlError;

/// Bytes of one `(index, value bits)` pair.
pub(super) const PAIR_BYTES: usize = 8;

/// The sender-side state of the sparsifier.
#[derive(Default)]
pub(super) struct TopK {
    /// Coordinates transmitted per model frame.
    k: usize,
    /// Candidate scratch: `(magnitude key, index)`.
    cands: Vec<(u32, u32)>,
    /// Selected pairs of the last [`TopK::select`], `(index, value
    /// bits)` ascending by index — what the sender applies to advance
    /// its reference to the *reconstruction* (the model the receiver
    /// now holds), not to the true parameters.
    pairs: Vec<(u32, u32)>,
    /// The true (pre-sparsification) parameters last offered as a
    /// global model — same-round rebroadcast detection must compare
    /// against what was *offered*, not against the lossy reconstruction
    /// the reference holds.
    offered: Vec<f32>,
}

impl TopK {
    pub(super) fn new(k: u32) -> Self {
        TopK { k: k as usize, ..TopK::default() }
    }

    /// Selects the `k` largest-magnitude coordinates of `params −
    /// reference` and appends them to `body`. Returns `false` — send
    /// inline — for dense deltas (or tiny models) whose pair list would
    /// not undercut the raw image; inline is also bit-exact, so the
    /// fallback only ever *improves* fidelity.
    pub(super) fn select(&mut self, params: &[f32], reference: &[f32], body: &mut Vec<u8>) -> bool {
        // Candidates: coordinates whose bits differ from the reference,
        // keyed by |params − reference| (NaN deltas key as the largest
        // magnitudes — a NaN-poisoned coordinate must not be silently
        // dropped).
        self.cands.clear();
        for (i, (&x, &r)) in params.iter().zip(reference).enumerate() {
            if x.to_bits() != r.to_bits() {
                let key = (x - r).to_bits() & 0x7FFF_FFFF;
                self.cands.push((key, i as u32));
            }
        }
        // Keep the k largest keys; the comparator's index tie-break
        // makes it a total order, so the selected *set* is a pure
        // function of the input regardless of partition internals.
        if self.cands.len() > self.k {
            self.cands.select_nth_unstable_by(self.k, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            self.cands.truncate(self.k);
        }
        self.pairs.clear();
        self.pairs.extend(self.cands.iter().map(|&(_, i)| (i, params[i as usize].to_bits())));
        self.pairs.sort_unstable_by_key(|&(i, _)| i);
        if 4 + PAIR_BYTES * self.pairs.len() >= 4 * params.len() {
            return false;
        }
        for &(i, bits) in &self.pairs {
            body.extend_from_slice(&i.to_le_bytes());
            body.extend_from_slice(&bits.to_le_bytes());
        }
        true
    }

    /// Applies the pairs of the last [`TopK::select`] to the sender's
    /// reference: the old reference with the shipped pairs applied is
    /// the reconstruction the receiver now holds.
    pub(super) fn apply_sent(&self, reference: &mut [f32]) {
        for &(i, bits) in &self.pairs {
            reference[i as usize] = f32::from_bits(bits);
        }
    }

    /// Remembers the true parameters behind the reference.
    pub(super) fn set_offered(&mut self, params: &[f32]) {
        self.offered.clear();
        self.offered.extend_from_slice(params);
    }

    /// The true parameters of the last global-model encode.
    pub(super) fn offered(&self) -> &[f32] {
        &self.offered
    }
}

/// Decodes a pair list against `reference` onto `out`: untransmitted
/// coordinates keep their reference value.
pub(super) fn apply_pairs(
    body: &[u8],
    reference: &[f32],
    out: &mut Vec<f32>,
) -> Result<(), FlError> {
    let (n, pairs) = (reference.len(), body.len() / PAIR_BYTES);
    if pairs > n {
        return Err(FlError::Codec(format!("{pairs} top-k pairs exceed the {n}-param model")));
    }
    out.extend_from_slice(reference);
    let mut r = Reader::new(body, "top-k pairs");
    let mut prev: Option<u32> = None;
    while r.remaining() > 0 {
        let (i, bits) = (r.u32()?, r.u32()?);
        if i as usize >= n {
            return Err(FlError::Codec(format!("top-k index {i} out of range for {n} params")));
        }
        if prev.is_some_and(|p| p >= i) {
            return Err(FlError::Codec("top-k indices must strictly ascend".into()));
        }
        prev = Some(i);
        out[i as usize] = f32::from_bits(bits);
    }
    Ok(())
}
