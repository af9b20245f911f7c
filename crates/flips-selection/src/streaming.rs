//! Streaming candidate pools — selector construction without a
//! materialized roster.
//!
//! The flat path hands every selector dense per-party vectors built by
//! the caller (sample counts, latency profiles). That is fine at 10³
//! parties and fatal at 10⁶: the roster no longer fits in one
//! allocation, and most of it is cold at any given round. This module
//! inverts the dependency — a [`CandidateSource`] hands whoever is
//! constructing a selector the per-party columns it asks for, one bulk
//! read per column, and the selector keeps only what its policy needs.
//!
//! Determinism contract: every `from_source` constructor reproduces the
//! flat constructor bit-for-bit when fed the same descriptors. The
//! scale-equivalence suite pins this against the selector goldens.

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
