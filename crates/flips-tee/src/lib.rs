//! # flips-tee — simulated trusted-execution-environment substrate
//!
//! FLIPS treats two pieces of information as private beyond standard FL:
//! each party's **label distribution** and each party's **cluster
//! membership** (paper §3.3). The paper secures both by running the
//! clustering code inside a TEE (AMD SEV) on the aggregator, attested by a
//! shared attestation server, with each party provisioning its label
//! distribution over a secure channel (Figure 3).
//!
//! This crate simulates that trust architecture faithfully at the API and
//! information-flow level:
//!
//! - [`measurement`] — code identity hashes and the launch measurement;
//! - [`attestation`] — an attestation service that signs quotes over
//!   enclave measurements and verifies them for parties;
//! - [`channel`] — party↔enclave secure channels (session-keyed sealing
//!   with integrity tags);
//! - [`enclave`] — the enclave container: guarded entry points, sealed
//!   state invisible to the host, a calibrated compute-overhead model
//!   (the paper measures ≈5% — §5.1), and guaranteed state erasure on
//!   destruction.
//!
//! # Security disclaimer
//!
//! **This is a simulation substrate, not a security boundary.** The
//! "cipher" is a seeded-PRNG keystream and the "MAC" is a keyed FNV hash —
//! chosen so the workspace stays within its permitted dependencies. They
//! model the *shape* of the trust relationships (who can read what, what
//! must verify before what) so the middleware's information flow can be
//! tested; they provide no real confidentiality or integrity against an
//! adversary.
//!
//! # Example
//!
//! The overhead model is the knob the paper's ≈5% TEE cost hangs on —
//! accounting-only, never busy-waiting:
//!
//! ```
//! use flips_tee::OverheadModel;
//! use std::time::Duration;
//!
//! let sev = OverheadModel::sev_like();
//! assert_eq!(sev.compute_factor, 0.05, "the paper's measured ~5%");
//! assert_eq!(sev.entry_cost, Duration::from_micros(2));
//! ```

#![forbid(unsafe_code)]

pub mod attestation;
pub mod channel;
pub mod enclave;
pub mod measurement;

pub use attestation::{AttestationServer, Quote};
pub use channel::{SealedMessage, SecureChannel};
pub use enclave::{Enclave, OverheadModel};
pub use measurement::Measurement;

/// Errors produced by the TEE substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// A quote failed verification (unknown measurement or bad signature).
    AttestationFailed(String),
    /// A sealed message failed its integrity check.
    IntegrityViolation,
    /// An operation was attempted on a destroyed enclave.
    EnclaveDestroyed,
    /// A channel was used before its handshake completed.
    ChannelNotEstablished,
}

impl std::fmt::Display for TeeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeeError::AttestationFailed(m) => write!(f, "attestation failed: {m}"),
            TeeError::IntegrityViolation => write!(f, "sealed message integrity violation"),
            TeeError::EnclaveDestroyed => write!(f, "enclave has been destroyed"),
            TeeError::ChannelNotEstablished => write!(f, "secure channel not established"),
        }
    }
}

impl std::error::Error for TeeError {}
