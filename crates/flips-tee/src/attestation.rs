//! Remote attestation (simulated).
//!
//! All parties in a FLIPS job share one attestation server (paper Figure
//! 3). The flow modeled here:
//!
//! 1. the job operator **registers** the expected clustering-code
//!    measurement with the server;
//! 2. the enclave platform produces a [`Quote`] over its measurement and a
//!    party-supplied nonce, keyed by a platform secret shared with the
//!    attestation server (the analog of the hardware endorsement key);
//! 3. each party submits the quote + its nonce to the server for
//!    **verification** before provisioning any secrets.

use crate::measurement::{fnv1a_128, Measurement};
use crate::TeeError;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// An attestation quote: the enclave's measurement bound to a freshness
/// nonce under the platform key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quote {
    /// The enclave's launch measurement.
    pub measurement: Measurement,
    /// The verifier-chosen nonce the quote is bound to.
    pub nonce: u64,
    /// Simulated platform signature over (measurement, nonce).
    pub signature: u128,
}

/// The platform's quoting identity. Held by the enclave host hardware;
/// its secret is shared out-of-band with the attestation server (the
/// simulation analog of a manufacturer-provisioned endorsement key).
#[derive(Debug, Clone, Copy)]
pub struct PlatformKey {
    secret: u128,
}

impl PlatformKey {
    /// Derives a platform key from a provisioning secret.
    pub fn new(secret: u128) -> Self {
        PlatformKey { secret }
    }

    /// Produces a quote binding `measurement` to `nonce`.
    pub fn quote(&self, measurement: Measurement, nonce: u64) -> Quote {
        Quote { measurement, nonce, signature: self.sign(measurement, nonce) }
    }

    fn sign(&self, measurement: Measurement, nonce: u64) -> u128 {
        let mut bytes = Vec::with_capacity(40);
        bytes.extend_from_slice(&self.secret.to_le_bytes());
        bytes.extend_from_slice(&measurement.0.to_le_bytes());
        bytes.extend_from_slice(&nonce.to_le_bytes());
        fnv1a_128(&bytes)
    }
}

/// The shared attestation server: verifies quotes against registered
/// (trusted) measurements.
#[derive(Debug, Clone)]
pub struct AttestationServer {
    platform: PlatformKey,
    trusted: HashSet<Measurement>,
}

impl AttestationServer {
    /// Creates a server trusting the given platform key.
    pub fn new(platform: PlatformKey) -> Self {
        AttestationServer { platform, trusted: HashSet::new() }
    }

    /// Registers a code measurement as trusted (job setup).
    pub fn register(&mut self, measurement: Measurement) {
        self.trusted.insert(measurement);
    }

    /// Verifies a quote for a verifier who supplied `expected_nonce`.
    ///
    /// # Errors
    ///
    /// Fails when the nonce is stale, the signature is invalid (wrong
    /// platform), or the measurement is not registered (unexpected code).
    pub fn verify(&self, quote: &Quote, expected_nonce: u64) -> Result<(), TeeError> {
        if quote.nonce != expected_nonce {
            return Err(TeeError::AttestationFailed(format!(
                "nonce mismatch: quote has {}, verifier expected {}",
                quote.nonce, expected_nonce
            )));
        }
        if self.platform.sign(quote.measurement, quote.nonce) != quote.signature {
            return Err(TeeError::AttestationFailed("invalid platform signature".into()));
        }
        if !self.trusted.contains(&quote.measurement) {
            return Err(TeeError::AttestationFailed(format!(
                "measurement {} is not registered",
                quote.measurement
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PlatformKey, AttestationServer, Measurement) {
        let platform = PlatformKey::new(0xDEAD_BEEF);
        let mut server = AttestationServer::new(platform);
        let m = Measurement::of_code(b"flips-clustering-enclave-v1");
        server.register(m);
        (platform, server, m)
    }

    #[test]
    fn valid_quote_verifies() {
        let (platform, server, m) = setup();
        let quote = platform.quote(m, 12345);
        assert!(server.verify(&quote, 12345).is_ok());
    }

    #[test]
    fn stale_nonce_is_rejected() {
        let (platform, server, m) = setup();
        let quote = platform.quote(m, 1);
        let err = server.verify(&quote, 2).unwrap_err();
        assert!(matches!(err, TeeError::AttestationFailed(_)));
    }

    #[test]
    fn unregistered_measurement_is_rejected() {
        let (platform, server, _) = setup();
        let rogue = Measurement::of_code(b"malicious-code");
        let quote = platform.quote(rogue, 7);
        assert!(server.verify(&quote, 7).is_err());
    }

    #[test]
    fn forged_signature_is_rejected() {
        let (_, server, m) = setup();
        let other_platform = PlatformKey::new(0xBAD);
        let quote = other_platform.quote(m, 7);
        assert!(server.verify(&quote, 7).is_err());
    }

    #[test]
    fn tampered_measurement_breaks_signature() {
        let (platform, server, m) = setup();
        let mut quote = platform.quote(m, 7);
        quote.measurement = Measurement(quote.measurement.0 ^ 1);
        assert!(server.verify(&quote, 7).is_err());
    }
}
