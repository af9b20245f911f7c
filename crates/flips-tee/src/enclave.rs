//! The enclave container: guarded state, calibrated overhead, erasure.
//!
//! An [`Enclave`] hosts private state `S` that the host can only touch
//! through [`Enclave::enter`] — the analog of an ECALL. Each entry applies
//! a configurable compute-overhead model; the paper measures ≈5% slowdown
//! for clustering under AMD SEV (105.4 ms vs 100.5 ms, §5.1); the model
//! *accounts* that penalty per entry ([`Enclave::total_overhead`]) and
//! never spends it — nothing here busy-waits. On
//! destruction (explicit or drop) the state is wiped, matching the paper's
//! "the TEE ... deletes all information at the end of the FL job".

use crate::attestation::{PlatformKey, Quote};
use crate::measurement::Measurement;
use crate::TeeError;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Multiplicative compute-overhead model for enclave entries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Extra time per entry as a fraction of the guarded computation
    /// (0.05 ≈ the paper's measured AMD SEV overhead).
    pub compute_factor: f64,
    /// Fixed per-entry cost (world-switch analog).
    pub entry_cost: Duration,
}

impl OverheadModel {
    /// The paper-calibrated model: 5% compute overhead, 2 µs entry cost.
    pub fn sev_like() -> Self {
        OverheadModel { compute_factor: 0.05, entry_cost: Duration::from_micros(2) }
    }

    /// No overhead (for tests and non-TEE baselines).
    pub fn none() -> Self {
        OverheadModel { compute_factor: 0.0, entry_cost: Duration::ZERO }
    }
}

/// A simulated secure enclave holding private state `S`.
///
/// The host-visible surface is deliberately narrow: quote generation,
/// guarded entry and destruction. There is no accessor that returns `&S`
/// to the host.
#[derive(Debug)]
pub struct Enclave<S> {
    measurement: Measurement,
    platform: PlatformKey,
    overhead: OverheadModel,
    state: Mutex<Option<S>>,
    entries: Mutex<u64>,
    overhead_applied: Mutex<Duration>,
}

impl<S> Enclave<S> {
    /// Loads an enclave: measures `code_identity`, installs the initial
    /// state, and binds the platform quoting key.
    pub fn load(
        code_identity: &[u8],
        initial_state: S,
        platform: PlatformKey,
        overhead: OverheadModel,
    ) -> Self {
        Enclave {
            measurement: Measurement::of_code(code_identity),
            platform,
            overhead,
            state: Mutex::new(Some(initial_state)),
            entries: Mutex::new(0),
            overhead_applied: Mutex::new(Duration::ZERO),
        }
    }

    /// The enclave's launch measurement (public — it is what attestation
    /// proves).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Produces an attestation quote bound to a verifier nonce.
    pub fn quote(&self, nonce: u64) -> Quote {
        self.platform.quote(self.measurement, nonce)
    }

    /// Enters the enclave and runs `f` against the guarded state,
    /// applying the overhead model.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::EnclaveDestroyed`] after destruction.
    pub fn enter<R>(&self, f: impl FnOnce(&mut S) -> R) -> Result<R, TeeError> {
        let mut guard = self.state.lock();
        let state = guard.as_mut().ok_or(TeeError::EnclaveDestroyed)?;
        let start = Instant::now();
        let result = f(state);
        let elapsed = start.elapsed();
        let penalty = self.overhead.entry_cost + elapsed.mul_f64(self.overhead.compute_factor);
        *self.overhead_applied.lock() += penalty;
        *self.entries.lock() += 1;
        Ok(result)
    }

    /// Destroys the enclave, erasing all guarded state. Idempotent.
    pub fn destroy(&self) {
        self.state.lock().take();
    }

    /// Number of guarded entries so far.
    pub fn entry_count(&self) -> u64 {
        *self.entries.lock()
    }

    /// Total overhead the model has accounted (diagnostics/benches).
    pub fn total_overhead(&self) -> Duration {
        *self.overhead_applied.lock()
    }
}

impl<S> Drop for Enclave<S> {
    fn drop(&mut self) {
        self.destroy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::AttestationServer;

    fn enclave() -> Enclave<Vec<u32>> {
        Enclave::load(
            b"clustering-code-v1",
            Vec::new(),
            PlatformKey::new(0xFEED),
            OverheadModel::none(),
        )
    }

    #[test]
    fn enter_mutates_guarded_state() {
        let e = enclave();
        e.enter(|s| s.push(7)).unwrap();
        let len = e.enter(|s| s.len()).unwrap();
        assert_eq!(len, 1);
        assert_eq!(e.entry_count(), 2);
    }

    #[test]
    fn destroy_erases_state_and_blocks_entry() {
        let e = enclave();
        e.enter(|s| s.push(1)).unwrap();
        e.destroy();
        assert_eq!(e.enter(|s| s.len()).unwrap_err(), TeeError::EnclaveDestroyed);
    }

    #[test]
    fn destroy_is_idempotent() {
        let e = enclave();
        e.destroy();
        e.destroy();
        assert_eq!(e.enter(|_| ()).unwrap_err(), TeeError::EnclaveDestroyed);
    }

    #[test]
    fn quotes_verify_end_to_end() {
        let platform = PlatformKey::new(0xFEED);
        let e = Enclave::load(b"code", 0u8, platform, OverheadModel::none());
        let mut server = AttestationServer::new(platform);
        server.register(e.measurement());
        let quote = e.quote(42);
        assert!(server.verify(&quote, 42).is_ok());
    }

    #[test]
    fn overhead_model_injects_measurable_delay() {
        let e = Enclave::load(
            b"code",
            (),
            PlatformKey::new(1),
            OverheadModel { compute_factor: 1.0, entry_cost: Duration::from_micros(50) },
        );
        e.enter(|_| std::thread::sleep(Duration::from_micros(200))).unwrap();
        // factor 1.0 ⇒ overhead ≈ 200µs + 50µs fixed.
        let overhead = e.total_overhead();
        assert!(overhead >= Duration::from_micros(240), "overhead {overhead:?}");
    }

    #[test]
    fn accounting_only_model_does_not_spin() {
        let e = Enclave::load(
            b"code",
            (),
            PlatformKey::new(2),
            OverheadModel { compute_factor: 1000.0, entry_cost: Duration::from_secs(5) },
        );
        let start = Instant::now();
        e.enter(|_| ()).unwrap();
        // A 5 s modeled penalty must be recorded without being paid.
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(e.total_overhead() >= Duration::from_secs(5));
    }

    #[test]
    fn zero_overhead_model_records_nothing() {
        let e = enclave();
        e.enter(|_| ()).unwrap();
        assert!(e.total_overhead() < Duration::from_micros(50));
    }
}
