//! Code measurements — enclave identity.
//!
//! A real TEE derives a launch measurement by hashing the enclave's initial
//! memory contents; attestation then proves "this exact code is running".
//! Here the measurement is a 128-bit FNV-1a digest of the code bytes — a
//! *simulation stand-in*, not a cryptographic hash (see the crate-level
//! disclaimer).

use serde::{Deserialize, Serialize};

/// A 128-bit enclave code measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Measurement(pub u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// FNV-1a over a byte slice (simulation-grade digest).
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl Measurement {
    /// Measures a code artifact (any byte representation of the enclave's
    /// logic — here, typically a descriptive identifier string).
    pub fn of_code(code: &[u8]) -> Self {
        Measurement(fnv1a_128(code))
    }

    /// Renders the measurement as lowercase hex, as attestation reports do.
    fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mrenclave:{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_deterministic() {
        assert_eq!(Measurement::of_code(b"clustering-v1"), Measurement::of_code(b"clustering-v1"));
    }

    #[test]
    fn different_code_different_measurement() {
        assert_ne!(Measurement::of_code(b"clustering-v1"), Measurement::of_code(b"clustering-v2"));
    }

    #[test]
    fn single_byte_flip_avalanches() {
        let a = Measurement::of_code(b"aaaaaaaa").0;
        let b = Measurement::of_code(b"baaaaaaa").0;
        let differing = (a ^ b).count_ones();
        assert!(differing > 20, "only {differing} bits differ");
    }

    #[test]
    fn hex_rendering_is_32_chars() {
        let m = Measurement::of_code(b"x");
        assert_eq!(m.to_hex().len(), 32);
        assert!(m.to_string().starts_with("mrenclave:"));
    }

    #[test]
    fn empty_code_hashes_to_offset() {
        assert_eq!(fnv1a_128(&[]), FNV_OFFSET);
    }
}
