//! Cryptographic cost model.
//!
//! The paper attributes a large share of FS-NewTOP's latency overhead to
//! "the signing of output messages (performed using the Java security package
//! with MD5 using RSA encryption signature algorithm)" and to authenticating
//! input messages (§4).  Our actual authenticators (HMAC-SHA-256 on a modern
//! CPU) are orders of magnitude cheaper than a 2003-era Java RSA signature,
//! so the simulator charges the *modelled* cost of the original scheme to the
//! simulated clock.  The model is configurable so that the benchmark harness
//! can run ablations (e.g. "what if signatures were free?").
//!
//! The substitution itself is sound because the paper's assumption A5 only
//! asks that a correct node's signed messages can be neither forged nor
//! undetectably altered by another node; HMAC under a per-signer secret
//! gives that wherever verifiers take their keys from a trusted directory
//! provisioned at start-up, as every deployment here does.
//!
//! The model was always hash-then-sign — one hash pass over the message
//! (`hash_per_byte`) plus a fixed operation on the digest
//! (`sign_fixed`, `verify_fixed`) — which is the scheme the paper names, and
//! the shape the host-side authenticator has too: the fail-signal layer
//! signs `header ‖ SHA-256(body)`, hashing a body once.
//!
//! ## What is charged where
//!
//! Per output of a wrapped machine, a wrapper is charged for what it does:
//!
//! * **sign** ([`CryptoCostModel::sign_cost`] of `header ‖ body`): the fixed
//!   signing operation plus the one pass over the body that digests it —
//!   once per wrapper per output (and once more to emit the fail-signal);
//! * **candidate check** ([`CryptoCostModel::verify_cost`] of the
//!   statement, at most 54 bytes): the partner's signature share arrives
//!   with the statement's fields, not the body, so checking it hashes
//!   nothing but those;
//! * **completion**: nothing — the two shares side by side are the
//!   double-signed output, no signing operation happens;
//! * **destination** ([`CryptoCostModel::verify_double_cost`]): two
//!   signature checks, once per output — the second copy (both wrappers of
//!   the source transmit) is recognised by its sequence number and dropped
//!   unverified.

use serde::{Deserialize, Serialize};

use fs_common::time::SimDuration;

/// Models the CPU time charged for cryptographic operations on a simulated
/// node.
///
/// Costs are affine in the message size: a fixed per-operation cost plus a
/// per-byte hashing cost (`base + per_byte * len`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CryptoCostModel {
    /// Fixed cost of producing a signature (the RSA private-key operation in
    /// the original system).
    pub sign_fixed: SimDuration,
    /// Fixed cost of verifying a signature (RSA public-key operation —
    /// cheaper than signing for small public exponents).
    pub verify_fixed: SimDuration,
    /// Additional cost per byte hashed (applies to both signing and
    /// verification, covering the MD5/SHA pass over the message).
    pub hash_per_byte: SimDuration,
}

impl CryptoCostModel {
    /// A model calibrated to the paper's era: an MD5-with-RSA signature in
    /// Java 1.4 on the testbed's Pentium III nodes costs a couple of
    /// milliseconds, verification with a small public exponent a fraction of
    /// that, and hashing tens of nanoseconds per byte.  (The paper's own
    /// latency/throughput figures bound the per-message signing cost to a few
    /// milliseconds: FS-NewTOP still orders 50-100 messages per second.)
    pub fn era_2003() -> Self {
        Self {
            sign_fixed: SimDuration::from_micros(1_500),
            verify_fixed: SimDuration::from_micros(200),
            hash_per_byte: SimDuration::from_nanos(40),
        }
    }

    /// A model in which cryptography is free — the ablation baseline.
    pub fn free() -> Self {
        Self {
            sign_fixed: SimDuration::ZERO,
            verify_fixed: SimDuration::ZERO,
            hash_per_byte: SimDuration::ZERO,
        }
    }

    /// A model calibrated to modern symmetric authenticators (HMAC-SHA-256
    /// on a current CPU): about a microsecond fixed plus ~0.3 ns/byte.
    pub fn modern_hmac() -> Self {
        Self {
            sign_fixed: SimDuration::from_micros(1),
            verify_fixed: SimDuration::from_micros(1),
            hash_per_byte: SimDuration::from_nanos(1),
        }
    }

    /// The payload-dependent hashing cost over `len` bytes.
    fn hash_cost(&self, len: usize) -> SimDuration {
        self.hash_per_byte * len as u64
    }

    /// CPU time to sign a message of `len` bytes.
    pub fn sign_cost(&self, len: usize) -> SimDuration {
        self.sign_fixed + self.hash_cost(len)
    }

    /// CPU time to verify one signature over a message of `len` bytes.
    pub fn verify_cost(&self, len: usize) -> SimDuration {
        self.verify_fixed + self.hash_cost(len)
    }

    /// CPU time to verify a double-signed message of `len` bytes (two
    /// signature verifications, one hash pass shared).
    pub fn verify_double_cost(&self, len: usize) -> SimDuration {
        self.verify_fixed * 2 + self.hash_cost(len)
    }
}

impl Default for CryptoCostModel {
    /// Defaults to the 2003-era model, matching the paper's experimental
    /// conditions.
    fn default() -> Self {
        Self::era_2003()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn era_2003_sign_dominates_verify() {
        let m = CryptoCostModel::era_2003();
        assert!(m.sign_cost(100) > m.verify_cost(100));
    }

    #[test]
    fn costs_grow_with_size() {
        let m = CryptoCostModel::era_2003();
        assert!(m.sign_cost(10_000) > m.sign_cost(3));
        assert!(m.verify_cost(10_000) > m.verify_cost(3));
        assert!(m.verify_double_cost(10_000) > m.verify_double_cost(3));
    }

    #[test]
    fn free_model_is_zero() {
        let m = CryptoCostModel::free();
        assert_eq!(m.sign_cost(1_000_000), SimDuration::ZERO);
        assert_eq!(m.verify_cost(1_000_000), SimDuration::ZERO);
        assert_eq!(m.verify_double_cost(123), SimDuration::ZERO);
    }

    #[test]
    fn double_verify_costs_more_than_single() {
        let m = CryptoCostModel::era_2003();
        assert!(m.verify_double_cost(64) > m.verify_cost(64));
    }

    #[test]
    fn default_is_era_2003() {
        assert_eq!(CryptoCostModel::default(), CryptoCostModel::era_2003());
    }

    #[test]
    fn modern_model_is_cheaper_than_era_2003() {
        let m = CryptoCostModel::modern_hmac();
        let old = CryptoCostModel::era_2003();
        assert!(m.sign_cost(1024) < old.sign_cost(1024));
    }

    /// The stock models charge exactly their affine costs, so every
    /// historical simulated timing is byte-identical (the determinism suite
    /// depends on this).
    #[test]
    fn stock_models_charge_exactly_the_legacy_affine_costs() {
        for m in [
            CryptoCostModel::era_2003(),
            CryptoCostModel::free(),
            CryptoCostModel::modern_hmac(),
        ] {
            for len in [0usize, 3, 64, 65, 1024, 10_240] {
                assert_eq!(
                    m.sign_cost(len),
                    m.sign_fixed + m.hash_per_byte * len as u64
                );
                assert_eq!(
                    m.verify_cost(len),
                    m.verify_fixed + m.hash_per_byte * len as u64
                );
                assert_eq!(
                    m.verify_double_cost(len),
                    m.verify_fixed * 2 + m.hash_per_byte * len as u64
                );
            }
        }
    }
}
