//! Signing keys and the trusted key directory.
//!
//! Assumption A5 of the paper: *"a process of a correct node can sign the
//! messages it sends and the signed message cannot be generated nor
//! undetectably altered by a process in another node."*  In the original
//! system this is provided by an RSA-based signature scheme; this suite
//! substitutes keyed authenticators (HMAC-SHA-256) whose verification keys
//! are distributed out-of-band through a [`KeyDirectory`] established at
//! start-up, mirroring the paper's assumption that pairs are provisioned with
//! each other's (fail-signal) material when both nodes are still correct.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::RngCore;
use serde::{Deserialize, Serialize};

use fs_common::id::ProcessId;
use fs_common::rng::DetRng;
use fs_common::SignatureError;

use crate::hmac::HmacKey;

/// Identifies a signer — in this suite, a wrapper object or middleware
/// process that owns a signing key.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SignerId(pub ProcessId);

impl From<ProcessId> for SignerId {
    fn from(p: ProcessId) -> Self {
        SignerId(p)
    }
}

impl core::fmt::Display for SignerId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "signer:{}", self.0)
    }
}

/// The length of a signing secret in bytes.
pub const KEY_LEN: usize = 32;

/// A signing key held privately by one signer.
///
/// The key carries the precomputed HMAC state ([`HmacKey`]) alongside the
/// raw secret, so the RFC 2104 key schedule is expanded exactly once per
/// signer — at provisioning — instead of once per signed message.
#[derive(Clone)]
pub struct SigningKey {
    /// The signer this key belongs to.
    pub signer: SignerId,
    secret: [u8; KEY_LEN],
    hmac: HmacKey,
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the secret.
        write!(f, "SigningKey({})", self.signer)
    }
}

impl PartialEq for SigningKey {
    fn eq(&self, other: &Self) -> bool {
        // The cached HMAC state is derived from the secret, so comparing the
        // inputs is sufficient.
        self.signer == other.signer && self.secret == other.secret
    }
}

impl Eq for SigningKey {}

impl Serialize for SigningKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("signer".to_string(), self.signer.to_value()),
            ("secret".to_string(), self.secret.to_value()),
        ])
    }
}

impl Deserialize for SigningKey {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = serde::value_as_map(v, "SigningKey")?;
        let signer = SignerId::from_value(serde::map_field(m, "signer", "SigningKey")?)?;
        let secret = <[u8; KEY_LEN]>::from_value(serde::map_field(m, "secret", "SigningKey")?)?;
        Ok(Self::from_bytes(signer, secret))
    }
}

impl SigningKey {
    /// Generates a fresh key for `signer` from the given deterministic RNG.
    pub fn generate(signer: SignerId, rng: &mut DetRng) -> Self {
        let mut secret = [0u8; KEY_LEN];
        rng.fill_bytes(&mut secret);
        Self::from_bytes(signer, secret)
    }

    /// Constructs a key from explicit bytes (useful in tests), expanding the
    /// HMAC key schedule once.
    pub fn from_bytes(signer: SignerId, secret: [u8; KEY_LEN]) -> Self {
        let hmac = HmacKey::new(&secret);
        Self {
            signer,
            secret,
            hmac,
        }
    }

    /// Returns the secret bytes; compiled only for this crate's tests (the
    /// signing code resumes from the cached HMAC state instead).
    #[cfg(test)]
    pub(crate) fn secret(&self) -> &[u8; KEY_LEN] {
        &self.secret
    }

    /// The precomputed HMAC state for this key.
    pub(crate) fn hmac(&self) -> &HmacKey {
        &self.hmac
    }
}

/// The verification key corresponding to a [`SigningKey`].
///
/// With the keyed-authenticator substitution the verification key carries the
/// same bytes as the signing key, but the type distinction preserves the
/// public-key *interface*: code that only holds a `VerifyingKey` cannot call
/// the signing routines.  Like [`SigningKey`], it caches the expanded HMAC
/// state so that verification resumes from precomputed blocks.
#[derive(Clone)]
pub struct VerifyingKey {
    /// The signer this key verifies.
    pub signer: SignerId,
    secret: [u8; KEY_LEN],
    hmac: HmacKey,
}

impl core::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "VerifyingKey({})", self.signer)
    }
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &Self) -> bool {
        self.signer == other.signer && self.secret == other.secret
    }
}

impl Eq for VerifyingKey {}

impl Serialize for VerifyingKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("signer".to_string(), self.signer.to_value()),
            ("secret".to_string(), self.secret.to_value()),
        ])
    }
}

impl Deserialize for VerifyingKey {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = serde::value_as_map(v, "VerifyingKey")?;
        let signer = SignerId::from_value(serde::map_field(m, "signer", "VerifyingKey")?)?;
        let secret = <[u8; KEY_LEN]>::from_value(serde::map_field(m, "secret", "VerifyingKey")?)?;
        let hmac = HmacKey::new(&secret);
        Ok(Self {
            signer,
            secret,
            hmac,
        })
    }
}

impl VerifyingKey {
    /// The precomputed HMAC state for this key.
    pub(crate) fn hmac(&self) -> &HmacKey {
        &self.hmac
    }
}

impl SigningKey {
    /// Derives the verification key for this signing key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            signer: self.signer,
            secret: self.secret,
            hmac: self.hmac.clone(),
        }
    }
}

/// A trusted directory mapping signers to verification keys.
///
/// The directory is immutable once built (keys are distributed at start-up
/// when all nodes are assumed correct, per assumption A1) and cheaply
/// shareable between simulated processes via `Arc`.
#[derive(Debug, Clone, Default)]
pub struct KeyDirectory {
    keys: BTreeMap<SignerId, VerifyingKey>,
}

impl KeyDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the verification key for a signer.  Re-registering a signer
    /// replaces the previous key (used by fault-injection tests to model a
    /// compromised directory — never by the protocols themselves).
    pub fn register(&mut self, key: VerifyingKey) {
        self.keys.insert(key.signer, key);
    }

    /// Looks up a signer's verification key.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::UnknownSigner`] when the signer has no entry.
    pub fn lookup(&self, signer: SignerId) -> Result<&VerifyingKey, SignatureError> {
        self.keys.get(&signer).ok_or(SignatureError::UnknownSigner)
    }

    /// Returns `true` when the signer has a registered key.
    pub fn contains(&self, signer: SignerId) -> bool {
        self.keys.contains_key(&signer)
    }

    /// Number of registered signers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when no signer is registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over the registered signers.
    pub fn signers(&self) -> impl Iterator<Item = SignerId> + '_ {
        self.keys.keys().copied()
    }

    /// Wraps the directory in an `Arc` for cheap sharing.
    pub fn into_shared(self) -> Arc<KeyDirectory> {
        Arc::new(self)
    }
}

/// Generates signing keys for a set of processes and the matching directory.
///
/// This mirrors the start-up provisioning step of the paper: every wrapper
/// object gets its own key, and every process learns everyone's verification
/// key before the system starts.
pub fn provision(
    signers: impl IntoIterator<Item = ProcessId>,
    rng: &mut DetRng,
) -> (BTreeMap<SignerId, SigningKey>, Arc<KeyDirectory>) {
    let mut keys = BTreeMap::new();
    let mut dir = KeyDirectory::new();
    for p in signers {
        let id = SignerId(p);
        let key = SigningKey::generate(id, rng);
        dir.register(key.verifying_key());
        keys.insert(id, key);
    }
    (keys, dir.into_shared())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(0xfeed)
    }

    #[test]
    fn generated_keys_are_distinct() {
        let mut r = rng();
        let a = SigningKey::generate(SignerId(ProcessId(1)), &mut r);
        let b = SigningKey::generate(SignerId(ProcessId(2)), &mut r);
        assert_ne!(a.secret(), b.secret());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut r1 = DetRng::new(7);
        let mut r2 = DetRng::new(7);
        let a = SigningKey::generate(SignerId(ProcessId(1)), &mut r1);
        let b = SigningKey::generate(SignerId(ProcessId(1)), &mut r2);
        assert_eq!(a.secret(), b.secret());
    }

    #[test]
    fn directory_lookup() {
        let mut r = rng();
        let key = SigningKey::generate(SignerId(ProcessId(9)), &mut r);
        let mut dir = KeyDirectory::new();
        assert!(dir.is_empty());
        dir.register(key.verifying_key());
        assert_eq!(dir.len(), 1);
        assert!(dir.contains(SignerId(ProcessId(9))));
        assert!(dir.lookup(SignerId(ProcessId(9))).is_ok());
        assert_eq!(
            dir.lookup(SignerId(ProcessId(8))).unwrap_err(),
            SignatureError::UnknownSigner
        );
    }

    #[test]
    fn provision_covers_all_processes() {
        let mut r = rng();
        let procs: Vec<ProcessId> = (0..6).map(ProcessId).collect();
        let (keys, dir) = provision(procs.clone(), &mut r);
        assert_eq!(keys.len(), 6);
        assert_eq!(dir.len(), 6);
        for p in procs {
            assert!(dir.contains(SignerId(p)));
            assert!(keys.contains_key(&SignerId(p)));
        }
    }

    #[test]
    fn debug_never_prints_secret() {
        let mut r = rng();
        let key = SigningKey::generate(SignerId(ProcessId(1)), &mut r);
        let dbg = format!("{key:?}{:?}", key.verifying_key());
        for b in key.secret() {
            // The hexadecimal form of secret bytes must not appear; this is a
            // heuristic but catches accidental derive(Debug).
            assert!(!dbg.contains(&format!("{b:02x}{b:02x}{b:02x}")));
        }
        assert!(dbg.contains("SigningKey"));
    }

    #[test]
    fn verifying_key_matches_signing_key_signer() {
        let mut r = rng();
        let key = SigningKey::generate(SignerId(ProcessId(5)), &mut r);
        assert_eq!(key.verifying_key().signer, SignerId(ProcessId(5)));
    }
}
