//! Signing keys and the trusted key directory.
//!
//! Assumption A5 of the paper: *"a process of a correct node can sign the
//! messages it sends and the signed message cannot be generated nor
//! undetectably altered by a process in another node."*  In the original
//! system this is provided by an RSA-based signature scheme; this suite
//! substitutes keyed authenticators (HMAC-SHA-256), distributed out-of-band
//! through a [`KeyDirectory`] established at start-up, mirroring the
//! paper's assumption that pairs are provisioned with each other's
//! (fail-signal) material when both nodes are still correct.
//!
//! With HMAC a verification key is the signer's secret, so the types allow
//! exactly what A5 allows and nothing public-key shaped: a [`SigningKey`]
//! comes only from [`provision`] (or [`SigningKey::generate`]) and never
//! from chosen bytes; the [`KeyDirectory`] is an opaque handle that hands
//! out no key and takes none in; and no `Debug` prints key material.  Code
//! outside this crate can sign with the keys it was given and verify
//! against the directory — nothing else (the directory's docs show it).
//! One caveat belongs to the model, not the types: keys derive from the
//! scenario's seed, so only deployment code may provision them (CI greps
//! the machines and the fault modules for it).

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
/// The only way to get one is [`provision`] (or [`SigningKey::generate`]
/// from the scenario's seeded stream): no constructor takes chosen bytes,
/// and nothing outside this crate can read what the key holds.  It keeps
/// just the precomputed HMAC state ([`HmacKey`]) — the raw secret is gone
/// once expanded — so the RFC 2104 key schedule is expanded exactly once
/// per signer, at provisioning, instead of once per signed message.
#[derive(Clone)]
pub struct SigningKey {
    /// The signer this key belongs to.
    pub signer: SignerId,
    hmac: HmacKey,
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the secret.
        write!(f, "SigningKey({})", self.signer)
    }
}

impl SigningKey {
    /// Generates a fresh key for `signer` from the given deterministic RNG:
    /// exactly [`KEY_LEN`] bytes drawn from the stream.
    pub fn generate(signer: SignerId, rng: &mut DetRng) -> Self {
        let mut secret = [0u8; KEY_LEN];
        rng.fill_bytes(&mut secret);
        Self::from_bytes(signer, secret)
    }

    /// Constructs a key from explicit bytes, expanding the HMAC key
    /// schedule once.  Private: a key from chosen bytes is a key for
    /// whoever chose them, which assumption A5 rules out.
    fn from_bytes(signer: SignerId, secret: [u8; KEY_LEN]) -> Self {
        Self {
            signer,
            hmac: HmacKey::new(&secret),
        }
    }

    /// The precomputed HMAC state for this key.
    pub(crate) fn hmac(&self) -> &HmacKey {
        &self.hmac
    }
}

/// The trusted directory every verifier consults: per signer, the key its
/// signatures verify under.
///
/// An opaque handle that only [`provision`] builds, immutable from then on
/// (keys are distributed at start-up when all nodes are assumed correct,
/// per assumption A1) and shared via `Arc`.  With HMAC a verification key
/// *is* the signer's secret, so the directory gives no key out and takes
/// none in: outside this crate it only goes to
/// [`crate::sig::Signature::verify`].  Holding it and a key of one's own,
/// none of these three lines compiles — minting a key from chosen bytes,
/// looking up another signer's key, registering a key even through the
/// only reference to the directory:
///
/// ```compile_fail
/// # use fs_common::{id::ProcessId, rng::DetRng}; use fs_crypto::{keys::*, sig::Signature};
/// let (keys, mut directory) = provision([ProcessId(0), ProcessId(1)], &mut DetRng::new(1));
/// let own = &keys[&SignerId(ProcessId(0))];
/// let _ = SigningKey::from_bytes(SignerId(ProcessId(1)), [7; 32]);
/// ```
///
/// ```compile_fail
/// # use fs_common::{id::ProcessId, rng::DetRng}; use fs_crypto::{keys::*, sig::Signature};
/// let (keys, mut directory) = provision([ProcessId(0), ProcessId(1)], &mut DetRng::new(1));
/// let own = &keys[&SignerId(ProcessId(0))];
/// let _ = directory.lookup(SignerId(ProcessId(1)));
/// ```
///
/// ```compile_fail
/// # use fs_common::{id::ProcessId, rng::DetRng}; use fs_crypto::{keys::*, sig::Signature};
/// let (keys, mut directory) = provision([ProcessId(0), ProcessId(1)], &mut DetRng::new(1));
/// let own = &keys[&SignerId(ProcessId(0))];
/// let _ = std::sync::Arc::get_mut(&mut directory).map(|d| d.register(own.clone()));
/// ```
///
/// Their twin, differing only in the last line, compiles and runs:
///
/// ```
/// # use fs_common::{id::ProcessId, rng::DetRng}; use fs_crypto::{keys::*, sig::Signature};
/// let (keys, mut directory) = provision([ProcessId(0), ProcessId(1)], &mut DetRng::new(1));
/// let own = &keys[&SignerId(ProcessId(0))];
/// assert!(Signature::sign(own, b"m").verify(&directory, b"m").is_ok());
/// ```
pub struct KeyDirectory {
    keys: BTreeMap<SignerId, HmacKey>,
}

impl core::fmt::Debug for KeyDirectory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The signers only: a key here is its signer's secret.
        f.debug_set().entries(self.keys.keys()).finish()
    }
}

impl KeyDirectory {
    /// Looks up the key a signer's signatures verify under.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::UnknownSigner`] when the signer has no entry.
    pub(crate) fn lookup(&self, signer: SignerId) -> Result<&HmacKey, SignatureError> {
        self.keys.get(&signer).ok_or(SignatureError::UnknownSigner)
    }
}

/// Generates signing keys for a set of processes and the matching directory.
///
/// This mirrors the start-up provisioning step of the paper: every wrapper
/// object gets its own key, and every process learns how to verify
/// everyone's signatures before the system starts.  Keys are drawn from
/// `rng` in the order of `signers`, [`KEY_LEN`] bytes each.
pub fn provision(
    signers: impl IntoIterator<Item = ProcessId>,
    rng: &mut DetRng,
) -> (BTreeMap<SignerId, SigningKey>, Arc<KeyDirectory>) {
    let mut keys = BTreeMap::new();
    let mut directory = BTreeMap::new();
    for p in signers {
        let id = SignerId(p);
        let key = SigningKey::generate(id, rng);
        directory.insert(id, key.hmac.clone());
        keys.insert(id, key);
    }
    (keys, Arc::new(KeyDirectory { keys: directory }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Signature;

    fn test_rng() -> DetRng {
        DetRng::new(0xfeed)
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn generated_keys_are_distinct() {
        let mut r = test_rng();
        let a = SigningKey::generate(SignerId(ProcessId(1)), &mut r);
        let b = SigningKey::generate(SignerId(ProcessId(2)), &mut r);
        assert_ne!(a.hmac().mac(b"m"), b.hmac().mac(b"m"));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut r1 = DetRng::new(7);
        let mut r2 = DetRng::new(7);
        let a = SigningKey::generate(SignerId(ProcessId(1)), &mut r1);
        let b = SigningKey::generate(SignerId(ProcessId(1)), &mut r2);
        assert_eq!(a.hmac().mac(b"m"), b.hmac().mac(b"m"));
    }

    /// A key is the first [`KEY_LEN`] bytes of its stream, whatever was
    /// provisioned: the draw that keeps every provisioned key, tag and pin.
    #[test]
    fn generate_draws_exactly_one_key_length_per_key() {
        let mut r = test_rng();
        let mut bytes = [0u8; 2 * KEY_LEN];
        r.fill_bytes(&mut bytes);
        let (first, second) = bytes.split_at(KEY_LEN);
        let (keys, _) = provision([ProcessId(3), ProcessId(4)], &mut test_rng());
        for (signer, secret) in [(3, first), (4, second)] {
            let key = &keys[&SignerId(ProcessId(signer))];
            assert_eq!(key.hmac().mac(b"m"), HmacKey::new(secret).mac(b"m"));
        }
    }

    #[test]
    fn directory_lookup() {
        let mut r = test_rng();
        let (keys, dir) = provision([ProcessId(9)], &mut r);
        let key = dir.lookup(SignerId(ProcessId(9))).unwrap();
        assert_eq!(
            key.mac(b"m"),
            keys[&SignerId(ProcessId(9))].hmac().mac(b"m")
        );
        assert_eq!(
            dir.lookup(SignerId(ProcessId(8))).unwrap_err(),
            SignatureError::UnknownSigner
        );
    }

    #[test]
    fn provision_covers_all_processes() {
        let mut r = test_rng();
        let procs: Vec<ProcessId> = (0..6).map(ProcessId).collect();
        let (keys, dir) = provision(procs.clone(), &mut r);
        assert_eq!(keys.len(), 6);
        assert_eq!(dir.keys.len(), 6);
        for p in procs {
            assert!(dir.lookup(SignerId(p)).is_ok());
            assert_eq!(keys[&SignerId(p)].signer, SignerId(p));
        }
    }

    /// No `Debug` prints a word of either HMAC midstate — each is as good
    /// as the secret it was expanded from.  The midstates are recomputed
    /// here from the secret: one compression of the padded key block each.
    #[test]
    fn debug_never_prints_secret() {
        let secret = [0x5au8; KEY_LEN];
        let key = SigningKey::from_bytes(SignerId(ProcessId(1)), secret);
        let (_, dir) = provision([ProcessId(1)], &mut test_rng());
        let dbg = format!("{key:?} {:?} {dir:?}", key.hmac());
        for pad in [0x36u8, 0x5c] {
            let mut block = [pad; crate::sha256::BLOCK_LEN];
            for (byte, s) in block.iter_mut().zip(secret) {
                *byte ^= s;
            }
            let mut midstate = crate::sha256::H0;
            crate::sha256::compress_blocks_portable(&mut midstate, &block);
            for word in midstate {
                assert!(!dbg.contains(&word.to_string()), "{dbg}");
                assert!(!dbg.contains(&format!("{word:x}")), "{dbg}");
            }
        }
        assert!(dbg.starts_with("SigningKey(signer:"), "{dbg}");
    }

    /// Tags under fixed secrets, as an independent HMAC-SHA-256
    /// implementation (Python's `hmac`) computes them: a pair's two shares
    /// over the 54-byte statement `tests/statement.rs` pins as hex, and the
    /// pre-armed fail-signal share over its five header bytes.
    #[test]
    fn tags_match_an_independent_hmac() {
        let statement = unhex(
            "04030201000b00000000000000010100000003000000\
             762069bc07a6e1b5df123a5ae7bd91c10daa04694fbaa17fba0cd6a8dcce8f22",
        );
        let fail_signal = [0x04, 0x03, 0x02, 0x01, 0x01];
        let seven = SigningKey::from_bytes(SignerId(ProcessId(1)), [7u8; KEY_LEN]);
        let nine = SigningKey::from_bytes(SignerId(ProcessId(2)), [9u8; KEY_LEN]);
        for (key, message, tag) in [
            (
                &seven,
                &statement[..],
                "26e1298fb36ed928d0a6fc9ea131efb75138ab1161e860887da83469aaa2dd1c",
            ),
            (
                &nine,
                &statement[..],
                "29bbd31273f0ea818aa85c16546d5317c684d651a90946185ca83a035c3016c9",
            ),
            (
                &seven,
                &fail_signal[..],
                "895b4d51d9749351bde0f759b2b426959fa21a4d38a3e4bc2e1aa057bd396f71",
            ),
        ] {
            assert_eq!(Signature::sign(key, message).tag.to_hex(), tag);
        }
    }
}
