//! Message signatures: single and double (two-share) forms.
//!
//! The fail-signal protocol (paper §2.1) requires that:
//!
//! * every output of a replica is **single-signed** by the local Compare
//!   process before being forwarded to the remote Compare for matching;
//! * an output of the FS process as a whole is valid only when it bears the
//!   authentic signatures of *both* Compare processes — a **double-signed**
//!   message;
//! * the fail-signal itself is a pre-agreed message, single-signed by each
//!   Compare at start-up and completed with the other Compare's signature
//!   when it is emitted.
//!
//! ## The share rule
//!
//! A double-signed message carries two **signature shares**: plain,
//! independent signatures by the two distinct signers of the pair over the
//! *same* bytes.  That proves exactly what a signature nested over the
//! partner's signature would — both Compare processes vouched for this
//! message — provided the signed bytes identify the message, and they do:
//! the `failsignal` crate hands this layer a short *statement* binding the
//! FS process, output sequence number, destination, body length and body
//! SHA-256, so a share of one output verifies over no other.  Nothing is
//! signed twice: a Compare process signs its own output once and attaches
//! the share its partner sent (counted by [`signatures_made`]).
//!
//! This module provides those building blocks generically over any byte
//! string; the envelope types live in the `failsignal` crate.

use std::cell::{Cell, RefCell};

use serde::{Deserialize, Serialize};

use fs_common::fasthash::FastMap;
use fs_common::SignatureError;

use crate::hmac::HmacKey;
use crate::keys::{KeyDirectory, SignerId, SigningKey};
use crate::sha256::Digest;

/// Upper bound on the host-side verification memo entry count; reaching it
/// clears the memo (the working set of in-flight messages is far smaller).
/// 14 Ki is what a 16 Ki-bucket table holds at its 7/8 load factor: the
/// table reaches that size once and never grows again.
const VERIFY_MEMO_MAX: usize = 14 * 1024;

/// The longest message the memo remembers.  The fail-signal layer signs
/// statements of at most 54 bytes; anything longer is simply verified afresh
/// every time, so an entry is a fixed-size value — no allocation to make,
/// none to free when the memo clears.
const MEMO_MESSAGE_MAX: usize = 64;

type MemoKey = (SignerId, u64, Digest);

/// One memoised message, stored inline.
#[derive(Clone, Copy)]
struct Memoised {
    len: usize,
    bytes: [u8; MEMO_MESSAGE_MAX],
}

/// The verification memo: per `(signer, key fingerprint, tag)` the bytes the
/// tag was computed over.
#[derive(Default)]
struct VerifyMemoStore {
    map: FastMap<MemoKey, Memoised>,
}

impl VerifyMemoStore {
    /// True when `key` is memoised for exactly the bytes `message`.
    fn matches(&self, key: &MemoKey, message: &[u8]) -> bool {
        self.map
            .get(key)
            .is_some_and(|stored| &stored.bytes[..stored.len] == message)
    }

    fn insert(&mut self, key: MemoKey, message: &[u8]) {
        if message.len() > MEMO_MESSAGE_MAX {
            return;
        }
        if self.map.len() >= VERIFY_MEMO_MAX {
            self.map.clear();
        }
        let len = message.len();
        let mut bytes = [0u8; MEMO_MESSAGE_MAX];
        bytes[..len].copy_from_slice(message);
        self.map.insert(key, Memoised { len, bytes });
    }
}

fn memo_matches(key: &MemoKey, message: &[u8]) -> bool {
    VERIFY_MEMO.with(|memo| memo.borrow().matches(key, message))
}

fn memo_insert(key: MemoKey, message: &[u8]) {
    VERIFY_MEMO.with(|memo| memo.borrow_mut().insert(key, message));
}

thread_local! {
    /// Host-side memo of *successful* verifications.
    ///
    /// A simulation host runs every simulated node in one process, so the
    /// same double-signed frame is verified once per destination — identical
    /// `(key, message, tag)` triples, recomputed.  HMAC is deterministic, so
    /// a verification that succeeded once succeeds forever; memoising the
    /// verdict is the verify-side analogue of encoding a multicast frame
    /// once and refcount-sharing it per recipient.  Only the host-side work
    /// is skipped: call sites still charge the simulated verification cost,
    /// so simulated clocks, traces and statistics are byte-identical with
    /// the memo on or off (and `Signature::verify_uncached` bypasses it,
    /// which is what the benchmarks measure).
    ///
    /// Keyed by `(signer, key fingerprint, tag)` with a copy of the message
    /// held inline in the entry: a hit requires the exact message bytes to
    /// match, and the fingerprint ties the verdict to the concrete key
    /// material so caches can never leak across key directories.  Messages
    /// longer than 64 bytes are not remembered (nothing in the suite signs
    /// one on a hot path: the fail-signal layer signs statements, not
    /// contents, and both shares of a double-signed output cover the same
    /// statement).  Failures are never cached.  The entry count is bounded,
    /// and with it the memory.  (In the threaded runtime each thread has
    /// its own memo, so signer-side seeding cannot help remote verifiers
    /// there — it is bounded pure overhead, a few percent of the HMAC it
    /// accompanies.)
    static VERIFY_MEMO: RefCell<VerifyMemoStore> = RefCell::new(VerifyMemoStore::default());
}

thread_local! {
    /// Signatures this thread has produced (see [`signatures_made`]).
    static SIGNATURES_MADE: Cell<u64> = const { Cell::new(0) };
}

/// How many signatures the calling thread has *produced* so far — counted
/// where a tag is made ([`Signature::sign`]), never where one is checked.
/// The simulator runs every simulated node on the calling thread, so
/// differences of this counter are how tests count signing operations per
/// validated output where they cannot hide (`tests/signature_ops.rs`).
pub fn signatures_made() -> u64 {
    SIGNATURES_MADE.with(Cell::get)
}

/// A signature by a single signer over a byte string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    /// Who produced this signature.
    pub signer: SignerId,
    /// The authenticator tag.
    pub tag: Digest,
}

impl Signature {
    /// Signs `message` with `key`, resuming from the key's precomputed HMAC
    /// state (the RFC 2104 key schedule is never re-expanded per message).
    ///
    /// Signing also seeds the host-side verification memo (for messages of
    /// at most 64 bytes): the produced tag *is* `HMAC(key, message)`, which
    /// is exactly the invariant a memo entry records, and on a simulation
    /// host the verifier of this very signature runs in the same process a
    /// few simulated microseconds later.  Its check then becomes a hash-map
    /// probe instead of a second HMAC computation over the same bytes.
    pub fn sign(key: &SigningKey, message: &[u8]) -> Signature {
        let tag = key.hmac().mac(message);
        SIGNATURES_MADE.with(|n| n.set(n.get() + 1));
        memo_insert((key.signer, key.hmac().fingerprint(), tag), message);
        Signature {
            signer: key.signer,
            tag,
        }
    }

    /// Verifies this signature over `message` against the key directory.
    ///
    /// Successful verifications of messages of at most 64 bytes are memoised
    /// host-side (in the module-private `VERIFY_MEMO` table): re-verifying
    /// the same `(key, message, tag)` triple — the normal case
    /// when one multicast frame is checked at several co-hosted simulated
    /// destinations — is a hash-map probe instead of an HMAC computation.
    /// The verdict is identical either way; callers remain responsible for
    /// charging the simulated verification cost.
    ///
    /// # Errors
    ///
    /// * [`SignatureError::UnknownSigner`] — the claimed signer is not in the
    ///   directory.
    /// * [`SignatureError::Invalid`] — the tag does not verify.
    pub fn verify(&self, directory: &KeyDirectory, message: &[u8]) -> Result<(), SignatureError> {
        let key = directory.lookup(self.signer)?;
        let memo_key = (self.signer, key.fingerprint(), self.tag);
        if memo_matches(&memo_key, message) {
            return Ok(());
        }
        self.check_tag(key, message)?;
        memo_insert(memo_key, message);
        Ok(())
    }

    /// Recomputes `HMAC(key, message)` and compares it with this signature's
    /// tag in constant time.
    fn check_tag(&self, key: &HmacKey, message: &[u8]) -> Result<(), SignatureError> {
        if key.verify(message, self.tag.as_bytes()) {
            Ok(())
        } else {
            Err(SignatureError::Invalid)
        }
    }

    /// Like [`Signature::verify`] but always recomputes the HMAC, bypassing
    /// the host-side memo.  `benchmark/`'s `crypto.verify_ns` uses this to
    /// measure the true cost of a verification.
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify_uncached(
        &self,
        directory: &KeyDirectory,
        message: &[u8],
    ) -> Result<(), SignatureError> {
        self.check_tag(directory.lookup(self.signer)?, message)
    }

    /// [`Signature::verify_uncached`] of every signature in `sigs` over the
    /// same `message`, in index order: `Ok(())` only when every one
    /// verifies, and otherwise the first error — so a lower-indexed
    /// [`SignatureError::Invalid`] outranks a later
    /// [`SignatureError::UnknownSigner`].  `benchmark/` times it per MAC.
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify_batch_uncached(
        sigs: &[&Signature],
        directory: &KeyDirectory,
        message: &[u8],
    ) -> Result<(), SignatureError> {
        sigs.iter()
            .try_for_each(|sig| sig.verify_uncached(directory, message))
    }
}

/// The structural half of the share rule (see the module docs): `first` and
/// `second` must be by the two distinct signers of `expected_pair`, in
/// either order.  What remains is that each verifies over the same message.
///
/// # Errors
///
/// * [`SignatureError::DuplicateSigner`] — both shares from the same signer.
/// * [`SignatureError::MissingCoSignature`] — a signer outside
///   `expected_pair`.
pub fn check_share_signers(
    first: &Signature,
    second: &Signature,
    expected_pair: (SignerId, SignerId),
) -> Result<(), SignatureError> {
    if first.signer == second.signer {
        return Err(SignatureError::DuplicateSigner);
    }
    let signers = (first.signer, second.signer);
    if signers != expected_pair && signers != (expected_pair.1, expected_pair.0) {
        return Err(SignatureError::MissingCoSignature);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_common::id::ProcessId;
    use fs_common::rng::DetRng;

    fn setup() -> (
        SigningKey,
        SigningKey,
        SigningKey,
        std::sync::Arc<KeyDirectory>,
    ) {
        let mut rng = DetRng::new(0xc0ffee);
        let procs = vec![ProcessId(1), ProcessId(2), ProcessId(3)];
        let (mut keys, dir) = crate::keys::provision(procs, &mut rng);
        let a = keys.remove(&SignerId(ProcessId(1))).unwrap();
        let b = keys.remove(&SignerId(ProcessId(2))).unwrap();
        let c = keys.remove(&SignerId(ProcessId(3))).unwrap();
        (a, b, c, dir)
    }

    #[test]
    fn single_signature_round_trip() {
        let (a, _, _, dir) = setup();
        let msg = b"ordered message 42";
        let sig = Signature::sign(&a, msg);
        assert!(sig.verify(&dir, msg).is_ok());
        assert_eq!(
            sig.verify(&dir, b"other").unwrap_err(),
            SignatureError::Invalid
        );
    }

    #[test]
    fn unknown_signer_is_rejected() {
        let (a, _, _, _) = setup();
        let (_, empty) = crate::keys::provision([], &mut DetRng::new(1));
        let sig = Signature::sign(&a, b"m");
        assert_eq!(
            sig.verify(&empty, b"m").unwrap_err(),
            SignatureError::UnknownSigner
        );
    }

    /// Two shares over `bytes`, by `first` and `second`.
    fn shares(bytes: &[u8], first: &SigningKey, second: &SigningKey) -> (Signature, Signature) {
        (
            Signature::sign(first, bytes),
            Signature::sign(second, bytes),
        )
    }

    /// What a destination checks of a double-signed message: the share rule,
    /// then each share over the same bytes.
    fn verify_shares(
        (first, second): &(Signature, Signature),
        dir: &KeyDirectory,
        bytes: &[u8],
        pair: (SignerId, SignerId),
    ) -> Result<(), SignatureError> {
        check_share_signers(first, second, pair)?;
        first.verify(dir, bytes)?;
        second.verify(dir, bytes)
    }

    #[test]
    fn double_signed_happy_path() {
        let (a, b, _, dir) = setup();
        let bytes = b"total-order decision".to_vec();
        let double = shares(&bytes, &a, &b);
        assert!(verify_shares(&double, &dir, &bytes, (a.signer, b.signer)).is_ok());
        // Order of the expected pair must not matter.
        assert!(verify_shares(&double, &dir, &bytes, (b.signer, a.signer)).is_ok());
    }

    #[test]
    fn double_signed_rejects_duplicate_signer() {
        let (a, _, _, dir) = setup();
        let double = shares(b"x", &a, &a);
        assert_eq!(
            verify_shares(&double, &dir, b"x", (a.signer, a.signer)).unwrap_err(),
            SignatureError::DuplicateSigner
        );
    }

    #[test]
    fn double_signed_rejects_outsider() {
        let (a, b, c, dir) = setup();
        // c adds the second share instead of b: destinations expecting pair
        // (a, b) must reject.
        let double = shares(b"x", &a, &c);
        assert_eq!(
            verify_shares(&double, &dir, b"x", (a.signer, b.signer)).unwrap_err(),
            SignatureError::MissingCoSignature
        );
    }

    #[test]
    fn double_signed_rejects_tampered_content() {
        let (a, b, _, dir) = setup();
        let double = shares(b"original", &a, &b);
        assert!(verify_shares(&double, &dir, b"forged", (a.signer, b.signer)).is_err());
    }

    #[test]
    fn double_signed_rejects_mixed_and_matched_signatures() {
        let (a, b, _, dir) = setup();
        let d1 = shares(b"message one", &a, &b);
        let d2 = shares(b"message two", &a, &b);
        // Splice b's share of message two onto message one.
        let spliced = (d1.0, d2.1);
        assert!(verify_shares(&spliced, &dir, b"message one", (a.signer, b.signer)).is_err());
    }

    #[test]
    fn forged_signature_without_key_fails() {
        let (a, b, _, dir) = setup();
        let bytes = b"victim".to_vec();
        // An adversary without a's key guesses a tag.
        let forged = Signature {
            signer: a.signer,
            tag: crate::sha256::Sha256::digest(b"guess"),
        };
        assert_eq!(
            forged.verify(&dir, &bytes).unwrap_err(),
            SignatureError::Invalid
        );
        // And cannot make a convincing double-signed message either.
        let fake = (forged, Signature::sign(&b, &bytes));
        assert!(verify_shares(&fake, &dir, &bytes, (a.signer, b.signer)).is_err());
    }

    #[test]
    fn verify_batch_matches_sequential_verdicts() {
        let (a, b, c, dir) = setup();
        let msg = b"authenticator vector message".to_vec();
        let sigs: Vec<Signature> = [&a, &b, &c]
            .iter()
            .map(|k| Signature::sign(k, &msg))
            .collect();
        let refs: Vec<&Signature> = sigs.iter().collect();
        assert!(Signature::verify_batch_uncached(&refs, &dir, &msg).is_ok());

        // A tampered tag anywhere fails the whole batch with Invalid.
        let mut bad = sigs.clone();
        bad[1].tag = crate::sha256::Sha256::digest(b"forged");
        let bad_refs: Vec<&Signature> = bad.iter().collect();
        assert_eq!(
            Signature::verify_batch_uncached(&bad_refs, &dir, &msg).unwrap_err(),
            SignatureError::Invalid
        );

        // Lower-indexed Invalid outranks a later unknown signer, exactly as
        // the sequential loop would report.
        let mut mixed = bad.clone();
        mixed[2].signer = SignerId(ProcessId(99));
        let mixed_refs: Vec<&Signature> = mixed.iter().collect();
        assert_eq!(
            Signature::verify_batch_uncached(&mixed_refs, &dir, &msg).unwrap_err(),
            SignatureError::Invalid
        );

        // With every earlier signature valid, the unknown signer surfaces.
        let mut unknown = sigs.clone();
        unknown[2].signer = SignerId(ProcessId(99));
        let unknown_refs: Vec<&Signature> = unknown.iter().collect();
        assert_eq!(
            Signature::verify_batch_uncached(&unknown_refs, &dir, &msg).unwrap_err(),
            SignatureError::UnknownSigner
        );
    }

    #[test]
    fn verify_batch_spans_many_keys() {
        // Thirteen signers over a 1 500-byte message, then one tampered tag
        // at the end.
        let mut rng = DetRng::new(7);
        let procs: Vec<ProcessId> = (0..13).map(ProcessId).collect();
        let (keys, dir) = crate::keys::provision(procs.clone(), &mut rng);
        let msg: Vec<u8> = (0..1500u32).map(|x| (x % 251) as u8).collect();
        let sigs: Vec<Signature> = procs
            .iter()
            .map(|p| Signature::sign(&keys[&SignerId(*p)], &msg))
            .collect();
        let mut refs: Vec<&Signature> = sigs.iter().collect();
        assert!(Signature::verify_batch_uncached(&refs, &dir, &msg).is_ok());
        let forged = Signature {
            tag: crate::sha256::Sha256::digest(b"forged"),
            ..sigs[12].clone()
        };
        refs[12] = &forged;
        assert_eq!(
            Signature::verify_batch_uncached(&refs, &dir, &msg),
            Err(SignatureError::Invalid)
        );
    }

    /// A memo hit requires the exact bytes: flipping any one byte of a
    /// memoised message misses the memo and fails the real check.
    #[test]
    fn memo_hit_never_accepts_a_message_differing_in_one_byte() {
        let (a, b, _, dir) = setup();
        // The longest statement, 54 bytes, shared by both signers.
        let content: Vec<u8> = (0..54u8).collect();
        let double = shares(&content, &a, &b);
        let pair = (a.signer, b.signer);
        // The untouched message hits: both tags were memoised by signing.
        for (sig, key) in [(&double.0, &a), (&double.1, &b)] {
            assert!(memo_matches(
                &(sig.signer, key.hmac().fingerprint(), sig.tag),
                &content
            ));
        }
        assert!(verify_shares(&double, &dir, &content, pair).is_ok());
        for flip in 0..content.len() {
            let mut forged = content.clone();
            forged[flip] ^= 0x40;
            assert_eq!(
                double.0.verify(&dir, &forged),
                Err(SignatureError::Invalid),
                "byte {flip}"
            );
            assert_eq!(
                verify_shares(&double, &dir, &forged, pair),
                Err(SignatureError::Invalid)
            );
        }
        // A truncated message is a different message.
        assert_eq!(
            double.0.verify(&dir, &content[..53]),
            Err(SignatureError::Invalid)
        );
        // Forgetting the memo changes no verdict.
        VERIFY_MEMO.with(|memo| *memo.borrow_mut() = VerifyMemoStore::default());
        assert!(verify_shares(&double, &dir, &content, pair).is_ok());
        assert!(double.0.verify_uncached(&dir, &content).is_ok());
        // A longer message verifies all the same, and is not remembered.
        let long = vec![7u8; MEMO_MESSAGE_MAX + 1];
        let sig = Signature::sign(&a, &long);
        assert!(sig.verify(&dir, &long).is_ok());
        assert!(!memo_matches(
            &(sig.signer, a.hmac().fingerprint(), sig.tag),
            &long
        ));
    }

    /// Counted where a tag is produced, never where one is checked.
    #[test]
    fn signatures_made_counts_signing_only() {
        let (a, b, _, dir) = setup();
        let before = signatures_made();
        let double = shares(b"m", &a, &b);
        assert_eq!(signatures_made() - before, 2);
        assert!(verify_shares(&double, &dir, b"m", (a.signer, b.signer)).is_ok());
        assert!(double.0.verify_uncached(&dir, b"m").is_ok());
        assert_eq!(signatures_made() - before, 2);
    }
}
