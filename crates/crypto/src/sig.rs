//! Message signatures: single and double (co-signed) forms.
//!
//! The fail-signal protocol (paper §2.1) requires that:
//!
//! * every output of a replica is **single-signed** by the local Compare
//!   process before being forwarded to the remote Compare for matching;
//! * an output of the FS process as a whole is valid only when it bears the
//!   authentic signatures of *both* Compare processes — a **double-signed**
//!   message;
//! * the fail-signal itself is a pre-agreed message, single-signed by each
//!   Compare at start-up and counter-signed by the other Compare when it is
//!   emitted.
//!
//! This module provides those building blocks generically over any byte
//! payload; the envelope types live in the `failsignal` crate.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use fs_common::fasthash::FastMap;
use fs_common::{Bytes, SignatureError};

use crate::hmac::{HmacKey, HmacSha256, MacSchedule};
use crate::keys::{KeyDirectory, SignerId, SigningKey};
use crate::sha256::{ct_eq, Digest};

/// Upper bound on the host-side verification memo entry count; reaching it
/// clears the memo (the working set of in-flight messages is far smaller).
const VERIFY_MEMO_MAX: usize = 16 * 1024;

/// Upper bound on the total message bytes retained by the memo, so large
/// payloads cannot pin unbounded memory between clears.
const VERIFY_MEMO_MAX_BYTES: usize = 32 * 1024 * 1024;

/// The verification memo: entry map plus the running total of stored
/// message bytes (both bounds trigger a wholesale clear).
#[derive(Default)]
struct VerifyMemoStore {
    map: FastMap<(SignerId, u64, Digest), Vec<u8>>,
    bytes: usize,
}

impl VerifyMemoStore {
    fn matches(&self, key: &(SignerId, u64, Digest), message: &[u8]) -> bool {
        self.map
            .get(key)
            .is_some_and(|cached| cached.as_slice() == message)
    }

    /// [`VerifyMemoStore::matches`] against the logical concatenation of
    /// `parts`, compared piecewise so probing for a suffixed message (the
    /// co-signature shape) never allocates the concatenation.
    fn matches_parts(&self, key: &(SignerId, u64, Digest), parts: &[&[u8]]) -> bool {
        let Some(cached) = self.map.get(key) else {
            return false;
        };
        let total: usize = parts.iter().map(|p| p.len()).sum();
        if cached.len() != total {
            return false;
        }
        let mut off = 0;
        for part in parts {
            if &cached[off..off + part.len()] != *part {
                return false;
            }
            off += part.len();
        }
        true
    }

    fn insert(&mut self, key: (SignerId, u64, Digest), message: &[u8]) {
        self.insert_owned(key, message.to_vec());
    }

    fn insert_parts(&mut self, key: (SignerId, u64, Digest), parts: &[&[u8]]) {
        let mut message = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for part in parts {
            message.extend_from_slice(part);
        }
        self.insert_owned(key, message);
    }

    fn insert_owned(&mut self, key: (SignerId, u64, Digest), message: Vec<u8>) {
        if self.map.len() >= VERIFY_MEMO_MAX || self.bytes >= VERIFY_MEMO_MAX_BYTES {
            self.map.clear();
            self.bytes = 0;
        }
        self.bytes += message.len();
        if let Some(old) = self.map.insert(key, message) {
            self.bytes -= old.len();
        }
    }
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
    /// Keyed by `(signer, key fingerprint, tag)` with the message stored in
    /// the entry: a hit requires the exact message bytes to match, and the
    /// fingerprint ties the verdict to the concrete key material so caches
    /// can never leak across key directories.  Failures are never cached.
    /// Entry count and retained bytes are both bounded.  (In the threaded
    /// runtime each thread has its own memo, so signer-side seeding cannot
    /// help remote verifiers there — it is bounded pure overhead, a few
    /// percent of the HMAC it accompanies.)
    static VERIFY_MEMO: RefCell<VerifyMemoStore> = RefCell::new(VerifyMemoStore::default());
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
    /// Signing also seeds the host-side verification memo: the produced tag
    /// *is* `HMAC(key, message)`, which is exactly the invariant a memo
    /// entry records, and on a simulation host the verifier of this very
    /// signature runs in the same process a few simulated microseconds
    /// later.  Its check then becomes a hash-map probe instead of a second
    /// HMAC computation over the same bytes.
    pub fn sign(key: &SigningKey, message: &[u8]) -> Signature {
        Self::seeded(key, key.hmac().mac(message), message)
    }

    /// Wraps a freshly computed `tag = HMAC(key, message)` as a signature
    /// and seeds the verification memo with it.
    fn seeded(key: &SigningKey, tag: Digest, message: &[u8]) -> Signature {
        let memo_key = (key.signer, key.hmac().fingerprint(), tag);
        VERIFY_MEMO.with(|memo| memo.borrow_mut().insert(memo_key, message));
        Signature {
            signer: key.signer,
            tag,
        }
    }

    /// [`Signature::sign`] that also returns the signing midstate, so a later
    /// co-signature *by the same key* over `message ‖ suffix` costs one or
    /// two compressions instead of a second pass over the whole message
    /// (see [`SignedPrefix::co_sign`]).  The signature — and the memo entry
    /// seeded for it — are exactly those of [`Signature::sign`].
    pub fn sign_resumable(key: &SigningKey, message: &Bytes) -> (Signature, SignedPrefix) {
        let mut state = key.hmac().hasher();
        state.update(message);
        let signature = Self::seeded(key, state.clone().finalize(), message);
        let prefix = SignedPrefix {
            message: message.clone(),
            state,
            signer: key.signer,
            fingerprint: key.hmac().fingerprint(),
        };
        (signature, prefix)
    }

    /// Verifies this signature over `message` against the key directory.
    ///
    /// Successful verifications are memoised host-side (in the module-private `VERIFY_MEMO` table):
    /// re-verifying the same `(key, message, tag)` triple — the normal case
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
        let memo_key = (self.signer, key.hmac().fingerprint(), self.tag);
        let hit = VERIFY_MEMO.with(|memo| memo.borrow().matches(&memo_key, message));
        if hit {
            return Ok(());
        }
        if key.hmac().verify(message, self.tag.as_bytes()) {
            VERIFY_MEMO.with(|memo| memo.borrow_mut().insert(memo_key, message));
            Ok(())
        } else {
            Err(SignatureError::Invalid)
        }
    }

    /// Like [`Signature::verify`] but always recomputes the HMAC, bypassing
    /// the host-side memo.  The `hotpath` benchmark uses this to measure the
    /// true cost of a verification.
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify_uncached(
        &self,
        directory: &KeyDirectory,
        message: &[u8],
    ) -> Result<(), SignatureError> {
        let key = directory.lookup(self.signer)?;
        if key.hmac().verify(message, self.tag.as_bytes()) {
            Ok(())
        } else {
            Err(SignatureError::Invalid)
        }
    }

    /// Verifies every signature in `sigs` over the same `message` — the
    /// authenticator-vector shape: one message, *n* MACs — sharing the inner
    /// message schedule across the batch and running the per-key rounds
    /// lane-parallel on the SIMD backend.
    ///
    /// All-or-nothing contract: returns `Ok(())` only when every signature
    /// verifies, and otherwise exactly the error a sequential
    /// [`Signature::verify`] loop would have produced first.  Memo hits are
    /// answered before any batch work is assembled, and a fully successful
    /// batch seeds the memo like the sequential path would.
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify_batch(
        sigs: &[&Signature],
        directory: &KeyDirectory,
        message: &[u8],
    ) -> Result<(), SignatureError> {
        // Resolve keys and probe the memo in index order.  A lookup failure
        // stops resolution (the sequential loop never looks past it), but
        // lower-indexed misses must still be verified first: an Invalid
        // among them takes precedence over the lookup error.
        let mut miss_sigs: Vec<&Signature> = Vec::new();
        let mut miss_keys: Vec<&HmacKey> = Vec::new();
        let mut lookup_err = None;
        for sig in sigs {
            match directory.lookup(sig.signer) {
                Err(e) => {
                    lookup_err = Some(e);
                    break;
                }
                Ok(key) => {
                    let memo_key = (sig.signer, key.hmac().fingerprint(), sig.tag);
                    let hit = VERIFY_MEMO.with(|memo| memo.borrow().matches(&memo_key, message));
                    if !hit {
                        miss_sigs.push(sig);
                        miss_keys.push(key.hmac());
                    }
                }
            }
        }
        if !miss_sigs.is_empty() {
            let expected = HmacKey::mac_batch(&miss_keys, message);
            for (sig, tag) in miss_sigs.iter().zip(&expected) {
                if !ct_eq(tag.as_bytes(), sig.tag.as_bytes()) {
                    return Err(SignatureError::Invalid);
                }
            }
            VERIFY_MEMO.with(|memo| {
                let mut memo = memo.borrow_mut();
                for (sig, key) in miss_sigs.iter().zip(&miss_keys) {
                    memo.insert((sig.signer, key.fingerprint(), sig.tag), message);
                }
            });
        }
        match lookup_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// [`Signature::verify_batch`] bypassing the host-side memo — the
    /// benchmark's view of the true batched verification cost.
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify_batch_uncached(
        sigs: &[&Signature],
        directory: &KeyDirectory,
        message: &[u8],
    ) -> Result<(), SignatureError> {
        let mut keys: Vec<&HmacKey> = Vec::with_capacity(sigs.len());
        let mut lookup_err = None;
        for sig in sigs {
            match directory.lookup(sig.signer) {
                Err(e) => {
                    lookup_err = Some(e);
                    break;
                }
                Ok(key) => keys.push(key.hmac()),
            }
        }
        let expected = HmacKey::mac_batch(&keys, message);
        for (sig, tag) in sigs.iter().zip(&expected) {
            if !ct_eq(tag.as_bytes(), sig.tag.as_bytes()) {
                return Err(SignatureError::Invalid);
            }
        }
        match lookup_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// The fixed 36-byte suffix the second (counter-) signature covers in
/// addition to the content bytes: the first signer's id (little-endian) and
/// the first signature's tag.  Must stay byte-identical to the tail of
/// [`co_sign_bytes`].
fn cosign_suffix(first: &Signature) -> [u8; 36] {
    let mut suffix = [0u8; 36];
    suffix[..4].copy_from_slice(&(first.signer.0).0.to_le_bytes());
    suffix[4..].copy_from_slice(first.tag.as_bytes());
    suffix
}

/// A signer's HMAC state after absorbing a message it has just signed,
/// together with (a refcount of) that message: everything needed to
/// counter-sign a peer's signature over the same message without hashing
/// the message again.
///
/// A fail-signal wrapper signs each output once for its partner and, when
/// the partner's copy matches, co-signs `content ‖ suffix(partner's
/// signature)` with the *same key*.  The two MAC inputs share the whole
/// content as a prefix, so the second tag is the saved state plus the
/// 36-byte suffix.  Tags are bit-for-bit those of
/// [`Signature::sign`] over the concatenation.
///
/// The state is key-equivalent material; it never leaves the signer and is
/// not printed by `Debug`.
#[derive(Clone)]
pub struct SignedPrefix {
    message: Bytes,
    state: HmacSha256,
    signer: SignerId,
    fingerprint: u64,
}

impl std::fmt::Debug for SignedPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SignedPrefix({}, {} B)", self.signer, self.message.len())
    }
}

impl SignedPrefix {
    /// The message whose signature this state resumes from.
    pub fn message(&self) -> &Bytes {
        &self.message
    }

    /// Counter-signs `first` (another signer's signature over the same
    /// message): the result equals `Signature::sign(key, message ‖
    /// suffix(first))` under the key that produced this prefix, and seeds
    /// the verification memo the same way.
    pub fn co_sign(&self, first: &Signature) -> Signature {
        let suffix = cosign_suffix(first);
        let mut state = self.state.clone();
        state.update(&suffix);
        let tag = state.finalize();
        VERIFY_MEMO.with(|memo| {
            memo.borrow_mut().insert_parts(
                (self.signer, self.fingerprint, tag),
                &[&self.message, &suffix],
            )
        });
        Signature {
            signer: self.signer,
            tag,
        }
    }
}

/// A [`MacSchedule`] built only when a memo miss actually needs it, then
/// shared by every subsequent MAC over the same content bytes.
struct LazyMacSchedule<'m> {
    message: &'m [u8],
    schedule: Option<MacSchedule<'m>>,
}

impl<'m> LazyMacSchedule<'m> {
    fn new(message: &'m [u8]) -> Self {
        Self {
            message,
            schedule: None,
        }
    }

    fn get(&mut self) -> &MacSchedule<'m> {
        self.schedule
            .get_or_insert_with(|| MacSchedule::new(self.message))
    }
}

/// Verifies a co-signed pair of signatures over `content_bytes` — the first
/// over the content itself, the second over the content plus the
/// `cosign_suffix` naming the first — sharing the content's message
/// schedule between the two MAC computations (all full content blocks are
/// common to both).
///
/// Verification order, memo behaviour and error precedence are identical to
/// verifying the two signatures sequentially with [`Signature::verify`]:
/// first signer lookup, first signature, second signer lookup, second
/// signature.
///
/// # Errors
///
/// See [`Signature::verify`].
pub fn verify_cosign_pair(
    directory: &KeyDirectory,
    content_bytes: &[u8],
    first: &Signature,
    second: &Signature,
) -> Result<(), SignatureError> {
    let mut schedule = LazyMacSchedule::new(content_bytes);
    verify_cosign_pair_with(directory, &mut schedule, first, second)
}

/// [`verify_cosign_pair`] over a caller-held schedule, so a batch of pairs
/// over the same content shares one schedule (see
/// [`DoubleSigned::verify_batch`]).
fn verify_cosign_pair_with(
    directory: &KeyDirectory,
    schedule: &mut LazyMacSchedule<'_>,
    first: &Signature,
    second: &Signature,
) -> Result<(), SignatureError> {
    let content_bytes = schedule.message;
    let key1 = directory.lookup(first.signer)?;
    let memo1 = (first.signer, key1.hmac().fingerprint(), first.tag);
    let hit1 = VERIFY_MEMO.with(|memo| memo.borrow().matches(&memo1, content_bytes));
    if !hit1 {
        let tag = schedule.get().mac(key1.hmac());
        if !ct_eq(tag.as_bytes(), first.tag.as_bytes()) {
            return Err(SignatureError::Invalid);
        }
        VERIFY_MEMO.with(|memo| memo.borrow_mut().insert(memo1, content_bytes));
    }
    let key2 = directory.lookup(second.signer)?;
    let suffix = cosign_suffix(first);
    let memo2 = (second.signer, key2.hmac().fingerprint(), second.tag);
    let hit2 = VERIFY_MEMO.with(|memo| {
        memo.borrow()
            .matches_parts(&memo2, &[content_bytes, &suffix])
    });
    if !hit2 {
        let tag = schedule.get().mac_with_suffix(key2.hmac(), &suffix);
        if !ct_eq(tag.as_bytes(), second.tag.as_bytes()) {
            return Err(SignatureError::Invalid);
        }
        VERIFY_MEMO.with(|memo| {
            memo.borrow_mut()
                .insert_parts(memo2, &[content_bytes, &suffix])
        });
    }
    Ok(())
}

/// [`verify_cosign_pair`] bypassing the host-side memo (benchmark path).
///
/// # Errors
///
/// See [`Signature::verify`].
pub fn verify_cosign_pair_uncached(
    directory: &KeyDirectory,
    content_bytes: &[u8],
    first: &Signature,
    second: &Signature,
) -> Result<(), SignatureError> {
    let schedule = MacSchedule::new(content_bytes);
    let key1 = directory.lookup(first.signer)?;
    if !ct_eq(schedule.mac(key1.hmac()).as_bytes(), first.tag.as_bytes()) {
        return Err(SignatureError::Invalid);
    }
    let key2 = directory.lookup(second.signer)?;
    let suffix = cosign_suffix(first);
    if !ct_eq(
        schedule.mac_with_suffix(key2.hmac(), &suffix).as_bytes(),
        second.tag.as_bytes(),
    ) {
        return Err(SignatureError::Invalid);
    }
    Ok(())
}

/// A message carrying exactly one signature — the form exchanged *between*
/// the two Compare processes of a pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SingleSigned<T> {
    /// The signed content.
    pub content: T,
    /// The signature over the canonical encoding of the content.
    pub signature: Signature,
}

impl<T> SingleSigned<T> {
    /// Signs `content`, whose canonical bytes are `content_bytes`, with `key`.
    ///
    /// The caller supplies the canonical encoding explicitly so that the
    /// signing code never depends on a particular serialisation framework.
    pub fn new(content: T, content_bytes: &[u8], key: &SigningKey) -> Self {
        Self {
            signature: Signature::sign(key, content_bytes),
            content,
        }
    }

    /// Verifies the signature over `content_bytes`.
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify(
        &self,
        directory: &KeyDirectory,
        content_bytes: &[u8],
    ) -> Result<(), SignatureError> {
        self.signature.verify(directory, content_bytes)
    }

    /// Counter-signs this message with a second key, producing the
    /// double-signed form that destinations accept as the FS process output.
    pub fn counter_sign(self, content_bytes: &[u8], key: &SigningKey) -> DoubleSigned<T> {
        // The second signature covers the content bytes *and* the first
        // signature, so the pair of signatures cannot be mixed and matched
        // across messages.
        let second = Signature::sign(key, &co_sign_bytes(content_bytes, &self.signature));
        DoubleSigned {
            content: self.content,
            first: self.signature,
            second,
        }
    }
}

/// A message carrying the signatures of both wrappers of a fail-signal pair —
/// the only form a destination treats as a valid output of the FS process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DoubleSigned<T> {
    /// The signed content.
    pub content: T,
    /// The first signature (by the wrapper that produced the output).
    pub first: Signature,
    /// The second signature (by the wrapper that successfully compared it).
    pub second: Signature,
}

fn co_sign_bytes(content_bytes: &[u8], first: &Signature) -> Vec<u8> {
    let mut buf = Vec::with_capacity(content_bytes.len() + 36);
    buf.extend_from_slice(content_bytes);
    buf.extend_from_slice(&cosign_suffix(first));
    buf
}

impl<T> DoubleSigned<T> {
    /// Verifies that the message is a valid output of the FS pair whose
    /// wrappers are `expected_pair`.
    ///
    /// The check enforces everything §2.1 requires of a valid FS output:
    ///
    /// 1. both signatures verify under the directory,
    /// 2. the two signers are distinct, and
    /// 3. both signers belong to `expected_pair` (order does not matter —
    ///    the paper notes the two valid copies carry the signatures in
    ///    opposite orders).
    ///
    /// # Errors
    ///
    /// * [`SignatureError::DuplicateSigner`] — both signatures from the same
    ///   wrapper.
    /// * [`SignatureError::MissingCoSignature`] — a signer outside
    ///   `expected_pair` signed the message.
    /// * [`SignatureError::Invalid`] / [`SignatureError::UnknownSigner`] — a
    ///   signature failed to verify.
    pub fn verify(
        &self,
        directory: &KeyDirectory,
        content_bytes: &[u8],
        expected_pair: (SignerId, SignerId),
    ) -> Result<(), SignatureError> {
        self.check_pair(expected_pair)?;
        verify_cosign_pair(directory, content_bytes, &self.first, &self.second)
    }

    /// Verifies every double-signed message in `items` over the same
    /// `content_bytes` against the same expected pair, sharing the content's
    /// message schedule across the whole batch (each item adds only its two
    /// per-key finalizations).
    ///
    /// All-or-nothing contract: `Ok(())` only when every item verifies,
    /// otherwise the error a sequential [`DoubleSigned::verify`] loop would
    /// have produced first.  Memo hits short-circuit per signature exactly
    /// as in the sequential path.
    ///
    /// # Errors
    ///
    /// See [`DoubleSigned::verify`].
    pub fn verify_batch(
        items: &[&DoubleSigned<T>],
        directory: &KeyDirectory,
        content_bytes: &[u8],
        expected_pair: (SignerId, SignerId),
    ) -> Result<(), SignatureError> {
        let mut schedule = LazyMacSchedule::new(content_bytes);
        for item in items {
            item.check_pair(expected_pair)?;
            verify_cosign_pair_with(directory, &mut schedule, &item.first, &item.second)?;
        }
        Ok(())
    }

    /// The structural half of [`DoubleSigned::verify`]: distinct signers,
    /// both members of `expected_pair` (in either order).
    fn check_pair(&self, expected_pair: (SignerId, SignerId)) -> Result<(), SignatureError> {
        if self.first.signer == self.second.signer {
            return Err(SignatureError::DuplicateSigner);
        }
        let pair_ok = (self.first.signer == expected_pair.0
            && self.second.signer == expected_pair.1)
            || (self.first.signer == expected_pair.1 && self.second.signer == expected_pair.0);
        if !pair_ok {
            return Err(SignatureError::MissingCoSignature);
        }
        Ok(())
    }

    /// Returns the pair of signers, first then second.
    pub fn signers(&self) -> (SignerId, SignerId) {
        (self.first.signer, self.second.signer)
    }

    /// Discards the signatures and returns the content (what the interceptor
    /// does before handing a delivery up to the invocation layer).
    pub fn into_content(self) -> T {
        self.content
    }

    /// Maps the content, keeping the signatures.
    ///
    /// Intended for bookkeeping (e.g. attaching receive timestamps); note
    /// that mapping the content does *not* re-sign it, so the result only
    /// verifies against the original content bytes.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> DoubleSigned<U> {
        DoubleSigned {
            content: f(self.content),
            first: self.first,
            second: self.second,
        }
    }
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
        let empty = KeyDirectory::new();
        let sig = Signature::sign(&a, b"m");
        assert_eq!(
            sig.verify(&empty, b"m").unwrap_err(),
            SignatureError::UnknownSigner
        );
    }

    #[test]
    fn single_signed_envelope() {
        let (a, _, _, dir) = setup();
        let content = "output-7".to_string();
        let bytes = content.as_bytes().to_vec();
        let signed = SingleSigned::new(content.clone(), &bytes, &a);
        assert!(signed.verify(&dir, &bytes).is_ok());
        assert!(signed.verify(&dir, b"tampered").is_err());
        assert_eq!(signed.content, content);
    }

    #[test]
    fn double_signed_happy_path() {
        let (a, b, _, dir) = setup();
        let bytes = b"total-order decision".to_vec();
        let single = SingleSigned::new((), &bytes, &a);
        let double = single.counter_sign(&bytes, &b);
        let pair = (a.signer, b.signer);
        assert!(double.verify(&dir, &bytes, pair).is_ok());
        // Order of the expected pair must not matter.
        assert!(double.verify(&dir, &bytes, (b.signer, a.signer)).is_ok());
        assert_eq!(double.signers(), (a.signer, b.signer));
    }

    #[test]
    fn double_signed_rejects_duplicate_signer() {
        let (a, _, _, dir) = setup();
        let bytes = b"x".to_vec();
        let double = SingleSigned::new((), &bytes, &a).counter_sign(&bytes, &a);
        assert_eq!(
            double
                .verify(&dir, &bytes, (a.signer, a.signer))
                .unwrap_err(),
            SignatureError::DuplicateSigner
        );
    }

    #[test]
    fn double_signed_rejects_outsider() {
        let (a, b, c, dir) = setup();
        let bytes = b"x".to_vec();
        // c co-signs instead of b: destinations expecting pair (a, b) must reject.
        let double = SingleSigned::new((), &bytes, &a).counter_sign(&bytes, &c);
        assert_eq!(
            double
                .verify(&dir, &bytes, (a.signer, b.signer))
                .unwrap_err(),
            SignatureError::MissingCoSignature
        );
    }

    #[test]
    fn double_signed_rejects_tampered_content() {
        let (a, b, _, dir) = setup();
        let bytes = b"original".to_vec();
        let double = SingleSigned::new((), &bytes, &a).counter_sign(&bytes, &b);
        assert!(double
            .verify(&dir, b"forged", (a.signer, b.signer))
            .is_err());
    }

    #[test]
    fn double_signed_rejects_mixed_and_matched_signatures() {
        let (a, b, _, dir) = setup();
        let bytes1 = b"message one".to_vec();
        let bytes2 = b"message two".to_vec();
        let d1 = SingleSigned::new((), &bytes1, &a).counter_sign(&bytes1, &b);
        let d2 = SingleSigned::new((), &bytes2, &a).counter_sign(&bytes2, &b);
        // Splice the co-signature of message two onto message one.
        let spliced = DoubleSigned {
            content: (),
            first: d1.first.clone(),
            second: d2.second.clone(),
        };
        assert!(spliced.verify(&dir, &bytes1, (a.signer, b.signer)).is_err());
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
        let fake = DoubleSigned {
            content: (),
            first: forged,
            second: Signature::sign(&b, &bytes),
        };
        assert!(fake.verify(&dir, &bytes, (a.signer, b.signer)).is_err());
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
        assert!(Signature::verify_batch(&refs, &dir, &msg).is_ok());
        assert!(Signature::verify_batch_uncached(&refs, &dir, &msg).is_ok());

        // A tampered tag anywhere fails the whole batch with Invalid.
        let mut bad = sigs.clone();
        bad[1].tag = crate::sha256::Sha256::digest(b"forged");
        let bad_refs: Vec<&Signature> = bad.iter().collect();
        assert_eq!(
            Signature::verify_batch(&bad_refs, &dir, &msg).unwrap_err(),
            SignatureError::Invalid
        );
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
            Signature::verify_batch(&mixed_refs, &dir, &msg).unwrap_err(),
            SignatureError::Invalid
        );

        // With every earlier signature valid, the unknown signer surfaces.
        let mut unknown = sigs.clone();
        unknown[2].signer = SignerId(ProcessId(99));
        let unknown_refs: Vec<&Signature> = unknown.iter().collect();
        assert_eq!(
            Signature::verify_batch(&unknown_refs, &dir, &msg).unwrap_err(),
            SignatureError::UnknownSigner
        );
        assert_eq!(
            Signature::verify_batch_uncached(&unknown_refs, &dir, &msg).unwrap_err(),
            SignatureError::UnknownSigner
        );
    }

    #[test]
    fn verify_batch_spans_many_keys() {
        // Enough signers to exercise the 8-lane + 4-lane + remainder split
        // below the signature layer.
        let mut rng = DetRng::new(7);
        let procs: Vec<ProcessId> = (0..13).map(ProcessId).collect();
        let (keys, dir) = crate::keys::provision(procs.clone(), &mut rng);
        let msg: Vec<u8> = (0..1500u32).map(|x| (x % 251) as u8).collect();
        let sigs: Vec<Signature> = procs
            .iter()
            .map(|p| Signature::sign(&keys[&SignerId(*p)], &msg))
            .collect();
        let refs: Vec<&Signature> = sigs.iter().collect();
        // Uncached exercises the full batch computation regardless of the
        // memo seeded by signing.
        assert!(Signature::verify_batch_uncached(&refs, &dir, &msg).is_ok());
        assert!(Signature::verify_batch(&refs, &dir, &msg).is_ok());
    }

    #[test]
    fn cosign_pair_verify_matches_plain_verify() {
        let (a, b, _, dir) = setup();
        let bytes: Vec<u8> = (0..300u16).map(|x| (x % 251) as u8).collect();
        let double = SingleSigned::new((), &bytes, &a).counter_sign(&bytes, &b);
        assert!(verify_cosign_pair(&dir, &bytes, &double.first, &double.second).is_ok());
        assert!(verify_cosign_pair_uncached(&dir, &bytes, &double.first, &double.second).is_ok());
        // The uncached path agrees with the sequential uncached checks.
        assert!(double.first.verify_uncached(&dir, &bytes).is_ok());
        assert!(double
            .second
            .verify_uncached(&dir, &co_sign_bytes(&bytes, &double.first))
            .is_ok());
        // Tampering with either signature is caught.
        let mut bad = double.clone();
        bad.second.tag = crate::sha256::Sha256::digest(b"forged");
        assert_eq!(
            verify_cosign_pair_uncached(&dir, &bytes, &bad.first, &bad.second).unwrap_err(),
            SignatureError::Invalid
        );
    }

    #[test]
    fn double_signed_verify_batch() {
        let (a, b, _, dir) = setup();
        let bytes = b"one frame, many authenticator pairs".to_vec();
        let pair = (a.signer, b.signer);
        // Two distinct valid items over the same content (opposite signing
        // orders, as the paper notes the two valid copies carry).
        let d1 = SingleSigned::new((), &bytes, &a).counter_sign(&bytes, &b);
        let d2 = SingleSigned::new((), &bytes, &b).counter_sign(&bytes, &a);
        assert!(DoubleSigned::verify_batch(&[&d1, &d2], &dir, &bytes, pair).is_ok());
        let mut bad = d2.clone();
        bad.second.tag = crate::sha256::Sha256::digest(b"forged");
        assert_eq!(
            DoubleSigned::verify_batch(&[&d1, &bad], &dir, &bytes, pair).unwrap_err(),
            SignatureError::Invalid
        );
        let dup = DoubleSigned {
            content: (),
            first: d1.first.clone(),
            second: d1.first.clone(),
        };
        assert_eq!(
            DoubleSigned::verify_batch(&[&dup, &d1], &dir, &bytes, pair).unwrap_err(),
            SignatureError::DuplicateSigner
        );
    }

    /// Splits `data` into a prefix and a trailing 36 bytes reinterpreted as
    /// the co-signature suffix of some first signature, so arbitrary test
    /// vectors can be pushed through [`SignedPrefix::co_sign`].
    fn split_as_cosign(data: &[u8]) -> (Bytes, Signature) {
        let (prefix, suffix) = data.split_at(data.len() - 36);
        let first = Signature {
            signer: SignerId(ProcessId(u32::from_le_bytes(
                suffix[..4].try_into().unwrap(),
            ))),
            tag: Digest(suffix[4..].try_into().unwrap()),
        };
        assert_eq!(cosign_suffix(&first), suffix);
        (Bytes::copy_from_slice(prefix), first)
    }

    #[test]
    fn resumed_cosign_equals_signing_the_concatenation() {
        let (a, b, _, dir) = setup();
        for len in (0..=200).chain([10_240]) {
            let content: Bytes = (0..len)
                .map(|i| (i % 251) as u8)
                .collect::<Vec<u8>>()
                .into();
            let (sig, prefix) = Signature::sign_resumable(&b, &content);
            assert_eq!(sig, Signature::sign(&b, &content), "len {len}");
            assert_eq!(prefix.message(), &content);
            let first = Signature::sign(&a, &content);
            let second = prefix.co_sign(&first);
            assert_eq!(
                second,
                Signature::sign(&b, &co_sign_bytes(&content, &first)),
                "len {len}"
            );
            // The pair is a valid double signature, memoised or not.
            assert!(verify_cosign_pair(&dir, &content, &first, &second).is_ok());
            assert!(verify_cosign_pair_uncached(&dir, &content, &first, &second).is_ok());
        }
    }

    /// RFC 4231 HMAC-SHA-256 vectors through the resumable path.  HMAC
    /// zero-pads short keys and hashes long ones, so each RFC key has an
    /// equivalent 32-byte `SigningKey`.
    #[test]
    fn rfc4231_vectors_through_the_resumed_path() {
        fn short_key(key: &[u8]) -> [u8; 32] {
            let mut k = [0u8; 32];
            k[..key.len()].copy_from_slice(key);
            k
        }
        let long_key = crate::sha256::Sha256::digest(&[0xaa; 131]).0;
        let vectors: Vec<([u8; 32], Vec<u8>, &str)> = vec![
            (
                short_key(&[0x0b; 20]),
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                short_key(b"Jefe"),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                short_key(&[0xaa; 20]),
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                long_key,
                b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.".to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (secret, data, expected) in vectors {
            let key = SigningKey::from_bytes(SignerId(ProcessId(1)), secret);
            // The whole vector as the signed message...
            let (sig, _) = Signature::sign_resumable(&key, &Bytes::copy_from_slice(&data));
            assert_eq!(sig.tag.to_hex(), expected);
            // ...and, where it is long enough, as prefix ‖ co-sign suffix.
            if data.len() >= 36 {
                let (prefix, first) = split_as_cosign(&data);
                let (_, signed) = Signature::sign_resumable(&key, &prefix);
                assert_eq!(signed.co_sign(&first).tag.to_hex(), expected);
            }
        }
    }

    #[test]
    fn map_keeps_signatures() {
        let (a, b, _, _) = setup();
        let bytes = b"content".to_vec();
        let double = SingleSigned::new(5u32, &bytes, &a).counter_sign(&bytes, &b);
        let mapped = double.clone().map(|v| v as u64 + 1);
        assert_eq!(mapped.content, 6u64);
        assert_eq!(mapped.first, double.first);
        assert_eq!(mapped.second, double.second);
        assert_eq!(double.into_content(), 5u32);
    }
}
