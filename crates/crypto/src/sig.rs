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

use fs_common::codec::segments_eq;
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

/// A message handed to the signature layer as the two shared buffers it
/// already lives in — the logical message is `head ‖ body`.
///
/// A fail-signal output is signed over a few header bytes followed by the
/// machine's output bytes; the wrapper holds the latter as a refcounted
/// buffer that also travels in the frames and sits in the comparison pools.
/// Signing, co-signing and verifying over `Parts` streams the two buffers
/// through the hash instead of first copying them into one, and the
/// host-side memos keep refcounts of them instead of copies.  Every tag is
/// the tag of the concatenation, wherever the split falls.
#[derive(Debug, Clone)]
pub struct Parts {
    /// The leading bytes (for a fail-signal output: its signed header).
    pub head: Bytes,
    /// The trailing bytes (the payload the header frames); may be empty.
    pub body: Bytes,
}

impl Parts {
    /// The length of the logical message.
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// True when the logical message is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical message as one buffer (a copy unless `body` is empty).
    pub fn to_bytes(&self) -> Bytes {
        if self.body.is_empty() {
            return self.head.clone();
        }
        [&self.head[..], &self.body[..]].concat().into()
    }
}

impl From<Bytes> for Parts {
    /// A contiguous message: everything in `head`.
    fn from(head: Bytes) -> Self {
        Self {
            head,
            body: Bytes::new(),
        }
    }
}

/// A message as a public entry point received it: borrowed contiguous
/// bytes, or shared parts.  The private implementations below are written
/// once over this.
#[derive(Clone, Copy)]
enum Message<'a> {
    Slice(&'a [u8]),
    Parts(&'a Parts),
}

impl<'a> Message<'a> {
    fn slices(self) -> [&'a [u8]; 2] {
        match self {
            Message::Slice(message) => [message, &[]],
            Message::Parts(parts) => [&parts.head, &parts.body],
        }
    }

    /// The message as owned parts: refcounts, or — for borrowed bytes,
    /// which nothing else keeps alive — a copy.
    fn to_parts(self) -> Parts {
        match self {
            Message::Slice(message) => Bytes::copy_from_slice(message).into(),
            Message::Parts(parts) => parts.clone(),
        }
    }

    fn schedule(self) -> MacSchedule<'a> {
        let [head, body] = self.slices();
        MacSchedule::over_parts(head, body)
    }
}

type MemoKey = (SignerId, u64, Digest);

/// The smallest message the verification memo keeps by refcount.  Below it
/// an entry is one compact copy, exactly as before messages came in parts:
/// a small copy costs less than keeping a header buffer of its own alive
/// per entry (and small payloads are windows of contiguous frames, which a
/// memo must not pin, anyway).  From here up the copy — the payload-sized
/// allocation, the `memcpy`, and on a hit the `memcmp` — is what the memo
/// avoids.  Same order as the codec's splice size, for the same reason.
const MEMO_SHARE_MIN: usize = 1024;

/// One memoised message: the bytes `message ‖ suffix`, where `suffix` is
/// the 36-byte co-signature trailer (absent for a first signature).
enum MemoEntry {
    /// A compact copy of the whole message.
    Compact(Box<[u8]>),
    /// Refcounts of the message's own buffers (boxed: the table's entries
    /// stay as small as when they all were compact copies).
    Shared(Box<SharedMessage>),
}

struct SharedMessage {
    message: Parts,
    suffix: Option<[u8; 36]>,
}

fn trailer(suffix: Option<&[u8; 36]>) -> &[u8] {
    suffix.map_or(&[], |s| s)
}

impl MemoEntry {
    fn new(message: Message<'_>, suffix: Option<&[u8; 36]>) -> Self {
        let [head, body] = message.slices();
        match message {
            Message::Parts(parts) if head.len() + body.len() >= MEMO_SHARE_MIN => {
                MemoEntry::Shared(Box::new(SharedMessage {
                    // A part that is a window into a larger buffer (a field
                    // of a contiguous frame) is detached: a memo must not
                    // keep whole frames alive.
                    message: Parts {
                        head: parts.head.compact(),
                        body: parts.body.compact(),
                    },
                    suffix: suffix.copied(),
                }))
            }
            _ => MemoEntry::Compact([head, body, trailer(suffix)].concat().into()),
        }
    }

    fn len(&self) -> usize {
        match self {
            MemoEntry::Compact(bytes) => bytes.len(),
            MemoEntry::Shared(shared) => {
                shared.message.len() + trailer(shared.suffix.as_ref()).len()
            }
        }
    }
}

/// The verification memo: entry map plus the running total of stored
/// message bytes (both bounds trigger a wholesale clear).
#[derive(Default)]
struct VerifyMemoStore {
    map: FastMap<MemoKey, MemoEntry>,
    bytes: usize,
}

impl VerifyMemoStore {
    /// True when `key` is memoised for exactly the bytes `message ‖ suffix`.
    /// The comparison is piecewise and skips stretches that are the very
    /// buffer the entry holds (the normal case for a large message: the
    /// verifier decoded a view of the buffer the signer signed), so a hit on
    /// a 10 kB message reads only its header.
    fn matches(&self, key: &MemoKey, message: Message<'_>, suffix: Option<&[u8; 36]>) -> bool {
        let Some(cached) = self.map.get(key) else {
            return false;
        };
        let [head, body] = message.slices();
        let probe = [head, body, trailer(suffix)];
        match cached {
            // One stored buffer: walk the probe's parts along it.
            MemoEntry::Compact(bytes) => {
                let mut rest = &bytes[..];
                probe
                    .iter()
                    .all(|part| match rest.split_at_checked(part.len()) {
                        Some((stored, tail)) => {
                            rest = tail;
                            stored == *part
                        }
                        None => false,
                    })
                    && rest.is_empty()
            }
            MemoEntry::Shared(shared) => segments_eq(
                &[
                    &shared.message.head,
                    &shared.message.body,
                    trailer(shared.suffix.as_ref()),
                ],
                &probe,
            ),
        }
    }

    fn insert(&mut self, key: MemoKey, entry: MemoEntry) {
        if self.map.len() >= VERIFY_MEMO_MAX || self.bytes >= VERIFY_MEMO_MAX_BYTES {
            self.map.clear();
            self.bytes = 0;
        }
        self.bytes += entry.len();
        if let Some(old) = self.map.insert(key, entry) {
            self.bytes -= old.len();
        }
    }
}

fn memo_matches(key: &MemoKey, message: Message<'_>, suffix: Option<&[u8; 36]>) -> bool {
    VERIFY_MEMO.with(|memo| memo.borrow().matches(key, message, suffix))
}

fn memo_insert(key: MemoKey, message: Message<'_>, suffix: Option<&[u8; 36]>) {
    let entry = MemoEntry::new(message, suffix);
    VERIFY_MEMO.with(|memo| memo.borrow_mut().insert(key, entry));
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
    /// Keyed by `(signer, key fingerprint, tag)` with the message held in
    /// the entry — a large message that arrived as shared [`Parts`] by
    /// refcount, so the memo pins the buffers that flow anyway instead of
    /// copies of them, a small one as a compact copy: a
    /// hit requires the exact message bytes to match, and the
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
        Self::sign_message(key, Message::Slice(message)).0
    }

    /// [`Signature::sign`] over shared [`Parts`]: the two buffers are
    /// streamed through the hash, never concatenated, and the memo entry
    /// seeded for the signature holds refcounts of them.
    ///
    /// Also returns the signing midstate, so a later co-signature *by the
    /// same key* over `message ‖ suffix` costs one or two compressions
    /// instead of a second pass over the whole message (see
    /// [`SignedPrefix::co_sign`]).
    pub fn sign_parts(key: &SigningKey, message: &Parts) -> (Signature, SignedPrefix) {
        Self::sign_message(key, Message::Parts(message))
    }

    fn sign_message(key: &SigningKey, message: Message<'_>) -> (Signature, SignedPrefix) {
        let prefix = SignedPrefix::absorb(key, message);
        let tag = prefix.state.clone().finalize();
        memo_insert(
            (prefix.signer, prefix.fingerprint, tag),
            Message::Parts(&prefix.message),
            None,
        );
        let signature = Signature {
            signer: key.signer,
            tag,
        };
        (signature, prefix)
    }

    /// Counter-signs `first` (another signer's signature over `message`)
    /// with `key`: the signature over `message ‖ suffix(first)`, streamed —
    /// the concatenation is never built.  A wrapper that signed `message`
    /// itself a moment ago resumes from that midstate instead
    /// ([`SignedPrefix::co_sign`]); the tags are identical.
    pub fn co_sign_parts(key: &SigningKey, message: &Parts, first: &Signature) -> Signature {
        SignedPrefix::absorb(key, Message::Parts(message)).co_sign(first)
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
        self.verify_message(directory, Message::Slice(message))
    }

    /// [`Signature::verify`] over shared [`Parts`]: streamed on a miss, and
    /// memoised by refcount.
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify_parts(
        &self,
        directory: &KeyDirectory,
        message: &Parts,
    ) -> Result<(), SignatureError> {
        self.verify_message(directory, Message::Parts(message))
    }

    fn verify_message(
        &self,
        directory: &KeyDirectory,
        message: Message<'_>,
    ) -> Result<(), SignatureError> {
        let key = directory.lookup(self.signer)?;
        let memo_key = (self.signer, key.hmac().fingerprint(), self.tag);
        if memo_matches(&memo_key, message, None) {
            return Ok(());
        }
        let mut state = key.hmac().hasher();
        for part in message.slices() {
            state.update(part);
        }
        if ct_eq(state.finalize().as_bytes(), self.tag.as_bytes()) {
            memo_insert(memo_key, message, None);
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
        Self::verify_batch_message(sigs, directory, Message::Slice(message))
    }

    /// [`Signature::verify_batch`] over shared [`Parts`].
    ///
    /// # Errors
    ///
    /// See [`Signature::verify`].
    pub fn verify_batch_parts(
        sigs: &[&Signature],
        directory: &KeyDirectory,
        message: &Parts,
    ) -> Result<(), SignatureError> {
        Self::verify_batch_message(sigs, directory, Message::Parts(message))
    }

    fn verify_batch_message(
        sigs: &[&Signature],
        directory: &KeyDirectory,
        message: Message<'_>,
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
                    if !memo_matches(&memo_key, message, None) {
                        miss_sigs.push(sig);
                        miss_keys.push(key.hmac());
                    }
                }
            }
        }
        if !miss_sigs.is_empty() {
            let expected = message.schedule().mac_batch(&miss_keys);
            for (sig, tag) in miss_sigs.iter().zip(&expected) {
                if !ct_eq(tag.as_bytes(), sig.tag.as_bytes()) {
                    return Err(SignatureError::Invalid);
                }
            }
            for (sig, key) in miss_sigs.iter().zip(&miss_keys) {
                memo_insert((sig.signer, key.fingerprint(), sig.tag), message, None);
            }
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
    message: Parts,
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
    /// `key`'s HMAC state after absorbing `message`.
    fn absorb(key: &SigningKey, message: Message<'_>) -> Self {
        let mut state = key.hmac().hasher();
        for part in message.slices() {
            state.update(part);
        }
        Self {
            message: message.to_parts(),
            state,
            signer: key.signer,
            fingerprint: key.hmac().fingerprint(),
        }
    }

    /// The message whose signature this state resumes from.
    pub fn message(&self) -> &Parts {
        &self.message
    }

    /// Counter-signs `first` (another signer's signature over the same
    /// message): the result equals `Signature::sign(key, message ‖
    /// suffix(first))` under the key that produced this prefix, and seeds
    /// the verification memo the same way (with refcounts of the message).
    pub fn co_sign(&self, first: &Signature) -> Signature {
        let suffix = cosign_suffix(first);
        let mut state = self.state.clone();
        state.update(&suffix);
        let tag = state.finalize();
        memo_insert(
            (self.signer, self.fingerprint, tag),
            Message::Parts(&self.message),
            Some(&suffix),
        );
        Signature {
            signer: self.signer,
            tag,
        }
    }
}

/// A [`MacSchedule`] built only when a memo miss actually needs it, then
/// shared by every subsequent MAC over the same content bytes.
struct LazyMacSchedule<'m> {
    message: Message<'m>,
    schedule: Option<MacSchedule<'m>>,
}

impl<'m> LazyMacSchedule<'m> {
    fn new(message: Message<'m>) -> Self {
        Self {
            message,
            schedule: None,
        }
    }

    fn get(&mut self) -> &MacSchedule<'m> {
        self.schedule.get_or_insert_with(|| self.message.schedule())
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
    let mut schedule = LazyMacSchedule::new(Message::Slice(content_bytes));
    verify_cosign_pair_with(directory, &mut schedule, first, second)
}

/// [`verify_cosign_pair`] over shared [`Parts`]: what a destination of a
/// double-signed output runs on the buffers it decoded, without building
/// the signing bytes.
///
/// # Errors
///
/// See [`Signature::verify`].
pub fn verify_cosign_pair_parts(
    directory: &KeyDirectory,
    content: &Parts,
    first: &Signature,
    second: &Signature,
) -> Result<(), SignatureError> {
    let mut schedule = LazyMacSchedule::new(Message::Parts(content));
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
    let content = schedule.message;
    let key1 = directory.lookup(first.signer)?;
    let memo1 = (first.signer, key1.hmac().fingerprint(), first.tag);
    if !memo_matches(&memo1, content, None) {
        let tag = schedule.get().mac(key1.hmac());
        if !ct_eq(tag.as_bytes(), first.tag.as_bytes()) {
            return Err(SignatureError::Invalid);
        }
        memo_insert(memo1, content, None);
    }
    let key2 = directory.lookup(second.signer)?;
    let suffix = cosign_suffix(first);
    let memo2 = (second.signer, key2.hmac().fingerprint(), second.tag);
    if !memo_matches(&memo2, content, Some(&suffix)) {
        let tag = schedule.get().mac_with_suffix(key2.hmac(), &suffix);
        if !ct_eq(tag.as_bytes(), second.tag.as_bytes()) {
            return Err(SignatureError::Invalid);
        }
        memo_insert(memo2, content, Some(&suffix));
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
        let mut schedule = LazyMacSchedule::new(Message::Slice(content_bytes));
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
    fn split_as_cosign(data: &[u8]) -> (Vec<u8>, Signature) {
        let (prefix, suffix) = data.split_at(data.len() - 36);
        let first = Signature {
            signer: SignerId(ProcessId(u32::from_le_bytes(
                suffix[..4].try_into().unwrap(),
            ))),
            tag: Digest(suffix[4..].try_into().unwrap()),
        };
        assert_eq!(cosign_suffix(&first), suffix);
        (prefix.to_vec(), first)
    }

    #[test]
    fn resumed_cosign_equals_signing_the_concatenation() {
        let (a, b, _, dir) = setup();
        for len in (0..=200).chain([10_240]) {
            let content: Bytes = (0..len)
                .map(|i| (i % 251) as u8)
                .collect::<Vec<u8>>()
                .into();
            let (sig, prefix) = Signature::sign_parts(&b, &content.clone().into());
            assert_eq!(sig, Signature::sign(&b, &content), "len {len}");
            assert_eq!(prefix.message().to_bytes(), content);
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
            let whole = Bytes::copy_from_slice(&data);
            let (sig, _) = Signature::sign_parts(&key, &whole.clone().into());
            assert_eq!(sig.tag.to_hex(), expected);
            // ...split in two at every offset...
            for split in 0..=data.len() {
                let (sig, _) = Signature::sign_parts(&key, &parts_at(&whole, split));
                assert_eq!(sig.tag.to_hex(), expected, "split {split}");
            }
            // ...and, where it is long enough, as prefix ‖ co-sign suffix.
            if data.len() >= 36 {
                let (prefix, first) = split_as_cosign(&data);
                for split in 0..=prefix.len() {
                    let message = parts_at(&prefix, split);
                    let (_, signed) = Signature::sign_parts(&key, &message);
                    assert_eq!(signed.co_sign(&first).tag.to_hex(), expected);
                    assert_eq!(
                        Signature::co_sign_parts(&key, &message, &first)
                            .tag
                            .to_hex(),
                        expected
                    );
                }
            }
        }
    }

    /// `message` as the parts `message[..split] ‖ message[split..]`, each
    /// in storage of its own (as a header and a payload are).
    fn parts_at(message: &[u8], split: usize) -> Parts {
        Parts {
            head: Bytes::copy_from_slice(&message[..split]),
            body: Bytes::copy_from_slice(&message[split..]),
        }
    }

    fn forget_memo() {
        VERIFY_MEMO.with(|memo| *memo.borrow_mut() = VerifyMemoStore::default());
    }

    /// Part-wise sign / co-sign / verify / batch verify / pair verify give
    /// the tags and verdicts of the contiguous calls at every split point,
    /// memo cold and warm.  (CI runs this under `FS_CRYPTO_BACKEND=scalar`
    /// too.)
    #[test]
    fn part_wise_operations_equal_the_contiguous_ones() {
        let (a, b, c, dir) = setup();
        for len in (0..=200).chain([10_240]) {
            let content: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let first = Signature::sign(&a, &content);
            let second = Signature::sign(&b, &co_sign_bytes(&content, &first));
            let third = Signature::sign(&c, &content);
            let splits: Vec<usize> = if len <= 200 {
                (0..=len).collect()
            } else {
                vec![0, 1, 22, 63, 64, 65, 5_000, len - 1, len]
            };
            for split in splits {
                let parts = parts_at(&content, split);
                assert_eq!(parts.len(), len);
                assert_eq!(parts.to_bytes(), content);
                forget_memo();
                // Cold memo: every check really hashes the two parts.
                assert!(first.verify_parts(&dir, &parts).is_ok(), "{len}/{split}");
                forget_memo();
                assert!(verify_cosign_pair_parts(&dir, &parts, &first, &second).is_ok());
                forget_memo();
                assert!(Signature::verify_batch_parts(&[&first, &third], &dir, &parts).is_ok());
                // Warm memo (seeded through parts): the contiguous calls hit it
                // and agree, and so do the part-wise ones.
                assert!(first.verify(&dir, &content).is_ok());
                assert!(verify_cosign_pair(&dir, &content, &first, &second).is_ok());
                assert!(Signature::verify_batch(&[&first, &third], &dir, &content).is_ok());
                assert!(third.verify_parts(&dir, &parts).is_ok());
                // Signing.
                let (signed, prefix) = Signature::sign_parts(&a, &parts);
                assert_eq!(signed, first, "{len}/{split}");
                assert_eq!(Signature::co_sign_parts(&b, &parts, &first), second);
                let (_, b_prefix) = Signature::sign_parts(&b, &parts);
                assert_eq!(b_prefix.co_sign(&first), second);
                assert_eq!(prefix.message().to_bytes(), content);
                // A wrong tag fails the same way on both paths.
                assert_eq!(
                    third.verify_parts(&dir, &parts_at(&co_sign_bytes(&content, &first), split)),
                    Err(SignatureError::Invalid)
                );
                assert_eq!(
                    verify_cosign_pair_parts(&dir, &parts, &first, &third),
                    verify_cosign_pair_uncached(&dir, &content, &first, &third),
                );
                assert_eq!(
                    Signature::verify_batch_parts(&[&first, &second], &dir, &parts),
                    Signature::verify_batch_uncached(&[&first, &second], &dir, &content),
                );
            }
        }
    }

    /// A memo hit requires the exact bytes: flipping any one byte of any
    /// part (or of the co-sign suffix) of a memoised message misses the
    /// memo and fails the real check, whatever the split of either side.
    #[test]
    fn memo_hit_never_accepts_a_message_differing_in_one_byte() {
        let (a, b, _, dir) = setup();
        let content: Vec<u8> = (0..90u8).collect();
        let stored = parts_at(&content, 22);
        let (first, prefix_a) = Signature::sign_parts(&a, &stored);
        let (_, prefix_b) = Signature::sign_parts(&b, &stored);
        let second = prefix_b.co_sign(&first);
        drop(prefix_a);
        // The untouched message hits, at any split.
        for split in [0, 22, 57, 90] {
            let probe = parts_at(&content, split);
            assert!(first.verify_parts(&dir, &probe).is_ok());
            assert!(verify_cosign_pair_parts(&dir, &probe, &first, &second).is_ok());
        }
        for flip in 0..content.len() {
            let mut forged = content.clone();
            forged[flip] ^= 0x40;
            for split in [0, 22, 57, 90] {
                let probe = parts_at(&forged, split);
                assert_eq!(
                    first.verify_parts(&dir, &probe),
                    Err(SignatureError::Invalid),
                    "byte {flip}, split {split}"
                );
                assert_eq!(first.verify(&dir, &forged), Err(SignatureError::Invalid));
                assert_eq!(
                    verify_cosign_pair_parts(&dir, &probe, &first, &second),
                    Err(SignatureError::Invalid)
                );
                assert_eq!(
                    Signature::verify_batch_parts(&[&first], &dir, &probe),
                    Err(SignatureError::Invalid)
                );
            }
        }
        // A different first signature changes the co-sign suffix only.
        let mut other_first = first.clone();
        other_first.tag.0[7] ^= 1;
        assert_eq!(
            verify_cosign_pair_parts(&dir, &stored, &other_first, &second),
            Err(SignatureError::Invalid)
        );
        // Shifting the boundary between message and suffix is still the
        // same bytes, and still a hit: the memo records bytes, not shapes.
        let suffixed = co_sign_bytes(&content, &first);
        assert!(second.verify(&dir, &suffixed).is_ok());
        // The entries hold refcounts of the signer's buffers, not copies.
        // A small message is kept as one compact copy; a large one by
        // refcounts of the signer's own buffers.
        let entry_of = |sig: &Signature| {
            VERIFY_MEMO.with(|memo| {
                match &memo.borrow().map[&(a.signer, a.hmac().fingerprint(), sig.tag)] {
                    MemoEntry::Compact(_) => None,
                    MemoEntry::Shared(shared) => Some(shared.message.clone()),
                }
            })
        };
        assert!(entry_of(&first).is_none());
        let large = parts_at(&vec![0x42u8; MEMO_SHARE_MIN], 22);
        let (large_sig, _) = Signature::sign_parts(&a, &large);
        let kept = entry_of(&large_sig).expect("kept by refcount");
        assert!(kept.head.same_view(&large.head) && kept.body.same_view(&large.body));
        // A part that is a window into a larger buffer is detached.
        let frame: Bytes = vec![0x42u8; MEMO_SHARE_MIN + 100].into();
        let windowed = Parts {
            head: frame.slice(..30),
            body: frame.slice(30..MEMO_SHARE_MIN + 30),
        };
        let (windowed_sig, _) = Signature::sign_parts(&a, &windowed);
        let kept = entry_of(&windowed_sig).expect("kept by refcount");
        assert_eq!(kept.to_bytes(), windowed.to_bytes());
        assert!(!kept.body.shares_storage(&frame) && !kept.head.shares_storage(&frame));
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
