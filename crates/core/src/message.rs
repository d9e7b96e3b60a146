//! Wire messages of the fail-signal layer.
//!
//! Two kinds of traffic exist around a fail-signal process:
//!
//! * **external**: [`FsOutput`] — the double-signed envelope that destinations
//!   accept as an output of the FS process (either a normal output of the
//!   wrapped machine or the process's unique fail-signal);
//! * **internal** (leader ↔ follower over the synchronous LAN):
//!   [`PairMessage`] — input-ordering relays, not-yet-ordered forwards, and
//!   single-signed output candidates awaiting comparison.

use fs_common::codec::{Decoder, Encoder, Wire};
use fs_common::error::CodecError;
use fs_common::fasthash::FastMap;
use fs_common::id::{FsId, MemberId};
use fs_common::{Bytes, SignatureError};
use fs_crypto::keys::{KeyDirectory, SignerId, SigningKey};
use fs_crypto::sha256::Digest;
use fs_crypto::sig::{
    verify_cosign_pair, verify_cosign_pair_parts, verify_cosign_pair_uncached, Parts, Signature,
    SignedPrefix,
};
use fs_smr::machine::Endpoint;

/// Encodes a logical endpoint (defined in `fs-smr`) onto the wire.
pub fn encode_endpoint(endpoint: Endpoint, enc: &mut Encoder) {
    match endpoint {
        Endpoint::LocalApp => enc.put_u8(0),
        Endpoint::Peer(m) => {
            enc.put_u8(1);
            enc.put_member(m);
        }
        Endpoint::Environment => enc.put_u8(2),
        Endpoint::Broadcast => enc.put_u8(3),
    }
}

/// Decodes a logical endpoint from the wire.
///
/// # Errors
///
/// Returns [`CodecError::UnknownTag`] for an unrecognised endpoint tag.
pub fn decode_endpoint(dec: &mut Decoder<'_>) -> Result<Endpoint, CodecError> {
    match dec.get_u8()? {
        0 => Ok(Endpoint::LocalApp),
        1 => Ok(Endpoint::Peer(MemberId(dec.get_u32()?))),
        2 => Ok(Endpoint::Environment),
        3 => Ok(Endpoint::Broadcast),
        t => Err(CodecError::UnknownTag(t)),
    }
}

/// The exact encoded length of a logical endpoint.
pub fn endpoint_len(endpoint: Endpoint) -> usize {
    match endpoint {
        Endpoint::Peer(_) => 5,
        _ => 1,
    }
}

/// The content of an FS-process output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsContent {
    /// A normal output of the wrapped machine.
    Output {
        /// The pair-wide output sequence number (assigned in the order the
        /// machine produced the outputs; identical at both replicas).
        output_seq: u64,
        /// The logical destination of the output.
        dest: Endpoint,
        /// The output bytes produced by the wrapped machine (refcount-shared
        /// with the comparison pools and the transport).
        bytes: Bytes,
    },
    /// The fail-signal unique to this FS process.
    FailSignal,
}

impl Wire for FsContent {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            FsContent::Output {
                output_seq,
                dest,
                bytes,
            } => {
                enc.put_u8(0);
                enc.put_u64(*output_seq);
                encode_endpoint(*dest, enc);
                enc.put_shared(bytes);
            }
            FsContent::FailSignal => enc.put_u8(1),
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(FsContent::Output {
                output_seq: dec.get_u64()?,
                dest: decode_endpoint(dec)?,
                bytes: dec.get_bytes_shared()?,
            }),
            1 => Ok(FsContent::FailSignal),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            FsContent::Output { dest, bytes, .. } => 8 + endpoint_len(*dest) + 4 + bytes.len(),
            FsContent::FailSignal => 0,
        }
    }
}

fn put_signature(sig: &Signature, enc: &mut Encoder) {
    enc.put_process(sig.signer.0);
    enc.put_bytes(sig.tag.as_bytes());
}

fn get_signature(dec: &mut Decoder<'_>) -> Result<Signature, CodecError> {
    let signer = SignerId(dec.get_process()?);
    let bytes = dec.get_bytes()?;
    if bytes.len() != 32 {
        return Err(CodecError::UnexpectedEof {
            wanted: 32,
            available: bytes.len(),
        });
    }
    let mut tag = [0u8; 32];
    tag.copy_from_slice(bytes);
    Ok(Signature {
        signer,
        tag: Digest(tag),
    })
}

/// The bytes over which an FS-process output is signed: the FS identity plus
/// the canonical encoding of the content, as one buffer.
///
/// This materialises a copy of the output bytes; the wrapper, interceptor
/// and receiver never call it — they sign and verify over
/// [`signing_parts`].  It remains the definition those parts must
/// concatenate to, and what the `*_with` constructors and verifiers below
/// accept.
pub fn signing_bytes(fs: FsId, content: &FsContent) -> Bytes {
    let mut enc = Encoder::with_capacity(4 + content.encoded_len());
    enc.put_u32(fs.0);
    content.encode(&mut enc);
    enc.finish()
}

/// [`signing_bytes`] without the copy: the signed header (FS identity, tag,
/// sequence number, destination, length prefix) freshly encoded, and the
/// output bytes as the refcounted buffer `content` already holds.
/// `signing_parts(fs, c).to_bytes() == signing_bytes(fs, c)`.
pub fn signing_parts(fs: FsId, content: &FsContent) -> Parts {
    let mut enc = Encoder::with_capacity(4 + 1 + 8 + 5 + 4);
    enc.put_u32(fs.0);
    match content {
        FsContent::Output {
            output_seq,
            dest,
            bytes,
        } => {
            enc.put_u8(0);
            enc.put_u64(*output_seq);
            encode_endpoint(*dest, &mut enc);
            enc.put_u32(bytes.len() as u32);
            Parts {
                head: enc.finish(),
                body: bytes.clone(),
            }
        }
        FsContent::FailSignal => {
            enc.put_u8(1);
            enc.finish().into()
        }
    }
}

fn co_signing_bytes(content_bytes: &[u8], first: &Signature) -> Vec<u8> {
    let mut buf = Vec::with_capacity(content_bytes.len() + 36);
    buf.extend_from_slice(content_bytes);
    buf.extend_from_slice(&(first.signer.0).0.to_le_bytes());
    buf.extend_from_slice(first.tag.as_bytes());
    buf
}

/// A double-signed output of a fail-signal process (the only form a
/// destination treats as valid, §2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsOutput {
    /// The emitting FS process.
    pub fs: FsId,
    /// The signed content.
    pub content: FsContent,
    /// The first signature (by the wrapper that produced/holds the content).
    pub first: Signature,
    /// The counter-signature (by the wrapper that compared it successfully,
    /// or — for a fail-signal — by the wrapper that is emitting it).
    pub second: Signature,
}

impl FsOutput {
    /// Builds a double-signed output: `first_key` signs the content, then
    /// `second_key` counter-signs.  Both signatures stream the signed header
    /// and the output bytes; the content is never copied.
    pub fn sign(
        fs: FsId,
        content: FsContent,
        first_key: &SigningKey,
        second_key: &SigningKey,
    ) -> Self {
        let (first, _) = Signature::sign_parts(first_key, &signing_parts(fs, &content));
        Self::counter_sign(fs, content, first, second_key)
    }

    /// Counter-signs a content already signed once by the remote wrapper
    /// (`first`), producing the valid double-signed output.
    pub fn counter_sign(
        fs: FsId,
        content: FsContent,
        first: Signature,
        second_key: &SigningKey,
    ) -> Self {
        let second = Signature::co_sign_parts(second_key, &signing_parts(fs, &content), &first);
        Self {
            fs,
            content,
            first,
            second,
        }
    }

    /// Like [`FsOutput::counter_sign`], but takes the content's signing
    /// bytes already encoded by the caller (the wrapper computes them once
    /// per output and reuses them for sign, co-sign and verify).
    ///
    /// `content_bytes` must be `signing_bytes(fs, &content)`; passing
    /// anything else produces an output that fails verification.
    pub fn counter_sign_with(
        fs: FsId,
        content: FsContent,
        content_bytes: &[u8],
        first: Signature,
        second_key: &SigningKey,
    ) -> Self {
        let second = Signature::sign(second_key, &co_signing_bytes(content_bytes, &first));
        Self {
            fs,
            content,
            first,
            second,
        }
    }

    /// [`FsOutput::counter_sign_with`] for the wrapper's own case — the
    /// counter-signing key is the one that already signed the same content
    /// for the partner — resumed from that signature's midstate so the
    /// content is not hashed a second time.  Byte-identical to
    /// `counter_sign_with(fs, content, &signing_bytes(fs, &content), first, key)`.
    ///
    /// `signed` must come from signing `signing_parts(fs, &content)`;
    /// anything else produces an output that fails verification.
    pub fn counter_sign_resumed(
        fs: FsId,
        content: FsContent,
        signed: &SignedPrefix,
        first: Signature,
    ) -> Self {
        let second = signed.co_sign(&first);
        Self {
            fs,
            content,
            first,
            second,
        }
    }

    /// Verifies that this is a valid output of the FS process whose wrapper
    /// signers are `pair` (in either order).
    ///
    /// Outputs that verified successfully are memoised host-side per thread,
    /// keyed by `(fs, both signatures, expected pair)` with the content held
    /// in the entry: the same double-signed frame is checked at every
    /// co-hosted simulated destination, and for the duplicates this skips
    /// the header encoding and both HMAC probes.  Verification is a pure
    /// function of the key-plus-content (the underlying signature layer
    /// additionally ties its own memo to the key material), so the verdict —
    /// and therefore every simulation result — is identical with or without
    /// the memo.  Failures are never cached.
    ///
    /// Where the output bytes are a buffer of their own — the spliced body
    /// of a frame, i.e. the very buffer the signer signed and the signature
    /// memo already pins — the entry holds a refcount of it, and a re-check
    /// of the same frame compares pointers, not bytes.  A window into a
    /// contiguous frame is stored as a compact copy instead: a memo entry
    /// must not keep whole frames alive.
    ///
    /// # Errors
    ///
    /// Returns the reason the output is invalid — unknown or duplicate
    /// signer, an outsider's signature, or a failed verification.
    pub fn verify(
        &self,
        directory: &KeyDirectory,
        pair: (SignerId, SignerId),
    ) -> Result<(), SignatureError> {
        const OUTPUT_MEMO_MAX: usize = 8 * 1024;
        const OUTPUT_MEMO_MAX_BYTES: usize = 32 * 1024 * 1024;
        type OutputMemoKey = (FsId, Signature, Signature, (SignerId, SignerId), (u64, u64));
        /// The memo map plus the running total of retained content bytes.
        type OutputMemo = (FastMap<OutputMemoKey, FsContent>, usize);
        thread_local! {
            static OUTPUT_MEMO: std::cell::RefCell<OutputMemo> =
                std::cell::RefCell::new((FastMap::default(), 0));
        }
        // Tie the memo entry to the concrete key material: a verdict cached
        // under one key directory must never satisfy another.
        let (Ok(first_key), Ok(second_key)) = (
            directory.lookup(self.first.signer),
            directory.lookup(self.second.signer),
        ) else {
            return self.verify_parts(directory, pair);
        };
        let fingerprints = (first_key.hmac_fingerprint(), second_key.hmac_fingerprint());
        // Normalise the expected pair so the two delivery orders share an
        // entry (verification accepts either order).
        let pair_key = if pair.0 <= pair.1 {
            pair
        } else {
            (pair.1, pair.0)
        };
        let key = (
            self.fs,
            self.first.clone(),
            self.second.clone(),
            pair_key,
            fingerprints,
        );
        let hit = OUTPUT_MEMO.with(|memo| {
            memo.borrow()
                .0
                .get(&key)
                .is_some_and(|cached| *cached == self.content)
        });
        if hit {
            return Ok(());
        }
        self.verify_parts(directory, pair)?;
        // Keep the output bytes themselves when they are a buffer of their
        // own, a detached copy when they are a window into a frame.
        let mut kept = self.content.clone();
        let mut stored = 0;
        if let FsContent::Output { bytes, .. } = &mut kept {
            *bytes = bytes.compact();
            stored = bytes.len();
        }
        OUTPUT_MEMO.with(|memo| {
            let (map, bytes_held) = &mut *memo.borrow_mut();
            if map.len() >= OUTPUT_MEMO_MAX || *bytes_held >= OUTPUT_MEMO_MAX_BYTES {
                map.clear();
                *bytes_held = 0;
            }
            *bytes_held += stored;
            map.insert(key, kept);
        });
        Ok(())
    }

    /// The uncached half of [`FsOutput::verify`]: the signer-pair check and
    /// both signatures over [`signing_parts`].
    fn verify_parts(
        &self,
        directory: &KeyDirectory,
        pair: (SignerId, SignerId),
    ) -> Result<(), SignatureError> {
        self.check_signer_pair(pair)?;
        // Both MACs share the content's message schedule (the co-signature
        // differs only in a 36-byte suffix), and each memo composes as
        // before: a hit answers without touching the schedule.
        verify_cosign_pair_parts(
            directory,
            &signing_parts(self.fs, &self.content),
            &self.first,
            &self.second,
        )
    }

    /// The structural half of a destination-side check: distinct signers,
    /// both belonging to `pair` (in either order).
    fn check_signer_pair(&self, pair: (SignerId, SignerId)) -> Result<(), SignatureError> {
        if self.first.signer == self.second.signer {
            return Err(SignatureError::DuplicateSigner);
        }
        let pair_ok = (self.first.signer == pair.0 && self.second.signer == pair.1)
            || (self.first.signer == pair.1 && self.second.signer == pair.0);
        if !pair_ok {
            return Err(SignatureError::MissingCoSignature);
        }
        Ok(())
    }

    /// Like [`FsOutput::verify_with`], but always recomputes both HMACs,
    /// bypassing every host-side memo.  The `hotpath` benchmark uses this to
    /// measure the true cryptographic cost of a destination-side check.
    ///
    /// # Errors
    ///
    /// See [`FsOutput::verify`].
    pub fn verify_with_uncached(
        &self,
        directory: &KeyDirectory,
        content_bytes: &[u8],
        pair: (SignerId, SignerId),
    ) -> Result<(), SignatureError> {
        self.check_signer_pair(pair)?;
        verify_cosign_pair_uncached(directory, content_bytes, &self.first, &self.second)
    }

    /// Like [`FsOutput::verify`], but takes the content's signing bytes
    /// already encoded by the caller.
    ///
    /// # Errors
    ///
    /// See [`FsOutput::verify`].
    pub fn verify_with(
        &self,
        directory: &KeyDirectory,
        content_bytes: &[u8],
        pair: (SignerId, SignerId),
    ) -> Result<(), SignatureError> {
        self.check_signer_pair(pair)?;
        verify_cosign_pair(directory, content_bytes, &self.first, &self.second)
    }

    /// True when this output is the process's fail-signal.
    pub fn is_fail_signal(&self) -> bool {
        matches!(self.content, FsContent::FailSignal)
    }
}

/// The exact encoded length of a [`Signature`] (process id + length prefix +
/// 32-byte tag).
const SIGNATURE_LEN: usize = 4 + 4 + 32;

impl Wire for FsOutput {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.fs.0);
        self.content.encode(enc);
        put_signature(&self.first, enc);
        put_signature(&self.second, enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            fs: FsId(dec.get_u32()?),
            content: FsContent::decode(dec)?,
            first: get_signature(dec)?,
            second: get_signature(dec)?,
        })
    }
    fn encoded_len(&self) -> usize {
        4 + self.content.encoded_len() + 2 * SIGNATURE_LEN
    }
}

/// Messages exchanged between the two wrapper objects of one FS pair over
/// their synchronous LAN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairMessage {
    /// Leader → follower: an external input relayed in the order the leader
    /// decided (the appendix's `receiveDouble`).
    Ordered {
        /// The position of the input in the leader's order.
        order_index: u64,
        /// The logical source endpoint the input came from.
        source: Endpoint,
        /// The input bytes (already verified and stripped by the leader).
        bytes: Bytes,
    },
    /// Follower → leader: an input the follower received externally but has
    /// not yet seen ordered by the leader (t1 = 0 in the appendix).
    ForwardNew {
        /// The logical source endpoint the input came from.
        source: Endpoint,
        /// The input bytes (already verified and stripped by the follower).
        bytes: Bytes,
    },
    /// Either direction: a single-signed copy of a locally produced output,
    /// submitted for comparison by the remote Compare (`receiveSingle`).
    Candidate {
        /// The pair-wide output sequence number.
        output_seq: u64,
        /// The logical destination of the output.
        dest: Endpoint,
        /// The output bytes.
        bytes: Bytes,
        /// The sender's signature over the corresponding
        /// [`FsContent::Output`] signing bytes.
        signature: Signature,
    },
}

impl PairMessage {
    /// A short tag naming the variant, for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            PairMessage::Ordered { .. } => "ordered",
            PairMessage::ForwardNew { .. } => "forward-new",
            PairMessage::Candidate { .. } => "candidate",
        }
    }
}

impl Wire for PairMessage {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PairMessage::Ordered {
                order_index,
                source,
                bytes,
            } => {
                enc.put_u8(0);
                enc.put_u64(*order_index);
                encode_endpoint(*source, enc);
                enc.put_shared(bytes);
            }
            PairMessage::ForwardNew { source, bytes } => {
                enc.put_u8(1);
                encode_endpoint(*source, enc);
                enc.put_shared(bytes);
            }
            PairMessage::Candidate {
                output_seq,
                dest,
                bytes,
                signature,
            } => {
                enc.put_u8(2);
                enc.put_u64(*output_seq);
                encode_endpoint(*dest, enc);
                enc.put_shared(bytes);
                put_signature(signature, enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(PairMessage::Ordered {
                order_index: dec.get_u64()?,
                source: decode_endpoint(dec)?,
                bytes: dec.get_bytes_shared()?,
            }),
            1 => Ok(PairMessage::ForwardNew {
                source: decode_endpoint(dec)?,
                bytes: dec.get_bytes_shared()?,
            }),
            2 => Ok(PairMessage::Candidate {
                output_seq: dec.get_u64()?,
                dest: decode_endpoint(dec)?,
                bytes: dec.get_bytes_shared()?,
                signature: get_signature(dec)?,
            }),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            PairMessage::Ordered { source, bytes, .. } => {
                8 + endpoint_len(*source) + 4 + bytes.len()
            }
            PairMessage::ForwardNew { source, bytes } => endpoint_len(*source) + 4 + bytes.len(),
            PairMessage::Candidate { dest, bytes, .. } => {
                8 + endpoint_len(*dest) + 4 + bytes.len() + SIGNATURE_LEN
            }
        }
    }
}

/// Everything a wrapper object can receive: a message from its pair partner,
/// a double-signed output from another FS process, or a raw input from a
/// trusted local client (e.g. the invocation layer above it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsoInbound {
    /// A message from the other wrapper of the same pair.
    Pair(PairMessage),
    /// A (claimed) double-signed output from another FS process.
    External(FsOutput),
    /// A raw input from a trusted, co-located client process.
    Raw(Bytes),
}

impl Wire for FsoInbound {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            FsoInbound::Pair(m) => {
                enc.put_u8(0);
                m.encode(enc);
            }
            FsoInbound::External(o) => {
                enc.put_u8(1);
                o.encode(enc);
            }
            FsoInbound::Raw(bytes) => {
                enc.put_u8(2);
                enc.put_shared(bytes);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(FsoInbound::Pair(PairMessage::decode(dec)?)),
            1 => Ok(FsoInbound::External(FsOutput::decode(dec)?)),
            2 => Ok(FsoInbound::Raw(dec.get_bytes_shared()?)),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            FsoInbound::Pair(m) => m.encoded_len(),
            FsoInbound::External(o) => o.encoded_len(),
            FsoInbound::Raw(bytes) => 4 + bytes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_common::id::ProcessId;
    use fs_common::rng::DetRng;
    use fs_crypto::keys::provision;

    fn keys() -> (
        SigningKey,
        SigningKey,
        SigningKey,
        std::sync::Arc<KeyDirectory>,
    ) {
        let mut rng = DetRng::new(77);
        let (mut keys, dir) = provision([ProcessId(1), ProcessId(2), ProcessId(3)], &mut rng);
        (
            keys.remove(&SignerId(ProcessId(1))).unwrap(),
            keys.remove(&SignerId(ProcessId(2))).unwrap(),
            keys.remove(&SignerId(ProcessId(3))).unwrap(),
            dir,
        )
    }

    #[test]
    fn endpoint_round_trip() {
        for e in [
            Endpoint::LocalApp,
            Endpoint::Peer(MemberId(7)),
            Endpoint::Environment,
            Endpoint::Broadcast,
        ] {
            let mut enc = Encoder::new();
            encode_endpoint(e, &mut enc);
            let bytes = enc.finish_vec();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(decode_endpoint(&mut dec).unwrap(), e);
        }
        let mut dec = Decoder::new(&[9]);
        assert!(decode_endpoint(&mut dec).is_err());
    }

    #[test]
    fn fs_content_round_trip() {
        let contents = vec![
            FsContent::Output {
                output_seq: 3,
                dest: Endpoint::Peer(MemberId(1)),
                bytes: vec![1, 2].into(),
            },
            FsContent::FailSignal,
        ];
        for c in contents {
            assert_eq!(FsContent::from_wire(&c.to_wire()).unwrap(), c);
        }
    }

    #[test]
    fn fs_output_sign_and_verify() {
        let (a, b, c, dir) = keys();
        let content = FsContent::Output {
            output_seq: 0,
            dest: Endpoint::LocalApp,
            bytes: b"out".to_vec().into(),
        };
        let output = FsOutput::sign(FsId(4), content.clone(), &a, &b);
        assert!(output.verify(&dir, (a.signer, b.signer)).is_ok());
        assert!(output.verify(&dir, (b.signer, a.signer)).is_ok());
        // Wrong expected pair.
        assert_eq!(
            output.verify(&dir, (a.signer, c.signer)).unwrap_err(),
            SignatureError::MissingCoSignature
        );
        assert!(!output.is_fail_signal());
        // Wire round trip preserves verifiability.
        let decoded = FsOutput::from_wire(&output.to_wire()).unwrap();
        assert_eq!(decoded, output);
        assert!(decoded.verify(&dir, (a.signer, b.signer)).is_ok());
    }

    #[test]
    fn tampered_fs_output_fails_verification() {
        let (a, b, _, dir) = keys();
        let content = FsContent::Output {
            output_seq: 0,
            dest: Endpoint::LocalApp,
            bytes: b"out".to_vec().into(),
        };
        let mut output = FsOutput::sign(FsId(4), content, &a, &b);
        // Tamper with the content after signing.
        output.content = FsContent::Output {
            output_seq: 0,
            dest: Endpoint::LocalApp,
            bytes: b"OUT".to_vec().into(),
        };
        assert!(output.verify(&dir, (a.signer, b.signer)).is_err());
    }

    #[test]
    fn fail_signal_counter_sign_path() {
        let (a, b, _, dir) = keys();
        let fs = FsId(9);
        // At start-up, wrapper A is handed the fail-signal single-signed by B.
        let bytes = signing_bytes(fs, &FsContent::FailSignal);
        let first = Signature::sign(&b, &bytes);
        // When A decides to fail it counter-signs and emits.
        let signal = FsOutput::counter_sign(fs, FsContent::FailSignal, first, &a);
        assert!(signal.is_fail_signal());
        assert!(signal.verify(&dir, (a.signer, b.signer)).is_ok());
    }

    /// The resumed counter-signature is the two-pass one, byte for byte, at
    /// every content length around the block and padding boundaries.
    #[test]
    fn resumed_counter_signature_equals_two_pass() {
        let (a, b, _, dir) = keys();
        let fs = FsId(4);
        let pair = (a.signer, b.signer);
        for len in (0..=200).chain([10_240]) {
            let content = FsContent::Output {
                output_seq: 11,
                dest: Endpoint::Peer(MemberId(1)),
                bytes: (0..len)
                    .map(|i| (i % 251) as u8)
                    .collect::<Vec<u8>>()
                    .into(),
            };
            let bytes = signing_bytes(fs, &content);
            // `b` signs its own copy for the partner, then counter-signs
            // `a`'s signature over the same content.
            let parts = signing_parts(fs, &content);
            assert_eq!(parts.to_bytes(), bytes, "payload {len}");
            let (own, signed) = Signature::sign_parts(&b, &parts);
            assert_eq!(own, Signature::sign(&b, &bytes), "payload {len}");
            let first = Signature::sign(&a, &bytes);
            let resumed =
                FsOutput::counter_sign_resumed(fs, content.clone(), &signed, first.clone());
            let two_pass = FsOutput::counter_sign_with(fs, content, &bytes, first, &b);
            assert_eq!(resumed, two_pass, "payload {len}");
            assert!(resumed.verify(&dir, pair).is_ok(), "payload {len}");
            assert!(
                resumed.verify_with_uncached(&dir, &bytes, pair).is_ok(),
                "payload {len}"
            );
        }
    }

    #[test]
    fn forged_double_signature_is_rejected() {
        let (a, b, c, dir) = keys();
        let content = FsContent::FailSignal;
        // c tries to forge a fail-signal for the pair (a, b).
        let forged = FsOutput::sign(FsId(1), content, &c, &c);
        assert!(forged.verify(&dir, (a.signer, b.signer)).is_err());
    }

    #[test]
    fn pair_message_round_trip() {
        let (a, _, _, _) = keys();
        let sig = Signature::sign(&a, b"candidate");
        let messages = vec![
            PairMessage::Ordered {
                order_index: 5,
                source: Endpoint::LocalApp,
                bytes: vec![1].into(),
            },
            PairMessage::ForwardNew {
                source: Endpoint::Peer(MemberId(2)),
                bytes: vec![2, 3].into(),
            },
            PairMessage::Candidate {
                output_seq: 7,
                dest: Endpoint::Peer(MemberId(0)),
                bytes: vec![9; 40].into(),
                signature: sig,
            },
        ];
        for m in messages {
            assert_eq!(
                PairMessage::from_wire(&m.to_wire()).unwrap(),
                m,
                "{}",
                m.kind()
            );
        }
    }

    #[test]
    fn inbound_round_trip() {
        let (a, b, _, _) = keys();
        let output = FsOutput::sign(
            FsId(1),
            FsContent::Output {
                output_seq: 0,
                dest: Endpoint::LocalApp,
                bytes: vec![1].into(),
            },
            &a,
            &b,
        );
        let inbounds = vec![
            FsoInbound::Pair(PairMessage::ForwardNew {
                source: Endpoint::LocalApp,
                bytes: vec![].into(),
            }),
            FsoInbound::External(output),
            FsoInbound::Raw(b"app request".to_vec().into()),
        ];
        for i in inbounds {
            assert_eq!(FsoInbound::from_wire(&i.to_wire()).unwrap(), i);
        }
        assert!(FsoInbound::from_wire(&[9]).is_err());
    }

    #[test]
    fn malformed_signature_length_is_rejected() {
        // Craft an FsOutput encoding with a truncated signature tag.
        let mut enc = Encoder::new();
        enc.put_u32(1);
        FsContent::FailSignal.encode(&mut enc);
        enc.put_process(ProcessId(1));
        enc.put_bytes(&[0u8; 16]); // wrong length
        let bytes = enc.finish_vec();
        assert!(FsOutput::from_wire(&bytes).is_err());
    }
}
