//! Wire messages of the fail-signal layer.
//!
//! Two kinds of traffic exist around a fail-signal process:
//!
//! * **external**: [`FsOutput`] — the double-signed envelope that destinations
//!   accept as an output of the FS process (either a normal output of the
//!   wrapped machine or the process's unique fail-signal);
//! * **internal** (leader ↔ follower over the synchronous LAN):
//!   [`PairMessage`] — input-ordering relays, not-yet-ordered forwards, and
//!   each wrapper's signature share over an output awaiting comparison.
//!
//! ## What is signed
//!
//! The paper signs with "MD5 using RSA" (§4): hash the message once, sign
//! the digest.  So does this layer.  The signed [`Statement`] for an output
//! is its header exactly as the frame encodes it, followed by the SHA-256 of
//! its bytes:
//!
//! ```text
//! fs:u32 ‖ 0:u8 ‖ output_seq:u64 ‖ dest:1|5 ‖ body_len:u32 ‖ SHA-256(body)     50 or 54 bytes
//! fs:u32 ‖ 1:u8                                                     the fail-signal, 5 bytes
//! ```
//!
//! (integers little-endian) — that is [`signing_bytes`] with the body
//! replaced by its digest.  Every signature is `HMAC(key, statement)`: a
//! double-signed output carries two such **shares**, one by each wrapper of
//! the pair, over the same statement.  Nothing is nested.  A destination
//! needs to know that *both* wrappers vouched for *this* output, and the
//! statement names the output completely — FS process, sequence number,
//! destination, length, digest — so two shares that verify over it cannot
//! come from two different outputs, which is all that signing over the
//! partner's signature ever added.  Each wrapper therefore signs an output
//! exactly once: what it sends its partner for comparison *is* its share,
//! and what it transmits is its own share next to the partner's — the
//! leader's first, so both wrappers transmit the same bytes (a destination
//! accepts either order).
//!
//! One rule for every body size; frames still carry the bytes themselves.
//! The body is hashed once per content ([`crate::digest::body_digest`]) and
//! every sign, candidate check, comparison, destination check and duplicate
//! test runs over at most 54 bytes.

use fs_common::codec::{Decoder, Encoder, Wire};
use fs_common::error::CodecError;
use fs_common::id::{FsId, MemberId};
use fs_common::{Bytes, SignatureError};
use fs_crypto::keys::{KeyDirectory, SignerId, SigningKey};
use fs_crypto::sha256::{Digest, Sha256, DIGEST_LEN};
use fs_crypto::sig::{check_share_signers, Signature};
use fs_smr::machine::Endpoint;

use crate::digest::body_digest;

/// The wire form of a logical endpoint (defined in `fs-smr`): a tag byte
/// and, for a peer, its member number.  The one place the tags are chosen —
/// the frame codec and the signed [`Statement`] both write this.
fn endpoint_code(endpoint: Endpoint) -> (u8, Option<MemberId>) {
    match endpoint {
        Endpoint::LocalApp => (0, None),
        Endpoint::Peer(m) => (1, Some(m)),
        Endpoint::Environment => (2, None),
        Endpoint::Broadcast => (3, None),
    }
}

/// Encodes a logical endpoint onto the wire.
pub fn encode_endpoint(endpoint: Endpoint, enc: &mut Encoder) {
    let (tag, member) = endpoint_code(endpoint);
    enc.put_u8(tag);
    if let Some(m) = member {
        enc.put_member(m);
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

fn put_digest(digest: &Digest, enc: &mut Encoder) {
    enc.put_bytes(digest.as_bytes());
}

fn get_digest(dec: &mut Decoder<'_>) -> Result<Digest, CodecError> {
    let bytes = dec.get_bytes()?;
    let digest = <[u8; DIGEST_LEN]>::try_from(bytes).map_err(|_| CodecError::UnexpectedEof {
        wanted: DIGEST_LEN,
        available: bytes.len(),
    })?;
    Ok(Digest(digest))
}

fn put_signature(sig: &Signature, enc: &mut Encoder) {
    enc.put_process(sig.signer.0);
    put_digest(&sig.tag, enc);
}

fn get_signature(dec: &mut Decoder<'_>) -> Result<Signature, CodecError> {
    Ok(Signature {
        signer: SignerId(dec.get_process()?),
        tag: get_digest(dec)?,
    })
}

/// The FS identity plus the canonical encoding of the content, as one
/// buffer: `header ‖ body`.
///
/// This is the definition the signed [`Statement`] is derived from — the
/// statement is these bytes with the body replaced by its SHA-256 — and the
/// length the simulated cost model charges a hash pass over.  It
/// materialises a copy of the output bytes; the wrapper, interceptor and
/// receiver never call it.
pub fn signing_bytes(fs: FsId, content: &FsContent) -> Bytes {
    let mut enc = Encoder::with_capacity(4 + content.encoded_len());
    enc.put_u32(fs.0);
    content.encode(&mut enc);
    enc.finish()
}

/// The longest [`Statement`]: the signed header of an output addressed to a
/// peer (22 bytes) followed by the body digest.
const STATEMENT_MAX: usize = 4 + 1 + 8 + 5 + 4 + DIGEST_LEN;

/// What a wrapper actually signs for one output (see the module docs): the
/// signed header of [`signing_bytes`] followed by the SHA-256 of the body —
/// or, for the fail-signal, `signing_bytes` itself.  Lives on the stack.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Statement {
    bytes: [u8; STATEMENT_MAX],
    len: usize,
    signed_len: usize,
}

impl Statement {
    /// The statement for output `output_seq` of `fs`, addressed to `dest`,
    /// whose body is `body_len` bytes long and hashes to `body_digest`.
    pub fn output(
        fs: FsId,
        output_seq: u64,
        dest: Endpoint,
        body_len: usize,
        body_digest: &Digest,
    ) -> Self {
        let mut statement = Self::header(fs, 0);
        statement.put(&output_seq.to_le_bytes());
        let (tag, member) = endpoint_code(dest);
        statement.put(&[tag]);
        if let Some(m) = member {
            statement.put(&m.0.to_le_bytes());
        }
        statement.put(&(body_len as u32).to_le_bytes());
        statement.signed_len = statement.len + body_len;
        statement.put(body_digest.as_bytes());
        statement
    }

    /// The fail-signal statement of `fs` (no body: identical to
    /// [`signing_bytes`], so pre-armed signatures never changed).
    pub fn fail_signal(fs: FsId) -> Self {
        Self::header(fs, 1)
    }

    /// The statement for `content`, its body digested by `digest_of` —
    /// [`body_digest`] on the memoised paths, [`Sha256::digest`] on the
    /// reference ones.
    pub fn of(fs: FsId, content: &FsContent, digest_of: impl FnOnce(&Bytes) -> Digest) -> Self {
        match content {
            FsContent::Output {
                output_seq,
                dest,
                bytes,
            } => Self::output(fs, *output_seq, *dest, bytes.len(), &digest_of(bytes)),
            FsContent::FailSignal => Self::fail_signal(fs),
        }
    }

    fn header(fs: FsId, tag: u8) -> Self {
        let mut statement = Self {
            bytes: [0; STATEMENT_MAX],
            len: 0,
            signed_len: 5,
        };
        statement.put(&fs.0.to_le_bytes());
        statement.put(&[tag]);
        statement
    }

    fn put(&mut self, bytes: &[u8]) {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// The bytes the signatures cover.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// The length of the content this statement stands for —
    /// `signing_bytes(fs, content).len()` — which is what the simulated
    /// cost model is charged a hash pass over.
    pub fn signed_len(&self) -> usize {
        self.signed_len
    }
}

impl std::fmt::Debug for Statement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Statement({:02x?})", self.as_bytes())
    }
}

/// A double-signed output of a fail-signal process (the only form a
/// destination treats as valid, §2.1): the content and the two wrappers'
/// signature shares over its [`Statement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsOutput {
    /// The emitting FS process.
    pub fs: FsId,
    /// The signed content.
    pub content: FsContent,
    /// One wrapper's share (wrappers write the leader's here).
    pub first: Signature,
    /// The other wrapper's share (wrappers write the follower's here).
    pub second: Signature,
}

impl FsOutput {
    /// Builds a double-signed output: `first_key` and `second_key` each sign
    /// the content's [`Statement`].
    ///
    /// This is the reference constructor — what tests, provisioning and the
    /// benchmarks call: it hashes the body directly, through no memo.  (A
    /// wrapper holds one key only: it signs over [`body_digest`] and fills
    /// in the partner's share as received; the outputs are identical.)
    pub fn sign(
        fs: FsId,
        content: FsContent,
        first_key: &SigningKey,
        second_key: &SigningKey,
    ) -> Self {
        let statement = Statement::of(fs, &content, |body| Sha256::digest(body));
        Self {
            fs,
            first: Signature::sign(first_key, statement.as_bytes()),
            second: Signature::sign(second_key, statement.as_bytes()),
            content,
        }
    }

    /// Verifies that this is a valid output of the FS process whose wrapper
    /// signers are `pair` (in either order).
    ///
    /// The body is digested once ([`body_digest`]: found by buffer address
    /// when this very buffer was digested before, by content when an equal
    /// one was) and the two shares are checked over the statement — at most
    /// 54 bytes — each through the signature layer's own per-thread memo.
    /// The same double-signed frame is checked at every co-hosted simulated
    /// destination; for the duplicates that is one address lookup and two
    /// memo probes.  Verification is a pure function of keys and content,
    /// so the verdict — and therefore every simulation result — is
    /// identical with or without the memos.
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
        self.verify_digesting(directory, pair).map(drop)
    }

    /// [`FsOutput::verify`], handing back the body digest it built the
    /// statement from (`None` for the fail-signal) so a caller that needs it
    /// next does not ask for it again.
    pub(crate) fn verify_digesting(
        &self,
        directory: &KeyDirectory,
        pair: (SignerId, SignerId),
    ) -> Result<Option<Digest>, SignatureError> {
        check_share_signers(&self.first, &self.second, pair)?;
        let mut digest = None;
        let statement = Statement::of(self.fs, &self.content, |body| {
            *digest.insert(body_digest(body))
        });
        self.first.verify(directory, statement.as_bytes())?;
        self.second.verify(directory, statement.as_bytes())?;
        Ok(digest)
    }

    /// Like [`FsOutput::verify`], but hashes the body and recomputes both
    /// HMACs every time, bypassing every host-side memo — the reference
    /// verdict, and the true cryptographic cost of a destination-side check.
    ///
    /// # Errors
    ///
    /// See [`FsOutput::verify`].
    pub fn verify_uncached(
        &self,
        directory: &KeyDirectory,
        pair: (SignerId, SignerId),
    ) -> Result<(), SignatureError> {
        check_share_signers(&self.first, &self.second, pair)?;
        let statement = Statement::of(self.fs, &self.content, |body| Sha256::digest(body));
        self.first
            .verify_uncached(directory, statement.as_bytes())?;
        self.second.verify_uncached(directory, statement.as_bytes())
    }

    /// True when this output is the process's fail-signal.
    pub fn is_fail_signal(&self) -> bool {
        matches!(self.content, FsContent::FailSignal)
    }
}

/// The exact encoded length of a digest (length prefix + 32 bytes).
const DIGEST_FIELD_LEN: usize = 4 + DIGEST_LEN;

/// The exact encoded length of a [`Signature`] (process id + tag).
const SIGNATURE_LEN: usize = 4 + DIGEST_FIELD_LEN;

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
    /// Either direction: the sender's signature share over a locally
    /// produced output, submitted for comparison by the remote Compare
    /// (`receiveSingle`).  It names the output by the fields of its
    /// [`Statement`] — not by its bytes, which the receiver produces itself
    /// — so it has one size whatever the output's.
    Candidate {
        /// The pair-wide output sequence number.
        output_seq: u64,
        /// The logical destination of the output.
        dest: Endpoint,
        /// The length of the output bytes.
        body_len: u32,
        /// The SHA-256 of the output bytes.
        digest: Digest,
        /// The sender's signature over [`Statement::output`] of the fields
        /// above.
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
                body_len,
                digest,
                signature,
            } => {
                enc.put_u8(2);
                enc.put_u64(*output_seq);
                encode_endpoint(*dest, enc);
                enc.put_u32(*body_len);
                put_digest(digest, enc);
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
                body_len: dec.get_u32()?,
                digest: get_digest(dec)?,
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
            PairMessage::Candidate { dest, .. } => {
                8 + endpoint_len(*dest) + 4 + DIGEST_FIELD_LEN + SIGNATURE_LEN
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
    fn fail_signal_share_path() {
        let (a, b, _, dir) = keys();
        let fs = FsId(9);
        // At start-up, wrapper A is handed B's share of the fail-signal.
        let bytes = signing_bytes(fs, &FsContent::FailSignal);
        let prearmed = Signature::sign(&b, &bytes);
        // When A decides to fail it adds its own share and emits.
        let signal = FsOutput {
            fs,
            content: FsContent::FailSignal,
            first: Signature::sign(&a, &bytes),
            second: prearmed,
        };
        assert!(signal.is_fail_signal());
        assert!(signal.verify(&dir, (a.signer, b.signer)).is_ok());
        assert_eq!(signal, FsOutput::sign(fs, FsContent::FailSignal, &a, &b));
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
                body_len: 40,
                digest: Sha256::digest(&[9; 40]),
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
