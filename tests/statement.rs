//! The signed statement binds everything, and the body-digest memo never
//! lies.
//!
//! What a wrapper signs for an output is `header ‖ SHA-256(body)`
//! (`failsignal::message::Statement`), the body digest coming from a
//! memoised function (`failsignal::digest::body_digest`).  These are the
//! properties that make that safe, checked through the public API only:
//! the statement is `signing_bytes` with the body replaced by its digest;
//! a double-signed output is two plain signatures — shares — over it, by
//! the two distinct signers of the pair and nobody else; every signed field
//! and every body byte is bound by both shares, so shares of two different
//! outputs never verify together; the fail-signal's signatures are what
//! they always were; and the memoised digest is the SHA-256 of the bytes
//! whichever way the memo answers.
//! (What each way *costs*, and the memo's bounds, are unit-tested beside it.)
//! That the scalar oracle hashes these shapes identically is
//! `crates/crypto/tests/backends.rs`'s
//! `protocol_shapes_hash_identically_on_both_backends`.

use fs_smr_suite::common::id::{FsId, MemberId, ProcessId};
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::{Bytes, SignatureError};
use fs_smr_suite::crypto::keys::{provision, KeyDirectory, SignerId, SigningKey};
use fs_smr_suite::crypto::sha256::Sha256;
use fs_smr_suite::crypto::sig::Signature;
use fs_smr_suite::failsignal::digest::body_digest;
use fs_smr_suite::failsignal::message::{
    endpoint_len, signing_bytes, FsContent, FsOutput, Statement,
};
use fs_smr_suite::smr::machine::Endpoint;

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

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

/// The statement is `signing_bytes` with the body replaced by its
/// SHA-256, for every endpoint shape; `signed_len` is the length of
/// `signing_bytes`.
#[test]
fn statement_is_the_signed_header_then_the_body_digest() {
    let fs = FsId(0x0a0b_0c0d);
    for dest in [
        Endpoint::LocalApp,
        Endpoint::Peer(MemberId(0x0102_0304)),
        Endpoint::Environment,
        Endpoint::Broadcast,
    ] {
        for len in [0usize, 3, 64, 1_024, 10_240] {
            let body: Bytes = (0..len)
                .map(|i| (i % 251) as u8)
                .collect::<Vec<u8>>()
                .into();
            let content = FsContent::Output {
                output_seq: 0x1122_3344_5566_7788,
                dest,
                bytes: body.clone(),
            };
            let full = signing_bytes(fs, &content);
            let header = &full[..full.len() - len];
            assert_eq!(header.len(), 17 + endpoint_len(dest));
            let expected = [header, Sha256::digest(&body).as_bytes()].concat();
            for statement in [
                Statement::of(fs, &content, |b| Sha256::digest(b)),
                Statement::of(fs, &content, body_digest),
            ] {
                assert_eq!(statement.as_bytes(), expected, "{dest:?}, {len} B");
                assert_eq!(statement.signed_len(), full.len());
            }
        }
    }
    let signal = Statement::fail_signal(fs);
    assert_eq!(
        signal.as_bytes(),
        &signing_bytes(fs, &FsContent::FailSignal)[..]
    );
    assert_eq!(signal.signed_len(), 5);
}

/// What `FsOutput::sign` produces is two shares, `HMAC(key_a, statement)`
/// and `HMAC(key_b, statement)` — nothing nested — and the memoised and
/// uncached checks agree on them, in either order.
#[test]
fn output_signatures_cover_the_statement() {
    let (a, b, _, dir) = keys();
    let fs = FsId(4);
    let pair = (a.signer, b.signer);
    for len in (0..=200).chain([1_024, 10_240]) {
        let body: Bytes = (0..len)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<u8>>()
            .into();
        let content = FsContent::Output {
            output_seq: 11,
            dest: Endpoint::Peer(MemberId(1)),
            bytes: body.clone(),
        };
        let output = FsOutput::sign(fs, content.clone(), &a, &b);
        let statement = Statement::output(
            fs,
            11,
            Endpoint::Peer(MemberId(1)),
            len,
            &Sha256::digest(&body),
        );
        assert_eq!(output.first, Signature::sign(&a, statement.as_bytes()));
        assert_eq!(output.second, Signature::sign(&b, statement.as_bytes()));
        // The wrapper-side statement (memoised digest) is the same bytes.
        assert_eq!(Statement::of(fs, &content, body_digest), statement);
        let swapped = FsOutput {
            first: output.second.clone(),
            second: output.first.clone(),
            ..output.clone()
        };
        for copy in [&output, &swapped] {
            for expected in [pair, (b.signer, a.signer)] {
                assert!(copy.verify(&dir, expected).is_ok(), "payload {len}");
                assert!(copy.verify_uncached(&dir, expected).is_ok());
            }
        }
    }
}

/// The second share is a plain HMAC-SHA-256 of the statement under the
/// second signer's key: both tags below were computed by an independent
/// implementation (Python's `hmac`) over the 54 statement bytes spelled
/// out here.
#[test]
fn both_shares_match_an_independent_hmac() {
    let fs = FsId(0x0102_0304);
    let content = FsContent::Output {
        output_seq: 11,
        dest: Endpoint::Peer(MemberId(1)),
        bytes: b"out"[..].into(),
    };
    let statement = Statement::of(fs, &content, |b| Sha256::digest(b));
    let hex: String = statement
        .as_bytes()
        .iter()
        .map(|byte| format!("{byte:02x}"))
        .collect();
    assert_eq!(
        hex,
        "04030201000b00000000000000010100000003000000\
         762069bc07a6e1b5df123a5ae7bd91c10daa04694fbaa17fba0cd6a8dcce8f22"
    );
    let key_a = SigningKey::from_bytes(SignerId(ProcessId(1)), [7u8; 32]);
    let key_b = SigningKey::from_bytes(SignerId(ProcessId(2)), [9u8; 32]);
    let output = FsOutput::sign(fs, content, &key_a, &key_b);
    assert_eq!(
        output.first.tag.to_hex(),
        "26e1298fb36ed928d0a6fc9ea131efb75138ab1161e860887da83469aaa2dd1c"
    );
    assert_eq!(
        output.second.tag.to_hex(),
        "29bbd31273f0ea818aa85c16546d5317c684d651a90946185ca83a035c3016c9"
    );
}

/// Who may sign: the two distinct signers of the pair, and only they.
#[test]
fn shares_must_come_from_both_signers_of_the_pair_and_nobody_else() {
    let (a, b, c, dir) = keys();
    let pair = (a.signer, b.signer);
    let content = || FsContent::Output {
        output_seq: 3,
        dest: Endpoint::LocalApp,
        bytes: b"out"[..].into(),
    };
    for (first, second, verdict) in [
        (&a, &b, Ok(())),
        (&b, &a, Ok(())),
        (&a, &a, Err(SignatureError::DuplicateSigner)),
        (&c, &c, Err(SignatureError::DuplicateSigner)),
        (&a, &c, Err(SignatureError::MissingCoSignature)),
        (&c, &b, Err(SignatureError::MissingCoSignature)),
    ] {
        let output = FsOutput::sign(FsId(4), content(), first, second);
        assert_eq!(output.verify(&dir, pair), verdict);
        assert_eq!(output.verify_uncached(&dir, pair), verdict);
    }
    // A signer the directory has never heard of is no better.
    let stranger = SigningKey::from_bytes(SignerId(ProcessId(99)), [1u8; 32]);
    let output = FsOutput::sign(FsId(4), content(), &a, &stranger);
    assert_eq!(
        output.verify(&dir, (a.signer, stranger.signer)),
        Err(SignatureError::UnknownSigner)
    );
}

/// Shares of two different statements never verify together: each wrapper's
/// genuine share of one output next to the partner's genuine share of
/// another — differing in one field or one body byte — is invalid in both
/// orders and around either content.
#[test]
fn shares_of_two_different_statements_never_verify_together() {
    let (a, b, _, dir) = keys();
    let pair = (a.signer, b.signer);
    let output = |fs: u32, seq: u64, dest: Endpoint, body: &[u8]| {
        let content = FsContent::Output {
            output_seq: seq,
            dest,
            bytes: body.to_vec().into(),
        };
        FsOutput::sign(FsId(fs), content, &a, &b)
    };
    let base = output(4, 11, Endpoint::LocalApp, b"out");
    assert!(base.verify(&dir, pair).is_ok());
    for other in [
        output(5, 11, Endpoint::LocalApp, b"out"),
        output(4, 12, Endpoint::LocalApp, b"out"),
        output(4, 11, Endpoint::Broadcast, b"out"),
        output(4, 11, Endpoint::LocalApp, b"ouT"),
        output(4, 11, Endpoint::LocalApp, b"out!"),
        FsOutput::sign(FsId(4), FsContent::FailSignal, &a, &b),
    ] {
        assert!(other.verify(&dir, pair).is_ok());
        for (around, first, second) in [
            (&base, &base.first, &other.second),
            (&base, &other.first, &base.second),
            (&other, &base.first, &other.second),
            (&other, &other.first, &base.second),
        ] {
            let mixed = FsOutput {
                first: first.clone(),
                second: second.clone(),
                ..around.clone()
            };
            assert_eq!(mixed.verify(&dir, pair), Err(SignatureError::Invalid));
            assert_eq!(
                mixed.verify_uncached(&dir, pair),
                Err(SignatureError::Invalid)
            );
        }
    }
}

/// Changing any one signed field, or any single body byte, invalidates
/// both signatures — whether or not the genuine output was verified
/// (and memoised) first.
#[test]
fn the_statement_binds_every_field_and_every_body_byte() {
    let (a, b, _, dir) = keys();
    let pair = (a.signer, b.signer);
    let dest = Endpoint::Peer(MemberId(1));
    let other_dests = [Endpoint::Peer(MemberId(2)), Endpoint::Broadcast];
    for len in (0..=200).chain([1_024, 10_240]) {
        let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let genuine = FsOutput::sign(
            FsId(4),
            FsContent::Output {
                output_seq: 11,
                dest,
                bytes: body.clone().into(),
            },
            &a,
            &b,
        );
        assert!(genuine.verify(&dir, pair).is_ok(), "payload {len}");
        let with_body = |body: Vec<u8>| FsOutput {
            content: FsContent::Output {
                output_seq: 11,
                dest,
                bytes: body.into(),
            },
            ..genuine.clone()
        };
        let mut forgeries = vec![
            FsOutput {
                fs: FsId(5),
                ..genuine.clone()
            },
            FsOutput {
                content: FsContent::Output {
                    output_seq: 12,
                    dest,
                    bytes: body.clone().into(),
                },
                ..genuine.clone()
            },
            // One byte more, one byte fewer: the length is signed too.
            with_body([&body[..], &[0]].concat()),
        ];
        forgeries.extend(other_dests.map(|dest| FsOutput {
            content: FsContent::Output {
                output_seq: 11,
                dest,
                bytes: body.clone().into(),
            },
            ..genuine.clone()
        }));
        if len > 0 {
            forgeries.push(with_body(body[..len - 1].to_vec()));
        }
        let flips: Vec<usize> = if len <= 200 {
            (0..len).collect()
        } else {
            vec![0, 1, 63, 64, len / 2, len - 2, len - 1]
        };
        for flip in flips {
            let mut forged = body.clone();
            forged[flip] ^= 0x10;
            forgeries.push(with_body(forged));
        }
        for forged in forgeries {
            assert_eq!(
                forged.verify(&dir, pair),
                Err(SignatureError::Invalid),
                "payload {len}: {:?}",
                Statement::of(forged.fs, &forged.content, body_digest)
            );
            assert_eq!(
                forged.verify_uncached(&dir, pair),
                Err(SignatureError::Invalid)
            );
            // Neither share survives on its own.
            let statement = Statement::of(forged.fs, &forged.content, body_digest);
            assert!(forged.first.verify(&dir, statement.as_bytes()).is_err());
            assert!(forged.second.verify(&dir, statement.as_bytes()).is_err());
        }
    }
}

/// The pre-armed fail-signal signature is byte-for-byte what it was
/// before statements existed — `HMAC(key, fs ‖ 1)`, the tag pinned from
/// an independent HMAC-SHA-256 implementation.
#[test]
fn fail_signal_signatures_are_over_the_five_header_bytes() {
    let fs = FsId(0x0102_0304);
    let raw = [0x04, 0x03, 0x02, 0x01, 0x01];
    assert_eq!(Statement::fail_signal(fs).as_bytes(), raw);
    assert_eq!(signing_bytes(fs, &FsContent::FailSignal), raw);
    let key = SigningKey::from_bytes(SignerId(ProcessId(2)), [7u8; 32]);
    let prearmed = Signature::sign(&key, Statement::fail_signal(fs).as_bytes());
    assert_eq!(
        prearmed.tag.to_hex(),
        "895b4d51d9749351bde0f759b2b426959fa21a4d38a3e4bc2e1aa057bd396f71"
    );
    let (a, b, _, dir) = keys();
    let signal = FsOutput::sign(fs, FsContent::FailSignal, &b, &a);
    assert_eq!(signal.first, Signature::sign(&b, &raw));
    assert_eq!(signal.second, Signature::sign(&a, &raw));
    assert!(signal.verify(&dir, (a.signer, b.signer)).is_ok());
}

/// Body sizes on both sides of the memo's (private) size floor, 1 KiB.
const SIZES: [usize; 7] = [0, 3, 1023, 1024, 1025, 4096, 10 * 1024];

#[test]
fn every_route_gives_the_sha256_of_the_bytes() {
    for len in SIZES {
        let data = pattern(len, 0);
        let expected = Sha256::digest(&data);
        let own = Bytes::from(data.clone());
        let distinct = Bytes::copy_from_slice(&data);
        let mut framed = vec![0xeeu8; 7];
        framed.extend_from_slice(&data);
        framed.extend_from_slice(&[0xee; 5]);
        let frame = Bytes::from(framed);
        let window = frame.slice(7..7 + len);
        // Twice each: the second presentation takes whichever memo
        // route the first one opened.
        for body in [&own, &own, &distinct, &distinct, &window, &window] {
            assert_eq!(body_digest(body), expected, "len {len}");
        }
        assert_eq!(body_digest(&window.compact()), expected, "len {len}");
        // The other order: a window first, then buffers of their own.
        let data = pattern(len, 0x5a);
        let expected = Sha256::digest(&data);
        let frame = Bytes::from([&[1u8, 2, 3][..], &data].concat());
        let window = frame.slice(3..);
        assert_eq!(body_digest(&window), expected, "len {len}");
        assert_eq!(body_digest(&Bytes::from(data)), expected, "len {len}");
        assert_eq!(body_digest(&window), expected, "len {len}");
    }
}

/// A same-length buffer differing in one byte never hits — by content
/// (the bucket compare sees the byte) or by identity (a remembered
/// buffer is pinned, so a new one cannot take its address).
#[test]
fn a_buffer_differing_in_one_byte_never_hits() {
    for len in [1024, 10 * 1024] {
        let base = pattern(len, 4);
        assert_eq!(
            body_digest(&Bytes::from(base.clone())),
            Sha256::digest(&base)
        );
        // The caller dropped its buffer above; the memo still pins it.
        for flip in (0..len).step_by(len / 64).chain([len - 1]) {
            let mut forged = base.clone();
            forged[flip] ^= 0x01;
            let expected = Sha256::digest(&forged);
            let forged = Bytes::from(forged);
            assert_eq!(body_digest(&forged), expected, "len {len}, byte {flip}");
            assert_eq!(body_digest(&forged), expected, "len {len}, byte {flip}");
            assert_ne!(expected, Sha256::digest(&base));
        }
    }
}
