//! The signed statement binds everything, and the body-digest memo never
//! lies.
//!
//! What a wrapper signs for an output is `header ‖ SHA-256(body)`
//! (`failsignal::message::Statement`), the body digest coming from a
//! memoised function (`failsignal::digest::body_digest`).  These are the
//! properties that make that safe, checked through the public API only:
//! the statement is `signing_bytes` with the body replaced by its digest;
//! every signed field and every body byte is bound by both signatures;
//! the fail-signal's signatures are what they always were; and the memoised
//! digest is the SHA-256 of the bytes whichever way the memo answers.
//! (What each way *costs*, and the memo's bounds, are unit-tested beside it.)
//! CI runs this file under `FS_CRYPTO_BACKEND=scalar` too.

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

/// What `FsOutput::sign` produces is `HMAC(statement)` and
/// `HMAC(statement ‖ suffix(first))`, and the memoised, uncached and
/// wrapper-side (`counter_sign_over` a digest-built statement) paths
/// agree with it.
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
        assert_eq!(
            output.second,
            Signature::co_sign(&b, statement.as_bytes(), &output.first)
        );
        let memoised = Statement::of(fs, &content, body_digest);
        assert_eq!(
            FsOutput::counter_sign_over(fs, content, &memoised, output.first.clone(), &b),
            output
        );
        assert!(output.verify(&dir, pair).is_ok(), "payload {len}");
        assert!(output.verify_uncached(&dir, pair).is_ok(), "payload {len}");
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
            // The second signature alone does not survive either.
            let statement = Statement::of(forged.fs, &forged.content, body_digest);
            assert!(forged.first.verify(&dir, statement.as_bytes()).is_err());
            assert_ne!(
                Signature::co_sign(&b, statement.as_bytes(), &forged.first),
                forged.second
            );
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
    assert_eq!(signal.second, Signature::co_sign(&a, &raw, &signal.first));
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
