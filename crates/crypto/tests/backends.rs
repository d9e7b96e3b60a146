//! Differential suite for the SHA-256 compression backends.
//!
//! Two layers of evidence that every [`CompressBackend`] computes the same
//! function:
//!
//! 1. **External oracle:** NIST CAVP-style fixed vectors at the padding
//!    boundaries (55/56/63/64/65/127/128/129 bytes — either side of the
//!    one-block and two-block padding cliffs) plus long messages, with
//!    expected digests produced by an independent implementation (Python's
//!    `hashlib`/`hmac`), checked against *each* backend separately.
//! 2. **Internal differential:** the scalar and SIMD paths byte-identical
//!    on every message shape the protocol hashes and on random inputs,
//!    one-shot, incremental and keyed.  (The kernels *under* the SIMD
//!    backend — SHA extensions vs the portable loop — are compared directly
//!    in the crate's `shani` unit tests, which can reach both on one host.)

use fs_crypto::hmac::HmacKey;
use fs_crypto::sha256::{CompressBackend, Sha256};
use proptest::prelude::*;

const BACKENDS: [CompressBackend; 2] = [CompressBackend::Scalar, CompressBackend::Simd];

/// The deterministic filler pattern the expected vectors were generated
/// over: byte `i` is `i % 251` (a prime stride, so no 64-byte periodicity).
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// SHA-256 of `pattern(len)` for the block-boundary lengths, generated with
/// Python `hashlib.sha256` as an external oracle.
const SHA256_BOUNDARY_VECTORS: &[(usize, &str)] = &[
    (
        55,
        "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
    ),
    (
        56,
        "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
    ),
    (
        63,
        "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
    ),
    (
        64,
        "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
    ),
    (
        65,
        "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
    ),
    (
        127,
        "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976",
    ),
    (
        128,
        "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5",
    ),
    (
        129,
        "5099c6a56203f9687f7d33f4bfdf576d31dc91f6b695ecea38b2770c87631135",
    ),
];

/// CAVP-style long-message vectors over the same pattern (external oracle:
/// Python `hashlib.sha256`).
const SHA256_LONG_VECTORS: &[(usize, &str)] = &[
    (
        1000,
        "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d",
    ),
    (
        10000,
        "0cd0bf930677960951dda8588edcb6b293c0c3b26ef3ba72cddff4ddfc6822c7",
    ),
    (
        65536,
        "4b640d85ab3ba30fd02c9fc9db4a8928f416322ad27022ea58a65aaee68a4df2",
    ),
];

/// HMAC-SHA-256 of `pattern(len)` under the 32-byte key `00 01 .. 1f`
/// (external oracle: Python `hmac` + `hashlib`).
const HMAC_BOUNDARY_VECTORS: &[(usize, &str)] = &[
    (
        55,
        "b478e4cbd63871759702a8a4c9828359869bc9e20d3df429ecd08f5a5d3d9340",
    ),
    (
        56,
        "e5d1f65e9e9359d05c577b6890044f08c9a1f7969b683f1237ef07db70e5f862",
    ),
    (
        63,
        "d37a8dadb82b15310342ceabf0de8cb8991ee9bd55dd3e4813e952081cb24bf1",
    ),
    (
        64,
        "173206781c3b828a0dc2a716fe0ddb5e6e56ec171170952ff6b3f4de44fa18d7",
    ),
    (
        65,
        "22084084cc171f63dfdd6ca4bcb0c29be8d4ff1cc6b1d0d21e10e2a2a0bfce9c",
    ),
    (
        127,
        "84d01da05d2b1865db6eff0cfa90a1120df0c5627e57681b5200b00a881ec230",
    ),
    (
        128,
        "554663090ed09c789d3a10680ac0602215088ef4482d9149dd86d5e5d6dbf52a",
    ),
    (
        129,
        "52cc48f5d76260a9df98c5e171fea39acc0aad5f5833899b5313a47965e71fad",
    ),
];

#[test]
fn boundary_vectors_on_every_backend() {
    for &(len, expected) in SHA256_BOUNDARY_VECTORS {
        let msg = pattern(len);
        for backend in BACKENDS {
            assert_eq!(
                Sha256::digest_with_backend(backend, &msg).to_hex(),
                expected,
                "len {len}, backend {backend:?}"
            );
        }
    }
}

#[test]
fn long_message_vectors_on_every_backend() {
    for &(len, expected) in SHA256_LONG_VECTORS {
        let msg = pattern(len);
        for backend in BACKENDS {
            assert_eq!(
                Sha256::digest_with_backend(backend, &msg).to_hex(),
                expected,
                "len {len}, backend {backend:?}"
            );
        }
    }
}

#[test]
fn hmac_boundary_vectors_on_every_backend() {
    let key_bytes: Vec<u8> = (0..32u8).collect();
    for &(len, expected) in HMAC_BOUNDARY_VECTORS {
        let msg = pattern(len);
        for backend in BACKENDS {
            let key = HmacKey::new_with_backend(backend, &key_bytes);
            assert_eq!(
                key.mac(&msg).to_hex(),
                expected,
                "len {len}, backend {backend:?}"
            );
        }
    }
}

#[test]
fn incremental_hashing_is_backend_independent_at_boundaries() {
    // Feed the boundary-length messages in awkward chunk sizes through
    // incremental hashers pinned to each backend.
    for &(len, expected) in SHA256_BOUNDARY_VECTORS {
        let msg = pattern(len);
        for backend in BACKENDS {
            for chunk in [1usize, 7, 63, 64, 65] {
                let mut h = Sha256::new_with_backend(backend);
                for piece in msg.chunks(chunk) {
                    h.update(piece);
                }
                assert_eq!(
                    h.finalize().to_hex(),
                    expected,
                    "len {len}, backend {backend:?}, chunk {chunk}"
                );
            }
        }
    }
}

/// Every way of splitting a short message into two or three `update`s must
/// equal the one-shot digest: a split inside a block leaves a buffered
/// partial block for the next `update` to complete, which is the one place
/// a hasher compresses out of its own buffer instead of the caller's slice.
#[test]
fn every_two_and_three_way_split_equals_one_shot() {
    for backend in BACKENDS {
        for len in 0..=200usize {
            let msg = pattern(len);
            let expected = Sha256::digest_with_backend(CompressBackend::Scalar, &msg);
            for i in 0..=len {
                let mut two = Sha256::new_with_backend(backend);
                two.update(&msg[..i]);
                two.update(&msg[i..]);
                assert_eq!(
                    two.finalize(),
                    expected,
                    "{backend:?}, {len} B split at {i}"
                );
                // Three-way splits at a stride that still lands on every
                // residue of the second cut relative to the block size.
                for j in (i..=len).step_by(7) {
                    let mut three = Sha256::new_with_backend(backend);
                    three.update(&msg[..i]);
                    three.update(&msg[i..j]);
                    three.update(&msg[j..]);
                    assert_eq!(
                        three.finalize(),
                        expected,
                        "{backend:?}, {len} B split at {i} and {j}"
                    );
                }
            }
        }
    }
}

/// The messages the protocol actually hashes, as `(what, header, body)`
/// lengths: the signed statements, the candidate pair frame, the two
/// benchmark bodies and the two external frames carrying them.
const PROTOCOL_SHAPES: &[(&str, usize, usize)] = &[
    ("fail-signal statement", 5, 0),
    ("share statement", 22, 32),
    ("candidate pair frame", 63, 32),
    ("3 B body", 0, 3),
    ("10 KiB body", 0, 10_240),
    ("external frame, 3 B body", 103, 3),
    ("external frame, 10 KiB body", 103, 10_240),
];

/// Every shape the protocol hashes gives the scalar oracle's digest and tag
/// on every backend: one-shot, as `header ‖ body` in two `update`s, and in
/// 1 KiB segments.
#[test]
fn protocol_shapes_hash_identically_on_both_backends() {
    let key: Vec<u8> = (0..32u8).collect();
    for &(what, header, body) in PROTOCOL_SHAPES {
        let msg = pattern(header + body);
        let digest = Sha256::digest_with_backend(CompressBackend::Scalar, &msg);
        let tag = HmacKey::new_with_backend(CompressBackend::Scalar, &key).mac(&msg);
        for backend in BACKENDS {
            assert_eq!(
                Sha256::digest_with_backend(backend, &msg),
                digest,
                "{what}, {backend:?}"
            );
            let hmac = HmacKey::new_with_backend(backend, &key);
            assert_eq!(hmac.mac(&msg), tag, "{what}, {backend:?}");

            let (head, tail) = msg.split_at(header);
            let mut h = Sha256::new_with_backend(backend);
            let mut m = hmac.hasher();
            h.update(head);
            h.update(tail);
            m.update(head);
            m.update(tail);
            assert_eq!(h.finalize(), digest, "{what}, {backend:?}, two updates");
            assert_eq!(m.finalize(), tag, "{what}, {backend:?}, two updates");

            let mut h = Sha256::new_with_backend(backend);
            let mut m = hmac.hasher();
            for segment in msg.chunks(1024) {
                h.update(segment);
                m.update(segment);
            }
            assert_eq!(h.finalize(), digest, "{what}, {backend:?}, 1 KiB segments");
            assert_eq!(m.finalize(), tag, "{what}, {backend:?}, 1 KiB segments");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random (message) inputs: one-shot digests agree across backends.
    #[test]
    fn random_digests_agree(msg in proptest::collection::vec(any::<u8>(), 0..600)) {
        let scalar = Sha256::digest_with_backend(CompressBackend::Scalar, &msg);
        prop_assert_eq!(Sha256::digest_with_backend(CompressBackend::Simd, &msg), scalar);
    }

    /// Random chunked incremental hashing agrees with one-shot per backend.
    #[test]
    fn random_incremental_agrees(
        msg in proptest::collection::vec(any::<u8>(), 0..500),
        chunk in 1usize..97,
    ) {
        let expected = Sha256::digest_with_backend(CompressBackend::Scalar, &msg);
        for backend in BACKENDS {
            let mut h = Sha256::new_with_backend(backend);
            for piece in msg.chunks(chunk) {
                h.update(piece);
            }
            prop_assert_eq!(h.finalize(), expected, "backend {:?}", backend);
        }
    }
}
