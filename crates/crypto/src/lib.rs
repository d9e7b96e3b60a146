//! # fs-crypto
//!
//! Message authentication for the fail-signal suite: a from-scratch SHA-256,
//! HMAC-SHA-256 keyed authenticators, a start-up-provisioned key directory,
//! single- and double-signed message envelopes, and a cost model that charges
//! the simulated clock for the (much more expensive) signature scheme the
//! original paper used.
//!
//! See DESIGN.md §5 for the substitution rationale: the paper's assumption A5
//! only requires unforgeable, verifiable message signatures, which the keyed
//! authenticators provide in the simulated/threaded deployments where
//! verification keys are distributed through a trusted directory at start-up.
//!
//! ## Compression backends
//!
//! SHA-256 compression is pluggable behind [`sha256::CompressBackend`]:
//! `Scalar` (the original path, kept as the differential oracle) and `Simd`
//! (the default), which means "the best kernel this CPU has" — detected at
//! run time, never configured: the x86-64 SHA extensions where present,
//! otherwise the portable multi-block loop for sequential hashing plus
//! portable lane-parallel 4-way/8-way compression (compiled under AVX2 where
//! available) for the batch APIs — see the table in [`sha256`] and
//! [`sha256::kernel_name`].  Select process-wide with the
//! `FS_CRYPTO_BACKEND` environment variable (`scalar` | `simd`; any other
//! value aborts at first use) or per call site with the `*_with_backend`
//! constructors.  Every backend and kernel computes the identical function,
//! so the choice can affect host wall-clock only — never a simulated clock,
//! trace, or digest.
//!
//! ## Unsafe policy
//!
//! The crate is `#![deny(unsafe_code)]`.  Exactly two modules carry a scoped
//! `#![allow(unsafe_code)]`, each with its safety argument in its module
//! docs:
//!
//! * [`simd`] — an AVX2 recompilation of the *portable* lane loops (no
//!   intrinsics), entered only after `is_x86_feature_detected!("avx2")`;
//! * `shani` (crate-private) — the SHA-extensions kernel: CPU features
//!   detected before every call, unaligned `loadu`/`storeu` accesses only,
//!   input length a checked (`assert!`) multiple of 64, and everything
//!   behind `cfg(target_arch = "x86_64")` — other targets compile the
//!   portable path and no `unsafe` at all from that module.
//!
//! Both are differential-tested against the scalar oracle; neither has a
//! Cargo feature or a switch of its own.
//!
//! ## Resumed co-signatures
//!
//! A fail-signal wrapper signs `HMAC(k, content)` for its partner and later
//! co-signs `HMAC(k, content ‖ suffix)` under the same key.
//! [`sig::Signature::sign_parts`] returns the signing midstate
//! ([`sig::SignedPrefix`]) so the co-signature absorbs only the 36-byte
//! suffix; tags are bit-for-bit those of signing the concatenation.
//!
//! ## Messages in parts
//!
//! A signed output is a few header bytes followed by a payload the caller
//! already holds in a refcounted buffer.  [`sig::Parts`] hands the signature
//! layer those two buffers as they are: `sign_parts`, `co_sign_parts`,
//! `verify_parts`, `verify_batch_parts` and `verify_cosign_pair_parts`
//! stream them through the hash (on the lane backend through
//! [`hmac::MacSchedule::over_parts`]) and the host-side verification memo
//! keeps refcounts of them.  Tags and verdicts are those of the contiguous
//! calls over the concatenation, for every split point.
//!
//! ## Batch verification contract
//!
//! One frame carries one message and *n* authenticators, so the batch APIs
//! share the message schedule across keys and differ only in verdict shape:
//!
//! * **Per-index verdicts:** [`hmac::HmacKey::mac_batch`] and
//!   [`hmac::HmacKey::verify_batch`] return one entry per input
//!   (`Vec<Digest>` / `Vec<bool>`); index `i` always reports on input `i`.
//! * **All-or-nothing:** [`sig::Signature::verify_batch`] and
//!   [`sig::DoubleSigned::verify_batch`] return `Ok(())` only when *every*
//!   authenticator in the batch verifies, and otherwise the error for the
//!   lowest-indexed failing entry — byte-for-byte the same error the
//!   sequential `verify` loop would have produced first, so callers can
//!   switch between the two without changing failure handling.
//!
//! Both compose with the host-side verify memos: a memo hit is answered
//! before any batch schedule is assembled, so re-verification of an
//! already-seen authenticator stays O(memo lookup) in a batch too.
//!
//! ## Example
//!
//! ```
//! use fs_common::{id::ProcessId, rng::DetRng};
//! use fs_crypto::keys::{provision, SignerId};
//! use fs_crypto::sig::SingleSigned;
//!
//! let mut rng = DetRng::new(1);
//! let (mut keys, directory) = provision([ProcessId(0), ProcessId(1)], &mut rng);
//! let leader_key = keys.remove(&SignerId(ProcessId(0))).unwrap();
//! let follower_key = keys.remove(&SignerId(ProcessId(1))).unwrap();
//!
//! // Leader's Compare signs an output, follower's Compare counter-signs it.
//! let bytes = b"totally ordered message".to_vec();
//! let double = SingleSigned::new((), &bytes, &leader_key).counter_sign(&bytes, &follower_key);
//!
//! // A destination accepts it only with both authentic signatures.
//! double
//!     .verify(&directory, &bytes, (leader_key.signer, follower_key.signer))
//!     .expect("valid FS output");
//! ```

// `deny` rather than `forbid`: the two sanctioned exceptions (`simd`,
// `shani`) carry scoped `allow`s — see "Unsafe policy" above.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod hmac;
pub mod keys;
pub mod sha256;
mod shani;
pub mod sig;
pub mod simd;

pub use cost::CryptoCostModel;
pub use hmac::{HmacKey, HmacSha256, MacSchedule};
pub use keys::{provision, KeyDirectory, SignerId, SigningKey, VerifyingKey};
pub use sha256::{CompressBackend, Digest, Sha256};
pub use sig::{DoubleSigned, Parts, Signature, SignedPrefix, SingleSigned};
