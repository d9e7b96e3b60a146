//! # fs-crypto
//!
//! Message authentication for the fail-signal suite: a from-scratch SHA-256,
//! HMAC-SHA-256 keyed authenticators, a start-up-provisioned key directory,
//! message signatures with the two-share rule for double-signed outputs, and
//! a cost model that charges the simulated clock for the (much more
//! expensive) signature scheme the original paper used.
//!
//! The substitution rationale is in [`cost`]'s module docs: the paper's
//! assumption A5 only requires unforgeable, verifiable message signatures,
//! which the keyed authenticators provide in the simulated/threaded
//! deployments where verification keys are distributed through a trusted
//! directory at start-up, and the simulated clock is still charged for the
//! paper's scheme.
//!
//! ## Compression backends
//!
//! Every hasher runs "the best kernel this CPU has" — detected at run time,
//! never configured: the x86-64 SHA extensions where present, otherwise the
//! portable multi-block loop (see the table in [`sha256`] and
//! [`sha256::kernel_name`]).  The original one-block-at-a-time path stays
//! as the differential oracle, [`sha256::CompressBackend::Scalar`], reached
//! only per call through the `*_with_backend` constructors; nothing selects
//! it process-wide, and the crate reads no environment variable.  Every
//! backend and kernel computes the identical function, so the choice can
//! affect host wall-clock only — never a simulated clock, trace, or digest.
//!
//! ## Unsafe policy
//!
//! The crate is `#![deny(unsafe_code)]`.  Exactly one module lifts that
//! lint with a scoped inner `allow`, with its safety argument in its module
//! docs: `shani` (crate-private), the SHA-extensions kernel — CPU features
//! detected before every call, unaligned `loadu`/`storeu` accesses only,
//! input length a checked (`assert!`) multiple of 64, and everything behind
//! `cfg(target_arch = "x86_64")`, so other targets compile the portable
//! path and no `unsafe` at all.  It is differential-tested against the
//! scalar oracle and has no Cargo feature or switch of its own.
//!
//! ## Hash once, sign the digest
//!
//! The paper's wrappers sign with "MD5 using RSA" (§4): hash the message
//! once, then run a fixed-cost operation on the digest.  [`cost`] has always
//! charged exactly that — one hash pass over the content plus a fixed term
//! per sign and per verify — and the authenticator now has the same shape.
//! The `failsignal` crate hands this layer a *statement* of at most 54 bytes
//! (a signed header followed by `SHA-256(output bytes)`), so
//! [`sig::Signature::sign`] and [`sig::Signature::verify`] each MAC at most
//! 54 bytes whatever the output's size, and the host-side verification memo
//! keeps small compact copies only.  The one pass over the content is
//! the body digest, computed (and memoised by buffer identity) in
//! `failsignal::digest`.  Simulated charges follow the same shape: call
//! sites charge [`cost::CryptoCostModel`] a pass over the whole signed
//! content where a body is hashed, and a pass over the statement where only
//! the statement is (see "What is charged where" in [`cost`]).
//!
//! ## Signature shares
//!
//! A double-signed message is two independent signatures — *shares* — by
//! the two distinct signers of a pair over the same statement; nothing is
//! nested, and each signer signs exactly once.  [`sig`]'s module docs say
//! why that proves what a counter-signature would.  A destination checks
//! them as two sequential memoised [`sig::Signature::verify`] calls, each a
//! MAC over at most 54 bytes.
//!
//! ## Example
//!
//! ```
//! use fs_common::{id::ProcessId, rng::DetRng};
//! use fs_crypto::keys::{provision, SignerId};
//! use fs_crypto::sig::{check_share_signers, Signature};
//!
//! let mut rng = DetRng::new(1);
//! let (mut keys, directory) = provision([ProcessId(0), ProcessId(1)], &mut rng);
//! let leader_key = keys.remove(&SignerId(ProcessId(0))).unwrap();
//! let follower_key = keys.remove(&SignerId(ProcessId(1))).unwrap();
//!
//! // Each Compare signs the output once; the two shares travel with it.
//! let bytes = b"totally ordered message".to_vec();
//! let leader_share = Signature::sign(&leader_key, &bytes);
//! let follower_share = Signature::sign(&follower_key, &bytes);
//!
//! // A destination accepts it only with authentic shares of both signers.
//! let pair = (leader_key.signer, follower_key.signer);
//! assert!(check_share_signers(&leader_share, &follower_share, pair).is_ok());
//! assert!(leader_share.verify(&directory, &bytes).is_ok());
//! assert!(follower_share.verify(&directory, &bytes).is_ok());
//! ```

// `deny` rather than `forbid`: the one sanctioned exception (`shani`)
// carries a scoped `allow` — see "Unsafe policy" above.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod hmac;
pub mod keys;
pub mod sha256;
mod shani;
pub mod sig;

pub use cost::CryptoCostModel;
pub use hmac::{HmacKey, HmacSha256};
pub use keys::{provision, KeyDirectory, SignerId, SigningKey, VerifyingKey};
pub use sha256::{CompressBackend, Digest, Sha256};
pub use sig::Signature;
