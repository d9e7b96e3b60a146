//! # failsignal
//!
//! The paper's primary contribution, as a reusable library: a **structured
//! transformation** of any crash-tolerant, deterministic middleware process
//! into an **authenticated-Byzantine-tolerant fail-signal (FS) process**.
//!
//! An FS process is realised as a self-checking pair of replicas hosted on
//! two nodes connected by a synchronous LAN.  Each replica runs inside a
//! Fail-Signal wrapper Object ([`wrapper::FsoActor`]) containing:
//!
//! * an **Order** half — the leader fixes the submission order of inputs and
//!   relays it to the follower, so both replicas of the wrapped
//!   [`fs_smr::machine::DeterministicMachine`] see identical input sequences;
//! * a **Compare** half — every output is cross-checked against the partner's
//!   copy, double-signed on success, and replaced by the pair's unique,
//!   pre-armed **fail-signal** on mismatch or timeout.
//!
//! The resulting failure semantics (fs1/fs2 in §1 of the paper) make received
//! fail-signals *trustworthy* failure notifications, so the FLP impossibility
//! for unannounced crashes no longer applies and deterministic total ordering
//! terminates without ◇W-style liveness assumptions — the property FS-NewTOP
//! (NewTOP's GC machines, each in a pair) builds on.
//!
//! Nothing here knows which machine it wraps or where the pair runs: a pair
//! resolves every endpoint through the [`fs_smr::machine::AddressMap`] the
//! crash-protocol host uses too, and the scenario harness (`fs-harness`)
//! places crash and fail-signal members with one assembly.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`message`] | double-signed [`message::FsOutput`] envelopes, pair-internal [`message::PairMessage`]s, the signed [`message::Statement`] (`header ‖ SHA-256(body)`) |
//! | [`digest`]  | [`digest::body_digest`]: the one memoised hash pass over an output's bytes |
//! | [`config`]  | per-wrapper configuration: identities, keys, address map, fail-signal inputs, timing (δ, κ, σ), crypto costs |
//! | [`wrapper`] | the FSO actor: Order + Compare + DMQ/IRMP/ICMP/ECMP pools + fail-signal emission |
//! | [`provision`] | [`provision::FsPairBuilder`]: keys, pre-armed fail-signals, pair construction |
//! | [`receiver`] | [`receiver::FsReceiver`]: validity checking and duplicate suppression at destinations |
//! | [`interceptor`] | [`interceptor::FsInterceptor`]: the member's local process, between its application and its pair |
//!
//! ## Example: wrapping a deterministic machine
//!
//! ```
//! use std::sync::Arc;
//! use fs_common::id::{FsId, MemberId, ProcessId};
//! use fs_common::rng::DetRng;
//! use fs_crypto::keys::{provision, SignerId};
//! use fs_crypto::cost::CryptoCostModel;
//! use fs_smr::machine::{AddressMap, EchoMachine, Endpoint};
//! use failsignal::provision::{FsPairBuilder, FsPairSpec};
//!
//! // Provision keys for the two wrapper processes at start-up (A1/A5).
//! let mut rng = DetRng::new(1);
//! let (mut keys, directory) = provision([ProcessId(0), ProcessId(1)], &mut rng);
//!
//! // A group of one member, FS process 0, whose wrappers are processes 0
//! // and 1 and whose local process (the client, and the destination of
//! // its outputs) is process 10.
//! let speakers: Arc<[ProcessId]> = Arc::new([ProcessId(0), ProcessId(1)]);
//! let addresses = AddressMap::new(speakers, 2, MemberId(0), ProcessId(10));
//! assert_eq!(addresses.source(ProcessId(10)), Some(Endpoint::LocalApp));
//!
//! // Build the pair around two replicas of the target machine.
//! let spec = FsPairSpec::new(FsId(0), ProcessId(0), ProcessId(1));
//! let (leader, follower) = FsPairBuilder::new(spec)
//!     .crypto_costs(CryptoCostModel::era_2003())
//!     .addresses(addresses)
//!     .build(
//!         keys.remove(&SignerId(ProcessId(0))).unwrap(),
//!         keys.remove(&SignerId(ProcessId(1))).unwrap(),
//!         Arc::clone(&directory),
//!         (Box::new(EchoMachine::new(0)), Box::new(EchoMachine::new(0))),
//!     );
//! assert!(leader.role().is_leader());
//! assert!(!follower.role().is_leader());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accepted;
pub mod config;
pub mod digest;
pub mod interceptor;
pub mod message;
pub mod provision;
pub mod receiver;
pub mod wrapper;

pub use config::FsoConfig;
pub use digest::body_digest;
pub use interceptor::FsInterceptor;
pub use message::{FsContent, FsOutput, FsoInbound, PairMessage, Statement};
pub use provision::{FsPairBuilder, FsPairSpec};
pub use receiver::{FsDelivery, FsReceiver, ReceiverStats};
pub use wrapper::{FsoActor, FsoPoolSizes, FsoStats};
