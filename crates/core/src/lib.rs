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
//! (NewTOP's GC machines lifted by [`group::build_fs_group`]) builds on.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`message`] | double-signed [`message::FsOutput`] envelopes, pair-internal [`message::PairMessage`]s, the signed [`message::Statement`] (`header ‖ SHA-256(body)`) |
//! | [`digest`]  | [`digest::body_digest`]: the one memoised hash pass over an output's bytes |
//! | [`config`]  | per-wrapper configuration: sources, routes, timing (δ, κ, σ), crypto costs |
//! | [`wrapper`] | the FSO actor: Order + Compare + DMQ/IRMP/ICMP/ECMP pools + fail-signal emission |
//! | [`provision`] | [`provision::FsPairBuilder`]: keys, pre-armed fail-signals, pair construction |
//! | [`receiver`] | [`receiver::FsReceiver`]: validity checking and duplicate suppression at destinations |
//!
//! ## Example: wrapping a deterministic machine
//!
//! ```
//! use std::sync::Arc;
//! use fs_common::id::{FsId, ProcessId};
//! use fs_common::rng::DetRng;
//! use fs_crypto::keys::{provision, SignerId};
//! use fs_crypto::cost::CryptoCostModel;
//! use fs_smr::machine::{EchoMachine, Endpoint};
//! use failsignal::provision::{FsPairBuilder, FsPairSpec};
//!
//! // Provision keys for the two wrapper processes at start-up (A1/A5).
//! let mut rng = DetRng::new(1);
//! let (mut keys, directory) = provision([ProcessId(0), ProcessId(1)], &mut rng);
//!
//! // Build the pair around two replicas of the target machine.
//! let spec = FsPairSpec::new(FsId(1), ProcessId(0), ProcessId(1));
//! let (leader, follower) = FsPairBuilder::new(spec)
//!     .crypto_costs(CryptoCostModel::era_2003())
//!     .trust_client(ProcessId(10), Endpoint::LocalApp)
//!     .route(Endpoint::LocalApp, vec![ProcessId(20)])
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

pub mod config;
pub mod digest;
pub mod group;
pub mod interceptor;
pub mod message;
pub mod provision;
pub mod receiver;
mod seqwindow;
pub mod service;
pub mod wrapper;

pub use config::{FsoConfig, RouteTable, SourceSpec};
pub use digest::body_digest;
pub use group::{build_fs_group, FsGroupParams, FsMemberProcs, GroupHost, PairLayout};
pub use interceptor::FsInterceptor;
pub use message::{FsContent, FsOutput, FsoInbound, PairMessage, Statement};
pub use provision::{FsPairBuilder, FsPairSpec};
pub use receiver::{FsDelivery, FsReceiver, ReceiverStats};
pub use service::FsService;
pub use wrapper::{FsoActor, FsoPoolSizes, FsoStats};
