//! # fs-common
//!
//! Shared foundation types for the fail-signal crash-to-Byzantine
//! transformation suite (a reproduction of *"From Crash Tolerance to
//! Authenticated Byzantine Tolerance: A Structured Approach, the Cost and
//! Benefits"*, Mpoeleng, Ezhilchelvan & Speirs, DSN 2003).
//!
//! This crate contains no protocol logic: it provides the identifiers, the
//! simulated-time types, the canonical wire codec, the deterministic RNG and
//! the shared configuration (the paper's timing assumptions A2–A4 and the
//! node-budget arithmetic) that every other crate builds on.
//!
//! ## Example
//!
//! ```
//! use fs_common::config::{NodeBudget, TimingAssumptions};
//! use fs_common::time::SimDuration;
//!
//! // Masking one Byzantine fault with the fail-signal approach needs 4f+2 = 6 nodes.
//! let budget = NodeBudget::new(1);
//! assert_eq!(budget.fail_signal_nodes(), 6);
//!
//! // The leader-side output-comparison timeout for π = 200 µs, τ = 50 µs.
//! let timing = TimingAssumptions::default();
//! let timeout = timing.leader_compare_timeout(
//!     SimDuration::from_micros(200),
//!     SimDuration::from_micros(50),
//! );
//! assert!(timeout > SimDuration::from_micros(1000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod config;
pub mod error;
pub mod fasthash;
pub mod id;
pub mod rng;
pub mod time;

pub use bytes::Bytes;
pub use codec::{Decoder, Encoder, Frame, Wire};
pub use config::{NodeBudget, TimingAssumptions};
pub use error::{CodecError, Error, Result, SignatureError};
pub use id::{FsId, GroupId, MemberId, MsgId, NodeId, ProcessId, Role};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
