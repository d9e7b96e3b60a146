//! # fs-smr-suite
//!
//! Facade crate for the fail-signal crash-to-Byzantine transformation suite —
//! a from-scratch Rust reproduction of *"From Crash Tolerance to
//! Authenticated Byzantine Tolerance: A Structured Approach, the Cost and
//! Benefits"* (Mpoeleng, Ezhilchelvan & Speirs, DSN 2003).
//!
//! The suite is organised as a workspace; this crate re-exports the nine
//! member crates under stable module names and hosts the runnable examples and the
//! cross-crate integration tests.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `fs-common` | identifiers, simulated time, codec, timing assumptions, node budgets |
//! | [`crypto`] | `fs-crypto` | SHA-256, HMAC, key directory, single/double signatures, cost model |
//! | [`simnet`] | `fs-simnet` | discrete-event simulator, node/link models, threaded runtime, the load plane ([`simnet::load::Workload`], [`simnet::load::LoadGen`]) |
//! | [`smr`] | `fs-smr` | deterministic machines, application replicas, majority voting, sequenced KV |
//! | [`newtop`] | `fs-newtop` | the crash-tolerant NewTOP group-communication service |
//! | [`failsignal`] | `failsignal` | the fail-signal wrapper pair and the generic group lift (the paper's contribution) |
//! | [`harness`] | `fs-harness` | the [`harness::Scenario`] builder: service × runtime × workload × faults × protocol — the only way to deploy NewTOP, FS-NewTOP or any other wrapped service — and the sharded [`harness::Cluster`] |
//! | [`faults`] | `fs-faults` | fault injection |
//! | [`mod@bench`] | `fs-bench` | figure-regeneration harness, ablations and the structural `hotpath` guards (host cost is measured by the standalone `benchmark/` package) |
//!
//! ## Quick start
//!
//! Every deployment — any service, either runtime, either protocol — is one
//! [`harness::Scenario`]:
//!
//! ```
//! use fs_smr_suite::common::time::{SimDuration, SimTime};
//! use fs_smr_suite::harness::{NewTopService, Protocol, Scenario, Workload};
//!
//! let mut run = Scenario::new(NewTopService::new())
//!     .members(3)
//!     .protocol(Protocol::FailSignal)
//!     .workload(Workload::quick(2).interval(SimDuration::from_millis(25)))
//!     .build();
//! run.run_until(SimTime::from_secs(60));
//! assert_eq!(run.delivery_log(0).len(), 6);
//! assert_eq!(run.delivery_log(1), run.delivery_log(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use failsignal;
pub use fs_bench as bench;
pub use fs_common as common;
pub use fs_crypto as crypto;
pub use fs_faults as faults;
pub use fs_harness as harness;
pub use fs_newtop as newtop;
pub use fs_simnet as simnet;
pub use fs_smr as smr;
