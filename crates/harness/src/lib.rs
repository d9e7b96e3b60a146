//! # fs-harness
//!
//! The runtime-agnostic **scenario harness** of the fail-signal suite: one
//! typed builder for the whole matrix *service × runtime × workload × fault
//! schedule × protocol*.
//!
//! The paper's claim is that the fail-signal transformation is a
//! *structured, reusable* lift from crash tolerance to authenticated
//! Byzantine tolerance.  This crate makes the claim operational: the axes of
//! a deployment are orthogonal, pluggable values rather than per-system
//! builder functions.
//!
//! There is one path from a description to a running deployment:
//! a [`Workload`] describes the load, every load-driving actor owns one
//! [`fs_simnet::load::LoadGen`] built from it, [`Scenario::build`] (one
//! group) and [`Cluster::build`] (several groups behind a router) place
//! their processes through the same internal `deploy`, and the result is
//! driven and inspected through [`Running`] / [`RunningCluster`].  Crash
//! tolerance and fail-signal tolerance are two values of the protocol
//! axis, not two builders.
//!
//! | axis | type | shipped values |
//! |---|---|---|
//! | service | [`ServiceSpec`] | [`NewTopService`] (the paper's GC), [`SmrKvService`] (sequenced replicated KV) |
//! | runtime | [`RuntimeKind`] | discrete-event simulator, real threads |
//! | workload | [`Workload`] | messages × payload × cadence, arrival process, admission control, batching |
//! | faults | [`FaultSchedule`] | any [`fs_faults::FaultKind`] against any wrapper or middleware, timed link faults (partition/heal, loss, delay, throttle) between members, and scheduled member crash / recover / replace events (the recovery plane) |
//! | protocol | [`Protocol`] | crash-tolerant native, fail-signal lifted |
//! | topology | [`fs_simnet::link::Topology`] via [`Scenario::topology`] / [`Scenario::link_model`] | the paper's 100 Mb/s LAN by default |
//!
//! ```
//! use fs_common::time::SimTime;
//! use fs_harness::{Protocol, RuntimeKind, Scenario, SmrKvService, Workload};
//!
//! // The second service (a replicated KV), lifted to Byzantine tolerance by
//! // the very same wrapper path NewTOP uses — no service-specific code.
//! let mut run = Scenario::new(SmrKvService::new())
//!     .members(3)
//!     .runtime(RuntimeKind::Sim)
//!     .protocol(Protocol::FailSignal)
//!     .workload(Workload::quick(3))
//!     .build();
//! run.run_until(SimTime::from_secs(120));
//! assert_eq!(run.delivery_log(0).len(), 9);
//! assert_eq!(run.delivery_log(1), run.delivery_log(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod deployment;
pub mod faults;
pub mod scenario;
pub mod service;
pub mod workload;

pub use cluster::{
    Cluster, ClusterMsg, ClusterRouter, ClusterSnapshot, Partitioner, RunningCluster,
    ShardFrontier, ShardLoad,
};
pub use failsignal::group::PairLayout;
pub use faults::{
    FaultEntry, FaultSchedule, FaultTarget, LinkFaultEntry, MemberFate, MemberLifecycleEntry,
    MemberLinkScope,
};
pub use scenario::{MemberProcs, Protocol, Running, RuntimeKind, Scenario};
pub use service::{NewTopService, PlainHost, ServiceSpec, SmrDriver, SmrKvService};
pub use workload::{Admission, Arrival, LoadStats, Workload};
