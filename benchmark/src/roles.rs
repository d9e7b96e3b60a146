//! Attribution of simulator trace events to protocol roles.
//!
//! The simulator's trace names processes, not layers.  [`RoleMap`] turns the
//! harness's [`MemberProcs`] handles into a process → role table, and
//! [`FrameCounts`] folds `TraceEvent::Send` events into per-class frame
//! counts — the per-layer "work done as a count" of the fail-signal lift.

use std::collections::{BTreeMap, HashMap};

use fs_smr_suite::common::id::ProcessId;
use fs_smr_suite::harness::{MemberProcs, Protocol};
use fs_smr_suite::simnet::trace::{TraceEvent, TraceLog};

/// What a process is within its member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The cluster router (cluster deployments only).
    Router,
    /// The application / workload driver.
    App,
    /// The crash protocol's native middleware.
    Middleware,
    /// The fail-signal interceptor between application and wrapper pair.
    Interceptor,
    /// The leader wrapper of the member's fail-signal pair.
    Leader,
    /// The follower wrapper of the member's fail-signal pair.
    Follower,
}

impl Role {
    fn is_wrapper(self) -> bool {
        matches!(self, Role::Leader | Role::Follower)
    }
}

/// The class of one frame, by the roles and members of its two ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FrameClass {
    /// Router ↔ shard entry driver.
    Router,
    /// Application ↔ its middleware or interceptor (requests and upcalls).
    Local,
    /// Interceptor → one of its wrappers (the request copy each replica gets).
    Submit,
    /// Leader ↔ follower of one pair: ordering, forwarding and candidate
    /// exchange — the frames output comparison costs.
    Pair,
    /// Wrapper → a wrapper of another member: double-signed protocol traffic.
    External,
    /// Wrapper → its own interceptor: double-signed upcalls.
    Output,
    /// Crash middleware ↔ crash middleware of another member.
    Peer,
    /// Anything else (unknown process, or an unexpected pairing).
    Other,
}

impl FrameClass {
    /// Stable lower-case name, used as a JSON key in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            FrameClass::Router => "router",
            FrameClass::Local => "local",
            FrameClass::Submit => "submit",
            FrameClass::Pair => "pair",
            FrameClass::External => "external",
            FrameClass::Output => "output",
            FrameClass::Peer => "peer",
            FrameClass::Other => "other",
        }
    }

    /// True for the classes that carry a double-signed fail-signal output,
    /// i.e. whose receiver runs a destination-side verification.
    pub fn is_double_signed(self) -> bool {
        matches!(self, FrameClass::External | FrameClass::Output)
    }
}

/// Process → (group-wide member key, role).
#[derive(Debug, Default)]
pub struct RoleMap {
    roles: HashMap<ProcessId, (u32, Role)>,
}

impl RoleMap {
    /// An empty map; add groups with [`RoleMap::add_group`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the cluster router process.
    pub fn add_router(&mut self, router: ProcessId) {
        self.roles.insert(router, (u32::MAX, Role::Router));
    }

    /// Registers one group's members.  `group` disambiguates members of
    /// different shards (member indices restart at zero in every shard).
    pub fn add_group(&mut self, group: u32, protocol: Protocol, members: &[MemberProcs]) {
        for procs in members {
            let key = group << 16 | procs.member.0;
            self.roles.insert(procs.app, (key, Role::App));
            match protocol {
                Protocol::Crash => {
                    self.roles.insert(procs.middleware, (key, Role::Middleware));
                }
                Protocol::FailSignal => {
                    self.roles
                        .insert(procs.middleware, (key, Role::Interceptor));
                    self.roles.insert(procs.leader, (key, Role::Leader));
                    self.roles.insert(procs.follower, (key, Role::Follower));
                }
            }
        }
    }

    /// The role of `process`, if registered.
    pub fn role_of(&self, process: ProcessId) -> Option<Role> {
        self.roles.get(&process).map(|&(_, role)| role)
    }

    /// Classifies one frame by its endpoints.
    pub fn classify(&self, from: ProcessId, to: ProcessId) -> FrameClass {
        let (Some(&(from_member, from_role)), Some(&(to_member, to_role))) =
            (self.roles.get(&from), self.roles.get(&to))
        else {
            return FrameClass::Other;
        };
        let same = from_member == to_member;
        match (from_role, to_role) {
            (Role::Router, Role::App) | (Role::App, Role::Router) => FrameClass::Router,
            (Role::App, Role::Middleware | Role::Interceptor)
            | (Role::Middleware | Role::Interceptor, Role::App)
                if same =>
            {
                FrameClass::Local
            }
            (Role::Interceptor, to) if same && to.is_wrapper() => FrameClass::Submit,
            (from, Role::Interceptor) if same && from.is_wrapper() => FrameClass::Output,
            (from, to) if from.is_wrapper() && to.is_wrapper() => {
                if same {
                    FrameClass::Pair
                } else {
                    FrameClass::External
                }
            }
            (Role::Middleware, Role::Middleware) if !same => FrameClass::Peer,
            _ => FrameClass::Other,
        }
    }
}

/// Per-class counts of the frames a traced run sent.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FrameCounts {
    /// Frames sent, by class.
    pub sent: BTreeMap<FrameClass, u64>,
    /// Distinct double-signed outputs emitted by wrappers.  A wrapper encodes
    /// each output once and sends the same bytes to every routed process, so
    /// its sends that share an instant and a size are one output fanned out
    /// over its route — unless a destination repeats, which marks a second
    /// output of the same size from the same handler.
    pub signed_outputs: u64,
    /// Frame bytes of those outputs, each counted once (not per recipient):
    /// what the wrappers had to sign.
    pub signed_output_bytes: u64,
}

impl FrameCounts {
    /// Folds every `Send` event of `trace`.
    pub fn from_trace(trace: &TraceLog, roles: &RoleMap) -> Self {
        let mut counts = FrameCounts::default();
        let mut fanouts: BTreeMap<(u32, u64, usize), BTreeMap<u32, u64>> = BTreeMap::new();
        for event in trace.events() {
            let TraceEvent::Send { at, from, to, size } = event else {
                continue;
            };
            let class = roles.classify(*from, *to);
            *counts.sent.entry(class).or_insert(0) += 1;
            if class.is_double_signed() {
                let fanout = fanouts.entry((from.0, at.as_nanos(), *size)).or_default();
                *fanout.entry(to.0).or_insert(0) += 1;
            }
        }
        for (&(_, _, size), fanout) in &fanouts {
            let outputs = fanout.values().copied().max().unwrap_or(0);
            counts.signed_outputs += outputs;
            counts.signed_output_bytes += outputs * size as u64;
        }
        counts
    }

    /// Frames of `class`.
    pub fn of(&self, class: FrameClass) -> u64 {
        self.sent.get(&class).copied().unwrap_or(0)
    }

    /// All frames, which must equal `NetStats::messages_sent` of the run.
    pub fn total(&self) -> u64 {
        self.sent.values().sum()
    }

    /// Frames whose receiver verifies a double signature.
    pub fn double_signed(&self) -> u64 {
        self.of(FrameClass::External) + self.of(FrameClass::Output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_smr_suite::common::time::SimTime;
    use fs_smr_suite::failsignal::wrapper::FsoActor;
    use fs_smr_suite::harness::{Scenario, SmrKvService, Workload};

    #[test]
    fn every_frame_of_a_small_fs_run_lands_in_a_role_class() {
        let mut run = Scenario::new(SmrKvService::new())
            .members(3)
            .protocol(Protocol::FailSignal)
            .workload(Workload::quick(4))
            .build();
        run.enable_trace();
        run.run_until(SimTime::from_secs(600));
        let mut roles = RoleMap::new();
        roles.add_group(0, Protocol::FailSignal, run.members());
        let counts = FrameCounts::from_trace(run.trace().expect("trace enabled"), &roles);

        assert_eq!(counts.total(), run.stats().messages_sent);
        assert_eq!(counts.of(FrameClass::Other), 0, "{counts:?}");
        assert_eq!(counts.of(FrameClass::Peer), 0);
        assert!(counts.of(FrameClass::Pair) > 0);
        assert!(counts.of(FrameClass::External) > 0);
        // Each of the 12 requests reaches both wrappers of its member, and
        // each of the 36 ordered deliveries is sent up by both wrappers.
        assert_eq!(counts.of(FrameClass::Submit), 24);
        assert_eq!(counts.of(FrameClass::Output), 72);

        // The trace-derived output count is the wrappers' own count.
        let members = run.members().to_vec();
        let sim = run.sim().expect("simulator run");
        let validated: u64 = members
            .iter()
            .flat_map(|m| [m.leader, m.follower])
            .map(|pid| sim.actor::<FsoActor>(pid).expect("wrapper").stats())
            .map(|s| s.outputs_validated)
            .sum();
        assert_eq!(counts.signed_outputs, validated);
        // Every output carries at least its two 32-byte signatures.
        assert!(counts.signed_output_bytes > 64 * validated);
    }

    #[test]
    fn crash_frames_are_local_or_peer() {
        let mut run = Scenario::new(SmrKvService::new())
            .members(3)
            .protocol(Protocol::Crash)
            .workload(Workload::quick(3))
            .build();
        run.enable_trace();
        run.run_until(SimTime::from_secs(600));
        let mut roles = RoleMap::new();
        roles.add_group(0, Protocol::Crash, run.members());
        let counts = FrameCounts::from_trace(run.trace().expect("trace enabled"), &roles);
        assert_eq!(counts.total(), run.stats().messages_sent);
        assert_eq!(
            counts.total(),
            counts.of(FrameClass::Local) + counts.of(FrameClass::Peer)
        );
        assert_eq!(counts.signed_outputs, 0);
        assert_eq!(roles.role_of(run.members()[0].app), Some(Role::App));
    }
}
