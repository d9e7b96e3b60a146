//! The fault axis of the scenario matrix.
//!
//! A [`FaultSchedule`] declares two kinds of misbehaviour:
//!
//! * **process faults** — which processes misbehave and how, using the
//!   [`fs_faults`] injector vocabulary.  The scenario builder wraps the
//!   targeted actors in [`fs_faults::FaultyActor`]s at assembly time;
//! * **link faults** — timed drops, delays, loss and partitions between
//!   *members*, expressed in member terms ([`MemberLinkScope`]) and compiled
//!   to a node-level [`fs_simnet::link::LinkSchedule`] at build time.
//!
//! A [`FaultSchedule`] declares three kinds of misbehaviour — the third is
//! the recovery plane:
//!
//! * **member lifecycle events** — scheduled crash / recover / replace of a
//!   whole member ([`MemberFate`]), compiled at build time to process-level
//!   [`fs_simnet::lifecycle::LifecycleSchedule`] events over the member's
//!   *own* processes (its driver plus its interceptor and wrapper pair under
//!   the fail-signal protocol, its driver plus its middleware under the
//!   crash protocol).  `crash_member_at` takes the member down mid-run;
//!   `recover_member_at` restarts it warm (state intact, catch-up protocol
//!   kicked by the driver); `replace_member_at` installs a cold replacement
//!   that must rebuild its state by state transfer.
//!
//! Both kinds apply identically on the simulator and on the threaded
//! runtime, and to any service.  Link faults are how the paper's assumption
//! **A2** (timely links between correct processes) is violated on demand:
//! `partition_at`/`heal_at` stage a transient partition, `slow_link` holds a
//! link's delay above the suspicion timeout, `lossy_link` makes it drop
//! messages — each a one-line entry.

use fs_common::id::{MemberId, NodeId, Role};
use fs_common::time::{SimDuration, SimTime};
use fs_faults::FaultPlan;
use fs_simnet::link::{LinkFault, LinkSchedule, LinkScope};

use crate::scenario::Protocol;

/// Which of a member's processes a fault is injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The leader wrapper of the member's FS pair (fail-signal protocol
    /// only).
    Leader,
    /// The follower wrapper of the member's FS pair (fail-signal protocol
    /// only).
    Follower,
    /// The member's native middleware process (crash protocol only).
    Middleware,
}

/// One planned injection.
#[derive(Debug, Clone)]
pub struct FaultEntry {
    /// The afflicted member.
    pub member: MemberId,
    /// Which of its processes misbehaves.
    pub target: FaultTarget,
    /// What it does and when it starts.
    pub plan: FaultPlan,
    /// The injector's deterministic random seed.
    pub seed: u64,
}

/// Which member-to-member links a [`LinkFaultEntry`] targets, in *member*
/// terms.  At build time each member maps to its primary node (the node
/// hosting its application, interceptor and leader wrapper), which both
/// runtimes allocate as node `i` for member `i`.
///
/// Note that under the collapsed fail-signal layout member `i`'s *follower*
/// wrapper lives on member `(i+1) % n`'s primary node, so a member-scope
/// fault can also cut through an FS pair's internal link — exactly the A2
/// violation the pair's own timeouts are calibrated against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberLinkScope {
    /// The link between two members' primary nodes, both directions.
    Pair(MemberId, MemberId),
    /// Every link crossing the cut between the two member sets.
    Split {
        /// Members on one side of the cut.
        left: Vec<MemberId>,
        /// Members on the other side.
        right: Vec<MemberId>,
    },
    /// Only the `from` → `to` direction between two members' primary nodes —
    /// an *asymmetric* fault: `from`'s messages to `to` are affected while
    /// `to` can still reach `from`.  This is the shape of a half-broken NIC
    /// or an asymmetric route, and the hardest case for suspicion logic:
    /// `to` stops hearing from `from` but `from` still hears everyone.
    OneWay {
        /// The member whose outbound direction is faulted.
        from: MemberId,
        /// The member that stops receiving from `from`.
        to: MemberId,
    },
}

impl MemberLinkScope {
    /// Every member the scope names, on either side of the fault.
    pub(crate) fn members(&self) -> impl Iterator<Item = &MemberId> {
        let (a, b) = match self {
            MemberLinkScope::Pair(a, b) | MemberLinkScope::OneWay { from: a, to: b } => {
                (std::slice::from_ref(a), std::slice::from_ref(b))
            }
            MemberLinkScope::Split { left, right } => (&left[..], &right[..]),
        };
        a.iter().chain(b)
    }

    /// The node-level scope this member scope compiles to, with member `i`
    /// mapping to node `node_base + i` (a standalone scenario uses base 0;
    /// a cluster shard passes the base of its node block).
    fn to_link_scope(&self, node_base: u32) -> LinkScope {
        let node = move |m: &MemberId| NodeId(node_base + m.0);
        match self {
            MemberLinkScope::Pair(a, b) => LinkScope::Pair {
                a: node(a),
                b: node(b),
            },
            MemberLinkScope::Split { left, right } => LinkScope::Split {
                left: left.iter().map(node).collect(),
                right: right.iter().map(node).collect(),
            },
            MemberLinkScope::OneWay { from, to } => LinkScope::OneWay {
                from: node(from),
                to: node(to),
            },
        }
    }
}

/// What happens to a member at one scheduled recovery-plane event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberFate {
    /// Every process of the member goes down: deliveries to them are
    /// dropped and their armed timers are lost.
    Crash,
    /// The member's processes restart warm — in-memory state intact,
    /// [`fs_simnet::actor::Actor::on_recover`] runs so they re-arm timers
    /// and (for services that implement one) start their catch-up protocol.
    Recover,
    /// The member comes back as a cold replacement with none of the old
    /// state.  Under the crash protocol this installs a fresh middleware
    /// and a fresh rejoining driver; under the fail-signal protocol it
    /// compiles to a warm [`MemberFate::Recover`] — an FS pair cannot be
    /// replaced cold, because assumption **A1** pre-provisions its keys and
    /// the peers' replay guards pin its message sequence (see
    /// [`crate::group`]).
    Replace,
}

/// One planned member-lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberLifecycleEntry {
    /// When the event takes effect.
    pub at: SimTime,
    /// The affected member.
    pub member: MemberId,
    /// What happens to it.
    pub fate: MemberFate,
}

/// One planned link fault, in member terms.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultEntry {
    /// When the fault takes effect.
    pub at: SimTime,
    /// Which member-to-member links it targets.
    pub scope: MemberLinkScope,
    /// What happens to them.
    pub fault: LinkFault,
}

/// A set of planned injections for one scenario run.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    entries: Vec<FaultEntry>,
    link_entries: Vec<LinkFaultEntry>,
    lifecycle_entries: Vec<MemberLifecycleEntry>,
}

impl FaultSchedule {
    /// No faults: the failure-free runs of the paper's measurements.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds an injection into `member`'s leader wrapper.
    #[must_use]
    pub fn leader(self, member: MemberId, plan: FaultPlan) -> Self {
        self.inject(member, FaultTarget::Leader, plan)
    }

    /// Adds an injection into `member`'s follower wrapper.
    #[must_use]
    pub fn follower(self, member: MemberId, plan: FaultPlan) -> Self {
        self.inject(member, FaultTarget::Follower, plan)
    }

    /// Adds an injection into `member`'s crash-protocol middleware process.
    #[must_use]
    pub fn middleware(self, member: MemberId, plan: FaultPlan) -> Self {
        self.inject(member, FaultTarget::Middleware, plan)
    }

    /// Adds an injection with an explicit target.
    #[must_use]
    pub fn inject(mut self, member: MemberId, target: FaultTarget, plan: FaultPlan) -> Self {
        // Unique per (member, entry index): distinct injectors must draw
        // from independent deterministic random streams.
        let seed = 0x77 ^ ((u64::from(member.0) << 32) | self.entries.len() as u64);
        self.entries.push(FaultEntry {
            member,
            target,
            plan,
            seed,
        });
        self
    }

    /// The planned injections.
    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    /// Panics unless every entry lands on a member of shard `shard` (a group
    /// of `members` under `protocol`) and on a process kind it runs, one
    /// injector per process: a campaign that misses would run fault-free,
    /// drop an entry or hit another shard's node, and pass vacuously.
    pub(crate) fn assert_deployable(&self, shard: usize, members: u32, protocol: Protocol) {
        let linked = self.link_entries.iter().flat_map(|e| e.scope.members());
        for member in self.entries.iter().map(|e| &e.member).chain(linked) {
            assert!(
                member.0 < members,
                "fault schedule of shard {shard} names member {member}, which the group does \
                 not deploy",
            );
        }
        for (i, entry) in self.entries.iter().enumerate() {
            let (target, member) = (entry.target, entry.member);
            let wrapper = matches!(target, FaultTarget::Leader | FaultTarget::Follower);
            assert!(
                wrapper == (protocol == Protocol::FailSignal),
                "fault schedule of shard {shard} targets {target:?} of member {member}, which \
                 the {protocol:?} protocol does not deploy",
            );
            let twice = self.entries[..i]
                .iter()
                .any(|e| (e.member, e.target) == (member, target));
            assert!(
                !twice,
                "fault schedule of shard {shard} targets {target:?} of member {member} a second \
                 time, which the group does not deploy (one injector per process)",
            );
        }
    }

    /// True when nothing is injected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.link_entries.is_empty() && self.lifecycle_entries.is_empty()
    }

    // -- the recovery plane ---------------------------------------------------

    /// Crashes every process of `member` at `at`: deliveries to them are
    /// dropped and their timers lost until a later
    /// [`FaultSchedule::recover_member_at`] or
    /// [`FaultSchedule::replace_member_at`].
    #[must_use]
    pub fn crash_member_at(self, at: SimTime, member: MemberId) -> Self {
        self.member_lifecycle(at, member, MemberFate::Crash)
    }

    /// Restarts `member` warm at `at`: its processes keep their in-memory
    /// state, re-arm their timers and run their catch-up protocol to fill
    /// whatever the downtime lost.
    #[must_use]
    pub fn recover_member_at(self, at: SimTime, member: MemberId) -> Self {
        self.member_lifecycle(at, member, MemberFate::Recover)
    }

    /// Replaces `member` cold at `at`; see [`MemberFate::Replace`] for the
    /// per-protocol semantics (a fail-signal deployment downgrades this to a
    /// warm restart).
    #[must_use]
    pub fn replace_member_at(self, at: SimTime, member: MemberId) -> Self {
        self.member_lifecycle(at, member, MemberFate::Replace)
    }

    /// Adds a member-lifecycle event with an explicit fate.
    #[must_use]
    pub fn member_lifecycle(mut self, at: SimTime, member: MemberId, fate: MemberFate) -> Self {
        self.lifecycle_entries
            .push(MemberLifecycleEntry { at, member, fate });
        self
    }

    /// The planned member-lifecycle events, in insertion order.
    pub fn lifecycle_entries(&self) -> &[MemberLifecycleEntry] {
        &self.lifecycle_entries
    }

    // -- the link-fault plane -------------------------------------------------

    /// Severs every link between `left` and `right` members at `at` — a
    /// network partition.  Pair with [`FaultSchedule::heal_at`] for a
    /// transient partition.
    #[must_use]
    pub fn partition_at(self, at: SimTime, left: &[MemberId], right: &[MemberId]) -> Self {
        self.link_fault(
            at,
            MemberLinkScope::Split {
                left: left.to_vec(),
                right: right.to_vec(),
            },
            LinkFault::Sever,
        )
    }

    /// Heals every link between `left` and `right` members at `at`,
    /// clearing severing and any degradation.
    #[must_use]
    pub fn heal_at(self, at: SimTime, left: &[MemberId], right: &[MemberId]) -> Self {
        self.link_fault(
            at,
            MemberLinkScope::Split {
                left: left.to_vec(),
                right: right.to_vec(),
            },
            LinkFault::Heal,
        )
    }

    /// Makes the link between members `a` and `b` drop each message with
    /// `probability` from `at` on.
    #[must_use]
    pub fn lossy_link(self, at: SimTime, a: MemberId, b: MemberId, probability: f64) -> Self {
        self.link_fault(
            at,
            MemberLinkScope::Pair(a, b),
            LinkFault::Loss { probability },
        )
    }

    /// Adds `extra` one-way delay (plus up to `jitter` of uniform jitter) to
    /// the link between members `a` and `b` from `at` on — the A2-violation
    /// knob: past the suspicion timeout, correct members start being
    /// suspected.
    #[must_use]
    pub fn slow_link(
        self,
        at: SimTime,
        a: MemberId,
        b: MemberId,
        extra: SimDuration,
        jitter: SimDuration,
    ) -> Self {
        self.link_fault(
            at,
            MemberLinkScope::Pair(a, b),
            LinkFault::Delay { extra, jitter },
        )
    }

    /// Severs only the `from` → `to` direction between two members at `at`:
    /// `from`'s messages stop reaching `to` while the reverse direction keeps
    /// flowing.  Heal with a [`MemberLinkScope::OneWay`] `Heal` entry via
    /// [`FaultSchedule::link_fault`].
    #[must_use]
    pub fn sever_one_way(self, at: SimTime, from: MemberId, to: MemberId) -> Self {
        self.link_fault(at, MemberLinkScope::OneWay { from, to }, LinkFault::Sever)
    }

    /// Makes only the `from` → `to` direction drop each message with
    /// `probability` from `at` on — the asymmetric sibling of
    /// [`FaultSchedule::lossy_link`].
    #[must_use]
    pub fn lossy_link_one_way(
        self,
        at: SimTime,
        from: MemberId,
        to: MemberId,
        probability: f64,
    ) -> Self {
        self.link_fault(
            at,
            MemberLinkScope::OneWay { from, to },
            LinkFault::Loss { probability },
        )
    }

    /// Adds a link fault with an explicit scope and fault value (the general
    /// form behind the named helpers; accepts the full
    /// [`LinkFault`] vocabulary, including `Throttle`).
    #[must_use]
    pub fn link_fault(mut self, at: SimTime, scope: MemberLinkScope, fault: LinkFault) -> Self {
        self.link_entries.push(LinkFaultEntry { at, scope, fault });
        self
    }

    /// The planned link faults, in insertion order.
    pub fn link_entries(&self) -> &[LinkFaultEntry] {
        &self.link_entries
    }

    /// Compiles the link entries to the node-level schedule both runtimes
    /// execute (member `i` → node `i`, the primary-node invariant of the
    /// scenario assemblers).
    pub fn compile_link_schedule(&self) -> LinkSchedule {
        self.compile_link_schedule_with_base(0)
    }

    /// Like [`FaultSchedule::compile_link_schedule`], but mapping member `i`
    /// to node `node_base + i` — used by the cluster layer, where each
    /// shard's members occupy a contiguous node block starting at its base.
    pub fn compile_link_schedule_with_base(&self, node_base: u32) -> LinkSchedule {
        let mut schedule = LinkSchedule::new();
        for entry in &self.link_entries {
            schedule = schedule.then(
                entry.at,
                entry.scope.to_link_scope(node_base),
                entry.fault.clone(),
            );
        }
        schedule
    }

    /// The plan targeting `member`'s wrapper with the given pair role, if
    /// any.
    pub fn for_wrapper(&self, member: MemberId, role: Role) -> Option<&FaultEntry> {
        let target = if role.is_leader() {
            FaultTarget::Leader
        } else {
            FaultTarget::Follower
        };
        self.entries
            .iter()
            .find(|e| e.member == member && e.target == target)
    }

    /// The plan targeting `member`'s crash-protocol middleware, if any.
    pub fn for_middleware(&self, member: MemberId) -> Option<&FaultEntry> {
        self.entries
            .iter()
            .find(|e| e.member == member && e.target == FaultTarget::Middleware)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_faults::FaultKind;

    #[test]
    fn lookups_match_targets() {
        let schedule = FaultSchedule::none()
            .follower(MemberId(1), FaultPlan::immediate(FaultKind::Crash))
            .middleware(
                MemberId(2),
                FaultPlan::after(3, FaultKind::DuplicateOutputs),
            );
        assert_eq!(schedule.entries().len(), 2);
        assert!(!schedule.is_empty());
        assert!(schedule.for_wrapper(MemberId(1), Role::Follower).is_some());
        assert!(schedule.for_wrapper(MemberId(1), Role::Leader).is_none());
        assert!(schedule.for_wrapper(MemberId(0), Role::Follower).is_none());
        assert!(schedule.for_middleware(MemberId(2)).is_some());
        assert!(schedule.for_middleware(MemberId(1)).is_none());
        assert!(FaultSchedule::none().is_empty());
    }

    #[test]
    fn lifecycle_entries_are_recorded_in_order() {
        let schedule = FaultSchedule::none()
            .crash_member_at(SimTime::from_secs(10), MemberId(1))
            .recover_member_at(SimTime::from_secs(20), MemberId(1))
            .replace_member_at(SimTime::from_secs(30), MemberId(2));
        assert!(
            !schedule.is_empty(),
            "lifecycle-only schedules are not empty"
        );
        assert!(schedule.entries().is_empty());
        assert!(schedule.link_entries().is_empty());
        let entries = schedule.lifecycle_entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries[0],
            MemberLifecycleEntry {
                at: SimTime::from_secs(10),
                member: MemberId(1),
                fate: MemberFate::Crash,
            }
        );
        assert_eq!(entries[1].fate, MemberFate::Recover);
        assert_eq!(entries[2].fate, MemberFate::Replace);
        assert_eq!(entries[2].member, MemberId(2));
    }

    #[test]
    fn link_entries_compile_to_node_schedule() {
        use fs_common::id::NodeId;
        use fs_common::time::{SimDuration, SimTime};
        use fs_simnet::link::{LinkFault, LinkScope};

        let schedule = FaultSchedule::none()
            .partition_at(
                SimTime::from_secs(5),
                &[MemberId(0)],
                &[MemberId(1), MemberId(2)],
            )
            .heal_at(
                SimTime::from_secs(8),
                &[MemberId(0)],
                &[MemberId(1), MemberId(2)],
            )
            .lossy_link(SimTime::ZERO, MemberId(1), MemberId(2), 0.25)
            .slow_link(
                SimTime::from_secs(1),
                MemberId(0),
                MemberId(1),
                SimDuration::from_millis(300),
                SimDuration::from_millis(50),
            );
        assert!(!schedule.is_empty(), "link-only schedules are not empty");
        assert_eq!(schedule.link_entries().len(), 4);
        assert!(schedule.entries().is_empty(), "no process faults planned");

        let compiled = schedule.compile_link_schedule();
        assert_eq!(compiled.len(), 4);
        let ordered = compiled.in_order();
        // Time-ordered: loss at 0, slow at 1 s, sever at 5 s, heal at 8 s.
        assert_eq!(ordered[0].fault, LinkFault::Loss { probability: 0.25 });
        assert_eq!(
            ordered[1].fault,
            LinkFault::Delay {
                extra: SimDuration::from_millis(300),
                jitter: SimDuration::from_millis(50),
            }
        );
        assert_eq!(ordered[2].fault, LinkFault::Sever);
        assert_eq!(
            ordered[2].scope,
            LinkScope::Split {
                left: vec![NodeId(0)],
                right: vec![NodeId(1), NodeId(2)],
            },
            "member i maps to node i"
        );
        assert_eq!(ordered[3].fault, LinkFault::Heal);
    }

    #[test]
    fn link_entries_compile_with_node_base() {
        use fs_common::id::NodeId;
        use fs_common::time::SimTime;
        use fs_simnet::link::LinkScope;

        let schedule =
            FaultSchedule::none().sever_one_way(SimTime::from_secs(1), MemberId(0), MemberId(2));
        let ordered = schedule.compile_link_schedule_with_base(5).in_order();
        assert_eq!(
            ordered[0].scope,
            LinkScope::OneWay {
                from: NodeId(5),
                to: NodeId(7),
            },
            "member i maps to node base + i"
        );
    }

    #[test]
    fn one_way_entries_compile_to_directed_scopes() {
        use fs_common::id::NodeId;
        use fs_common::time::SimTime;
        use fs_simnet::link::LinkScope;

        let schedule = FaultSchedule::none()
            .sever_one_way(SimTime::from_secs(2), MemberId(0), MemberId(1))
            .lossy_link_one_way(SimTime::from_secs(3), MemberId(2), MemberId(0), 0.5);
        let compiled = schedule.compile_link_schedule();
        let ordered = compiled.in_order();
        assert_eq!(
            ordered[0].scope,
            LinkScope::OneWay {
                from: NodeId(0),
                to: NodeId(1),
            }
        );
        assert_eq!(ordered[0].fault, LinkFault::Sever);
        assert_eq!(
            ordered[1].scope,
            LinkScope::OneWay {
                from: NodeId(2),
                to: NodeId(0),
            }
        );
        assert_eq!(ordered[1].fault, LinkFault::Loss { probability: 0.5 });
    }
}
