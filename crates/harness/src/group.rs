//! Where a group's processes go: the runtimes that host them
//! ([`GroupHost`]) and the placement of the fail-signal followers
//! ([`PairLayout`]).  The assembly itself is one per-member loop,
//! `Scenario::assemble_at`, for either protocol.
//!
//! # Lifecycle-plane interplay
//!
//! The runtimes' process lifecycle plane (scheduled crash / recover /
//! replace) composes with fail-signal members under one restriction: the
//! wrapper processes support **warm restarts only** (crash followed by
//! recover).  A warm restart keeps the wrapper's signing key, its
//! per-source sequence state and the comparison pools in memory, and the
//! wrapper's recovery hook re-arms the lost deadlines.  A *cold*
//! replacement of a wrapper is not supported: under assumption A1 the
//! signing keys are provisioned before the run and every peer holds
//! per-`(fs, dest, output_seq)` dedup state tied to the original
//! incarnation — a fresh wrapper could neither prove the old identity nor
//! resynchronise the pair protocol.  Recovery scenarios therefore restart
//! fail-signal members warm (the service state inside the pair catches up
//! through the service's own state-transfer path), while cold replacement
//! is exercised on the crash protocol, whose host carries no signing state.

use fs_common::id::ProcessId;
use fs_simnet::actor::Actor;
use fs_simnet::node::NodeConfig;
use fs_simnet::sim::Simulation;
use fs_simnet::threaded::{ThreadNode, ThreadedBuilder};

/// Physical placement of the follower wrappers, per the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairLayout {
    /// Figure 4: two nodes per member (`4f + 2` in total for `2f + 1`
    /// members) — each follower wrapper on its own dedicated node.
    Full,
    /// Figure 5 (the experimental placement): one node per member, each
    /// hosting its own leader wrapper plus the *follower* wrapper of the
    /// next member's pair.
    Collapsed,
}

/// A runtime that can host a group: somewhere to create nodes and to place
/// actors on them.  Implemented by the discrete-event [`Simulation`] and by
/// the real [`ThreadedBuilder`] runtime, which is what makes the group
/// assembly (and the whole scenario harness above it) runtime-agnostic.
pub trait GroupHost {
    /// A node handle of this runtime.
    type Node: Copy;

    /// Adds a node.  Runtimes without a node cost model ignore `config`.
    fn add_host_node(&mut self, config: &NodeConfig) -> Self::Node;

    /// Places `actor` on `node` under the explicit identifier `id`.
    fn place(&mut self, id: ProcessId, node: Self::Node, actor: Box<dyn Actor>);
}

impl GroupHost for Simulation {
    type Node = fs_common::id::NodeId;

    fn add_host_node(&mut self, config: &NodeConfig) -> Self::Node {
        self.add_node(*config)
    }

    fn place(&mut self, id: ProcessId, node: Self::Node, actor: Box<dyn Actor>) {
        self.spawn_with(id, node, actor);
    }
}

impl GroupHost for ThreadedBuilder {
    type Node = ThreadNode;

    fn add_host_node(&mut self, _config: &NodeConfig) -> Self::Node {
        self.add_node()
    }

    fn place(&mut self, id: ProcessId, node: Self::Node, actor: Box<dyn Actor>) {
        self.add_with_on(id, node, actor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failsignal::interceptor::FsInterceptor;
    use fs_common::id::MemberId;
    use fs_common::time::{SimDuration, SimTime};
    use fs_common::Frame;
    use fs_simnet::actor::{Context, TimerId};
    use fs_simnet::link::{LinkModel, Topology};
    use fs_smr::machine::{DeterministicMachine, EchoMachine};

    use crate::deployment::ShardAt;
    use crate::faults::FaultSchedule;
    use crate::scenario::{MemberProcs, Scenario};
    use crate::service::ServiceSpec;
    use crate::workload::Workload;

    /// An echo machine per member; each driver sends `messages` raw
    /// requests and counts the echoes.
    struct EchoService;

    impl ServiceSpec for EchoService {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn machine(&self, _member: MemberId, _group: &[MemberId]) -> Box<dyn DeterministicMachine> {
            Box::new(EchoMachine::new(0))
        }
        fn driver(
            &self,
            _member: MemberId,
            middleware: ProcessId,
            workload: &Workload,
        ) -> Box<dyn Actor> {
            Box::new(PingDriver {
                middleware,
                to_send: workload.messages as u32,
                sent: 0,
                echoes: 0,
            })
        }
        fn delivery_log_of(&self, _driver: &dyn Actor) -> Option<Vec<(MemberId, u64)>> {
            None
        }
    }

    /// Sends a few raw requests to its interceptor and counts the echoes.
    struct PingDriver {
        middleware: ProcessId,
        to_send: u32,
        sent: u32,
        echoes: u32,
    }

    impl Actor for PingDriver {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(SimDuration::from_millis(5), TimerId(1));
        }
        fn on_timer(&mut self, ctx: &mut dyn Context, _timer: TimerId) {
            if self.sent < self.to_send {
                // Payloads must be distinct: the wrapper pair deduplicates
                // identical raw inputs by digest (the DMQ of §2.1).
                let payload = format!("ping-{}-{}", ctx.me(), self.sent);
                self.sent += 1;
                ctx.send(self.middleware, payload.into_bytes().into());
                ctx.set_timer(SimDuration::from_millis(10), TimerId(1));
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {
            self.echoes += 1;
        }
    }

    /// A fail-signal group of `members` echo services, each driver sending
    /// `messages` requests, assembled at `pid_base` on a fresh simulator.
    fn assemble(
        members: u32,
        layout: PairLayout,
        messages: u64,
        pid_base: u32,
    ) -> (Simulation, Vec<MemberProcs>) {
        let mut sim = Simulation::with_topology(7, Topology::new(LinkModel::lan_100mbps()));
        let scenario = Scenario::new(EchoService)
            .members(members)
            .layout(layout)
            .crypto_costs(fs_crypto::cost::CryptoCostModel::free())
            .timing(fs_common::config::TimingAssumptions::default())
            .workload(Workload::quick(messages));
        let shard = ShardAt {
            faults: FaultSchedule::none(),
            seed: 11,
            pid_base,
            node_base: 0,
        };
        let procs = scenario.assemble_at(&mut sim, &shard);
        (sim, procs)
    }

    #[test]
    fn generic_group_echoes_on_the_simulator() {
        let (mut sim, members) = assemble(3, PairLayout::Collapsed, 3, 0);
        assert_eq!(members.len(), 3);
        assert_eq!(sim.node_count(), 3, "collapsed layout: one node per member");
        sim.run_until(SimTime::from_secs(30));
        for handle in &members {
            let driver = sim.actor::<PingDriver>(handle.app).expect("driver");
            assert_eq!(driver.echoes, 3, "member {} echoes", handle.member);
            let icp = sim
                .actor::<FsInterceptor>(handle.middleware)
                .expect("interceptor");
            assert!(!icp.local_fail_signalled());
        }
    }

    #[test]
    fn pid_base_offsets_every_process() {
        let (mut sim, members) = assemble(2, PairLayout::Collapsed, 2, 1024);
        for (i, m) in members.iter().enumerate() {
            let i = i as u32;
            assert_eq!(m.app, ProcessId(1024 + 4 * i));
            assert_eq!(m.middleware, ProcessId(1024 + 4 * i + 1));
            assert_eq!(m.leader, ProcessId(1024 + 4 * i + 2));
            assert_eq!(m.follower, ProcessId(1024 + 4 * i + 3));
        }
        sim.run_until(SimTime::from_secs(30));
        for handle in &members {
            let driver = sim.actor::<PingDriver>(handle.app).expect("driver");
            assert_eq!(driver.echoes, 2, "member {} echoes", handle.member);
        }
    }

    #[test]
    fn full_layout_doubles_the_node_count() {
        let (sim, _) = assemble(2, PairLayout::Full, 0, 0);
        assert_eq!(sim.node_count(), 4, "full layout: two nodes per member");
        assert_eq!(sim.actor_count(), 8);
    }
}
