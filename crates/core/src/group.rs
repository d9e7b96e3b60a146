//! Runtime-agnostic assembly of a fail-signal-wrapped **group** of services.
//!
//! This module is the generic extraction of what the FS-NewTOP deployment
//! builder used to hard-wire: given *any* [`FsService`] (the service axis)
//! and *any* [`GroupHost`] (the runtime axis — the discrete-event simulator
//! or the threaded runtime), [`build_fs_group`] provisions signing keys,
//! builds one wrapper pair per member around two fresh replicas of the
//! service machine, registers every peer pair as an authenticated source,
//! wires the fail-signal → environment-input conversion, places the
//! interceptor and the application driver, and lays the follower wrappers
//! out per the paper's Figure 4 (full) or Figure 5 (collapsed) placement.
//!
//! There is **no service-specific code** on this path: FS-NewTOP and FS-SMR
//! are produced by the same lines, differing only in the
//! [`FsService`] values passed in.
//!
//! # Lifecycle-plane interplay
//!
//! The runtimes' process lifecycle plane (scheduled crash / recover /
//! replace) composes with FS groups under one restriction: FS wrapper
//! processes support **warm restarts only** (crash followed by recover).  A
//! warm restart keeps the wrapper's signing key, its per-source sequence
//! state and the comparison pools in memory, and the wrapper's recovery hook
//! re-arms the lost deadlines.  A *cold* replacement of a wrapper is not
//! supported: under assumption A1 the signing keys are provisioned before
//! the run and every peer holds per-`(fs, dest, output_seq)` dedup state
//! tied to the original incarnation — a fresh wrapper could neither prove
//! the old identity nor resynchronise the pair protocol.  Recovery
//! scenarios therefore restart FS members warm (the service state inside
//! the pair catches up through the service's own state-transfer path),
//! while cold replacement is exercised on the crash-tolerant middleware
//! deployment, which carries no signing state.

use std::sync::Arc;

use fs_common::config::TimingAssumptions;
use fs_common::id::{FsId, MemberId, ProcessId, Role};
use fs_common::rng::DetRng;
use fs_crypto::cost::CryptoCostModel;
use fs_crypto::keys::{provision, SignerId};
use fs_simnet::actor::Actor;
use fs_simnet::node::NodeConfig;
use fs_simnet::sim::Simulation;
use fs_simnet::threaded::{ThreadNode, ThreadedBuilder};
use fs_smr::machine::Endpoint;

use crate::interceptor::FsInterceptor;
use crate::provision::{FsPairBuilder, FsPairSpec};
use crate::service::FsService;

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

/// Everything the generic group builder needs to know (the service- and
/// runtime-independent knobs).
#[derive(Debug, Clone)]
pub struct FsGroupParams {
    /// Number of group members.
    pub members: u32,
    /// Follower placement.
    pub layout: PairLayout,
    /// Per-node configuration (thread pool, dispatch costs).
    pub node: NodeConfig,
    /// Timing assumptions (δ, κ, σ) of every pair.
    pub timing: TimingAssumptions,
    /// Cryptography cost model charged by the wrappers.
    pub crypto_costs: CryptoCostModel,
    /// Seed for key provisioning.
    pub seed: u64,
    /// Offset added to every process identifier of the group, so several
    /// independent groups (cluster shards) can coexist on one runtime
    /// without identifier collisions.  `0` for a standalone group.
    pub pid_base: u32,
}

/// The process identities of one wrapped member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsMemberProcs<N> {
    /// The member index.
    pub member: MemberId,
    /// The application / workload-driver process.
    pub app: ProcessId,
    /// The interceptor the application talks to.
    pub interceptor: ProcessId,
    /// The leader wrapper process.
    pub leader: ProcessId,
    /// The follower wrapper process.
    pub follower: ProcessId,
    /// The node hosting the application (and the leader wrapper).
    pub app_node: N,
}

/// Builds a fail-signal-wrapped group of `params.members` instances of
/// `service` on `host`.
///
/// `driver` supplies each member's application actor (given the member and
/// the interceptor process it should talk to); `wrap` post-processes each
/// wrapper actor before placement — the identity function for clean runs,
/// or a fault injector for fault-injection campaigns.
///
/// Process identifiers follow the fixed scheme `app = base + 4i`,
/// `interceptor = base + 4i + 1`, `leader = base + 4i + 2`,
/// `follower = base + 4i + 3`, where `base` is
/// [`FsGroupParams::pid_base`] (0 for a standalone group).
pub fn build_fs_group<H: GroupHost>(
    host: &mut H,
    params: &FsGroupParams,
    service: &dyn FsService,
    mut driver: impl FnMut(MemberId, ProcessId) -> Box<dyn Actor>,
    mut wrap: impl FnMut(MemberId, Role, Box<dyn Actor>) -> Box<dyn Actor>,
) -> Vec<FsMemberProcs<H::Node>> {
    let n = params.members;
    assert!(n >= 1, "a group needs at least one member");
    let group: Vec<MemberId> = (0..n).map(MemberId).collect();

    let base = params.pid_base;
    let app_pid = move |i: u32| ProcessId(base + 4 * i);
    let icp_pid = move |i: u32| ProcessId(base + 4 * i + 1);
    let leader_pid = move |i: u32| ProcessId(base + 4 * i + 2);
    let follower_pid = move |i: u32| ProcessId(base + 4 * i + 3);

    // Provision signing keys for every wrapper process (start-up step, A1/A5).
    let mut key_rng = DetRng::new(params.seed ^ 0x5157_3a11);
    let wrapper_processes: Vec<ProcessId> = (0..n)
        .flat_map(|i| [leader_pid(i), follower_pid(i)])
        .collect();
    let (mut keys, directory) = provision(wrapper_processes, &mut key_rng);

    // Nodes.
    let primary_nodes: Vec<H::Node> = (0..n).map(|_| host.add_host_node(&params.node)).collect();
    let follower_nodes: Vec<H::Node> = match params.layout {
        PairLayout::Full => (0..n).map(|_| host.add_host_node(&params.node)).collect(),
        PairLayout::Collapsed => {
            // Follower of member i lives on the primary node of member (i+1) % n.
            (0..n)
                .map(|i| primary_nodes[((i + 1) % n) as usize])
                .collect()
        }
    };

    let mut members = Vec::new();
    for i in 0..n {
        let fs = FsId(i);
        let spec = FsPairSpec::new(fs, leader_pid(i), follower_pid(i));

        let mut builder = FsPairBuilder::new(spec)
            .timing(params.timing)
            .crypto_costs(params.crypto_costs)
            .trust_client(icp_pid(i), Endpoint::LocalApp)
            .route(Endpoint::LocalApp, vec![icp_pid(i)]);

        // Peers: every other member's pair is both a source and a destination.
        let mut broadcast_targets = Vec::new();
        for j in 0..n {
            if j == i {
                continue;
            }
            let peer_fs = FsId(j);
            let peer_signers = (SignerId(leader_pid(j)), SignerId(follower_pid(j)));
            builder = builder
                .accept_fs_source(
                    (leader_pid(j), follower_pid(j)),
                    peer_fs,
                    peer_signers,
                    Endpoint::Peer(MemberId(j)),
                )
                .route(
                    Endpoint::Peer(MemberId(j)),
                    vec![leader_pid(j), follower_pid(j)],
                );
            if let Some(injected) = service.fail_signal_input(MemberId(j)) {
                builder = builder.on_fail_signal(peer_fs, injected);
            }
            broadcast_targets.push(leader_pid(j));
            broadcast_targets.push(follower_pid(j));
        }
        builder = builder.route(Endpoint::Broadcast, broadcast_targets);

        let leader_key = keys.remove(&SignerId(leader_pid(i))).expect("leader key");
        let follower_key = keys
            .remove(&SignerId(follower_pid(i)))
            .expect("follower key");
        let (leader_actor, follower_actor) = builder.build(
            leader_key,
            follower_key,
            Arc::clone(&directory),
            (
                service.machine(MemberId(i), &group),
                service.machine(MemberId(i), &group),
            ),
        );

        host.place(
            leader_pid(i),
            primary_nodes[i as usize],
            wrap(MemberId(i), Role::Leader, Box::new(leader_actor)),
        );
        host.place(
            follower_pid(i),
            follower_nodes[i as usize],
            wrap(MemberId(i), Role::Follower, Box::new(follower_actor)),
        );

        let interceptor = FsInterceptor::new(
            app_pid(i),
            fs,
            leader_pid(i),
            follower_pid(i),
            Arc::clone(&directory),
        );
        host.place(icp_pid(i), primary_nodes[i as usize], Box::new(interceptor));
        host.place(
            app_pid(i),
            primary_nodes[i as usize],
            driver(MemberId(i), icp_pid(i)),
        );

        members.push(FsMemberProcs {
            member: MemberId(i),
            app: app_pid(i),
            interceptor: icp_pid(i),
            leader: leader_pid(i),
            follower: follower_pid(i),
            app_node: primary_nodes[i as usize],
        });
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_common::time::{SimDuration, SimTime};
    use fs_common::Frame;
    use fs_simnet::actor::{Context, TimerId};
    use fs_simnet::link::{LinkModel, Topology};
    use fs_smr::machine::{DeterministicMachine, EchoMachine};

    struct EchoService;
    impl FsService for EchoService {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn machine(&self, _m: MemberId, _g: &[MemberId]) -> Box<dyn DeterministicMachine> {
            Box::new(EchoMachine::new(0))
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

    fn params(members: u32, layout: PairLayout) -> FsGroupParams {
        FsGroupParams {
            members,
            layout,
            node: NodeConfig::era_2003(),
            timing: TimingAssumptions::default(),
            crypto_costs: CryptoCostModel::free(),
            seed: 11,
            pid_base: 0,
        }
    }

    #[test]
    fn generic_group_echoes_on_the_simulator() {
        let mut sim = Simulation::with_topology(7, Topology::new(LinkModel::lan_100mbps()));
        let members = build_fs_group(
            &mut sim,
            &params(3, PairLayout::Collapsed),
            &EchoService,
            |_, middleware| {
                Box::new(PingDriver {
                    middleware,
                    to_send: 3,
                    sent: 0,
                    echoes: 0,
                })
            },
            |_, _, actor| actor,
        );
        assert_eq!(members.len(), 3);
        assert_eq!(sim.node_count(), 3, "collapsed layout: one node per member");
        sim.run_until(SimTime::from_secs(30));
        for handle in &members {
            let driver = sim.actor::<PingDriver>(handle.app).expect("driver");
            assert_eq!(driver.echoes, 3, "member {} echoes", handle.member);
            let icp = sim
                .actor::<FsInterceptor>(handle.interceptor)
                .expect("interceptor");
            assert!(!icp.local_fail_signalled());
        }
    }

    #[test]
    fn pid_base_offsets_every_process() {
        let mut sim = Simulation::with_topology(7, Topology::new(LinkModel::lan_100mbps()));
        let mut p = params(2, PairLayout::Collapsed);
        p.pid_base = 1024;
        let members = build_fs_group(
            &mut sim,
            &p,
            &EchoService,
            |_, middleware| {
                Box::new(PingDriver {
                    middleware,
                    to_send: 2,
                    sent: 0,
                    echoes: 0,
                })
            },
            |_, _, actor| actor,
        );
        for (i, m) in members.iter().enumerate() {
            let i = i as u32;
            assert_eq!(m.app, ProcessId(1024 + 4 * i));
            assert_eq!(m.interceptor, ProcessId(1024 + 4 * i + 1));
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
        let mut sim = Simulation::with_topology(7, Topology::new(LinkModel::lan_100mbps()));
        build_fs_group(
            &mut sim,
            &params(2, PairLayout::Full),
            &EchoService,
            |_, middleware| {
                Box::new(PingDriver {
                    middleware,
                    to_send: 0,
                    sent: 0,
                    echoes: 0,
                })
            },
            |_, _, actor| actor,
        );
        assert_eq!(sim.node_count(), 4, "full layout: two nodes per member");
        assert_eq!(sim.actor_count(), 8);
    }
}
