//! The [`Scenario`] builder and the uniform [`Running`] handle.
//!
//! A scenario is a point in the matrix *service × runtime × workload ×
//! fault schedule × protocol*: the same typed builder deploys crash-tolerant
//! NewTOP on the simulator, fail-signal-wrapped SMR-KV on real threads, or
//! any other combination, and every run is driven and inspected through the
//! same [`Running`] handle.
//!
//! ```
//! use fs_harness::{NewTopService, Protocol, RuntimeKind, Scenario, Workload};
//! use fs_common::time::SimTime;
//!
//! let mut run = Scenario::new(NewTopService::new())
//!     .members(3)
//!     .runtime(RuntimeKind::Sim)
//!     .protocol(Protocol::FailSignal)
//!     .workload(Workload::quick(2))
//!     .build();
//! run.run_until(SimTime::from_secs(120));
//! // 3 members x 2 multicasts, in one order at every member.
//! assert_eq!(run.check().map(|agreed| agreed.len()), Ok(6));
//! ```

use std::any::Any;
use std::borrow::{Borrow, BorrowMut};
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use failsignal::interceptor::FsInterceptor;
use failsignal::provision::{FsPairBuilder, FsPairSpec};
use failsignal::wrapper::FsoActor;
use fs_common::config::TimingAssumptions;
use fs_common::id::{FsId, MemberId, ProcessId, Role};
use fs_common::rng::DetRng;
use fs_common::time::SimDuration;
use fs_crypto::cost::CryptoCostModel;
use fs_crypto::keys::{provision, KeyDirectory, SignerId, SigningKey};
use fs_faults::FaultyActor;
use fs_simnet::actor::Actor;
use fs_simnet::lifecycle::{LifecycleSchedule, ProcessFate};
use fs_simnet::link::{LinkModel, Topology};
use fs_simnet::load::{LoadGen, LoadStats};
use fs_simnet::node::NodeConfig;
use fs_simnet::sched::SchedulerKind;
use fs_simnet::trace::LatencyRecorder;
use fs_smr::machine::{AddressMap, DeterministicMachine};

use crate::check::{self, Violation};
use crate::deployment::{deploy, stamp_workload, Group, Runtime, ShardAt};
use crate::faults::{FaultEntry, FaultSchedule, MemberFate};
use crate::group::{GroupHost, PairLayout};
use crate::service::{PlainHost, ServiceSpec};
use crate::workload::Workload;

/// The fault-tolerance protocol axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The service's native, crash-tolerant deployment.
    Crash,
    /// The service lifted to authenticated Byzantine tolerance by the
    /// fail-signal transformation.
    FailSignal,
}

/// The runtime axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// The deterministic discrete-event simulator (the paper's measurement
    /// vehicle).
    Sim,
    /// The real multi-threaded runtime: one thread per node, crossbeam
    /// channels for links, wall-clock timers.
    Threaded,
}

/// The process identities of one deployed member, uniform across protocols
/// and runtimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberProcs {
    /// The member index.
    pub member: MemberId,
    /// The application / workload-driver process.
    pub app: ProcessId,
    /// The middleware entry point the application talks to (the native
    /// middleware under [`Protocol::Crash`], the interceptor under
    /// [`Protocol::FailSignal`]).
    pub middleware: ProcessId,
    /// The leader wrapper (equals `middleware` under [`Protocol::Crash`]).
    pub leader: ProcessId,
    /// The follower wrapper (equals `middleware` under [`Protocol::Crash`]).
    pub follower: ProcessId,
}

/// A typed scenario builder.  Every axis has a paper-faithful default, so a
/// scenario is fully described by the calls that differ from the paper's
/// set-up.
pub struct Scenario {
    pub(crate) service: Arc<dyn ServiceSpec>,
    pub(crate) members: u32,
    pub(crate) runtime: RuntimeKind,
    pub(crate) protocol: Protocol,
    pub(crate) workload: Workload,
    faults: FaultSchedule,
    layout: PairLayout,
    timing: TimingAssumptions,
    crypto_costs: CryptoCostModel,
    pub(crate) seed: u64,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) topology: Option<Topology>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("service", &self.service.name())
            .field("members", &self.members)
            .field("runtime", &self.runtime)
            .field("protocol", &self.protocol)
            .finish()
    }
}

impl Scenario {
    /// Starts a scenario around `service` with the paper's defaults: three
    /// members on the simulator, fail-signal protocol, collapsed layout,
    /// era-2003 node and crypto cost models, generous timing assumptions,
    /// no faults, seed 2003.
    pub fn new(service: impl ServiceSpec + 'static) -> Self {
        Self {
            service: Arc::new(service),
            members: 3,
            runtime: RuntimeKind::Sim,
            protocol: Protocol::FailSignal,
            workload: Workload::paper_default(),
            faults: FaultSchedule::none(),
            layout: PairLayout::Collapsed,
            timing: TimingAssumptions {
                delta: SimDuration::from_secs(120),
                kappa: 4.0,
                sigma: 4.0,
            },
            crypto_costs: CryptoCostModel::era_2003(),
            seed: 2003,
            scheduler: SchedulerKind::default(),
            topology: None,
        }
    }

    /// Sets the group size.
    #[must_use]
    pub fn members(mut self, members: u32) -> Self {
        self.members = members;
        self
    }

    /// Selects the runtime.
    #[must_use]
    pub fn runtime(mut self, runtime: RuntimeKind) -> Self {
        self.runtime = runtime;
        self
    }

    /// Selects the fault-tolerance protocol.
    #[must_use]
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the per-member workload.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the fault schedule.
    #[must_use]
    pub fn faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the follower placement (fail-signal protocol only).
    #[must_use]
    pub fn layout(mut self, layout: PairLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Sets the pairs' timing assumptions (δ, κ, σ).
    #[must_use]
    pub fn timing(mut self, timing: TimingAssumptions) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the cryptography cost model.
    #[must_use]
    pub fn crypto_costs(mut self, crypto_costs: CryptoCostModel) -> Self {
        self.crypto_costs = crypto_costs;
        self
    }

    /// Sets the deterministic seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the simulator's future-event-set scheduler (ignored by the
    /// threaded runtime).
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the deployment topology explicitly.  Member `i`'s primary node
    /// is node `i` of the topology on either runtime.  The default is the
    /// paper's lightly loaded 100 Mb/s LAN.
    ///
    /// On the simulator the full topology applies (link models and fault
    /// plane); the threaded runtime applies the fault plane only — real
    /// channels already have transport costs.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Shorthand for [`Scenario::topology`] with a uniform link model
    /// between every pair of nodes.
    #[must_use]
    pub fn link_model(self, link: LinkModel) -> Self {
        self.topology(Topology::new(link))
    }

    /// Assembles `shard` of this scenario on `host`: with the shard's fault
    /// schedule and key seed, and every process identifier offset by its
    /// `pid_base`, so several shards can share one runtime without
    /// identifier collisions.  Nodes are created in the same order as the
    /// standalone assembly, so within the shard member `i`'s primary node
    /// is the `i`-th node this call creates.
    ///
    /// One loop places every member under either protocol: it gives the
    /// member its view of the group's one [`AddressMap`], places the
    /// member's middleware processes — the [`PlainHost`] under
    /// [`Protocol::Crash`]; the leader wrapper, the follower wrapper and
    /// the interceptor under [`Protocol::FailSignal`] — and then its
    /// driver.  Signing keys and the follower nodes of
    /// [`PairLayout::Full`] are the fail-signal protocol's alone.
    pub(crate) fn assemble_at<H: GroupHost>(
        &self,
        host: &mut H,
        shard: &ShardAt,
    ) -> Vec<MemberProcs> {
        let n = self.members;
        assert!(n >= 1, "a group needs at least one member");
        let members: Vec<MemberProcs> = (0..n)
            .map(|i| self.member_procs(shard.pid_base, MemberId(i)))
            .collect();
        let group: Vec<MemberId> = members.iter().map(|p| p.member).collect();
        let (speakers, width) = self.speakers(&members);
        let node = NodeConfig::era_2003();
        let nodes: Vec<H::Node> = (0..n).map(|_| host.add_host_node(&node)).collect();
        let mut pairs = (self.protocol == Protocol::FailSignal).then(|| {
            // Provision signing keys for every wrapper process (start-up
            // step, A1/A5).
            let wrappers = members.iter().flat_map(|p| [p.leader, p.follower]);
            let (keys, directory) = provision(wrappers, &mut DetRng::new(shard.seed ^ 0x5157_3a11));
            let followers = match self.layout {
                PairLayout::Full => (0..n).map(|_| host.add_host_node(&node)).collect(),
                // Member i's follower lives on member (i + 1) % n's node.
                PairLayout::Collapsed => (0..n).map(|i| nodes[((i + 1) % n) as usize]).collect(),
            };
            Pairs {
                keys,
                directory,
                followers,
            }
        });
        for (i, procs) in members.iter().enumerate() {
            let member = procs.member;
            match &mut pairs {
                None => {
                    let addresses =
                        AddressMap::new(Arc::clone(&speakers), width, member, procs.app);
                    let middleware = self.crash_host(addresses, &group);
                    let middleware = inject(shard.faults.for_middleware(member), middleware);
                    host.place(procs.middleware, nodes[i], middleware);
                }
                Some(pairs) => {
                    let addresses =
                        AddressMap::new(Arc::clone(&speakers), width, member, procs.middleware);
                    let [leader, follower, interceptor] =
                        self.fs_member(procs, addresses, &group, pairs, &shard.faults);
                    host.place(procs.leader, nodes[i], leader);
                    host.place(procs.follower, pairs.followers[i], follower);
                    host.place(procs.middleware, nodes[i], interceptor);
                }
            }
            let workload = self.workload.for_member(member);
            let driver = self.service.driver(member, procs.middleware, &workload);
            host.place(procs.app, nodes[i], driver);
        }
        members
    }

    /// Member `member`'s process identities: from `pid_base` on, 2 per
    /// member under [`Protocol::Crash`] (driver, host) and 4 under
    /// [`Protocol::FailSignal`] (driver, interceptor, leader, follower).
    fn member_procs(&self, pid_base: u32, member: MemberId) -> MemberProcs {
        let at = |stride: u32, k: u32| ProcessId(pid_base + stride * member.0 + k);
        match self.protocol {
            Protocol::Crash => MemberProcs {
                member,
                app: at(2, 0),
                middleware: at(2, 1),
                leader: at(2, 1),
                follower: at(2, 1),
            },
            Protocol::FailSignal => MemberProcs {
                member,
                app: at(4, 0),
                middleware: at(4, 1),
                leader: at(4, 2),
                follower: at(4, 3),
            },
        }
    }

    /// The group's table of who speaks for each member, with its width:
    /// each member's host under [`Protocol::Crash`], its leader and its
    /// follower under [`Protocol::FailSignal`].
    fn speakers(&self, members: &[MemberProcs]) -> (Arc<[ProcessId]>, usize) {
        match self.protocol {
            Protocol::Crash => (members.iter().map(|p| p.middleware).collect(), 1),
            Protocol::FailSignal => (
                members
                    .iter()
                    .flat_map(|p| [p.leader, p.follower])
                    .collect(),
                2,
            ),
        }
    }

    /// The crash-protocol host of `addresses.me()`, for a fresh deploy and
    /// for a `Replace` alike: the service's machine in a [`PlainHost`] with
    /// the service's failure detector.
    fn crash_host(&self, addresses: AddressMap, group: &[MemberId]) -> Box<dyn Actor> {
        Box::new(PlainHost::new(
            self.service.machine(addresses.me(), group),
            addresses,
            self.service.failure_detector(),
        ))
    }

    /// The fail-signal member `procs`, as its leader wrapper, follower
    /// wrapper and interceptor: two replicas of the service's machine in a
    /// pair keyed from `pairs`, each peer's fail-signal turned into the
    /// service's input for it, each wrapper behind its fault injector if
    /// `faults` names one.
    fn fs_member<N>(
        &self,
        procs: &MemberProcs,
        addresses: AddressMap,
        group: &[MemberId],
        pairs: &mut Pairs<N>,
        faults: &FaultSchedule,
    ) -> [Box<dyn Actor>; 3] {
        let member = procs.member;
        let fs = FsId(member.0);
        let mut builder = FsPairBuilder::new(FsPairSpec::new(fs, procs.leader, procs.follower))
            .timing(self.timing)
            .crypto_costs(self.crypto_costs)
            .addresses(addresses);
        for &peer in group.iter().filter(|&&peer| peer != member) {
            if let Some(input) = self.service.fail_signal_input(peer) {
                builder = builder.on_fail_signal(FsId(peer.0), input);
            }
        }
        let keys = &mut pairs.keys;
        let mut key = |pid| keys.remove(&SignerId(pid)).expect("a provisioned key");
        let machine = || self.service.machine(member, group);
        let (leader, follower) = builder.build(
            key(procs.leader),
            key(procs.follower),
            Arc::clone(&pairs.directory),
            (machine(), machine()),
        );
        let directory = Arc::clone(&pairs.directory);
        let interceptor =
            FsInterceptor::new(procs.app, fs, procs.leader, procs.follower, directory);
        let faults = |role| faults.for_wrapper(member, role);
        [
            inject(faults(Role::Leader), Box::new(leader)),
            inject(faults(Role::Follower), Box::new(follower)),
            Box::new(interceptor),
        ]
    }

    /// The member's own processes under the current protocol, in
    /// take-down order (driver first, infrastructure last).  Under the
    /// collapsed fail-signal layout a member's *node* also hosts a
    /// neighbour's follower wrapper, so lifecycle events deliberately target
    /// processes, never whole nodes — crashing the neighbour's follower
    /// would fail-signal a perfectly healthy member.
    fn member_pids(procs: &MemberProcs) -> Vec<ProcessId> {
        let mut pids = vec![procs.app, procs.middleware, procs.leader, procs.follower];
        pids.dedup();
        pids
    }

    /// Compiles the member-lifecycle entries of `faults` to the
    /// process-level schedule both runtimes execute.
    ///
    /// * `Crash` takes down every process of the member.
    /// * `Recover` brings them back warm, infrastructure first so the
    ///   driver's rejoin message finds its middleware up.
    /// * `Replace` under [`Protocol::Crash`] installs a fresh middleware and
    ///   a fresh rejoining driver (no state: the service's catch-up protocol
    ///   must rebuild it); under [`Protocol::FailSignal`] it compiles to a
    ///   warm `Recover` — an FS pair cannot be replaced cold, because
    ///   assumption A1 pre-provisions its keys and the peers' replay guards
    ///   pin its message sequence (see [`crate::group`]).
    pub(crate) fn compile_lifecycle(
        &self,
        members: &[MemberProcs],
        faults: &FaultSchedule,
    ) -> LifecycleSchedule {
        let mut schedule = LifecycleSchedule::new();
        for entry in faults.lifecycle_entries() {
            let procs = members
                .iter()
                .find(|p| p.member == entry.member)
                .unwrap_or_else(|| {
                    panic!(
                        "lifecycle schedule targets member {}, which the group does not deploy",
                        entry.member
                    )
                });
            match entry.fate {
                MemberFate::Crash => {
                    for pid in Self::member_pids(procs) {
                        schedule.push(entry.at, pid, ProcessFate::Crash);
                    }
                }
                MemberFate::Recover => {
                    for pid in Self::member_pids(procs).into_iter().rev() {
                        schedule.push(entry.at, pid, ProcessFate::Recover);
                    }
                }
                MemberFate::Replace => match self.protocol {
                    Protocol::FailSignal => {
                        for pid in Self::member_pids(procs).into_iter().rev() {
                            schedule.push(entry.at, pid, ProcessFate::Recover);
                        }
                    }
                    Protocol::Crash => {
                        let (speakers, width) = self.speakers(members);
                        let group: Vec<MemberId> = members.iter().map(|p| p.member).collect();
                        let addresses = AddressMap::new(speakers, width, entry.member, procs.app);
                        let middleware = self.crash_host(addresses, &group);
                        schedule.push(entry.at, procs.middleware, ProcessFate::Replace(middleware));
                        // The replacement incarnation observes rather than
                        // drives load: its predecessor's per-member sequence
                        // numbers are pinned by the sequencer's at-most-once
                        // guard, so a fresh stream starting at zero would be
                        // silently deduplicated.
                        let mut workload = self.workload.for_member(entry.member);
                        workload.messages = 0;
                        let driver = self.service.replacement_driver(
                            entry.member,
                            procs.middleware,
                            &workload,
                        );
                        schedule.push(entry.at, procs.app, ProcessFate::Replace(driver));
                    }
                },
            }
        }
        schedule
    }

    /// Builds and starts the scenario, returning the uniform running handle.
    ///
    /// # Panics
    ///
    /// Panics when the fault schedule targets processes the group does not
    /// deploy — wrapper targets under [`Protocol::Crash`], middleware
    /// targets under [`Protocol::FailSignal`], any entry naming a member
    /// outside the group, a second injector on one process — since a
    /// mis-targeted campaign would otherwise run fault-free and pass
    /// vacuously.
    pub fn build(mut self) -> Running {
        stamp_workload(&mut self.workload, self.seed, self.runtime);
        let shard = ShardAt {
            faults: std::mem::take(&mut self.faults),
            seed: self.seed,
            pid_base: 0,
            node_base: 0,
        };
        let (runtime, mut groups) = deploy(self, None, [shard]);
        Running {
            runtime,
            group: groups.pop().expect("one shard was deployed"),
        }
    }
}

/// What only the fail-signal members of a group share: the wrappers'
/// signing keys, provisioned before the run, and the node each member's
/// follower runs on.
struct Pairs<N> {
    keys: BTreeMap<SignerId, SigningKey>,
    directory: Arc<KeyDirectory>,
    followers: Vec<N>,
}

/// `actor` behind the fault injector `entry` names, if any.
fn inject(entry: Option<&FaultEntry>, actor: Box<dyn Actor>) -> Box<dyn Actor> {
    match entry {
        Some(entry) => Box::new(FaultyActor::new(actor, entry.plan.clone(), entry.seed)),
        None => actor,
    }
}

/// A deployed, runnable group: the uniform handle over both runtimes.
///
/// A handle is a [`Runtime`] and a [`Group`] on it.  It dereferences to its
/// runtime, which drives the run ([`Runtime::run_until`]) and reports its
/// network statistics and trace; the methods below inspect the group's
/// members.  [`Scenario::build`] returns one that owns both halves, and
/// [`RunningCluster::shard`](crate::RunningCluster::shard) lends one per
/// shard, borrowing the cluster's runtime.  Inspection works on both
/// runtimes; on the threaded runtime the first inspection shuts the node
/// threads down and collects the actors.
pub struct Running<R = Runtime, G = Group> {
    pub(crate) runtime: R,
    pub(crate) group: G,
}

impl<R, G: Borrow<Group>> std::fmt::Debug for Running<R, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Running").field(self.group.borrow()).finish()
    }
}

impl<R: Borrow<Runtime>, G> Deref for Running<R, G> {
    type Target = Runtime;

    fn deref(&self) -> &Runtime {
        self.runtime.borrow()
    }
}

impl<R: BorrowMut<Runtime>, G> DerefMut for Running<R, G> {
    fn deref_mut(&mut self) -> &mut Runtime {
        self.runtime.borrow_mut()
    }
}

impl<R: BorrowMut<Runtime>, G: Borrow<Group>> Running<R, G> {
    /// The deployed members, in member order.
    pub fn members(&self) -> &[MemberProcs] {
        &self.group.borrow().members
    }

    /// The protocol this group runs.
    pub fn protocol(&self) -> Protocol {
        self.group.borrow().protocol
    }

    /// The service's name.
    pub fn service_name(&self) -> &'static str {
        self.group.borrow().service.name()
    }

    /// The two halves, borrowed apart.
    fn parts(&mut self) -> (&mut Runtime, &Group) {
        (self.runtime.borrow_mut(), self.group.borrow())
    }

    /// The actor of the process `pick` selects from member `i`'s (settling
    /// the runtime first).
    fn actor(&mut self, i: u32, pick: fn(&MemberProcs) -> ProcessId) -> Option<&dyn Actor> {
        let (runtime, group) = self.parts();
        runtime.actor_dyn(pick(group.members.get(i as usize)?))
    }

    /// The load generators of the members' drivers, in member order.
    fn driver_loads(&mut self) -> impl Iterator<Item = &LoadGen> {
        let (runtime, group) = self.parts();
        runtime.settle();
        let runtime = &*runtime;
        group
            .members
            .iter()
            .filter_map(move |member| group.service.load_of(runtime.actor_ref(member.app)?))
    }

    /// The merged ordering-latency recorder of every member's driver — the
    /// source of the p50/p99/p999 figures.  On the threaded runtime this
    /// shuts the runtime down first.
    pub fn latencies(&mut self) -> LatencyRecorder {
        let mut merged = LatencyRecorder::new();
        for load in self.driver_loads() {
            merged.merge(load.latencies());
        }
        merged
    }

    /// The merged latency summary (p50/p99/p999) across all member drivers,
    /// `None` when no latency samples were recorded.
    pub fn latency_summary(&mut self) -> Option<fs_simnet::trace::LatencySummary> {
        self.latencies().summary()
    }

    /// The merged open-loop admission counters of every member's driver.
    /// On the threaded runtime this shuts the runtime down first.
    pub fn load_stats(&mut self) -> LoadStats {
        let mut merged = LoadStats::default();
        for load in self.driver_loads() {
            merged.merge(&load.stats());
        }
        merged
    }

    /// Downcasts member `i`'s application / workload-driver actor.
    ///
    /// On the threaded runtime this shuts the runtime down first.
    pub fn app<T: Actor>(&mut self, i: u32) -> Option<&T> {
        let any: &dyn Any = self.actor(i, |p| p.app)?;
        any.downcast_ref::<T>()
    }

    /// Member `i`'s delivery log, as `(origin, seq)` pairs in delivery
    /// order: what its driver saw as upcalls.  Whether the members' logs
    /// agree is [`Running::check`]'s to say.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range or the driver actor cannot be
    /// inspected (which would be a harness bug).
    pub fn delivery_log(&mut self, i: u32) -> Vec<(MemberId, u64)> {
        let (runtime, group) = self.parts();
        let driver = runtime.actor_dyn(group.members[i as usize].app);
        group
            .service
            .delivery_log_of(driver.expect("driver actor exists"))
            .expect("driver actor is inspectable")
    }

    /// Every member's delivery log, in member order.
    pub fn delivery_logs(&mut self) -> Vec<Vec<(MemberId, u64)>> {
        (0..self.members().len() as u32)
            .map(|i| self.delivery_log(i))
            .collect()
    }

    /// Member `i`'s service machine, when the deployment exposes one: the
    /// machine hosted by the member's [`PlainHost`] under [`Protocol::Crash`],
    /// the leader replica of its FS pair under [`Protocol::FailSignal`].
    /// `None` when the process is wrapped by a fault injector or is of
    /// another shape.  On the threaded runtime this shuts the runtime down
    /// first.
    fn machine(&mut self, i: u32) -> Option<&dyn DeterministicMachine> {
        match self.protocol() {
            Protocol::Crash => {
                let any: &dyn Any = self.actor(i, |p| p.middleware)?;
                Some(any.downcast_ref::<PlainHost>()?.machine())
            }
            Protocol::FailSignal => {
                let any: &dyn Any = self.actor(i, |p| p.leader)?;
                Some(any.downcast_ref::<FsoActor>()?.machine())
            }
        }
    }

    /// Member `i`'s **machine-level** committed delivery log, which
    /// [`Running::check`] holds a restarted member to.  Unlike
    /// [`Running::delivery_log`] (what the member's *driver* saw as
    /// upcalls) this reads the ordered log the service machine itself holds
    /// — which state transfer rebuilds on a recovered or replaced member, so
    /// after catch-up it is identical across all live members even though
    /// the rejoiner's driver never saw the missed upcalls.  `None` when the
    /// service machine keeps no such log or cannot be inspected.
    pub fn machine_log(&mut self, i: u32) -> Option<Vec<(MemberId, u64)>> {
        self.machine(i)?.delivered_log()
    }

    /// A digest of member `i`'s machine-level application state (see
    /// [`Running::machine_log`]); `None` when the machine exposes none.
    pub fn machine_digest(&mut self, i: u32) -> Option<u64> {
        self.machine(i)?.app_digest()
    }

    /// Member `i`'s interceptor (fail-signal protocol only).
    pub fn interceptor(&mut self, i: u32) -> Option<&FsInterceptor> {
        if self.protocol() != Protocol::FailSignal {
            return None;
        }
        let any: &dyn Any = self.actor(i, |p| p.middleware)?;
        any.downcast_ref::<FsInterceptor>()
    }

    /// True when any member's local FS pair has emitted its fail-signal
    /// (always false under [`Protocol::Crash`]).
    pub fn fail_signalled(&mut self) -> bool {
        (0..self.members().len() as u32).any(|i| {
            self.interceptor(i)
                .is_some_and(FsInterceptor::local_fail_signalled)
        })
    }

    /// Settles the run and decides whether it behaved correctly: every
    /// member held to what the run's fault schedule lets it do (the rules
    /// are in [`crate::check`]).  Returns the agreed delivery log, or every
    /// violation found.  Only reads, so nothing the run reports moves.
    pub fn check(&mut self) -> Result<Vec<(MemberId, u64)>, Vec<Violation>> {
        let (runtime, group) = self.parts();
        check::group(runtime, group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{NewTopService, SmrKvService};
    use fs_common::time::SimTime;
    use fs_newtop::suspector::SuspectorConfig;

    #[test]
    fn fs_newtop_scenario_orders_on_the_simulator() {
        let mut run = Scenario::new(NewTopService::new())
            .members(3)
            .workload(Workload::quick(4))
            .build();
        assert_eq!(run.service_name(), "newtop");
        assert_eq!(run.protocol(), Protocol::FailSignal);
        run.run_until(SimTime::from_secs(300));
        assert_eq!(run.check().unwrap().len(), 12);
        assert!(run.stats().messages_sent > 0);
    }

    #[test]
    fn crash_newtop_scenario_orders_on_the_simulator() {
        let mut run = Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled()))
            .members(3)
            .protocol(Protocol::Crash)
            .workload(Workload::quick(4))
            .build();
        run.run_until(SimTime::from_secs(300));
        assert_eq!(run.check().unwrap().len(), 12);
        assert!(run.interceptor(0).is_none());
    }

    /// A warm restart clears a process's armed timers: the crash host must
    /// re-arm its detector, or the recovered member never suspects again.
    /// Member 1 is down for 25 ms between two ping rounds, so no ping to it
    /// is lost, and member 2 crash-stops later.
    #[test]
    fn a_recovered_crash_newtop_member_still_suspects() {
        let faults = FaultSchedule::none()
            .crash_member_at(SimTime::from_millis(520), MemberId(1))
            .recover_member_at(SimTime::from_millis(545), MemberId(1))
            .crash_member_at(SimTime::from_millis(1_000), MemberId(2));
        let mut run = Scenario::new(
            NewTopService::new()
                .suspector(SuspectorConfig::aggressive(SimDuration::from_millis(200))),
        )
        .members(3)
        .protocol(Protocol::Crash)
        .workload(Workload::quick(0))
        .faults(faults)
        .build();
        run.enable_trace();
        run.run_until(SimTime::from_secs(2));
        let trace = run.trace().expect("tracing enabled");
        let labels = trace.labels_of(run.members()[1].middleware);
        assert_eq!(labels, [format!("suspect {}", MemberId(2))]);
    }

    #[test]
    fn fs_smr_scenario_orders_on_the_simulator() {
        let mut run = Scenario::new(SmrKvService::new())
            .members(3)
            .workload(Workload::quick(4))
            .build();
        run.run_until(SimTime::from_secs(300));
        assert_eq!(run.check().unwrap().len(), 12);
    }

    #[test]
    fn crash_smr_scenario_orders_on_the_simulator() {
        let mut run = Scenario::new(SmrKvService::new())
            .members(4)
            .protocol(Protocol::Crash)
            .workload(Workload::quick(3))
            .build();
        run.run_until(SimTime::from_secs(300));
        assert_eq!(run.check().unwrap().len(), 12);
    }

    #[test]
    fn crash_recover_member_converges_after_catch_up() {
        use crate::service::SmrDriver;
        // Member 1 crashes mid-run and recovers warm: the ordering rounds it
        // missed while down must be filled by state transfer, after which
        // every machine-level log and store digest agrees.
        let faults = FaultSchedule::none()
            .crash_member_at(SimTime::from_millis(300), MemberId(1))
            .recover_member_at(SimTime::from_millis(600), MemberId(1));
        let mut run = Scenario::new(SmrKvService::new())
            .members(3)
            .protocol(Protocol::Crash)
            .workload(Workload::quick(30))
            .faults(faults)
            .build();
        run.run_until(SimTime::from_secs(600));
        let agreed = run.check().unwrap();
        assert!(agreed.len() > 30, "survivors kept ordering under load");
        // The recovered member measured its rejoin round-trip, and every
        // member observed the rejoin's view transition.
        let rejoined = run.app::<SmrDriver>(1).expect("driver");
        assert!(rejoined.rejoin_latency().is_some());
        for i in 0..3 {
            assert!(!run.app::<SmrDriver>(i).unwrap().views().is_empty());
        }
    }

    #[test]
    fn cold_replacement_member_converges_via_state_transfer() {
        use crate::service::SmrDriver;
        // Member 2 is killed and replaced by a cold incarnation with no
        // state at all: only the snapshot path can make it converge.
        let faults = FaultSchedule::none()
            .crash_member_at(SimTime::from_millis(300), MemberId(2))
            .replace_member_at(SimTime::from_millis(700), MemberId(2));
        let mut run = Scenario::new(SmrKvService::new())
            .members(3)
            .protocol(Protocol::Crash)
            .workload(Workload::quick(25))
            .faults(faults)
            .build();
        run.run_until(SimTime::from_secs(600));
        assert!(!run.check().unwrap().is_empty());
        // The replacement incarnation observes rather than drives load, and
        // its rejoin completed.
        let replacement = run.app::<SmrDriver>(2).expect("driver");
        assert_eq!(replacement.sent(), 0);
        assert!(replacement.rejoin_latency().is_some());
    }

    #[test]
    fn fs_member_recovers_warm_and_converges() {
        // Under the fail-signal protocol the whole member — driver,
        // interceptor, both wrappers — goes down and comes back warm; the
        // duplicated machines then run the same catch-up protocol through
        // the signed wrapper path.  Rounds start every 40 ms from 10 ms on
        // and settle in about 20, so the crash at 400 ms finds the pair
        // quiescent: a warm restart keeps each wrapper's state but loses
        // whatever the two had in flight to each other, and a pair cut
        // between a leader's ordering and its relay reports exactly that.
        let faults = FaultSchedule::none()
            .crash_member_at(SimTime::from_millis(400), MemberId(1))
            .recover_member_at(SimTime::from_millis(900), MemberId(1));
        let mut run = Scenario::new(SmrKvService::new())
            .members(3)
            .protocol(Protocol::FailSignal)
            .workload(Workload::quick(20).interval(SimDuration::from_millis(40)))
            .faults(faults)
            .build();
        run.run_until(SimTime::from_secs(3600));
        assert!(
            !run.fail_signalled(),
            "a clean crash/recover must not trip the pair's own fail-signal"
        );
        assert!(!run.check().unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "which the group does not deploy")]
    fn lifecycle_targeting_unknown_member_panics() {
        let faults = FaultSchedule::none().crash_member_at(SimTime::from_secs(1), MemberId(9));
        let _ = Scenario::new(SmrKvService::new())
            .members(3)
            .faults(faults)
            .build();
    }

    #[test]
    #[should_panic(expected = "which the group does not deploy")]
    fn fault_entry_targeting_unknown_member_panics() {
        use fs_faults::{FaultKind, FaultPlan};
        let faults =
            FaultSchedule::none().follower(MemberId(3), FaultPlan::immediate(FaultKind::Crash));
        let _ = Scenario::new(SmrKvService::new())
            .members(3)
            .faults(faults)
            .build();
    }

    #[test]
    #[should_panic(expected = "which the group does not deploy")]
    fn second_entry_on_one_process_panics() {
        use fs_faults::{FaultKind, FaultPlan};
        let faults = FaultSchedule::none()
            .follower(MemberId(1), FaultPlan::after(3, FaultKind::Crash))
            .follower(
                MemberId(1),
                FaultPlan::immediate(FaultKind::DuplicateOutputs),
            );
        let _ = Scenario::new(SmrKvService::new())
            .members(3)
            .faults(faults)
            .build();
    }

    #[test]
    #[should_panic(expected = "which the group does not deploy")]
    fn shard_link_fault_naming_unknown_member_panics() {
        // Shard 0's member 3 would compile to node 1 + 3: shard 1's first
        // member.
        let faults = FaultSchedule::none().lossy_link(SimTime::ZERO, MemberId(0), MemberId(3), 0.5);
        let _ = crate::Cluster::new(2, 3).shard_faults(0, faults).build();
    }
}
