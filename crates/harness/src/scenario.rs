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
//! let reference = run.delivery_log(0);
//! assert_eq!(reference.len(), 6, "3 members x 2 multicasts");
//! assert_eq!(run.delivery_log(1), reference);
//! ```

use std::collections::BTreeMap;

use failsignal::group::{build_fs_group, FsGroupParams, GroupHost, PairLayout};
use failsignal::interceptor::FsInterceptor;
use fs_common::config::TimingAssumptions;
use fs_common::id::{MemberId, ProcessId};
use fs_common::time::{SimDuration, SimTime};
use fs_crypto::cost::CryptoCostModel;
use fs_faults::FaultyActor;
use fs_simnet::actor::Actor;
use fs_simnet::lifecycle::{LifecycleSchedule, ProcessFate};
use fs_simnet::link::{LinkModel, Topology};
use fs_simnet::node::NodeConfig;
use fs_simnet::sched::SchedulerKind;
use fs_simnet::sim::Simulation;
use fs_simnet::trace::{NetStats, TraceLog};

use crate::deployment::{deploy, stamp_workload, RuntimeSlot, ShardAt};
use crate::faults::{FaultSchedule, MemberFate};
use crate::service::ServiceSpec;
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
    service: Box<dyn ServiceSpec>,
    members: u32,
    runtime: RuntimeKind,
    pub(crate) protocol: Protocol,
    workload: Workload,
    pub(crate) faults: FaultSchedule,
    layout: PairLayout,
    timing: TimingAssumptions,
    crypto_costs: CryptoCostModel,
    node: NodeConfig,
    seed: u64,
    scheduler: SchedulerKind,
    topology: Option<Topology>,
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
            service: Box::new(service),
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
            node: NodeConfig::era_2003(),
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

    /// Sets the per-node configuration.
    #[must_use]
    pub fn node_config(mut self, node: NodeConfig) -> Self {
        self.node = node;
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

    /// Assembles the scenario on `host` with every process identifier
    /// offset by `pid_base`, so several scenarios (cluster shards) can
    /// share one runtime without identifier collisions.  Nodes are created
    /// in the same order as the standalone assembly, so within the shard
    /// member `i`'s primary node is the `i`-th node this call creates.
    pub(crate) fn assemble_at<H: GroupHost>(
        &self,
        host: &mut H,
        pid_base: u32,
    ) -> Vec<MemberProcs> {
        match self.protocol {
            Protocol::FailSignal => {
                let params = FsGroupParams {
                    members: self.members,
                    layout: self.layout,
                    node: self.node,
                    timing: self.timing,
                    crypto_costs: self.crypto_costs,
                    seed: self.seed,
                    pid_base,
                };
                let fs_service = self.service.fs_service();
                let service = &*self.service;
                let workload = self.workload;
                let faults = &self.faults;
                build_fs_group(
                    host,
                    &params,
                    fs_service.as_ref(),
                    |member, interceptor| {
                        service.driver(member, interceptor, &workload.for_member(member))
                    },
                    |member, role, actor| match faults.for_wrapper(member, role) {
                        Some(entry) => {
                            Box::new(FaultyActor::new(actor, entry.plan.clone(), entry.seed))
                        }
                        None => actor,
                    },
                )
                .into_iter()
                .map(|h| MemberProcs {
                    member: h.member,
                    app: h.app,
                    middleware: h.interceptor,
                    leader: h.leader,
                    follower: h.follower,
                })
                .collect()
            }
            Protocol::Crash => {
                let n = self.members;
                assert!(n >= 1, "a group needs at least one member");
                let group: Vec<MemberId> = (0..n).map(MemberId).collect();
                let app_pid = |i: u32| ProcessId(pid_base + 2 * i);
                let mw_pid = |i: u32| ProcessId(pid_base + 2 * i + 1);
                let mut members = Vec::new();
                for i in 0..n {
                    let node = host.add_host_node(&self.node);
                    let peers: BTreeMap<MemberId, ProcessId> = (0..n)
                        .filter(|j| *j != i)
                        .map(|j| (MemberId(j), mw_pid(j)))
                        .collect();
                    let mut middleware =
                        self.service
                            .crash_middleware(MemberId(i), &group, &peers, app_pid(i));
                    if let Some(entry) = self.faults.for_middleware(MemberId(i)) {
                        middleware =
                            Box::new(FaultyActor::new(middleware, entry.plan.clone(), entry.seed));
                    }
                    host.place(mw_pid(i), node, middleware);
                    host.place(
                        app_pid(i),
                        node,
                        self.service.driver(
                            MemberId(i),
                            mw_pid(i),
                            &self.workload.for_member(MemberId(i)),
                        ),
                    );
                    members.push(MemberProcs {
                        member: MemberId(i),
                        app: app_pid(i),
                        middleware: mw_pid(i),
                        leader: mw_pid(i),
                        follower: mw_pid(i),
                    });
                }
                members
            }
        }
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

    /// Compiles the member-lifecycle entries of the fault schedule to the
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
    ///   pin its message sequence (see [`failsignal::group`]).
    pub(crate) fn compile_lifecycle(&self, members: &[MemberProcs]) -> LifecycleSchedule {
        let mut schedule = LifecycleSchedule::new();
        for entry in self.faults.lifecycle_entries() {
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
                        let group: Vec<MemberId> = members.iter().map(|p| p.member).collect();
                        let peers: BTreeMap<MemberId, ProcessId> = members
                            .iter()
                            .filter(|p| p.member != entry.member)
                            .map(|p| (p.member, p.middleware))
                            .collect();
                        let middleware =
                            self.service
                                .crash_middleware(entry.member, &group, &peers, procs.app);
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
    /// Panics when the fault schedule targets processes the selected
    /// protocol does not deploy (wrapper targets under [`Protocol::Crash`],
    /// middleware targets under [`Protocol::FailSignal`]) — a mis-targeted
    /// campaign would otherwise run fault-free and pass vacuously — or when
    /// a member-lifecycle entry names a member outside the group.
    pub fn build(mut self) -> Running {
        stamp_workload(&mut self.workload, self.seed, self.runtime);
        let topology = self.topology.take();
        let placed = ShardAt {
            scenario: &self,
            pid_base: 0,
            node_base: 0,
        };
        let (slot, mut shards) = deploy(
            self.runtime,
            self.seed,
            self.scheduler,
            topology,
            None,
            std::iter::once(placed),
        );
        Running {
            protocol: self.protocol,
            runtime: self.runtime,
            members: shards.pop().expect("one shard was deployed"),
            service: self.service,
            slot,
        }
    }
}

/// A deployed, runnable scenario: the uniform handle over both runtimes.
///
/// On the simulator, [`Running::run_until`] executes events up to the given
/// simulated horizon; on the threaded runtime it lets the wall clock reach
/// the same horizon (1 simulated second = 1 real second).  Inspection
/// methods ([`Running::delivery_log`], [`Running::app`],
/// [`Running::fail_signalled`]) work on both; on the threaded runtime the
/// first inspection shuts the node threads down and collects the actors.
pub struct Running {
    service: Box<dyn ServiceSpec>,
    protocol: Protocol,
    runtime: RuntimeKind,
    members: Vec<MemberProcs>,
    slot: RuntimeSlot,
}

impl std::fmt::Debug for Running {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Running")
            .field("service", &self.service.name())
            .field("protocol", &self.protocol)
            .field("runtime", &self.runtime)
            .field("members", &self.members.len())
            .finish()
    }
}

impl Running {
    /// The deployed members, in member order.
    pub fn members(&self) -> &[MemberProcs] {
        &self.members
    }

    /// The protocol this scenario runs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The runtime this scenario runs on.
    pub fn runtime_kind(&self) -> RuntimeKind {
        self.runtime
    }

    /// The service's name.
    pub fn service_name(&self) -> &'static str {
        self.service.name()
    }

    /// Drives the scenario until `horizon` and returns the reached time.
    ///
    /// Simulator: runs the event loop (returns early on quiescence).
    /// Threaded runtime: sleeps until the wall clock reaches `horizon`
    /// relative to the runtime's start, returning early once the deployment
    /// has settled — nothing in flight and no timer due before the horizon
    /// (see [`fs_simnet::threaded::ThreadedRuntime::run_until_settled`]).
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        self.slot.run_until(horizon)
    }

    /// Enables event tracing (simulator only; a no-op on the threaded
    /// runtime).  Call before [`Running::run_until`].
    pub fn enable_trace(&mut self) {
        self.slot.enable_trace();
    }

    /// The recorded trace, when tracing was enabled on the simulator.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.slot.trace()
    }

    /// The aggregate network statistics, on either runtime: sends,
    /// deliveries, drops (split into unknown-destination and link-fault
    /// drops) and executed link-fault events.  On the threaded runtime the
    /// counters are sampled live while running and frozen at
    /// [`Running::settle`] time.  Infallible: every cell of the scenario
    /// matrix reports statistics.
    pub fn stats(&self) -> NetStats {
        self.slot.stats()
    }

    /// The merged ordering-latency recorder of every member's driver — the
    /// source of the p50/p99/p999 figures.  On the threaded runtime this
    /// shuts the runtime down first.
    pub fn latencies(&mut self) -> fs_simnet::trace::LatencyRecorder {
        self.settle();
        let mut merged = fs_simnet::trace::LatencyRecorder::new();
        for i in 0..self.members.len() {
            let pid = self.members[i].app;
            if let Some(driver) = self.actor_ref(pid) {
                if let Some(rec) = self.service.latencies_of(driver) {
                    merged.merge(&rec);
                }
            }
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
    pub fn load_stats(&mut self) -> crate::workload::LoadStats {
        self.settle();
        let mut merged = crate::workload::LoadStats::default();
        for i in 0..self.members.len() {
            let pid = self.members[i].app;
            if let Some(driver) = self.actor_ref(pid) {
                if let Some(stats) = self.service.load_stats_of(driver) {
                    merged.merge(&stats);
                }
            }
        }
        merged
    }

    /// Direct access to the underlying simulator, for link surgery and other
    /// scenario-specific interventions (`None` on the threaded runtime).
    pub fn sim(&self) -> Option<&Simulation> {
        self.slot.sim()
    }

    /// Mutable variant of [`Running::sim`].
    pub fn sim_mut(&mut self) -> Option<&mut Simulation> {
        self.slot.sim_mut()
    }

    /// Shuts down the threaded runtime (if any) and collects its actors for
    /// inspection.  Idempotent; a no-op on the simulator.
    pub fn settle(&mut self) {
        self.slot.settle();
    }

    /// The actor registered under `process`, as a trait object.  Call
    /// [`Running::settle`] first on the threaded runtime.
    fn actor_ref(&self, process: ProcessId) -> Option<&dyn Actor> {
        self.slot.actor_ref(process)
    }

    /// [`Running::settle`] followed by [`Running::actor_ref`].
    fn actor_dyn(&mut self, process: ProcessId) -> Option<&dyn Actor> {
        self.slot.actor_dyn(process)
    }

    /// Downcasts member `i`'s application / workload-driver actor.
    ///
    /// On the threaded runtime this shuts the runtime down first.
    pub fn app<T: Actor>(&mut self, i: u32) -> Option<&T> {
        let pid = self.members.get(i as usize)?.app;
        let any: &dyn std::any::Any = self.actor_dyn(pid)?;
        any.downcast_ref::<T>()
    }

    /// Member `i`'s delivery log, as `(origin, seq)` pairs in delivery
    /// order — the uniform agreement probe across services, protocols and
    /// runtimes.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range or the driver actor cannot be
    /// inspected (which would be a harness bug).
    pub fn delivery_log(&mut self, i: u32) -> Vec<(MemberId, u64)> {
        self.settle();
        let pid = self.members[i as usize].app;
        let driver = self.actor_ref(pid).expect("driver actor exists");
        self.service
            .delivery_log_of(driver)
            .expect("driver actor is inspectable")
    }

    /// Every member's delivery log, in member order.
    pub fn delivery_logs(&mut self) -> Vec<Vec<(MemberId, u64)>> {
        (0..self.members.len() as u32)
            .map(|i| self.delivery_log(i))
            .collect()
    }

    /// Member `i`'s service machine, when the deployment exposes one: the
    /// machine hosted by the member's [`PlainHost`] under [`Protocol::Crash`],
    /// the leader replica of its FS pair under [`Protocol::FailSignal`].
    /// `None` when the process is wrapped by a fault injector or is of
    /// another shape.  On the threaded runtime this shuts the runtime down
    /// first.
    fn machine_of(&mut self, i: u32) -> Option<&dyn fs_smr::machine::DeterministicMachine> {
        let procs = *self.members.get(i as usize)?;
        self.slot.machine_at(self.protocol, &procs)
    }

    /// Member `i`'s **machine-level** committed delivery log, the recovery
    /// plane's convergence probe.  Unlike [`Running::delivery_log`] (what the
    /// member's *driver* saw as upcalls) this reads the ordered log the
    /// service machine itself holds — which state transfer rebuilds on a
    /// recovered or replaced member, so after catch-up it is identical
    /// across all live members even though the rejoiner's driver never saw
    /// the missed upcalls.  `None` when the service machine keeps no such
    /// log or cannot be inspected.
    pub fn machine_log(&mut self, i: u32) -> Option<Vec<(MemberId, u64)>> {
        self.machine_of(i)?.delivered_log()
    }

    /// A digest of member `i`'s machine-level application state (see
    /// [`Running::machine_log`]); `None` when the machine exposes none.
    pub fn machine_digest(&mut self, i: u32) -> Option<u64> {
        self.machine_of(i)?.app_digest()
    }

    /// Member `i`'s interceptor (fail-signal protocol only).
    pub fn interceptor(&mut self, i: u32) -> Option<&FsInterceptor> {
        if self.protocol != Protocol::FailSignal {
            return None;
        }
        let pid = self.members.get(i as usize)?.middleware;
        let any: &dyn std::any::Any = self.actor_dyn(pid)?;
        any.downcast_ref::<FsInterceptor>()
    }

    /// True when any member's local FS pair has emitted its fail-signal
    /// (always false under [`Protocol::Crash`]).
    pub fn fail_signalled(&mut self) -> bool {
        if self.protocol != Protocol::FailSignal {
            return false;
        }
        (0..self.members.len() as u32).any(|i| {
            self.interceptor(i)
                .is_some_and(|x| x.local_fail_signalled())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{NewTopService, SmrKvService};
    use fs_newtop::suspector::SuspectorConfig;

    fn agree(run: &mut Running, expected: usize) {
        let reference = run.delivery_log(0);
        assert_eq!(reference.len(), expected);
        for i in 1..run.members().len() as u32 {
            assert_eq!(run.delivery_log(i), reference, "member {i} diverged");
        }
    }

    #[test]
    fn fs_newtop_scenario_orders_on_the_simulator() {
        let mut run = Scenario::new(NewTopService::new())
            .members(3)
            .workload(Workload::quick(4))
            .build();
        assert_eq!(run.service_name(), "newtop");
        assert_eq!(run.protocol(), Protocol::FailSignal);
        run.run_until(SimTime::from_secs(300));
        agree(&mut run, 12);
        assert!(!run.fail_signalled());
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
        agree(&mut run, 12);
        assert!(!run.fail_signalled(), "crash protocol has no fail-signals");
        assert!(run.interceptor(0).is_none());
    }

    #[test]
    fn fs_smr_scenario_orders_on_the_simulator() {
        let mut run = Scenario::new(SmrKvService::new())
            .members(3)
            .workload(Workload::quick(4))
            .build();
        run.run_until(SimTime::from_secs(300));
        agree(&mut run, 12);
        assert!(!run.fail_signalled());
    }

    #[test]
    fn crash_smr_scenario_orders_on_the_simulator() {
        let mut run = Scenario::new(SmrKvService::new())
            .members(4)
            .protocol(Protocol::Crash)
            .workload(Workload::quick(3))
            .build();
        run.run_until(SimTime::from_secs(300));
        agree(&mut run, 12);
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
        let reference = run.machine_log(0).expect("machine log");
        assert!(reference.len() > 30, "survivors kept ordering under load");
        for i in 1..3 {
            assert_eq!(run.machine_log(i).unwrap(), reference, "member {i}");
            assert_eq!(run.machine_digest(i), run.machine_digest(0));
        }
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
        let reference = run.machine_log(0).expect("machine log");
        assert!(!reference.is_empty());
        assert_eq!(run.machine_log(2).unwrap(), reference);
        assert_eq!(run.machine_digest(2), run.machine_digest(0));
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
        let reference = run.machine_log(0).expect("leader machine log");
        assert!(!reference.is_empty());
        for i in 1..3 {
            assert_eq!(run.machine_log(i).unwrap(), reference, "member {i}");
            assert_eq!(run.machine_digest(i), run.machine_digest(0));
        }
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
    fn scenario_is_deterministic_per_seed() {
        let build = |seed: u64| {
            let mut run = Scenario::new(SmrKvService::new())
                .members(3)
                .seed(seed)
                .workload(Workload::quick(3))
                .build();
            run.run_until(SimTime::from_secs(300));
            (run.delivery_logs(), run.stats())
        };
        let (logs_a, stats_a) = build(7);
        let (logs_b, stats_b) = build(7);
        assert_eq!(logs_a, logs_b);
        assert_eq!(stats_a, stats_b);
    }
}
