//! The one path from a described deployment to a running one.
//!
//! A [`Scenario`] is one group; a cluster is several groups and a router on
//! one runtime.  Both go through [`deploy`]: it creates the runtime, places
//! every shard's processes at the shard's process-id and node base,
//! compiles the shards' link and lifecycle fault schedules against those
//! bases, and hands back the [`RuntimeSlot`] that [`Running`](crate::Running)
//! and [`RunningCluster`](crate::RunningCluster) drive and inspect.

use std::borrow::Borrow;
use std::collections::HashMap;

use failsignal::wrapper::FsoActor;
use fs_common::id::ProcessId;
use fs_common::time::SimTime;
use fs_simnet::actor::Actor;
use fs_simnet::lifecycle::LifecycleSchedule;
use fs_simnet::link::{LinkModel, LinkSchedule, Topology};
use fs_simnet::node::NodeConfig;
use fs_simnet::sched::SchedulerKind;
use fs_simnet::sim::Simulation;
use fs_simnet::threaded::{ThreadedBuilder, ThreadedConfig, ThreadedRuntime};
use fs_simnet::trace::{NetStats, TraceLog};

use crate::group::GroupHost;
use crate::scenario::{MemberProcs, Protocol, RuntimeKind, Scenario};
use crate::service::PlainHost;
use crate::workload::Workload;

/// Completes a workload for deployment under `seed` on `runtime`.
pub(crate) fn stamp_workload(workload: &mut Workload, seed: u64, runtime: RuntimeKind) {
    // The arrival-process seed derives from the deployment seed, so
    // open-loop runs are reproducible per seed without extra configuration
    // (each generator then derives its own stream from this value).
    if workload.arrival_seed == 0 {
        workload.arrival_seed = seed ^ 0x9E37_79B9_7F4A_7C15;
    }
    // Threaded deployments pace against the absolute arrival plan so OS
    // wakeup lateness cannot accumulate into offered-rate drift; the
    // simulator keeps relative pacing (its handler latency is modelled).
    if runtime == RuntimeKind::Threaded {
        workload.drift_free_pacing = true;
    }
}

/// One shard of a deployment and where it sits on the shared runtime.
pub(crate) struct ShardAt<S> {
    /// The group to assemble.
    pub(crate) scenario: S,
    /// Offset of every process identifier of the shard.
    pub(crate) pid_base: u32,
    /// The node the shard's first member lands on (nodes are created in
    /// shard order, so this is the count of nodes created before it).
    pub(crate) node_base: u32,
}

/// Builds a front-end actor from the member handles of the assembled shards.
pub(crate) type FrontActor<'a> = &'a dyn Fn(&[Vec<MemberProcs>]) -> Box<dyn Actor>;

/// The front end of a sharded deployment: one process on a node of its own,
/// created before the shards' nodes and spawned after them.
pub(crate) struct FrontEnd<'a> {
    pub(crate) pid: ProcessId,
    pub(crate) node: NodeConfig,
    pub(crate) actor: FrontActor<'a>,
}

/// Assembles `front` and every shard on `host`; returns the member handles
/// per shard and the runtime-wide link and lifecycle schedules.
///
/// # Panics
///
/// Panics when a shard's fault schedule targets processes it does not
/// deploy (see `FaultSchedule::assert_deployable`).
fn assemble<H: GroupHost, S: Borrow<Scenario>>(
    host: &mut H,
    front: Option<FrontEnd<'_>>,
    shards: impl IntoIterator<Item = ShardAt<S>>,
) -> (Vec<Vec<MemberProcs>>, LinkSchedule, LifecycleSchedule) {
    let front = front.map(|front| (host.add_host_node(&front.node), front));
    let mut members = Vec::new();
    let mut links = LinkSchedule::new();
    let mut lifecycle = LifecycleSchedule::new();
    for (index, shard) in shards.into_iter().enumerate() {
        let scenario = shard.scenario.borrow();
        scenario
            .faults
            .assert_deployable(index, scenario.members, scenario.protocol);
        let procs = scenario.assemble_at(host, shard.pid_base);
        let shard_links = scenario
            .faults
            .compile_link_schedule_with_base(shard.node_base);
        for event in shard_links.events() {
            links.push(event.clone());
        }
        lifecycle.extend(scenario.compile_lifecycle(&procs));
        members.push(procs);
    }
    if let Some((node, front)) = front {
        host.place(front.pid, node, (front.actor)(&members));
    }
    (members, links, lifecycle)
}

/// Builds and starts a deployment of `shards` (plus `front`, if any) on a
/// fresh runtime; `topology` defaults to the paper's lightly loaded
/// 100 Mb/s LAN between every pair of nodes.
///
/// # Panics
///
/// See [`assemble`]; also when a member-lifecycle entry names a member its
/// shard does not deploy.
pub(crate) fn deploy<S: Borrow<Scenario>>(
    runtime: RuntimeKind,
    seed: u64,
    scheduler: SchedulerKind,
    topology: Option<Topology>,
    front: Option<FrontEnd<'_>>,
    shards: impl IntoIterator<Item = ShardAt<S>>,
) -> (RuntimeSlot, Vec<Vec<MemberProcs>>) {
    let topology = topology.unwrap_or_else(|| Topology::new(LinkModel::lan_100mbps()));
    match runtime {
        RuntimeKind::Sim => {
            let mut sim = Simulation::with_scheduler(seed, topology, scheduler);
            let (members, links, lifecycle) = assemble(&mut sim, front, shards);
            sim.apply_link_schedule(&links);
            sim.apply_lifecycle_schedule(lifecycle);
            let slot = RuntimeSlot {
                sim: Some(sim),
                ..RuntimeSlot::default()
            };
            (slot, members)
        }
        RuntimeKind::Threaded => {
            let mut builder = ThreadedBuilder::new(ThreadedConfig { seed }).with_topology(topology);
            let (members, links, lifecycle) = assemble(&mut builder, front, shards);
            let slot = RuntimeSlot {
                threaded: Some(
                    builder
                        .with_link_schedule(links)
                        .with_lifecycle_schedule(lifecycle)
                        .start(),
                ),
                ..RuntimeSlot::default()
            };
            (slot, members)
        }
    }
}

/// The runtime-holding half of a running deployment: either a simulator or
/// a started threaded runtime, plus the actors and statistics collected at
/// settle time.  `Running` and the cluster layer's `RunningCluster` both
/// contain exactly one slot, so driving, settling, statistics and actor
/// inspection share this one code path.
#[derive(Default)]
pub(crate) struct RuntimeSlot {
    sim: Option<Simulation>,
    threaded: Option<ThreadedRuntime>,
    collected: HashMap<ProcessId, Box<dyn Actor>>,
    /// The threaded runtime's counter cells (one per node, then the cell no
    /// node owns), frozen at settle time so [`RuntimeSlot::stats`] and
    /// [`RuntimeSlot::node_stats`] keep working after shutdown.
    frozen_cells: Option<Vec<NetStats>>,
}

impl RuntimeSlot {
    /// Drives the runtime until `horizon` and returns the reached time.
    pub(crate) fn run_until(&mut self, horizon: SimTime) -> SimTime {
        if let Some(sim) = self.sim.as_mut() {
            return sim.run_until(horizon);
        }
        if let Some(rt) = self.threaded.as_ref() {
            return rt.run_until_settled(horizon);
        }
        horizon
    }

    /// Enables event tracing (simulator only).
    pub(crate) fn enable_trace(&mut self) {
        if let Some(sim) = self.sim.as_mut() {
            sim.enable_trace();
        }
    }

    /// The recorded trace, when tracing was enabled on the simulator.
    pub(crate) fn trace(&self) -> Option<&TraceLog> {
        self.sim.as_ref().and_then(|s| s.trace())
    }

    /// The runtime-wide network statistics; infallible on both runtimes.
    pub(crate) fn stats(&self) -> NetStats {
        if let Some(sim) = self.sim.as_ref() {
            return sim.stats();
        }
        let mut stats = NetStats::default();
        for cell in self.threaded_cells().iter().flatten() {
            stats.merge(cell);
        }
        stats
    }

    /// The runtime's per-node counter cells, indexed in node creation
    /// order (`Simulation::node_net_stats`,
    /// `ThreadedRuntime::node_net_stats`).  `None` only on a slot that never
    /// held a runtime.
    pub(crate) fn node_stats(&self) -> Option<Vec<NetStats>> {
        if let Some(sim) = self.sim.as_ref() {
            return Some(
                (0..sim.node_count())
                    .map(|node| sim.node_net_stats(node))
                    .collect(),
            );
        }
        let mut cells = self.threaded_cells()?;
        cells.pop(); // the cell no node owns
        Some(cells)
    }

    /// The threaded runtime's counter cells, live or as frozen at settle:
    /// one per node, then the cell no node owns.
    fn threaded_cells(&self) -> Option<Vec<NetStats>> {
        match &self.threaded {
            Some(rt) => Some(rt.net_cells()),
            None => self.frozen_cells.clone(),
        }
    }

    /// Shuts down the threaded runtime (if any) and collects its actors for
    /// inspection.  Idempotent; a no-op on the simulator.
    pub(crate) fn settle(&mut self) {
        if let Some(rt) = self.threaded.take() {
            self.frozen_cells = Some(rt.net_cells());
            self.collected = rt.shutdown();
        }
    }

    /// The actor registered under `process`, as a trait object.  Call
    /// [`RuntimeSlot::settle`] first on the threaded runtime.
    pub(crate) fn actor_ref(&self, process: ProcessId) -> Option<&dyn Actor> {
        if let Some(sim) = self.sim.as_ref() {
            return sim.actor_dyn(process);
        }
        self.collected.get(&process).map(|b| b.as_ref())
    }

    /// [`RuntimeSlot::settle`] followed by [`RuntimeSlot::actor_ref`].
    pub(crate) fn actor_dyn(&mut self, process: ProcessId) -> Option<&dyn Actor> {
        self.settle();
        self.actor_ref(process)
    }

    pub(crate) fn sim(&self) -> Option<&Simulation> {
        self.sim.as_ref()
    }

    pub(crate) fn sim_mut(&mut self) -> Option<&mut Simulation> {
        self.sim.as_mut()
    }

    /// The service machine of the member described by `procs`, when the
    /// deployment exposes one: the machine hosted by its [`PlainHost`]
    /// under [`Protocol::Crash`], the leader replica of its FS pair under
    /// [`Protocol::FailSignal`].  `None` when the process is wrapped by a
    /// fault injector or is of another shape.
    pub(crate) fn machine_at(
        &mut self,
        protocol: Protocol,
        procs: &MemberProcs,
    ) -> Option<&dyn fs_smr::machine::DeterministicMachine> {
        self.settle();
        match protocol {
            Protocol::Crash => {
                let any: &dyn std::any::Any = self.actor_ref(procs.middleware)?;
                Some(any.downcast_ref::<PlainHost>()?.machine())
            }
            Protocol::FailSignal => {
                let any: &dyn std::any::Any = self.actor_ref(procs.leader)?;
                Some(any.downcast_ref::<FsoActor>()?.machine())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use fs_common::time::{SimDuration, SimTime};
    use fs_newtop::suspector::SuspectorConfig;

    use crate::{NewTopService, PairLayout, Protocol, Running, Scenario, Workload};

    /// The paper's NewTOP deployment (`Scenario::new`'s defaults), a short
    /// run of `messages` multicasts per member.
    fn newtop(service: NewTopService, protocol: Protocol, messages: u64) -> Scenario {
        Scenario::new(service).protocol(protocol).workload(
            Workload::paper_default()
                .messages(messages)
                .interval(SimDuration::from_millis(30)),
        )
    }

    /// Runs `scenario` with `members` members and checks it delivered every
    /// one of their `messages` multicasts correctly.
    fn run_checked(scenario: Scenario, members: u32, messages: u64) -> Running {
        let mut run = scenario.members(members).build();
        run.run_until(SimTime::from_secs(600));
        let agreed = run.check().unwrap();
        assert_eq!(agreed.len() as u64, u64::from(members) * messages);
        run
    }

    #[test]
    fn newtop_small_group_totally_orders() {
        run_checked(newtop(NewTopService::new(), Protocol::Crash, 5), 3, 5);
    }

    #[test]
    fn fs_newtop_small_group_totally_orders() {
        run_checked(newtop(NewTopService::new(), Protocol::FailSignal, 5), 3, 5);
    }

    #[test]
    fn fs_newtop_full_layout_also_works() {
        let scenario =
            newtop(NewTopService::new(), Protocol::FailSignal, 3).layout(PairLayout::Full);
        run_checked(scenario, 3, 3);
    }

    #[test]
    fn fs_newtop_pairs_do_not_fail_in_failure_free_runs() {
        let scenario = newtop(NewTopService::new(), Protocol::FailSignal, 4);
        let mut run = run_checked(scenario, 4, 4);
        for i in 0..4 {
            let interceptor = run.interceptor(i).expect("interceptor");
            assert_eq!(interceptor.receiver_stats().rejected, 0);
        }
    }

    #[test]
    fn fs_newtop_uses_more_messages_than_newtop() {
        // Disable the baseline's ping traffic so the comparison counts only
        // protocol messages caused by the workload itself.
        let sent = |protocol| {
            let quiet = NewTopService::new().suspector(SuspectorConfig::disabled());
            run_checked(newtop(quiet, protocol, 3), 3, 3)
                .stats()
                .messages_sent
        };
        let (fs, newtop) = (sent(Protocol::FailSignal), sent(Protocol::Crash));
        assert!(
            fs > newtop,
            "fail-signal wrapping must add message overhead (fs {fs} vs newtop {newtop})"
        );
    }
}
