//! The one path from a described deployment to a running one.
//!
//! A [`Scenario`] is one group; a cluster is several groups and a router on
//! one runtime.  Both go through [`deploy`]: it creates the runtime from one
//! template scenario's runtime, seed, scheduler and topology, places every
//! shard's processes at the shard's process-id and node base, compiles the
//! shards' link and lifecycle fault schedules against those bases, and
//! hands back the [`Runtime`] and one [`Group`] per shard: the two halves of
//! a [`Running`](crate::Running) handle.

use std::collections::HashMap;
use std::sync::Arc;

use fs_common::id::ProcessId;
use fs_common::time::SimTime;
use fs_simnet::actor::Actor;
use fs_simnet::lifecycle::LifecycleSchedule;
use fs_simnet::link::{LinkModel, LinkSchedule, Topology};
use fs_simnet::node::NodeConfig;
use fs_simnet::sim::Simulation;
use fs_simnet::threaded::{ThreadedBuilder, ThreadedConfig, ThreadedRuntime};
use fs_simnet::trace::{NetStats, TraceLog};

use crate::faults::FaultSchedule;
use crate::group::GroupHost;
use crate::scenario::{MemberProcs, Protocol, RuntimeKind, Scenario};
use crate::service::ServiceSpec;
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

/// What one shard of a deployment has of its own, and where it sits on the
/// shared runtime; everything else comes from the template scenario.
pub(crate) struct ShardAt {
    /// The shard's fault schedule.
    pub(crate) faults: FaultSchedule,
    /// The seed the shard's signing keys are provisioned from.
    pub(crate) seed: u64,
    /// Offset of every process identifier of the shard.
    pub(crate) pid_base: u32,
    /// The node the shard's first member lands on (nodes are created in
    /// shard order, so this is the count of nodes created before it).
    pub(crate) node_base: u32,
}

/// One deployed group: the service its members run, under which protocol,
/// their process identities, and the fault schedule the run was built with
/// (what [`Running::check`](crate::Running::check) expects of each member).
/// The group half of a [`Running`](crate::Running) handle.
pub struct Group {
    pub(crate) service: Arc<dyn ServiceSpec>,
    pub(crate) protocol: Protocol,
    pub(crate) members: Vec<MemberProcs>,
    pub(crate) faults: FaultSchedule,
}

impl std::fmt::Debug for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Group")
            .field("service", &self.service.name())
            .field("protocol", &self.protocol)
            .field("members", &self.members.len())
            .finish()
    }
}

/// The front end of a sharded deployment: one process on a node of its own,
/// created before the shards' nodes and built from them once they are
/// assembled.
pub(crate) struct FrontEnd<'a> {
    pub(crate) pid: ProcessId,
    pub(crate) node: NodeConfig,
    pub(crate) actor: &'a dyn Fn(&[Group]) -> Box<dyn Actor>,
}

/// Assembles `front` and every shard of `template` on `host`; returns the
/// groups and the runtime-wide link and lifecycle schedules.
///
/// # Panics
///
/// Panics when a shard's fault schedule targets processes it does not
/// deploy (see `FaultSchedule::assert_deployable`).
fn assemble<H: GroupHost>(
    host: &mut H,
    template: &Scenario,
    front: Option<FrontEnd<'_>>,
    shards: impl IntoIterator<Item = ShardAt>,
) -> (Vec<Group>, LinkSchedule, LifecycleSchedule) {
    let front = front.map(|front| (host.add_host_node(&front.node), front));
    let mut groups = Vec::new();
    let mut links = LinkSchedule::new();
    let mut lifecycle = LifecycleSchedule::new();
    for (index, shard) in shards.into_iter().enumerate() {
        shard
            .faults
            .assert_deployable(index, template.members, template.protocol);
        let members = template.assemble_at(host, &shard);
        let shard_links = shard
            .faults
            .compile_link_schedule_with_base(shard.node_base);
        for event in shard_links.events() {
            links.push(event.clone());
        }
        lifecycle.extend(template.compile_lifecycle(&members, &shard.faults));
        groups.push(Group {
            service: Arc::clone(&template.service),
            protocol: template.protocol,
            members,
            faults: shard.faults,
        });
    }
    if let Some((node, front)) = front {
        host.place(front.pid, node, (front.actor)(&groups));
    }
    (groups, links, lifecycle)
}

/// Builds and starts a deployment of `shards` of `template` (plus `front`,
/// if any) on a fresh runtime of the template's kind, seed and scheduler;
/// its topology defaults to the paper's lightly loaded 100 Mb/s LAN between
/// every pair of nodes.
///
/// # Panics
///
/// See [`assemble`]; also when a member-lifecycle entry names a member its
/// shard does not deploy.
pub(crate) fn deploy(
    mut template: Scenario,
    front: Option<FrontEnd<'_>>,
    shards: impl IntoIterator<Item = ShardAt>,
) -> (Runtime, Vec<Group>) {
    let topology = template
        .topology
        .take()
        .unwrap_or_else(|| Topology::new(LinkModel::lan_100mbps()));
    let seed = template.seed;
    match template.runtime {
        RuntimeKind::Sim => {
            let mut sim = Simulation::with_scheduler(seed, topology, template.scheduler);
            let (groups, links, lifecycle) = assemble(&mut sim, &template, front, shards);
            sim.apply_link_schedule(&links);
            sim.apply_lifecycle_schedule(lifecycle);
            (Runtime(Host::Sim(sim)), groups)
        }
        RuntimeKind::Threaded => {
            let mut builder = ThreadedBuilder::new(ThreadedConfig { seed }).with_topology(topology);
            let (groups, links, lifecycle) = assemble(&mut builder, &template, front, shards);
            let builder = builder
                .with_link_schedule(links)
                .with_lifecycle_schedule(lifecycle);
            (Runtime(Host::Live(builder.start())), groups)
        }
    }
}

/// The runtime half of a running deployment: a simulator, or a threaded
/// runtime that is live or settled.  [`Running`](crate::Running) and
/// [`RunningCluster`](crate::RunningCluster) both dereference to their one
/// `Runtime`, so driving, settling and statistics have this one
/// definition.
pub struct Runtime(Host);

/// Where a deployment runs.
#[allow(
    clippy::large_enum_variant,
    reason = "one per deployment: boxing the simulator saves a few hundred bytes \
              on threads and adds an indirection to every simulator call"
)]
enum Host {
    Sim(Simulation),
    Live(ThreadedRuntime),
    /// A threaded runtime after [`Runtime::settle`]: its actors, and its
    /// counter cells as they were at shutdown.
    Settled {
        actors: HashMap<ProcessId, Box<dyn Actor>>,
        cells: Vec<NetStats>,
    },
}

impl Runtime {
    /// Drives the deployment until `horizon` and returns the reached time.
    ///
    /// Simulator: runs the event loop (returns early on quiescence).
    /// Threaded runtime: sleeps until the wall clock reaches `horizon`
    /// relative to the runtime's start (1 simulated second = 1 real
    /// second), returning early once the deployment has settled — nothing
    /// in flight and no timer due before the horizon (see
    /// [`ThreadedRuntime::run_until_settled`]).
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        match &mut self.0 {
            Host::Sim(sim) => sim.run_until(horizon),
            Host::Live(rt) => rt.run_until_settled(horizon),
            Host::Settled { .. } => horizon,
        }
    }

    /// Enables event tracing (simulator only; a no-op on the threaded
    /// runtime).  Call before [`Runtime::run_until`].
    pub fn enable_trace(&mut self) {
        if let Some(sim) = self.sim_mut() {
            sim.enable_trace();
        }
    }

    /// The recorded trace, when tracing was enabled on the simulator.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.sim().and_then(Simulation::trace)
    }

    /// The aggregate network statistics, on either runtime: sends,
    /// deliveries, drops (split into unknown-destination and link-fault
    /// drops) and executed link-fault events — the sum of the runtime's
    /// counter cells.  On the threaded runtime the cells are sampled live
    /// while running and frozen at [`Runtime::settle`] time.
    pub fn stats(&self) -> NetStats {
        self.cells().iter().sum()
    }

    /// The runtime's per-node counter cells, indexed in node creation
    /// order: every cell but the one no node owns.
    pub(crate) fn node_stats(&self) -> Vec<NetStats> {
        let mut cells = self.cells();
        cells.pop();
        cells
    }

    /// The runtime's counter cells, live or as frozen at settle: one per
    /// node, then the cell no node owns.
    pub(crate) fn cells(&self) -> Vec<NetStats> {
        match &self.0 {
            Host::Sim(sim) => sim.net_cells(),
            Host::Live(rt) => rt.net_cells(),
            Host::Settled { cells, .. } => cells.clone(),
        }
    }

    /// Shuts down the threaded runtime (if any) and collects its actors for
    /// inspection.  Idempotent; a no-op on the simulator.
    pub fn settle(&mut self) {
        let (actors, cells) = (HashMap::new(), Vec::new());
        self.0 = match std::mem::replace(&mut self.0, Host::Settled { actors, cells }) {
            Host::Live(rt) => Host::Settled {
                cells: rt.net_cells(),
                actors: rt.shutdown(),
            },
            host => host,
        };
    }

    /// The actor registered under `process`, as a trait object.  Call
    /// [`Runtime::settle`] first on the threaded runtime.
    pub(crate) fn actor_ref(&self, process: ProcessId) -> Option<&dyn Actor> {
        match &self.0 {
            Host::Sim(sim) => sim.actor_dyn(process),
            Host::Live(_) => None,
            Host::Settled { actors, .. } => actors.get(&process).map(|b| b.as_ref()),
        }
    }

    /// [`Runtime::settle`] followed by [`Runtime::actor_ref`].
    pub(crate) fn actor_dyn(&mut self, process: ProcessId) -> Option<&dyn Actor> {
        self.settle();
        self.actor_ref(process)
    }

    /// Direct access to the underlying simulator, for link surgery and other
    /// scenario-specific interventions (`None` on the threaded runtime).
    pub fn sim(&self) -> Option<&Simulation> {
        match &self.0 {
            Host::Sim(sim) => Some(sim),
            _ => None,
        }
    }

    /// Mutable variant of [`Runtime::sim`].
    pub fn sim_mut(&mut self) -> Option<&mut Simulation> {
        match &mut self.0 {
            Host::Sim(sim) => Some(sim),
            _ => None,
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
