//! Cells: one deployment of the system under test, built, driven to
//! quiescence, inspected and checked — all through the harness's public
//! builders and running handles.
//!
//! A cell is the unit everything else is made of: a workload runs the same
//! cell for the crash and the fail-signal protocol side by side, repeats the
//! host-timed ones, and reduces the repetitions.  Simulated-clock facts
//! ([`Facts`]) and host-clock timings ([`HostTimes`]) are separate types, so
//! a number can never change clocks by being copied.

use std::time::Instant;

use fs_smr_suite::common::id::MemberId;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::faults::FaultyActor;
use fs_smr_suite::harness::cluster::ROUTER_PID;
use fs_smr_suite::harness::{
    Cluster, FaultSchedule, LoadStats, NewTopService, Partitioner, Protocol, Running,
    RunningCluster, RuntimeKind, Scenario, SmrDriver, SmrKvService, Workload,
};
use fs_smr_suite::newtop::app::AppProcess;
use fs_smr_suite::newtop::suspector::SuspectorConfig;
use fs_smr_suite::simnet::trace::{NetStats, TraceEvent, TraceLog};

use crate::host;
use crate::roles::{FrameCounts, Role, RoleMap};
use crate::spans::Spans;
use crate::stats::nearest_rank;

/// Far beyond any cell's last event; the simulator returns at quiescence.
const SIM_HORIZON: SimTime = SimTime::from_secs(10_000_000);

/// Wall-clock ceiling of one threaded cell; the runtime returns as soon as
/// the deployment has settled, which is what every cell here does.
const THREADED_HORIZON: SimTime = SimTime::from_secs(60);

/// The service a group orders with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// NewTOP symmetric total order (the paper's GC service).
    NewTop,
    /// The fixed-sequencer replicated key-value store.
    Kv,
}

/// What a cell deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// One group; every member's own driver generates the load.
    Group {
        /// The ordering service.
        service: Service,
        /// Group size.
        members: u32,
    },
    /// Key-partitioned KV shards behind a `ClusterRouter`, which generates
    /// the load.
    Cluster {
        /// Number of shards.
        shards: u32,
        /// Members per shard.
        members: u32,
    },
}

impl Target {
    /// How many load generators the deployment has: every member's driver,
    /// or the one router.
    pub fn generators(self) -> u64 {
        match self {
            Target::Group { members, .. } => u64::from(members),
            Target::Cluster { .. } => 1,
        }
    }
}

/// Which outputs a cell must produce for the run to count as correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Fault-free: every member's driver log and machine digest agree, every
    /// offered request completes, nobody fail-signals.
    Clean,
    /// Scheduled member restarts: machine-level logs and digests converge,
    /// every restarted member observes its rejoin, no request is left stuck,
    /// nobody fail-signals.
    Restarts {
        /// The members the schedule restarts.
        members: Vec<u32>,
    },
    /// A corrupting wrapper in member `faulty`: that pair must fail-signal
    /// and the other members' driver logs must still agree.
    FailSignal {
        /// The member whose follower wrapper corrupts its outputs.
        faulty: u32,
        /// Handled events after which the corruption starts.
        activate_after: u64,
    },
}

/// A fully specified cell.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Cell kind within the workload: `closed`, `paced`, `corrupt`, ...
    pub kind: &'static str,
    /// What is deployed.
    pub target: Target,
    /// Crash-tolerant or fail-signal.
    pub protocol: Protocol,
    /// Simulator or threads.
    pub runtime: RuntimeKind,
    /// The load every sender (or the router) generates.
    pub workload: Workload,
    /// Faults and restarts; in a cluster they apply to shard 0.
    pub faults: FaultSchedule,
    /// Clusters only: the router resubmits a command not completed within
    /// this deadline, so requests due while a member is down are delayed and
    /// counted rather than lost.
    pub retry_deadline: Option<SimDuration>,
    /// The benchmark's `--seed`, passed to the builder unchanged.
    pub seed: u64,
    /// The output checks that apply.
    pub expect: Expect,
}

/// `crash` or `fs`, as used in metric names and cell labels.
pub fn protocol_tag(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::Crash => "crash",
        Protocol::FailSignal => "fs",
    }
}

impl CellSpec {
    /// `closed/fs`, `paced/crash`, ... — the cell's name in spans and
    /// violation messages.
    pub fn label(&self) -> String {
        let runtime = match self.runtime {
            RuntimeKind::Sim => "sim",
            RuntimeKind::Threaded => "thr",
        };
        format!("{runtime}/{}/{}", self.kind, protocol_tag(self.protocol))
    }

    fn build(&self) -> Deployed {
        match self.target {
            Target::Group { service, members } => {
                let scenario = match service {
                    // The crash-mode suspector pings on wall-clock-like
                    // timers; the cells here are failure-free or restart KV
                    // members, so it would only add unrelated frames.
                    Service::NewTop => {
                        Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled()))
                    }
                    Service::Kv => Scenario::new(SmrKvService::new()),
                };
                Deployed::Group(
                    service,
                    scenario
                        .members(members)
                        .protocol(self.protocol)
                        .runtime(self.runtime)
                        .workload(self.workload)
                        .faults(self.faults.clone())
                        .seed(self.seed)
                        .build(),
                )
            }
            Target::Cluster { shards, members } => {
                let mut cluster = Cluster::new(shards, members)
                    .protocol(self.protocol)
                    .runtime(self.runtime)
                    .partitioner(Partitioner::hash(shards))
                    .workload(self.workload)
                    .shard_faults(0, self.faults.clone())
                    .seed(self.seed);
                if let Some(deadline) = self.retry_deadline {
                    // Never give up: an expired command would be a failed
                    // request, and the checks count those.
                    cluster = cluster.command_deadline(deadline).max_retries(u32::MAX);
                }
                Deployed::Cluster(cluster.build())
            }
        }
    }
}

/// The two running handles behind one interface.  The harness mirrors their
/// accessors but shares no trait, so the benchmark folds them here.
enum Deployed {
    Group(Service, Running),
    Cluster(RunningCluster),
}

impl Deployed {
    fn enable_trace(&mut self) {
        match self {
            Deployed::Group(_, run) => run.enable_trace(),
            Deployed::Cluster(run) => run.enable_trace(),
        }
    }

    fn run_until(&mut self, horizon: SimTime) -> SimTime {
        match self {
            Deployed::Group(_, run) => run.run_until(horizon),
            Deployed::Cluster(run) => run.run_until(horizon),
        }
    }

    fn settle(&mut self) {
        match self {
            Deployed::Group(_, run) => run.settle(),
            Deployed::Cluster(run) => run.settle(),
        }
    }

    fn stats(&self) -> NetStats {
        match self {
            Deployed::Group(_, run) => run.stats(),
            Deployed::Cluster(run) => run.stats(),
        }
    }

    fn trace(&self) -> Option<&TraceLog> {
        match self {
            Deployed::Group(_, run) => run.trace(),
            Deployed::Cluster(run) => run.trace(),
        }
    }

    /// Events queued in the simulator right now (groups on the simulator
    /// only; the cluster handle does not expose its simulation).
    fn pending_events(&self) -> Option<usize> {
        match self {
            Deployed::Group(_, run) => run.sim().map(|sim| sim.pending_events()),
            Deployed::Cluster(_) => None,
        }
    }

    fn role_map(&self, protocol: Protocol) -> RoleMap {
        let mut roles = RoleMap::new();
        match self {
            Deployed::Group(_, run) => roles.add_group(0, protocol, run.members()),
            Deployed::Cluster(run) => {
                roles.add_router(ROUTER_PID);
                for shard in 0..run.shards() {
                    let procs = run.shard_procs(shard).expect("shard exists");
                    roles.add_group(shard, protocol, procs);
                }
            }
        }
        roles
    }
}

/// Host-clock measurements of one repetition of a cell.  Wall seconds come
/// from `Instant`, CPU seconds from `/proc`; neither is ever simulated time.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTimes {
    /// Wall seconds inside `build()`: key provisioning, actors, threads.
    pub build_wall_s: f64,
    /// Wall seconds inside `run_until`.
    pub run_wall_s: f64,
    /// Process CPU seconds (all threads) inside `run_until`.
    pub run_cpu_s: f64,
    /// Wall seconds inside `settle()`: threaded shutdown and actor
    /// collection (a no-op on the simulator).
    pub settle_wall_s: f64,
    /// Wall seconds reading logs, counters and latencies back out.
    pub inspect_wall_s: f64,
}

/// Everything a cell reports on its runtime's own clock, plus exact counts.
/// On the simulator two repetitions with one seed must produce equal
/// `Facts`; that equality is one of the output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// Admission counters merged over every load generator.
    pub load: LoadStats,
    /// Requests whose ordered delivery reached their issuer (latency
    /// samples).  Differs from `load.completed` only under restarts, where
    /// the gate also releases the requests a crashing issuer abandons.
    pub completions: u64,
    /// Ordered deliveries summed over members (each request is delivered
    /// once per member).
    pub deliveries: u64,
    /// First submission to last completion, nanoseconds of the runtime's
    /// clock: simulated on the simulator, wall on threads.
    pub window_ns: u64,
    /// Where `run_until` stopped, same clock (trailing timers included,
    /// which is why it is not the capacity window).
    pub reached_ns: u64,
    /// Latency percentiles of the completions, same clock.
    pub latency_p50_ns: u64,
    /// See `latency_p50_ns`.
    pub latency_p99_ns: u64,
    /// Runtime-wide counters.
    pub net: NetStats,
    /// Members whose own pair has fail-signalled.
    pub fail_signalled: u32,
    /// `rejoin_latency()` of each restarted member, in schedule order.
    pub rejoin_ns: Vec<u64>,
    /// Outgoing messages the fault injector corrupted.
    pub injected: u64,
}

/// What only a traced repetition can tell.
#[derive(Debug, Clone)]
pub struct TraceFacts {
    /// Frames by role class.
    pub frames: FrameCounts,
    /// Events the simulator recorded.
    pub events: usize,
    /// Simulator queue depth sampled mid-window (sliced runs of handles that
    /// expose it).
    pub pending_events: Option<usize>,
    /// First faulty event of the corrupting wrapper to the pair's
    /// fail-signal, simulated nanoseconds.
    pub detect_ns: Option<u64>,
    /// `fail-signal:` labels in the trace (the only fail-signal probe the
    /// cluster handle offers).
    pub fail_signal_labels: u64,
    /// When the load generators (the router, or else the members' drivers)
    /// sent a frame: in a fault-free open-loop cell, the arrival instants.
    pub generator_sends: Vec<SimTime>,
}

/// One repetition of one cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// `sim/closed/fs`, ...
    pub label: String,
    /// Host-clock timings.
    pub host: HostTimes,
    /// Runtime-clock facts and exact counts.
    pub facts: Facts,
    /// Sliced simulator runs: wall nanoseconds of every slice, the drain of
    /// trailing timers last.  Slice `i` is the same work in every repetition.
    pub slice_wall_ns: Vec<f64>,
    /// Failed output checks, each starting with the check's name.
    pub violations: Vec<String>,
    /// Present when the repetition ran with the simulator trace on.
    pub trace: Option<TraceFacts>,
}

/// How to cut a simulator run into host-timed slices.
///
/// On this class of host identical work runs at two speeds, ~1.6x apart, in
/// phases from milliseconds to tens of seconds long, so the time of a whole
/// 0.5 s repetition says little.  But the simulator is deterministic: cut at
/// the same simulated instants, slice `i` of every repetition of a cell does
/// *exactly the same work*.  A sliced run drives the simulator in steps of
/// equal simulated length across the cell's active window, then drains the
/// trailing timers as one last slice, and times every step; the fastest
/// sample of each slice over all repetitions, summed, is the time the cell
/// takes when the host never slows it down.
#[derive(Debug, Clone, Copy)]
pub struct Slicing {
    /// End of the active window (last completion of an earlier repetition).
    pub active_until: SimTime,
    /// Number of slices across the active window.
    pub slices: u32,
}

/// Runs one repetition of `spec`.  With `traced`, the simulator's event
/// trace is enabled and folded into [`TraceFacts`].  With `slicing`
/// (simulator only), the run is driven slice by slice and the host time of
/// each slice is kept in `CellRun::slice_wall_ns`.
pub fn run_cell(
    spec: &CellSpec,
    rep: &str,
    traced: bool,
    slicing: Option<Slicing>,
    spans: &mut Spans,
) -> CellRun {
    let label = spec.label();
    let cell = format!("{label}#{rep}");
    let ((host, facts, trace, slice_wall_ns, mut violations), _) =
        spans.scope("cell", &cell, |spans| {
            let (mut deployed, build_wall_s) = spans.scope("build", &cell, |_| spec.build());
            if traced {
                deployed.enable_trace();
            }
            let horizon = match spec.runtime {
                RuntimeKind::Sim => SIM_HORIZON,
                RuntimeKind::Threaded => THREADED_HORIZON,
            };
            let mut pending_events = None;
            let mut slice_wall_ns = Vec::new();
            let cpu_before = host::cpu_seconds();
            let (reached, run_wall_s) = spans.scope("run_until", &cell, |_| {
                let Some(Slicing {
                    active_until,
                    slices,
                }) = slicing
                else {
                    return deployed.run_until(horizon);
                };
                let step = SimDuration::from_nanos(active_until.as_nanos() / u64::from(slices));
                let mut started = Instant::now();
                let mut lap = |slice_wall_ns: &mut Vec<f64>| {
                    let now = Instant::now();
                    slice_wall_ns.push(now.duration_since(started).as_nanos() as f64);
                    started = now;
                };
                for i in 1..=slices {
                    deployed.run_until(SimTime::ZERO + step * u64::from(i));
                    lap(&mut slice_wall_ns);
                    if i == slices / 2 {
                        pending_events = deployed.pending_events();
                    }
                }
                let reached = deployed.run_until(horizon);
                lap(&mut slice_wall_ns);
                reached
            });
            let run_cpu_s = host::cpu_seconds() - cpu_before;
            let (_, settle_wall_s) = spans.scope("settle", &cell, |_| deployed.settle());
            let ((facts, mut violations), inspect_wall_s) =
                spans.scope("inspect", &cell, |_| inspect(spec, &mut deployed, reached));
            let trace = traced.then(|| {
                spans
                    .scope("attribute_trace", &cell, |_| {
                        trace_facts(spec, &deployed, pending_events, &mut violations)
                    })
                    .0
            });
            // Freeing the actors (and, traced, the event log) is bracketed so
            // it reads as benchmark overhead in the span file, not as a gap.
            spans.scope("drop", &cell, |_| drop(deployed));
            let host = HostTimes {
                build_wall_s,
                run_wall_s,
                run_cpu_s,
                settle_wall_s,
                inspect_wall_s,
            };
            (host, facts, trace, slice_wall_ns, violations)
        });
    for violation in &mut violations {
        *violation = format!("{violation} [{cell}]");
    }
    CellRun {
        label,
        host,
        facts,
        slice_wall_ns,
        violations,
        trace,
    }
}

/// Wall time after which a batch of set-up builds stops early.
const SETUP_BATCH_BUDGET: std::time::Duration = std::time::Duration::from_millis(20);

/// Builds `spec` up to `times` times in a row and returns the wall seconds of
/// the fastest `build()`: every build of a cell is the same work, so the
/// fastest of a batch is what set-up takes when the host does not slow it
/// down.  Each deployment is settled before it is dropped — dropping a
/// threaded one unsettled would leave its node threads running — and only
/// `build()` itself is timed.  Settling a threaded deployment takes ~20 ms,
/// so a batch also ends once [`SETUP_BATCH_BUDGET`] is spent (after at least
/// three builds): set-up sampling must not crowd out the repetitions.
pub fn time_builds(spec: &CellSpec, times: u32, spans: &mut Spans) -> f64 {
    let cell = format!("{}#setup", spec.label());
    spans
        .scope("build_batch", &cell, |_| {
            let batch_started = Instant::now();
            let mut fastest_s = f64::INFINITY;
            for built in 0..times {
                if built >= 3 && batch_started.elapsed() > SETUP_BATCH_BUDGET {
                    break;
                }
                let started = Instant::now();
                let mut deployed = spec.build();
                fastest_s = fastest_s.min(started.elapsed().as_secs_f64());
                deployed.settle();
            }
            fastest_s
        })
        .0
}

fn sorted_nanos(samples: &[SimDuration]) -> Vec<u64> {
    let mut nanos: Vec<u64> = samples.iter().map(|d| d.as_nanos()).collect();
    nanos.sort_unstable();
    nanos
}

/// Reads the cell's outputs back and checks them.  Returns the facts and the
/// violated checks.
fn inspect(spec: &CellSpec, deployed: &mut Deployed, reached: SimTime) -> (Facts, Vec<String>) {
    let mut violations = Vec::new();
    let net = deployed.stats();
    let (load, latencies, deliveries, window_ns, fail_signalled, rejoin_ns, injected);
    match deployed {
        Deployed::Group(service, run) => {
            let members = run.members().len() as u32;
            let logs = run.delivery_logs();
            deliveries = logs.iter().map(|log| log.len() as u64).sum();
            load = run.load_stats();
            latencies = sorted_nanos(run.latencies().samples());
            let last = (0..members)
                .filter_map(|i| match service {
                    Service::NewTop => run.app::<AppProcess>(i)?.last_delivery(),
                    Service::Kv => run.app::<SmrDriver>(i)?.last_delivery(),
                })
                .max()
                .unwrap_or(SimTime::ZERO);
            let first = SimTime::ZERO + spec.workload.start_delay;
            window_ns = last.duration_since(first).as_nanos();
            fail_signalled = (0..members)
                .filter(|&i| run.interceptor(i).is_some_and(|x| x.local_fail_signalled()))
                .count() as u32;
            let digests: Vec<Option<u64>> = (0..members).map(|i| run.machine_digest(i)).collect();
            let mut rejoins = Vec::new();
            let mut corrupted = 0;

            match &spec.expect {
                Expect::Clean => {
                    if logs.iter().any(|log| *log != logs[0]) {
                        violations.push("agreement: members' delivery logs differ".into());
                    }
                    if digests.iter().any(|d| *d != digests[0]) {
                        violations.push("agreement: members' machine digests differ".into());
                    }
                }
                Expect::Restarts { members: restarted } => {
                    let machine_logs: Vec<_> = (0..members).map(|i| run.machine_log(i)).collect();
                    if machine_logs[0].is_none()
                        || machine_logs.iter().any(|log| *log != machine_logs[0])
                    {
                        violations.push("agreement: machine logs did not converge".into());
                    }
                    if digests[0].is_none() || digests.iter().any(|d| *d != digests[0]) {
                        violations.push("agreement: machine digests did not converge".into());
                    }
                    for &m in restarted {
                        match run.app::<SmrDriver>(m).and_then(|d| d.rejoin_latency()) {
                            Some(latency) => rejoins.push(latency.as_nanos()),
                            None => violations
                                .push(format!("rejoin: member {m} never observed its rejoin")),
                        }
                    }
                }
                Expect::FailSignal { faulty, .. } => {
                    let correct: Vec<&Vec<(MemberId, u64)>> = logs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i as u32 != *faulty)
                        .map(|(_, log)| log)
                        .collect();
                    if correct.iter().any(|log| *log != correct[0]) || correct[0].is_empty() {
                        violations.push("agreement: correct members' logs differ".into());
                    }
                    let follower = run.members()[*faulty as usize].follower;
                    corrupted = run
                        .sim()
                        .and_then(|sim| sim.actor::<FaultyActor>(follower))
                        .map_or(0, |actor| actor.stats().corrupted);
                    if corrupted == 0 {
                        violations.push("fault: the injector corrupted nothing".into());
                    }
                }
            }
            rejoin_ns = rejoins;
            injected = corrupted;
        }
        Deployed::Cluster(run) => {
            let shards = run.shards();
            let mut total = 0;
            for shard in 0..shards {
                let members = run.shard_procs(shard).expect("shard exists").len() as u32;
                let reference = run.machine_log(shard, 0);
                let digest = run.machine_digest(shard, 0);
                if reference.is_none() || digest.is_none() {
                    violations.push(format!("agreement: shard {shard} is not inspectable"));
                }
                total += reference.as_ref().map_or(0, |log| log.len() as u64);
                for member in 1..members {
                    let log = run.machine_log(shard, member);
                    total += log.as_ref().map_or(0, |log| log.len() as u64);
                    if log != reference || run.machine_digest(shard, member) != digest {
                        violations.push(format!(
                            "agreement: shard {shard} member {member} diverged from member 0"
                        ));
                    }
                }
            }
            deliveries = total;
            let router = run.router();
            load = router.load_stats();
            latencies = sorted_nanos(router.latencies().samples());
            window_ns = match (router.first_submit_at(), router.last_done_at()) {
                (Some(first), Some(last)) => last.duration_since(first).as_nanos(),
                _ => 0,
            };
            let expired: u64 = router.shard_loads().iter().map(|l| l.expired).sum();
            if expired != 0 {
                violations.push(format!(
                    "completion: the router gave up on {expired} commands"
                ));
            }
            // The cluster handle offers neither interceptor nor driver
            // access: a traced repetition looks for fail-signal labels, and
            // rejoin latencies come from the group-shaped recovery cell.
            fail_signalled = 0;
            rejoin_ns = Vec::new();
            injected = 0;
        }
    }

    let completions = latencies.len() as u64;
    match &spec.expect {
        Expect::Clean => {
            if load.completed != load.offered || completions != load.offered {
                violations.push(format!(
                    "completion: {completions} of {} offered requests completed",
                    load.offered
                ));
            }
            if fail_signalled != 0 {
                violations.push("fail_signal: a pair fail-signalled in a fault-free cell".into());
            }
        }
        Expect::Restarts { .. } => {
            if load.completed != load.submitted || load.submitted != load.offered {
                violations.push(format!(
                    "completion: {} offered, {} submitted, {} released",
                    load.offered, load.submitted, load.completed
                ));
            }
            if fail_signalled != 0 {
                violations.push("fail_signal: a clean restart tripped a fail-signal".into());
            }
        }
        Expect::FailSignal { faulty, .. } => {
            if fail_signalled == 0 {
                violations.push(format!(
                    "fail_signal: member {faulty}'s corrupting pair never fail-signalled"
                ));
            }
        }
    }
    if window_ns == 0 || deliveries == 0 {
        violations.push("completion: the cell delivered nothing".into());
    }

    let percentile = |p: f64| {
        if latencies.is_empty() {
            0
        } else {
            nearest_rank(&latencies, p)
        }
    };
    let facts = Facts {
        load,
        completions,
        deliveries,
        window_ns,
        reached_ns: reached.as_nanos(),
        latency_p50_ns: percentile(0.50),
        latency_p99_ns: percentile(0.99),
        net,
        fail_signalled,
        rejoin_ns,
        injected,
    };
    (facts, violations)
}

/// Folds the simulator trace of a traced repetition.
fn trace_facts(
    spec: &CellSpec,
    deployed: &Deployed,
    pending_events: Option<usize>,
    violations: &mut Vec<String>,
) -> TraceFacts {
    let roles = deployed.role_map(spec.protocol);
    let empty = TraceLog::new();
    let trace = deployed.trace().unwrap_or(&empty);
    let frames = FrameCounts::from_trace(trace, &roles);
    let sent = deployed.stats().messages_sent;
    if frames.total() != sent {
        violations.push(format!(
            "attribution: {} traced frames, {sent} frames sent",
            frames.total()
        ));
    }
    let fail_signal_times: Vec<SimTime> = trace
        .events()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Label { at, label, .. } if label.starts_with("fail-signal:") => Some(*at),
            _ => None,
        })
        .collect();
    let fail_signal_labels = fail_signal_times.len() as u64;
    if !matches!(spec.expect, Expect::FailSignal { .. }) && fail_signal_labels != 0 {
        violations.push(format!(
            "fail_signal: {fail_signal_labels} fail-signal labels in the trace of a cell without injected faults"
        ));
    }
    let generator = match deployed {
        Deployed::Group(..) => Role::App,
        Deployed::Cluster(_) => Role::Router,
    };
    let generator_sends = trace
        .events()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Send { at, from, .. } if roles.role_of(*from) == Some(generator) => {
                Some(*at)
            }
            _ => None,
        })
        .collect();

    let mut detect_ns = None;
    if let (
        Expect::FailSignal {
            faulty,
            activate_after,
        },
        Deployed::Group(_, run),
    ) = (&spec.expect, deployed)
    {
        let follower = run.members()[*faulty as usize].follower;
        // The injector turns faulty after `activate_after` handled events,
        // so the next event the follower handles is the first faulty one.
        let first_faulty = trace
            .events()
            .iter()
            .filter_map(|event| match event {
                TraceEvent::Deliver { at, to, .. } if *to == follower => Some(*at),
                TraceEvent::Timer { at, at_process, .. } if *at_process == follower => Some(*at),
                _ => None,
            })
            .nth(*activate_after as usize);
        detect_ns = match (first_faulty, fail_signal_times.first().copied()) {
            (Some(fault), Some(signal)) if signal >= fault => {
                Some(signal.duration_since(fault).as_nanos())
            }
            _ => None,
        };
        if detect_ns.is_none() {
            violations.push("fail_signal: no fail-signal after the first faulty event".into());
        }
    }

    TraceFacts {
        frames,
        events: trace.len(),
        pending_events,
        detect_ns,
        fail_signal_labels,
        generator_sends,
    }
}
