//! Cross-crate integration tests for the sharded cluster layer
//! (`fs_harness::cluster`): partitioner determinism across schedulers,
//! sim-vs-threaded parity with one shard restarting under Poisson load,
//! and the multi-shard snapshot contract.

use fs_smr_suite::common::id::MemberId;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::harness::cluster::router_keys;
use fs_smr_suite::harness::{
    Cluster, FaultSchedule, Partitioner, Protocol, RunningCluster, RuntimeKind, Workload,
};
use fs_smr_suite::simnet::sched::SchedulerKind;

/// Offered commands across the whole cluster in the deterministic tests.
const MESSAGES: u64 = 80;
const SEED: u64 = 7;
const ARRIVAL_SEED: u64 = 0xfeed_beef;

fn poisson_workload(messages: u64) -> Workload {
    Workload::paper_default()
        .messages(messages)
        .interval(SimDuration::from_millis(5))
        .poisson()
        .arrival_seed(ARRIVAL_SEED)
}

/// The per-shard submitted counts the router's deterministic key stream
/// predicts, computed without running anything.
fn predicted_submitted(partitioner: &Partitioner, messages: u64) -> Vec<u64> {
    let mut counts = vec![0u64; partitioner.shards() as usize];
    for (_, shard) in partitioner.assignment(&router_keys(ARRIVAL_SEED, messages as usize)) {
        counts[shard as usize] += 1;
    }
    counts
}

/// Same seed and keys ⇒ byte-identical shard assignment and byte-identical
/// traces, whichever future-event-set scheduler the simulator runs on.
#[test]
fn cluster_is_deterministic_across_schedulers() {
    let fingerprint = |scheduler: SchedulerKind| {
        let mut cluster = Cluster::new(4, 3)
            .workload(poisson_workload(MESSAGES))
            .seed(SEED)
            .scheduler(scheduler)
            .build();
        cluster.enable_trace();
        cluster.run_until(SimTime::from_secs(300));
        let trace_json = serde_json::to_string(cluster.trace().expect("tracing enabled")).unwrap();
        let loads: Vec<(u64, u64)> = cluster
            .shard_loads()
            .iter()
            .map(|l| (l.submitted, l.completed))
            .collect();
        let digests: Vec<Option<u64>> = (0..4).map(|s| cluster.machine_digest(s, 0)).collect();
        (trace_json, loads, digests)
    };

    let calendar = fingerprint(SchedulerKind::CalendarQueue);
    let heap = fingerprint(SchedulerKind::LegacyHeap);

    // The run did real work: every command completed on some shard.
    assert_eq!(
        calendar.1.iter().map(|(_, c)| c).sum::<u64>(),
        MESSAGES,
        "every routed command completed"
    );
    // The shard assignment is exactly the one the key stream predicts.
    let predicted = predicted_submitted(&Partitioner::hash(4), MESSAGES);
    assert_eq!(
        calendar.1.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        predicted,
        "router assignment matches the partitioner's stable key→shard map"
    );
    // Scheduler choice changes nothing observable.
    assert_eq!(calendar.1, heap.1, "per-shard loads must match");
    assert_eq!(calendar.2, heap.2, "per-shard digests must match");
    assert_eq!(calendar.0, heap.0, "traces must be byte-identical");
}

fn restart_cluster(runtime: RuntimeKind) -> RunningCluster {
    // Shard 1's sequencer (member 0 also hosts the entry driver) crashes a
    // quarter into the ~400 ms offered window and recovers past the half.
    let faults = FaultSchedule::none()
        .crash_member_at(SimTime::from_millis(100), MemberId(0))
        .recover_member_at(SimTime::from_millis(250), MemberId(0));
    Cluster::new(4, 3)
        .runtime(runtime)
        .workload(poisson_workload(MESSAGES))
        .shard_faults(1, faults)
        .seed(SEED)
        .build()
}

/// Sim-vs-threaded parity for a 4-shard cluster under Poisson load with one
/// shard restarting mid-run: the healthy shards serve identical command
/// sets on both runtimes (machine digests equal runtime-to-runtime), every
/// shard stays internally consistent, and the fault plane demonstrably
/// fired on both.
#[test]
fn four_shard_parity_with_one_shard_restarting() {
    let mut sim = restart_cluster(RuntimeKind::Sim);
    sim.run_until(SimTime::from_secs(300));
    let mut threaded = restart_cluster(RuntimeKind::Threaded);
    threaded.run_until(SimTime::from_secs(6));

    // The restart actually happened on both runtimes: one member's two
    // processes crashed and recovered.
    assert_eq!(sim.stats().lifecycle_events, 4);
    assert_eq!(threaded.stats().lifecycle_events, 4);

    let sim_loads = sim.shard_loads();
    let threaded_loads = threaded.shard_loads();
    // The open-loop router admits everything (no in-flight bound), so both
    // runtimes route the identical command stream.
    assert_eq!(sim_loads.iter().map(|l| l.submitted).sum::<u64>(), MESSAGES);
    assert_eq!(
        threaded_loads.iter().map(|l| l.submitted).sum::<u64>(),
        MESSAGES
    );
    assert_eq!(
        sim_loads.iter().map(|l| l.submitted).collect::<Vec<_>>(),
        threaded_loads
            .iter()
            .map(|l| l.submitted)
            .collect::<Vec<_>>(),
        "deterministic key stream ⇒ identical per-shard routing"
    );

    // Healthy shards (0, 2, 3): fully served on both runtimes, members in
    // exact agreement, and state equal runtime-to-runtime.
    for shard in [0u32, 2, 3] {
        for (label, loads) in [("sim", &sim_loads), ("threaded", &threaded_loads)] {
            let load = loads[shard as usize];
            assert!(load.submitted > 0, "{label}: shard {shard} owned keys");
            assert_eq!(
                load.in_flight(),
                0,
                "{label}: healthy shard {shard} completed everything"
            );
        }
        let digest = sim.machine_digest(shard, 0).expect("sim digest");
        for member in 0..3 {
            assert_eq!(sim.machine_digest(shard, member), Some(digest));
            assert_eq!(
                threaded.machine_digest(shard, member),
                Some(digest),
                "shard {shard} member {member}: runtimes must converge to the same state"
            );
        }
    }

    // The restarted shard (1): commands routed to it while its sequencer
    // was down are lost (the router keeps them in flight — fault isolation,
    // not fault masking), but its members converge among themselves on each
    // runtime.
    assert!(
        sim_loads[1].in_flight() > 0,
        "the sim's deterministic outage window must strand some commands"
    );
    for cluster in [&mut sim, &mut threaded] {
        let d0 = cluster
            .machine_digest(1, 0)
            .expect("restarted shard digest");
        for member in 1..3 {
            assert_eq!(
                cluster.machine_digest(1, member),
                Some(d0),
                "restarted shard member {member} diverged"
            );
        }
    }
}

/// Key-range partitioning, the multi-shard snapshot and the shared
/// NetStats aggregation path, end to end on the simulator.
#[test]
fn key_range_cluster_snapshot_and_stats() {
    // Router keys are `k` + 16 hex digits, so these bounds split the key
    // space by the first hex digit into four even ranges.
    let partitioner = Partitioner::key_range(vec!["k4".into(), "k8".into(), "kc".into()]);
    let mut cluster = Cluster::new(4, 3)
        .protocol(Protocol::FailSignal)
        .workload(poisson_workload(MESSAGES))
        .partitioner(partitioner.clone())
        .seed(SEED)
        .snapshot_at(SimTime::from_millis(200))
        .build();
    cluster.run_until(SimTime::from_secs(300));

    assert_eq!(cluster.completed(), MESSAGES);
    let loads = cluster.shard_loads();
    assert_eq!(
        loads.iter().map(|l| l.submitted).collect::<Vec<_>>(),
        predicted_submitted(&partitioner, MESSAGES),
        "range assignment matches the predicted key→shard map"
    );

    // The snapshot assembled one frontier per shard, each a consistent cut
    // of its shard's ordered history.
    let snapshots = cluster.snapshots();
    assert_eq!(snapshots.len(), 1);
    let snap = &snapshots[0];
    assert_eq!(snap.shards.len(), 4);
    assert!(snap.completed_at >= snap.requested_at);
    for (s, frontier) in snap.shards.iter().enumerate() {
        assert_eq!(frontier.shard, s as u32);
        assert!(frontier.applied >= 1, "the frontier read counts itself");
        assert!(
            frontier.keys < frontier.applied,
            "every applied command but the read itself stored a key"
        );
    }

    // Per-shard network counters fold through NetStats::merge into a lower
    // bound on the runtime-wide statistics (router traffic excluded).
    let merged = cluster.shards_net_merged().expect("sim counters");
    let total = cluster.stats();
    assert!(merged.messages_sent > 0);
    assert!(merged.messages_sent <= total.messages_sent);
    assert!(merged.bytes_sent <= total.bytes_sent);
    for s in 0..4 {
        let net = cluster.shard_net(s).expect("sim counters");
        assert!(net.messages_sent > 0, "shard {s} generated traffic");
    }
    assert!(cluster.latency_summary().is_some());
}

fn restart_cluster_16(runtime: RuntimeKind, protocol: Protocol) -> RunningCluster {
    // Shard 5's sequencer (member 0 also hosts the entry driver) crashes a
    // quarter into the ~800 ms offered window and recovers past the half.
    let faults = FaultSchedule::none()
        .crash_member_at(SimTime::from_millis(200), MemberId(0))
        .recover_member_at(SimTime::from_millis(500), MemberId(0));
    Cluster::new(16, 3)
        .runtime(runtime)
        .protocol(protocol)
        .workload(poisson_workload(2 * MESSAGES))
        .shard_faults(5, faults)
        .seed(SEED)
        .build()
}

/// Sim-vs-threaded parity at 16 shards under Poisson load with one shard
/// restarting mid-run — a deployment-scale cell exercising
/// the threaded runtime's contention-free send path (per-node stat cells,
/// snapshot-published link gate) against the simulator's reference run.
fn sixteen_shard_parity(protocol: Protocol) {
    let mut sim = restart_cluster_16(RuntimeKind::Sim, protocol);
    sim.run_until(SimTime::from_secs(300));
    let mut threaded = restart_cluster_16(RuntimeKind::Threaded, protocol);
    threaded.run_until(SimTime::from_secs(8));

    // The restart fired on both runtimes: one member's processes crashed
    // and recovered (process count per member depends on the protocol).
    let lifecycle = sim.stats().lifecycle_events;
    assert!(lifecycle >= 4, "crash+recover compile to process events");
    assert_eq!(threaded.stats().lifecycle_events, lifecycle);

    // Identical deterministic key stream ⇒ identical per-shard routing.
    let sim_loads = sim.shard_loads();
    let threaded_loads = threaded.shard_loads();
    assert_eq!(
        sim_loads.iter().map(|l| l.submitted).sum::<u64>(),
        2 * MESSAGES
    );
    assert_eq!(
        sim_loads.iter().map(|l| l.submitted).collect::<Vec<_>>(),
        threaded_loads
            .iter()
            .map(|l| l.submitted)
            .collect::<Vec<_>>(),
    );

    // Healthy shards: fully served on both runtimes, members in exact
    // agreement, and state equal runtime-to-runtime.
    for shard in (0..16u32).filter(|&s| s != 5) {
        for (label, loads) in [("sim", &sim_loads), ("threaded", &threaded_loads)] {
            assert_eq!(
                loads[shard as usize].in_flight(),
                0,
                "{label}: healthy shard {shard} completed everything"
            );
        }
        let digest = sim.machine_digest(shard, 0).expect("sim digest");
        for member in 0..3 {
            assert_eq!(sim.machine_digest(shard, member), Some(digest));
            assert_eq!(
                threaded.machine_digest(shard, member),
                Some(digest),
                "shard {shard} member {member}: runtimes must converge"
            );
        }
    }

    // The restarted shard stays internally consistent per runtime.
    for cluster in [&mut sim, &mut threaded] {
        let d0 = cluster.machine_digest(5, 0).expect("restarted digest");
        for member in 1..3 {
            assert_eq!(cluster.machine_digest(5, member), Some(d0));
        }
    }

    // The threaded runtime attributes network counters per shard: every
    // shard moved traffic, and the folded cells stay within the runtime
    // aggregate (the router's node and external injections are excluded).
    let total = threaded.stats();
    let mut folded = 0;
    for shard in 0..16 {
        let net = threaded.shard_net(shard).expect("threaded shard cells");
        assert!(net.messages_sent > 0, "shard {shard} sent nothing?");
        assert!(net.busy_ns > 0, "shard {shard} recorded no handler time?");
        folded += net.messages_sent;
    }
    assert!(folded <= total.messages_sent);
}

#[test]
fn sixteen_shard_parity_with_one_shard_restarting_crash() {
    sixteen_shard_parity(Protocol::Crash);
}

#[test]
fn sixteen_shard_parity_with_one_shard_restarting_fail_signal() {
    sixteen_shard_parity(Protocol::FailSignal);
}

/// With a command deadline, a transient shard outage turns stranded
/// commands into bounded retries instead of a forever-pinned in-flight
/// window: after the shard recovers, retries drain the window to zero and
/// every offered command is accounted as completed or expired.
#[test]
fn command_deadline_retries_drain_the_outage_window() {
    let faults = FaultSchedule::none()
        .crash_member_at(SimTime::from_millis(100), MemberId(0))
        .recover_member_at(SimTime::from_millis(250), MemberId(0));
    let mut cluster = Cluster::new(2, 3)
        .workload(poisson_workload(MESSAGES))
        .shard_faults(1, faults)
        .command_deadline(SimDuration::from_millis(60))
        .max_retries(3)
        .seed(SEED)
        .build();
    cluster.run_until(SimTime::from_secs(600));

    let loads = cluster.shard_loads();
    let submitted: u64 = loads.iter().map(|l| l.submitted).sum();
    let completed: u64 = loads.iter().map(|l| l.completed).sum();
    let expired: u64 = loads.iter().map(|l| l.expired).sum();
    assert_eq!(submitted, MESSAGES);
    assert_eq!(
        completed + expired,
        submitted,
        "every command ends accounted: completed or expired, none stranded"
    );
    assert!(
        loads.iter().all(|l| l.in_flight() == 0),
        "the deadline plane drains the in-flight window"
    );
    assert!(
        loads[1].retried > 0,
        "the outage window must have triggered resubmissions"
    );
    // The healthy shard never came close to the deadline.
    assert_eq!(loads[0].retried, 0);
    assert_eq!(loads[0].expired, 0);
    // The restarted shard still converged internally.
    let d0 = cluster.machine_digest(1, 0).expect("digest");
    for member in 1..3 {
        assert_eq!(cluster.machine_digest(1, member), Some(d0));
    }
}

/// A permanent shard outage with a deadline: the retry budget runs out and
/// the stranded commands expire, freeing their admission slots — the
/// availability counterpart of the fault-isolation observable.
#[test]
fn command_deadline_expires_commands_lost_to_a_dead_shard() {
    let faults = FaultSchedule::none().crash_member_at(SimTime::from_millis(100), MemberId(0));
    let mut cluster = Cluster::new(2, 3)
        .workload(poisson_workload(MESSAGES))
        .shard_faults(1, faults)
        .command_deadline(SimDuration::from_millis(50))
        .max_retries(1)
        .seed(SEED)
        .build();
    cluster.run_until(SimTime::from_secs(600));

    let loads = cluster.shard_loads();
    assert!(loads[1].expired > 0, "dead-shard commands must expire");
    assert!(
        loads.iter().all(|l| l.in_flight() == 0),
        "expiry returns the window to zero even though the shard is gone"
    );
    assert_eq!(
        loads.iter().map(|l| l.completed + l.expired).sum::<u64>(),
        MESSAGES
    );
    assert_eq!(loads[0].expired, 0, "the healthy shard lost nothing");
}
