//! Determinism regression: a simulator-backed scenario is a deterministic
//! function of its `Scenario` axes.  Two runs built from identical axes must
//! produce byte-identical delivery logs, byte-identical serialized trace
//! output, and identical network statistics — requirement R1 lifted from the
//! single GC machine to the full system, for every service the harness
//! deploys.

use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::harness::{
    FaultSchedule, NewTopService, Protocol, Running, Scenario, ServiceSpec, SmrKvService, Workload,
};
use fs_smr_suite::simnet::sched::SchedulerKind;
use fs_smr_suite::simnet::trace::NetStats;

/// One full run: per-member delivery logs, the serialized trace, and the
/// aggregate network statistics.
struct RunFingerprint {
    delivery_logs: Vec<Vec<(u32, u64)>>,
    trace_json: String,
    stats: NetStats,
}

fn fingerprint(mut run: Running) -> RunFingerprint {
    let delivery_logs = run
        .delivery_logs()
        .into_iter()
        .map(|log| log.into_iter().map(|(m, s)| (m.0, s)).collect())
        .collect();
    let trace_json = serde_json::to_string(run.trace().expect("tracing enabled")).unwrap();
    let stats = run.stats();
    RunFingerprint {
        delivery_logs,
        trace_json,
        stats,
    }
}

fn run_scenario(scenario: Scenario) -> RunFingerprint {
    let mut run = scenario.build();
    run.enable_trace();
    run.run_until(SimTime::from_secs(120));
    fingerprint(run)
}

/// The network fault plane is part of the deterministic event schedule: a
/// scheduled partition-then-heal run must be byte-identical across repeats
/// *and* across future-event-set schedulers, with the fault timeline and the
/// induced drops recorded in the trace and the statistics.
#[test]
fn scheduled_partition_and_heal_traces_are_byte_identical_across_schedulers() {
    use fs_smr_suite::common::id::MemberId;

    let build = |scheduler: SchedulerKind| {
        // Spread the workload so traffic crosses the partition window
        // (2 s .. 4 s) while member 0 is cut off from members 1 and 2.
        let workload = Workload::paper_default()
            .messages(10)
            .interval(SimDuration::from_millis(400));
        let faults = FaultSchedule::none()
            .partition_at(
                SimTime::from_secs(2),
                &[MemberId(0)],
                &[MemberId(1), MemberId(2)],
            )
            .heal_at(
                SimTime::from_secs(4),
                &[MemberId(0)],
                &[MemberId(1), MemberId(2)],
            );
        run_scenario(
            Scenario::new(NewTopService::new())
                .members(3)
                .protocol(Protocol::FailSignal)
                .workload(workload)
                .faults(faults)
                .scheduler(scheduler),
        )
    };

    let calendar_a = build(SchedulerKind::CalendarQueue);
    let calendar_b = build(SchedulerKind::CalendarQueue);
    let legacy = build(SchedulerKind::LegacyHeap);

    // The partition actually did something observable.
    assert_eq!(calendar_a.stats.link_faults, 2, "sever + heal executed");
    assert!(
        calendar_a.stats.dropped_link > 0,
        "traffic crossed the partition window"
    );
    assert!(
        calendar_a.trace_json.contains("LinkFault"),
        "fault timeline recorded in the trace"
    );

    // Byte-identical across repeats and across schedulers.
    assert_eq!(calendar_a.delivery_logs, calendar_b.delivery_logs);
    assert_eq!(calendar_a.trace_json, calendar_b.trace_json);
    assert_eq!(calendar_a.stats, calendar_b.stats);
    assert_eq!(calendar_a.delivery_logs, legacy.delivery_logs);
    assert_eq!(
        calendar_a.trace_json, legacy.trace_json,
        "fault-plane traces must not depend on the scheduler"
    );
    assert_eq!(calendar_a.stats, legacy.stats);
}

/// The open-loop load plane is part of the deterministic schedule: a Poisson
/// arrival process with admission control and request batching draws its
/// inter-arrival gaps from the deterministic RNG, so two runs built from
/// identical axes are byte-identical — and changing only the arrival seed
/// changes the schedule without breaking agreement.
#[test]
fn poisson_open_loop_runs_are_byte_identical() {
    let build = |arrival_seed: u64| {
        let workload = Workload::paper_default()
            .messages(8)
            .interval(SimDuration::from_millis(10))
            .poisson()
            .arrival_seed(arrival_seed)
            .clients(2)
            .max_in_flight(2)
            .batch_max(3)
            .batch_linger(SimDuration::from_millis(5));
        run_scenario(
            Scenario::new(NewTopService::new())
                .members(3)
                .protocol(Protocol::FailSignal)
                .workload(workload),
        )
    };

    let a = build(7);
    let b = build(7);
    // The tight in-flight bound sheds a few bursty Poisson arrivals, so the
    // log holds at most 3 members x 8 messages — deterministically.
    assert!(
        !a.delivery_logs[0].is_empty() && a.delivery_logs[0].len() <= 24,
        "unexpected delivery count {}",
        a.delivery_logs[0].len()
    );
    for log in &a.delivery_logs[1..] {
        assert_eq!(log, &a.delivery_logs[0], "members agree on the total order");
    }
    assert_eq!(
        a.delivery_logs, b.delivery_logs,
        "Poisson delivery logs must be byte-identical under a fixed seed"
    );
    assert_eq!(
        a.trace_json, b.trace_json,
        "Poisson traces must be byte-identical under a fixed seed"
    );
    assert_eq!(a.stats, b.stats);

    let reseeded = build(8);
    for log in &reseeded.delivery_logs[1..] {
        assert_eq!(log, &reseeded.delivery_logs[0]);
    }
    assert_ne!(
        a.trace_json, reseeded.trace_json,
        "a different arrival seed must draw different inter-arrival gaps"
    );
}

/// Batching is a framing optimisation, not a semantic change: with a single
/// sender, a batched run and an unbatched run of either service apply the
/// identical command sequence (every member, same delivery log).
#[test]
fn batched_and_unbatched_scenarios_deliver_the_same_commands() {
    fn logs(service: impl ServiceSpec + 'static, batch_max: u32) -> Vec<Vec<(u32, u64)>> {
        let workload = Workload::paper_default()
            .messages(6)
            .interval(SimDuration::from_millis(20))
            .senders(1)
            .batch_max(batch_max)
            .batch_linger(SimDuration::from_millis(8));
        run_scenario(
            Scenario::new(service)
                .members(3)
                .protocol(Protocol::FailSignal)
                .workload(workload),
        )
        .delivery_logs
    }

    for batch_max in [4, 6] {
        let batched = logs(NewTopService::new(), batch_max);
        let unbatched = logs(NewTopService::new(), 1);
        assert_eq!(unbatched[0].len(), 6, "single sender, 6 commands");
        assert_eq!(
            batched, unbatched,
            "NewTOP batch_max={batch_max} must deliver the unbatched sequence"
        );

        let batched = logs(SmrKvService::new(), batch_max);
        let unbatched = logs(SmrKvService::new(), 1);
        assert_eq!(unbatched[0].len(), 6);
        assert_eq!(
            batched, unbatched,
            "sequenced-KV batch_max={batch_max} must deliver the unbatched sequence"
        );
    }
}
