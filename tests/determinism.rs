//! Batching is a framing optimisation, not a semantic change.
//!
//! That a simulator-backed scenario is a deterministic function of its
//! `Scenario` axes — byte-identical delivery logs, trace and network
//! statistics on every repeat and on either scheduler, under partitions,
//! Poisson arrivals and batching — is `tests/sweep.rs`'s job: it replays
//! every drawn scenario on the legacy heap and requires every seed to trace
//! differently from every other.

use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::harness::{
    NewTopService, Protocol, Scenario, ServiceSpec, SmrKvService, Workload,
};

/// Per-member delivery logs of one run.
fn run_scenario(scenario: Scenario) -> Vec<Vec<(u32, u64)>> {
    let mut run = scenario.build();
    run.run_until(SimTime::from_secs(120));
    run.delivery_logs()
        .into_iter()
        .map(|log| log.into_iter().map(|(m, s)| (m.0, s)).collect())
        .collect()
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
