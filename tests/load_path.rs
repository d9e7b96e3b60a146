//! One description of load, one generator: the same `Workload` driven
//! through each of the three actors that own a `simnet::load::LoadGen` —
//! the NewTOP application process, the sequenced-KV driver and the cluster
//! router — must balance its books the same way.

use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::harness::{
    Admission, Cluster, NewTopService, Protocol, Scenario, SmrKvService, Workload,
};

/// Gated, batched, open-loop: whatever sits between the generator and the
/// ordering service, at quiescence every offered request was submitted,
/// every submitted one completed, and each completion left one latency
/// sample.
#[test]
fn one_workload_balances_through_every_generator() {
    let workload = Workload::paper_default()
        .messages(40)
        .interval(SimDuration::from_millis(2))
        .poisson()
        .max_in_flight(2)
        .admission(Admission::Block)
        .batch_max(4);
    let horizon = SimTime::from_secs(600);
    let through_drivers = |scenario: Scenario| {
        let mut run = scenario
            .protocol(Protocol::Crash)
            .workload(workload)
            .build();
        run.run_until(horizon);
        (run.load_stats(), run.latencies().len(), 3 * 40)
    };
    let through_router = || {
        let mut cluster = Cluster::new(2, 3).workload(workload).build();
        cluster.run_until(horizon);
        let router = cluster.router();
        (router.load_stats(), router.latencies().len(), 40)
    };
    let table = [
        (
            "AppProcess",
            through_drivers(Scenario::new(NewTopService::new())),
        ),
        (
            "SmrDriver",
            through_drivers(Scenario::new(SmrKvService::new())),
        ),
        ("ClusterRouter", through_router()),
    ];
    for (generator, (stats, samples, offered)) in table {
        assert_eq!(stats.offered, offered, "{generator}: every arrival offered");
        assert!(stats.blocked > 0, "{generator}: the gate must have closed");
        assert_eq!(
            stats.offered,
            stats.submitted + stats.shed,
            "{generator}: nothing still blocked"
        );
        assert_eq!(stats.shed, 0, "{generator}: blocking sheds nothing");
        assert_eq!(stats.completed, stats.submitted, "{generator}");
        assert_eq!(
            samples as u64, stats.completed,
            "{generator}: one sample each"
        );
    }
}
