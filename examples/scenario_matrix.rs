//! The scenario matrix in one screen: sweep *protocol × runtime × workload*
//! (and both services) through the `Scenario` harness, asserting agreement
//! in every cell — the "handles as many scenarios as you can imagine" demo.
//!
//! Run with:
//! ```text
//! cargo run --release --example scenario_matrix
//! ```

use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::harness::{
    NewTopService, Protocol, RuntimeKind, Scenario, SmrKvService, Workload,
};
use fs_smr_suite::newtop::suspector::SuspectorConfig;

fn scenario(service: &str) -> Scenario {
    match service {
        "newtop" => Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled())),
        _ => Scenario::new(SmrKvService::new()),
    }
}

fn main() {
    println!("service   protocol    runtime   workload      deliveries  agreement");
    for service_name in ["newtop", "smr-kv"] {
        for protocol in [Protocol::Crash, Protocol::FailSignal] {
            for runtime in [RuntimeKind::Sim, RuntimeKind::Threaded] {
                for (label, messages) in [("3 msgs", 3u64), ("6 msgs", 6)] {
                    let workload = Workload::quick(messages).interval(SimDuration::from_millis(8));
                    let mut run = scenario(service_name)
                        .members(3)
                        .protocol(protocol)
                        .runtime(runtime)
                        .workload(workload)
                        .build();
                    // 1 simulated second = 1 wall-clock second on threads; the
                    // workload itself lasts well under a second, but shared CI
                    // runners can stall, so give real clocks the same 4 s
                    // settling margin the integration tests use.
                    run.run_until(SimTime::from_secs(match runtime {
                        RuntimeKind::Sim => 300,
                        RuntimeKind::Threaded => 4,
                    }));
                    let agreed = run.check().unwrap_or_else(|violations| {
                        panic!("{service_name}/{protocol:?}/{runtime:?}: {violations:?}")
                    });
                    assert_eq!(agreed.len() as u64, 3 * messages, "incomplete delivery");
                    // Every cell reports network statistics — the stats
                    // contract is uniform across the whole matrix.
                    let stats = run.stats();
                    assert!(
                        stats.messages_sent > 0 && stats.messages_delivered > 0,
                        "missing stats in {service_name}/{protocol:?}/{runtime:?}"
                    );
                    println!(
                        "{:<9} {:<11} {:<9} {:<13} {:>10}  ok",
                        run.service_name(),
                        format!("{protocol:?}"),
                        format!("{runtime:?}"),
                        label,
                        agreed.len(),
                    );
                }
            }
        }
    }
    println!("\nevery cell of the matrix ordered and agreed ✓");
}
