//! The cost of swapping crash tolerance for authenticated Byzantine
//! tolerance, in one picture: a single Figure-6-style measurement point plus
//! the node-budget arithmetic of the paper's cost analysis.
//!
//! Run with:
//! ```text
//! cargo run --release --example crash_vs_byzantine_cost
//! ```

use fs_smr_suite::bench::measure::{label, measure};
use fs_smr_suite::common::time::SimDuration;
use fs_smr_suite::common::NodeBudget;
use fs_smr_suite::harness::{NewTopService, Protocol, Scenario, Workload};
use fs_smr_suite::newtop::suspector::SuspectorConfig;

fn main() {
    println!("== crash tolerance vs authenticated Byzantine tolerance ==\n");

    println!("space cost (nodes needed to mask f Byzantine faults):");
    println!(
        "{:>3} {:>14} {:>14} {:>14}",
        "f", "2f+1 replicas", "FS: 4f+2", "classical 3f+1"
    );
    for f in 1..=3 {
        let b = NodeBudget::new(f);
        println!(
            "{f:>3} {:>14} {:>14} {:>14}",
            b.application_replicas(),
            b.fail_signal_nodes(),
            b.classical_bft_nodes()
        );
    }

    println!("\ntime cost (one measurement point of Figure 6, group of 5):");
    let workload = Workload::paper_default()
        .messages(40)
        .interval(SimDuration::from_millis(40));
    let point = |protocol| {
        let scenario = Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled()))
            .members(5)
            .protocol(protocol);
        measure(scenario, &workload)
    };
    let newtop = point(Protocol::Crash);
    let fs = point(Protocol::FailSignal);

    for (protocol, m) in [(Protocol::Crash, &newtop), (Protocol::FailSignal, &fs)] {
        println!(
            "  {:<10} latency mean {:>8.1} ms, p95 {:>8.1} ms, throughput {:>7.1} msg/s, middleware messages {}",
            label(protocol),
            m.mean_latency_ms,
            m.p95_latency_ms,
            m.throughput_msgs_per_sec,
            m.middleware_messages
        );
    }
    println!(
        "\nfail-signal overhead: {:+.0}% latency, {:+.0}% messages — the price of never having to guess timeouts.",
        (fs.mean_latency_ms / newtop.mean_latency_ms - 1.0) * 100.0,
        (fs.middleware_messages as f64 / newtop.middleware_messages as f64 - 1.0) * 100.0
    );
}
