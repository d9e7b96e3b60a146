//! Sharded-cluster demo: two independent replicated KV groups behind one
//! key-partitioning client router, for both protocols.
//!
//! Each command is keyed, routed to the shard owning the key, ordered by
//! that shard's sequencer, and acknowledged back to the router once it is
//! applied — so the printout shows *aggregate* capacity composed out of the
//! paper's per-group cost model, plus a multi-shard snapshot: one
//! consistent cut per shard (see `fs_harness::cluster` for the exact
//! contract).
//!
//! Run with:
//! ```text
//! cargo run --release --example cluster_demo
//! ```

use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::harness::{Cluster, Protocol, Workload};

const MESSAGES: u64 = 60;
const SHARDS: u32 = 2;

fn main() {
    println!("protocol     shard  submitted  completed  p50 (ms)   frontier");
    for protocol in [Protocol::Crash, Protocol::FailSignal] {
        let mut cluster = Cluster::new(SHARDS, 3)
            .protocol(protocol)
            .workload(
                Workload::paper_default()
                    .messages(MESSAGES)
                    .interval(SimDuration::from_millis(5))
                    .poisson(),
            )
            .seed(2003)
            .snapshot_at(SimTime::from_millis(200))
            .build();
        cluster.run_until(SimTime::from_secs(300));

        // Every shard's members hold the same log and state.
        cluster.check().expect("a fault-free cluster is correct");
        let router = cluster.router();
        assert_eq!(router.completed(), MESSAGES, "every command completed");
        let snapshots = router.snapshots();
        assert_eq!(snapshots.len(), 1, "the scheduled snapshot assembled");
        let snapshot = &snapshots[0];

        for shard in 0..SHARDS {
            let load = router.shard_loads()[shard as usize];
            let p50 = router
                .shard_latencies(shard)
                .and_then(|l| l.summary())
                .map(|s| s.p50.as_nanos() as f64 / 1e6)
                .unwrap_or(0.0);
            let frontier = snapshot.shards[shard as usize];
            println!(
                "{:<12} {:>5} {:>10} {:>10} {:>9.2}   applied={} keys={}",
                format!("{protocol:?}"),
                shard,
                load.submitted,
                load.completed,
                p50,
                frontier.applied,
                frontier.keys,
            );
        }
    }
    println!("\nevery routed command ordered, applied and acknowledged on its own shard");
}
