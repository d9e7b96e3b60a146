//! Criterion benchmark: end-to-end symmetric total-order latency of a small
//! group, NewTOP vs FS-NewTOP (a scaled-down Figure 6 point).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fs_bench::measure::{measure, RunMetrics};
use fs_common::time::SimDuration;
use fs_harness::{NewTopService, Protocol, Scenario, Workload};
use fs_newtop::suspector::SuspectorConfig;

fn point(protocol: Protocol, members: u32) -> RunMetrics {
    let scenario = Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled()))
        .members(members)
        .protocol(protocol);
    let workload = Workload::paper_default()
        .messages(20)
        .interval(SimDuration::from_millis(30));
    measure(scenario, &workload)
}

fn bench_order_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("order_latency_sim");
    group.sample_size(10);
    for members in [3u32, 5] {
        group.bench_with_input(BenchmarkId::new("newtop", members), &members, |b, &n| {
            b.iter(|| point(Protocol::Crash, n))
        });
        group.bench_with_input(BenchmarkId::new("fs_newtop", members), &members, |b, &n| {
            b.iter(|| point(Protocol::FailSignal, n))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_order_latency);
criterion_main!(benches);
