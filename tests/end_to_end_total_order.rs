//! Workspace-level integration tests: end-to-end total ordering through the
//! `Scenario` harness on the simulator (both protocols) and on the real
//! threaded runtime, exercising the whole stack from application payload to
//! delivery.  NewTOP and SMR-KV groups of every size, under both
//! protocols, are the sweeper's `Clean` family (`tests/sweep.rs`).

use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::harness::{
    NewTopService, Protocol, Running, RuntimeKind, Scenario, ServiceSpec, Workload,
};
use fs_smr_suite::newtop::suspector::SuspectorConfig;
use fs_smr_suite::newtop::ServiceKind;

fn quick_workload(messages: u64) -> Workload {
    Workload::paper_default()
        .messages(messages)
        .interval(SimDuration::from_millis(25))
}

fn sim_scenario(
    service: impl ServiceSpec + 'static,
    members: u32,
    protocol: Protocol,
    messages: u64,
) -> Running {
    let mut run = Scenario::new(service)
        .members(members)
        .protocol(protocol)
        .workload(quick_workload(messages))
        .build();
    run.run_until(SimTime::from_secs(3_000));
    run
}

#[test]
fn fs_newtop_asymmetric_and_causal_services_work_end_to_end() {
    for service in [
        ServiceKind::AsymmetricTotal,
        ServiceKind::Causal,
        ServiceKind::Reliable,
    ] {
        let mut run = sim_scenario(
            NewTopService::new().service_kind(service),
            3,
            Protocol::FailSignal,
            4,
        );
        assert_eq!(
            run.check().unwrap().len(),
            12,
            "every member must see all {service:?} deliveries"
        );
    }
}

/// Regression (the checker's first catch): under the collapsed layout a
/// lossy member link also carries pair-internal and pair-to-application
/// frames.  A pair whose follower's share was lost never validates on the
/// leader, and the follower's copy of the upcall can be lost on its way to
/// the application while the next upcall gets through, so the application
/// must hand upcalls up in the GC's order and stop at a hole.
#[test]
fn fs_newtop_keeps_one_order_under_link_loss() {
    use fs_smr_suite::common::id::MemberId;
    use fs_smr_suite::harness::FaultSchedule;
    let loss = FaultSchedule::none().lossy_link(
        SimTime::from_millis(200),
        MemberId(0),
        MemberId(1),
        0.005,
    );
    let mut run = Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled()))
        .members(2)
        .seed(2003)
        .faults(loss)
        .workload(quick_workload(20).interval(SimDuration::from_millis(40)))
        .build();
    run.run_until(SimTime::from_secs(3_000));
    assert!(
        run.fail_signalled(),
        "the loss must reach a pair's own link"
    );
    run.check().unwrap();
}

#[test]
fn full_and_collapsed_layouts_use_the_expected_node_counts() {
    use fs_smr_suite::harness::PairLayout;
    let build = |protocol: Protocol, layout: PairLayout| {
        Scenario::new(NewTopService::new())
            .members(3)
            .protocol(protocol)
            .layout(layout)
            .workload(quick_workload(1))
            .build()
    };
    let full = build(Protocol::FailSignal, PairLayout::Full);
    let collapsed = build(Protocol::FailSignal, PairLayout::Collapsed);
    let crash = build(Protocol::Crash, PairLayout::Collapsed);
    // Figure 4: 2 nodes per member (4f + 2 with n = 2f + 1); Figure 5: one
    // node per member; crash-tolerant baseline: one node per member.
    assert_eq!(full.sim().unwrap().node_count(), 6);
    assert_eq!(collapsed.sim().unwrap().node_count(), 3);
    assert_eq!(crash.sim().unwrap().node_count(), 3);
    // FS-NewTOP runs four processes per member (app, interceptor, two
    // wrappers); NewTOP runs two.
    assert_eq!(full.sim().unwrap().actor_count(), 12);
    assert_eq!(crash.sim().unwrap().actor_count(), 6);
}

#[test]
fn newtop_runs_on_the_real_threaded_runtime() {
    // Three members on real threads: the same scenario with the runtime
    // axis flipped.  The workload itself lasts ~50 ms of real time; the
    // horizon gives the group a generous, fixed settling window before the
    // first inspection shuts the runtime down.
    let members = 3u32;
    let messages = 5u64;
    let mut run = Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled()))
        .members(members)
        .protocol(Protocol::Crash)
        .runtime(RuntimeKind::Threaded)
        .workload(quick_workload(messages).interval(SimDuration::from_millis(10)))
        .seed(5)
        .build();
    run.run_until(SimTime::from_secs(4));
    assert_eq!(
        run.check().unwrap().len() as u64,
        u64::from(members) * messages
    );
}
