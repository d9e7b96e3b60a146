//! Allocation guard for the payload path: how often a delivery still copies
//! its payload, counted where a copy cannot hide — at the allocator.
//!
//! Every copy of a payload lands in a fresh allocation at least as large as
//! the payload, so "allocations of ≥ 8 KiB per ordered delivery of a 10 KiB
//! payload" *is* the number of payload copies, plus nothing else of that
//! size in this system.  The counting allocator
//! (`fs_bench::alloc_count`) is installed for this test binary only.
//!
//! Measured on the simulator, FS-NewTOP, 3 members, seed 2003, over the
//! steady-state window 0.8 s – 2.0 s of simulated time (266 ordered
//! deliveries at 10 KiB, 270 at 3 B; the counts are exact and repeat):
//!
//! | | parent commit (PR 13) | this change |
//! |---|---|---|
//! | 10 KiB payloads: allocations ≥ 8 KiB per ordered delivery | 31.6 (8 396) | 3.4 (900) |
//! | 3 B payloads: allocations (any size) per ordered delivery | 87.8 (23 703) | 84.0 (22 686) |
//!
//! The ceilings below are a quarter of the parent's first number (this file
//! compiles on the parent and fails there: 31.6 > 7.9) and the parent's
//! second number.  The 3.4 that remain are, per multicast in a group of
//! three: the application building the payload (1), the request flattened
//! once where it enters the pair (1), and each machine encoding a *new* byte
//! string around the payload — `Data` at the origin, `Upcall::Deliver` at
//! every member, per replica and so twice per pair (2 + 6).  Ten per three
//! ordered deliveries.

use fs_smr_suite::bench::alloc_count::{count_allocs, AllocCounts, CountingAlloc};
use fs_smr_suite::common::codec::Wire;
use fs_smr_suite::common::id::{MemberId, ProcessId};
use fs_smr_suite::common::time::{SimDuration, SimTime};
use std::any::Any;
use std::sync::Arc;

use fs_smr_suite::harness::{NewTopService, PlainHost, Protocol, Scenario, ServiceSpec, Workload};
use fs_smr_suite::newtop::gc::GcMachine;
use fs_smr_suite::newtop::message::{GcMessage, ServiceKind};
use fs_smr_suite::newtop::suspector::SuspectorConfig;
use fs_smr_suite::simnet::actor::{Actor, TestContext};
use fs_smr_suite::smr::machine::AddressMap;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An allocation this large holds a copy of a 10 KiB payload.
const PAYLOAD_SIZED: usize = 8 * 1024;

/// A quarter of the 31.6 payload-sized allocations per ordered delivery the
/// parent commit makes in [`steady_state`] at 10 KiB.
const PAYLOAD_COPIES_PER_DELIVERY_MAX: f64 = 7.9;

/// The 87.8 allocations per ordered delivery the parent commit makes in
/// [`steady_state`] at 3 B.
const SMALL_ALLOCS_PER_DELIVERY_MAX: f64 = 87.8;

/// FS-NewTOP, 3 members, one multicast per member every 40 simulated ms:
/// ordered deliveries and allocations of the window 0.8 s – 2.0 s, after
/// the tables, memos and queues have reached their working size.
fn steady_state(payload: usize) -> (u64, AllocCounts) {
    let mut run = Scenario::new(NewTopService::new())
        .members(3)
        .protocol(Protocol::FailSignal)
        .workload(
            Workload::paper_default()
                .payload_size(payload)
                .messages(60)
                .interval(SimDuration::from_millis(40)),
        )
        .seed(2003)
        .build();
    let delivered = |run: &mut fs_smr_suite::harness::Running| {
        run.delivery_logs().iter().map(Vec::len).sum::<usize>() as u64
    };
    run.run_until(SimTime::from_millis(800));
    let before = delivered(&mut run);
    let (_, counts) = count_allocs(PAYLOAD_SIZED, || {
        run.run_until(SimTime::from_millis(2_000));
    });
    let deliveries = delivered(&mut run) - before;
    assert!(deliveries >= 60, "a steady-state window, not {deliveries}");
    assert!(counts.allocs > 0, "the counting allocator is installed");
    (deliveries, counts)
}

#[test]
fn a_10k_delivery_copies_its_payload_a_quarter_as_often_as_the_parent() {
    let (deliveries, counts) = steady_state(10 * 1024);
    let per_delivery = counts.large_allocs as f64 / deliveries as f64;
    println!(
        "10 KiB: {} payload-sized allocations over {deliveries} deliveries = {per_delivery:.1} each",
        counts.large_allocs
    );
    assert!(
        per_delivery <= PAYLOAD_COPIES_PER_DELIVERY_MAX,
        "{per_delivery:.1} payload-sized allocations per ordered delivery \
         (ceiling {PAYLOAD_COPIES_PER_DELIVERY_MAX})"
    );
}

#[test]
fn a_3_byte_delivery_allocates_no_more_than_the_parent() {
    let (deliveries, counts) = steady_state(3);
    let per_delivery = counts.allocs as f64 / deliveries as f64;
    println!(
        "3 B: {} allocations over {deliveries} deliveries = {per_delivery:.1} each",
        counts.allocs
    );
    assert!(
        per_delivery <= SMALL_ALLOCS_PER_DELIVERY_MAX,
        "{per_delivery:.1} allocations per ordered delivery \
         (ceiling {SMALL_ALLOCS_PER_DELIVERY_MAX})"
    );
}

/// The crash path's host (the NewTOP service object, NSO) used to decode
/// every peer message in full — copying a `Data` payload — only to spot
/// pongs, before the machine decoded the same bytes again (a second copy).
/// Now the detector looks at the tag and the machine's decode hands out a
/// view: a 10 KiB `Data` costs no payload-sized allocation at all.
#[test]
fn nso_handles_a_10k_data_message_without_a_payload_sized_allocation() {
    let group: Vec<MemberId> = (0..3).map(MemberId).collect();
    // Member 0 is hosted at process 20 and serves the application at 10;
    // its peers are hosted at 11 and 12.
    let hosts: Arc<[ProcessId]> = Arc::new([ProcessId(20), ProcessId(11), ProcessId(12)]);
    let addresses = AddressMap::new(hosts, 1, MemberId(0), ProcessId(10));
    // The detector is plugged in, so the pong check runs on the frame.
    let spec = NewTopService::new().suspector(SuspectorConfig::large_timeouts());
    let mut nso = PlainHost::new(
        spec.machine(MemberId(0), &group),
        addresses,
        spec.failure_detector(),
    );
    let mut ctx = TestContext::new(ProcessId(20));
    let data = GcMessage::Data {
        origin: MemberId(1),
        seq: 0,
        ts: 1,
        vc: vec![],
        service: ServiceKind::SymmetricTotal,
        payload: vec![7u8; 10 * 1024].into(),
    }
    .to_wire();
    let ((), counts) = count_allocs(PAYLOAD_SIZED, || {
        nso.on_message(&mut ctx, ProcessId(11), data.into());
    });
    // The message was handled: its ack went to both peers, and it awaits
    // the third member's ack.
    assert_eq!(ctx.sent.len(), 2);
    let gc: &dyn Any = nso.machine();
    let gc: &GcMachine = gc.downcast_ref().expect("a GC machine");
    assert_eq!(gc.message_counts().get("data"), Some(&1));
    assert!(counts.allocs > 0, "the counting allocator is installed");
    assert_eq!(counts.large_allocs, 0, "{counts:?}");
}
