//! Allocation guard for the payload path: how often a delivery still copies
//! its payload, counted where a copy cannot hide — at the allocator.
//!
//! Every copy of a payload lands in a fresh allocation at least as large as
//! the payload, so "allocations of ≥ 8 KiB per ordered delivery of a 10 KiB
//! payload" *is* the number of payload copies, plus nothing else of that
//! size in this system.  The counting allocator
//! (`fs_bench::alloc_count`) is installed for this test binary only.
//!
//! Measured on the simulator, NewTOP, 3 members, seed 2003, over the
//! steady-state window 0.8 s – 2.0 s of simulated time (the counts are
//! exact and repeat):
//!
//! | allocations per ordered delivery | before | now |
//! |---|---:|---:|
//! | FS, 10 KiB payloads, ≥ 8 KiB | 31.6 (contiguous frames) | 3.47 (915 / 264) |
//! | FS, 3 B payloads, any size | 87.8 | 31.4 (8 490 / 270) |
//! | crash, 10 KiB payloads, ≥ 8 KiB | 1.97 (a flattening host; 531 / 270) | 0.33 (90 / 270) |
//!
//! The FS ceilings are a quarter of the first "before" (7.9) and the second
//! as it was; the crash ceiling, 0.5, lies between the application's own
//! payload and one copy per delivery.
//!
//! On the crash path a frame goes from the application's request to every
//! member's upcall as it was encoded: the host hands the machine the frame
//! it received and sends the frames the machine produced, and `GcMachine`
//! splices the payload into `Data` and `Upcall::Deliver` by refcount.  What
//! remains is the application building its payload, one per multicast: a
//! third per ordered delivery.
//!
//! On the FS path the 3.47 that remain are, per multicast in a group of
//! three: the application building the payload (1), the request flattened
//! once where it enters the pair (1), and each wrapper flattening the frame
//! its machine spliced around the payload — `Data` at the origin,
//! `Upcall::Deliver` at every member, per replica and so twice per pair
//! (2 + 6) — because the output's digest and the external frame take one
//! contiguous buffer.  About ten per three ordered deliveries.

use fs_smr_suite::bench::alloc_count::{count_allocs, AllocCounts, CountingAlloc};
use fs_smr_suite::common::codec::Wire;
use fs_smr_suite::common::id::{MemberId, ProcessId};
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::common::{Bytes, Frame};
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
/// fail-signal [`steady_state`] made at 10 KiB with contiguous frames.
const PAYLOAD_COPIES_PER_DELIVERY_MAX: f64 = 7.9;

/// Half a payload-sized allocation per ordered delivery in the crash
/// protocol's [`steady_state`] at 10 KiB: above the application's own third,
/// below any copy per delivery (the flattening host made 1.97).
const CRASH_PAYLOAD_COPIES_PER_DELIVERY_MAX: f64 = 0.5;

/// The 87.8 allocations per ordered delivery the fail-signal
/// [`steady_state`] made at 3 B with contiguous frames.
const SMALL_ALLOCS_PER_DELIVERY_MAX: f64 = 87.8;

/// NewTOP under `protocol`, 3 members, one multicast per member every 40
/// simulated ms: ordered deliveries and allocations of the window 0.8 s –
/// 2.0 s, after the tables, memos and queues have reached their working
/// size.
fn steady_state(protocol: Protocol, payload: usize) -> (u64, AllocCounts) {
    let mut run = Scenario::new(NewTopService::new())
        .members(3)
        .protocol(protocol)
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
    let (deliveries, counts) = steady_state(Protocol::FailSignal, 10 * 1024);
    let per_delivery = counts.large_allocs as f64 / deliveries as f64;
    println!(
        "FS, 10 KiB: {} payload-sized allocations over {deliveries} deliveries = {per_delivery:.1} each",
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
    let (deliveries, counts) = steady_state(Protocol::FailSignal, 3);
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

/// The crash protocol's twin of the 10 KiB round: a frame travels from the
/// application's request to every member's upcall by refcount, so the only
/// payload-sized allocation left is the application building its payload,
/// one per multicast — a third per ordered delivery in a group of three.
#[test]
fn a_10k_crash_delivery_allocates_only_the_applications_payload() {
    let (deliveries, counts) = steady_state(Protocol::Crash, 10 * 1024);
    let per_delivery = counts.large_allocs as f64 / deliveries as f64;
    println!(
        "crash, 10 KiB: {} payload-sized allocations over {deliveries} deliveries = {per_delivery:.2} each",
        counts.large_allocs
    );
    assert!(
        per_delivery <= CRASH_PAYLOAD_COPIES_PER_DELIVERY_MAX,
        "{per_delivery:.2} payload-sized allocations per ordered delivery \
         (ceiling {CRASH_PAYLOAD_COPIES_PER_DELIVERY_MAX})"
    );
}

/// Member 0's NSO, with its failure detector plugged in so the pong check
/// runs on every frame, handles `data` — a 10 KiB `Data` from member 1 —
/// and acks it; the allocations it made doing so.
fn nso_handles(data: Frame) -> AllocCounts {
    let group: Vec<MemberId> = (0..3).map(MemberId).collect();
    // Member 0 is hosted at process 20 and serves the application at 10;
    // its peers are hosted at 11 and 12.
    let hosts: Arc<[ProcessId]> = Arc::new([ProcessId(20), ProcessId(11), ProcessId(12)]);
    let addresses = AddressMap::new(hosts, 1, MemberId(0), ProcessId(10));
    let spec = NewTopService::new().suspector(SuspectorConfig::large_timeouts());
    let mut nso = PlainHost::new(
        spec.machine(MemberId(0), &group),
        addresses,
        spec.failure_detector(),
    );
    let mut ctx = TestContext::new(ProcessId(20));
    let ((), counts) = count_allocs(PAYLOAD_SIZED, || {
        nso.on_message(&mut ctx, ProcessId(11), data);
    });
    // The message was handled: its ack went to both peers, and it awaits
    // the third member's ack.
    assert_eq!(ctx.sent.len(), 2);
    let gc: &dyn Any = nso.machine();
    let gc: &GcMachine = gc.downcast_ref().expect("a GC machine");
    assert_eq!(gc.message_counts().get("data"), Some(&1));
    assert!(counts.allocs > 0, "the counting allocator is installed");
    counts
}

/// A 10 KiB symmetric-order `Data` from member 1.
fn data_10k() -> GcMessage {
    GcMessage::Data {
        origin: MemberId(1),
        seq: 0,
        ts: 1,
        vc: vec![],
        service: ServiceKind::SymmetricTotal,
        payload: vec![7u8; 10 * 1024].into(),
    }
}

/// The crash path's host (the NewTOP service object, NSO) used to decode
/// every peer message in full — copying a `Data` payload — only to spot
/// pongs, before the machine decoded the same bytes again (a second copy).
/// Now the detector looks at the tag and the machine's decode hands out a
/// view: a 10 KiB `Data` costs no payload-sized allocation at all.
#[test]
fn nso_handles_a_10k_data_message_without_a_payload_sized_allocation() {
    let counts = nso_handles(data_10k().to_wire().into());
    assert_eq!(counts.large_allocs, 0, "{counts:?}");
}

/// The same message as a peer's encoder sends it — the payload spliced in
/// by refcount — and cut by hand into an empty first segment, the header
/// and the payload.  The host hands each to the machine as it is; none is
/// flattened.
#[test]
fn nso_handles_a_spliced_10k_data_message_without_a_payload_sized_allocation() {
    let spliced = data_10k().to_frame();
    assert!(!spliced.is_contiguous());
    let counts = nso_handles(spliced);
    assert_eq!(counts.large_allocs, 0, "spliced by the encoder: {counts:?}");

    let wire = data_10k().to_wire();
    let payload_at = wire.len() - 10 * 1024;
    let split = Frame::from_segments(
        Bytes::new(),
        wire.slice(..payload_at),
        wire.slice(payload_at..),
    );
    let counts = nso_handles(split);
    assert_eq!(counts.large_allocs, 0, "split by hand: {counts:?}");
}
