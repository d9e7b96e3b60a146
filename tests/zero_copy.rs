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
//! | allocations per ordered delivery | contiguous frames | flattening FS host | now |
//! |---|---:|---:|---:|
//! | FS, 10 KiB payloads, ≥ 8 KiB | 31.6 | 3.47 (915 / 264) | 0.42 (111 / 264) |
//! | FS, 3 B payloads, any size | 87.8 | 31.4 (8 490 / 270) | 31.4 (8 490 / 270) |
//! | crash, 10 KiB payloads, ≥ 8 KiB | 1.97 (531 / 270) | — | 0.33 (90 / 270) |
//!
//! Of the FS 111, 90 are the application's payloads (1 per multicast, as
//! on the crash path) and 21 are tables doubling past 8 KiB in the window,
//! none of them a payload: 12 are the six wrappers' `seen_inputs` sets
//! (256 and then 512 entries of 40 bytes), the rest the simulator's and
//! the digest memo's tables.
//!
//! Both 10 KiB ceilings are 0.5: between the application's own payload —
//! a third per ordered delivery in a group of three — and one copy per
//! delivery.  The 3 B ceiling is the contiguous-frame count, as it was.
//!
//! On both paths a frame goes from the application's request to every
//! member's upcall as it was encoded, and what remains is the application
//! building its payload, one per multicast.  On the crash path the host
//! hands the machine the frame it received and sends the frames the
//! machine produced, and `GcMachine` splices the payload into `Data` and
//! `Upcall::Deliver` by refcount.  On the fail-signal path the interceptor
//! wraps the request around the application's frame, the wrappers hand the
//! machine the sub-frame an envelope carries, digest, compare and transmit
//! each output rope as it is, and the interceptor hands the application the
//! sub-frame of its upcall: no layer flattens a payload.  (The flattening
//! FS host made 3.47: each wrapper flattened every output its machine
//! spliced, `Data` at the origin and `Upcall::Deliver` at every member, per
//! replica, and the interceptor flattened every request — about ten copies
//! per three ordered deliveries.)

use fs_smr_suite::bench::alloc_count::{count_allocs, AllocCounts, CountingAlloc};
use fs_smr_suite::common::codec::Wire;
use fs_smr_suite::common::id::{FsId, MemberId, ProcessId};
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::common::{Bytes, Frame};
use std::any::Any;
use std::sync::Arc;

use fs_smr_suite::crypto::cost::CryptoCostModel;
use fs_smr_suite::crypto::keys::{provision, SignerId};
use fs_smr_suite::crypto::sha256::{blocks_compressed, Sha256};
use fs_smr_suite::failsignal::digest::body_digest;
use fs_smr_suite::failsignal::message::{FsContent, FsOutput, FsoInbound};
use fs_smr_suite::failsignal::provision::{FsPairBuilder, FsPairSpec};
use fs_smr_suite::harness::{NewTopService, PlainHost, Protocol, Scenario, ServiceSpec, Workload};
use fs_smr_suite::newtop::gc::GcMachine;
use fs_smr_suite::newtop::message::{GcMessage, ServiceKind};
use fs_smr_suite::newtop::suspector::SuspectorConfig;
use fs_smr_suite::simnet::actor::{Actor, Outgoing, TestContext};
use fs_smr_suite::smr::machine::{AddressMap, Endpoint};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An allocation this large holds a copy of a 10 KiB payload.
const PAYLOAD_SIZED: usize = 8 * 1024;

/// Half a payload-sized allocation per ordered delivery in the fail-signal
/// [`steady_state`] at 10 KiB: above the application's own third, below
/// any copy per delivery (the flattening FS host made 3.47).
const PAYLOAD_COPIES_PER_DELIVERY_MAX: f64 = 0.5;

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

/// A frame travels from the application's request through the interceptor,
/// both wrappers of every pair and their machines to every member's upcall
/// by refcount: the one payload-sized allocation left is the application
/// building its payload, as on the crash path.
#[test]
fn a_10k_fs_delivery_allocates_only_the_applications_payload() {
    let (deliveries, counts) = steady_state(Protocol::FailSignal, 10 * 1024);
    let per_delivery = counts.large_allocs as f64 / deliveries as f64;
    println!(
        "FS, 10 KiB: {} payload-sized allocations over {deliveries} deliveries = {per_delivery:.2} each",
        counts.large_allocs
    );
    assert!(
        per_delivery <= PAYLOAD_COPIES_PER_DELIVERY_MAX,
        "{per_delivery:.2} payload-sized allocations per ordered delivery \
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

/// The wrappers of member 0's pair (FS process 0), its local process, and
/// member 1's pair, which sends it a `Data`.
const LEADER: ProcessId = ProcessId(20);
const FOLLOWER: ProcessId = ProcessId(21);
const LOCAL: ProcessId = ProcessId(10);
const PEER_LEADER: ProcessId = ProcessId(22);
const PEER_FOLLOWER: ProcessId = ProcessId(23);

/// Member 0 of a group of three as a fail-signal pair around two GC
/// replicas receives `data`, a `Data` from member 1, double-signed by
/// member 1's pair and spliced into its envelope, at both wrappers; the
/// pair then orders it, runs both machines, compares the `Deliver` upcall
/// they produce and transmits it to the local process.  The allocations
/// the two wrappers made doing all that.
fn pair_handles(data: &GcMessage) -> AllocCounts {
    let group: Vec<MemberId> = (0..3).map(MemberId).collect();
    let mut rng = DetRng::new(7);
    let (mut keys, directory) = provision([LEADER, FOLLOWER, PEER_LEADER, PEER_FOLLOWER], &mut rng);
    let mut key = |p: ProcessId| keys.remove(&SignerId(p)).expect("provisioned");
    let (leader_key, follower_key) = (key(LEADER), key(FOLLOWER));
    let signed = FsOutput::sign(
        FsId(1),
        FsContent::Output {
            output_seq: 0,
            dest: Endpoint::Broadcast,
            bytes: data.to_wire(),
        },
        &key(PEER_LEADER),
        &key(PEER_FOLLOWER),
    );
    let envelope = FsoInbound::External(signed).to_frame();
    assert!(!envelope.is_contiguous(), "the Data is spliced in");

    let speakers: Arc<[ProcessId]> = Arc::new([
        LEADER,
        FOLLOWER,
        PEER_LEADER,
        PEER_FOLLOWER,
        ProcessId(24),
        ProcessId(25),
    ]);
    let spec = NewTopService::new();
    let (mut leader, mut follower) = FsPairBuilder::new(FsPairSpec::new(FsId(0), LEADER, FOLLOWER))
        .crypto_costs(CryptoCostModel::free())
        .addresses(AddressMap::new(speakers, 2, MemberId(0), LOCAL))
        .build(
            leader_key,
            follower_key,
            directory,
            (
                spec.machine(MemberId(0), &group),
                spec.machine(MemberId(0), &group),
            ),
        );
    let (mut leader_ctx, mut follower_ctx) = (TestContext::new(LEADER), TestContext::new(FOLLOWER));
    let mut upcalls = Vec::new();
    let ((), counts) = count_allocs(PAYLOAD_SIZED, || {
        leader.on_message(&mut leader_ctx, PEER_LEADER, envelope.clone());
        follower.on_message(&mut follower_ctx, PEER_LEADER, envelope);
        // Pair traffic until nothing is in flight.
        loop {
            let sent: Vec<(ProcessId, Outgoing)> = leader_ctx
                .take_sent()
                .into_iter()
                .map(|o| (LEADER, o))
                .chain(follower_ctx.take_sent().into_iter().map(|o| (FOLLOWER, o)))
                .collect();
            if sent.is_empty() {
                break;
            }
            for (from, Outgoing { to, payload }) in sent {
                match to {
                    FOLLOWER => follower.on_message(&mut follower_ctx, from, payload),
                    LEADER => leader.on_message(&mut leader_ctx, from, payload),
                    _ => upcalls.push((to, payload)),
                }
            }
        }
    });
    // Both replicas delivered the `Data` and the pair agreed on it: each
    // wrapper transmitted the double-signed upcall to the local process.
    for wrapper in [&leader, &follower] {
        assert!(!wrapper.has_failed(), "{wrapper:?}");
        assert_eq!(wrapper.stats().outputs_validated, 1, "{wrapper:?}");
    }
    assert_eq!(upcalls.iter().filter(|(to, _)| *to == LOCAL).count(), 2);
    assert!(counts.allocs > 0, "the counting allocator is installed");
    counts
}

/// A 10 KiB unreliable-multicast `Data` from member 1: delivered on
/// receipt, so the pair's machines answer it with a `Deliver` upcall
/// carrying the payload.
fn unreliable_data_10k() -> GcMessage {
    GcMessage::Data {
        origin: MemberId(1),
        seq: 0,
        ts: 1,
        vc: vec![],
        service: ServiceKind::Unreliable,
        payload: vec![7u8; 10 * 1024].into(),
    }
}

/// A wrapper hands its machine the `Data` the envelope carries, digests,
/// signs and compares the `Deliver` rope its machine spliced around the
/// payload, and splices that rope into the upcall's envelope: no
/// payload-sized allocation anywhere in the pair (the flattening wrappers
/// made one per replica).
#[test]
fn a_pair_orders_compares_and_transmits_a_10k_upcall_without_a_payload_sized_allocation() {
    let counts = pair_handles(&unreliable_data_10k());
    assert_eq!(counts.large_allocs, 0, "{counts:?}");
}

/// The second of two replicas' outputs around one shared 10 KiB payload is
/// a content hit of the digest memo that compares only the bytes the two
/// ropes hold apart: no block compressed, nothing payload-sized allocated.
#[test]
fn a_content_hit_on_ropes_sharing_a_payload_hashes_nothing_and_copies_nothing() {
    let payload = Bytes::from(vec![9u8; 10 * 1024]);
    let rope = || {
        let around = Bytes::from(vec![1u8; 48]);
        Frame::from_segments(around.slice(..40), payload.clone(), around.slice(40..))
    };
    let (leader, follower) = (rope(), rope());
    let expected = body_digest(&leader);
    let before = blocks_compressed();
    let (digest, counts) = count_allocs(PAYLOAD_SIZED, || body_digest(&follower));
    assert_eq!(blocks_compressed() - before, 0, "a content hit");
    assert_eq!(counts.large_allocs, 0, "{counts:?}");
    assert_eq!(digest, expected);
    assert_eq!(digest, Sha256::digest(&follower.to_vec()));
}
