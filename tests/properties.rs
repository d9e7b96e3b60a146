//! Property-based tests over the core invariants:
//!
//! * total-order agreement of the GC machines under arbitrary multicast
//!   interleavings;
//! * byte-exact determinism of the GC machine (requirement R1);
//! * replica convergence of the application state machines;
//! * round-trip correctness of the wire codecs and the hash/authenticator
//!   primitives.

use proptest::prelude::*;

use fs_smr_suite::common::codec::Wire;
use fs_smr_suite::common::id::{FsId, MemberId, ProcessId};
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::common::Bytes;
use fs_smr_suite::crypto::hmac::{HmacKey, HmacSha256};
use fs_smr_suite::crypto::keys::{provision, SignerId};
use fs_smr_suite::crypto::sha256::Sha256;
use fs_smr_suite::crypto::sig::Signature;
use fs_smr_suite::failsignal::message::{FsContent, FsOutput, FsoInbound, PairMessage};
use fs_smr_suite::newtop::gc::{GcConfig, GcCosts, GcMachine};
use fs_smr_suite::newtop::message as newtop_msg;
use fs_smr_suite::newtop::message::{AppRequest, GcMessage, ServiceKind};
use fs_smr_suite::simnet::actor::{Actor, Context, TimerId};
use fs_smr_suite::simnet::node::NodeConfig;
use fs_smr_suite::simnet::sched::SchedulerKind;
use fs_smr_suite::simnet::sim::Simulation;
use fs_smr_suite::smr::command::{KvCommand, KvStore};
use fs_smr_suite::smr::machine::{DeterministicMachine, Endpoint, MachineInput, MachineOutput};
use fs_smr_suite::smr::replica::{Replica, Request};
use fs_smr_suite::smr::RequestId;

/// A bounded, deterministic workload actor for the scheduler differential
/// test: sends random-sized messages to random peers, arms and occasionally
/// cancels timers, and charges random CPU — exercising every event kind the
/// simulator schedules (starts, deliveries, timers, stale timers).
struct Chatter {
    peers: Vec<fs_smr_suite::common::id::ProcessId>,
    sends_left: u32,
}

impl Actor for Chatter {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let delay = SimDuration::from_micros(ctx.rng().below(5_000) + 1);
        ctx.set_timer(delay, TimerId(1));
        for peer in self.peers.clone() {
            let size = ctx.rng().below(64) as usize;
            ctx.send(peer, vec![0u8; size].into());
        }
    }
    fn on_message(
        &mut self,
        ctx: &mut dyn Context,
        from: fs_smr_suite::common::id::ProcessId,
        _payload: fs_smr_suite::common::Frame,
    ) {
        if self.sends_left == 0 {
            return;
        }
        self.sends_left -= 1;
        let cpu = ctx.rng().below(300);
        ctx.charge_cpu(SimDuration::from_micros(cpu));
        let size = ctx.rng().below(48) as usize;
        ctx.send(from, vec![1u8; size].into());
        if ctx.rng().below(4) == 0 {
            ctx.cancel_timer(TimerId(1));
            let delay = SimDuration::from_micros(ctx.rng().below(2_000) + 1);
            ctx.set_timer(delay, TimerId(1));
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Context, _timer: TimerId) {
        if self.sends_left == 0 {
            return;
        }
        self.sends_left -= 1;
        let n = self.peers.len() as u64;
        let peer = self.peers[ctx.rng().below(n) as usize];
        let size = ctx.rng().below(32) as usize;
        ctx.send(peer, vec![2u8; size].into());
        let delay = SimDuration::from_micros(ctx.rng().below(10_000) + 1);
        ctx.set_timer(delay, TimerId(1));
    }
}

/// Runs one random Chatter scenario on the given scheduler and returns its
/// full observable outcome.
fn run_chatter(
    seed: u64,
    actors: u32,
    sends: u32,
    scheduler: SchedulerKind,
) -> (String, String, u64) {
    use fs_smr_suite::common::id::ProcessId;
    use fs_smr_suite::simnet::link::Topology;
    let mut sim = Simulation::with_scheduler(seed, Topology::default(), scheduler);
    sim.enable_trace();
    let nodes: Vec<_> = (0..actors)
        .map(|_| sim.add_node(NodeConfig::era_2003()))
        .collect();
    let ids: Vec<ProcessId> = (0..actors).map(ProcessId).collect();
    for (i, node) in nodes.iter().enumerate() {
        let peers: Vec<ProcessId> = ids.iter().copied().filter(|p| p.0 != i as u32).collect();
        sim.spawn_with(
            ids[i],
            *node,
            Box::new(Chatter {
                peers,
                sends_left: sends,
            }),
        );
    }
    sim.run_until(SimTime::from_secs(60));
    let trace = serde_json::to_string(sim.trace().expect("trace enabled")).unwrap();
    let stats = format!("{:?}", sim.stats());
    (trace, stats, sim.stats().events_processed)
}

/// Runs a whole group of GC machines to quiescence, routing every output
/// immediately, and returns each member's delivery order.
fn run_group(
    members: u32,
    multicasts: &[(u32, Vec<u8>)],
    service: ServiceKind,
) -> Vec<Vec<(u32, u64)>> {
    let group: Vec<MemberId> = (0..members).map(MemberId).collect();
    let mut machines: Vec<GcMachine> = group
        .iter()
        .map(|m| GcMachine::new(GcConfig::new(*m, group.clone()).with_costs(GcCosts::free())))
        .collect();

    let mut queue: Vec<(MemberId, MachineOutput)> = Vec::new();
    for (sender, payload) in multicasts {
        let request = AppRequest {
            service,
            payload: payload.clone().into(),
        }
        .to_wire();
        let outputs = machines[*sender as usize].handle(&MachineInput::from_app(request));
        queue.extend(outputs.into_iter().map(|o| (MemberId(*sender), o)));
        // Drain to quiescence after every multicast (in-order network).
        while let Some((src, output)) = queue.pop() {
            match output.dest {
                Endpoint::Peer(dest) => {
                    let more = machines[dest.0 as usize]
                        .handle(&MachineInput::from_peer(src, output.bytes));
                    queue.extend(more.into_iter().map(|o| (dest, o)));
                }
                Endpoint::Broadcast => {
                    for dest in &group {
                        if *dest == src {
                            continue;
                        }
                        let more = machines[dest.0 as usize]
                            .handle(&MachineInput::from_peer(src, output.bytes.clone()));
                        queue.extend(more.into_iter().map(|o| (*dest, o)));
                    }
                }
                Endpoint::LocalApp | Endpoint::Environment => {}
            }
        }
    }

    machines
        .iter()
        .map(|m| m.delivered().iter().map(|d| (d.origin.0, d.seq)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Agreement & validity: all members deliver the same sequence, and the
    /// sequence contains exactly the multicast messages.
    #[test]
    fn symmetric_total_order_agreement(
        members in 2u32..6,
        senders in proptest::collection::vec(0u32..6, 1..25),
    ) {
        let multicasts: Vec<(u32, Vec<u8>)> = senders
            .iter()
            .enumerate()
            .map(|(i, s)| (s % members, vec![i as u8]))
            .collect();
        let orders = run_group(members, &multicasts, ServiceKind::SymmetricTotal);
        for order in &orders[1..] {
            prop_assert_eq!(order, &orders[0]);
        }
        prop_assert_eq!(orders[0].len(), multicasts.len());
    }

    /// The sequencer-based service provides the same guarantees.
    #[test]
    fn asymmetric_total_order_agreement(
        members in 2u32..5,
        senders in proptest::collection::vec(0u32..5, 1..20),
    ) {
        let multicasts: Vec<(u32, Vec<u8>)> = senders
            .iter()
            .enumerate()
            .map(|(i, s)| (s % members, vec![i as u8, 0xaa]))
            .collect();
        let orders = run_group(members, &multicasts, ServiceKind::AsymmetricTotal);
        for order in &orders[1..] {
            prop_assert_eq!(order, &orders[0]);
        }
        prop_assert_eq!(orders[0].len(), multicasts.len());
    }

    /// R1: the GC machine is a deterministic state machine — two instances
    /// fed the same inputs produce byte-identical outputs.
    #[test]
    fn gc_machine_determinism(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..20),
    ) {
        let group: Vec<MemberId> = (0..3).map(MemberId).collect();
        let make = || GcMachine::new(GcConfig::new(MemberId(0), group.clone()).with_costs(GcCosts::free()));
        let mut a = make();
        let mut b = make();
        for (i, payload) in payloads.iter().enumerate() {
            let input = if i % 2 == 0 {
                MachineInput::from_app(
                    AppRequest { service: ServiceKind::SymmetricTotal, payload: payload.clone().into() }.to_wire(),
                )
            } else {
                MachineInput::from_peer(
                    MemberId(1),
                    GcMessage::Data {
                        origin: MemberId(1),
                        seq: i as u64,
                        ts: i as u64 + 1,
                        vc: vec![],
                        service: ServiceKind::SymmetricTotal,
                        payload: payload.clone().into(),
                    }
                    .to_wire(),
                )
            };
            prop_assert_eq!(a.handle(&input), b.handle(&input));
        }
    }

    /// Replicas applying the same ordered command stream converge.
    #[test]
    fn kv_replicas_converge(
        commands in proptest::collection::vec((".{0,8}", proptest::collection::vec(any::<u8>(), 0..16)), 1..40),
    ) {
        let mut a = Replica::new(MemberId(0), KvStore::new());
        let mut b = Replica::new(MemberId(1), KvStore::new());
        for (i, (key, value)) in commands.iter().enumerate() {
            let request = Request {
                id: RequestId::new(ProcessId(1), i as u64 + 1),
                command: KvCommand::Put { key: key.clone(), value: value.clone() }.to_wire(),
            };
            let ra = a.deliver(&request).map(|r| r.payload);
            let rb = b.deliver(&request).map(|r| r.payload);
            prop_assert_eq!(ra, rb);
        }
        prop_assert_eq!(a.state_digest(), b.state_digest());
    }

    /// Wire round-trips: GC messages and application requests decode to what
    /// was encoded, for arbitrary payloads.
    #[test]
    fn gc_message_wire_round_trip(
        origin in 0u32..32,
        seq in any::<u64>(),
        ts in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let m = GcMessage::Data {
            origin: MemberId(origin),
            seq,
            ts,
            vc: vec![1, 2, 3],
            service: ServiceKind::SymmetricTotal,
            payload: payload.into(),
        };
        prop_assert_eq!(GcMessage::from_wire(&m.to_wire()).unwrap(), m);
    }

    /// SHA-256 incremental hashing equals one-shot hashing for any chunking.
    #[test]
    fn sha256_incremental_matches_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk in 1usize..97,
    ) {
        let one_shot = Sha256::digest(&data);
        let mut hasher = Sha256::new();
        for part in data.chunks(chunk) {
            hasher.update(part);
        }
        prop_assert_eq!(hasher.finalize(), one_shot);
    }

    /// HMAC verification accepts the genuine tag and rejects a tag computed
    /// under a different key.
    #[test]
    fn hmac_rejects_wrong_key(
        key_a in proptest::collection::vec(any::<u8>(), 1..64),
        key_b in proptest::collection::vec(any::<u8>(), 1..64),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let tag = HmacSha256::mac(&key_a, &data);
        prop_assert!(HmacSha256::verify(&key_a, &data, tag.as_bytes()));
        if key_a != key_b {
            prop_assert!(!HmacSha256::verify(&key_b, &data, tag.as_bytes()));
        }
    }

    /// The precomputed [`HmacKey`] state produces exactly the one-shot tags
    /// for arbitrary keys and payloads (RFC 2104/6234 equivalence beyond the
    /// fixed test vectors), including across reuse of the same key.
    #[test]
    fn hmac_cached_key_matches_one_shot(
        key in proptest::collection::vec(any::<u8>(), 0..160),
        data_a in proptest::collection::vec(any::<u8>(), 0..512),
        data_b in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let cached = HmacKey::new(&key);
        prop_assert_eq!(cached.mac(&data_a), HmacSha256::mac(&key, &data_a));
        prop_assert_eq!(cached.mac(&data_b), HmacSha256::mac(&key, &data_b));
        prop_assert!(cached.verify(&data_a, HmacSha256::mac(&key, &data_a).as_bytes()));
    }

    /// Wire-format freeze: the `Bytes`-returning `to_wire` path (one sized
    /// allocation, refcount-shared) must stay byte-identical to the legacy
    /// `to_wire_vec` growth path for every message type in `newtop::message`
    /// and `failsignal::message`, and the `encoded_len` sizing hints must be
    /// exact.  This is what keeps the zero-copy refactor invisible on the
    /// wire (the determinism suite then pins the end-to-end byte stream).
    #[test]
    fn bytes_encode_path_is_frozen(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        seq in any::<u64>(),
        member in 0u32..64,
        n_members in 0usize..6,
        endpoint_tag in 0u8..4,
    ) {
        let endpoint = match endpoint_tag {
            0 => Endpoint::LocalApp,
            1 => Endpoint::Peer(MemberId(member)),
            2 => Endpoint::Environment,
            _ => Endpoint::Broadcast,
        };
        let mut rng = DetRng::new(42);
        let (mut keys, _dir) = provision([ProcessId(1), ProcessId(2)], &mut rng);
        let key_a = keys.remove(&SignerId(ProcessId(1))).unwrap();
        let key_b = keys.remove(&SignerId(ProcessId(2))).unwrap();

        fn check<T: Wire>(value: &T) {
            let shared = value.to_wire();
            let legacy = value.to_wire_vec();
            prop_assert_eq!(&shared[..], &legacy[..]);
            prop_assert_eq!(value.encoded_len(), shared.len());
        }

        // newtop::message
        for service in [
            ServiceKind::SymmetricTotal,
            ServiceKind::AsymmetricTotal,
            ServiceKind::Reliable,
            ServiceKind::Unreliable,
            ServiceKind::Causal,
        ] {
            check(&service);
        }
        check(&AppRequest { service: ServiceKind::Causal, payload: payload.clone().into() });
        check(&newtop_msg::AppDeliver {
            origin: MemberId(member),
            seq,
            order: seq.wrapping_add(1),
            service: ServiceKind::SymmetricTotal,
            payload: payload.clone().into(),
        });
        let view = newtop_msg::ViewDeliver {
            view_id: seq,
            members: (0..n_members as u32).map(MemberId).collect(),
        };
        check(&view);
        check(&newtop_msg::Upcall::View(view));
        check(&GcMessage::Data {
            origin: MemberId(member),
            seq,
            ts: seq.wrapping_mul(3),
            vc: (0..n_members as u64).collect(),
            service: ServiceKind::SymmetricTotal,
            payload: payload.clone().into(),
        });
        check(&GcMessage::Ack { from: MemberId(member + 1), clock: seq, sent_count: seq });
        check(&GcMessage::Order { sequencer: MemberId(0), global_seq: seq, origin: MemberId(member), seq });
        check(&GcMessage::Ping { from: MemberId(member), nonce: seq });
        check(&GcMessage::Pong { from: MemberId(member), nonce: seq });
        check(&GcMessage::Suspect { suspect: MemberId(member), from: MemberId(member + 1) });
        check(&GcMessage::Nack { origin: MemberId(member), seq, from: MemberId(member + 1) });
        check(&newtop_msg::ControlInput::Suspect(MemberId(member)));

        // smr sequenced frames: the batched client/peer/upcall shapes added
        // with the load plane are held to the same freeze.
        {
            use fs_smr_suite::smr::sequenced::{
                SmrClientMsg, SmrDeliver, SmrDeliverBatch, SmrDeliverEntry, SmrOrderedEntry,
                SmrPeerMsg, SmrRequest, SmrUpcall,
            };
            let command = Bytes::from(payload.clone());
            let commands: Vec<Bytes> = (0..n_members).map(|_| command.clone()).collect();
            check(&SmrClientMsg::Request(SmrRequest { seq, command: command.clone() }));
            check(&SmrClientMsg::Batch { first_seq: seq, commands: commands.clone() });
            check(&SmrPeerMsg::Submit { origin: MemberId(member), seq, command: command.clone() });
            check(&SmrPeerMsg::Ordered {
                global: seq,
                origin: MemberId(member),
                seq,
                command: command.clone(),
            });
            check(&SmrPeerMsg::SubmitBatch {
                origin: MemberId(member),
                first_seq: seq,
                commands,
            });
            check(&SmrPeerMsg::OrderedBatch {
                first_global: seq,
                origin: MemberId(member),
                entries: (0..n_members as u64)
                    .map(|i| SmrOrderedEntry { seq: seq.wrapping_add(i), command: command.clone() })
                    .collect(),
            });
            check(&SmrUpcall::Deliver(SmrDeliver {
                global: seq,
                origin: MemberId(member),
                seq,
                response: command.clone(),
            }));
            check(&SmrUpcall::Batch(SmrDeliverBatch {
                first_global: seq,
                entries: (0..n_members as u64)
                    .map(|i| SmrDeliverEntry {
                        origin: MemberId(member),
                        seq: seq.wrapping_add(i),
                        response: command.clone(),
                    })
                    .collect(),
            }));
        }

        // failsignal::message
        let shared_payload = Bytes::from(payload.clone());
        let content = FsContent::Output {
            output_seq: seq,
            dest: endpoint,
            bytes: shared_payload.clone(),
        };
        check(&content);
        check(&FsContent::FailSignal);
        let output = FsOutput::sign(FsId(member), content.clone(), &key_a, &key_b);
        check(&output);
        check(&PairMessage::Ordered {
            order_index: seq,
            source: endpoint,
            bytes: shared_payload.clone(),
        });
        check(&PairMessage::ForwardNew { source: endpoint, bytes: shared_payload.clone() });
        check(&PairMessage::Candidate {
            output_seq: seq,
            dest: endpoint,
            body_len: shared_payload.len() as u32,
            digest: Sha256::digest(&shared_payload),
            signature: Signature::sign(&key_a, &shared_payload),
        });
        check(&FsoInbound::Pair(PairMessage::ForwardNew { source: endpoint, bytes: shared_payload.clone() }));
        check(&FsoInbound::External(output));
        check(&FsoInbound::Raw(shared_payload.clone()));

        // smr client/replica frames (the other per-message hot path).
        let id = RequestId::new(ProcessId(member), seq);
        check(&id);
        check(&Request { id, command: shared_payload.clone() });
        check(&fs_smr_suite::smr::replica::Response {
            id,
            replica: MemberId(member),
            payload: shared_payload,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential scheduler test at the raw simulator level: a randomised
    /// workload of sends, timers, cancellations and CPU charges produces a
    /// byte-identical trace and statistics on the calendar queue and on the
    /// legacy binary heap.
    #[test]
    fn schedulers_are_interchangeable_on_random_workloads(
        seed in any::<u64>(),
        actors in 2u32..5,
        sends in 1u32..25,
    ) {
        let calendar = run_chatter(seed, actors, sends, SchedulerKind::CalendarQueue);
        let legacy = run_chatter(seed, actors, sends, SchedulerKind::LegacyHeap);
        prop_assert!(calendar.2 > 0, "the workload must actually run");
        prop_assert_eq!(calendar, legacy);
    }

    /// `Bytes::slice` pins the upstream semantics: in-range slices are
    /// zero-copy views sharing the parent's storage (and `slice_ref` round
    /// trips them); out-of-range or inverted ranges panic exactly when
    /// slicing a `&[u8]` would.
    #[test]
    fn bytes_slice_matches_slice_semantics(
        data in proptest::collection::vec(any::<u8>(), 0..64),
        a in 0usize..70,
        b in 0usize..70,
    ) {
        let bytes = Bytes::from(data.clone());
        match data.get(a..b) {
            Some(expected) => {
                let view = bytes.slice(a..b);
                prop_assert_eq!(&view[..], expected);
                prop_assert!(view.shares_storage(&bytes), "slices must share storage");
                // slice_ref recovers the same window from a borrowed slice.
                let via_ref = bytes.slice_ref(&bytes[a..b]);
                prop_assert_eq!(&via_ref[..], expected);
                prop_assert!(via_ref.is_empty() || via_ref.shares_storage(&bytes));
            }
            None => {
                let panicked = std::panic::catch_unwind(
                    std::panic::AssertUnwindSafe(|| bytes.slice(a..b)),
                )
                .is_err();
                prop_assert!(panicked, "slice({a}..{b}) of len {} must panic", data.len());
            }
        }
    }

    /// Zero-copy decode equivalence: for every payload-carrying message type
    /// on the receive path, `from_wire_shared` produces a value
    /// byte-identical to the copying `from_wire` path, and the decoded
    /// payload bytes are views sharing the frame's storage (the refcount
    /// assertion behind "zero payload copies").
    #[test]
    fn shared_decode_is_identical_and_zero_copy(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        seq in any::<u64>(),
        member in 0u32..16,
    ) {
        use fs_smr_suite::smr::machine::Endpoint as Ep;

        let mut rng = DetRng::new(27);
        let (mut keys, _dir) = provision([ProcessId(1), ProcessId(2)], &mut rng);
        let key_a = keys.remove(&SignerId(ProcessId(1))).unwrap();
        let key_b = keys.remove(&SignerId(ProcessId(2))).unwrap();
        let shared_payload = Bytes::from(payload.clone());

        // FsContent::Output — the innermost payload carrier.
        let content = FsContent::Output {
            output_seq: seq,
            dest: Ep::Peer(MemberId(member)),
            bytes: shared_payload.clone(),
        };
        let frame = content.to_wire();
        let shared = FsContent::from_wire_shared(&frame).unwrap();
        prop_assert_eq!(&shared, &FsContent::from_wire(&frame).unwrap());
        let FsContent::Output { bytes, .. } = &shared else { unreachable!() };
        prop_assert!(bytes.shares_storage(&frame), "decoded payload must be a frame view");

        // The full inbound envelope, as the wrapper receives it.
        let output = FsOutput::sign(FsId(member), content, &key_a, &key_b);
        let inbound = FsoInbound::External(output);
        let frame = inbound.to_wire();
        let shared = FsoInbound::from_wire_shared(&frame).unwrap();
        prop_assert_eq!(&shared, &FsoInbound::from_wire(&frame).unwrap());
        if let FsoInbound::External(o) = &shared {
            if let FsContent::Output { bytes, .. } = &o.content {
                prop_assert!(bytes.shares_storage(&frame));
            }
        }

        // Pair traffic and raw client traffic.
        let pair = FsoInbound::Pair(PairMessage::Ordered {
            order_index: seq,
            source: Ep::Broadcast,
            bytes: shared_payload.clone(),
        });
        let frame = pair.to_wire();
        let shared = FsoInbound::from_wire_shared(&frame).unwrap();
        prop_assert_eq!(&shared, &FsoInbound::from_wire(&frame).unwrap());
        if let FsoInbound::Pair(PairMessage::Ordered { bytes, .. }) = &shared {
            prop_assert!(bytes.shares_storage(&frame));
        }
        let raw = FsoInbound::Raw(shared_payload.clone());
        let frame = raw.to_wire();
        let shared = FsoInbound::from_wire_shared(&frame).unwrap();
        prop_assert_eq!(&shared, &FsoInbound::from_wire(&frame).unwrap());
        if let FsoInbound::Raw(bytes) = &shared {
            prop_assert!(bytes.shares_storage(&frame));
        }

        // The SMR client/replica frames.
        let request = Request { id: RequestId::new(ProcessId(member), seq), command: shared_payload };
        let frame = request.to_wire();
        let shared = Request::from_wire_shared(&frame).unwrap();
        prop_assert_eq!(&shared, &Request::from_wire(&frame).unwrap());
        prop_assert!(shared.command.shares_storage(&frame));
    }
}

/// Runs a group of sequenced-KV machines to quiescence over an in-order
/// network, returning each member's `(origin, seq)` delivery order and its
/// state digest.
fn run_sequenced_group(members: u32, commands: &[(u32, Vec<u8>)]) -> Vec<(Vec<(u32, u64)>, u64)> {
    use fs_smr_suite::smr::sequenced::{SequencedKv, SmrClientMsg, SmrRequest};

    let group: Vec<MemberId> = (0..members).map(MemberId).collect();
    let mut machines: Vec<SequencedKv> = group
        .iter()
        .map(|m| SequencedKv::new(*m, group.clone()))
        .collect();
    let mut next_seq = vec![0u64; members as usize];
    let mut queue: Vec<(MemberId, MachineOutput)> = Vec::new();
    for (sender, value) in commands {
        let sender = sender % members;
        let seq = next_seq[sender as usize];
        next_seq[sender as usize] += 1;
        let request = SmrClientMsg::Request(SmrRequest {
            seq,
            command: KvCommand::Put {
                key: format!("m{sender}-{seq}"),
                value: value.clone(),
            }
            .to_wire(),
        });
        let outputs = machines[sender as usize].handle(&MachineInput::from_app(request.to_wire()));
        queue.extend(outputs.into_iter().map(|o| (MemberId(sender), o)));
        // Drain to quiescence after every command (in-order network).
        while let Some((src, output)) = queue.pop() {
            match output.dest {
                Endpoint::Peer(dest) => {
                    let more = machines[dest.0 as usize]
                        .handle(&MachineInput::from_peer(src, output.bytes));
                    queue.extend(more.into_iter().map(|o| (dest, o)));
                }
                Endpoint::Broadcast => {
                    for dest in &group {
                        if *dest == src {
                            continue;
                        }
                        let more = machines[dest.0 as usize]
                            .handle(&MachineInput::from_peer(src, output.bytes.clone()));
                        queue.extend(more.into_iter().map(|o| (*dest, o)));
                    }
                }
                Endpoint::LocalApp | Endpoint::Environment => {}
            }
        }
    }
    machines
        .iter()
        .map(|m| {
            (
                m.delivered().iter().map(|(o, s)| (o.0, *s)).collect(),
                m.state_digest(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Agreement & validity of the second wrapped service: every member of a
    /// sequenced-KV group applies the same command sequence and converges to
    /// the same store digest, for arbitrary sender interleavings.
    #[test]
    fn sequenced_kv_group_agreement(
        members in 1u32..5,
        commands in proptest::collection::vec(
            (0u32..5, proptest::collection::vec(any::<u8>(), 0..16)),
            1..30,
        ),
    ) {
        let outcomes = run_sequenced_group(members, &commands);
        let (reference_log, reference_digest) = &outcomes[0];
        prop_assert_eq!(reference_log.len(), commands.len());
        for (log, digest) in &outcomes[1..] {
            prop_assert_eq!(log, reference_log);
            prop_assert_eq!(digest, reference_digest);
        }
    }

    /// R1 for the second service: the sequenced-KV machine is deterministic —
    /// two instances fed the same inputs produce byte-identical outputs.
    #[test]
    fn sequenced_kv_machine_determinism(
        commands in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..20),
    ) {
        use fs_smr_suite::smr::sequenced::{SequencedKv, SmrClientMsg, SmrPeerMsg, SmrRequest};
        use fs_smr_suite::smr::machine::check_determinism;

        let group = vec![MemberId(0), MemberId(1)];
        let inputs: Vec<MachineInput> = commands
            .iter()
            .enumerate()
            .map(|(i, value)| {
                let command = KvCommand::Put { key: format!("k{i}"), value: value.clone() }.to_wire();
                if i % 2 == 0 {
                    MachineInput::from_app(
                        SmrClientMsg::Request(SmrRequest { seq: i as u64, command }).to_wire(),
                    )
                } else {
                    MachineInput::from_peer(
                        MemberId(1),
                        SmrPeerMsg::Submit { origin: MemberId(1), seq: i as u64, command }.to_wire(),
                    )
                }
            })
            .collect();
        prop_assert!(check_determinism(
            || SequencedKv::new(MemberId(0), group.clone()),
            &inputs
        ));
    }
}

/// Exact nearest-rank percentile over raw samples — the oracle the
/// constant-memory histogram is checked against.
fn naive_percentile(samples: &[SimDuration], p: f64) -> Option<SimDuration> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The geometric-bucket latency histogram must agree with the exact
    /// sorted-rank oracle at every percentile, up to one bucket width: the
    /// reported value never under-states the exact nearest-rank sample and
    /// overshoots it by at most the bucket's relative width (2^-8), while
    /// staying clamped to the observed [min, max].  Splitting the samples
    /// across two histograms and merging must report identically.
    #[test]
    fn histogram_percentiles_match_sorted_rank_oracle(
        nanos in proptest::collection::vec(0u64..5_000_000_000, 0..300),
        p_mille in 0u32..1001,
        split in 0usize..301,
    ) {
        use fs_smr_suite::simnet::trace::{LatencyHistogram, LatencyRecorder};

        let samples: Vec<SimDuration> =
            nanos.iter().map(|n| SimDuration::from_nanos(*n)).collect();
        let p = f64::from(p_mille) / 1000.0;

        let mut recorder = LatencyRecorder::new();
        let mut hist = LatencyHistogram::new();
        for s in &samples {
            recorder.record(*s);
            hist.record(*s);
        }

        let exact = naive_percentile(&samples, p);
        // The recorder keeps every sample: it must be *exactly* the oracle.
        prop_assert_eq!(recorder.percentile(p), exact);

        match exact {
            None => {
                prop_assert!(hist.percentile(p).is_none());
                prop_assert!(hist.summary().is_none());
                prop_assert!(recorder.summary().is_none());
            }
            Some(exact) => {
                let approx = hist.percentile(p).expect("non-empty histogram");
                prop_assert!(
                    approx >= exact,
                    "histogram must not under-state: {approx:?} < {exact:?}"
                );
                let bound = exact.as_nanos() + exact.as_nanos() / 256 + 1;
                prop_assert!(
                    approx.as_nanos() <= bound,
                    "histogram overshoot: {approx:?} vs exact {exact:?}"
                );
                let lo = *samples.iter().min().unwrap();
                let hi = *samples.iter().max().unwrap();
                prop_assert!(approx >= lo && approx <= hi, "clamped to [min, max]");

                // The summary quotes the same estimator at the named points,
                // and its extremes are exact.
                let summary = hist.summary().unwrap();
                prop_assert_eq!(summary.count, samples.len());
                prop_assert_eq!(summary.min, lo);
                prop_assert_eq!(summary.max, hi);
                prop_assert_eq!(Some(summary.p50), hist.percentile(0.50));
                prop_assert_eq!(Some(summary.p999), hist.percentile(0.999));

                // The exact recorder summary equals the oracle at the named
                // percentiles.
                let exact_summary = recorder.summary().unwrap();
                prop_assert_eq!(Some(exact_summary.p50), naive_percentile(&samples, 0.50));
                prop_assert_eq!(Some(exact_summary.p95), naive_percentile(&samples, 0.95));
                prop_assert_eq!(Some(exact_summary.p99), naive_percentile(&samples, 0.99));
                prop_assert_eq!(Some(exact_summary.p999), naive_percentile(&samples, 0.999));

                // Merge invariance: recording a prefix and a suffix into two
                // histograms and merging reports the same percentile.
                let cut = split.min(samples.len());
                let mut left = LatencyHistogram::new();
                let mut right = LatencyHistogram::new();
                for s in &samples[..cut] {
                    left.record(*s);
                }
                for s in &samples[cut..] {
                    right.record(*s);
                }
                left.merge(&right);
                prop_assert_eq!(left.percentile(p), Some(approx));
            }
        }
    }

    /// A single-sample distribution reports that sample at every percentile,
    /// from both the exact recorder and the histogram.
    #[test]
    fn single_sample_percentiles_are_that_sample(
        nanos in 0u64..5_000_000_000,
        p_mille in 0u32..1001,
    ) {
        use fs_smr_suite::simnet::trace::{LatencyHistogram, LatencyRecorder};

        let sample = SimDuration::from_nanos(nanos);
        let p = f64::from(p_mille) / 1000.0;
        let mut recorder = LatencyRecorder::new();
        recorder.record(sample);
        let mut hist = LatencyHistogram::new();
        hist.record(sample);
        prop_assert_eq!(recorder.percentile(p), Some(sample));
        prop_assert_eq!(hist.percentile(p), Some(sample));
        let summary = hist.summary().unwrap();
        prop_assert_eq!((summary.min, summary.p50, summary.max), (sample, sample, sample));
    }
}
