//! The NewTOP group-communication (GC) object as a deterministic machine.
//!
//! [`GcMachine`] composes the sub-protocols — symmetric and asymmetric total
//! order, causal order, reliable and simple multicast, and partitionable
//! membership — behind the [`DeterministicMachine`] interface.  Because it is
//! a deterministic, single-threaded state machine (§3.1: "the GC service is
//! implemented as a single-threaded, deterministic application"), the very
//! same object can be:
//!
//! * hosted directly by an [`crate::nso::NsoActor`] to form crash-tolerant
//!   NewTOP, or
//! * wrapped by the fail-signal pair of the `failsignal` crate to form
//!   FS-NewTOP, with no change to this code.

use std::collections::BTreeMap;

use fs_common::codec::Wire;
use fs_common::id::MemberId;
use fs_common::time::SimDuration;
use fs_common::Bytes;
use fs_smr::machine::{DeterministicMachine, Endpoint, MachineInput, MachineOutput};

use crate::causal::CausalOrder;
use crate::message::{AppDeliver, AppRequest, ControlInput, GcMessage, ServiceKind, Upcall};
use crate::reliable::{ReliableMulticast, SimpleMulticast};
use crate::total_asym::SequencerOrder;
use crate::total_sym::SymmetricOrder;
use crate::view::{MembershipState, View};

/// CPU-cost model of the GC protocol processing (charged to the simulated
/// clock by the hosting adapter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcCosts {
    /// Fixed protocol-processing cost per handled input.
    pub base: SimDuration,
    /// Additional cost per payload byte (header parsing, copying, queue
    /// management in the original Java implementation).
    pub per_byte: SimDuration,
}

impl GcCosts {
    /// Costs calibrated to the paper's Java 1.4 / Pentium III testbed: a few
    /// milliseconds of protocol processing per handled message (header
    /// parsing, queue management, ordering bookkeeping in the original Java
    /// implementation), plus a per-byte term.
    pub fn era_2003() -> Self {
        Self {
            base: SimDuration::from_micros(3_200),
            per_byte: SimDuration::from_nanos(60),
        }
    }

    /// Zero-cost model for protocol unit tests.
    pub fn free() -> Self {
        Self {
            base: SimDuration::ZERO,
            per_byte: SimDuration::ZERO,
        }
    }

    /// The cost of handling an input of `len` bytes.
    pub fn cost(&self, len: usize) -> SimDuration {
        self.base + self.per_byte * len as u64
    }
}

impl Default for GcCosts {
    fn default() -> Self {
        Self::era_2003()
    }
}

/// Static configuration of one GC object.
#[derive(Debug, Clone)]
pub struct GcConfig {
    /// The member this GC object serves.
    pub member: MemberId,
    /// The initial group membership.
    pub group: Vec<MemberId>,
    /// CPU-cost model.
    pub costs: GcCosts,
}

impl GcConfig {
    /// Creates a configuration for `member` of `group` with era-2003 costs.
    pub fn new(member: MemberId, group: Vec<MemberId>) -> Self {
        Self {
            member,
            group,
            costs: GcCosts::era_2003(),
        }
    }

    /// Replaces the cost model.
    pub fn with_costs(mut self, costs: GcCosts) -> Self {
        self.costs = costs;
        self
    }
}

/// One entry of a GC object's delivery log: what was delivered, not the
/// bytes — the payload went up to the application, and a log that kept it
/// would pin every payload of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The member that multicast the message.
    pub origin: MemberId,
    /// The origin's per-member sequence number.
    pub seq: u64,
    /// The service that carried the message.
    pub service: ServiceKind,
    /// The length of the delivered payload.
    pub payload_len: usize,
}

/// The NewTOP group-communication object.
pub struct GcMachine {
    member: MemberId,
    costs: GcCosts,
    membership: MembershipState,
    sym: SymmetricOrder,
    asym: SequencerOrder,
    causal: CausalOrder,
    reliable: ReliableMulticast,
    simple: SimpleMulticast,
    delivered: Vec<Delivered>,
    views_delivered: Vec<u64>,
    message_counts: BTreeMap<&'static str, u64>,
}

impl std::fmt::Debug for GcMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcMachine")
            .field("member", &self.member)
            .field("view", &self.membership.view().id)
            .field("delivered", &self.delivered.len())
            .finish()
    }
}

impl GcMachine {
    /// Creates a GC object from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the member is not part of its own group.
    pub fn new(config: GcConfig) -> Self {
        assert!(
            config.group.contains(&config.member),
            "member {} must belong to its group",
            config.member
        );
        Self {
            member: config.member,
            costs: config.costs,
            membership: MembershipState::new(config.member, config.group.clone()),
            sym: SymmetricOrder::new(config.member),
            asym: SequencerOrder::new(config.member),
            causal: CausalOrder::new(config.member, config.group),
            reliable: ReliableMulticast::new(),
            simple: SimpleMulticast::new(),
            delivered: Vec::new(),
            views_delivered: Vec::new(),
            message_counts: BTreeMap::new(),
        }
    }

    /// The member this GC object serves.
    pub fn member(&self) -> MemberId {
        self.member
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        self.membership.view()
    }

    /// The messages delivered to the local application so far, in order.
    pub fn delivered(&self) -> &[Delivered] {
        &self.delivered
    }

    /// The view numbers delivered so far.
    pub fn views_delivered(&self) -> &[u64] {
        &self.views_delivered
    }

    /// How many protocol messages of each kind this object has received.
    /// Two further keys count symmetric-order `Data` and `Ack` messages
    /// among them: `"misattributed"`, those dropped because they named a
    /// member other than the peer they arrived from, and `"gap"`, those
    /// that showed a `Data` from their sender never arrived here.
    pub fn message_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.message_counts
    }

    fn count(&mut self, what: &'static str) {
        *self.message_counts.entry(what).or_insert(0) += 1;
    }

    fn multicast_to_view(&self, msg: &GcMessage, outputs: &mut Vec<MachineOutput>) {
        // One logical multicast is one machine output (and therefore one
        // signature in the fail-signal wrapper); the hosting adapter fans it
        // out to the physical peers.
        outputs.push(MachineOutput::broadcast(msg.to_wire()));
    }

    fn deliver_up(&mut self, deliveries: Vec<AppDeliver>, outputs: &mut Vec<MachineOutput>) {
        for d in deliveries {
            self.delivered.push(Delivered {
                origin: d.origin,
                seq: d.seq,
                service: d.service,
                payload_len: d.payload.len(),
            });
            // A machine output is a new byte string around the payload: the
            // one copy on the delivery path.
            outputs.push(MachineOutput::to_app(Upcall::Deliver(d).to_wire()));
        }
    }

    fn handle_app_request(&mut self, bytes: &Bytes) -> Vec<MachineOutput> {
        let mut outputs = Vec::new();
        let Ok(request) = AppRequest::from_wire_shared(bytes) else {
            return outputs; // a malformed local request is dropped
        };
        let AppRequest { service, payload } = request;
        match service {
            ServiceKind::SymmetricTotal => {
                let (data, dels) = self.sym.multicast(payload, self.membership.view());
                self.multicast_to_view(&data, &mut outputs);
                self.deliver_up(dels, &mut outputs);
            }
            ServiceKind::AsymmetricTotal => {
                let (msgs, dels) = self.asym.multicast(payload, self.membership.view());
                for m in &msgs {
                    self.multicast_to_view(m, &mut outputs);
                }
                self.deliver_up(dels, &mut outputs);
            }
            ServiceKind::Reliable => {
                let (data, del) = self.reliable.multicast(self.member, payload);
                self.multicast_to_view(&data, &mut outputs);
                self.deliver_up(vec![del], &mut outputs);
            }
            ServiceKind::Unreliable => {
                let (data, del) = self.simple.multicast(self.member, payload);
                self.multicast_to_view(&data, &mut outputs);
                self.deliver_up(vec![del], &mut outputs);
            }
            ServiceKind::Causal => {
                let (data, del) = self.causal.multicast(payload);
                self.multicast_to_view(&data, &mut outputs);
                self.deliver_up(vec![del], &mut outputs);
            }
        }
        outputs
    }

    fn handle_peer_message(&mut self, from: MemberId, bytes: &Bytes) -> Vec<MachineOutput> {
        let mut outputs = Vec::new();
        // Zero-copy decode: a `Data` payload is a view of the input.
        let Ok(message) = GcMessage::from_wire_shared(bytes) else {
            return outputs; // a malformed peer message cannot be processed
        };
        self.count(message.kind());
        let gaps = self.sym.gap_count();
        match message {
            GcMessage::Data {
                origin,
                seq,
                ts,
                vc,
                service,
                payload,
            } => match service {
                ServiceKind::SymmetricTotal => {
                    // Clocks stand in for acks, so whose clock it is comes
                    // from the link, never from the body.
                    if origin != from {
                        self.count("misattributed");
                        return outputs;
                    }
                    let (ack, dels) =
                        self.sym
                            .on_data(from, seq, ts, payload, self.membership.view());
                    if let Some(ack) = ack {
                        self.multicast_to_view(&ack, &mut outputs);
                    }
                    self.deliver_up(dels, &mut outputs);
                }
                ServiceKind::AsymmetricTotal => {
                    let (msgs, dels) =
                        self.asym
                            .on_data(origin, seq, payload, self.membership.view());
                    for m in &msgs {
                        self.multicast_to_view(m, &mut outputs);
                    }
                    self.deliver_up(dels, &mut outputs);
                }
                ServiceKind::Reliable => {
                    let receipt = self.reliable.on_data(origin, seq, payload);
                    // Any gap this receipt revealed is NACKed back to the
                    // peer whose message exposed it — that peer provably
                    // processed a later message from the same origin, so it
                    // either retains the missing ones or has NACKed them
                    // itself.
                    for missing in receipt.missing {
                        let nack = GcMessage::Nack {
                            origin,
                            seq: missing,
                            from: self.member,
                        };
                        outputs.push(MachineOutput::to_peer(from, nack.to_wire()));
                    }
                    if let Some(relay) = receipt.relay {
                        self.multicast_to_view(&relay, &mut outputs);
                    }
                    if let Some(del) = receipt.deliver {
                        self.deliver_up(vec![del], &mut outputs);
                    }
                }
                ServiceKind::Unreliable => {
                    let del = self.simple.on_data(origin, seq, payload);
                    self.deliver_up(vec![del], &mut outputs);
                }
                ServiceKind::Causal => {
                    let dels = self.causal.on_data(origin, seq, vc, payload);
                    self.deliver_up(dels, &mut outputs);
                }
            },
            GcMessage::Ack {
                from: acker,
                clock,
                sent_count,
            } => {
                if acker != from {
                    self.count("misattributed");
                    return outputs;
                }
                let dels = self
                    .sym
                    .on_ack(from, clock, sent_count, self.membership.view());
                self.deliver_up(dels, &mut outputs);
            }
            GcMessage::Order {
                global_seq,
                origin,
                seq,
                ..
            } => {
                let dels = self.asym.on_order(global_seq, origin, seq);
                self.deliver_up(dels, &mut outputs);
            }
            GcMessage::Ping {
                from: pinger,
                nonce,
            } => {
                let pong = GcMessage::Pong {
                    from: self.member,
                    nonce,
                };
                outputs.push(MachineOutput::to_peer(pinger, pong.to_wire()));
            }
            GcMessage::Pong { .. } => {
                // Liveness bookkeeping happens in the hosting adapter (the
                // ping-based suspector); the machine itself has nothing to do.
            }
            GcMessage::Suspect { suspect, .. } => {
                self.apply_suspicion(suspect, false, &mut outputs);
            }
            GcMessage::Nack {
                origin,
                seq,
                from: requester,
            } => {
                if let Some(data) = self.reliable.on_nack(origin, seq) {
                    outputs.push(MachineOutput::to_peer(requester, data.to_wire()));
                }
            }
        }
        if self.sym.gap_count() > gaps {
            self.count("gap");
        }
        outputs
    }

    fn handle_control(&mut self, bytes: &[u8]) -> Vec<MachineOutput> {
        let mut outputs = Vec::new();
        let Ok(control) = ControlInput::from_wire(bytes) else {
            return outputs;
        };
        match control {
            ControlInput::Suspect(member) => {
                self.apply_suspicion(member, true, &mut outputs);
            }
        }
        outputs
    }

    fn apply_suspicion(
        &mut self,
        suspect: MemberId,
        gossip: bool,
        outputs: &mut Vec<MachineOutput>,
    ) {
        let Some(new_view) = self.membership.suspect(suspect) else {
            return;
        };
        if gossip {
            // Tell the rest of the group so every member installs the view.
            let notice = GcMessage::Suspect {
                suspect,
                from: self.member,
            };
            self.multicast_to_view(&notice, outputs);
        }
        // Deliver the view change to the application.
        outputs.push(MachineOutput::to_app(
            Upcall::View(new_view.to_deliver()).to_wire(),
        ));
        self.views_delivered.push(new_view.id);
        // Let the ordering protocols react (release messages waiting on the
        // removed member; take over sequencing if needed).
        let dels = self.sym.on_view_change(&new_view);
        self.deliver_up(dels, outputs);
        let (msgs, dels) = self.asym.on_view_change(&new_view);
        for m in &msgs {
            self.multicast_to_view(m, outputs);
        }
        self.deliver_up(dels, outputs);
    }
}

impl DeterministicMachine for GcMachine {
    fn handle(&mut self, input: &MachineInput) -> Vec<MachineOutput> {
        match input.source {
            Endpoint::LocalApp => self.handle_app_request(&input.bytes),
            Endpoint::Peer(from) => self.handle_peer_message(from, &input.bytes),
            Endpoint::Environment => self.handle_control(&input.bytes),
            // A broadcast is a destination, never a source; such an input
            // cannot come from a correct adapter and is ignored.
            Endpoint::Broadcast => Vec::new(),
        }
    }

    fn processing_cost(&self, input: &MachineInput) -> SimDuration {
        self.costs.cost(input.bytes.len())
    }

    fn name(&self) -> String {
        format!("newtop-gc-{}", self.member.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a full group of GC machines with immediate, in-order message
    /// delivery between them (an idealised network).  Members listed in
    /// `drop_to` silently lose every message addressed to them — a stand-in
    /// for a one-way-severed network during the faulted window.
    pub(crate) struct GcHarness {
        pub machines: Vec<GcMachine>,
        pub drop_to: Vec<MemberId>,
        /// What each machine handed up to its application, in order.
        pub upcalls: Vec<Vec<AppDeliver>>,
    }

    impl GcHarness {
        pub fn new(n: u32) -> Self {
            let group: Vec<MemberId> = (0..n).map(MemberId).collect();
            let machines = group
                .iter()
                .map(|m| {
                    GcMachine::new(GcConfig::new(*m, group.clone()).with_costs(GcCosts::free()))
                })
                .collect();
            Self {
                machines,
                drop_to: Vec::new(),
                upcalls: vec![Vec::new(); n as usize],
            }
        }

        fn index_of(&self, m: MemberId) -> usize {
            self.machines
                .iter()
                .position(|g| g.member() == m)
                .expect("member exists")
        }

        /// Routes machine outputs until quiescence.
        fn route(&mut self, from: MemberId, outputs: Vec<MachineOutput>) {
            let mut queue: Vec<(MemberId, MachineOutput)> =
                outputs.into_iter().map(|o| (from, o)).collect();
            while let Some((src, output)) = queue.pop() {
                match output.dest {
                    Endpoint::Peer(dest) => {
                        if self.drop_to.contains(&dest) {
                            continue; // lost in flight
                        }
                        let idx = self.index_of(dest);
                        let input = MachineInput::from_peer(src, output.bytes);
                        let more = self.machines[idx].handle(&input);
                        queue.extend(more.into_iter().map(|o| (dest, o)));
                    }
                    Endpoint::Broadcast => {
                        let members: Vec<MemberId> =
                            self.machines.iter().map(|m| m.member()).collect();
                        for dest in members {
                            if dest == src || self.drop_to.contains(&dest) {
                                continue;
                            }
                            let idx = self.index_of(dest);
                            let input = MachineInput::from_peer(src, output.bytes.clone());
                            let more = self.machines[idx].handle(&input);
                            queue.extend(more.into_iter().map(|o| (dest, o)));
                        }
                    }
                    Endpoint::LocalApp => {
                        if let Ok(Upcall::Deliver(d)) = Upcall::from_wire_shared(&output.bytes) {
                            let idx = self.index_of(src);
                            self.upcalls[idx].push(d);
                        }
                    }
                    Endpoint::Environment => {}
                }
            }
        }

        pub fn app_multicast(&mut self, sender: u32, service: ServiceKind, payload: &[u8]) {
            let request = AppRequest {
                service,
                payload: payload.to_vec().into(),
            }
            .to_wire();
            let sender_id = MemberId(sender);
            let idx = self.index_of(sender_id);
            let outputs = self.machines[idx].handle(&MachineInput::from_app(request));
            self.route(sender_id, outputs);
        }

        pub fn suspect(&mut self, at: u32, suspect: u32) {
            let at_id = MemberId(at);
            let idx = self.index_of(at_id);
            let control = ControlInput::Suspect(MemberId(suspect)).to_wire();
            let outputs = self.machines[idx].handle(&MachineInput::from_env(control));
            self.route(at_id, outputs);
        }

        pub fn delivered_orders(&self, member: u32) -> Vec<(MemberId, u64)> {
            let idx = self.index_of(MemberId(member));
            self.machines[idx]
                .delivered()
                .iter()
                .filter(|d| {
                    matches!(
                        d.service,
                        ServiceKind::SymmetricTotal | ServiceKind::AsymmetricTotal
                    )
                })
                .map(|d| (d.origin, d.seq))
                .collect()
        }
    }

    #[test]
    fn symmetric_total_order_agrees_across_members() {
        let mut h = GcHarness::new(4);
        for round in 0..3 {
            for sender in 0..4 {
                h.app_multicast(
                    sender,
                    ServiceKind::SymmetricTotal,
                    format!("r{round}s{sender}").as_bytes(),
                );
            }
        }
        let reference = h.delivered_orders(0);
        assert_eq!(reference.len(), 12);
        for member in 1..4 {
            assert_eq!(
                h.delivered_orders(member),
                reference,
                "member {member} order differs"
            );
        }
    }

    fn received(h: &GcHarness, kind: &str) -> u64 {
        h.machines
            .iter()
            .map(|m| m.message_counts().get(kind).copied().unwrap_or(0))
            .sum()
    }

    /// One sender at a time, whoever sent last: every other member acks
    /// once, and every ack reaches every other member.
    #[test]
    fn isolated_symmetric_multicast_costs_one_ack_per_other_member() {
        let n = 5;
        let mut h = GcHarness::new(n);
        for (sent, sender) in [0, 1, 1, 4, 2, 0, 3].into_iter().enumerate() {
            h.app_multicast(sender, ServiceKind::SymmetricTotal, b"x");
            let sent = sent as u64 + 1;
            assert_eq!(received(&h, "data"), sent * u64::from(n - 1));
            assert_eq!(received(&h, "ack"), sent * u64::from((n - 1) * (n - 1)));
            for member in 0..n {
                assert_eq!(h.delivered_orders(member).len() as u64, sent);
            }
        }
    }

    /// A member that lost a symmetric-order message stops at the hole —
    /// its log stays a prefix — and the group carries on without it.
    #[test]
    fn symmetric_order_outlives_a_message_lost_to_one_member() {
        let mut h = GcHarness::new(3);
        h.app_multicast(0, ServiceKind::SymmetricTotal, b"seen by all");
        h.drop_to = vec![MemberId(2)];
        h.app_multicast(0, ServiceKind::SymmetricTotal, b"lost to member 2");
        h.drop_to.clear();
        h.app_multicast(1, ServiceKind::SymmetricTotal, b"after");
        h.app_multicast(0, ServiceKind::SymmetricTotal, b"and after");
        let reference = h.delivered_orders(0);
        assert_eq!(reference.len(), 4);
        assert_eq!(h.delivered_orders(1), reference);
        assert_eq!(h.delivered_orders(2), reference[..1]);
        assert!(h.machines[2].message_counts()["gap"] > 0);
        assert_eq!(received(&h, "gap"), h.machines[2].message_counts()["gap"]);
    }

    /// Whose clock a message carries is read off the link: a body naming
    /// somebody else is dropped, counted, and moves nothing.
    #[test]
    fn symmetric_messages_naming_another_member_are_dropped() {
        let group: Vec<MemberId> = (0..3).map(MemberId).collect();
        let mut gc = GcMachine::new(GcConfig::new(MemberId(0), group).with_costs(GcCosts::free()));
        let request = AppRequest {
            service: ServiceKind::SymmetricTotal,
            payload: b"mine".to_vec().into(),
        };
        gc.handle(&MachineInput::from_app(request.to_wire()));
        let ack_as = |from: u32| {
            GcMessage::Ack {
                from: MemberId(from),
                clock: 9,
                sent_count: 0,
            }
            .to_wire()
        };
        // Member 1 speaks for itself, then for member 2.
        assert!(gc
            .handle(&MachineInput::from_peer(MemberId(1), ack_as(1)))
            .is_empty());
        assert!(gc
            .handle(&MachineInput::from_peer(MemberId(1), ack_as(2)))
            .is_empty());
        let forged = GcMessage::Data {
            origin: MemberId(2),
            seq: 0,
            ts: 9,
            vc: vec![],
            service: ServiceKind::SymmetricTotal,
            payload: b"not from 2".to_vec().into(),
        };
        assert!(gc
            .handle(&MachineInput::from_peer(MemberId(1), forged.to_wire()))
            .is_empty());
        assert_eq!(gc.message_counts()["misattributed"], 2);
        assert!(gc.delivered().is_empty());
        // Member 2's own ack is what was missing.
        let outputs = gc.handle(&MachineInput::from_peer(MemberId(2), ack_as(2)));
        assert_eq!(outputs.len(), 1);
        assert_eq!(gc.delivered().len(), 1);
    }

    #[test]
    fn asymmetric_total_order_agrees_across_members() {
        let mut h = GcHarness::new(3);
        for sender in [2u32, 0, 1, 2, 1] {
            h.app_multicast(sender, ServiceKind::AsymmetricTotal, b"payload");
        }
        let reference = h.delivered_orders(0);
        assert_eq!(reference.len(), 5);
        for member in 1..3 {
            assert_eq!(h.delivered_orders(member), reference);
        }
    }

    #[test]
    fn reliable_multicast_reaches_everyone_once() {
        let mut h = GcHarness::new(3);
        h.app_multicast(1, ServiceKind::Reliable, b"news");
        for m in 0..3 {
            let idx = h.index_of(MemberId(m));
            let reliable: Vec<&AppDeliver> = h.upcalls[idx]
                .iter()
                .filter(|d| d.service == ServiceKind::Reliable)
                .collect();
            assert_eq!(reliable.len(), 1, "member {m}");
            assert_eq!(reliable[0].payload, b"news");
            // The machine's own log records the delivery, not the bytes.
            assert_eq!(
                h.machines[idx].delivered(),
                &[Delivered {
                    origin: MemberId(1),
                    seq: 0,
                    service: ServiceKind::Reliable,
                    payload_len: 4,
                }]
            );
        }
    }

    /// The NACK/retransmit regression: member 1 loses *every* copy of a
    /// reliable multicast — the direct copy and all flood relays — so
    /// relaying alone can never recover it.  The origin's next multicast
    /// exposes the per-origin sequence gap; member 1 NACKs it back and the
    /// retransmission closes the gap.  Without the NACK layer this test
    /// fails: member 1 ends the run having delivered only one message.
    #[test]
    fn reliable_multicast_recovers_fully_lost_message_via_nack() {
        let mut h = GcHarness::new(3);
        // Window 1: everything addressed to member 1 is lost.
        h.drop_to = vec![MemberId(1)];
        h.app_multicast(0, ServiceKind::Reliable, b"lost");
        // Window 2: the network heals; later traffic flows normally.
        h.drop_to.clear();
        h.app_multicast(0, ServiceKind::Reliable, b"heals");

        for m in 0..3 {
            let idx = h.index_of(MemberId(m));
            let mut payloads: Vec<&[u8]> = h.upcalls[idx]
                .iter()
                .filter(|d| d.service == ServiceKind::Reliable)
                .map(|d| &d.payload[..])
                .collect();
            payloads.sort();
            assert_eq!(
                payloads,
                vec![b"heals".as_slice(), b"lost".as_slice()],
                "member {m} must deliver both messages"
            );
        }
        // The recovery actually went through the NACK path.
        let idx1 = h.index_of(MemberId(1));
        assert_eq!(h.machines[idx1].message_counts().get("nack"), None);
        assert!(
            *h.machines[h.index_of(MemberId(0))]
                .message_counts()
                .get("nack")
                .unwrap_or(&0)
                > 0,
            "origin must have answered a NACK"
        );
    }

    #[test]
    fn causal_and_unreliable_multicast_deliver() {
        let mut h = GcHarness::new(3);
        h.app_multicast(0, ServiceKind::Causal, b"c1");
        h.app_multicast(1, ServiceKind::Unreliable, b"u1");
        for m in 0..3 {
            let idx = h.index_of(MemberId(m));
            let services: Vec<ServiceKind> = h.machines[idx]
                .delivered()
                .iter()
                .map(|d| d.service)
                .collect();
            assert!(services.contains(&ServiceKind::Causal), "member {m}");
            assert!(services.contains(&ServiceKind::Unreliable), "member {m}");
        }
    }

    #[test]
    fn suspicion_installs_view_and_releases_pending_messages() {
        let mut h = GcHarness::new(3);
        // Member 2 "crashes" before acknowledging: simulate by removing its
        // machine from the routing (we simply never let it speak again) and
        // telling members 0 and 1 to suspect it.
        h.app_multicast(0, ServiceKind::SymmetricTotal, b"before");
        h.suspect(0, 2);
        h.suspect(1, 2);
        assert_eq!(h.machines[0].view().id, 1);
        assert_eq!(h.machines[1].view().id, 1);
        assert!(!h.machines[0].view().contains(MemberId(2)));
        assert_eq!(h.machines[0].views_delivered(), &[1]);
        // New multicasts among the surviving members still order.
        h.app_multicast(1, ServiceKind::SymmetricTotal, b"after");
        let d0 = h.delivered_orders(0);
        let d1 = h.delivered_orders(1);
        assert_eq!(d0, d1);
        assert_eq!(d0.len(), 2);
    }

    #[test]
    fn suspicion_gossip_propagates_view_change() {
        let mut h = GcHarness::new(4);
        // Only member 0's suspector fires; the Suspect notice must bring
        // everyone else to the same view.
        h.suspect(0, 3);
        for m in 0..3 {
            let idx = h.index_of(MemberId(m));
            assert_eq!(h.machines[idx].view().id, 1, "member {m}");
            assert!(!h.machines[idx].view().contains(MemberId(3)));
        }
    }

    #[test]
    fn symmetric_is_more_message_intensive_than_asymmetric() {
        let mut sym = GcHarness::new(5);
        let mut asym = GcHarness::new(5);
        for sender in 0..5 {
            sym.app_multicast(sender, ServiceKind::SymmetricTotal, b"x");
            asym.app_multicast(sender, ServiceKind::AsymmetricTotal, b"x");
        }
        let count = |h: &GcHarness| -> u64 {
            h.machines
                .iter()
                .map(|m| m.message_counts().values().sum::<u64>())
                .sum()
        };
        assert!(
            count(&sym) > count(&asym),
            "symmetric ({}) should exceed asymmetric ({})",
            count(&sym),
            count(&asym)
        );
    }

    #[test]
    fn malformed_inputs_are_ignored() {
        let group = vec![MemberId(0), MemberId(1)];
        let mut gc = GcMachine::new(GcConfig::new(MemberId(0), group).with_costs(GcCosts::free()));
        assert!(gc
            .handle(&MachineInput::from_app(vec![0xff, 0x01]))
            .is_empty());
        assert!(gc
            .handle(&MachineInput::from_peer(MemberId(1), vec![0xff]))
            .is_empty());
        assert!(gc.handle(&MachineInput::from_env(vec![0xff])).is_empty());
    }

    #[test]
    fn ping_is_answered_with_pong() {
        let group = vec![MemberId(0), MemberId(1)];
        let mut gc = GcMachine::new(GcConfig::new(MemberId(0), group).with_costs(GcCosts::free()));
        let ping = GcMessage::Ping {
            from: MemberId(1),
            nonce: 7,
        }
        .to_wire();
        let out = gc.handle(&MachineInput::from_peer(MemberId(1), ping));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dest, Endpoint::Peer(MemberId(1)));
        let pong = GcMessage::from_wire(&out[0].bytes).unwrap();
        assert_eq!(
            pong,
            GcMessage::Pong {
                from: MemberId(0),
                nonce: 7
            }
        );
    }

    #[test]
    fn gc_machine_is_deterministic() {
        let group: Vec<MemberId> = (0..3).map(MemberId).collect();
        let make = || {
            GcMachine::new(GcConfig::new(MemberId(0), group.clone()).with_costs(GcCosts::free()))
        };
        let inputs = vec![
            MachineInput::from_app(
                AppRequest {
                    service: ServiceKind::SymmetricTotal,
                    payload: b"a".to_vec().into(),
                }
                .to_wire(),
            ),
            MachineInput::from_peer(
                MemberId(1),
                GcMessage::Data {
                    origin: MemberId(1),
                    seq: 0,
                    ts: 1,
                    vc: vec![],
                    service: ServiceKind::SymmetricTotal,
                    payload: b"b".to_vec().into(),
                }
                .to_wire(),
            ),
            MachineInput::from_env(ControlInput::Suspect(MemberId(2)).to_wire()),
        ];
        assert!(fs_smr::machine::check_determinism(make, &inputs));
    }

    #[test]
    fn processing_cost_scales_with_size() {
        let group = vec![MemberId(0)];
        let gc = GcMachine::new(GcConfig::new(MemberId(0), group));
        let small = gc.processing_cost(&MachineInput::from_app(vec![0; 3]));
        let large = gc.processing_cost(&MachineInput::from_app(vec![0; 10_000]));
        assert!(large > small);
        assert!(gc.name().contains("newtop-gc"));
    }
}
