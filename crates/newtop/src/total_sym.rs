//! The symmetric total-order protocol.
//!
//! This is NewTOP's "significantly message intensive" service (§4): a message
//! is ordered *only after it has been logically acknowledged by all members
//! of the group*.  It is Lamport's symmetric (sequencer-less) protocol, and
//! "logically" is meant literally — clocks order a message, not acks:
//!
//! * every `Data` carries its origin's Lamport timestamp, every `Ack` its
//!   sender's (already bumped) clock, and a member remembers the highest
//!   clock it has heard from each peer;
//! * the pending message with the smallest `(timestamp, origin, seq)` key is
//!   delivered once every other view member has been heard above its
//!   timestamp: nothing that orders earlier can still arrive;
//! * a member that receives a `Data` multicasts an `Ack` only if its own
//!   last multicast did not already carry a clock above that timestamp — an
//!   isolated `Data` is acked at once by everybody, a member with traffic
//!   of its own has usually said something newer.
//!
//! **Channel assumption.**  Per-sender FIFO channels that lose nothing (the
//! middleware runs over TCP/IIOP).  FIFO is assumed; loss is checked: a
//! `Data` carries its origin's sequence number, an `Ack` how many `Data`
//! its sender had multicast before it, and a peer's clock is believed only
//! from a message showing that all its earlier `Data` arrived.  One that
//! shows a hole is counted and moves nothing, so the member with the hole
//! stops there — a prefix of the others' order, never a different one —
//! while the others, who need only its clock, carry on; a lost `Ack` is
//! covered by its sender's next message.  State is one entry per peer plus
//! the pending payloads; nobody can grow it by acking what was never sent.

use std::collections::BTreeMap;

use fs_common::fasthash::FastMap;
use fs_common::id::MemberId;
use fs_common::Bytes;

use crate::message::{AppDeliver, GcMessage, ServiceKind};
use crate::view::View;

/// The key under which a pending message is ordered.
type OrderKey = (u64, MemberId, u64); // (lamport timestamp, origin, per-origin seq)

/// What this member has heard from one peer.
#[derive(Debug, Clone, Copy, Default)]
struct Heard {
    /// The highest clock received in a message that showed no hole.
    clock: u64,
    /// The sequence number of the next `Data` expected from the peer.
    next_seq: u64,
}

/// Per-member state of the symmetric total-order protocol.  A step costs
/// one clock per view member, however many messages are pending.
#[derive(Debug, Clone)]
pub struct SymmetricOrder {
    me: MemberId,
    lamport: u64,
    next_seq: u64,
    /// The clock carried by this member's last multicast (`Data` or `Ack`).
    sent: u64,
    /// Payloads of the messages awaiting order, in delivery order.
    pending: BTreeMap<OrderKey, Bytes>,
    /// Hashed, and therefore never iterated.
    heard: FastMap<MemberId, Heard>,
    delivered: u64,
    gaps: u64,
}

impl SymmetricOrder {
    /// Creates the protocol state for member `me`.
    pub fn new(me: MemberId) -> Self {
        Self {
            me,
            lamport: 0,
            next_seq: 0,
            sent: 0,
            pending: BTreeMap::new(),
            heard: FastMap::default(),
            delivered: 0,
            gaps: 0,
        }
    }

    /// The current Lamport clock (exposed for tests).
    pub fn clock(&self) -> u64 {
        self.lamport
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Number of messages still awaiting order.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of messages received that showed a `Data` of their sender lost.
    pub fn gap_count(&self) -> u64 {
        self.gaps
    }

    /// Multicasts `payload`: returns the `Data` to send to every other view
    /// member, plus any deliveries now possible (e.g. in a singleton view).
    pub fn multicast(
        &mut self,
        payload: impl Into<Bytes>,
        view: &View,
    ) -> (GcMessage, Vec<AppDeliver>) {
        let payload: Bytes = payload.into();
        self.lamport += 1;
        let ts = self.lamport;
        self.sent = ts;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert((ts, self.me, seq), payload.clone());
        let data = GcMessage::Data {
            origin: self.me,
            seq,
            ts,
            vc: Vec::new(),
            service: ServiceKind::SymmetricTotal,
            payload,
        };
        (data, self.try_deliver(view))
    }

    /// Handles a `Data` message received from its `origin`; returns the
    /// `Ack` to multicast to every other view member — `None` when this
    /// member's last multicast already carried a clock above `ts` — and any
    /// deliveries that become possible.
    pub fn on_data(
        &mut self,
        origin: MemberId,
        seq: u64,
        ts: u64,
        payload: impl Into<Bytes>,
        view: &View,
    ) -> (Option<GcMessage>, Vec<AppDeliver>) {
        let heard = self.heard.entry(origin).or_default();
        if seq < heard.next_seq || origin == self.me {
            return (None, Vec::new()); // a duplicate, or not from a peer
        }
        if seq == heard.next_seq {
            heard.next_seq += 1;
            heard.clock = heard.clock.max(ts);
            self.pending.insert((ts, origin, seq), payload.into());
        } else {
            // An earlier `Data` of `origin` was lost: undeliverable, not kept.
            self.gaps += 1;
        }
        // The others need this member's clock whether or not it can deliver.
        self.lamport = self.lamport.max(ts).saturating_add(1);
        let ack = (self.sent <= ts).then(|| {
            self.sent = self.lamport;
            GcMessage::Ack {
                from: self.me,
                clock: self.lamport,
                sent_count: self.next_seq,
            }
        });
        (ack, self.try_deliver(view))
    }

    /// Handles an `Ack` received from `from`, who had multicast `sent_count`
    /// `Data` messages before it; returns any deliveries that become possible.
    pub fn on_ack(
        &mut self,
        from: MemberId,
        clock: u64,
        sent_count: u64,
        view: &View,
    ) -> Vec<AppDeliver> {
        self.lamport = self.lamport.max(clock);
        let heard = self.heard.entry(from).or_default();
        if sent_count > heard.next_seq {
            self.gaps += 1;
            return Vec::new();
        }
        heard.clock = heard.clock.max(clock);
        self.try_deliver(view)
    }

    /// Called after a view change: clocks are now required only from the
    /// surviving members, so some pending messages may become deliverable.
    pub fn on_view_change(&mut self, view: &View) -> Vec<AppDeliver> {
        self.try_deliver(view)
    }

    fn try_deliver(&mut self, view: &View) -> Vec<AppDeliver> {
        let mut out = Vec::new();
        while let Some(head) = self.pending.first_entry() {
            let &(ts, origin, seq) = head.key();
            // The origin said `ts` itself; everybody else must have moved on.
            let logically_acked = |m: &MemberId| {
                *m == self.me || *m == origin || self.heard.get(m).is_some_and(|h| h.clock > ts)
            };
            if !view.members.iter().all(logically_acked) {
                break;
            }
            out.push(AppDeliver {
                origin,
                seq,
                order: self.delivered,
                service: ServiceKind::SymmetricTotal,
                payload: head.remove(),
            });
            self.delivered += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    fn view(n: u32) -> View {
        View::initial((0..n).map(MemberId))
    }

    fn order_of(dels: &[AppDeliver]) -> Vec<(MemberId, u64, u64)> {
        dels.iter().map(|d| (d.origin, d.seq, d.order)).collect()
    }

    /// What happens to the message at the head of a link.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fate {
        Arrives,
        /// It arrives, and a copy of it right behind — even if the first
        /// copy was delivered in between.
        ArrivesTwice,
        Lost,
    }

    /// A group over per-link FIFO queues whose interleaving the test
    /// chooses.  The last member may fall silent (stop processing, hence
    /// stop acking); the others then drop it from their view, each at its
    /// own time.
    struct Net {
        full: View,
        reduced: View,
        members: Vec<SymmetricOrder>,
        /// Whether each member has installed `reduced`.
        reduced_at: Vec<bool>,
        silent: bool,
        /// `queues[from][to]`, FIFO.
        queues: Vec<Vec<VecDeque<GcMessage>>>,
        delivered: Vec<Vec<AppDeliver>>,
        /// Acks multicast so far, per member.
        acks_sent: Vec<u64>,
        /// `Data` messages lost on their way to each member.
        data_lost: Vec<u64>,
    }

    impl Net {
        fn new(n: usize) -> Self {
            let full = view(n as u32);
            let reduced = full.without(MemberId(n as u32 - 1)).unwrap();
            Self {
                full,
                reduced,
                members: (0..n)
                    .map(|i| SymmetricOrder::new(MemberId(i as u32)))
                    .collect(),
                reduced_at: vec![false; n],
                silent: false,
                queues: vec![vec![VecDeque::new(); n]; n],
                delivered: vec![Vec::new(); n],
                acks_sent: vec![0; n],
                data_lost: vec![0; n],
            }
        }

        fn n(&self) -> usize {
            self.members.len()
        }

        fn view_of(&self, member: usize) -> View {
            if self.reduced_at[member] {
                self.reduced.clone()
            } else {
                self.full.clone()
            }
        }

        fn broadcast(&mut self, from: usize, message: &GcMessage) {
            for to in (0..self.n()).filter(|&to| to != from) {
                self.queues[from][to].push_back(message.clone());
            }
        }

        /// Records `dels` and checks what every step must keep true: order
        /// indices are consecutive, and nothing delivered is pending again.
        fn record(&mut self, at: usize, dels: Vec<AppDeliver>) {
            self.delivered[at].extend(dels);
            assert_consistent(&self.members[at], &self.delivered[at]);
        }

        fn multicast(&mut self, sender: usize, payload: Vec<u8>) {
            let view = self.view_of(sender);
            let (data, dels) = self.members[sender].multicast(payload, &view);
            self.record(sender, dels);
            self.broadcast(sender, &data);
        }

        fn apply(&mut self, to: usize, message: &GcMessage) {
            let view = self.view_of(to);
            match message.clone() {
                GcMessage::Data {
                    origin,
                    seq,
                    ts,
                    payload,
                    ..
                } => {
                    let (ack, dels) = self.members[to].on_data(origin, seq, ts, payload, &view);
                    self.record(to, dels);
                    if let Some(ack) = ack {
                        self.acks_sent[to] += 1;
                        self.broadcast(to, &ack);
                    }
                }
                GcMessage::Ack {
                    from,
                    clock,
                    sent_count,
                } => {
                    let dels = self.members[to].on_ack(from, clock, sent_count, &view);
                    self.record(to, dels);
                }
                other => unreachable!("{other:?}"),
            }
        }

        /// Takes the head of `from → to` and gives it its fate.
        fn step(&mut self, from: usize, to: usize, fate: Fate) {
            if from == to || (self.silent && to == self.n() - 1) {
                return;
            }
            let Some(message) = self.queues[from][to].pop_front() else {
                return;
            };
            match fate {
                Fate::Arrives => self.apply(to, &message),
                Fate::ArrivesTwice => {
                    self.apply(to, &message);
                    self.apply(to, &message);
                }
                Fate::Lost => {
                    self.data_lost[to] += u64::from(matches!(message, GcMessage::Data { .. }));
                }
            }
        }

        fn install_reduced(&mut self, member: usize) {
            if !self.silent || self.reduced_at[member] || member == self.n() - 1 {
                return;
            }
            self.reduced_at[member] = true;
            let dels = self.members[member].on_view_change(&self.reduced);
            self.record(member, dels);
        }

        /// Lets everything in flight arrive.
        fn drain(&mut self) {
            loop {
                let mut moved = false;
                for from in 0..self.n() {
                    for to in 0..self.n() {
                        let queued = self.queues[from][to].len();
                        self.step(from, to, Fate::Arrives);
                        moved |= self.queues[from][to].len() != queued;
                    }
                }
                if !moved {
                    break;
                }
            }
        }

        fn orders(&self) -> Vec<Vec<(MemberId, u64, u64)>> {
            self.delivered.iter().map(|d| order_of(d)).collect()
        }
    }

    /// Delivery indices are consecutive, and no delivered `(origin, seq)`
    /// is (still, or again) pending.
    fn assert_consistent(s: &SymmetricOrder, delivered: &[AppDeliver]) {
        assert_eq!(s.delivered_count(), delivered.len() as u64);
        for (i, d) in delivered.iter().enumerate() {
            assert_eq!(d.order, i as u64);
            assert!(
                !s.pending
                    .keys()
                    .any(|&(_, origin, seq)| (origin, seq) == (d.origin, d.seq)),
                "{:?} delivered and pending",
                (d.origin, d.seq)
            );
        }
    }

    fn data_fields(data: GcMessage) -> (MemberId, u64, u64) {
        match data {
            GcMessage::Data {
                origin, seq, ts, ..
            } => (origin, seq, ts),
            other => unreachable!("{other:?}"),
        }
    }

    #[test]
    fn singleton_group_delivers_immediately() {
        let mut s = SymmetricOrder::new(MemberId(0));
        let v = view(1);
        let (_, dels) = s.multicast(b"solo".to_vec(), &v);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].payload, b"solo");
        assert_eq!(dels[0].order, 0);
        assert_eq!(s.delivered_count(), 1);
    }

    #[test]
    fn two_members_agree_on_order() {
        let mut net = Net::new(2);
        for sender in [0, 1, 0] {
            net.multicast(sender, vec![sender as u8]);
            net.drain();
        }
        let orders = net.orders();
        assert_eq!(orders[0].len(), 3);
        assert_eq!(orders[0], orders[1]);
    }

    #[test]
    fn five_members_agree_under_interleaving() {
        let mut net = Net::new(5);
        for round in 0..4u8 {
            for sender in 0..5 {
                net.multicast(sender, vec![round, sender as u8]);
            }
            net.drain();
        }
        let orders = net.orders();
        for o in &orders[1..] {
            assert_eq!(o, &orders[0]);
        }
        assert_eq!(orders[0].len(), 20);
    }

    #[test]
    fn delivery_waits_for_all_acks() {
        let v = view(3);
        let mut a = SymmetricOrder::new(MemberId(0));
        let (data, dels) = a.multicast(b"x".to_vec(), &v);
        assert!(dels.is_empty());
        let (_, _, ts) = data_fields(data);
        // Member 1 has moved past `ts`, member 2 only up to it.
        assert!(a.on_ack(MemberId(1), ts + 1, 0, &v).is_empty());
        assert!(a.on_ack(MemberId(2), ts, 0, &v).is_empty());
        assert_eq!(a.pending_count(), 1);
        assert_eq!(a.on_ack(MemberId(2), ts + 1, 0, &v).len(), 1);
        assert_eq!(a.pending_count(), 0);
    }

    #[test]
    fn view_change_releases_messages_waiting_on_the_removed_member() {
        let v = view(3);
        let mut a = SymmetricOrder::new(MemberId(0));
        let (data, _) = a.multicast(b"x".to_vec(), &v);
        let (_, _, ts) = data_fields(data);
        // Member 1 acks; member 2 has crashed and never will.
        a.on_ack(MemberId(1), ts + 1, 0, &v);
        assert_eq!(a.delivered_count(), 0);
        let v1 = v.without(MemberId(2)).unwrap();
        assert_eq!(a.on_view_change(&v1).len(), 1);
    }

    #[test]
    fn early_ack_before_data_is_not_lost() {
        let v = view(3);
        let mut a = SymmetricOrder::new(MemberId(0));
        // Member 2's ack of member 1's message arrives first.
        assert!(a.on_ack(MemberId(2), 4, 0, &v).is_empty());
        let (ack, dels) = a.on_data(MemberId(1), 0, 3, b"x".to_vec(), &v);
        assert!(ack.is_some());
        assert_eq!(dels.len(), 1);
    }

    #[test]
    fn lamport_clock_is_monotone() {
        let v = view(2);
        let mut a = SymmetricOrder::new(MemberId(0));
        let c0 = a.clock();
        a.multicast(b"x".to_vec(), &v);
        assert!(a.clock() > c0);
        a.on_data(MemberId(1), 0, 100, b"y".to_vec(), &v);
        assert!(a.clock() > 100);
        a.on_data(MemberId(1), 1, u64::MAX, b"z".to_vec(), &v);
        assert_eq!(a.clock(), u64::MAX);
    }

    /// An isolated `Data` is acked at once by every other member, whoever
    /// sent last.
    #[test]
    fn isolated_data_draws_one_ack_from_each_other_member() {
        let mut net = Net::new(5);
        for (round, sender) in [0usize, 3, 3, 1, 4, 0].into_iter().enumerate() {
            let before = net.acks_sent.clone();
            net.multicast(sender, vec![round as u8]);
            net.drain();
            for (member, before) in before.iter().enumerate() {
                assert_eq!(
                    net.acks_sent[member] - before,
                    u64::from(member != sender),
                    "round {round}, member {member}"
                );
                assert_eq!(net.delivered[member].len(), round + 1);
            }
        }
    }

    /// A member whose last multicast is above a run of timestamps has
    /// already acknowledged them all.
    #[test]
    fn data_below_the_last_multicast_draws_no_ack() {
        let v = view(4);
        let mut a = SymmetricOrder::new(MemberId(0));
        assert!(a.on_ack(MemberId(3), 50, 0, &v).is_empty());
        let (data, _) = a.multicast(b"mine".to_vec(), &v);
        assert_eq!(data_fields(data).2, 51);
        for (i, ts) in [7u64, 20, 50, 51].into_iter().enumerate() {
            let origin = MemberId(1 + i as u32 % 2);
            let (ack, _) = a.on_data(origin, i as u64 / 2, ts, b"theirs".to_vec(), &v);
            if ts < 51 {
                assert_eq!(ack, None, "ts {ts}");
            } else {
                // Not above: a tie says nothing about what comes next.
                assert!(ack.is_some(), "ts {ts}");
            }
        }
    }

    #[test]
    fn duplicate_data_is_dropped_pending_or_delivered() {
        let v = view(3);
        let mut a = SymmetricOrder::new(MemberId(0));
        let (ack, _) = a.on_data(MemberId(1), 0, 4, b"x".to_vec(), &v);
        assert!(ack.is_some());
        // The same message again while it is pending — and once more under
        // a timestamp a correct origin would never reuse.
        assert_eq!(a.on_data(MemberId(1), 0, 4, b"x".to_vec(), &v).0, None);
        assert_eq!(a.on_data(MemberId(1), 0, 7, b"y".to_vec(), &v).0, None);
        assert_eq!(a.pending_count(), 1);
        let dels = a.on_ack(MemberId(2), 9, 0, &v);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].payload, b"x");
        // And after its delivery: not delivered twice, and the next
        // message is not stuck behind it.
        let (ack, dels) = a.on_data(MemberId(1), 0, 4, b"x".to_vec(), &v);
        assert!(ack.is_none() && dels.is_empty());
        assert_eq!(a.pending_count(), 0);
        let (_, dels) = a.on_data(MemberId(1), 1, 12, b"next".to_vec(), &v);
        assert!(dels.is_empty());
        let dels = a.on_ack(MemberId(2), 13, 0, &v);
        assert_eq!(order_of(&dels), [(MemberId(1), 1, 1)]);
        assert_eq!(a.gap_count(), 0);
    }

    #[test]
    fn own_data_coming_back_is_dropped() {
        let v = view(2);
        let mut a = SymmetricOrder::new(MemberId(0));
        assert_eq!(
            a.on_data(MemberId(0), 0, 1, b"x".to_vec(), &v),
            (None, vec![])
        );
        assert_eq!(a.pending_count(), 0);
    }

    /// A member that lost a `Data` stops at the hole; the others need only
    /// its clock and are not held up.
    #[test]
    fn lost_data_stops_the_member_with_the_hole_and_nobody_else() {
        let mut net = Net::new(3);
        net.multicast(0, b"a".to_vec());
        net.drain();
        net.multicast(0, b"lost on the way to 2".to_vec());
        net.step(0, 2, Fate::Lost);
        net.drain();
        net.multicast(0, b"c".to_vec());
        net.multicast(1, b"d".to_vec());
        net.drain();
        let orders = net.orders();
        assert_eq!(orders[0].len(), 4);
        assert_eq!(orders[1], orders[0]);
        assert_eq!(orders[2], orders[0][..1]);
        // Member 0's ack of "d" and its `Data` "c" both showed the hole.
        assert_eq!(net.members[2].gap_count(), 2);
        assert_eq!(net.members[0].gap_count() + net.members[1].gap_count(), 0);
    }

    /// A lost `Ack` holds its receiver up only until the acker's next
    /// message, whatever that is.
    #[test]
    fn lost_ack_is_covered_by_the_next_clock_from_the_same_member() {
        let mut net = Net::new(3);
        net.multicast(0, b"a".to_vec());
        net.step(0, 1, Fate::Arrives); // member 1 acks ...
        net.step(1, 0, Fate::Lost); // ... and the origin never hears it
        net.drain();
        assert_eq!(net.delivered[0].len(), 0, "stalled on member 1's clock");
        assert_eq!(net.delivered[1].len(), 1);
        assert_eq!(net.delivered[2].len(), 1);
        net.multicast(2, b"b".to_vec());
        net.drain();
        let orders = net.orders();
        assert_eq!(orders[0].len(), 2);
        assert_eq!(orders[1], orders[0]);
        assert_eq!(orders[2], orders[0]);
        assert!(net.members.iter().all(|m| m.gap_count() == 0));
    }

    use proptest::prelude::*;

    /// Cases per property: 192, or what `PROPTEST_CASES` says (CI asks for
    /// 1024; the vendored harness does not read the variable itself).
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES").map_or(192, |cases| {
            cases.parse().expect("PROPTEST_CASES is a case count")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Any interleaving of multicasts, link steps (so acks overtake
        /// data on other links), duplicated data and acks — replayed
        /// whether or not the first copy has been delivered — one member
        /// falling silent and the survivors dropping it at different times:
        /// every survivor delivers the same `(origin, seq, order)` sequence,
        /// all of it; the silent member a prefix; and every step leaves
        /// each member consistent.
        #[test]
        fn every_interleaving_delivers_one_sequence(
            n in 3usize..6,
            ops in proptest::collection::vec((0u8..10, any::<u8>(), any::<u8>()), 0..400),
        ) {
            let mut net = Net::new(n);
            let mut sent = 0u32;
            for (kind, a, b) in ops {
                let (a, b) = (a as usize, b as usize);
                match kind {
                    0 | 1 if sent < 40 => {
                        net.multicast(a % (n - 1), vec![sent as u8, b as u8]);
                        sent += 1;
                    }
                    2..=6 => net.step(a % n, b % n, Fate::Arrives),
                    7 => net.step(a % n, b % n, Fate::ArrivesTwice),
                    8 => net.silent |= a % 4 == 0,
                    9 => net.install_reduced(a % n),
                    _ => {}
                }
            }
            if net.silent {
                for member in 0..n - 1 {
                    net.install_reduced(member);
                }
            }
            net.drain();
            let orders = net.orders();
            let reference = &orders[0];
            prop_assert_eq!(reference.len(), sent as usize);
            for (member, order) in orders.iter().enumerate().take(n - 1) {
                prop_assert_eq!(order, reference, "member {}", member);
                prop_assert_eq!(net.members[member].pending_count(), 0);
            }
            let last = &orders[n - 1];
            prop_assert!(reference.starts_with(last), "the silent member holds a prefix");
            if !net.silent {
                prop_assert_eq!(last.len(), reference.len());
            }
            prop_assert!(net.members.iter().all(|m| m.gap_count() == 0));
        }

        /// The safety argument of the clock rule.  Any interleaving in
        /// which single `Data` and `Ack` frames are lost on single links,
        /// closed by one loss-free multicast from every member (the "later
        /// message" that covers a lost ack): every member's delivered
        /// sequence is a prefix of the longest one — a hole stops a member,
        /// it never reorders it — and a member that lost no `Data` delivers
        /// everything, so losing acks alone stalls nobody.
        #[test]
        fn loss_leaves_prefixes_of_one_sequence(
            n in 3usize..6,
            lose_data in any::<bool>(),
            ops in proptest::collection::vec((0u8..10, any::<u8>(), any::<u8>()), 0..400),
        ) {
            let mut net = Net::new(n);
            let mut sent = 0usize;
            for (kind, a, b) in ops {
                let (a, b) = (a as usize, b as usize);
                match kind {
                    0 | 1 if sent < 40 => {
                        net.multicast(a % n, vec![sent as u8, b as u8]);
                        sent += 1;
                    }
                    2..=6 => net.step(a % n, b % n, Fate::Arrives),
                    7 => net.step(a % n, b % n, Fate::ArrivesTwice),
                    _ => {
                        let (from, to) = (a % n, b % n);
                        let is_ack = matches!(net.queues[from][to].front(), Some(GcMessage::Ack { .. }));
                        if lose_data || is_ack {
                            net.step(from, to, Fate::Lost);
                        }
                    }
                }
            }
            for member in 0..n {
                net.multicast(member, vec![0xff, member as u8]);
                sent += 1;
            }
            net.drain();
            let orders = net.orders();
            let longest = orders.iter().max_by_key(|o| o.len()).unwrap();
            for (member, order) in orders.iter().enumerate() {
                prop_assert!(longest.starts_with(order), "member {} diverged", member);
                if net.data_lost[member] == 0 {
                    prop_assert_eq!(order.len(), sent, "member {} lost no data", member);
                    prop_assert_eq!(net.members[member].gap_count(), 0);
                } else {
                    prop_assert!(order.len() < sent, "member {} delivered past a hole", member);
                    prop_assert!(net.members[member].gap_count() > 0);
                }
            }
            if !lose_data {
                prop_assert!(net.data_lost.iter().all(|&lost| lost == 0));
            }
        }

        /// Arbitrary calls — acks from anybody under any clock and count
        /// (our own identity included), data under clashing timestamps, out
        /// of sequence, repeated and claiming to be our own, shrinking and
        /// growing views: delivery indices stay consecutive and `pending`
        /// never holds a delivered key.
        #[test]
        fn arbitrary_calls_never_deliver_twice(
            calls in proptest::collection::vec((0u8..4, 0u32..3, 0u64..4, 0u64..6), 0..200),
        ) {
            let views = [view(3), view(2), view(1)];
            let mut s = SymmetricOrder::new(MemberId(0));
            let mut delivered = Vec::new();
            for (kind, who, seq, ts) in calls {
                let v = &views[(ts % 3) as usize];
                delivered.extend(match kind {
                    0 => s.multicast(vec![seq as u8], v).1,
                    1 => s.on_data(MemberId(who), seq, ts, vec![ts as u8], v).1,
                    2 => s.on_ack(MemberId(who), ts, seq, v),
                    _ => s.on_view_change(v),
                });
                assert_consistent(&s, &delivered);
            }
            let mut keys: Vec<_> = delivered.iter().map(|d| (d.origin, d.seq)).collect();
            keys.sort();
            keys.dedup();
            prop_assert_eq!(keys.len(), delivered.len());
        }
    }
}
