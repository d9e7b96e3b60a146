//! The symmetric total-order protocol.
//!
//! This is NewTOP's "significantly message intensive" service (§4): a message
//! is ordered *only after it has been logically acknowledged by all members
//! of the group*.  The implementation is the classic symmetric (sequencer-
//! less) protocol built on Lamport clocks over FIFO channels:
//!
//! * every `Data` message carries its origin's Lamport timestamp;
//! * every member multicasts an `Ack` (carrying its own, already bumped,
//!   clock) for every `Data` it receives;
//! * a message is delivered when it is the pending message with the smallest
//!   `(timestamp, origin, seq)` key *and* it has been acknowledged by every
//!   member of the current view.
//!
//! With per-sender FIFO channels (the middleware runs over TCP/IIOP) the
//! all-ack condition guarantees that no message that should be ordered
//! earlier can still arrive, so delivery order is identical at all correct
//! members.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use fs_common::fasthash::FastMap;
use fs_common::id::MemberId;
use fs_common::Bytes;

use crate::message::{AppDeliver, GcMessage, ServiceKind};
use crate::view::View;

/// The key under which a pending message is ordered.
type OrderKey = (u64, MemberId, u64); // (lamport timestamp, origin, per-origin seq)

/// Per-member state of the symmetric total-order protocol.
///
/// The cost of a step does not depend on how many messages are pending: an
/// ack carries `(origin, seq)` but not the timestamp its message is ordered
/// under, so ack sets live in a table keyed by `(origin, seq)`, and a
/// delivery attempt looks only at the head of `pending`.
#[derive(Debug, Clone)]
pub struct SymmetricOrder {
    me: MemberId,
    lamport: u64,
    next_seq: u64,
    /// Payloads of the messages awaiting order, in delivery order.
    pending: BTreeMap<OrderKey, Bytes>,
    /// Who has acknowledged each pending message: exactly one entry per
    /// entry of `pending`, inserted and removed with it.  Hashed, and
    /// therefore never iterated.
    acks: FastMap<(MemberId, u64), BTreeSet<MemberId>>,
    /// Acks received before their data message, keyed by `(origin, seq)`;
    /// they seed the message's ack set when the data arrives.
    early_acks: BTreeMap<(MemberId, u64), BTreeSet<MemberId>>,
    delivered: u64,
}

impl SymmetricOrder {
    /// Creates the protocol state for member `me`.
    pub fn new(me: MemberId) -> Self {
        Self {
            me,
            lamport: 0,
            next_seq: 0,
            pending: BTreeMap::new(),
            acks: FastMap::default(),
            early_acks: BTreeMap::new(),
            delivered: 0,
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

    /// The ack set of `(origin, seq)`; if the message is not pending yet it
    /// becomes so under timestamp `ts`, its ack set seeded with any acks
    /// that arrived ahead of it.  A second data message for a pending
    /// `(origin, seq)` — a duplicate, which a correct origin sends under
    /// the same timestamp — joins the existing entry and its payload is
    /// dropped.
    fn track(
        &mut self,
        origin: MemberId,
        seq: u64,
        ts: u64,
        payload: Bytes,
    ) -> &mut BTreeSet<MemberId> {
        match self.acks.entry((origin, seq)) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(slot) => {
                self.pending.insert((ts, origin, seq), payload);
                slot.insert(self.early_acks.remove(&(origin, seq)).unwrap_or_default())
            }
        }
    }

    /// Multicasts `payload`: returns the `Data` message to send to every
    /// other view member, plus any deliveries that become possible
    /// immediately (e.g. in a singleton view).
    pub fn multicast(
        &mut self,
        payload: impl Into<Bytes>,
        view: &View,
    ) -> (GcMessage, Vec<AppDeliver>) {
        let payload: Bytes = payload.into();
        self.lamport += 1;
        let ts = self.lamport;
        let seq = self.next_seq;
        self.next_seq += 1;
        let me = self.me;
        self.track(me, seq, ts, payload.clone()).insert(me);
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

    /// Handles a `Data` message from `origin`; returns the `Ack` to
    /// multicast to every view member (including the origin) and any
    /// deliveries that become possible.
    pub fn on_data(
        &mut self,
        origin: MemberId,
        seq: u64,
        ts: u64,
        payload: impl Into<Bytes>,
        view: &View,
    ) -> (GcMessage, Vec<AppDeliver>) {
        let payload: Bytes = payload.into();
        self.lamport = self.lamport.max(ts) + 1;
        let me = self.me;
        let acks = self.track(origin, seq, ts, payload);
        acks.insert(origin); // the data message is the origin's own ack
        acks.insert(me); // our ack, which we are about to multicast
        let ack = GcMessage::Ack {
            origin,
            seq,
            from: self.me,
            clock: self.lamport,
        };
        (ack, self.try_deliver(view))
    }

    /// Handles an `Ack`; returns any deliveries that become possible.
    pub fn on_ack(
        &mut self,
        origin: MemberId,
        seq: u64,
        from: MemberId,
        clock: u64,
        view: &View,
    ) -> Vec<AppDeliver> {
        self.lamport = self.lamport.max(clock);
        match self.acks.get_mut(&(origin, seq)) {
            Some(acks) => acks.insert(from),
            // The ack overtook its data (they travel on different FIFO
            // channels): buffer it until the data arrives.
            None => self
                .early_acks
                .entry((origin, seq))
                .or_default()
                .insert(from),
        };
        self.try_deliver(view)
    }

    /// Called after a view change: acknowledgements are now required only
    /// from the surviving members, so some pending messages may become
    /// deliverable.
    pub fn on_view_change(&mut self, view: &View) -> Vec<AppDeliver> {
        self.try_deliver(view)
    }

    fn try_deliver(&mut self, view: &View) -> Vec<AppDeliver> {
        let mut out = Vec::new();
        while let Some(head) = self.pending.first_entry() {
            let &(_, origin, seq) = head.key();
            let acks = &self.acks[&(origin, seq)];
            // Fewer acks than members cannot cover the view; only a full
            // count is worth the per-member check.
            if acks.len() < view.len() || !view.members.iter().all(|m| acks.contains(m)) {
                break;
            }
            let payload = head.remove();
            self.acks.remove(&(origin, seq));
            let order = self.delivered;
            self.delivered += 1;
            out.push(AppDeliver {
                origin,
                seq,
                order,
                service: ServiceKind::SymmetricTotal,
                payload,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(n: u32) -> View {
        View::initial((0..n).map(MemberId))
    }

    /// Drives a full group of symmetric-order instances by hand, delivering
    /// every protocol message immediately (no reordering).
    struct Harness {
        view: View,
        members: Vec<SymmetricOrder>,
        delivered: Vec<Vec<AppDeliver>>,
    }

    impl Harness {
        fn new(n: u32) -> Self {
            Self {
                view: view(n),
                members: (0..n).map(|i| SymmetricOrder::new(MemberId(i))).collect(),
                delivered: (0..n).map(|_| Vec::new()).collect(),
            }
        }

        fn multicast(&mut self, sender: usize, payload: &[u8]) {
            let (data, dels) = self.members[sender].multicast(payload.to_vec(), &self.view);
            self.delivered[sender].extend(dels);
            let GcMessage::Data {
                origin,
                seq,
                ts,
                payload,
                ..
            } = data
            else {
                unreachable!()
            };
            // Deliver the data to every other member; collect their acks.
            let mut acks = Vec::new();
            for i in 0..self.members.len() {
                if i == sender {
                    continue;
                }
                let (ack, dels) =
                    self.members[i].on_data(origin, seq, ts, payload.clone(), &self.view);
                self.delivered[i].extend(dels);
                acks.push(ack);
            }
            // Deliver every ack to every member (including the origin).
            for ack in acks {
                let GcMessage::Ack {
                    origin,
                    seq,
                    from,
                    clock,
                } = ack
                else {
                    unreachable!()
                };
                for i in 0..self.members.len() {
                    if MemberId(i as u32) == from {
                        continue;
                    }
                    let dels = self.members[i].on_ack(origin, seq, from, clock, &self.view);
                    self.delivered[i].extend(dels);
                }
            }
        }

        fn orders(&self) -> Vec<Vec<(MemberId, u64)>> {
            self.delivered
                .iter()
                .map(|d| d.iter().map(|a| (a.origin, a.seq)).collect())
                .collect()
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
        let mut h = Harness::new(2);
        h.multicast(0, b"a");
        h.multicast(1, b"b");
        h.multicast(0, b"c");
        let orders = h.orders();
        assert_eq!(orders[0].len(), 3);
        assert_eq!(orders[0], orders[1]);
    }

    #[test]
    fn five_members_agree_under_interleaving() {
        let mut h = Harness::new(5);
        for round in 0..4 {
            for sender in 0..5 {
                h.multicast(sender, format!("m{round}-{sender}").as_bytes());
            }
        }
        let orders = h.orders();
        for o in &orders[1..] {
            assert_eq!(o, &orders[0]);
        }
        assert_eq!(orders[0].len(), 20);
        // Order indices are consecutive.
        let last = h.delivered[0].last().unwrap();
        assert_eq!(last.order, 19);
    }

    #[test]
    fn delivery_waits_for_all_acks() {
        let v = view(3);
        let mut a = SymmetricOrder::new(MemberId(0));
        let (data, dels) = a.multicast(b"x".to_vec(), &v);
        assert!(dels.is_empty());
        let GcMessage::Data {
            origin, seq, ts, ..
        } = data
        else {
            unreachable!()
        };
        // Only member 1 acks: still not deliverable.
        let dels = a.on_ack(origin, seq, MemberId(1), ts + 1, &v);
        assert!(dels.is_empty());
        assert_eq!(a.pending_count(), 1);
        // Member 2 acks: now deliverable.
        let dels = a.on_ack(origin, seq, MemberId(2), ts + 1, &v);
        assert_eq!(dels.len(), 1);
        assert_eq!(a.pending_count(), 0);
    }

    #[test]
    fn view_change_releases_messages_waiting_on_the_removed_member() {
        let v = view(3);
        let mut a = SymmetricOrder::new(MemberId(0));
        let (data, _) = a.multicast(b"x".to_vec(), &v);
        let GcMessage::Data {
            origin, seq, ts, ..
        } = data
        else {
            unreachable!()
        };
        // Member 1 acks; member 2 has crashed and never will.
        a.on_ack(origin, seq, MemberId(1), ts + 1, &v);
        assert_eq!(a.delivered_count(), 0);
        let v1 = v.without(MemberId(2)).unwrap();
        let dels = a.on_view_change(&v1);
        assert_eq!(dels.len(), 1);
    }

    #[test]
    fn early_ack_before_data_is_not_lost() {
        let v = view(3);
        let mut a = SymmetricOrder::new(MemberId(0));
        // An ack for a message we have not yet received.
        let dels = a.on_ack(MemberId(1), 0, MemberId(2), 5, &v);
        assert!(dels.is_empty());
        assert!(!a.early_acks.is_empty());
        // The data then arrives; together with our own ack and the origin's
        // implicit ack, the early ack completes the set.
        let (_ack, dels) = a.on_data(MemberId(1), 0, 3, b"x".to_vec(), &v);
        assert_eq!(dels.len(), 1);
        assert!(a.early_acks.is_empty());
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
    }

    #[test]
    fn ack_for_own_future_seq_is_merged_when_that_seq_is_multicast() {
        let v = view(3);
        let mut a = SymmetricOrder::new(MemberId(0));
        // Member 1 "acks" our seq 0 before we have multicast it.
        assert!(a.on_ack(MemberId(0), 0, MemberId(1), 9, &v).is_empty());
        assert_indexed(&a);
        let (_, dels) = a.multicast(b"x".to_vec(), &v);
        assert!(dels.is_empty());
        assert!(a.early_acks.is_empty());
        assert_indexed(&a);
        // Only member 2's ack was still missing.
        assert_eq!(a.on_ack(MemberId(0), 0, MemberId(2), 9, &v).len(), 1);
        assert_indexed(&a);
    }

    #[test]
    fn duplicate_data_joins_the_pending_entry() {
        let v = view(3);
        let mut a = SymmetricOrder::new(MemberId(0));
        a.on_data(MemberId(1), 0, 4, b"x".to_vec(), &v);
        // The same message again — and once more under a timestamp a
        // correct origin would never reuse: still one entry, first payload.
        a.on_data(MemberId(1), 0, 4, b"x".to_vec(), &v);
        a.on_data(MemberId(1), 0, 7, b"y".to_vec(), &v);
        assert_eq!(a.pending_count(), 1);
        assert_indexed(&a);
        let dels = a.on_ack(MemberId(1), 0, MemberId(2), 9, &v);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].payload, b"x");
        assert_indexed(&a);
    }

    /// `acks` and `pending` hold the same `(origin, seq)` keys.
    fn assert_indexed(s: &SymmetricOrder) {
        assert_eq!(s.acks.len(), s.pending.len());
        for (_, origin, seq) in s.pending.keys() {
            assert!(s.acks.contains_key(&(*origin, *seq)));
        }
    }

    /// A group over per-link FIFO queues whose interleaving the property
    /// chooses.  The last member never multicasts and may fall silent (stop
    /// processing, hence stop acking); the others then drop it from their
    /// view, each at its own time.
    struct Net {
        full: View,
        reduced: View,
        members: Vec<SymmetricOrder>,
        /// Whether each member has installed `reduced`.
        reduced_at: Vec<bool>,
        silent: bool,
        /// `queues[from][to]`, FIFO.
        queues: Vec<Vec<std::collections::VecDeque<GcMessage>>>,
        delivered: Vec<Vec<AppDeliver>>,
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
                queues: vec![vec![std::collections::VecDeque::new(); n]; n],
                delivered: vec![Vec::new(); n],
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

        fn record(&mut self, at: usize, dels: Vec<AppDeliver>) {
            self.delivered[at].extend(dels);
            assert_indexed(&self.members[at]);
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
                    self.broadcast(to, &ack);
                }
                GcMessage::Ack {
                    origin,
                    seq,
                    from,
                    clock,
                } => {
                    let dels = self.members[to].on_ack(origin, seq, from, clock, &view);
                    self.record(to, dels);
                }
                other => unreachable!("{other:?}"),
            }
        }

        /// Processes the head of `from → to`; with `twice`, a duplicate of
        /// it right behind.  A duplicated `Data` is only replayed while its
        /// message is still pending at `to`: links are FIFO and
        /// duplicate-free in NewTOP's model (and the fail-signal wrappers
        /// dedup below the GC), so a copy that outlives the delivery is not
        /// a case the protocol claims.
        fn step(&mut self, from: usize, to: usize, twice: bool) {
            if from == to || (self.silent && to == self.n() - 1) {
                return;
            }
            let Some(message) = self.queues[from][to].pop_front() else {
                return;
            };
            self.apply(to, &message);
            let still_pending = match &message {
                GcMessage::Data { origin, seq, .. } => !self.delivered[to]
                    .iter()
                    .any(|d| d.origin == *origin && d.seq == *seq),
                _ => true,
            };
            if twice && still_pending {
                self.apply(to, &message);
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

        fn drain(&mut self) {
            loop {
                let mut moved = false;
                for from in 0..self.n() {
                    for to in 0..self.n() {
                        let queued = self.queues[from][to].len();
                        self.step(from, to, false);
                        moved |= self.queues[from][to].len() != queued;
                    }
                }
                if !moved {
                    break;
                }
            }
        }
    }

    fn order_of(dels: &[AppDeliver]) -> Vec<(MemberId, u64, u64)> {
        dels.iter().map(|d| (d.origin, d.seq, d.order)).collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Any interleaving of multicasts, link steps (so acks overtake
        /// data on other links), duplicated data and acks, one member
        /// falling silent and the survivors dropping it at different times:
        /// every survivor delivers the same `(origin, seq, order)` sequence,
        /// all of it; the silent member a prefix; and `acks` mirrors
        /// `pending` after every single step.
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
                    2..=6 => net.step(a % n, b % n, false),
                    7 => net.step(a % n, b % n, true),
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
            let reference = order_of(&net.delivered[0]);
            prop_assert_eq!(reference.len(), sent as usize);
            for (i, entry) in reference.iter().enumerate() {
                prop_assert_eq!(entry.2, i as u64);
            }
            for member in 1..n - 1 {
                prop_assert_eq!(&order_of(&net.delivered[member]), &reference, "member {}", member);
                prop_assert_eq!(net.members[member].pending_count(), 0);
            }
            let last = order_of(&net.delivered[n - 1]);
            prop_assert!(reference.starts_with(&last), "the silent member holds a prefix");
            if !net.silent {
                prop_assert_eq!(last.len(), reference.len());
            }
        }

        /// Arbitrary calls — acks for messages never sent (our own future
        /// sequence numbers included), data under clashing timestamps,
        /// shrinking and growing views: `acks` never drifts from
        /// `pending` and delivery indices stay consecutive.
        #[test]
        fn arbitrary_calls_keep_the_index_in_step(
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
                    2 => s.on_ack(MemberId(who), seq, MemberId(ts as u32 % 3), ts, v),
                    _ => s.on_view_change(v),
                });
                assert_indexed(&s);
            }
            for (i, d) in delivered.iter().enumerate() {
                prop_assert_eq!(d.order, i as u64);
            }
            prop_assert_eq!(s.delivered_count(), delivered.len() as u64);
        }
    }
}
