//! The asymmetric (sequencer-based) total-order protocol.
//!
//! One member of the current view — deterministically, the smallest member
//! identifier — acts as the *sequencer*.  Senders multicast their `Data`
//! message to the whole group; the sequencer assigns consecutive global
//! sequence numbers and multicasts `Order` decisions; every member delivers
//! messages in global-sequence order once it holds both the data and its
//! order.  Compared with the symmetric service this needs O(n) messages per
//! multicast instead of O(n²), at the price of a sequencing bottleneck.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used
)]

use std::collections::BTreeMap;

use fs_common::id::MemberId;
use fs_common::Bytes;

use crate::message::{AppDeliver, GcMessage, ServiceKind};
use crate::view::View;

/// Per-member state of the sequencer-based total-order protocol.
#[derive(Debug, Clone)]
pub struct SequencerOrder {
    me: MemberId,
    next_seq: u64,
    /// Next global sequence number to assign (meaningful only at the sequencer).
    next_assign: u64,
    /// Next global sequence number to deliver locally.
    next_deliver: u64,
    /// Data messages waiting for their order, keyed by `(origin, seq)`.
    waiting_data: BTreeMap<(MemberId, u64), Bytes>,
    /// Order decisions waiting for their data, keyed by the global sequence.
    orders: BTreeMap<u64, (MemberId, u64)>,
    /// Messages already sequenced by this node while acting as sequencer, to
    /// avoid double-assignment after retransmission.
    assigned: BTreeMap<(MemberId, u64), u64>,
}

impl SequencerOrder {
    /// Creates the protocol state for member `me`.
    pub fn new(me: MemberId) -> Self {
        Self {
            me,
            next_seq: 0,
            next_assign: 0,
            next_deliver: 0,
            waiting_data: BTreeMap::new(),
            orders: BTreeMap::new(),
            assigned: BTreeMap::new(),
        }
    }

    /// True when `me` is the sequencer of `view`.
    pub fn is_sequencer(&self, view: &View) -> bool {
        view.sequencer() == Some(self.me)
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.next_deliver
    }

    /// Multicasts `payload`.  Returns the messages to send to the other view
    /// members and any local deliveries that become possible.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`next_seq` grows by one per local multicast: 2^64 of them are out of reach"
    )]
    pub fn multicast(
        &mut self,
        payload: impl Into<Bytes>,
        view: &View,
    ) -> (Vec<GcMessage>, Vec<AppDeliver>) {
        let payload: Bytes = payload.into();
        let seq = self.next_seq;
        self.next_seq += 1;
        let data = GcMessage::Data {
            origin: self.me,
            seq,
            ts: 0,
            vc: Vec::new(),
            service: ServiceKind::AsymmetricTotal,
            payload: payload.clone(),
        };
        self.waiting_data.insert((self.me, seq), payload);
        let mut to_send = vec![data];
        if self.is_sequencer(view) {
            to_send.extend(self.assign(self.me, seq));
        }
        (to_send, self.try_deliver())
    }

    /// Handles a `Data` message.  Returns order decisions to multicast (when
    /// acting as sequencer) and any local deliveries.
    pub fn on_data(
        &mut self,
        origin: MemberId,
        seq: u64,
        payload: impl Into<Bytes>,
        view: &View,
    ) -> (Vec<GcMessage>, Vec<AppDeliver>) {
        let payload: Bytes = payload.into();
        self.waiting_data.entry((origin, seq)).or_insert(payload);
        let mut to_send = Vec::new();
        if self.is_sequencer(view) {
            to_send.extend(self.assign(origin, seq));
        }
        (to_send, self.try_deliver())
    }

    /// Handles an `Order` decision from the sequencer.
    pub fn on_order(&mut self, global_seq: u64, origin: MemberId, seq: u64) -> Vec<AppDeliver> {
        self.orders.insert(global_seq, (origin, seq));
        self.try_deliver()
    }

    /// Called after a view change.  If this member has just become the
    /// sequencer it assigns orders to every data message it holds that has
    /// not been sequenced yet (in deterministic `(origin, seq)` order).
    pub fn on_view_change(&mut self, view: &View) -> (Vec<GcMessage>, Vec<AppDeliver>) {
        let mut to_send = Vec::new();
        if self.is_sequencer(view) {
            // Continue the global sequence after the highest order we know
            // of.  A peer may claim the last one: the space is then
            // exhausted, and `assign` hands out nothing more.
            let max_known = self.orders.keys().next_back().copied();
            if let Some(max) = max_known {
                self.next_assign = self.next_assign.max(max.saturating_add(1));
            }
            self.next_assign = self.next_assign.max(self.next_deliver);
            let unsequenced: Vec<(MemberId, u64)> = self
                .waiting_data
                .keys()
                .filter(|k| {
                    !self.assigned.contains_key(k) && !self.orders.values().any(|v| v == *k)
                })
                .copied()
                .collect();
            for (origin, seq) in unsequenced {
                to_send.extend(self.assign(origin, seq));
            }
        }
        (to_send, self.try_deliver())
    }

    fn assign(&mut self, origin: MemberId, seq: u64) -> Vec<GcMessage> {
        if self.assigned.contains_key(&(origin, seq)) {
            return Vec::new();
        }
        let global_seq = self.next_assign;
        let Some(next) = global_seq.checked_add(1) else {
            return Vec::new();
        };
        self.next_assign = next;
        self.assigned.insert((origin, seq), global_seq);
        self.orders.insert(global_seq, (origin, seq));
        vec![GcMessage::Order {
            sequencer: self.me,
            global_seq,
            origin,
            seq,
        }]
    }

    fn try_deliver(&mut self) -> Vec<AppDeliver> {
        let mut out = Vec::new();
        while let Some(&(origin, seq)) = self.orders.get(&self.next_deliver) {
            let Some(payload) = self.waiting_data.get(&(origin, seq)) else {
                break;
            };
            let Some(next) = self.next_deliver.checked_add(1) else {
                break;
            };
            out.push(AppDeliver {
                origin,
                seq,
                order: self.next_deliver,
                service: ServiceKind::AsymmetricTotal,
                payload: payload.clone(),
            });
            self.waiting_data.remove(&(origin, seq));
            self.orders.remove(&self.next_deliver);
            self.next_deliver = next;
        }
        out
    }
}

#[cfg(test)]
#[allow(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "tests index, count and unwrap what they built themselves"
)]
mod tests {
    use super::*;

    fn view(n: u32) -> View {
        View::initial((0..n).map(MemberId))
    }

    /// A hand-driven harness that relays all protocol messages immediately.
    struct Harness {
        view: View,
        members: Vec<SequencerOrder>,
        delivered: Vec<Vec<AppDeliver>>,
    }

    impl Harness {
        fn new(n: u32) -> Self {
            Self {
                view: view(n),
                members: (0..n).map(|i| SequencerOrder::new(MemberId(i))).collect(),
                delivered: (0..n).map(|_| Vec::new()).collect(),
            }
        }

        fn relay(&mut self, from: usize, msgs: Vec<GcMessage>) {
            for msg in msgs {
                for i in 0..self.members.len() {
                    if i == from {
                        continue;
                    }
                    match &msg {
                        GcMessage::Data {
                            origin,
                            seq,
                            payload,
                            ..
                        } => {
                            let view = self.view.clone();
                            let (more, dels) =
                                self.members[i].on_data(*origin, *seq, payload.clone(), &view);
                            self.delivered[i].extend(dels);
                            self.relay(i, more);
                        }
                        GcMessage::Order {
                            global_seq,
                            origin,
                            seq,
                            ..
                        } => {
                            let dels = self.members[i].on_order(*global_seq, *origin, *seq);
                            self.delivered[i].extend(dels);
                        }
                        _ => unreachable!("asymmetric protocol only sends data and order"),
                    }
                }
            }
        }

        fn multicast(&mut self, sender: usize, payload: &[u8]) {
            let view = self.view.clone();
            let (msgs, dels) = self.members[sender].multicast(payload.to_vec(), &view);
            self.delivered[sender].extend(dels);
            self.relay(sender, msgs);
        }

        fn orders(&self) -> Vec<Vec<(MemberId, u64)>> {
            self.delivered
                .iter()
                .map(|d| d.iter().map(|a| (a.origin, a.seq)).collect())
                .collect()
        }
    }

    #[test]
    fn sequencer_is_lowest_member() {
        let s = SequencerOrder::new(MemberId(0));
        assert!(s.is_sequencer(&view(3)));
        let s = SequencerOrder::new(MemberId(1));
        assert!(!s.is_sequencer(&view(3)));
    }

    #[test]
    fn members_agree_on_order() {
        let mut h = Harness::new(4);
        h.multicast(1, b"a");
        h.multicast(3, b"b");
        h.multicast(0, b"c");
        h.multicast(2, b"d");
        let orders = h.orders();
        assert_eq!(orders[0].len(), 4);
        for o in &orders[1..] {
            assert_eq!(o, &orders[0]);
        }
    }

    #[test]
    fn delivery_waits_for_order_and_data() {
        let v = view(3);
        let mut m = SequencerOrder::new(MemberId(2));
        // Order arrives before data.
        assert!(m.on_order(0, MemberId(1), 0).is_empty());
        let (_msgs, dels) = m.on_data(MemberId(1), 0, b"x".to_vec(), &v);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].order, 0);
    }

    #[test]
    fn deliveries_follow_global_sequence() {
        let mut m = SequencerOrder::new(MemberId(2));
        let v = view(3);
        // Data for both messages.
        m.on_data(MemberId(1), 0, b"first".to_vec(), &v);
        m.on_data(MemberId(0), 0, b"second".to_vec(), &v);
        // Order 1 arrives before order 0: nothing deliverable yet.
        assert!(m.on_order(1, MemberId(0), 0).is_empty());
        let dels = m.on_order(0, MemberId(1), 0);
        assert_eq!(dels.len(), 2);
        assert_eq!(dels[0].payload, b"first");
        assert_eq!(dels[1].payload, b"second");
        assert_eq!(m.delivered_count(), 2);
    }

    #[test]
    fn new_sequencer_takes_over_after_view_change() {
        let v0 = view(3);
        // Member 1 holds data that member 0 (the failed sequencer) never ordered.
        let mut m1 = SequencerOrder::new(MemberId(1));
        m1.on_data(MemberId(2), 0, b"orphan".to_vec(), &v0);
        assert_eq!(m1.delivered_count(), 0);
        let v1 = v0.without(MemberId(0)).unwrap();
        let (msgs, dels) = m1.on_view_change(&v1);
        // Member 1 is now the sequencer and orders the orphan message.
        assert_eq!(msgs.len(), 1);
        assert!(matches!(
            msgs[0],
            GcMessage::Order {
                sequencer: MemberId(1),
                ..
            }
        ));
        assert_eq!(dels.len(), 1);
    }

    #[test]
    fn sequencer_does_not_double_assign() {
        let v = view(2);
        let mut seq = SequencerOrder::new(MemberId(0));
        let (msgs1, _) = seq.on_data(MemberId(1), 0, b"x".to_vec(), &v);
        assert_eq!(msgs1.len(), 1);
        // Duplicate data (e.g. a retransmission) must not produce a second order.
        let (msgs2, _) = seq.on_data(MemberId(1), 0, b"x".to_vec(), &v);
        assert!(msgs2.is_empty());
    }
}
