//! Causal-order multicast (vector clocks with a hold-back queue).
//!
//! Each member keeps a vector clock indexed by the members of the *initial*
//! group.  A multicast carries the sender's vector clock; a receiver delivers
//! it once (a) it is the next message expected from that sender and (b) every
//! message the sender had already delivered when it sent has been delivered
//! locally too.  Messages that arrive early are held back.

use fs_common::id::MemberId;
use fs_common::Bytes;

use crate::message::{AppDeliver, GcMessage, ServiceKind};

/// Per-member state of the causal-order service.
#[derive(Debug, Clone)]
pub struct CausalOrder {
    me: MemberId,
    /// The initial group, fixing vector-clock indices.
    group: Vec<MemberId>,
    /// vc[i] = number of messages from group[i] delivered locally
    /// (for `me`'s own index: number of messages multicast).
    vc: Vec<u64>,
    /// Held-back messages: `(origin, origin's vc at send time, payload)`.
    holdback: Vec<(MemberId, Vec<u64>, Bytes, u64)>,
    delivered: u64,
    next_seq: u64,
}

impl CausalOrder {
    /// Creates the causal-order state for `me` within `group`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not part of `group`.
    pub fn new(me: MemberId, group: Vec<MemberId>) -> Self {
        assert!(group.contains(&me), "member must belong to its own group");
        let n = group.len();
        Self {
            me,
            group,
            vc: vec![0; n],
            holdback: Vec::new(),
            delivered: 0,
            next_seq: 0,
        }
    }

    fn index_of(&self, m: MemberId) -> Option<usize> {
        self.group.iter().position(|x| *x == m)
    }

    /// The local vector clock (exposed for tests).
    pub fn clock(&self) -> &[u64] {
        &self.vc
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Number of held-back messages.
    pub fn holdback_len(&self) -> usize {
        self.holdback.len()
    }

    /// Multicasts `payload`; returns the data message to send and the local
    /// self-delivery (a member always delivers its own causal multicasts
    /// immediately).
    pub fn multicast(&mut self, payload: impl Into<Bytes>) -> (GcMessage, AppDeliver) {
        let payload: Bytes = payload.into();
        let my_index = self.index_of(self.me).expect("checked in new");
        self.vc[my_index] += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let data = GcMessage::Data {
            origin: self.me,
            seq,
            ts: 0,
            vc: self.vc.clone(),
            service: ServiceKind::Causal,
            payload: payload.clone(),
        };
        let order = self.delivered;
        self.delivered += 1;
        (
            data,
            AppDeliver {
                origin: self.me,
                seq,
                order,
                service: ServiceKind::Causal,
                payload,
            },
        )
    }

    /// Handles an incoming causal data message; returns any deliveries it
    /// enables (possibly including previously held-back messages).
    pub fn on_data(
        &mut self,
        origin: MemberId,
        seq: u64,
        vc: Vec<u64>,
        payload: impl Into<Bytes>,
    ) -> Vec<AppDeliver> {
        let payload: Bytes = payload.into();
        if origin == self.me {
            return Vec::new(); // own messages are self-delivered at multicast time
        }
        if vc.len() != self.group.len() || self.index_of(origin).is_none() {
            // A malformed clock cannot come from a correct member; ignore it.
            return Vec::new();
        }
        self.holdback.push((origin, vc, payload, seq));
        self.drain_holdback()
    }

    fn deliverable(&self, origin: MemberId, vc: &[u64]) -> bool {
        let oi = self.index_of(origin).expect("validated");
        if vc[oi] != self.vc[oi] + 1 {
            return false;
        }
        vc.iter()
            .enumerate()
            .all(|(k, &v)| k == oi || v <= self.vc[k])
    }

    fn drain_holdback(&mut self) -> Vec<AppDeliver> {
        let mut out = Vec::new();
        while let Some(pos) = self
            .holdback
            .iter()
            .position(|(origin, vc, _, _)| self.deliverable(*origin, vc))
        {
            let (origin, _vc, payload, seq) = self.holdback.remove(pos);
            let oi = self.index_of(origin).expect("validated");
            self.vc[oi] += 1;
            let order = self.delivered;
            self.delivered += 1;
            out.push(AppDeliver {
                origin,
                seq,
                order,
                service: ServiceKind::Causal,
                payload,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(n: u32) -> Vec<MemberId> {
        (0..n).map(MemberId).collect()
    }

    #[test]
    fn own_multicast_is_self_delivered() {
        let mut c = CausalOrder::new(MemberId(0), group(3));
        let (_data, deliver) = c.multicast(b"x".to_vec());
        assert_eq!(deliver.origin, MemberId(0));
        assert_eq!(c.delivered_count(), 1);
        assert_eq!(c.clock(), &[1, 0, 0]);
    }

    #[test]
    fn in_order_messages_deliver_immediately() {
        let mut sender = CausalOrder::new(MemberId(0), group(2));
        let mut receiver = CausalOrder::new(MemberId(1), group(2));
        let (data, _) = sender.multicast(b"a".to_vec());
        let GcMessage::Data {
            origin,
            seq,
            vc,
            payload,
            ..
        } = data
        else {
            unreachable!()
        };
        let dels = receiver.on_data(origin, seq, vc, payload);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].payload, b"a");
    }

    #[test]
    fn causal_dependency_is_respected() {
        // m1 from member 0, then m2 from member 1 which causally follows m1.
        let g = group(3);
        let mut a = CausalOrder::new(MemberId(0), g.clone());
        let mut b = CausalOrder::new(MemberId(1), g.clone());
        let mut c = CausalOrder::new(MemberId(2), g.clone());

        let (m1, _) = a.multicast(b"m1".to_vec());
        let GcMessage::Data {
            origin: o1,
            seq: s1,
            vc: vc1,
            payload: p1,
            ..
        } = m1
        else {
            unreachable!()
        };
        // b receives m1 and then multicasts m2 (causally after m1).
        b.on_data(o1, s1, vc1.clone(), p1.clone());
        let (m2, _) = b.multicast(b"m2".to_vec());
        let GcMessage::Data {
            origin: o2,
            seq: s2,
            vc: vc2,
            payload: p2,
            ..
        } = m2
        else {
            unreachable!()
        };

        // c receives m2 *before* m1: it must hold m2 back.
        let dels = c.on_data(o2, s2, vc2, p2);
        assert!(dels.is_empty());
        assert_eq!(c.holdback_len(), 1);
        // When m1 arrives both become deliverable, m1 first.
        let dels = c.on_data(o1, s1, vc1, p1);
        assert_eq!(dels.len(), 2);
        assert_eq!(dels[0].payload, b"m1");
        assert_eq!(dels[1].payload, b"m2");
    }

    #[test]
    fn fifo_from_single_sender_is_preserved() {
        let g = group(2);
        let mut a = CausalOrder::new(MemberId(0), g.clone());
        let mut b = CausalOrder::new(MemberId(1), g);
        let (m1, _) = a.multicast(b"1".to_vec());
        let (m2, _) = a.multicast(b"2".to_vec());
        let unpack = |m: GcMessage| match m {
            GcMessage::Data {
                origin,
                seq,
                vc,
                payload,
                ..
            } => (origin, seq, vc, payload),
            _ => unreachable!(),
        };
        let (o2, s2, vc2, p2) = unpack(m2);
        let (o1, s1, vc1, p1) = unpack(m1);
        // Second message arrives first: held back.
        assert!(b.on_data(o2, s2, vc2, p2).is_empty());
        let dels = b.on_data(o1, s1, vc1, p1);
        assert_eq!(dels.len(), 2);
        assert_eq!(dels[0].payload, b"1");
        assert_eq!(dels[1].payload, b"2");
    }

    #[test]
    fn malformed_vector_clock_is_ignored() {
        let mut c = CausalOrder::new(MemberId(0), group(3));
        assert!(c
            .on_data(MemberId(1), 0, vec![1], b"bad".to_vec())
            .is_empty());
        assert!(c
            .on_data(MemberId(9), 0, vec![1, 0, 0], b"bad".to_vec())
            .is_empty());
        assert_eq!(c.holdback_len(), 0);
    }

    #[test]
    #[should_panic(expected = "belong to its own group")]
    fn member_outside_group_panics() {
        CausalOrder::new(MemberId(9), group(2));
    }

    #[test]
    fn duplicate_own_message_is_not_redelivered() {
        let mut a = CausalOrder::new(MemberId(0), group(2));
        let (data, _) = a.multicast(b"x".to_vec());
        let GcMessage::Data {
            origin,
            seq,
            vc,
            payload,
            ..
        } = data
        else {
            unreachable!()
        };
        assert!(a.on_data(origin, seq, vc, payload).is_empty());
        assert_eq!(a.delivered_count(), 1);
    }
}
