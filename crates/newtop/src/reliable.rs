//! Reliable and simple (unreliable) multicast services.
//!
//! The reliable service uses flood-based relaying: on the first receipt of a
//! data message a member delivers it and re-multicasts it to the rest of the
//! group, so a message delivered anywhere is eventually delivered everywhere
//! even if the original sender crashes midway through its multicast.
//!
//! Relaying alone cannot recover a message whose *every* copy was lost in
//! flight (a lossy or severed link eating both the direct copy and the
//! relays), so the service also runs a NACK/retransmit layer: per-origin
//! sequence numbers are contiguous, a receipt that jumps ahead reveals the
//! gap, and the receiver NACKs the missing `(origin, seq)` pairs back to the
//! peer whose message exposed them.  Every member retains the payloads it has
//! delivered and answers NACKs with retransmitted data.
//!
//! The simple service delivers whatever arrives, with no relaying and no
//! duplicate suppression beyond per-`(origin, seq)` bookkeeping.

use std::collections::{BTreeMap, BTreeSet};

use fs_common::id::MemberId;
use fs_common::Bytes;

use crate::message::{AppDeliver, GcMessage, ServiceKind};

/// What a [`ReliableMulticast::on_data`] receipt produced.
#[derive(Debug, Clone, Default)]
pub struct ReliableReceipt {
    /// The relay message to re-multicast (first receipt only).
    pub relay: Option<GcMessage>,
    /// The local delivery (first receipt only).
    pub deliver: Option<AppDeliver>,
    /// Per-origin sequence numbers this receipt revealed as missing: every
    /// seq below the received one that has not been seen yet.  The caller
    /// NACKs these back to the peer the data came from.
    pub missing: Vec<u64>,
}

/// Per-member state of the reliable-multicast service.
#[derive(Debug, Clone, Default)]
pub struct ReliableMulticast {
    seen: BTreeSet<(MemberId, u64)>,
    /// Lowest per-origin seq not yet seen contiguously from 0 — the gap scan
    /// starts here, so detection stays O(gap) rather than O(history).
    contiguous: BTreeMap<MemberId, u64>,
    /// Delivered payloads, retained to answer NACKs.
    retained: BTreeMap<(MemberId, u64), Bytes>,
    delivered: u64,
    next_seq: u64,
    relayed: u64,
    nacks_sent: u64,
    retransmits: u64,
}

impl ReliableMulticast {
    /// Creates an empty reliable-multicast state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Number of relay transmissions performed so far.
    pub fn relayed_count(&self) -> u64 {
        self.relayed
    }

    /// Number of gap sequence numbers this member has NACKed so far.
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// Number of NACKs this member has answered with a retransmission.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Multicasts `payload` as member `me`; returns the data message to send
    /// and the local self-delivery.
    pub fn multicast(
        &mut self,
        me: MemberId,
        payload: impl Into<Bytes>,
    ) -> (GcMessage, AppDeliver) {
        let payload: Bytes = payload.into();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seen.insert((me, seq));
        self.retained.insert((me, seq), payload.clone());
        let data = GcMessage::Data {
            origin: me,
            seq,
            ts: 0,
            vc: Vec::new(),
            service: ServiceKind::Reliable,
            payload: payload.clone(),
        };
        let order = self.delivered;
        self.delivered += 1;
        (
            data,
            AppDeliver {
                origin: me,
                seq,
                order,
                service: ServiceKind::Reliable,
                payload,
            },
        )
    }

    /// Handles an incoming reliable data message: relays and delivers on
    /// first receipt, and reports any per-origin gap the receipt revealed so
    /// the caller can NACK it.
    pub fn on_data(
        &mut self,
        origin: MemberId,
        seq: u64,
        payload: impl Into<Bytes>,
    ) -> ReliableReceipt {
        let payload: Bytes = payload.into();
        if !self.seen.insert((origin, seq)) {
            return ReliableReceipt::default(); // duplicate or retransmit of a seen message
        }
        self.retained.insert((origin, seq), payload.clone());
        // Gap scan: everything from the contiguous frontier up to (but not
        // including) this seq that is still unseen is missing in flight —
        // per-origin seqs are assigned contiguously at the origin.
        let frontier = self.contiguous.entry(origin).or_insert(0);
        let missing: Vec<u64> = (*frontier..seq)
            .filter(|s| !self.seen.contains(&(origin, *s)))
            .collect();
        while self.seen.contains(&(origin, *frontier)) {
            *frontier += 1;
        }
        self.nacks_sent += missing.len() as u64;
        let relay = GcMessage::Data {
            origin,
            seq,
            ts: 0,
            vc: Vec::new(),
            service: ServiceKind::Reliable,
            payload: payload.clone(),
        };
        self.relayed += 1;
        let order = self.delivered;
        self.delivered += 1;
        let deliver = AppDeliver {
            origin,
            seq,
            order,
            service: ServiceKind::Reliable,
            payload,
        };
        ReliableReceipt {
            relay: Some(relay),
            deliver: Some(deliver),
            missing,
        }
    }

    /// Answers a NACK for `(origin, seq)`: the retransmitted data message if
    /// this member still retains the payload, `None` otherwise.
    pub fn on_nack(&mut self, origin: MemberId, seq: u64) -> Option<GcMessage> {
        let payload = self.retained.get(&(origin, seq))?.clone();
        self.retransmits += 1;
        Some(GcMessage::Data {
            origin,
            seq,
            ts: 0,
            vc: Vec::new(),
            service: ServiceKind::Reliable,
            payload,
        })
    }
}

/// Per-member state of the simple (unreliable) multicast service.
#[derive(Debug, Clone, Default)]
pub struct SimpleMulticast {
    delivered: u64,
    next_seq: u64,
}

impl SimpleMulticast {
    /// Creates an empty simple-multicast state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Multicasts `payload` as member `me`; returns the data message and the
    /// local self-delivery.
    pub fn multicast(
        &mut self,
        me: MemberId,
        payload: impl Into<Bytes>,
    ) -> (GcMessage, AppDeliver) {
        let payload: Bytes = payload.into();
        let seq = self.next_seq;
        self.next_seq += 1;
        let data = GcMessage::Data {
            origin: me,
            seq,
            ts: 0,
            vc: Vec::new(),
            service: ServiceKind::Unreliable,
            payload: payload.clone(),
        };
        let order = self.delivered;
        self.delivered += 1;
        (
            data,
            AppDeliver {
                origin: me,
                seq,
                order,
                service: ServiceKind::Unreliable,
                payload,
            },
        )
    }

    /// Handles an incoming simple data message: always delivered, never
    /// relayed.
    pub fn on_data(&mut self, origin: MemberId, seq: u64, payload: impl Into<Bytes>) -> AppDeliver {
        let payload: Bytes = payload.into();
        let order = self.delivered;
        self.delivered += 1;
        AppDeliver {
            origin,
            seq,
            order,
            service: ServiceKind::Unreliable,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_first_receipt_delivers_and_relays() {
        let mut r = ReliableMulticast::new();
        let receipt = r.on_data(MemberId(1), 0, b"x".to_vec());
        assert!(receipt.relay.is_some());
        assert_eq!(receipt.deliver.unwrap().payload, b"x");
        assert!(receipt.missing.is_empty());
        assert_eq!(r.delivered_count(), 1);
        assert_eq!(r.relayed_count(), 1);
    }

    #[test]
    fn reliable_duplicates_are_suppressed() {
        let mut r = ReliableMulticast::new();
        r.on_data(MemberId(1), 0, b"x".to_vec());
        let receipt = r.on_data(MemberId(1), 0, b"x".to_vec());
        assert!(receipt.relay.is_none());
        assert!(receipt.deliver.is_none());
        assert_eq!(r.delivered_count(), 1);
    }

    #[test]
    fn reliable_own_multicast_is_not_redelivered_via_relay() {
        let mut r = ReliableMulticast::new();
        let (data, deliver) = r.multicast(MemberId(0), b"mine".to_vec());
        assert_eq!(deliver.origin, MemberId(0));
        // The message comes back via a relaying peer: must be suppressed.
        let GcMessage::Data {
            origin,
            seq,
            payload,
            ..
        } = data
        else {
            unreachable!()
        };
        let receipt = r.on_data(origin, seq, payload);
        assert!(receipt.relay.is_none());
        assert!(receipt.deliver.is_none());
        assert_eq!(r.delivered_count(), 1);
    }

    #[test]
    fn reliable_distinct_messages_all_deliver() {
        let mut r = ReliableMulticast::new();
        for seq in 0..5 {
            let receipt = r.on_data(MemberId(2), seq, vec![seq as u8]);
            assert!(receipt.deliver.is_some());
            assert!(receipt.missing.is_empty(), "in-order receipts have no gaps");
        }
        assert_eq!(r.delivered_count(), 5);
        assert_eq!(r.nacks_sent(), 0);
    }

    #[test]
    fn gap_in_origin_sequence_is_reported_once() {
        let mut r = ReliableMulticast::new();
        r.on_data(MemberId(1), 0, b"a".to_vec());
        // Seqs 1 and 2 are lost in flight; 3 arrives and exposes them.
        let receipt = r.on_data(MemberId(1), 3, b"d".to_vec());
        assert_eq!(receipt.missing, vec![1, 2]);
        assert_eq!(r.nacks_sent(), 2);
        // A later receipt re-reports the still-outstanding gap — the retry
        // that covers a lost NACK or lost retransmission.
        let receipt = r.on_data(MemberId(1), 4, b"e".to_vec());
        assert_eq!(receipt.missing, vec![1, 2], "still outstanding");
        // Once the retransmits land, the frontier advances and the gap closes.
        let receipt = r.on_data(MemberId(1), 1, b"b".to_vec());
        assert!(receipt.missing.is_empty());
        assert!(receipt.deliver.is_some(), "late message still delivers");
        let receipt = r.on_data(MemberId(1), 2, b"c".to_vec());
        assert!(receipt.missing.is_empty());
        let receipt = r.on_data(MemberId(1), 5, b"f".to_vec());
        assert!(receipt.missing.is_empty(), "frontier caught up");
    }

    #[test]
    fn gaps_are_tracked_per_origin() {
        let mut r = ReliableMulticast::new();
        let receipt = r.on_data(MemberId(1), 2, b"x".to_vec());
        assert_eq!(receipt.missing, vec![0, 1]);
        // A different origin's clean stream reports nothing.
        let receipt = r.on_data(MemberId(2), 0, b"y".to_vec());
        assert!(receipt.missing.is_empty());
    }

    #[test]
    fn nack_is_answered_from_retained_payloads() {
        let mut r = ReliableMulticast::new();
        r.on_data(MemberId(1), 0, b"relayed".to_vec());
        let (_, _) = r.multicast(MemberId(0), b"own".to_vec());
        // Both relayed and own messages are retained and retransmittable.
        let data = r.on_nack(MemberId(1), 0).expect("retained relay");
        let GcMessage::Data {
            payload, service, ..
        } = data
        else {
            unreachable!()
        };
        assert_eq!(payload, b"relayed");
        assert_eq!(service, ServiceKind::Reliable);
        assert!(
            r.on_nack(MemberId(0), 0).is_some(),
            "own multicast retained"
        );
        assert!(r.on_nack(MemberId(3), 9).is_none(), "unknown message");
        assert_eq!(r.retransmits(), 2);
    }

    #[test]
    fn simple_multicast_delivers_everything_including_duplicates() {
        let mut s = SimpleMulticast::new();
        let (_, d) = s.multicast(MemberId(0), b"a".to_vec());
        assert_eq!(d.order, 0);
        let d1 = s.on_data(MemberId(1), 0, b"b".to_vec());
        let d2 = s.on_data(MemberId(1), 0, b"b".to_vec());
        assert_eq!(d1.order, 1);
        assert_eq!(d2.order, 2);
        assert_eq!(s.delivered_count(), 3);
    }

    #[test]
    fn sequence_numbers_increase_per_sender() {
        let mut r = ReliableMulticast::new();
        let (d1, _) = r.multicast(MemberId(0), b"a".to_vec());
        let (d2, _) = r.multicast(MemberId(0), b"b".to_vec());
        let seq = |m: &GcMessage| match m {
            GcMessage::Data { seq, .. } => *seq,
            _ => unreachable!(),
        };
        assert_eq!(seq(&d1), 0);
        assert_eq!(seq(&d2), 1);
    }
}
