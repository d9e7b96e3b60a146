//! Wire messages of the NewTOP group communication service.
//!
//! Three layers of vocabulary are defined here:
//!
//! * **application ↔ invocation layer**: [`AppRequest`] (the marshalled
//!   multicast request, the analogue of NewTOP's generic CORBA `any`
//!   argument) and [`AppDeliver`] / [`ViewDeliver`] (what the invocation
//!   layer hands back to the application);
//! * **GC ↔ GC**: [`GcMessage`] — the protocol messages exchanged between
//!   group communication objects (data, symmetric-order acknowledgements,
//!   sequencer orders, ping/pong, suspicion notices);
//! * **environment ↔ GC**: [`ControlInput`] — suspicions fed by the failure
//!   suspector (timeout-based in NewTOP, fail-signal-driven in FS-NewTOP).

use fs_common::codec::{Decoder, Encoder, Wire};
use fs_common::error::CodecError;
use fs_common::id::MemberId;
use fs_common::Bytes;

/// Which NewTOP service a multicast requests (§3: the Invocation service
/// "allows the application to specify the type of NewTOP service needed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceKind {
    /// Symmetric total order: ordered only after logical acknowledgement by
    /// all members (message intensive; the paper's benchmark workload).
    SymmetricTotal,
    /// Asymmetric total order: a sequencer member assigns the order.
    AsymmetricTotal,
    /// Reliable multicast (flood-based relay, no ordering guarantee).
    Reliable,
    /// Simple unreliable multicast.
    Unreliable,
    /// Causal order multicast (vector-clock based).
    Causal,
}

impl ServiceKind {
    const ALL: [ServiceKind; 5] = [
        ServiceKind::SymmetricTotal,
        ServiceKind::AsymmetricTotal,
        ServiceKind::Reliable,
        ServiceKind::Unreliable,
        ServiceKind::Causal,
    ];

    fn tag(self) -> u8 {
        match self {
            ServiceKind::SymmetricTotal => 0,
            ServiceKind::AsymmetricTotal => 1,
            ServiceKind::Reliable => 2,
            ServiceKind::Unreliable => 3,
            ServiceKind::Causal => 4,
        }
    }

    fn from_tag(t: u8) -> Result<Self, CodecError> {
        Self::ALL
            .into_iter()
            .find(|s| s.tag() == t)
            .ok_or(CodecError::UnknownTag(t))
    }
}

impl Wire for ServiceKind {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.tag());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Self::from_tag(dec.get_u8()?)
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

/// A multicast request marshalled by the invocation layer and handed to the
/// GC object (the analogue of the CORBA `any`-typed invocation in NewTOP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRequest {
    /// The service requested.
    pub service: ServiceKind,
    /// The opaque application payload (refcount-shared: decoded as a view
    /// of the request frame, spliced into the frames that carry it on).
    pub payload: Bytes,
}

impl Wire for AppRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.service.encode(enc);
        enc.put_shared(&self.payload);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            service: ServiceKind::decode(dec)?,
            payload: dec.get_bytes_shared()?,
        })
    }
    fn encoded_len(&self) -> usize {
        1 + 4 + self.payload.len()
    }
}

/// A message delivered by the GC object to the local application through the
/// invocation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppDeliver {
    /// The member that multicast the message.
    pub origin: MemberId,
    /// The origin's per-member sequence number for this message.
    pub seq: u64,
    /// The position of this delivery in the local delivery order (for the
    /// total-order services this is the agreed global order).
    pub order: u64,
    /// The service that carried the message.
    pub service: ServiceKind,
    /// The application payload (a view of the frame it was decoded from).
    pub payload: Bytes,
}

impl Wire for AppDeliver {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_member(self.origin);
        enc.put_u64(self.seq);
        enc.put_u64(self.order);
        self.service.encode(enc);
        enc.put_shared(&self.payload);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            origin: dec.get_member()?,
            seq: dec.get_u64()?,
            order: dec.get_u64()?,
            service: ServiceKind::decode(dec)?,
            payload: dec.get_bytes_shared()?,
        })
    }
    fn encoded_len(&self) -> usize {
        4 + 8 + 8 + 1 + 4 + self.payload.len()
    }
}

/// A view (membership) change delivered to the local application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDeliver {
    /// Monotonically increasing view number.
    pub view_id: u64,
    /// The members of the new view, in ascending order.
    pub members: Vec<MemberId>,
}

impl Wire for ViewDeliver {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.view_id);
        enc.put_u32(self.members.len() as u32);
        for m in &self.members {
            enc.put_member(*m);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let view_id = dec.get_u64()?;
        let n = dec.get_u32()? as usize;
        let mut members = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            members.push(dec.get_member()?);
        }
        Ok(Self { view_id, members })
    }
    fn encoded_len(&self) -> usize {
        8 + 4 + 4 * self.members.len()
    }
}

/// Everything the invocation layer can hand up to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Upcall {
    /// An ordinary message delivery.
    Deliver(AppDeliver),
    /// A membership change.
    View(ViewDeliver),
}

impl Wire for Upcall {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Upcall::Deliver(d) => {
                enc.put_u8(0);
                d.encode(enc);
            }
            Upcall::View(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(Upcall::Deliver(AppDeliver::decode(dec)?)),
            1 => Ok(Upcall::View(ViewDeliver::decode(dec)?)),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Upcall::Deliver(d) => d.encoded_len(),
            Upcall::View(v) => v.encoded_len(),
        }
    }
}

/// Protocol messages exchanged between GC objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcMessage {
    /// An application message multicast by `origin`.
    Data {
        /// The multicasting member.
        origin: MemberId,
        /// The origin's per-member sequence number.
        seq: u64,
        /// The origin's Lamport timestamp at multicast time (symmetric order).
        ts: u64,
        /// The origin's vector clock at multicast time (causal order); empty
        /// for services that do not need it.
        vc: Vec<u64>,
        /// The service this message was submitted under.
        service: ServiceKind,
        /// The application payload (a view of the frame it was decoded
        /// from; held by refcount while the message awaits its order).
        payload: Bytes,
    },
    /// A symmetric-total-order acknowledgement by `from` of everything
    /// timestamped below `clock`.
    Ack {
        /// The acknowledging member.
        from: MemberId,
        /// The acknowledging member's Lamport clock after receipt.
        clock: u64,
        /// How many `Data` messages `from` had multicast before this one
        /// (its next sequence number): the receiver believes `clock` only
        /// if it holds them all.
        sent_count: u64,
    },
    /// A sequencing decision by the asymmetric-order sequencer.
    Order {
        /// The sequencer issuing the decision.
        sequencer: MemberId,
        /// The agreed global sequence number.
        global_seq: u64,
        /// The ordered message's origin.
        origin: MemberId,
        /// The ordered message's per-origin sequence number.
        seq: u64,
    },
    /// A liveness probe from the (timeout-based) failure suspector.
    Ping {
        /// The probing member.
        from: MemberId,
        /// Correlation nonce echoed by the pong.
        nonce: u64,
    },
    /// The answer to a [`GcMessage::Ping`].
    Pong {
        /// The answering member.
        from: MemberId,
        /// The nonce from the ping.
        nonce: u64,
    },
    /// A suspicion notice: `from` suspects `suspect` and asks the group to
    /// install the corresponding view change.
    Suspect {
        /// The suspected member.
        suspect: MemberId,
        /// The member announcing the suspicion.
        from: MemberId,
    },
    /// A negative acknowledgement: `from` noticed a gap in `origin`'s
    /// reliable-multicast sequence and asks for `(origin, seq)` to be
    /// retransmitted.  Sent point-to-point to a peer believed to hold the
    /// message (the peer whose out-of-order data revealed the gap); the
    /// receiver answers with a retransmitted [`GcMessage::Data`] if it still
    /// retains the payload.
    Nack {
        /// The origin of the missing message.
        origin: MemberId,
        /// The missing per-origin sequence number.
        seq: u64,
        /// The member requesting retransmission.
        from: MemberId,
    },
}

impl GcMessage {
    /// The wire tag of [`GcMessage::Pong`].
    const TAG_PONG: u8 = 4;

    /// `Some((from, nonce))` when `bytes` encode a [`GcMessage::Pong`].
    /// Looks at the tag first, so asking this of a `Data` message costs one
    /// byte compare — the hosting adapter asks it of every peer message.
    pub fn decode_pong(bytes: &[u8]) -> Option<(MemberId, u64)> {
        if bytes.first() != Some(&Self::TAG_PONG) {
            return None;
        }
        match Self::from_wire(bytes) {
            Ok(GcMessage::Pong { from, nonce }) => Some((from, nonce)),
            _ => None,
        }
    }

    /// A short tag naming the variant, for traces and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            GcMessage::Data { .. } => "data",
            GcMessage::Ack { .. } => "ack",
            GcMessage::Order { .. } => "order",
            GcMessage::Ping { .. } => "ping",
            GcMessage::Pong { .. } => "pong",
            GcMessage::Suspect { .. } => "suspect",
            GcMessage::Nack { .. } => "nack",
        }
    }
}

impl Wire for GcMessage {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            GcMessage::Data {
                origin,
                seq,
                ts,
                vc,
                service,
                payload,
            } => {
                enc.put_u8(0);
                enc.put_member(*origin);
                enc.put_u64(*seq);
                enc.put_u64(*ts);
                enc.put_u32(vc.len() as u32);
                for v in vc {
                    enc.put_u64(*v);
                }
                service.encode(enc);
                enc.put_shared(payload);
            }
            GcMessage::Ack {
                from,
                clock,
                sent_count,
            } => {
                enc.put_u8(1);
                enc.put_member(*from);
                enc.put_u64(*clock);
                enc.put_u64(*sent_count);
            }
            GcMessage::Order {
                sequencer,
                global_seq,
                origin,
                seq,
            } => {
                enc.put_u8(2);
                enc.put_member(*sequencer);
                enc.put_u64(*global_seq);
                enc.put_member(*origin);
                enc.put_u64(*seq);
            }
            GcMessage::Ping { from, nonce } => {
                enc.put_u8(3);
                enc.put_member(*from);
                enc.put_u64(*nonce);
            }
            GcMessage::Pong { from, nonce } => {
                enc.put_u8(Self::TAG_PONG);
                enc.put_member(*from);
                enc.put_u64(*nonce);
            }
            GcMessage::Suspect { suspect, from } => {
                enc.put_u8(5);
                enc.put_member(*suspect);
                enc.put_member(*from);
            }
            GcMessage::Nack { origin, seq, from } => {
                enc.put_u8(6);
                enc.put_member(*origin);
                enc.put_u64(*seq);
                enc.put_member(*from);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => {
                let origin = dec.get_member()?;
                let seq = dec.get_u64()?;
                let ts = dec.get_u64()?;
                let n = dec.get_u32()? as usize;
                if n > 4096 {
                    return Err(CodecError::LengthOverflow {
                        length: n,
                        max: 4096,
                    });
                }
                let mut vc = Vec::with_capacity(n);
                for _ in 0..n {
                    vc.push(dec.get_u64()?);
                }
                let service = ServiceKind::decode(dec)?;
                let payload = dec.get_bytes_shared()?;
                Ok(GcMessage::Data {
                    origin,
                    seq,
                    ts,
                    vc,
                    service,
                    payload,
                })
            }
            1 => Ok(GcMessage::Ack {
                from: dec.get_member()?,
                clock: dec.get_u64()?,
                sent_count: dec.get_u64()?,
            }),
            2 => Ok(GcMessage::Order {
                sequencer: dec.get_member()?,
                global_seq: dec.get_u64()?,
                origin: dec.get_member()?,
                seq: dec.get_u64()?,
            }),
            3 => Ok(GcMessage::Ping {
                from: dec.get_member()?,
                nonce: dec.get_u64()?,
            }),
            Self::TAG_PONG => Ok(GcMessage::Pong {
                from: dec.get_member()?,
                nonce: dec.get_u64()?,
            }),
            5 => Ok(GcMessage::Suspect {
                suspect: dec.get_member()?,
                from: dec.get_member()?,
            }),
            6 => Ok(GcMessage::Nack {
                origin: dec.get_member()?,
                seq: dec.get_u64()?,
                from: dec.get_member()?,
            }),
            t => Err(CodecError::UnknownTag(t)),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            GcMessage::Data { vc, payload, .. } => {
                4 + 8 + 8 + 4 + 8 * vc.len() + 1 + 4 + payload.len()
            }
            GcMessage::Ack { .. } => 4 + 8 + 8,
            GcMessage::Order { .. } => 4 + 8 + 4 + 8,
            GcMessage::Ping { .. } | GcMessage::Pong { .. } => 4 + 8,
            GcMessage::Suspect { .. } => 4 + 4,
            GcMessage::Nack { .. } => 4 + 8 + 4,
        }
    }
}

/// Inputs delivered to the GC machine by its environment (rather than by a
/// peer or the local application).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlInput {
    /// The failure suspector reports `member` as suspected.  In NewTOP this
    /// comes from ping timeouts (and can be *false*); in FS-NewTOP it comes
    /// from a received fail-signal (and is always correct).
    Suspect(MemberId),
}

impl Wire for ControlInput {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ControlInput::Suspect(m) => {
                enc.put_u8(0);
                enc.put_member(*m);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(ControlInput::Suspect(dec.get_member()?)),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_kind_round_trip() {
        for s in ServiceKind::ALL {
            assert_eq!(ServiceKind::from_wire(&s.to_wire()).unwrap(), s);
        }
        assert!(ServiceKind::from_wire(&[9]).is_err());
    }

    #[test]
    fn app_request_round_trip() {
        let r = AppRequest {
            service: ServiceKind::SymmetricTotal,
            payload: vec![1, 2, 3].into(),
        };
        assert_eq!(AppRequest::from_wire(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn deliveries_round_trip() {
        let d = AppDeliver {
            origin: MemberId(2),
            seq: 7,
            order: 41,
            service: ServiceKind::Causal,
            payload: b"bid 100".to_vec().into(),
        };
        assert_eq!(AppDeliver::from_wire(&d.to_wire()).unwrap(), d);

        let v = ViewDeliver {
            view_id: 3,
            members: vec![MemberId(0), MemberId(2)],
        };
        assert_eq!(ViewDeliver::from_wire(&v.to_wire()).unwrap(), v);

        let u1 = Upcall::Deliver(d);
        let u2 = Upcall::View(v);
        assert_eq!(Upcall::from_wire(&u1.to_wire()).unwrap(), u1);
        assert_eq!(Upcall::from_wire(&u2.to_wire()).unwrap(), u2);
    }

    #[test]
    fn gc_messages_round_trip() {
        let messages = vec![
            GcMessage::Data {
                origin: MemberId(1),
                seq: 9,
                ts: 33,
                vc: vec![1, 2, 3],
                service: ServiceKind::SymmetricTotal,
                payload: vec![0xab; 10].into(),
            },
            GcMessage::Ack {
                from: MemberId(2),
                clock: 35,
                sent_count: 9,
            },
            GcMessage::Order {
                sequencer: MemberId(0),
                global_seq: 4,
                origin: MemberId(1),
                seq: 9,
            },
            GcMessage::Ping {
                from: MemberId(1),
                nonce: 77,
            },
            GcMessage::Pong {
                from: MemberId(2),
                nonce: 77,
            },
            GcMessage::Suspect {
                suspect: MemberId(2),
                from: MemberId(0),
            },
            GcMessage::Nack {
                origin: MemberId(1),
                seq: 4,
                from: MemberId(2),
            },
        ];
        for m in messages {
            assert_eq!(
                GcMessage::from_wire(&m.to_wire()).unwrap(),
                m,
                "{}",
                m.kind()
            );
        }
    }

    #[test]
    fn gc_message_kinds_are_distinct() {
        let kinds: Vec<&str> = vec![
            GcMessage::Data {
                origin: MemberId(0),
                seq: 0,
                ts: 0,
                vc: vec![],
                service: ServiceKind::Reliable,
                payload: vec![].into(),
            }
            .kind(),
            GcMessage::Ack {
                from: MemberId(0),
                clock: 0,
                sent_count: 0,
            }
            .kind(),
            GcMessage::Order {
                sequencer: MemberId(0),
                global_seq: 0,
                origin: MemberId(0),
                seq: 0,
            }
            .kind(),
            GcMessage::Ping {
                from: MemberId(0),
                nonce: 0,
            }
            .kind(),
            GcMessage::Pong {
                from: MemberId(0),
                nonce: 0,
            }
            .kind(),
            GcMessage::Suspect {
                suspect: MemberId(0),
                from: MemberId(0),
            }
            .kind(),
            GcMessage::Nack {
                origin: MemberId(0),
                seq: 0,
                from: MemberId(0),
            }
            .kind(),
        ];
        let unique: std::collections::BTreeSet<&str> = kinds.iter().copied().collect();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn control_input_round_trip() {
        let c = ControlInput::Suspect(MemberId(4));
        assert_eq!(ControlInput::from_wire(&c.to_wire()).unwrap(), c);
        assert!(ControlInput::from_wire(&[7]).is_err());
    }

    #[test]
    fn oversized_vector_clock_is_rejected() {
        let mut enc = Encoder::new();
        enc.put_u8(0);
        enc.put_member(MemberId(0));
        enc.put_u64(0);
        enc.put_u64(0);
        enc.put_u32(1_000_000); // absurd vc length
        let bytes = enc.finish_vec();
        assert!(GcMessage::from_wire(&bytes).is_err());
    }

    #[test]
    fn malformed_gc_message_is_rejected() {
        assert!(GcMessage::from_wire(&[]).is_err());
        assert!(GcMessage::from_wire(&[42]).is_err());
    }
}
