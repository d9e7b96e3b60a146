//! Scatter-gather frames are invisible on the wire and to the decoder.
//!
//! For every wire type of the fail-signal layer and of NewTOP:
//!
//! * `to_frame()` — which splices a large byte string in by refcount — holds
//!   exactly the bytes of `to_wire()`, at body lengths from empty to twice
//!   the splice size and at the paper's 10 240 bytes;
//! * a frame cut into segments at *every* offset decodes to what
//!   `from_wire_shared` makes of the contiguous bytes — the same value, or
//!   the same `CodecError` for truncated, over-long and trailing-byte input.

use std::fmt::Debug;
use std::sync::OnceLock;

use proptest::prelude::*;

use fs_smr_suite::common::codec::{Frame, Wire, MAX_FIELD_LEN};
use fs_smr_suite::common::id::{FsId, MemberId, ProcessId};
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::Bytes;
use fs_smr_suite::crypto::keys::{provision, SignerId, SigningKey};
use fs_smr_suite::crypto::sha256::Sha256;
use fs_smr_suite::crypto::sig::Signature;
use fs_smr_suite::failsignal::message::{FsContent, FsOutput, FsoInbound, PairMessage};
use fs_smr_suite::newtop::message::{
    AppDeliver, AppRequest, ControlInput, GcMessage, ServiceKind, Upcall, ViewDeliver,
};
use fs_smr_suite::smr::machine::Endpoint;

/// The codec's (private) splice size, found from outside: the smallest body
/// a frame carries by refcount.
fn splice_size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        (1..=64 * 1024)
            .find(|&n| {
                !FsoInbound::Raw(vec![0u8; n].into())
                    .to_frame()
                    .is_contiguous()
            })
            .expect("large bodies are spliced")
    })
}

fn keys() -> (SigningKey, SigningKey) {
    let mut rng = DetRng::new(0xf4a3e);
    let (mut keys, _dir) = provision([ProcessId(1), ProcessId(2)], &mut rng);
    (
        keys.remove(&SignerId(ProcessId(1))).unwrap(),
        keys.remove(&SignerId(ProcessId(2))).unwrap(),
    )
}

fn body(len: usize, salt: u8) -> Bytes {
    (0..len)
        .map(|i| (i % 251) as u8 ^ salt)
        .collect::<Vec<u8>>()
        .into()
}

/// One value of every byte-string-carrying wire type around `body`, plus
/// the fixed-size ones, each with the body it should splice (if any).
fn with_every_wire_type(
    body: &Bytes,
    seq: u64,
    endpoint: Endpoint,
    mut check: impl FnMut(&dyn Probe, Option<&Bytes>),
) {
    let (a, b) = keys();
    let content = FsContent::Output {
        output_seq: seq,
        dest: endpoint,
        bytes: Frame::from(body.clone()),
    };
    let output = FsOutput::sign(FsId(3), content.clone(), &a, &b);
    let signal = FsOutput::sign(FsId(3), FsContent::<Frame>::FailSignal, &b, &a);
    let ordered = PairMessage::Ordered {
        order_index: seq,
        source: endpoint,
        bytes: body.clone().into(),
    };
    let forward = PairMessage::ForwardNew {
        source: endpoint,
        bytes: body.clone().into(),
    };
    let candidate = PairMessage::Candidate {
        output_seq: seq,
        dest: endpoint,
        body_len: body.len() as u32,
        digest: Sha256::digest(body),
        signature: Signature::sign(&a, b"candidate"),
    };
    let deliver = AppDeliver {
        origin: MemberId(2),
        seq,
        order: seq.wrapping_add(9),
        service: ServiceKind::SymmetricTotal,
        payload: body.clone(),
    };
    let view = ViewDeliver {
        view_id: seq,
        members: vec![MemberId(0), MemberId(2)],
    };
    let spliced = Some(body);

    // failsignal::message
    check(&content, spliced);
    check(&FsContent::FailSignal, None);
    check(&output, spliced);
    check(&signal, None);
    check(&ordered, spliced);
    check(&forward, spliced);
    check(&candidate, None);
    check(&FsoInbound::Pair(ordered.clone()), spliced);
    check(&FsoInbound::Pair(forward.clone()), spliced);
    check(&FsoInbound::Pair(candidate.clone()), None);
    check(&FsoInbound::External(output.clone()), spliced);
    check(&FsoInbound::External(signal.clone()), None);
    check(&FsoInbound::Raw(body.clone().into()), spliced);

    // newtop::message
    check(&ServiceKind::Causal, None);
    check(
        &AppRequest {
            service: ServiceKind::Reliable,
            payload: body.clone(),
        },
        spliced,
    );
    check(&deliver, spliced);
    check(&view, None);
    check(&Upcall::Deliver(deliver.clone()), spliced);
    check(&Upcall::View(view.clone()), None);
    check(
        &GcMessage::Data {
            origin: MemberId(1),
            seq,
            ts: seq.wrapping_mul(3),
            vc: vec![1, 2, 3],
            service: ServiceKind::Causal,
            payload: body.clone(),
        },
        spliced,
    );
    check(
        &GcMessage::Ack {
            from: MemberId(2),
            clock: seq,
            sent_count: seq,
        },
        None,
    );
    check(
        &GcMessage::Order {
            sequencer: MemberId(0),
            global_seq: seq,
            origin: MemberId(1),
            seq,
        },
        None,
    );
    check(
        &GcMessage::Ping {
            from: MemberId(1),
            nonce: seq,
        },
        None,
    );
    check(
        &GcMessage::Pong {
            from: MemberId(1),
            nonce: seq,
        },
        None,
    );
    check(
        &GcMessage::Suspect {
            suspect: MemberId(1),
            from: MemberId(2),
        },
        None,
    );
    check(
        &GcMessage::Nack {
            origin: MemberId(1),
            seq,
            from: MemberId(2),
        },
        None,
    );
    check(&ControlInput::Suspect(MemberId(1)), None);
}

/// The type-erased checks one wire value can run on itself.
trait Probe {
    /// `to_frame` and `to_wire` hold the same bytes; a body at or above the
    /// splice size travels by refcount and comes back as the very same buffer.
    fn check_encodings(&self, spliced: Option<&Bytes>);
    /// Every segmentation of the value's own bytes, and of hostile variants
    /// of them, decodes like the contiguous bytes.
    fn check_segmentations(&self);
}

impl<T: Wire + PartialEq + Debug> Probe for T {
    fn check_encodings(&self, spliced: Option<&Bytes>) {
        let wire = self.to_wire();
        let frame = self.to_frame();
        assert_eq!(frame.to_bytes(), wire, "{self:?}");
        assert_eq!(frame, wire);
        assert_eq!(frame.len(), wire.len());
        assert_eq!(self.encoded_len(), wire.len());
        let decoded = T::from_frame(&frame).expect("own frame decodes");
        assert_eq!(&decoded, self);
        assert_eq!(decoded.to_wire(), wire);
        match spliced {
            Some(body) if body.len() >= splice_size() => {
                assert!(!frame.is_contiguous(), "{} B body", body.len());
                let [_, carried, _] = frame.segments();
                assert!(std::ptr::eq(carried.as_ptr(), body.as_ptr()));
                assert_eq!(carried.len(), body.len());
            }
            _ => assert!(frame.is_contiguous()),
        }
    }

    fn check_segmentations(&self) {
        let wire = self.to_wire().to_vec();
        let mut inputs: Vec<Vec<u8>> = vec![wire.clone()];
        // Truncated at every length; a trailing byte.
        inputs.extend((0..wire.len()).map(|keep| wire[..keep].to_vec()));
        inputs.push([&wire[..], &[0x5a]].concat());
        // Every aligned-or-not 4-byte window overwritten with a length just
        // past the field cap (where a length prefix sits, that is the
        // over-long field; elsewhere it is merely another malformed input).
        let too_long = (MAX_FIELD_LEN as u32 + 1).to_le_bytes();
        for at in 0..wire.len().saturating_sub(3) {
            let mut long = wire.clone();
            long[at..at + 4].copy_from_slice(&too_long);
            inputs.push(long);
        }
        for (n, input) in inputs.into_iter().enumerate() {
            let contiguous = Bytes::from(input);
            let expected = T::from_wire_shared(&contiguous);
            assert_eq!(T::from_wire(&contiguous), expected);
            let len = contiguous.len();
            // The value's own bytes at every (i, j); the hostile variants at
            // every single cut and a diagonal of double cuts.
            for i in 0..=len {
                let js: Vec<usize> = if n == 0 {
                    (i..=len).collect()
                } else {
                    vec![i, (i + 5).min(len), len]
                };
                for j in js {
                    let frame = Frame::from_segments(
                        contiguous.slice(..i),
                        contiguous.slice(i..j),
                        contiguous.slice(j..),
                    );
                    assert_eq!(
                        T::from_frame(&frame),
                        expected,
                        "input {n} ({len} B) cut {i}/{j} of {self:?}"
                    );
                }
            }
        }
    }
}

fn endpoint(tag: u8, member: u32) -> Endpoint {
    match tag % 4 {
        0 => Endpoint::LocalApp,
        1 => Endpoint::Peer(MemberId(member)),
        2 => Endpoint::Environment,
        _ => Endpoint::Broadcast,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `to_frame().to_bytes() == to_wire()` for every wire type, across the
    /// splice boundary.
    #[test]
    fn frames_hold_the_wire_bytes(
        around in 0usize..3,
        offset in 0usize..2048,
        seq in any::<u64>(),
        tag in 0u8..4,
        member in 0u32..64,
        salt in any::<u8>(),
    ) {
        // Lengths 0..=2 x splice size, with the boundary itself well covered.
        let splice = splice_size();
        let len = match around {
            0 => offset % (2 * splice + 1),
            1 => (splice - 2 + offset % 5).min(2 * splice),
            _ => 2 * splice - offset % 3,
        };
        let body = body(len, salt);
        with_every_wire_type(&body, seq, endpoint(tag, member), |value, spliced| {
            value.check_encodings(spliced)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every cut of every wire type's bytes — and of truncated, over-long
    /// and trailing-byte variants — decodes exactly like the contiguous
    /// bytes.
    #[test]
    fn every_segmentation_decodes_like_the_contiguous_bytes(
        len in 0usize..24,
        seq in any::<u64>(),
        tag in 0u8..4,
        salt in any::<u8>(),
    ) {
        let body = body(len, salt);
        with_every_wire_type(&body, seq, endpoint(tag, 7), |value, _| {
            value.check_segmentations()
        });
    }
}

/// The paper's largest payload, and the exact boundary lengths, once each
/// (the proptest above samples; this pins).
#[test]
fn frames_hold_the_wire_bytes_at_10_240_and_at_the_boundary() {
    let splice = splice_size();
    for len in [0, 1, splice - 1, splice, splice + 1, 2 * splice, 10_240] {
        let body = body(len, 0x11);
        with_every_wire_type(&body, 77, Endpoint::Peer(MemberId(4)), |value, spliced| {
            value.check_encodings(spliced)
        });
    }
}

/// A spliced frame cut nowhere but on its own segment boundaries decodes
/// without copying: the decoded body is the sender's buffer.
#[test]
fn spliced_frames_decode_to_the_senders_buffer() {
    let body = body(10_240, 0);
    let frame = FsoInbound::Raw(body.clone().into()).to_frame();
    let Ok(FsoInbound::Raw(decoded)) = FsoInbound::from_frame(&frame) else {
        panic!("own frame decodes");
    };
    let [carried, ..] = decoded.segments();
    assert!(decoded.is_contiguous());
    assert!(std::ptr::eq(carried, &body[..]));
    let request = AppRequest {
        service: ServiceKind::SymmetricTotal,
        payload: body.clone(),
    };
    let decoded = AppRequest::from_frame(&request.to_frame()).unwrap();
    assert!(decoded.payload.same_view(&body));
}
