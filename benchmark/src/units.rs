//! Unit costs of single layers, timed from outside on the workload's own
//! frame: a double-signed fail-signal output carrying one ordering round's
//! payload.  Counts from the traced run times these unit costs give the
//! per-layer estimates; what they leave over is reported as unattributed.

use std::hint::black_box;
use std::time::Instant;

use fs_smr_suite::common::codec::Wire;
use fs_smr_suite::common::id::{FsId, ProcessId};
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::common::Bytes;
use fs_smr_suite::crypto::keys::{provision, SignerId};
use fs_smr_suite::crypto::sig::Signature;
use fs_smr_suite::failsignal::message::{signing_bytes, FsContent, FsOutput, FsoInbound};
use fs_smr_suite::failsignal::receiver::FsReceiver;
use fs_smr_suite::simnet::sched::{EventQueue, ScheduledEvent, SchedulerKind};
use fs_smr_suite::smr::machine::Endpoint;

use crate::spans::Spans;

/// Wall time one timed section aims for; long enough to average out timer
/// granularity, short enough that all sections together stay under ~1 s.
const SECTION_TARGET_NS: f64 = 30e6;

/// Rounds per section; the minimum is reported (host noise only adds).
const ROUNDS: usize = 3;

/// Mean nanoseconds per call of `op`: the iteration count is calibrated to
/// [`SECTION_TARGET_NS`], then the best of [`ROUNDS`] rounds is taken.
fn time_ns(mut op: impl FnMut()) -> f64 {
    let mut iters = 16u64;
    let per_op = loop {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        if elapsed >= SECTION_TARGET_NS / 8.0 || iters >= 1 << 24 {
            break elapsed / iters as f64;
        }
        iters *= 4;
    };
    let iters = ((SECTION_TARGET_NS / per_op.max(1.0)) as u64).clamp(16, 1 << 24);
    (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The unit costs of one workload, all in wall nanoseconds per operation on
/// one thread (unit-cost sections are single-threaded and tiny, so wall and
/// CPU coincide).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// Bytes a wrapper signs per output.
    pub signing_bytes: usize,
    /// `FsoInbound::to_wire` of the external frame.
    pub encode_ns: f64,
    /// `FsoInbound::from_wire_shared` of the external frame.
    pub decode_ns: f64,
    /// `Signature::sign` over the signing bytes.
    pub sign_ns: f64,
    /// `Signature::verify_uncached` over the signing bytes.
    pub verify_ns: f64,
    /// `FsOutput::verify` answered by the host-side memo.
    pub verify_memo_ns: f64,
    /// `Signature::verify_batch_uncached` of 8 signers, per MAC.
    pub verify_batch8_ns_per_mac: f64,
    /// `FsOutput::sign`: content signature plus counter-signature.
    pub sign_output_ns: f64,
    /// `FsReceiver::accept` of a frame never seen before: decode, both MAC
    /// checks, memo insert, duplicate table.
    pub accept_ns: f64,
    /// `EventQueue` pop + push at the observed queue depth.
    pub sched_hold_ns: f64,
    /// Bytes an external frame adds around its payload (tags, sequence
    /// number, destination, both signatures).
    pub envelope_bytes: usize,
    /// `Signature::sign` as a line through two payload sizes (0 and 4 KiB):
    /// the fixed part.  A run's outputs are mostly small (acks, upcalls of
    /// small commands), so pricing them all at the round's size would not do.
    pub mac_base_ns: f64,
    /// The per-frame-byte slope of the same line.
    pub mac_per_byte_ns: f64,
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct HoldEvent {
    at: SimTime,
    seq: u64,
}

impl ScheduledEvent for HoldEvent {
    fn at(&self) -> SimTime {
        self.at
    }
}

/// The classic hold operation (pop the earliest event, push a successor) on
/// the simulator's default scheduler at a steady population of `pending`.
fn sched_hold_ns(pending: usize) -> f64 {
    let mut queue = EventQueue::new(SchedulerKind::default());
    let mut rng = DetRng::new(0x5ced);
    let mut seq = 0u64;
    for _ in 0..pending.max(1) {
        seq += 1;
        queue.push(HoldEvent {
            at: SimTime::from_nanos(rng.below(1_000_000_000)),
            seq,
        });
    }
    let mut hold = || {
        let event = queue.pop().expect("queue stays populated");
        seq += 1;
        queue.push(HoldEvent {
            at: event.at + SimDuration::from_nanos(rng.below(2_000_000) + 1),
            seq,
        });
        black_box(event);
    };
    // Past the initial window construction, into the steady state.
    for _ in 0..pending.max(1_000) {
        hold();
    }
    time_ns(hold)
}

/// Times every unit cost for a frame carrying `round_bytes` of payload (one
/// ordering round: payload × batch) at a scheduler depth of `pending`.
pub fn measure(round_bytes: usize, pending: usize, spans: &mut Spans) -> UnitCosts {
    let mut rng = DetRng::new(0xb3c4);
    let signers: Vec<ProcessId> = (0..8).map(ProcessId).collect();
    let (keys, directory) = provision(signers.clone(), &mut rng);
    let leader = &keys[&SignerId(signers[0])];
    let follower = &keys[&SignerId(signers[1])];
    let pair = (leader.signer, follower.signer);
    let fs = FsId(1);
    let sized = |output_seq: u64, payload: usize| FsContent::Output {
        output_seq,
        dest: Endpoint::Broadcast,
        bytes: Bytes::from(vec![0x5au8; payload]),
    };
    let content = |output_seq: u64| sized(output_seq, round_bytes);
    let content_bytes = signing_bytes(fs, &content(7));
    let output = FsOutput::sign(fs, content(7), leader, follower);
    let frame = FsoInbound::External(output.clone());
    let wire = frame.to_wire();

    let mut costs = UnitCosts {
        signing_bytes: content_bytes.len(),
        ..UnitCosts::default()
    };
    let section = |name: &str, spans: &mut Spans, op: &mut dyn FnMut()| {
        spans.scope(name, "unit", |_| time_ns(op)).0
    };

    costs.encode_ns = section("unit.common.codec.encode", spans, &mut || {
        black_box(black_box(&frame).to_wire());
    });
    costs.decode_ns = section("unit.common.codec.decode", spans, &mut || {
        black_box(FsoInbound::from_wire_shared(black_box(&wire)).expect("own frame decodes"));
    });
    costs.sign_ns = section("unit.crypto.sign", spans, &mut || {
        black_box(Signature::sign(leader, black_box(&content_bytes)));
    });
    let signature = Signature::sign(leader, &content_bytes);
    costs.verify_ns = section("unit.crypto.verify", spans, &mut || {
        black_box(&signature)
            .verify_uncached(&directory, black_box(&content_bytes))
            .expect("own signature verifies");
    });
    output
        .verify(&directory, pair)
        .expect("own output verifies");
    costs.verify_memo_ns = section("unit.crypto.verify_memo", spans, &mut || {
        black_box(&output)
            .verify(&directory, pair)
            .expect("own output verifies");
    });
    let batch: Vec<Signature> = signers
        .iter()
        .map(|p| Signature::sign(&keys[&SignerId(*p)], &content_bytes))
        .collect();
    let batch_refs: Vec<&Signature> = batch.iter().collect();
    costs.verify_batch8_ns_per_mac = section("unit.crypto.verify_batch8", spans, &mut || {
        Signature::verify_batch_uncached(black_box(&batch_refs), &directory, &content_bytes)
            .expect("own batch verifies");
    }) / batch_refs.len() as f64;
    costs.sign_output_ns = section("unit.failsignal.sign_output", spans, &mut || {
        black_box(FsOutput::sign(fs, black_box(content(7)), leader, follower));
    });

    // Accepting needs frames the receiver (and the verify memo) has never
    // seen: pre-sign a pool of distinct outputs and accept each exactly once.
    let pool = (SECTION_TARGET_NS / (4.0 * costs.verify_ns.max(200.0))) as u64;
    let fresh: Vec<Bytes> = (0..pool.clamp(64, 20_000))
        .map(|seq| {
            FsoInbound::External(FsOutput::sign(fs, content(1_000 + seq), leader, follower))
                .to_wire()
        })
        .collect();
    costs.accept_ns = spans
        .scope("unit.failsignal.accept", "unit", |_| {
            let mut receiver = FsReceiver::new(directory.clone());
            receiver.register_source(fs, pair);
            let start = Instant::now();
            for frame in &fresh {
                black_box(receiver.accept(frame)).expect("fresh frame is accepted");
            }
            start.elapsed().as_nanos() as f64 / fresh.len() as f64
        })
        .0;

    costs.sched_hold_ns = spans
        .scope("unit.simnet.sched.hold", "unit", |_| sched_hold_ns(pending))
        .0;

    const PROBE_BYTES: usize = 4096;
    let empty_frame = FsoInbound::External(FsOutput::sign(fs, sized(7, 0), leader, follower));
    costs.envelope_bytes = empty_frame.to_wire().len();
    let mut sign_at = |payload: usize, name: &str| {
        let bytes = signing_bytes(fs, &sized(7, payload));
        section(name, spans, &mut || {
            black_box(Signature::sign(leader, black_box(&bytes)));
        })
    };
    let small_ns = sign_at(0, "unit.crypto.sign_empty");
    let probe_ns = sign_at(PROBE_BYTES, "unit.crypto.sign_4k");
    costs.mac_per_byte_ns = ((probe_ns - small_ns) / PROBE_BYTES as f64).max(0.0);
    costs.mac_base_ns = small_ns;
    costs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_costs_are_positive_and_ordered_sensibly() {
        let mut spans = Spans::new();
        let costs = measure(1024, 100, &mut spans);
        assert!(costs.signing_bytes > 1024);
        assert!((64..200).contains(&costs.envelope_bytes), "{costs:?}");
        for ns in [
            costs.encode_ns,
            costs.decode_ns,
            costs.sign_ns,
            costs.verify_ns,
            costs.verify_memo_ns,
            costs.verify_batch8_ns_per_mac,
            costs.sign_output_ns,
            costs.accept_ns,
            costs.sched_hold_ns,
            costs.mac_base_ns,
            costs.mac_per_byte_ns,
        ] {
            assert!(ns.is_finite() && ns > 0.0, "{costs:?}");
        }
        // A memo hit must beat recomputing a 1 kB MAC, and a double signature
        // costs more than a single one.
        assert!(costs.verify_memo_ns < costs.verify_ns, "{costs:?}");
        assert!(costs.sign_output_ns > costs.sign_ns, "{costs:?}");
        assert!(spans.spans().iter().any(|s| s.name == "unit.crypto.sign"));
    }
}
