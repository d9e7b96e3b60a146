//! Host-side hot-path benchmark: wall-clock cost of the authenticated wire
//! path on the machine actually running the suite.
//!
//! The simulator charges *simulated* 2003-era costs to reproduce the paper's
//! figures; this binary measures what the host itself pays for the same
//! steps — encode, sign, deliver, verify — and records the numbers in
//! `results/bench-hotpath.json` so every PR leaves a perf trajectory behind.
//!
//! Sections:
//!
//! * **hmac** — one-shot `HmacSha256::mac` (re-expands the RFC 2104 key
//!   schedule per message) vs the cached [`HmacKey`] state that
//!   `SigningKey` now holds (≥ 1.5× on small payloads), plus a per-backend
//!   sweep: cached-key MAC throughput (MB/s) on the scalar oracle and on
//!   the SIMD backend's sequential kernel, and the SIMD batch path's
//!   per-MAC cost at batch 8.  The report names the kernel the SIMD backend
//!   resolved to on this host (`sha256_kernel`: `sha-ni`, `avx2-lanes` or
//!   `portable`).
//! * **verify_batch** — `Signature::verify_batch_uncached` across an
//!   authenticator vector (one message, n MACs, shared inner schedule):
//!   per-MAC nanoseconds must fall as the batch grows.
//! * **sign_digest** — what a wrapper pays on the host to sign an output:
//!   digest the body (`body_digest`) and sign the statement, once — that
//!   signature is its share of the double-signed output and what it sends
//!   the partner — at 3 B, 1 KiB and
//!   10 KiB, for each way the digest can be answered: content never seen
//!   (the SHA-256 pass), equal content in a distinct buffer (the other
//!   replica's output: one fast hash plus one `memcmp`), and the same buffer
//!   again (an address lookup).  Below the memo's size floor every body is
//!   hashed directly and the three coincide.
//! * **encode** — `Wire::to_wire` (one sized allocation, refcount-shared
//!   `Bytes`) vs the legacy `Wire::to_wire_vec` growth-from-zero path, on
//!   the `Ordered` relay frames the wrapper pair exchanges (the pair frame
//!   that carries a body).
//! * **sign_verify** — the full double-signature round: build an
//!   [`FsOutput`], wire round-trip it, verify it at a destination — both
//!   the raw cryptographic cost (`verify_ns`, memos bypassed) and what a
//!   co-hosted duplicate destination pays (`verify_memo_ns`: the body digest
//!   found by buffer address plus two signature-memo probes).
//! * **scheduler** — the simulator's future event set under the hold model
//!   (pop one event, push a successor) at 1 k and 100 k pending events:
//!   the legacy binary heap vs the calendar queue, plus slab (`Vec` index)
//!   vs `BTreeMap` actor lookup.
//! * **send_contention** — the threaded runtime's cross-node send path
//!   under contention: ping/echo actor pairs on distinct nodes hammer
//!   bidirectional sends concurrently, ungated (fault-free fast path, the
//!   link gate is never materialised) and gated (a harmless scheduled heal
//!   forces every send through the snapshot-published link gate).  The
//!   ungated/gated delta prices the gate itself, and the gate row's
//!   gate-wait p99 bounds the per-send snapshot-revalidation cost.
//!
//! * **ack_path** — the per-ack and per-input bookkeeping around the
//!   cryptography: nanoseconds per `SymmetricOrder::on_ack` in a 9-member
//!   view with 8, 64 and 512 messages pending (the curve must be flat in
//!   the pending count), and in a 3-member view (an ack checks the head
//!   against one clock per view member).
//!
//! * **frame_path** — one machine output through one wrapper pair and one
//!   destination — leader signs and encodes the (body-less) candidate
//!   frame; follower decodes it, verifies the share it carries, signs its
//!   own copy, compares, and encodes the external frame around the two
//!   shares; destination decodes and verifies — at 3 B,
//!   1 KiB and 10 KiB, two ways: the *contiguous reference*, where every
//!   frame is one contiguous buffer (`to_wire`, `from_wire_shared`) and a
//!   decoded body therefore a window into it, and the *spliced* path the
//!   wrappers run (`to_frame`, `from_frame`), where a body travels as the
//!   sender's own buffer.  Both arms sign and verify statements over
//!   `body_digest` and end in the same `FsOutput::verify`.  Per round:
//!   nanoseconds (fastest of interleaved passes) and payload bytes copied,
//!   counted at the allocator as the bytes of every allocation at least as
//!   large as the payload.  Every round signs a fresh output, so both arms
//!   pay the pair's real MACs; what differs is the bytes moved and how the
//!   body digest is found (by address when spliced, by content otherwise).
//!
//! There is no end-to-end row here: what a whole deployment costs per
//! ordered delivery, and how two commits compare, is `benchmark/`'s job.
//!
//! `FS_BENCH_HOTPATH_ITERS` scales the micro-benchmark iteration counts
//! (default 100 000); `FS_BENCH_HOTPATH_CONTENTION_PAIRS` and
//! `FS_BENCH_HOTPATH_CONTENTION_ROUNDS` size the contention section
//! (default 4 pairs × 1 000 round trips).  CI runs everything small.
//!
//! **Regression guard:** when `FS_BENCH_HOTPATH_REF` names a reference
//! report (normally the committed `results/bench-hotpath.json`), the run
//! fails (exit 3) if a guarded row is more than
//! `FS_BENCH_HOTPATH_MAX_REGRESSION` (default 0.20, i.e. 20%) worse than
//! the reference.  The crypto rows (10 kB SIMD-backend MAC throughput,
//! batched verification) are guarded only against a
//! reference measured on the same SHA-256 kernel: otherwise the guard prints
//! `skipped: kernel mismatch (ref X, host Y)` — a reference regenerated on a
//! SHA-NI box must not fail a runner without the extensions, and must never
//! silently pass one either.  References that carry the `send_contention` section also
//! arm a guard on the gated row's sends/host-sec, so a contended-send-path
//! regression fails the run the same way.  Whenever a reference is
//! configured, the `ack_path` section is also held to two ceilings of its
//! own, independent of what the reference carries: `on_ack` at 512 pending
//! messages costs at most 1.5× what it costs at 8.  So is `sign_digest`: the
//! same-buffer 10 KiB round costs at most 1.2× the 3 B round (signing is
//! flat in the body size once the body has been digested), and finding the
//! other replica's equal 10 KiB output by content adds at most 1 µs to it.
//! So is `frame_path`: the spliced 10 KiB round copies no payload byte and
//! costs no more than the contiguous reference, and the spliced 3 B round —
//! which takes the contiguous path inside the codec — costs at most 1.1×
//! the reference.

use std::hint::black_box;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use std::collections::BTreeMap;

use failsignal::digest::body_digest;
use failsignal::message::{FsContent, FsOutput, FsoInbound, PairMessage, Statement};
use fs_bench::alloc_count::{count_allocs, CountingAlloc};
use fs_bench::env::{env_f64, env_u64};
use fs_bench::report::results_dir;
use fs_common::codec::Wire;
use fs_common::id::{FsId, MemberId, NodeId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::time::SimTime;
use fs_common::{Bytes, Frame};
use fs_crypto::hmac::{HmacKey, HmacSha256, MacSchedule};
use fs_crypto::keys::{provision, SignerId};
use fs_crypto::sha256::{kernel_name, CompressBackend};
use fs_crypto::sig::Signature;
use fs_newtop::total_sym::SymmetricOrder;
use fs_newtop::view::View;
use fs_simnet::sched::{EventQueue, ScheduledEvent, SchedulerKind};
use fs_simnet::{
    Actor, Context, LinkFault, LinkSchedule, LinkScope, ThreadedBuilder, ThreadedConfig,
};
use fs_smr::machine::Endpoint;

/// Counts what the `frame_path` section allocates (one thread-local read
/// per allocation everywhere else).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Payload sizes exercised by the micro sections: the paper's "0k" 3-byte
/// message, a cache-line-ish frame, 1 kB and the paper's 10 kB maximum.
const PAYLOAD_SIZES: [usize; 4] = [3, 64, 1024, 10240];

/// Times `op` over `iters` iterations (after a 1/10 warm-up) and returns
/// mean nanoseconds per iteration.
fn time_ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    for _ in 0..(iters / 10).max(1) {
        op();
    }
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Scales the iteration budget down for large payloads so the benchmark's
/// wall-clock stays roughly flat across sizes.
fn scaled_iters(base: u64, payload: usize) -> u64 {
    (base / (1 + payload as u64 / 64)).max(100)
}

#[derive(Debug, Serialize)]
struct HmacRow {
    payload_bytes: usize,
    one_shot_ns: f64,
    /// Cached-key MAC on the process's active (default) backend — the same
    /// field older reports carried, so trajectories stay comparable.
    cached_key_ns: f64,
    /// one_shot_ns / cached_key_ns — the win from precomputing the key
    /// schedule once per signer.
    speedup: f64,
    /// Cached-key MAC pinned to the scalar (oracle) backend.
    scalar_ns: f64,
    /// Cached-key MAC pinned to the SIMD backend (its sequential kernel).
    simd_ns: f64,
    /// Per-MAC cost of the SIMD batch path at batch 8 (one message, 8 keys).
    simd_batch8_per_mac_ns: f64,
    scalar_mb_per_s: f64,
    simd_mb_per_s: f64,
    simd_batch8_mb_per_s: f64,
}

#[derive(Debug, Serialize)]
struct VerifyBatchRow {
    payload_bytes: usize,
    /// Authenticators verified per call (one message, `batch` MACs).
    batch: usize,
    total_ns: f64,
    /// total_ns / batch — must fall as the batch grows (schedule sharing +
    /// lane-parallel rounds).
    per_mac_ns: f64,
}

#[derive(Debug, Serialize)]
struct SignDigestRow {
    payload_bytes: usize,
    /// Digest + sign of a body whose content was never seen.
    miss_ns: f64,
    /// The same round for known content in a buffer never seen (the other
    /// replica's copy).
    equal_content_ns: f64,
    /// The same round for a buffer seen before.
    same_buffer_ns: f64,
}

#[derive(Debug, Serialize)]
struct EncodeRow {
    payload_bytes: usize,
    frame_bytes: usize,
    to_wire_ns: f64,
    to_wire_vec_ns: f64,
}

#[derive(Debug, Serialize)]
struct SignVerifyRow {
    payload_bytes: usize,
    sign_double_ns: f64,
    wire_round_trip_ns: f64,
    /// True cryptographic cost of a destination-side double verify (memo
    /// bypassed).
    verify_ns: f64,
    /// Cost a co-hosted duplicate destination pays: the body digest found
    /// by buffer address plus two signature-memo probes.
    verify_memo_ns: f64,
}

#[derive(Debug, Serialize)]
struct SchedulerRow {
    pending_events: usize,
    /// Hold operation (pop + push a successor) on the legacy binary heap.
    legacy_heap_hold_ns: f64,
    /// The same hold operation on the calendar queue.
    calendar_hold_ns: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct ActorLookupRow {
    actors: usize,
    /// `ProcessId → slot` lookup through a `BTreeMap` (the pre-refactor
    /// actor table).
    btreemap_lookup_ns: f64,
    /// The slab path: a dense `Vec` indexed by the id.
    slab_lookup_ns: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct ContentionRow {
    /// Whether the snapshot-published link gate sat on the send path.
    gated: bool,
    node_pairs: u32,
    rounds_per_pair: u64,
    /// Cross-node sends actually performed (every send here crosses nodes).
    cross_node_sends: u64,
    host_elapsed_ms: f64,
    /// The contended-send-path metric: cross-node sends per host-second
    /// aggregated over all pairs.
    sends_per_host_sec: f64,
    /// p99 of the per-send gate-snapshot revalidation (0 on the ungated
    /// row, where no gate exists to wait on).
    gate_wait_p99_ns: u64,
}

#[derive(Debug, Serialize)]
struct OnAckRow {
    /// Members of the view the head is checked against.
    members: u32,
    /// Messages awaiting order while the acks arrive.
    pending: usize,
    on_ack_ns: f64,
}

#[derive(Debug, Serialize)]
struct AckPathReport {
    /// `SymmetricOrder::on_ack` in a 9-member view by pending count, and
    /// in a 3-member view (the head check is one clock per view member).
    on_ack: Vec<OnAckRow>,
}

#[derive(Debug, Serialize)]
struct FramePathRow {
    payload_bytes: usize,
    /// One output round with every step materialising contiguous bytes.
    contiguous_ns: f64,
    /// The same round on the path the wrappers run.
    spliced_ns: f64,
    /// spliced_ns / contiguous_ns.
    ratio: f64,
    /// Bytes of every allocation at least as large as the payload, per
    /// contiguous round.
    contiguous_payload_bytes_copied: f64,
    /// The same count per spliced round.
    spliced_payload_bytes_copied: f64,
}

#[derive(Debug, Serialize)]
struct HotpathReport {
    id: String,
    iterations: u64,
    /// The kernel the SIMD backend resolved to on this host; crypto rows
    /// from different kernels are not comparable.
    sha256_kernel: String,
    hmac: Vec<HmacRow>,
    verify_batch: Vec<VerifyBatchRow>,
    /// One wrapper output round by how the body digest is answered (see
    /// the module docs).
    sign_digest: Vec<SignDigestRow>,
    encode: Vec<EncodeRow>,
    sign_verify: Vec<SignVerifyRow>,
    scheduler: Vec<SchedulerRow>,
    actor_lookup: Vec<ActorLookupRow>,
    /// The threaded cross-node send path under contention, ungated then
    /// gated (see the module docs).
    send_contention: Vec<ContentionRow>,
    /// Per-ack and per-input bookkeeping (see the module docs).
    ack_path: AckPathReport,
    /// One output round, contiguous reference vs spliced (see the module
    /// docs).
    frame_path: Vec<FramePathRow>,
}

fn bench_hmac(iters: u64) -> Vec<HmacRow> {
    let key_bytes = [0xa5u8; 32];
    let cached = HmacKey::new(&key_bytes);
    let scalar_key = HmacKey::new_with_backend(CompressBackend::Scalar, &key_bytes);
    let simd_key = HmacKey::new_with_backend(CompressBackend::Simd, &key_bytes);
    let batch_keys: Vec<HmacKey> = (0..8u8)
        .map(|i| HmacKey::new_with_backend(CompressBackend::Simd, &[0xa5 ^ i; 32]))
        .collect();
    let batch_refs: Vec<&HmacKey> = batch_keys.iter().collect();
    let mb_per_s = |size: usize, ns: f64| size as f64 * 1e3 / ns;
    PAYLOAD_SIZES
        .iter()
        .map(|&size| {
            let msg: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let n = scaled_iters(iters, size);
            let one_shot_ns = time_ns_per_op(n, || {
                black_box(HmacSha256::mac(black_box(&key_bytes), black_box(&msg)));
            });
            let cached_key_ns = time_ns_per_op(n, || {
                black_box(cached.mac(black_box(&msg)));
            });
            let scalar_ns = time_ns_per_op(n, || {
                black_box(scalar_key.mac(black_box(&msg)));
            });
            let simd_ns = time_ns_per_op(n, || {
                black_box(simd_key.mac(black_box(&msg)));
            });
            // On the lane kernels the batch path amortizes one schedule
            // expansion over 8 keys and runs their rounds lane-parallel; on
            // sha-ni it is 8 sequential passes.  Report per-MAC cost.
            let simd_batch8_per_mac_ns = time_ns_per_op(n, || {
                let schedule =
                    MacSchedule::new_with_backend(CompressBackend::Simd, black_box(&msg));
                black_box(schedule.mac_batch(black_box(&batch_refs)));
            }) / batch_refs.len() as f64;
            HmacRow {
                payload_bytes: size,
                one_shot_ns,
                cached_key_ns,
                speedup: one_shot_ns / cached_key_ns,
                scalar_ns,
                simd_ns,
                simd_batch8_per_mac_ns,
                scalar_mb_per_s: mb_per_s(size, scalar_ns),
                simd_mb_per_s: mb_per_s(size, simd_ns),
                simd_batch8_mb_per_s: mb_per_s(size, simd_batch8_per_mac_ns),
            }
        })
        .collect()
}

/// Measures `Signature::verify_batch_uncached` across an authenticator
/// vector: `batch` distinct signers over the same payload.  Uncached, so the
/// memo cannot flatten the curve; what should flatten it is schedule sharing
/// plus lane-parallel rounds.
fn bench_verify_batch(iters: u64) -> Vec<VerifyBatchRow> {
    let mut rng = DetRng::new(17);
    let signers: Vec<ProcessId> = (0..16).map(ProcessId).collect();
    let (keys, dir) = provision(signers.clone(), &mut rng);
    let mut rows = Vec::new();
    for &size in &[1024usize, 10240] {
        let msg: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let sigs: Vec<Signature> = signers
            .iter()
            .map(|p| Signature::sign(&keys[&SignerId(*p)], &msg))
            .collect();
        for &batch in &[1usize, 2, 4, 8, 16] {
            let refs: Vec<&Signature> = sigs[..batch].iter().collect();
            let n = scaled_iters(iters, size * batch);
            let total_ns = time_ns_per_op(n, || {
                Signature::verify_batch_uncached(black_box(&refs), &dir, black_box(&msg))
                    .expect("valid batch");
            });
            rows.push(VerifyBatchRow {
                payload_bytes: size,
                batch,
                total_ns,
                per_mac_ns: total_ns / batch as f64,
            });
        }
    }
    rows
}

/// Prices what a wrapper pays on the host to sign an output — digest the
/// body, sign the statement — by the way `body_digest` answers.  Interleaved passes, fastest kept (see
/// [`bench_ack_path`] for why); the bodies of each pass are built before it
/// is timed.
fn bench_sign_digest(iters: u64) -> Vec<SignDigestRow> {
    const PASSES: usize = 15;
    /// Known contents the equal-content and same-buffer columns draw from.
    const KNOWN: usize = 16;
    let mut rng = DetRng::new(13);
    let (mut keys, _dir) = provision([ProcessId(0), ProcessId(1)], &mut rng);
    let local = keys.remove(&SignerId(ProcessId(0))).unwrap();
    let fs = FsId(1);
    let mut output_seq = 0u64;
    let mut round = |body: &Bytes| {
        output_seq += 1;
        let digest = body_digest(black_box(body));
        let statement = Statement::output(fs, output_seq, Endpoint::Broadcast, body.len(), &digest);
        black_box(Signature::sign(&local, statement.as_bytes()));
    };
    let mut fresh = 0u64;
    [3usize, 1024, 10 * 1024]
        .into_iter()
        .map(|payload| {
            // `time_ns_per_op` runs a tenth again as warm-up.
            let per_pass = (scaled_iters(iters, payload) / 8).max(50);
            let bodies_per_pass = (per_pass + per_pass / 10 + 1) as usize;
            let known: Vec<Bytes> = (0..KNOWN)
                .map(|i| Bytes::from(vec![i as u8 ^ 0x33; payload]))
                .collect();
            let mut best = [f64::INFINITY; 3];
            for _ in 0..PASSES {
                // Never-seen contents: a counter in the leading bytes (the
                // 3-byte bodies repeat, but those are never remembered).
                let unseen: Vec<Bytes> = (0..bodies_per_pass)
                    .map(|_| {
                        fresh += 1;
                        let mut body = vec![0xc3u8; payload];
                        let stamp = fresh.to_le_bytes();
                        let n = stamp.len().min(payload);
                        body[..n].copy_from_slice(&stamp[..n]);
                        Bytes::from(body)
                    })
                    .collect();
                // Known contents (re-learned here should the memo have
                // cleared), each in a buffer the memo has never seen.
                for body in &known {
                    black_box(body_digest(body));
                }
                let copies: Vec<Bytes> = (0..bodies_per_pass)
                    .map(|i| Bytes::copy_from_slice(&known[i % KNOWN]))
                    .collect();
                let pools: [&[Bytes]; 3] = [&unseen, &copies, &known];
                for (pool, best) in pools.into_iter().zip(&mut best) {
                    let mut next = 0usize;
                    let pass = time_ns_per_op(per_pass, || {
                        round(&pool[next % pool.len()]);
                        next += 1;
                    });
                    *best = best.min(pass);
                }
            }
            SignDigestRow {
                payload_bytes: payload,
                miss_ns: best[0],
                equal_content_ns: best[1],
                same_buffer_ns: best[2],
            }
        })
        .collect()
}

fn bench_encode(iters: u64) -> Vec<EncodeRow> {
    PAYLOAD_SIZES
        .iter()
        .map(|&size| {
            let payload = Bytes::from(vec![0x5au8; size]);
            let frame = FsoInbound::Pair(PairMessage::Ordered {
                order_index: 42,
                source: Endpoint::Broadcast,
                bytes: payload,
            });
            let frame_bytes = frame.to_wire().len();
            let n = scaled_iters(iters, size);
            let to_wire_ns = time_ns_per_op(n, || {
                black_box(black_box(&frame).to_wire());
            });
            let to_wire_vec_ns = time_ns_per_op(n, || {
                black_box(black_box(&frame).to_wire_vec());
            });
            EncodeRow {
                payload_bytes: size,
                frame_bytes,
                to_wire_ns,
                to_wire_vec_ns,
            }
        })
        .collect()
}

fn bench_sign_verify(iters: u64) -> Vec<SignVerifyRow> {
    let mut rng = DetRng::new(11);
    let a_id = ProcessId(0);
    let b_id = ProcessId(1);
    let (mut keys, dir) = provision([a_id, b_id], &mut rng);
    let a = keys.remove(&SignerId(a_id)).unwrap();
    let b = keys.remove(&SignerId(b_id)).unwrap();
    let fs = FsId(1);

    PAYLOAD_SIZES
        .iter()
        .map(|&size| {
            let content = FsContent::Output {
                output_seq: 7,
                dest: Endpoint::LocalApp,
                bytes: Bytes::from(vec![0x33u8; size]),
            };
            let n = scaled_iters(iters, size);
            let sign_double_ns = time_ns_per_op(n, || {
                black_box(FsOutput::sign(fs, black_box(content.clone()), &a, &b));
            });
            let output = FsOutput::sign(fs, content.clone(), &a, &b);
            let wire_round_trip_ns = time_ns_per_op(n, || {
                let wire = black_box(&output).to_wire();
                black_box(FsOutput::from_wire(&wire).expect("round trip"));
            });
            let pair = (a.signer, b.signer);
            let verify_ns = time_ns_per_op(n, || {
                black_box(&output)
                    .verify_uncached(&dir, pair)
                    .expect("valid");
            });
            let verify_memo_ns = time_ns_per_op(n, || {
                black_box(&output).verify(&dir, pair).expect("valid");
            });
            SignVerifyRow {
                payload_bytes: size,
                sign_double_ns,
                wire_round_trip_ns,
                verify_ns,
                verify_memo_ns,
            }
        })
        .collect()
}

/// One scheduler event for the hold-model benchmark: ordered by
/// `(time, seq)` exactly like the simulator's queued events.
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

/// Times the classic hold operation (pop the minimum event, push a successor
/// a random distance in the future) at a steady queue population — the
/// standard way to compare pending-event-set implementations.
fn bench_scheduler(iters: u64) -> Vec<SchedulerRow> {
    let hold_ns = |kind: SchedulerKind, pending: usize, iters: u64| -> f64 {
        let mut queue = EventQueue::new(kind);
        let mut rng = DetRng::new(0x5ced);
        let mut seq = 0u64;
        for _ in 0..pending {
            seq += 1;
            queue.push(HoldEvent {
                at: SimTime::from_nanos(rng.below(1_000_000_000)),
                seq,
            });
        }
        // Warm up past the initial window construction so the timed section
        // measures the steady-state hold cost.
        for _ in 0..(iters / 4).max(1_000) {
            let event = queue.pop().expect("queue stays populated");
            seq += 1;
            queue.push(HoldEvent {
                at: event.at + fs_common::time::SimDuration::from_nanos(rng.below(2_000_000) + 1),
                seq,
            });
        }
        let start = Instant::now();
        for _ in 0..iters {
            let event = queue.pop().expect("queue stays populated");
            seq += 1;
            queue.push(HoldEvent {
                at: event.at + fs_common::time::SimDuration::from_nanos(rng.below(2_000_000) + 1),
                seq,
            });
            black_box(event);
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    [1_000usize, 100_000]
        .iter()
        .map(|&pending| {
            let n = iters.max(1_000);
            let legacy = hold_ns(SchedulerKind::LegacyHeap, pending, n);
            let calendar = hold_ns(SchedulerKind::CalendarQueue, pending, n);
            SchedulerRow {
                pending_events: pending,
                legacy_heap_hold_ns: legacy,
                calendar_hold_ns: calendar,
                speedup: legacy / calendar,
            }
        })
        .collect()
}

/// Compares the pre-refactor `BTreeMap` actor table against the dense slab
/// index on a uniformly random lookup workload.
fn bench_actor_lookup(iters: u64) -> Vec<ActorLookupRow> {
    [16usize, 1_024]
        .iter()
        .map(|&actors| {
            let map: BTreeMap<ProcessId, u32> =
                (0..actors as u32).map(|i| (ProcessId(i), i)).collect();
            let slab: Vec<u32> = (0..actors as u32).collect();
            let mut rng = DetRng::new(9);
            let ids: Vec<ProcessId> = (0..1024)
                .map(|_| ProcessId(rng.below(actors as u64) as u32))
                .collect();
            let n = iters.max(1_000);
            let mut cursor = 0usize;
            let btreemap_lookup_ns = time_ns_per_op(n, || {
                cursor = (cursor + 1) % ids.len();
                black_box(map.get(&ids[cursor]).copied());
            });
            let slab_lookup_ns = time_ns_per_op(n, || {
                cursor = (cursor + 1) % ids.len();
                black_box(slab.get(ids[cursor].0 as usize).copied());
            });
            ActorLookupRow {
                actors,
                btreemap_lookup_ns,
                slab_lookup_ns,
                speedup: btreemap_lookup_ns / slab_lookup_ns,
            }
        })
        .collect()
}

/// Hammers the threaded runtime's cross-node send path: `pairs` ping/echo
/// actor pairs, each pair on its own two nodes, exchange `rounds` round
/// trips concurrently.  Fault-free deployments never materialise the link
/// gate, so the `gated` variant schedules a harmless heal on an unused node
/// pair — that alone forces every cross-node send through the
/// snapshot-published gate, without perturbing any live link.
fn bench_send_contention(pairs: u32, rounds: u64, gated: bool) -> ContentionRow {
    struct Contender {
        peer: Option<ProcessId>,
        rounds_left: u64,
    }
    impl Actor for Contender {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            if let Some(peer) = self.peer {
                ctx.send(peer, b"ping"[..].into());
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, _payload: Frame) {
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.send(from, b"pong"[..].into());
            }
        }
    }

    let mut builder = ThreadedBuilder::new(ThreadedConfig::default());
    if gated {
        builder = builder.with_link_schedule(LinkSchedule::new().then(
            SimTime::ZERO,
            LinkScope::Pair {
                a: NodeId(2 * pairs),
                b: NodeId(2 * pairs + 1),
            },
            LinkFault::Heal,
        ));
    }
    for _ in 0..pairs {
        let node_a = builder.add_node();
        let node_b = builder.add_node();
        let a_id = builder.next_process_id();
        let b_id = ProcessId(a_id.0 + 1);
        builder.add_on(
            node_a,
            Box::new(Contender {
                peer: Some(b_id),
                rounds_left: rounds,
            }),
        );
        builder.add_on(
            node_b,
            Box::new(Contender {
                peer: None,
                rounds_left: rounds,
            }),
        );
    }

    let start = Instant::now();
    let rt = builder.start();
    rt.run_until_settled(SimTime::from_secs(120));
    let host_elapsed = start.elapsed();
    let stats = rt.net_stats();
    rt.shutdown();

    let sends = stats.messages_sent;
    assert!(
        sends >= 2 * u64::from(pairs) * rounds,
        "every scheduled round trip must have run before settling"
    );
    let host_secs = host_elapsed.as_secs_f64().max(f64::EPSILON);
    ContentionRow {
        gated,
        node_pairs: pairs,
        rounds_per_pair: rounds,
        cross_node_sends: sends,
        host_elapsed_ms: host_secs * 1e3,
        sends_per_host_sec: sends as f64 / host_secs,
        gate_wait_p99_ns: stats.gate_wait.percentile(0.99).map_or(0, |d| d.as_nanos()),
    }
}

/// The per-ack bookkeeping rows.  The ceiling these feed is a ratio
/// between rows, and this class of host runs the
/// same code at two speeds for stretches far longer than one pass — so the
/// rows are timed in interleaved rounds and each keeps its fastest pass: a
/// slow stretch only ever adds, and it adds to every row of the round alike.
fn bench_ack_path(iters: u64) -> AckPathReport {
    const ROUNDS: usize = 15;
    // Member 0 holds `pending` messages of the other members; acks then
    // arrive, under ever higher clocks, from everyone but the last member,
    // so every ack checks the head against the whole view, nothing is ever
    // delivered and the pending set keeps its size.
    let mut orders: Vec<(OnAckRow, View, SymmetricOrder)> =
        [(9u32, 8usize), (9, 64), (9, 512), (3, 64)]
            .iter()
            .map(|&(members, pending)| {
                let view = View::initial((0..members).map(MemberId));
                let origins = u64::from(members - 2);
                let mut order = SymmetricOrder::new(MemberId(0));
                for i in 0..pending as u64 {
                    let origin = MemberId(1 + (i % origins) as u32);
                    order.on_data(origin, i / origins, 1 + i, vec![0u8; 3], &view);
                }
                let row = OnAckRow {
                    members,
                    pending,
                    on_ack_ns: f64::INFINITY,
                };
                (row, view, order)
            })
            .collect();
    let mut next = 0u64;
    for _ in 0..ROUNDS {
        for (row, view, order) in &mut orders {
            let ackers = u64::from(row.members - 2);
            let pass = time_ns_per_op(iters.max(1_000), || {
                let from = MemberId(1 + (next % ackers) as u32);
                next += 1;
                black_box(order.on_ack(from, 1_000 + next, 0, view));
            });
            row.on_ack_ns = row.on_ack_ns.min(pass);
        }
    }
    let on_ack = orders
        .into_iter()
        .map(|(row, _, order)| {
            assert_eq!(order.pending_count(), row.pending, "nothing may deliver");
            row
        })
        .collect();
    AckPathReport { on_ack }
}

/// One machine output through one wrapper pair and one destination (see the
/// module docs), spliced or as the contiguous reference.  `leader_copy` and
/// `follower_copy` are the two replicas' equal outputs, each in a buffer of
/// its own, as two machines produce them.
struct OutputRound {
    fs: FsId,
    leader: fs_crypto::keys::SigningKey,
    follower: fs_crypto::keys::SigningKey,
    directory: std::sync::Arc<fs_crypto::keys::KeyDirectory>,
    leader_copy: Bytes,
    follower_copy: Bytes,
}

impl OutputRound {
    fn new(payload: usize) -> Self {
        let mut rng = DetRng::new(17);
        let (mut keys, directory) = provision([ProcessId(0), ProcessId(1)], &mut rng);
        let body: Vec<u8> = (0..payload).map(|i| (i % 251) as u8).collect();
        Self {
            fs: FsId(1),
            leader: keys.remove(&SignerId(ProcessId(0))).unwrap(),
            follower: keys.remove(&SignerId(ProcessId(1))).unwrap(),
            directory,
            leader_copy: body.clone().into(),
            follower_copy: body.into(),
        }
    }

    fn content(&self, output_seq: u64, bytes: &Bytes) -> FsContent {
        FsContent::Output {
            output_seq,
            dest: Endpoint::Broadcast,
            bytes: bytes.clone(),
        }
    }

    /// The round; returns the bytes the destination accepted.
    fn run(&self, output_seq: u64, spliced: bool) -> Bytes {
        let pair = (self.leader.signer, self.follower.signer);
        let statement = |content: &FsContent| Statement::of(self.fs, content, body_digest);
        let encode = |message: FsoInbound| {
            if spliced {
                message.to_frame()
            } else {
                message.to_wire().into()
            }
        };
        let decode = |frame: &Frame| {
            let decoded = if spliced {
                FsoInbound::from_frame(frame)
            } else {
                FsoInbound::from_wire_shared(&frame.to_bytes())
            };
            decoded.expect("own frame decodes")
        };

        // Leader: sign its copy; the signature is what the partner gets.
        let leader_statement = statement(&self.content(output_seq, &self.leader_copy));
        let candidate = encode(FsoInbound::Pair(PairMessage::Candidate {
            output_seq,
            dest: Endpoint::Broadcast,
            body_len: self.leader_copy.len() as u32,
            digest: body_digest(&self.leader_copy),
            signature: Signature::sign(&self.leader, leader_statement.as_bytes()),
        }));

        // Follower: check the leader's share over the fields as received,
        // sign its own copy, compare, put the two shares side by side.
        let FsoInbound::Pair(PairMessage::Candidate {
            output_seq,
            dest,
            body_len,
            digest,
            signature,
        }) = decode(&candidate)
        else {
            unreachable!("a candidate was encoded");
        };
        let remote = Statement::output(self.fs, output_seq, dest, body_len as usize, &digest);
        signature
            .verify(&self.directory, remote.as_bytes())
            .expect("the leader's signature verifies");
        let own = self.content(output_seq, &self.follower_copy);
        let own_statement = statement(&own);
        let own_share = Signature::sign(&self.follower, own_statement.as_bytes());
        assert!(own_statement == remote, "the replicas agree");
        let external = encode(FsoInbound::External(FsOutput {
            fs: self.fs,
            content: own,
            first: signature,
            second: own_share,
        }));

        // Destination: decode, verify, take the bytes.
        let FsoInbound::External(output) = decode(&external) else {
            unreachable!("an external output was encoded");
        };
        let verdict = output.verify(&self.directory, pair);
        verdict.expect("the double signature verifies");
        match output.content {
            FsContent::Output { bytes, .. } => bytes,
            FsContent::FailSignal => unreachable!("an output was signed"),
        }
    }
}

/// The `frame_path` rows: interleaved passes of both arms, fastest pass
/// kept (see [`bench_ack_path`] for why), then one counted pass of each.
fn bench_frame_path(iters: u64) -> Vec<FramePathRow> {
    const PASSES: usize = 15;
    [3usize, 1024, 10 * 1024]
        .into_iter()
        .map(|payload| {
            let round = OutputRound::new(payload);
            assert_eq!(round.run(0, true), round.run(1, false));
            let per_pass = (scaled_iters(iters, payload) / 8).max(50);
            let mut next_seq = 2u64;
            let mut best = [f64::INFINITY; 2];
            for _ in 0..PASSES {
                for (arm, spliced) in [false, true].into_iter().enumerate() {
                    let pass = time_ns_per_op(per_pass, || {
                        next_seq += 1;
                        black_box(round.run(next_seq, spliced));
                    });
                    best[arm] = best[arm].min(pass);
                }
            }
            let mut copied = [0.0f64; 2];
            for (arm, spliced) in [false, true].into_iter().enumerate() {
                let ((), counts) = count_allocs(payload, || {
                    for _ in 0..per_pass {
                        next_seq += 1;
                        black_box(round.run(next_seq, spliced));
                    }
                });
                assert!(counts.allocs > 0, "the counting allocator is installed");
                copied[arm] = counts.large_bytes as f64 / per_pass as f64;
            }
            FramePathRow {
                payload_bytes: payload,
                contiguous_ns: best[0],
                spliced_ns: best[1],
                ratio: best[1] / best[0],
                contiguous_payload_bytes_copied: copied[0],
                spliced_payload_bytes_copied: copied[1],
            }
        })
        .collect()
}

/// The verify-batch subset of a reference row the guard needs.
#[derive(Debug, Deserialize)]
struct ReferenceVerifyBatchRow {
    payload_bytes: usize,
    batch: usize,
    per_mac_ns: f64,
}

/// The batched-verification section of a reference report.  Every section
/// is parsed on its own (unknown fields in the JSON are ignored by the
/// deserializer): a reference that lacks one simply does not arm its guard.
#[derive(Debug, Deserialize)]
struct ReferenceVerifyBatch {
    verify_batch: Vec<ReferenceVerifyBatchRow>,
}

/// The contention subset of a reference row the guard needs.
#[derive(Debug, Deserialize)]
struct ReferenceContentionRow {
    gated: bool,
    sends_per_host_sec: f64,
}

/// The threaded send-contention section of a reference report.
#[derive(Debug, Deserialize)]
struct ReferenceContention {
    send_contention: Vec<ReferenceContentionRow>,
}

/// The crypto section of a reference report: the kernel it was measured on
/// and the SIMD-backend MAC throughput per payload.  References written
/// before the kernel was recorded (including those with the retired
/// multi-block column) do not carry it.
#[derive(Debug, Deserialize)]
struct ReferenceCrypto {
    sha256_kernel: String,
    hmac: Vec<ReferenceHmacRow>,
}

#[derive(Debug, Deserialize)]
struct ReferenceHmacRow {
    payload_bytes: usize,
    simd_mb_per_s: f64,
}

/// The reference numbers the regression guard compares against.
#[derive(Debug, Clone, Default)]
struct RegressionReference {
    /// `(payload_bytes, batch, per_mac_ns)` of the largest-batch,
    /// largest-payload batched-verification row.
    verify_batch: Option<(usize, usize, f64)>,
    /// Gated-row sends/host-sec of the send-contention section.
    contention_gated: Option<f64>,
    /// The SHA-256 kernel the reference's crypto rows were measured on.
    kernel: Option<String>,
    /// `(payload_bytes, MB/s)` of the largest-payload SIMD-backend MAC row.
    hmac_simd: Option<(usize, f64)>,
}

/// Extracts the guard references a reference report carries.
fn parse_reference(json: &str) -> RegressionReference {
    let mut reference = RegressionReference::default();
    if let Ok(r) = serde_json::from_str::<ReferenceVerifyBatch>(json) {
        reference.verify_batch = r
            .verify_batch
            .iter()
            .max_by_key(|row| (row.payload_bytes, row.batch))
            .map(|row| (row.payload_bytes, row.batch, row.per_mac_ns));
    }
    if let Ok(r) = serde_json::from_str::<ReferenceContention>(json) {
        reference.contention_gated = r
            .send_contention
            .iter()
            .find(|row| row.gated)
            .map(|row| row.sends_per_host_sec);
    }
    if let Ok(crypto) = serde_json::from_str::<ReferenceCrypto>(json) {
        reference.hmac_simd = crypto
            .hmac
            .iter()
            .max_by_key(|row| row.payload_bytes)
            .map(|row| (row.payload_bytes, row.simd_mb_per_s));
        reference.kernel = Some(crypto.sha256_kernel);
    }
    reference
}

/// Loads the regression-guard reference **before any benchmarking runs**:
/// `FS_BENCH_HOTPATH_REF` normally points at the committed
/// `results/bench-hotpath.json`, which this very run overwrites later, so
/// the reference numbers must be captured up front (comparing the fresh
/// report to itself would make the guard vacuous).  Exits 3 when the
/// reference is configured but unreadable.
fn load_regression_reference() -> Option<RegressionReference> {
    let ref_path = std::env::var("FS_BENCH_HOTPATH_REF").ok()?;
    match std::fs::read_to_string(&ref_path) {
        Ok(json) => Some(parse_reference(&json)),
        Err(e) => {
            eprintln!("regression guard: cannot read {ref_path}: {e}");
            std::process::exit(3);
        }
    }
}

/// A throughput guard: fails the run (exit 3) when `fresh` drops more than
/// the allowed fraction below the committed reference captured at start-up.
fn check_floor(label: &str, what: &str, unit: &str, fresh: f64, reference: f64, blame: &str) {
    let max_regression = env_f64("FS_BENCH_HOTPATH_MAX_REGRESSION", 0.20);
    let floor = reference * (1.0 - max_regression);
    if fresh < floor {
        eprintln!(
            "regression guard [{label}]: {what} {fresh:.0} {unit} is more than {:.0}% below the \
             reference {reference:.0} {unit} (floor {floor:.0} {unit}) — {blame}",
            max_regression * 100.0,
        );
        std::process::exit(3);
    }
    eprintln!(
        "regression guard [{label}]: {fresh:.0} {unit} vs reference {reference:.0} {unit} \
         (floor {floor:.0} {unit}) — ok"
    );
}

/// The time-domain counterpart of [`check_floor`] for costs with a ceiling
/// of their own rather than a reference row: fails the run (exit 3) when
/// `fresh` exceeds `ceiling`.
fn check_ceiling(label: &str, what: &str, unit: &str, fresh: f64, ceiling: f64, blame: &str) {
    if fresh > ceiling {
        eprintln!(
            "regression guard [{label}]: {what} {fresh:.1} {unit} is above its ceiling \
             {ceiling:.1} {unit} — {blame}"
        );
        std::process::exit(3);
    }
    eprintln!(
        "regression guard [{label}]: {what} {fresh:.1} {unit} (ceiling {ceiling:.1} {unit}) — ok"
    );
}

/// The bookkeeping guard: an ack costs the same whether 8 or 512 messages
/// are pending (a scan of the pending set would make it ~linear).
fn check_ack_path(fresh: &AckPathReport) {
    let at = |pending: usize| {
        fresh
            .on_ack
            .iter()
            .find(|row| row.members == 9 && row.pending == pending)
            .map(|row| row.on_ack_ns)
            .expect("the on_ack sweep covers 8 and 512 pending")
    };
    check_ceiling(
        "ack_path",
        "on_ack at 512 pending",
        "ns",
        at(512),
        1.5 * at(8),
        "per-ack work grows with the pending set",
    );
}

/// The digest-memo guards: once a 10 KiB body has been digested, signing it
/// again costs what signing 3 bytes costs, and finding the other replica's
/// equal copy by content stays well under the hash pass it saves.
fn check_sign_digest(fresh: &[SignDigestRow]) {
    let at = |payload: usize| {
        fresh
            .iter()
            .find(|row| row.payload_bytes == payload)
            .expect("the sign_digest sweep covers 3 B and 10 KiB")
    };
    let (small, large) = (at(3), at(10 * 1024));
    check_ceiling(
        "sign_digest",
        "same-buffer 10 KiB round",
        "ns",
        large.same_buffer_ns,
        1.2 * small.same_buffer_ns,
        "signing a digested body depends on its size again",
    );
    check_ceiling(
        "sign_digest",
        "10 KiB equal-content probe",
        "ns",
        large.equal_content_ns - large.same_buffer_ns,
        1_000.0,
        "memo bucket hash or compare regression",
    );
}

/// The frame-path guards: the spliced 10 KiB round moves no payload byte
/// and is no slower than the contiguous reference; below the splice size
/// the two arms run the same codec path and must cost the same.
fn check_frame_path(fresh: &[FramePathRow]) {
    let at = |payload: usize| {
        fresh
            .iter()
            .find(|row| row.payload_bytes == payload)
            .expect("the frame_path sweep covers 3 B and 10 KiB")
    };
    let large = at(10 * 1024);
    check_ceiling(
        "frame_path",
        "payload copied per spliced 10 KiB round",
        "B",
        large.spliced_payload_bytes_copied,
        0.0,
        "a payload copy is back on the wrapper path",
    );
    check_ceiling(
        "frame_path",
        "spliced 10 KiB round",
        "ns",
        large.spliced_ns,
        large.contiguous_ns,
        "splicing costs more than the copies it saves",
    );
    let small = at(3);
    check_ceiling(
        "frame_path",
        "spliced 3 B round",
        "ns",
        small.spliced_ns,
        1.1 * small.contiguous_ns,
        "small frames pay for the splice machinery",
    );
}

fn main() {
    let iters = env_u64("FS_BENCH_HOTPATH_ITERS", 100_000);
    // Capture the reference before this run overwrites the report file.
    let regression_reference = load_regression_reference();

    eprintln!("hotpath: hmac ({iters} base iters)...");
    let hmac = bench_hmac(iters);
    eprintln!("hotpath: batched signature verification...");
    let verify_batch = bench_verify_batch(iters / 4);
    eprintln!("hotpath: sign over the body digest...");
    let sign_digest = bench_sign_digest(iters);
    eprintln!("hotpath: encode...");
    let encode = bench_encode(iters);
    eprintln!("hotpath: sign/verify...");
    let sign_verify = bench_sign_verify(iters / 4);
    eprintln!("hotpath: scheduler (hold model)...");
    let scheduler = bench_scheduler(iters / 4);
    let actor_lookup = bench_actor_lookup(iters);
    let contention_pairs = env_u64("FS_BENCH_HOTPATH_CONTENTION_PAIRS", 4) as u32;
    let contention_rounds = env_u64("FS_BENCH_HOTPATH_CONTENTION_ROUNDS", 1_000);
    eprintln!(
        "hotpath: threaded send contention ({contention_pairs} pairs \u{d7} \
         {contention_rounds} rounds)..."
    );
    let send_contention = vec![
        bench_send_contention(contention_pairs, contention_rounds, false),
        bench_send_contention(contention_pairs, contention_rounds, true),
    ];
    eprintln!("hotpath: ack path...");
    let ack_path = bench_ack_path(iters);
    eprintln!("hotpath: frame path...");
    let frame_path = bench_frame_path(iters);

    println!(
        "{:<16} {:>14} {:>14} {:>9}",
        "hmac payload", "one-shot ns", "cached ns", "speedup"
    );
    for row in &hmac {
        println!(
            "{:<16} {:>14.0} {:>14.0} {:>8.2}x",
            row.payload_bytes, row.one_shot_ns, row.cached_key_ns, row.speedup
        );
    }
    let sha256_kernel = kernel_name();
    println!("\nsha256 kernel: {sha256_kernel}");
    println!(
        "{:<16} {:>13} {:>13} {:>16}",
        "hmac backends", "scalar MB/s", "simd MB/s", "simd-b8 MB/s"
    );
    for row in &hmac {
        println!(
            "{:<16} {:>13.0} {:>13.0} {:>16.0}",
            row.payload_bytes, row.scalar_mb_per_s, row.simd_mb_per_s, row.simd_batch8_mb_per_s
        );
    }
    println!(
        "\n{:<16} {:>6} {:>14} {:>14}",
        "verify payload", "batch", "total ns", "per-MAC ns"
    );
    for row in &verify_batch {
        println!(
            "{:<16} {:>6} {:>14.0} {:>14.0}",
            row.payload_bytes, row.batch, row.total_ns, row.per_mac_ns
        );
    }
    println!(
        "\n{:<16} {:>14} {:>16} {:>14}",
        "sign_digest", "miss ns", "equal-content ns", "same-buffer ns"
    );
    for row in &sign_digest {
        println!(
            "{:<16} {:>14.0} {:>16.0} {:>14.0}",
            row.payload_bytes, row.miss_ns, row.equal_content_ns, row.same_buffer_ns
        );
    }
    println!(
        "\n{:<16} {:>12} {:>14} {:>16}",
        "encode payload", "frame B", "to_wire ns", "to_wire_vec ns"
    );
    for row in &encode {
        println!(
            "{:<16} {:>12} {:>14.0} {:>16.0}",
            row.payload_bytes, row.frame_bytes, row.to_wire_ns, row.to_wire_vec_ns
        );
    }
    println!(
        "\n{:<16} {:>14} {:>14} {:>9}",
        "sched pending", "heap hold ns", "calendar ns", "speedup"
    );
    for row in &scheduler {
        println!(
            "{:<16} {:>14.0} {:>14.0} {:>8.2}x",
            row.pending_events, row.legacy_heap_hold_ns, row.calendar_hold_ns, row.speedup
        );
    }
    for row in &actor_lookup {
        println!(
            "actor lookup n={:<6} btreemap {:>6.1} ns  slab {:>6.1} ns  ({:.2}x)",
            row.actors, row.btreemap_lookup_ns, row.slab_lookup_ns, row.speedup
        );
    }
    for row in &send_contention {
        println!(
            "send_contention ({}, {} pairs): {} cross-node sends in {:.1} ms \
             ({:.0} sends/s, gate-wait p99 {} ns)",
            if row.gated { "gated" } else { "ungated" },
            row.node_pairs,
            row.cross_node_sends,
            row.host_elapsed_ms,
            row.sends_per_host_sec,
            row.gate_wait_p99_ns,
        );
    }

    for row in &ack_path.on_ack {
        println!(
            "ack_path: on_ack, {} members, {:>3} pending  {:>7.1} ns",
            row.members, row.pending, row.on_ack_ns
        );
    }

    println!(
        "\n{:<16} {:>14} {:>12} {:>7} {:>16} {:>14}",
        "frame_path",
        "contiguous ns",
        "spliced ns",
        "ratio",
        "contig. copied B",
        "spliced copied B"
    );
    for row in &frame_path {
        println!(
            "{:<16} {:>14.0} {:>12.0} {:>6.2}x {:>16.0} {:>14.0}",
            row.payload_bytes,
            row.contiguous_ns,
            row.spliced_ns,
            row.ratio,
            row.contiguous_payload_bytes_copied,
            row.spliced_payload_bytes_copied,
        );
    }

    let small_speedup = hmac.first().map(|r| r.speedup).unwrap_or(0.0);
    if small_speedup < 1.5 {
        eprintln!(
            "WARNING: cached HMAC key speedup on small payloads is only {small_speedup:.2}x \
             (expected >= 1.5x)"
        );
    }

    let report = HotpathReport {
        id: "bench-hotpath".to_string(),
        iterations: iters,
        sha256_kernel: sha256_kernel.to_string(),
        hmac,
        verify_batch,
        sign_digest,
        encode,
        sign_verify,
        scheduler,
        actor_lookup,
        send_contention,
        ack_path,
        frame_path,
    };
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create results dir: {e}");
        std::process::exit(1);
    }
    let path = dir.join("bench-hotpath.json");
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            // A missing report must fail the CI step rather than let the
            // artifact silently disappear from the perf trajectory.
            std::process::exit(1);
        }
    }
    // After the fresh report is on disk (so CI still uploads it), enforce
    // the guards against the reference captured at start-up.
    if let Some(reference) = regression_reference {
        check_crypto_regression(&report, &reference);
        if let Some(gated_ref) = reference.contention_gated {
            check_contention_regression(&report.send_contention, gated_ref);
        }
        check_ack_path(&report.ack_path);
        check_sign_digest(&report.sign_digest);
        check_frame_path(&report.frame_path);
    }
}

/// The crypto-row guards.  A MAC or batch-verify number means nothing across
/// SHA-256 kernels (a SHA-NI host is ~6x a lane host on these rows), so they
/// compare only against a reference measured on the kernel this host runs —
/// and say so, loudly, when they cannot.
fn check_crypto_regression(fresh: &HotpathReport, reference: &RegressionReference) {
    let ref_kernel = reference.kernel.as_deref().unwrap_or("unrecorded");
    if ref_kernel != fresh.sha256_kernel {
        eprintln!(
            "regression guard [crypto]: skipped: kernel mismatch (ref {ref_kernel}, host {})",
            fresh.sha256_kernel
        );
        return;
    }
    if let Some((payload, ref_mb_per_s)) = reference.hmac_simd {
        check_hmac_regression(&fresh.hmac, payload, ref_mb_per_s);
    }
    if let Some((payload, batch, ref_per_mac_ns)) = reference.verify_batch {
        check_verify_batch_regression(&fresh.verify_batch, payload, batch, ref_per_mac_ns);
    }
}

/// The backend-sweep guard: the SIMD backend's cached-key MAC throughput at
/// the reference's largest payload.
fn check_hmac_regression(fresh: &[HmacRow], payload: usize, reference: f64) {
    let Some(row) = fresh.iter().find(|r| r.payload_bytes == payload) else {
        eprintln!(
            "regression guard [hmac]: fresh report lacks the {payload} B row the reference carries"
        );
        std::process::exit(3);
    };
    check_floor(
        "hmac",
        &format!("{payload} B simd-backend MAC throughput"),
        "MB/s",
        row.simd_mb_per_s,
        reference,
        "compress-kernel regression",
    );
}

/// The time-domain guard for batched verification: the per-MAC cost of the
/// reference's largest (payload, batch) row must not climb more than the
/// allowed fraction *above* the committed reference (inverse of the
/// throughput guards: here smaller is better).
fn check_verify_batch_regression(
    fresh: &[VerifyBatchRow],
    payload: usize,
    batch: usize,
    reference_ns: f64,
) {
    let Some(row) = fresh
        .iter()
        .find(|r| r.payload_bytes == payload && r.batch == batch)
    else {
        eprintln!(
            "regression guard [verify_batch]: fresh report lacks the \
             ({payload} B, batch {batch}) row the reference carries"
        );
        std::process::exit(3);
    };
    let max_regression = env_f64("FS_BENCH_HOTPATH_MAX_REGRESSION", 0.20);
    let ceiling = reference_ns * (1.0 + max_regression);
    if row.per_mac_ns > ceiling {
        eprintln!(
            "regression guard [verify_batch]: {payload} B batch-{batch} per-MAC cost \
             {:.0} ns is more than {:.0}% above the reference {:.0} ns (ceiling {:.0} ns) \
             — batch-verify or backend regression",
            row.per_mac_ns,
            max_regression * 100.0,
            reference_ns,
            ceiling,
        );
        std::process::exit(3);
    }
    eprintln!(
        "regression guard [verify_batch]: {:.0} ns/MAC vs reference {:.0} ns (ceiling {:.0} ns) — ok",
        row.per_mac_ns, reference_ns, ceiling
    );
}

/// The contended-send-path guard: a drop in the gated row's sends/host-sec
/// means the snapshot gate (or the node wakeup path under it) got more
/// expensive under contention.
fn check_contention_regression(fresh: &[ContentionRow], reference: f64) {
    let Some(row) = fresh.iter().find(|r| r.gated) else {
        eprintln!("regression guard [send_contention]: fresh report lacks the gated row");
        std::process::exit(3);
    };
    check_floor(
        "send_contention",
        "gated send path",
        "sends/s",
        row.sends_per_host_sec,
        reference,
        "link-gate or send-path contention regression",
    );
}

#[cfg(test)]
mod tests {
    use super::parse_reference;

    const SECTIONS: &str = r#""verify_batch": [{"payload_bytes": 10240, "batch": 16, "total_ns": 16.0, "per_mac_ns": 1.0}],
        "send_contention": [{"gated": true, "sends_per_host_sec": 9.0}]"#;

    /// A report written before the kernel was recorded (it still carries the
    /// retired multi-block column and the retired pipeline rows) arms the
    /// verify-batch and contention guards and leaves the crypto guards to
    /// report a kernel mismatch.
    #[test]
    fn reference_with_multiblock_column_still_parses() {
        let old = format!(
            r#"{{"id": "bench-hotpath", "hmac": [{{"payload_bytes": 10240, "scalar_mb_per_s": 228.0,
                "multiblock_ns": 48964.8, "multiblock_mb_per_s": 209.1}}],
                "pipeline": {{"deliveries_per_host_sec": 100.0}}, {SECTIONS}}}"#
        );
        let reference = parse_reference(&old);
        assert_eq!(reference.verify_batch, Some((10240, 16, 1.0)));
        assert_eq!(reference.contention_gated, Some(9.0));
        assert_eq!(reference.kernel, None);
        assert_eq!(reference.hmac_simd, None);
    }

    /// The `ack_path` section carries ceilings of its own, so the guard
    /// reads nothing of it from the reference: references with the section
    /// (here) and without it (above) arm the same guards.
    #[test]
    fn reference_with_kernel_arms_the_crypto_guards() {
        let new = format!(
            r#"{{"sha256_kernel": "sha-ni", "hmac": [{{"payload_bytes": 3, "simd_mb_per_s": 18.0}},
                {{"payload_bytes": 10240, "simd_mb_per_s": 1400.0}}],
                "ack_path": {{"on_ack": [{{"pending": 8, "on_ack_ns": 21.0}}]}}, {SECTIONS}}}"#
        );
        let reference = parse_reference(&new);
        assert_eq!(reference.kernel.as_deref(), Some("sha-ni"));
        assert_eq!(reference.hmac_simd, Some((10240, 1400.0)));
    }
}
