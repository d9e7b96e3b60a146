//! Structural hot-path guards: two properties of the host-side wire path,
//! each checked as a comparison between two numbers of the *same run*, so
//! the verdict depends on no committed reference, no environment variable
//! and no other host.
//!
//! What a step costs in absolute terms — MAC throughput, batched
//! verification, encode, sign/verify, the scheduler's hold operation — and
//! what a whole deployment costs per ordered delivery is `benchmark/`'s job
//! (`crypto.*`, `common.codec.*`, `simnet.sched.hold_ns` and the end-to-end
//! metrics of its six workloads).  Costs with an exact counter are guarded
//! by the count: `tests/signature_ops.rs`, `tests/hash_passes.rs`,
//! `tests/zero_copy.rs`, `tests/ack_traffic.rs`.
//!
//! Sections (written to `results/bench-hotpath.json`):
//!
//! * **ack_path** — the per-ack bookkeeping around the cryptography:
//!   nanoseconds per `SymmetricOrder::on_ack` in a 9-member view with 8, 64
//!   and 512 messages pending, and in a 3-member view (an ack checks the
//!   head against one clock per view member).  *Guard:* `on_ack` at 512
//!   pending costs at most 1.5× what it costs at 8 — a scan of the pending
//!   set would make it linear.
//!
//! * **frame_path** — one machine output through one wrapper pair and one
//!   destination — leader signs and encodes the (body-less) candidate
//!   frame; follower decodes it, verifies the share it carries, signs its
//!   own copy, compares, and encodes the external frame around the two
//!   shares; destination decodes and verifies — at 3 B, 1 KiB and 10 KiB,
//!   two ways: the *contiguous reference*, where every frame is one
//!   contiguous buffer (`to_wire`, `from_wire_shared`) and a decoded body
//!   therefore a window into it, and the *spliced* path the wrappers run
//!   (`to_frame`, `from_frame`), where a body travels as the sender's own
//!   buffer.  Both arms sign and verify statements over `body_digest` and
//!   end in the same `FsOutput::verify`.  Per round: nanoseconds and payload
//!   bytes copied, counted at the allocator as the bytes of every
//!   allocation at least as large as the payload.  Every round signs a
//!   fresh output, so both arms pay the pair's real MACs; what differs is
//!   the bytes moved and how the body digest is found (by address when
//!   spliced, by content otherwise).  *Guards:* the spliced 10 KiB round
//!   copies no payload byte and costs no more than the contiguous
//!   reference, and the spliced 3 B round — which takes the contiguous path
//!   inside the codec — costs at most 1.1× the reference.
//!
//! Every timed row is the fastest of [`PASSES`] passes, and a pass times
//! every row of its section once, one after the other: this class of host
//! runs the same code at two speeds for stretches far longer than one pass,
//! a slow stretch only ever adds, and it adds to both arms of a ratio alike.
//! A tripped guard exits 3 after the report is written.

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;

use failsignal::digest::body_digest;
use failsignal::message::{FsContent, FsOutput, FsoInbound, PairMessage, Statement};
use fs_bench::alloc_count::{count_allocs, CountingAlloc};
use fs_bench::report::results_dir;
use fs_common::codec::Wire;
use fs_common::id::{FsId, MemberId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::{Bytes, Frame};
use fs_crypto::keys::{provision, SignerId};
use fs_crypto::sha256::kernel_name;
use fs_crypto::sig::Signature;
use fs_newtop::total_sym::SymmetricOrder;
use fs_newtop::view::View;
use fs_smr::machine::Endpoint;

/// Counts what the `frame_path` section allocates (one thread-local read
/// per allocation everywhere else).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `on_ack` calls per timed pass; a `frame_path` pass runs a fiftieth as
/// many output rounds.
const ITERATIONS: u64 = 100_000;

/// Interleaved passes per row; the fastest is kept.
const PASSES: usize = 15;

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

/// Runs `pass(row)` for every row in turn, [`PASSES`] times over, and
/// returns each row's fastest pass.
fn fastest_of_interleaved(rows: usize, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; rows];
    for _ in 0..PASSES {
        for (row, best) in best.iter_mut().enumerate() {
            *best = best.min(pass(row));
        }
    }
    best
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
    /// The SHA-256 kernel this host resolved to; `frame_path` rounds pay
    /// real MACs, so their nanoseconds are not comparable across kernels.
    sha256_kernel: String,
    /// Per-ack bookkeeping (see the module docs).
    ack_path: AckPathReport,
    /// One output round, contiguous reference vs spliced (see the module
    /// docs).
    frame_path: Vec<FramePathRow>,
}

/// The per-ack bookkeeping rows.
fn bench_ack_path() -> AckPathReport {
    // Member 0 holds `pending` messages of the other members; acks then
    // arrive, under ever higher clocks, from everyone but the last member,
    // so every ack checks the head against the whole view, nothing is ever
    // delivered and the pending set keeps its size.
    let mut orders: Vec<(u32, usize, View, SymmetricOrder)> =
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
                (members, pending, view, order)
            })
            .collect();
    let mut next = 0u64;
    let best = fastest_of_interleaved(orders.len(), |at| {
        let (members, _, view, order) = &mut orders[at];
        let ackers = u64::from(*members - 2);
        time_ns_per_op(ITERATIONS, || {
            let from = MemberId(1 + (next % ackers) as u32);
            next += 1;
            black_box(order.on_ack(from, 1_000 + next, 0, view));
        })
    });
    let on_ack = orders
        .into_iter()
        .zip(best)
        .map(|((members, pending, _, order), on_ack_ns)| {
            assert_eq!(order.pending_count(), pending, "nothing may deliver");
            OnAckRow {
                members,
                pending,
                on_ack_ns,
            }
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

/// The `frame_path` rows: every payload's two arms in the same interleaved
/// passes, then one counted pass of each.
fn bench_frame_path() -> Vec<FramePathRow> {
    let per_pass = ITERATIONS / 50;
    let rounds: Vec<(usize, OutputRound)> = [3usize, 1024, 10 * 1024]
        .into_iter()
        .map(|payload| (payload, OutputRound::new(payload)))
        .collect();
    let mut next_seq = 0u64;
    let mut run = |round: &OutputRound, spliced: bool| {
        next_seq += 1;
        round.run(next_seq, spliced)
    };
    for (_, round) in &rounds {
        assert_eq!(run(round, true), run(round, false));
    }
    // Row `2 * payload + arm`; arm 0 is the contiguous reference.
    let best = fastest_of_interleaved(2 * rounds.len(), |at| {
        let round = &rounds[at / 2].1;
        time_ns_per_op(per_pass, || {
            black_box(run(round, at % 2 == 1));
        })
    });
    rounds
        .iter()
        .zip(best.chunks(2))
        .map(|((payload, round), ns)| {
            let copied = [false, true].map(|spliced| {
                let ((), counts) = count_allocs(*payload, || {
                    for _ in 0..per_pass {
                        black_box(run(round, spliced));
                    }
                });
                assert!(counts.allocs > 0, "the counting allocator is installed");
                counts.large_bytes as f64 / per_pass as f64
            });
            FramePathRow {
                payload_bytes: *payload,
                contiguous_ns: ns[0],
                spliced_ns: ns[1],
                ratio: ns[1] / ns[0],
                contiguous_payload_bytes_copied: copied[0],
                spliced_payload_bytes_copied: copied[1],
            }
        })
        .collect()
}

/// Fails the run (exit 3) when `fresh` exceeds `ceiling`.
fn check_ceiling(label: &str, what: &str, unit: &str, fresh: f64, ceiling: f64, blame: &str) {
    if fresh > ceiling {
        eprintln!(
            "guard [{label}]: {what} {fresh:.1} {unit} is above its ceiling \
             {ceiling:.1} {unit} — {blame}"
        );
        std::process::exit(3);
    }
    eprintln!("guard [{label}]: {what} {fresh:.1} {unit} (ceiling {ceiling:.1} {unit}) — ok");
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
    eprintln!("hotpath: ack path ({ITERATIONS} acks per pass)...");
    let ack_path = bench_ack_path();
    eprintln!("hotpath: frame path...");
    let frame_path = bench_frame_path();

    let sha256_kernel = kernel_name();
    println!("sha256 kernel: {sha256_kernel}");
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

    let report = HotpathReport {
        id: "bench-hotpath".to_string(),
        iterations: ITERATIONS,
        sha256_kernel: sha256_kernel.to_string(),
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
    // After the report is on disk, so CI still uploads it.
    check_ack_path(&report.ack_path);
    check_frame_path(&report.frame_path);
}
