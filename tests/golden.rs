//! Golden bytes: digests of signed wire frames and of simulator traces.
//! Each set was re-pinned deliberately, by a change that meant to move it
//! (old → new in CHANGES.md every time): the four frame digests when the
//! signatures moved from `header ‖ body` to the statement
//! `header ‖ SHA-256(body)` (tag values changed, frame lengths — asserted
//! below since the commit before that — did not; the traces did not move);
//! the two trace digests when symmetric total order stopped acknowledging
//! every message explicitly (fewer, shorter `Ack`s: 1 488 → 1 152 trace
//! events at n = 3, 36 000 → 10 800 at n = 9; the frames did not move).
//! A third set — the `gated_*` pins: trace digest, `LoadStats` and
//! latency-sample count of runs under backpressure, batching, a member
//! restart and router expiry — was computed on the commit before the load
//! generators and the deployment path were unified, and did not move.
//!
//! When a double-signed output became two signature shares over one
//! statement — no counter-signature, no body in the candidate, duplicates
//! dropped before they are verified — everything the *fail-signal* protocol
//! says moved and was re-pinned: the second tag of each `External` frame
//! (its length, 103 + body, did not), the `Candidate` frames (now 95 bytes
//! whatever the body), both FS-NewTOP trace digests and the fail-signal
//! `gated_*` pin (same events, earlier instants and smaller pair frames).
//! What the *crash-tolerant* protocol says did not move, and is asserted
//! first: the two crash `gated_*` pins, and a crash NewTOP n = 3 trace
//! digest pinned on the commit before.
//!
//! Every tag, frame byte and trace event the protocol
//! emits is a pure function of (keys, content, seed), so any change that
//! alters one of these digests changed what the system says on the wire —
//! not merely how fast the host computes it.

use fs_smr_suite::common::codec::Wire;
use fs_smr_suite::common::id::{FsId, MemberId, ProcessId};
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::common::Bytes;
use fs_smr_suite::crypto::keys::{provision, SignerId};
use fs_smr_suite::crypto::sha256::{CompressBackend, Sha256};
use fs_smr_suite::crypto::sig::Signature;
use fs_smr_suite::failsignal::message::{FsContent, FsOutput, FsoInbound, PairMessage, Statement};
use fs_smr_suite::harness::{
    Admission, Cluster, FaultSchedule, LoadStats, NewTopService, Protocol, Scenario, SmrKvService,
    Workload,
};
use fs_smr_suite::newtop::suspector::SuspectorConfig;
use fs_smr_suite::simnet::trace::TraceLog;
use fs_smr_suite::smr::machine::Endpoint;

/// Hashes on the scalar oracle so the golden check never depends on the
/// kernel under test.
fn oracle_hex(bytes: &[u8]) -> String {
    Sha256::digest_with_backend(CompressBackend::Scalar, bytes).to_hex()
}

/// The `(External, Candidate)` frames for one payload size under fixed keys.
fn frames(payload_len: usize) -> (Bytes, Bytes) {
    let mut rng = DetRng::new(0x601d);
    let (mut keys, _dir) = provision([ProcessId(0), ProcessId(1)], &mut rng);
    let leader = keys.remove(&SignerId(ProcessId(0))).unwrap();
    let follower = keys.remove(&SignerId(ProcessId(1))).unwrap();
    let fs = FsId(3);
    let payload: Bytes = (0..payload_len)
        .map(|i| (i % 251) as u8)
        .collect::<Vec<u8>>()
        .into();
    let content = FsContent::Output {
        output_seq: 7,
        dest: Endpoint::Peer(MemberId(2)),
        bytes: payload.clone(),
    };
    let candidate = FsoInbound::Pair(PairMessage::Candidate {
        output_seq: 7,
        dest: Endpoint::Peer(MemberId(2)),
        body_len: payload_len as u32,
        digest: Sha256::digest(&payload),
        signature: Signature::sign(
            &follower,
            Statement::of(fs, &content, |body| Sha256::digest(body)).as_bytes(),
        ),
    });
    let external = FsoInbound::External(FsOutput::sign(fs, content, &leader, &follower));
    (external.to_wire(), candidate.to_wire())
}

#[test]
fn signed_frames_match_golden_digests() {
    let golden = [
        (
            3usize,
            "8f2e0485664bb8fe597dfa48d8bb5392eb05344a08c8c178a5de4d297211bbd4",
            "e774b7376578908f74ec0cdc2ee7d55b495a964c81a3ec3c0d33f17c7dcf4e2d",
        ),
        (
            10_240,
            "fdcb9db2d1dfe29f83e79ff43d015a9dae929c428e6d78e9270369fcf25d3a67",
            "b4c2dab52a7ffb3a47c639d14678f4c4e72d326aa939feeb154ef49447995327",
        ),
    ];
    for (len, external_hex, candidate_hex) in golden {
        let (external, candidate) = frames(len);
        // Tags are part of the frames; their sizes are not theirs to change.
        // A candidate names the body by length and digest, never carries it.
        assert_eq!(external.len(), 103 + len, "External, {len} B");
        assert_eq!(candidate.len(), 95, "Candidate, {len} B");
        assert_eq!(oracle_hex(&external), external_hex, "External, {len} B");
        assert_eq!(oracle_hex(&candidate), candidate_hex, "Candidate, {len} B");
    }
}

/// The scalar-oracle digest of the full simulator trace of one NewTOP run
/// under `protocol`: `members` members, 4 multicasts each, seed 2003.
fn newtop_trace_hex(protocol: Protocol, members: u32) -> String {
    let mut run = Scenario::new(NewTopService::new())
        .members(members)
        .protocol(protocol)
        .workload(
            Workload::paper_default()
                .messages(4)
                .interval(SimDuration::from_millis(25)),
        )
        .seed(2003)
        .build();
    run.enable_trace();
    run.run_until(SimTime::from_secs(120));
    let logs = run.delivery_logs();
    assert_eq!(
        logs[0].len(),
        members as usize * 4,
        "{members} members x 4 messages"
    );
    let trace_json = serde_json::to_string(run.trace().expect("tracing enabled")).unwrap();
    oracle_hex(trace_json.as_bytes())
}

/// The crash-tolerant protocol runs none of the fail-signal layer: its trace
/// was pinned on the commit before a double-signed output became two
/// signature shares, and that change did not move it.
#[test]
fn crash_newtop_trace_matches_golden_digest() {
    assert_eq!(
        newtop_trace_hex(Protocol::Crash, 3),
        "add25d6c13c2e060c7e0a5c18aea21b885e7729b1876ec8065441505832246da"
    );
}

#[test]
fn fs_newtop_trace_matches_golden_digest() {
    assert_eq!(
        newtop_trace_hex(Protocol::FailSignal, 3),
        "98557b6ac253d73bb56a6b9203ea135c04d13edd70b6906c9884014b0ccae15c"
    );
}

/// The same pin at the group size where the ordering traffic dominates
/// (9 members, 36 messages: 288 explicit acks per member before clocks stood
/// in for them).
#[test]
fn fs_newtop_n9_trace_matches_golden_digest() {
    assert_eq!(
        newtop_trace_hex(Protocol::FailSignal, 9),
        "161917ce5644acfd8e3cfd66001bcf8d1319a738b7f9c9f18cb524fd821bf20e"
    );
}

/// One line per pinned run: the scalar-oracle digest of its simulator
/// trace, its merged [`LoadStats`] and its latency-sample count.  Completion
/// is deliberately not part of a pin — a crash under load need not give it.
fn load_pin(trace: &TraceLog, stats: LoadStats, latency_samples: usize) -> String {
    let trace_json = serde_json::to_string(trace).unwrap();
    format!(
        "{} offered={} submitted={} shed={} blocked={} completed={} samples={}",
        oracle_hex(trace_json.as_bytes()),
        stats.offered,
        stats.submitted,
        stats.shed,
        stats.blocked,
        stats.completed,
        latency_samples,
    )
}

/// Runs `scenario` traced to its horizon and pins it.
fn scenario_pin(scenario: Scenario) -> String {
    let mut run = scenario.seed(2003).build();
    run.enable_trace();
    run.run_until(SimTime::from_secs(600));
    let (stats, samples) = (run.load_stats(), run.latencies().len());
    load_pin(run.trace().expect("tracing enabled"), stats, samples)
}

/// The open-loop load plane under backpressure: Poisson arrivals against a
/// blocking admission gate, so completions refill the window, and batching
/// on.  Pinned before the three per-actor copies of this machinery
/// (`AppProcess`, `SmrDriver`, `ClusterRouter`) were folded into one
/// `LoadGen`, and untouched by that change: every draw, timer and send
/// happens in the same order.
fn gated_workload(
    messages: u64,
    interval: SimDuration,
    (clients, max_in_flight): (u32, u32),
    batch_max: u32,
) -> Workload {
    Workload::paper_default()
        .messages(messages)
        .interval(interval)
        .poisson()
        .clients(clients)
        .max_in_flight(max_in_flight)
        .admission(Admission::Block)
        .batch_max(batch_max)
}

/// Pin (a): crash-tolerant NewTOP, 2 clients x 2 in flight, batches of 4.
#[test]
fn gated_crash_newtop_trace_matches_golden_pin() {
    let scenario = Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled()))
        .members(3)
        .protocol(Protocol::Crash)
        .workload(gated_workload(40, SimDuration::from_millis(2), (2, 2), 4));
    assert_eq!(
        scenario_pin(scenario),
        "637334609e231deee5602c0d495d9360e4c388d2790eb289748c7f57b77bcdc8 \
         offered=120 submitted=120 shed=0 blocked=104 completed=120 samples=120"
    );
}

/// Pin (b): the sequenced KV under both protocols, 8 in flight, batches of
/// 8.  The crash-protocol run loses a follower mid-load and gets it back:
/// `SmrDriver::on_recover` abandons its window and re-anchors its pacing.
/// (The fail-signal run's trace digest was re-pinned with signature shares;
/// its load statistics and the crash-protocol pin did not move.)
#[test]
fn gated_smr_kv_traces_match_golden_pins() {
    let scenario = |protocol| {
        Scenario::new(SmrKvService::new())
            .members(3)
            .protocol(protocol)
            .workload(gated_workload(120, SimDuration::from_micros(50), (1, 8), 8))
    };
    assert_eq!(
        scenario_pin(scenario(Protocol::FailSignal)),
        "d9b16680c33343f4e855ea297d327dca961c52803005ba67b067b4960af37879 \
         offered=360 submitted=360 shed=0 blocked=336 completed=360 samples=360"
    );
    let restart = FaultSchedule::none()
        .crash_member_at(SimTime::from_millis(12), MemberId(1))
        .recover_member_at(SimTime::from_millis(14), MemberId(1));
    assert_eq!(
        scenario_pin(scenario(Protocol::Crash).faults(restart)),
        "4f7819cbae104b5ce3af9807607ff57871ccb1c52ec1433173efa5af745bf248 \
         offered=360 submitted=360 shed=0 blocked=41 completed=360 samples=357"
    );
}

/// Pin (c): a 2-shard cluster whose router expires commands stranded by
/// shard 1's sequencer being down for a stretch (50 ms deadline, one
/// retry), handing the freed slots to blocked arrivals.
#[test]
fn gated_cluster_trace_matches_golden_pin() {
    let outage = FaultSchedule::none()
        .crash_member_at(SimTime::from_millis(40), MemberId(0))
        .recover_member_at(SimTime::from_millis(400), MemberId(0));
    let mut cluster = Cluster::new(2, 3)
        .workload(gated_workload(80, SimDuration::from_millis(2), (2, 4), 1))
        .shard_faults(1, outage)
        .command_deadline(SimDuration::from_millis(50))
        .max_retries(1)
        .seed(2003)
        .build();
    cluster.enable_trace();
    cluster.run_until(SimTime::from_secs(600));
    let (stats, samples) = (cluster.load_stats(), cluster.router().latencies().len());
    let loads = cluster.shard_loads();
    assert!(loads[1].expired > 0, "the outage must expire commands");
    assert_eq!(
        load_pin(cluster.trace().expect("tracing enabled"), stats, samples),
        "463a1651e6131656773a3210c19b0ecb5adbdaa2ad95f6aadb6a5f8f6b792006 \
         offered=80 submitted=80 shed=0 blocked=51 completed=80 samples=56"
    );
}
