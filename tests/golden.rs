//! Golden bytes: digests of signed wire frames and of one simulator trace.
//! Each set was re-pinned once, deliberately, by the one change that meant
//! to move it (old → new in CHANGES.md both times): the four frame digests
//! when the signatures moved from `header ‖ body` to the statement
//! `header ‖ SHA-256(body)` (tag values changed, frame lengths — asserted
//! below since the commit before that — did not; the traces did not move);
//! the two trace digests when symmetric total order stopped acknowledging
//! every message explicitly (fewer, shorter `Ack`s: 1 488 → 1 152 trace
//! events at n = 3, 36 000 → 10 800 at n = 9; the frames did not move).
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
use fs_smr_suite::harness::{NewTopService, Protocol, Scenario, Workload};
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
    let external = FsoInbound::External(FsOutput::sign(fs, content.clone(), &leader, &follower));
    let candidate = FsoInbound::Pair(PairMessage::Candidate {
        output_seq: 7,
        dest: Endpoint::Peer(MemberId(2)),
        bytes: payload,
        signature: Signature::sign(
            &follower,
            Statement::of(fs, &content, |body| Sha256::digest(body)).as_bytes(),
        ),
    });
    (external.to_wire(), candidate.to_wire())
}

#[test]
fn signed_frames_match_golden_digests() {
    let golden = [
        (
            3usize,
            "c2c993fe44481bb97026690edf3407b94de2967f1d1dae56bde94e14897e72b1",
            "7c8d12ca0b8c5ccfff80f1e3978a1c8992579ea473c93a4168f06982e43a72a2",
        ),
        (
            10_240,
            "6d97f34e5ed88bfde653d6fe7a8cd01c578341c12a3b52efa01300af394c35d8",
            "24d25c46fdffa9edf1392a4ed5fe01539e502a2827dbba5f0c8f886f03e9f75b",
        ),
    ];
    for (len, external_hex, candidate_hex) in golden {
        let (external, candidate) = frames(len);
        // Tags are part of the frames; their sizes are not theirs to change.
        assert_eq!(external.len(), 103 + len, "External, {len} B");
        assert_eq!(candidate.len(), 59 + len, "Candidate, {len} B");
        assert_eq!(oracle_hex(&external), external_hex, "External, {len} B");
        assert_eq!(oracle_hex(&candidate), candidate_hex, "Candidate, {len} B");
    }
}

/// The scalar-oracle digest of the full simulator trace of one FS-NewTOP
/// run: `members` members, 4 multicasts each, seed 2003.
fn fs_newtop_trace_hex(members: u32) -> String {
    let mut run = Scenario::new(NewTopService::new())
        .members(members)
        .protocol(Protocol::FailSignal)
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

#[test]
fn fs_newtop_trace_matches_golden_digest() {
    assert_eq!(
        fs_newtop_trace_hex(3),
        "ec832a5246cd10f3fd9ae1381b15e7a8ab4d0754cb2adbc1f914256b8123526b"
    );
}

/// The same pin at the group size where the ordering traffic dominates
/// (9 members, 36 messages: 288 explicit acks per member before clocks stood
/// in for them).
#[test]
fn fs_newtop_n9_trace_matches_golden_digest() {
    assert_eq!(
        fs_newtop_trace_hex(9),
        "4d62891f424c71b474a334b1925fb8853247a9d494b1fda2d42b4b4497627395"
    );
}
