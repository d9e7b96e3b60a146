//! Hash passes per ordered delivery, counted where they cannot hide: at the
//! compression function.
//!
//! `fs_crypto::sha256::blocks_compressed` counts every 64-byte block the
//! calling thread pushes through SHA-256 — body digests, HMAC inner and
//! outer hashes, key schedules — on either backend.  The simulator runs
//! every simulated node on the calling thread, so the difference of that
//! counter across a window of a run is all the hashing the window did.
//! One pass over a 10 KiB payload is 160 blocks.
//!
//! Measured on the simulator, FS-NewTOP, 3 members, seed 2003, over the
//! steady-state window 0.8 s – 2.0 s of simulated time (the window of
//! `tests/zero_copy.rs`; the counts are exact and repeat):
//!
//! | | parent commit (PR 15) | this change |
//! |---|---|---|
//! | 10 KiB payloads: blocks per ordered delivery | 551.8 = 3.45 passes | 186.3 = 1.16 passes |
//! | 3 B payloads: blocks per ordered delivery | 23.6 | 36.7 |
//! | 3 B payloads: signature operations per ordered delivery | 15.8 | 15.8 |
//!
//! The parent signed `header ‖ body`: per 3-member multicast, four signed
//! outputs (`Data`, 3 × `Upcall::Deliver`) × two replicas through HMAC plus
//! two input digests — ten passes over the body, 3⅓ per ordered delivery,
//! and the small change it makes around them.  Signing `header ‖
//! SHA-256(body)` leaves the three passes no scheme can avoid — the
//! request, `Data` and `Deliver` are three different byte strings — so one
//! per ordered delivery, plus the same small change.  The 10 KiB ceiling
//! (1.5 passes) fails on the parent's count.
//!
//! At 3 B there is nothing to save and a little to pay: a body under the
//! digest memo's size floor is hashed afresh (one compression) wherever the
//! parent hashed it as part of the MAC or answered from a content-keyed
//! table — 13.1 blocks per delivery more.  The ceiling grants one block per
//! signature operation on top of the parent's count; an output validated by
//! a wrapper stands for three of them: that wrapper's signature share, its
//! check of the partner's share (the candidate), and the check of the
//! double-signed copy it emits at the first destination to see it.  (It
//! stood for four while completing a comparison meant counter-signing the
//! partner's signature; the two shares side by side are the double
//! signature now, and `tests/signature_ops.rs` counts one signing operation
//! per wrapper per output.)  The other co-hosted destinations find both
//! MACs in the signature memo; a body under the floor they hash again —
//! there has been no memo of whole verified outputs since PR 18.  On
//! today's protocol — logical acks, signature shares, candidates that carry
//! a digest instead of the body, second copies dropped before they are
//! verified — the window reads 17.3 blocks per 3 B delivery and 171.1 at
//! 10 KiB (1.07 passes), both inside the ceilings (34.1 and 185.2 before
//! shares).
//!
//! The last case counts one wrapper's signing round on its own (digest the
//! body, sign the statement): once a 10 KiB body is known to `body_digest`,
//! by buffer or by content, the round compresses the statement's blocks and
//! no other — what signing a 3-byte body does, less that body's one block.
//! Signing is flat in the body size, by count.

use fs_smr_suite::common::id::{FsId, ProcessId};
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::common::Bytes;
use fs_smr_suite::crypto::keys::{provision, SignerId};
use fs_smr_suite::crypto::sha256::{blocks_compressed, Digest};
use fs_smr_suite::crypto::sig::Signature;
use fs_smr_suite::failsignal::digest::body_digest;
use fs_smr_suite::failsignal::message::Statement;
use fs_smr_suite::failsignal::FsoActor;
use fs_smr_suite::harness::{NewTopService, Protocol, Running, Scenario, Workload};
use fs_smr_suite::smr::machine::Endpoint;

/// Blocks in one pass over a 10 KiB payload.
const PAYLOAD_PASS_BLOCKS: f64 = 160.0;

/// 1.5 passes over the payload per ordered delivery; the parent commit
/// makes 3.45.
const PASSES_PER_DELIVERY_MAX: f64 = 1.5;

/// The 23.6 blocks per ordered delivery the parent commit compresses in
/// [`steady_state`] at 3 B.
const SMALL_BLOCKS_PER_DELIVERY_PARENT: f64 = 23.6;

/// What one steady-state window did.
struct Window {
    deliveries: u64,
    blocks: u64,
    /// Signs, candidate checks and first destination checks: three per
    /// validated output per wrapper.
    signature_ops: u64,
}

fn outputs_validated(run: &Running) -> u64 {
    let sim = run.sim().expect("a simulator run");
    run.members()
        .iter()
        .flat_map(|m| [m.leader, m.follower])
        .map(|wrapper| {
            let wrapper = sim.actor::<FsoActor>(wrapper).expect("a wrapper");
            assert!(!wrapper.has_failed());
            wrapper.stats().outputs_validated
        })
        .sum()
}

/// FS-NewTOP, 3 members, one multicast per member every 40 simulated ms:
/// the window 0.8 s – 2.0 s, after the tables, memos and queues have
/// reached their working size.
fn steady_state(payload: usize) -> Window {
    let mut run = Scenario::new(NewTopService::new())
        .members(3)
        .protocol(Protocol::FailSignal)
        .workload(
            Workload::paper_default()
                .payload_size(payload)
                .messages(60)
                .interval(SimDuration::from_millis(40)),
        )
        .seed(2003)
        .build();
    let delivered =
        |run: &mut Running| run.delivery_logs().iter().map(Vec::len).sum::<usize>() as u64;
    run.run_until(SimTime::from_millis(800));
    let (deliveries, outputs) = (delivered(&mut run), outputs_validated(&run));
    let blocks = blocks_compressed();
    run.run_until(SimTime::from_millis(2_000));
    let window = Window {
        blocks: blocks_compressed() - blocks,
        deliveries: delivered(&mut run) - deliveries,
        signature_ops: 3 * (outputs_validated(&run) - outputs),
    };
    assert!(
        window.deliveries >= 60,
        "a steady-state window, not {}",
        window.deliveries
    );
    assert!(window.blocks > 0, "the counter counts on this backend");
    window
}

#[test]
fn a_10k_delivery_costs_at_most_one_and_a_half_passes_over_its_payload() {
    let window = steady_state(10 * 1024);
    let blocks = window.blocks as f64 / window.deliveries as f64;
    let passes = blocks / PAYLOAD_PASS_BLOCKS;
    println!(
        "10 KiB: {} blocks over {} deliveries = {blocks:.1} each = {passes:.2} payload passes",
        window.blocks, window.deliveries
    );
    assert!(
        passes <= PASSES_PER_DELIVERY_MAX,
        "{passes:.2} passes over the payload per ordered delivery \
         (ceiling {PASSES_PER_DELIVERY_MAX})"
    );
}

#[test]
fn a_3_byte_delivery_pays_at_most_one_block_per_signature_operation_more() {
    let window = steady_state(3);
    let per = |count: u64| count as f64 / window.deliveries as f64;
    let (blocks, ops) = (per(window.blocks), per(window.signature_ops));
    println!(
        "3 B: {} blocks, {} signature operations over {} deliveries = {blocks:.1} and {ops:.1} each",
        window.blocks, window.signature_ops, window.deliveries
    );
    let ceiling = SMALL_BLOCKS_PER_DELIVERY_PARENT + ops;
    assert!(
        blocks <= ceiling,
        "{blocks:.1} blocks per ordered delivery (ceiling {ceiling:.1})"
    );
}

#[test]
fn signing_an_already_digested_10k_body_hashes_no_body_block() {
    let mut rng = DetRng::new(13);
    let (keys, _directory) = provision([ProcessId(0)], &mut rng);
    let key = &keys[&SignerId(ProcessId(0))];
    let counted = |op: &dyn Fn()| {
        let before = blocks_compressed();
        op();
        blocks_compressed() - before
    };
    let sign = |body_len: usize, digest: Digest| {
        let statement = Statement::output(FsId(1), 7, Endpoint::Broadcast, body_len, &digest);
        Signature::sign(key, statement.as_bytes());
    };
    // One wrapper's signing round: digest the body, sign the statement.
    let round = |body: &Bytes| counted(&|| sign(body.len(), body_digest(body)));

    let own = Bytes::from(vec![0x33u8; 10 * 1024]);
    let signing = counted(&|| sign(own.len(), Digest([0u8; 32])));
    // A 3-byte body is under the memo's floor: its one block, every time.
    let small = round(&Bytes::from(vec![0x33u8; 3]));
    let unseen = round(&own);
    let same_buffer = round(&own);
    let equal_content = round(&Bytes::copy_from_slice(&own));
    println!(
        "blocks per signing round: statement alone {signing}, 3 B {small}, 10 KiB unseen \
         {unseen}, same buffer {same_buffer}, equal content {equal_content}"
    );
    assert_eq!(small, signing + 1);
    assert!(unseen >= signing + PAYLOAD_PASS_BLOCKS as u64);
    assert_eq!(same_buffer, signing, "the same buffer again");
    assert_eq!(equal_content, signing, "equal content, another buffer");
}
