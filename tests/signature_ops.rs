//! Signing operations per validated output, counted where they cannot
//! hide: where a tag is produced.
//!
//! `fs_crypto::sig::signatures_made` counts every signature the calling
//! thread produces (never a check).  The simulator runs every simulated node
//! on the calling thread, so the difference of that counter across a window
//! of a run is all the signing the window did.  The cost model charges
//! 1.5 ms of 2003-era CPU per signing operation, so this count is the
//! largest single term of the fail-signal lift.
//!
//! Measured on the simulator, 3 members, seed 2003, across a window whose
//! two edges are quiescent (every comparison pool empty), signing operations
//! per `outputs_validated`, summed over the six wrappers:
//!
//! | | parent commit (PR 18) | this change |
//! |---|---|---|
//! | FS-NewTOP | 2 | 1 |
//! | FS-SMR (sequenced KV) | 2 | 1 |
//!
//! The parent signed every output twice per wrapper — its own candidate,
//! then a counter-signature nested over the partner's signature.  A
//! double-signed output is now two independent signature *shares* over one
//! statement: each wrapper signs once and attaches the share the partner
//! sent it.  That also makes the two wrappers' external frames for one
//! output byte-identical (leader's share first), and the candidate a
//! constant-size message — it carries the statement's fields, not the body.

use std::sync::Arc;

use fs_smr_suite::common::codec::Wire;
use fs_smr_suite::common::id::{FsId, ProcessId};
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::common::Frame;
use fs_smr_suite::crypto::cost::CryptoCostModel;
use fs_smr_suite::crypto::keys::{provision, SignerId};
use fs_smr_suite::crypto::sig::signatures_made;
use fs_smr_suite::failsignal::message::{FsoInbound, PairMessage};
use fs_smr_suite::failsignal::provision::{FsPairBuilder, FsPairSpec};
use fs_smr_suite::failsignal::{FsoActor, FsoPoolSizes};
use fs_smr_suite::harness::{
    NewTopService, Protocol, Running, Scenario, ServiceSpec, SmrKvService, Workload,
};
use fs_smr_suite::simnet::actor::{Actor, TestContext};
use fs_smr_suite::smr::machine::{EchoMachine, Endpoint};

/// `outputs_validated` summed over every wrapper of the run, which must all
/// be correct and — the window edges are quiescent — hold nothing.
fn outputs_validated(run: &Running) -> u64 {
    let sim = run.sim().expect("a simulator run");
    run.members()
        .iter()
        .flat_map(|m| [m.leader, m.follower])
        .map(|wrapper| {
            let wrapper = sim.actor::<FsoActor>(wrapper).expect("a wrapper");
            assert!(!wrapper.has_failed());
            assert_eq!(wrapper.pool_sizes(), FsoPoolSizes::default());
            wrapper.stats().outputs_validated
        })
        .sum()
}

/// 3 members under the fail-signal protocol, one request per member every
/// 100 simulated ms from 10 ms on (a round settles in well under that):
/// signatures made and outputs validated between 1 s and 3 s, both instants
/// just before a round starts.
fn signing_operations_per_validated_output(service: impl ServiceSpec + 'static) -> (u64, u64) {
    let mut run = Scenario::new(service)
        .members(3)
        .protocol(Protocol::FailSignal)
        .workload(
            Workload::paper_default()
                .messages(40)
                .interval(SimDuration::from_millis(100)),
        )
        .seed(2003)
        .build();
    run.run_until(SimTime::from_secs(1));
    let (signed, validated) = (signatures_made(), outputs_validated(&run));
    run.run_until(SimTime::from_secs(3));
    let window = (
        signatures_made() - signed,
        outputs_validated(&run) - validated,
    );
    assert!(window.1 >= 60, "a steady-state window, not {window:?}");
    window
}

#[test]
fn fs_newtop_signs_once_per_validated_output_per_wrapper() {
    let (signed, validated) = signing_operations_per_validated_output(NewTopService::new());
    println!("FS-NewTOP: {signed} signatures for {validated} validated outputs");
    assert_eq!(signed, validated);
}

#[test]
fn fs_smr_signs_once_per_validated_output_per_wrapper() {
    let (signed, validated) = signing_operations_per_validated_output(SmrKvService::new());
    println!("FS-SMR: {signed} signatures for {validated} validated outputs");
    assert_eq!(signed, validated);
}

const LEADER: ProcessId = ProcessId(0);
const FOLLOWER: ProcessId = ProcessId(1);
const CLIENT: ProcessId = ProcessId(10);
const DESTINATION: ProcessId = ProcessId(20);

/// One echoed request of `payload` bytes through a hand-driven pair:
/// the candidate frames the wrappers exchanged and the external frame each
/// transmitted, `(candidates, leader's external, follower's external)`.
fn one_output(payload: usize) -> (Vec<Frame>, Frame, Frame) {
    let mut rng = DetRng::new(11);
    let (mut keys, directory) = provision([LEADER, FOLLOWER], &mut rng);
    let (mut leader, mut follower) = FsPairBuilder::new(FsPairSpec::new(FsId(1), LEADER, FOLLOWER))
        .crypto_costs(CryptoCostModel::free())
        .trust_client(CLIENT, Endpoint::LocalApp)
        .route(Endpoint::LocalApp, vec![DESTINATION])
        .build(
            keys.remove(&SignerId(LEADER)).unwrap(),
            keys.remove(&SignerId(FOLLOWER)).unwrap(),
            Arc::clone(&directory),
            (Box::new(EchoMachine::new(0)), Box::new(EchoMachine::new(0))),
        );
    let (mut leader_ctx, mut follower_ctx) = (TestContext::new(LEADER), TestContext::new(FOLLOWER));
    let request = FsoInbound::Raw(vec![0x5a; payload].into()).to_frame();
    leader.on_message(&mut leader_ctx, CLIENT, request.clone());
    follower.on_message(&mut follower_ctx, CLIENT, request);
    let (mut candidates, mut external) = (Vec::new(), [None, None]);
    loop {
        let (from_leader, from_follower) = (leader_ctx.take_sent(), follower_ctx.take_sent());
        if from_leader.is_empty() && from_follower.is_empty() {
            break;
        }
        for (half, sent) in [from_leader, from_follower].into_iter().enumerate() {
            for out in sent {
                if out.to == DESTINATION {
                    assert!(external[half].replace(out.payload).is_none());
                    continue;
                }
                if let Ok(FsoInbound::Pair(PairMessage::Candidate { .. })) =
                    FsoInbound::from_frame(&out.payload)
                {
                    candidates.push(out.payload.clone());
                }
                if half == 0 {
                    follower.on_message(&mut follower_ctx, LEADER, out.payload);
                } else {
                    leader.on_message(&mut leader_ctx, FOLLOWER, out.payload);
                }
            }
        }
    }
    assert_eq!(candidates.len(), 2, "one candidate each way");
    let [Some(from_leader), Some(from_follower)] = external else {
        panic!("both wrappers transmit the validated output");
    };
    (candidates, from_leader, from_follower)
}

#[test]
fn both_wrappers_transmit_the_same_bytes_and_candidates_do_not_grow_with_the_body() {
    let (small_candidates, leader_small, follower_small) = one_output(3);
    let (large_candidates, leader_large, follower_large) = one_output(10_240);
    assert_eq!(leader_small.to_bytes(), follower_small.to_bytes());
    assert_eq!(leader_large.to_bytes(), follower_large.to_bytes());
    assert_eq!(leader_large.len() - leader_small.len(), 10_240 - 3);
    for (small, large) in small_candidates.iter().zip(&large_candidates) {
        assert_eq!(small.len(), large.len(), "a candidate carries no body");
    }
}
