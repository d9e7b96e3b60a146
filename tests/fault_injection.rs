//! Workspace-level fault-injection campaigns: authenticated Byzantine faults
//! injected into one replica of a fail-signal pair running on the simulator
//! must either be masked (outputs still compare equal) or converted into the
//! pair's unique fail-signal, which destinations can trust (fs1).
//!
//! Two tiers are exercised: hand-built pairs around echo machines (the
//! original campaigns), and full scenario-harness deployments of the
//! *second* wrapped service (FS-SMR) — demonstrating that the generic
//! wrapper path detects and converts faults for a non-NewTOP service too.

use std::sync::Arc;

use fs_smr_suite::common::Frame;

use fs_smr_suite::common::codec::Wire;
use fs_smr_suite::common::config::TimingAssumptions;
use fs_smr_suite::common::id::{FsId, ProcessId};
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::crypto::cost::CryptoCostModel;
use fs_smr_suite::crypto::keys::{provision, SignerId};
use fs_smr_suite::failsignal::message::FsoInbound;
use fs_smr_suite::failsignal::provision::{FsPairBuilder, FsPairSpec};
use fs_smr_suite::failsignal::receiver::{FsDelivery, FsReceiver};
use fs_smr_suite::faults::{FaultKind, FaultPlan, FaultyActor};
use fs_smr_suite::simnet::actor::{Actor, Context, TimerId};
use fs_smr_suite::simnet::node::NodeConfig;
use fs_smr_suite::simnet::sim::Simulation;
use fs_smr_suite::smr::machine::{EchoMachine, Endpoint};

const LEADER: ProcessId = ProcessId(0);
const FOLLOWER: ProcessId = ProcessId(1);
const CLIENT: ProcessId = ProcessId(2);
const DESTINATION: ProcessId = ProcessId(3);

/// Collects and validates whatever the FS pair emits.
struct Destination {
    receiver: FsReceiver,
    outputs: Vec<Vec<u8>>,
    fail_signals: Vec<FsId>,
}

impl Actor for Destination {
    fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, payload: Frame) {
        match self.receiver.accept_frame(&payload) {
            Some(FsDelivery::Output { bytes, .. }) => self.outputs.push(bytes.to_vec()),
            Some(FsDelivery::FailSignal { fs }) => self.fail_signals.push(fs),
            None => {}
        }
    }
}

/// Feeds a fixed number of requests to both wrappers at a fixed cadence.
struct Client {
    requests: u32,
    sent: u32,
}

impl Actor for Client {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(SimDuration::from_millis(5), TimerId(1));
    }
    fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {}
    fn on_timer(&mut self, ctx: &mut dyn Context, _timer: TimerId) {
        if self.sent >= self.requests {
            return;
        }
        let request = FsoInbound::Raw(format!("req-{}", self.sent).into()).to_frame();
        ctx.send(LEADER, request.clone());
        ctx.send(FOLLOWER, request);
        self.sent += 1;
        ctx.set_timer(SimDuration::from_millis(15), TimerId(1));
    }
}

/// Builds a pair around two echo machines, optionally injecting a fault into
/// the follower, runs it, and returns what the destination observed.
fn run_campaign(fault: Option<FaultPlan>, requests: u32) -> (Vec<Vec<u8>>, Vec<FsId>) {
    let mut rng = DetRng::new(123);
    let (mut keys, directory) = provision([LEADER, FOLLOWER], &mut rng);
    let spec = FsPairSpec::new(FsId(1), LEADER, FOLLOWER);
    // Tight timing so detection happens quickly within the test horizon.
    let timing = TimingAssumptions::new(SimDuration::from_millis(50), 3.0, 3.0).unwrap();
    let (leader, follower) = FsPairBuilder::new(spec)
        .timing(timing)
        .crypto_costs(CryptoCostModel::modern_hmac())
        .trust_client(CLIENT, Endpoint::LocalApp)
        .route(Endpoint::LocalApp, vec![DESTINATION])
        .build(
            keys.remove(&SignerId(LEADER)).unwrap(),
            keys.remove(&SignerId(FOLLOWER)).unwrap(),
            Arc::clone(&directory),
            (Box::new(EchoMachine::new(0)), Box::new(EchoMachine::new(0))),
        );

    let mut sim = Simulation::new(9);
    let node_a = sim.add_node(NodeConfig::era_2003());
    let node_b = sim.add_node(NodeConfig::era_2003());
    let node_c = sim.add_node(NodeConfig::era_2003());
    sim.spawn_with(LEADER, node_a, Box::new(leader));
    let follower_actor: Box<dyn Actor> = match fault {
        Some(plan) => Box::new(FaultyActor::new(Box::new(follower), plan, 77)),
        None => Box::new(follower),
    };
    sim.spawn_with(FOLLOWER, node_b, follower_actor);
    sim.spawn_with(CLIENT, node_c, Box::new(Client { requests, sent: 0 }));
    let mut receiver = FsReceiver::new(directory);
    receiver.register_source(FsId(1), spec.signers());
    sim.spawn_with(
        DESTINATION,
        node_c,
        Box::new(Destination {
            receiver,
            outputs: Vec::new(),
            fail_signals: Vec::new(),
        }),
    );

    sim.run_until(SimTime::from_secs(60));
    let destination = sim.actor::<Destination>(DESTINATION).expect("destination");
    (
        destination.outputs.clone(),
        destination.fail_signals.clone(),
    )
}

#[test]
fn failure_free_pair_delivers_every_request_exactly_once() {
    let (outputs, fail_signals) = run_campaign(None, 10);
    assert_eq!(outputs.len(), 10);
    assert!(fail_signals.is_empty());
    // Outputs preserve the request contents (echo machine).
    assert!(outputs.iter().any(|o| o == b"req-0"));
    assert!(outputs.iter().any(|o| o == b"req-9"));
}

#[test]
fn corrupting_replica_is_converted_into_a_fail_signal() {
    let fault = FaultPlan::after(6, FaultKind::CorruptOutputs { probability: 1.0 });
    let (outputs, fail_signals) = run_campaign(Some(fault), 10);
    assert_eq!(
        fail_signals,
        vec![FsId(1)],
        "destination must learn the process failed"
    );
    // Some outputs were validated before the fault struck; none after.
    assert!(!outputs.is_empty());
    assert!(outputs.len() < 10);
}

#[test]
fn silently_crashed_replica_is_converted_into_a_fail_signal() {
    let fault = FaultPlan::after(4, FaultKind::Crash);
    let (outputs, fail_signals) = run_campaign(Some(fault), 10);
    assert_eq!(fail_signals, vec![FsId(1)]);
    assert!(outputs.len() < 10);
}

#[test]
fn dropping_replica_outputs_is_detected() {
    let fault = FaultPlan::after(4, FaultKind::DropOutputs { probability: 1.0 });
    let (_outputs, fail_signals) = run_campaign(Some(fault), 10);
    assert_eq!(fail_signals, vec![FsId(1)]);
}

#[test]
fn duplicating_replica_outputs_is_harmless() {
    // Duplication is masked: the partner's comparison and the destination's
    // duplicate suppression absorb it, so no fail-signal is needed.
    let fault = FaultPlan::immediate(FaultKind::DuplicateOutputs);
    let (outputs, fail_signals) = run_campaign(Some(fault), 10);
    assert_eq!(outputs.len(), 10);
    assert!(fail_signals.is_empty());
}

#[test]
fn babbling_garbage_at_the_destination_is_rejected_by_validation() {
    // The faulty replica sprays unauthenticated garbage directly at the
    // destination; the validity check drops it all, and the pair's real
    // outputs still get through.
    let fault = FaultPlan::immediate(FaultKind::Babble {
        target: DESTINATION,
        payload: b"not a valid double-signed output"[..].into(),
    });
    let (outputs, fail_signals) = run_campaign(Some(fault), 8);
    assert_eq!(outputs.len(), 8);
    assert!(fail_signals.is_empty());
}

// ---------------------------------------------------------------------------
// Scenario-harness campaigns against the second wrapped service (FS-SMR)
// ---------------------------------------------------------------------------

mod fs_smr_scenarios {
    use fs_smr_suite::common::config::TimingAssumptions;
    use fs_smr_suite::common::id::MemberId;
    use fs_smr_suite::common::time::{SimDuration, SimTime};
    use fs_smr_suite::faults::{FaultKind, FaultPlan};
    use fs_smr_suite::harness::{FaultSchedule, Running, Scenario, SmrKvService, Workload};

    const MEMBERS: u32 = 3;
    const MESSAGES: u64 = 8;

    /// An FS-SMR deployment with tight fail-signal timing (so detection
    /// happens quickly within the test horizon) and the given schedule.
    fn run_campaign(faults: FaultSchedule) -> Running {
        let mut run = Scenario::new(SmrKvService::new())
            .members(MEMBERS)
            .workload(Workload::quick(MESSAGES).interval(SimDuration::from_millis(15)))
            .timing(TimingAssumptions::new(SimDuration::from_millis(50), 3.0, 3.0).unwrap())
            .faults(faults)
            .build();
        run.run_until(SimTime::from_secs(60));
        run
    }

    #[test]
    fn corrupting_replica_of_the_kv_service_emits_a_trustworthy_fail_signal() {
        // Member 1's follower wrapper silently corrupts its outputs after a
        // clean warm-up: the pair's Compare processes catch the divergence
        // and convert it into the (never forgeable) fail-signal.
        let mut run = run_campaign(FaultSchedule::none().follower(
            MemberId(1),
            FaultPlan::after(6, FaultKind::CorruptOutputs { probability: 1.0 }),
        ));
        assert!(
            run.fail_signalled(),
            "the corrupted pair must announce its own failure"
        );
        // The surviving members keep agreeing on one total order.
        let log0 = run.delivery_log(0);
        assert!(!log0.is_empty(), "pre-fault traffic was ordered");
        assert_eq!(run.delivery_log(2), log0, "correct members diverged");
    }

    #[test]
    fn crashed_replica_of_the_kv_service_is_converted_into_a_fail_signal() {
        // A silent crash produces no wrong output at all — only the partner's
        // comparison timeout can expose it (the paper's t1/t2 machinery).
        let mut run = run_campaign(
            FaultSchedule::none().follower(MemberId(1), FaultPlan::after(4, FaultKind::Crash)),
        );
        assert!(run.fail_signalled(), "timeout must convert crash to signal");
        assert_eq!(run.delivery_log(0), run.delivery_log(2));
    }

    #[test]
    fn duplicating_replica_of_the_kv_service_is_masked() {
        // Duplication is absorbed by the pair's comparison and the
        // destinations' duplicate suppression: no fail-signal, no loss.
        let mut run = run_campaign(FaultSchedule::none().follower(
            MemberId(1),
            FaultPlan::immediate(FaultKind::DuplicateOutputs),
        ));
        assert!(!run.fail_signalled(), "duplication must be masked");
        let expected = (MEMBERS as usize) * (MESSAGES as usize);
        let reference = run.delivery_log(0);
        assert_eq!(reference.len(), expected, "every command still delivered");
        for i in 1..MEMBERS {
            assert_eq!(run.delivery_log(i), reference);
        }
    }

    #[test]
    fn leader_faults_are_detected_too() {
        // The schedule can target either half of the pair; a corrupting
        // *leader* is caught just the same.
        let mut run = run_campaign(FaultSchedule::none().leader(
            MemberId(2),
            FaultPlan::after(5, FaultKind::CorruptOutputs { probability: 1.0 }),
        ));
        assert!(run.fail_signalled());
        assert_eq!(run.delivery_log(0), run.delivery_log(1));
    }
}
