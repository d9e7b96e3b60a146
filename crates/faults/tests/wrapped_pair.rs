//! Injector coverage against a real fail-signal pair: every [`FaultKind`]
//! variant is injected into the follower wrapper of an FS pair running on
//! the simulator, and the test asserts both the [`InjectionStats`] counters
//! (the injector did what the plan said) and the pair-level outcome (the
//! fault was masked or converted into the pair's fail-signal).

use std::sync::Arc;

use fs_common::Frame;

use failsignal::message::{FsoInbound, PairMessage, Statement};
use failsignal::provision::{FsPairBuilder, FsPairSpec};
use failsignal::receiver::{FsDelivery, FsReceiver};
use failsignal::wrapper::{FsoActor, FsoPoolSizes, FsoStats};
use fs_common::codec::Wire;
use fs_common::config::TimingAssumptions;
use fs_common::id::{FsId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};
use fs_crypto::cost::CryptoCostModel;
use fs_crypto::keys::{provision, SignerId, SigningKey};
use fs_crypto::sig::Signature;
use fs_faults::{FaultKind, FaultPlan, FaultyActor, InjectionStats};
use fs_simnet::actor::{Actor, Context, TimerId};
use fs_simnet::node::NodeConfig;
use fs_simnet::sim::Simulation;
use fs_simnet::trace::TraceEvent;
use fs_smr::machine::{AddressMap, EchoMachine};

const LEADER: ProcessId = ProcessId(0);
const FOLLOWER: ProcessId = ProcessId(1);
/// The pair's local process: it feeds the requests and receives what the
/// pair emits.
const LOCAL: ProcessId = ProcessId(2);
const REQUESTS: u32 = 10;

/// Feeds a fixed number of requests to both wrappers at a fixed cadence,
/// and collects and validates whatever the FS pair emits.
struct Local {
    sent: u32,
    receiver: FsReceiver,
    outputs: Vec<Vec<u8>>,
    fail_signals: Vec<FsId>,
}

impl Actor for Local {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(SimDuration::from_millis(5), TimerId(1));
    }
    fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, payload: Frame) {
        match self.receiver.accept_frame(&payload) {
            Some(FsDelivery::Output { bytes, .. }) => self.outputs.push(bytes.to_vec()),
            Some(FsDelivery::FailSignal { fs }) => self.fail_signals.push(fs),
            None => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Context, _timer: TimerId) {
        if self.sent >= REQUESTS {
            return;
        }
        let request = FsoInbound::Raw(format!("req-{}", self.sent).into()).to_frame();
        ctx.send(LEADER, request.clone());
        ctx.send(FOLLOWER, request);
        self.sent += 1;
        ctx.set_timer(SimDuration::from_millis(15), TimerId(1));
    }
}

/// What one injection campaign observed.
struct Outcome {
    stats: InjectionStats,
    outputs: Vec<Vec<u8>>,
    fail_signals: Vec<FsId>,
    /// The (unwrapped) leader's counters and pool sizes at the end.
    leader_stats: FsoStats,
    leader_pools: FsoPoolSizes,
}

/// Builds a pair around two echo machines, lets `wrap` put the follower
/// (handed over with a copy of its signing key) behind a misbehaving shell,
/// runs the campaign with tracing on, and returns the simulation for
/// inspection.
fn run_pair(wrap: impl FnOnce(FsoActor, SigningKey) -> Box<dyn Actor>) -> Simulation {
    let mut rng = DetRng::new(123);
    let (mut keys, directory) = provision([LEADER, FOLLOWER], &mut rng);
    let follower_key = keys.remove(&SignerId(FOLLOWER)).unwrap();
    let spec = FsPairSpec::new(FsId(1), LEADER, FOLLOWER);
    let timing = TimingAssumptions::new(SimDuration::from_millis(50), 3.0, 3.0).unwrap();
    let (leader, follower) = FsPairBuilder::new(spec)
        .timing(timing)
        .crypto_costs(CryptoCostModel::modern_hmac())
        .addresses(AddressMap::local_only(LOCAL))
        .build(
            keys.remove(&SignerId(LEADER)).unwrap(),
            follower_key.clone(),
            Arc::clone(&directory),
            (Box::new(EchoMachine::new(0)), Box::new(EchoMachine::new(0))),
        );

    let mut sim = Simulation::new(9);
    sim.enable_trace();
    let node_a = sim.add_node(NodeConfig::era_2003());
    let node_b = sim.add_node(NodeConfig::era_2003());
    let node_c = sim.add_node(NodeConfig::era_2003());
    sim.spawn_with(LEADER, node_a, Box::new(leader));
    sim.spawn_with(FOLLOWER, node_b, wrap(follower, follower_key));
    let mut receiver = FsReceiver::new(directory);
    receiver.register_source(FsId(1), spec.signers());
    sim.spawn_with(
        LOCAL,
        node_c,
        Box::new(Local {
            sent: 0,
            receiver,
            outputs: Vec::new(),
            fail_signals: Vec::new(),
        }),
    );

    sim.run_until(SimTime::from_secs(60));
    sim
}

/// [`run_pair`] with the follower wrapped in a [`FaultyActor`] with the
/// given plan; returns the injector's counters together with what the
/// destination and the leader observed.
fn run_wrapped_pair(plan: FaultPlan) -> Outcome {
    let sim = run_pair(|follower, _| Box::new(FaultyActor::new(Box::new(follower), plan, 77)));
    let stats = sim
        .actor::<FaultyActor>(FOLLOWER)
        .expect("wrapped follower")
        .stats();
    let destination = sim.actor::<Local>(LOCAL).expect("local process");
    let leader = sim.actor::<FsoActor>(LEADER).expect("leader");
    Outcome {
        stats,
        outputs: destination.outputs.clone(),
        fail_signals: destination.fail_signals.clone(),
        leader_stats: leader.stats(),
        leader_pools: leader.pool_sizes(),
    }
}

#[test]
fn inactive_plan_leaves_counters_clean() {
    let outcome = run_wrapped_pair(FaultPlan::after(u64::MAX, FaultKind::Crash));
    assert_eq!(outcome.outputs.len(), REQUESTS as usize);
    assert!(outcome.fail_signals.is_empty());
    assert_eq!(outcome.stats.faulty_events, 0);
    assert!(
        outcome.stats.clean_events > 0,
        "the wrapper processed traffic"
    );
    assert_eq!(outcome.stats.corrupted, 0);
    assert_eq!(outcome.stats.dropped, 0);
    assert_eq!(outcome.stats.duplicated, 0);
    assert_eq!(outcome.stats.babbled, 0);
}

#[test]
fn corrupt_outputs_counts_corruptions_and_triggers_fail_signal() {
    let outcome = run_wrapped_pair(FaultPlan::after(
        6,
        FaultKind::CorruptOutputs { probability: 1.0 },
    ));
    assert!(outcome.stats.corrupted > 0, "corruption fault must fire");
    assert!(outcome.stats.clean_events > 0 && outcome.stats.faulty_events > 0);
    assert_eq!(
        outcome.fail_signals,
        vec![FsId(1)],
        "pair must convert corruption to fail-signal"
    );
    assert!(outcome.outputs.len() < REQUESTS as usize);
}

#[test]
fn drop_outputs_counts_drops_and_triggers_fail_signal() {
    let outcome = run_wrapped_pair(FaultPlan::after(
        4,
        FaultKind::DropOutputs { probability: 1.0 },
    ));
    assert!(outcome.stats.dropped > 0, "drop fault must fire");
    assert!(outcome.stats.faulty_events > 0);
    assert_eq!(outcome.fail_signals, vec![FsId(1)]);
}

#[test]
fn duplicate_outputs_counts_duplicates_and_is_masked() {
    let outcome = run_wrapped_pair(FaultPlan::immediate(FaultKind::DuplicateOutputs));
    assert!(outcome.stats.duplicated > 0, "duplication fault must fire");
    assert_eq!(
        outcome.stats.clean_events, 0,
        "immediate plan: no clean events"
    );
    assert_eq!(
        outcome.outputs.len(),
        REQUESTS as usize,
        "duplication is masked"
    );
    assert!(outcome.fail_signals.is_empty());
}

/// A duplicate of a candidate that already completed its comparison has
/// nothing left to be compared with.  It used to be parked in the ECM pool
/// — pinning its buffer — for the life of the wrapper; now it is counted as
/// a duplicate and dropped, and a quiescent pair holds nothing.
#[test]
fn duplicated_candidates_do_not_stay_in_the_comparison_pools() {
    let outcome = run_wrapped_pair(FaultPlan::immediate(FaultKind::DuplicateOutputs));
    assert!(outcome.stats.duplicated > 0, "duplication fault must fire");
    assert_eq!(outcome.leader_stats.outputs_validated, u64::from(REQUESTS));
    assert_eq!(outcome.leader_pools, FsoPoolSizes::default());
    assert!(
        outcome.leader_stats.duplicates_suppressed > 0,
        "the stale copies were seen and counted: {:?}",
        outcome.leader_stats
    );
}

/// A follower shell that, from output `from_seq` on, flips one bit of the
/// body digest in every candidate it sends.  Without `resign` the flip
/// happens *after* the wrapper signed, so the frame carries a digest its
/// signature does not cover; with the follower's key in `resign` the shell
/// signs the statement of the wrong digest afresh — a genuine share of an
/// output the machines never produced.
struct TamperCandidates {
    inner: FsoActor,
    from_seq: u64,
    resign: Option<SigningKey>,
}

struct TamperContext<'a> {
    inner: &'a mut dyn Context,
    from_seq: u64,
    resign: Option<&'a SigningKey>,
}

impl Context for TamperContext<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn me(&self) -> ProcessId {
        self.inner.me()
    }
    fn send(&mut self, to: ProcessId, payload: Frame) {
        let tampered = match FsoInbound::from_frame(&payload) {
            Ok(FsoInbound::Pair(PairMessage::Candidate {
                output_seq,
                dest,
                body_len,
                mut digest,
                mut signature,
            })) if output_seq >= self.from_seq => {
                digest.0[31] ^= 0x01;
                if let Some(key) = self.resign {
                    let wrong =
                        Statement::output(FsId(1), output_seq, dest, body_len as usize, &digest);
                    signature = Signature::sign(key, wrong.as_bytes());
                }
                FsoInbound::Pair(PairMessage::Candidate {
                    output_seq,
                    dest,
                    body_len,
                    digest,
                    signature,
                })
                .to_frame()
            }
            _ => payload,
        };
        self.inner.send(to, tampered);
    }
    fn set_timer(&mut self, delay: SimDuration, timer: TimerId) {
        self.inner.set_timer(delay, timer);
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.inner.cancel_timer(timer);
    }
    fn charge_cpu(&mut self, amount: SimDuration) {
        self.inner.charge_cpu(amount);
    }
    fn trace(&mut self, label: &str) {
        self.inner.trace(label);
    }
}

impl Actor for TamperCandidates {
    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
        let mut ctx = TamperContext {
            inner: ctx,
            from_seq: self.from_seq,
            resign: self.resign.as_ref(),
        };
        self.inner.on_message(&mut ctx, from, payload);
    }
    fn on_timer(&mut self, ctx: &mut dyn Context, timer: TimerId) {
        let mut ctx = TamperContext {
            inner: ctx,
            from_seq: self.from_seq,
            resign: self.resign.as_ref(),
        };
        self.inner.on_timer(&mut ctx, timer);
    }
}

/// The leader's first `fail-signal` trace label of a [`TamperCandidates`]
/// run that starts tampering at output 3, after checking that it validated
/// exactly the three outputs before and that the destination was told.
fn leader_failure_after_tampering(resign: bool) -> (SimTime, String, FsoStats) {
    let sim = run_pair(|follower, key| {
        Box::new(TamperCandidates {
            inner: follower,
            from_seq: 3,
            resign: resign.then_some(key),
        })
    });
    let leader = sim.actor::<FsoActor>(LEADER).expect("leader");
    assert!(leader.has_failed());
    assert_eq!(leader.stats().outputs_validated, 3);
    let destination = sim.actor::<Local>(LOCAL).expect("local process");
    assert_eq!(destination.fail_signals, vec![FsId(1)]);
    let first_label = sim
        .trace()
        .expect("tracing enabled")
        .events()
        .iter()
        .find_map(|event| match event {
            TraceEvent::Label { at, process, label }
                if *process == LEADER && label.starts_with("fail-signal") =>
            {
                Some((*at, label.clone()))
            }
            _ => None,
        })
        .expect("the leader traced its failure");
    (first_label.0, first_label.1, leader.stats())
}

/// A candidate whose digest was altered after it was signed makes the
/// receiving wrapper fail-signal before any comparison: the share does not
/// verify over the statement built from the fields as received.  The
/// simulated instant is pinned (it read 54 936 633 ns while the candidate
/// carried the body and was charged a hash pass over it).
#[test]
fn candidate_bytes_that_differ_from_the_signed_digest_fail_signal_as_before() {
    let (at, label, stats) = leader_failure_after_tampering(false);
    assert_eq!(label, "fail-signal: invalid candidate signature");
    assert_eq!(stats.mismatches, 0, "never reached the comparison");
    assert_eq!(at, SimTime::from_nanos(FAIL_AT_NANOS));
}

/// When the leader fail-signals in the test above.
const FAIL_AT_NANOS: u64 = 54_951_540;

/// A candidate whose signer signed the wrong digest verifies — it *is* the
/// partner's share, of an output this replica did not produce — and fails
/// the comparison instead.
#[test]
fn candidate_resigned_over_a_wrong_digest_fails_the_comparison() {
    let (_, label, stats) = leader_failure_after_tampering(true);
    assert_eq!(label, "fail-signal: output comparison mismatch");
    assert_eq!(stats.mismatches, 1);
    assert_eq!(stats.rejected_inputs, 0);
}

#[test]
fn crash_counts_swallowed_events_and_triggers_fail_signal() {
    let outcome = run_wrapped_pair(FaultPlan::after(4, FaultKind::Crash));
    assert!(
        outcome.stats.faulty_events > 0,
        "events must be swallowed by the crash"
    );
    assert_eq!(outcome.stats.clean_events, 4);
    assert_eq!(outcome.fail_signals, vec![FsId(1)]);
    assert!(outcome.outputs.len() < REQUESTS as usize);
}

#[test]
fn babble_counts_garbage_and_is_rejected_by_validation() {
    let outcome = run_wrapped_pair(FaultPlan::immediate(FaultKind::Babble {
        target: LOCAL,
        payload: b"not a valid double-signed output"[..].into(),
    }));
    assert!(outcome.stats.babbled > 0, "babble fault must fire");
    assert_eq!(
        outcome.stats.babbled, outcome.stats.faulty_events,
        "one garbage message per handled event"
    );
    assert_eq!(
        outcome.outputs.len(),
        REQUESTS as usize,
        "real outputs still get through"
    );
    assert!(
        outcome.fail_signals.is_empty(),
        "unauthenticated garbage is silently rejected"
    );
}
