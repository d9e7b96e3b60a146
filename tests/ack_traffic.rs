//! Structural guard on what symmetric total order says per message.
//!
//! NewTOP orders a message once every member has *logically* acknowledged
//! it, and every message a GC object emits is, under the fail-signal lift,
//! a sign + candidate + compare + external round.  How many `Ack`
//! multicasts one ordered message costs is therefore the multiplier under
//! everything else; these tests read it off `GcMachine::message_counts()`.
//!
//! With one explicit ack per member per message (the rule before clocks
//! stood in for acks) a 9-member group under load reads 64 / 9 ≈ 7.1 ack
//! receipts per message per member — 8 ackers × 8 receivers ÷ 9 — and the
//! loaded test below fails.  The sequential test is the other half of the
//! bargain: an isolated message still costs exactly n − 1 acks and is
//! ordered exactly as fast as it was, to the nanosecond of the ack's four
//! fewer bytes on the wire.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fs_smr_suite::common::id::{MemberId, ProcessId};
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::common::Bytes;
use fs_smr_suite::harness::{Admission, NewTopService, Protocol, Scenario, ServiceSpec, Workload};
use fs_smr_suite::newtop::gc::{GcConfig, GcMachine};
use fs_smr_suite::newtop::suspector::SuspectorConfig;
use fs_smr_suite::simnet::actor::Actor;
use fs_smr_suite::simnet::load::LoadGen;
use fs_smr_suite::smr::machine::{DeterministicMachine, MachineInput, MachineOutput};

const MEMBERS: u32 = 9;

/// `acks[i]`: `Ack` messages member `i`'s GC object has received.
type AckCounts = Arc<Vec<AtomicU64>>;

/// A GC object that publishes its `ack` receipt count: the machine sits
/// inside a wrapper pair or a crash host, both built from the service's
/// machine factory.
struct CountedGc {
    gc: GcMachine,
    acks: AckCounts,
}

impl DeterministicMachine for CountedGc {
    fn handle(&mut self, input: &MachineInput) -> Vec<MachineOutput> {
        let outputs = self.gc.handle(input);
        let acks = self.gc.message_counts().get("ack").copied().unwrap_or(0);
        self.acks[self.gc.member().0 as usize].store(acks, Ordering::Relaxed);
        outputs
    }
    fn processing_cost(&self, input: &MachineInput) -> SimDuration {
        self.gc.processing_cost(input)
    }
    fn name(&self) -> String {
        self.gc.name()
    }
}

/// [`NewTopService`], its machines wrapped in [`CountedGc`].
struct CountedNewTop {
    inner: NewTopService,
    acks: AckCounts,
}

impl ServiceSpec for CountedNewTop {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn machine(&self, member: MemberId, group: &[MemberId]) -> Box<dyn DeterministicMachine> {
        Box::new(CountedGc {
            gc: GcMachine::new(GcConfig::new(member, group.to_vec())),
            acks: Arc::clone(&self.acks),
        })
    }
    fn fail_signal_input(&self, peer: MemberId) -> Option<Bytes> {
        self.inner.fail_signal_input(peer)
    }
    fn driver(
        &self,
        member: MemberId,
        middleware: ProcessId,
        workload: &Workload,
    ) -> Box<dyn Actor> {
        self.inner.driver(member, middleware, workload)
    }
    fn delivery_log_of(&self, driver: &dyn Actor) -> Option<Vec<(MemberId, u64)>> {
        self.inner.delivery_log_of(driver)
    }
    fn load_of<'a>(&self, driver: &'a dyn Actor) -> Option<&'a LoadGen> {
        self.inner.load_of(driver)
    }
}

/// What one run of [`run`] observed.
struct Observed {
    /// Messages ordered (every member delivered all of them).
    messages: u64,
    /// `Ack` receipts, per member.
    acks: Vec<u64>,
    mean_latency: SimDuration,
}

/// Runs a 9-member NewTOP group to completion on the simulator.
fn run(protocol: Protocol, workload: Workload) -> Observed {
    let acks: AckCounts = Arc::new((0..MEMBERS).map(|_| AtomicU64::new(0)).collect());
    let mut run = Scenario::new(CountedNewTop {
        // No pings: the only frames are the ordering protocol's.
        inner: NewTopService::new().suspector(SuspectorConfig::disabled()),
        acks: Arc::clone(&acks),
    })
    .members(MEMBERS)
    .protocol(protocol)
    .workload(workload)
    .seed(2003)
    .build();
    run.run_until(SimTime::from_secs(600));

    Observed {
        messages: run.check().unwrap().len() as u64,
        acks: acks.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        mean_latency: run.latency_summary().expect("latency samples").mean,
    }
}

const LOADED_MESSAGES: u64 = 45;

/// Every member keeps 8 messages in flight: the group is never idle, so a
/// member's next multicast usually says what an ack would have said.
fn loaded() -> Workload {
    Workload::paper_default()
        .messages(LOADED_MESSAGES)
        .interval(SimDuration::from_nanos(1))
        .clients(1)
        .max_in_flight(8)
        .admission(Admission::Block)
}

const SEQUENTIAL_MESSAGES: u64 = 20;

/// One message a second from one member: each is delivered everywhere long
/// before the next is sent.
fn sequential() -> Workload {
    Workload::paper_default()
        .messages(SEQUENTIAL_MESSAGES)
        .interval(SimDuration::from_secs(1))
        .senders(1)
}

fn assert_loaded_acks_are_few(protocol: Protocol) {
    let seen = run(protocol, loaded());
    assert_eq!(seen.messages, u64::from(MEMBERS) * LOADED_MESSAGES);
    for (member, &acks) in seen.acks.iter().enumerate() {
        let per_message = acks as f64 / seen.messages as f64;
        assert!(
            per_message <= 2.5,
            "{protocol:?}: member {member} received {per_message:.2} acks per ordered message"
        );
    }
}

#[test]
fn loaded_group_acks_rarely_crash() {
    assert_loaded_acks_are_few(Protocol::Crash);
}

#[test]
fn loaded_group_acks_rarely_fail_signal() {
    assert_loaded_acks_are_few(Protocol::FailSignal);
}

/// `mean_ns` is the mean ordering latency of the same run under the
/// explicit-ack rule (read on the commit before logical acknowledgement).
/// The fail-signal figure was re-pinned once since, 28 835 487 → 23 750 516,
/// when a double-signed output became two signature shares (one signing
/// operation per wrapper per output); the ack counts and the crash figure
/// did not move.
fn assert_sequential_cost(protocol: Protocol, mean_ns: u64) {
    let seen = run(protocol, sequential());
    assert_eq!(seen.messages, SEQUENTIAL_MESSAGES);
    // Each of the n − 1 ack multicasts per message reaches n − 1 members.
    let others = u64::from(MEMBERS - 1);
    assert_eq!(
        seen.acks.iter().sum::<u64>(),
        SEQUENTIAL_MESSAGES * others * others,
        "{protocol:?}: exactly n - 1 ack multicasts per isolated message"
    );
    let mean = seen.mean_latency.as_nanos();
    assert!(
        mean.abs_diff(mean_ns) * 1000 <= mean_ns,
        "{protocol:?}: mean latency {mean} ns, more than 0.1 % from {mean_ns} ns"
    );
}

#[test]
fn isolated_messages_cost_what_they_did_crash() {
    assert_sequential_cost(Protocol::Crash, 12_037_827);
}

#[test]
fn isolated_messages_cost_what_they_did_fail_signal() {
    assert_sequential_cost(Protocol::FailSignal, 23_750_516);
}
