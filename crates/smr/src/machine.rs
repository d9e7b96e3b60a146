//! The deterministic-state-machine abstraction (requirement R1 of the paper).
//!
//! §2.1: *"To transform a middleware process p into an FS p, p must be a
//! deterministic state machine in the sense that the execution of an
//! operation by p in a given state and with a given set of arguments must
//! always produce the same result."*
//!
//! Anything satisfying [`DeterministicMachine`] can be wrapped by the
//! fail-signal layer in the `failsignal` crate: the NewTOP group
//! communication object, an application server, or a toy machine used in
//! tests.  Inputs and outputs are plain byte strings tagged with logical
//! endpoints so the wrapper can compare replica outputs byte-for-byte and
//! route them to physical processes.

use std::any::Any;
use std::collections::BTreeSet;

use fs_common::id::MemberId;
use fs_common::time::{SimDuration, SimTime};
use fs_common::Bytes;

/// A logical endpoint of a machine input or output.
///
/// Logical, not physical: the adapter hosting the machine (a plain NewTOP
/// service object or a fail-signal wrapper pair) decides which physical
/// process(es) each endpoint maps to.  That indirection is exactly what makes
/// wrapping "transparent to GC" (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// The middleware peer serving group member `m` (another GC object).
    Peer(MemberId),
    /// Every middleware peer of the group except the sender (a logical
    /// multicast: one output, one signature, fanned out by the adapter).
    Broadcast,
    /// The local application / invocation layer sitting above this machine.
    LocalApp,
    /// The environment: start-up configuration, injected control inputs,
    /// converted fail-signals, and (in crash-tolerant mode) timer ticks.
    Environment,
}

/// One input to a deterministic machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInput {
    /// Where the input came from.
    pub source: Endpoint,
    /// The input bytes (canonical wire encoding of a protocol message),
    /// refcount-shared with the transport that delivered them.
    pub bytes: Bytes,
}

impl MachineInput {
    /// Creates an input from `source` carrying `bytes`.
    pub fn new(source: Endpoint, bytes: impl Into<Bytes>) -> Self {
        Self {
            source,
            bytes: bytes.into(),
        }
    }

    /// Convenience constructor for an input from the local application.
    pub fn from_app(bytes: impl Into<Bytes>) -> Self {
        Self::new(Endpoint::LocalApp, bytes)
    }

    /// Convenience constructor for an input from peer `m`.
    pub fn from_peer(m: MemberId, bytes: impl Into<Bytes>) -> Self {
        Self::new(Endpoint::Peer(m), bytes)
    }

    /// Convenience constructor for an environment input.
    pub fn from_env(bytes: impl Into<Bytes>) -> Self {
        Self::new(Endpoint::Environment, bytes)
    }
}

/// One output produced by a deterministic machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineOutput {
    /// Where the output should go.
    pub dest: Endpoint,
    /// The output bytes.  An output produced once is signed, compared and
    /// transmitted to every destination without re-encoding, so the buffer
    /// is immutable and refcount-shared.
    pub bytes: Bytes,
}

impl MachineOutput {
    /// Creates an output destined for `dest` carrying `bytes`.
    pub fn new(dest: Endpoint, bytes: impl Into<Bytes>) -> Self {
        Self {
            dest,
            bytes: bytes.into(),
        }
    }

    /// Convenience constructor for an output to the local application.
    pub fn to_app(bytes: impl Into<Bytes>) -> Self {
        Self::new(Endpoint::LocalApp, bytes)
    }

    /// Convenience constructor for an output to peer `m`.
    pub fn to_peer(m: MemberId, bytes: impl Into<Bytes>) -> Self {
        Self::new(Endpoint::Peer(m), bytes)
    }

    /// Convenience constructor for an output multicast to every peer.
    pub fn broadcast(bytes: impl Into<Bytes>) -> Self {
        Self::new(Endpoint::Broadcast, bytes)
    }
}

/// A deterministic (Mealy) state machine: same state + same input ⇒ same
/// outputs, regardless of wall-clock time or scheduling.
///
/// Implementations must not consult clocks, random sources or any other
/// hidden input inside [`DeterministicMachine::handle`]; all nondeterminism
/// must arrive as explicit inputs (which the fail-signal Order processes then
/// deliver to both replicas in the same order).
///
/// `Any` lets a [`FailureDetector`] and the tests downcast a hosted machine.
pub trait DeterministicMachine: Any + Send {
    /// Processes one input and returns the outputs it generates, in order.
    fn handle(&mut self, input: &MachineInput) -> Vec<MachineOutput>;

    /// The CPU cost of processing `input`, charged to the simulated clock by
    /// adapters.  Defaults to a small per-message protocol-processing cost.
    fn processing_cost(&self, input: &MachineInput) -> SimDuration {
        let _ = input;
        SimDuration::from_micros(200)
    }

    /// A short human-readable name used in traces.
    fn name(&self) -> String {
        "machine".to_string()
    }

    /// The machine's committed `(origin, seq)` delivery log, when it keeps
    /// one — the runtime-agnostic convergence probe of the recovery plane.
    /// The default exposes none.
    fn delivered_log(&self) -> Option<Vec<(MemberId, u64)>> {
        None
    }

    /// A digest of the machine's application state, when it exposes one —
    /// used alongside [`DeterministicMachine::delivered_log`] to check that
    /// a recovered or replaced member converged with the survivors.
    fn app_digest(&self) -> Option<u64> {
        None
    }
}

/// What a [`FailureDetector::round`] wants done: probes to route like
/// machine outputs, then each newly suspected member with the environment
/// input that reports it to the machine.
pub type DetectorRound = (Vec<MachineOutput>, Vec<(MemberId, Bytes)>);

/// The failure detector a crash-tolerant host plugs in beside its machine:
/// it sees every peer frame before the machine does and runs a round every
/// [`FailureDetector::interval`].
pub trait FailureDetector: Send {
    /// The time between two rounds.
    fn interval(&self) -> SimDuration;
    /// Looks at one frame from `peer`, the member whose host sent it.
    fn observe(&mut self, peer: MemberId, frame: &[u8]);
    /// One round at `now` over the hosted machine.
    fn round(&mut self, now: SimTime, machine: &dyn DeterministicMachine) -> DetectorRound;
    /// The members suspected so far.
    fn suspected(&self) -> &BTreeSet<MemberId>;
}

/// Drives two instances of the same machine with the same inputs and checks
/// that they produce identical outputs — the determinism check used by the
/// property tests and by the fail-signal wrapper's own self-tests.
pub fn check_determinism<M, F>(make: F, inputs: &[MachineInput]) -> bool
where
    M: DeterministicMachine,
    F: Fn() -> M,
{
    let mut a = make();
    let mut b = make();
    for input in inputs {
        if a.handle(input) != b.handle(input) {
            return false;
        }
    }
    true
}

/// A tiny deterministic machine used throughout the test suites: it appends
/// every input byte string to an internal log and emits an acknowledgement to
/// the source, plus a copy to the local application every `fanout`-th input.
#[derive(Debug, Clone, Default)]
pub struct EchoMachine {
    log: Vec<Bytes>,
    /// Emit a delivery to the local application every `fanout` inputs
    /// (0 = never).
    pub fanout: usize,
}

impl EchoMachine {
    /// Creates an echo machine that acknowledges every input.
    pub fn new(fanout: usize) -> Self {
        Self {
            log: Vec::new(),
            fanout,
        }
    }

    /// The inputs processed so far.
    pub fn log(&self) -> &[Bytes] {
        &self.log
    }
}

impl DeterministicMachine for EchoMachine {
    fn handle(&mut self, input: &MachineInput) -> Vec<MachineOutput> {
        self.log.push(input.bytes.clone());
        let mut out = vec![MachineOutput::new(input.source, input.bytes.clone())];
        if self.fanout > 0 && self.log.len().is_multiple_of(self.fanout) {
            out.push(MachineOutput::to_app(
                format!("count={}", self.log.len()).into_bytes(),
            ));
        }
        out
    }

    fn name(&self) -> String {
        "echo".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_machine_is_deterministic() {
        let inputs: Vec<MachineInput> = (0..20u8)
            .map(|i| MachineInput::from_peer(MemberId(u32::from(i) % 3), vec![i, i + 1]))
            .collect();
        assert!(check_determinism(|| EchoMachine::new(4), &inputs));
    }

    #[test]
    fn echo_machine_acknowledges_source() {
        let mut m = EchoMachine::new(0);
        let input = MachineInput::from_peer(MemberId(2), b"abc".to_vec());
        let out = m.handle(&input);
        assert_eq!(
            out,
            vec![MachineOutput::to_peer(MemberId(2), b"abc".to_vec())]
        );
        assert_eq!(m.log(), &[Bytes::from(&b"abc"[..])]);
    }

    #[test]
    fn echo_machine_fanout_to_app() {
        let mut m = EchoMachine::new(2);
        let i1 = MachineInput::from_app(vec![1]);
        let i2 = MachineInput::from_app(vec![2]);
        assert_eq!(m.handle(&i1).len(), 1);
        let out2 = m.handle(&i2);
        assert_eq!(out2.len(), 2);
        assert_eq!(out2[1].dest, Endpoint::LocalApp);
    }

    #[test]
    fn nondeterministic_machine_is_caught() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);

        struct Flaky;
        impl DeterministicMachine for Flaky {
            fn handle(&mut self, _input: &MachineInput) -> Vec<MachineOutput> {
                // Output depends on a global counter — not a function of the
                // input sequence, so the two instances diverge.
                let n = COUNTER.fetch_add(1, Ordering::SeqCst);
                vec![MachineOutput::to_app(vec![n as u8])]
            }
        }

        let inputs = vec![MachineInput::from_app(vec![0])];
        assert!(!check_determinism(|| Flaky, &inputs));
    }

    #[test]
    fn constructors_tag_endpoints() {
        assert_eq!(MachineInput::from_app(vec![]).source, Endpoint::LocalApp);
        assert_eq!(MachineInput::from_env(vec![]).source, Endpoint::Environment);
        assert_eq!(
            MachineInput::from_peer(MemberId(1), vec![]).source,
            Endpoint::Peer(MemberId(1))
        );
        assert_eq!(MachineOutput::to_app(vec![]).dest, Endpoint::LocalApp);
    }

    #[test]
    fn default_cost_is_positive() {
        let m = EchoMachine::new(0);
        assert!(m.processing_cost(&MachineInput::from_app(vec![])) > SimDuration::ZERO);
        assert_eq!(m.name(), "echo");
    }
}
