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
//! tests.  Inputs and outputs are transport frames tagged with logical
//! endpoints so the wrapper can compare replica outputs byte-for-byte and
//! route them to physical processes.

use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;

use fs_common::id::{MemberId, ProcessId};
use fs_common::time::{SimDuration, SimTime};
use fs_common::{Bytes, Frame};

/// A logical endpoint of a machine input or output.
///
/// Logical, not physical: the host of the machine (a plain crash-protocol
/// host or a fail-signal wrapper pair) maps each endpoint to physical
/// processes through its [`AddressMap`], the same map type under either
/// protocol.  That indirection is exactly what makes wrapping "transparent
/// to GC" (§3.1).
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

/// Where one member's endpoints live: its local process, and for every
/// member of its group the processes that speak for that member — the host
/// under the crash protocol, the leader and the follower wrapper under the
/// fail-signal protocol.  Both hosts resolve through it: which endpoint a
/// sender is ([`AddressMap::source`]), which processes an output goes to
/// ([`AddressMap::targets`]) and which a fail-signal goes to
/// ([`AddressMap::fail_signal_targets`]).
///
/// Members are numbered from 0; member `m` speaks through
/// `speakers[m * width..(m + 1) * width]`.  One group shares one table:
/// each member's map is the same `Arc` with its own member and local
/// process.  The default map knows no process at all.
#[derive(Debug, Clone, Default)]
pub struct AddressMap {
    speakers: Arc<[ProcessId]>,
    width: usize,
    me: MemberId,
    local: Option<ProcessId>,
}

impl AddressMap {
    /// Member `me`'s map of a group whose member `m` speaks through
    /// `speakers[m * width..(m + 1) * width]`; `local` is the one process
    /// above `me`'s machine (its application, or its interceptor).
    ///
    /// # Panics
    ///
    /// Panics when `width` is 0 or does not divide `speakers.len()`.
    pub fn new(speakers: Arc<[ProcessId]>, width: usize, me: MemberId, local: ProcessId) -> Self {
        assert!(
            width > 0 && speakers.len().is_multiple_of(width),
            "{} speakers do not split into members of {width}",
            speakers.len()
        );
        Self {
            speakers,
            width,
            me,
            local: Some(local),
        }
    }

    /// A map that knows only `local`: the host of a lone machine, with no
    /// peers to receive from or send to.
    pub fn local_only(local: ProcessId) -> Self {
        Self {
            local: Some(local),
            ..Self::default()
        }
    }

    /// The member whose map this is.
    pub fn me(&self) -> MemberId {
        self.me
    }

    /// The processes that speak for `member`, in the order the group was
    /// given them (leader first under the fail-signal protocol); empty for
    /// a member outside the group.
    pub fn processes(&self, member: MemberId) -> &[ProcessId] {
        let start = member.0 as usize * self.width;
        self.speakers
            .get(start..start + self.width)
            .unwrap_or_default()
    }

    /// The endpoint a frame from `from` comes from: the local process is
    /// [`Endpoint::LocalApp`], a process speaking for another member is
    /// that member's [`Endpoint::Peer`], anything else (this member's own
    /// speakers included) is no endpoint.
    pub fn source(&self, from: ProcessId) -> Option<Endpoint> {
        if self.local == Some(from) {
            return Some(Endpoint::LocalApp);
        }
        let at = self.speakers.iter().position(|&p| p == from)?;
        let member = MemberId((at / self.width) as u32);
        (member != self.me).then_some(Endpoint::Peer(member))
    }

    /// The processes an output to `dest` goes to: the local process, every
    /// process of one peer, or every peer's processes in member order for
    /// [`Endpoint::Broadcast`].  `Peer(me)` and [`Endpoint::Environment`]
    /// go nowhere.
    pub fn targets(&self, dest: Endpoint) -> impl Iterator<Item = ProcessId> + '_ {
        let (first, second): (&[ProcessId], &[ProcessId]) = match dest {
            Endpoint::LocalApp => (self.local.as_slice(), &[]),
            Endpoint::Peer(peer) if peer != self.me => (self.processes(peer), &[]),
            Endpoint::Broadcast => {
                let start = (self.me.0 as usize * self.width).min(self.speakers.len());
                let (before, mine_and_after) = self.speakers.split_at(start);
                (before, mine_and_after.get(self.width..).unwrap_or_default())
            }
            Endpoint::Peer(_) | Endpoint::Environment => (&[], &[]),
        };
        first.iter().chain(second).copied()
    }

    /// The processes a fail-signal goes to: the local process and every
    /// peer's processes, each once, in ascending order.
    pub fn fail_signal_targets(&self) -> Vec<ProcessId> {
        let mut out: Vec<ProcessId> = self
            .targets(Endpoint::LocalApp)
            .chain(self.targets(Endpoint::Broadcast))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One input to a deterministic machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInput {
    /// Where the input came from.
    pub source: Endpoint,
    /// The input frame (canonical wire encoding of a protocol message),
    /// refcount-shared with the transport that delivered it and segmented
    /// as it arrived; decode it with `Wire::from_frame`.
    pub bytes: Frame,
}

impl MachineInput {
    /// Creates an input from `source` carrying `bytes`.
    pub fn new(source: Endpoint, bytes: impl Into<Frame>) -> Self {
        Self {
            source,
            bytes: bytes.into(),
        }
    }

    /// Convenience constructor for an input from the local application.
    pub fn from_app(bytes: impl Into<Frame>) -> Self {
        Self::new(Endpoint::LocalApp, bytes)
    }

    /// Convenience constructor for an input from peer `m`.
    pub fn from_peer(m: MemberId, bytes: impl Into<Frame>) -> Self {
        Self::new(Endpoint::Peer(m), bytes)
    }

    /// Convenience constructor for an environment input.
    pub fn from_env(bytes: impl Into<Frame>) -> Self {
        Self::new(Endpoint::Environment, bytes)
    }
}

/// One output produced by a deterministic machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineOutput {
    /// Where the output should go.
    pub dest: Endpoint,
    /// The output frame.  An output produced once is signed, compared and
    /// transmitted to every destination without re-encoding, so its
    /// segments are immutable and refcount-shared; a large payload it
    /// carries is the very buffer the machine received it in.
    pub bytes: Frame,
}

impl MachineOutput {
    /// Creates an output destined for `dest` carrying `bytes`.
    pub fn new(dest: Endpoint, bytes: impl Into<Frame>) -> Self {
        Self {
            dest,
            bytes: bytes.into(),
        }
    }

    /// Convenience constructor for an output to the local application.
    pub fn to_app(bytes: impl Into<Frame>) -> Self {
        Self::new(Endpoint::LocalApp, bytes)
    }

    /// Convenience constructor for an output to peer `m`.
    pub fn to_peer(m: MemberId, bytes: impl Into<Frame>) -> Self {
        Self::new(Endpoint::Peer(m), bytes)
    }

    /// Convenience constructor for an output multicast to every peer.
    pub fn broadcast(bytes: impl Into<Frame>) -> Self {
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
    fn observe(&mut self, peer: MemberId, frame: &Frame);
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
    log: Vec<Frame>,
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
    pub fn log(&self) -> &[Frame] {
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
        assert_eq!(m.log(), &[Frame::from(&b"abc"[..])]);
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

    /// Member 1's map of a 3-member group laid out as the scenario
    /// harness lays groups out from pid 100: `stride` pids per member, the
    /// local process at offset `local` and the speakers at `speakers`.
    fn group_map(stride: u32, local: u32, speakers: &[u32]) -> AddressMap {
        let table: Arc<[ProcessId]> = (0..3)
            .flat_map(|m| {
                speakers
                    .iter()
                    .map(move |k| ProcessId(100 + stride * m + k))
            })
            .collect();
        AddressMap::new(
            table,
            speakers.len(),
            MemberId(1),
            ProcessId(100 + stride + local),
        )
    }

    fn sources(map: &AddressMap, pids: std::ops::Range<u32>) -> Vec<Option<Endpoint>> {
        pids.map(|p| map.source(ProcessId(p))).collect()
    }

    fn targets(map: &AddressMap, dest: Endpoint) -> Vec<u32> {
        map.targets(dest).map(|p| p.0).collect()
    }

    const fn peer(m: u32) -> Option<Endpoint> {
        Some(Endpoint::Peer(MemberId(m)))
    }

    /// The crash protocol's shape: per member the application, then the
    /// host that speaks for it; the application is the local process.
    #[test]
    fn a_crash_shaped_map_resolves_every_process_and_endpoint() {
        let map = group_map(2, 0, &[1]);
        assert_eq!(map.me(), MemberId(1));
        let app = Some(Endpoint::LocalApp);
        // Member 0's application and host, member 1's, member 2's, beyond.
        assert_eq!(
            sources(&map, 99..107),
            [None, None, peer(0), app, None, None, peer(2), None]
        );
        assert_eq!(targets(&map, Endpoint::LocalApp), [102]);
        assert_eq!(targets(&map, Endpoint::Peer(MemberId(0))), [101]);
        assert_eq!(targets(&map, Endpoint::Peer(MemberId(2))), [105]);
        assert_eq!(targets(&map, Endpoint::Broadcast), [101, 105]);
        assert!(targets(&map, Endpoint::Peer(MemberId(1))).is_empty());
        assert!(targets(&map, Endpoint::Peer(MemberId(3))).is_empty());
        assert!(targets(&map, Endpoint::Environment).is_empty());
        assert_eq!(map.fail_signal_targets(), [101, 102, 105].map(ProcessId));
    }

    /// The fail-signal protocol's shape: per member the application, the
    /// interceptor, the leader and the follower; the interceptor is the
    /// local process, and the pair speaks for the member, leader first.
    #[test]
    fn an_fs_shaped_map_resolves_every_process_and_endpoint() {
        let map = group_map(4, 1, &[2, 3]);
        assert_eq!(map.processes(MemberId(2)), [ProcessId(110), ProcessId(111)]);
        assert!(map.processes(MemberId(3)).is_empty());
        let icp = Some(Endpoint::LocalApp);
        #[rustfmt::skip]
        assert_eq!(
            sources(&map, 99..113),
            [
                None,
                None, None, peer(0), peer(0),
                None, icp, None, None,
                None, None, peer(2), peer(2),
                None,
            ]
        );
        assert_eq!(targets(&map, Endpoint::LocalApp), [105]);
        assert_eq!(targets(&map, Endpoint::Peer(MemberId(0))), [102, 103]);
        assert_eq!(targets(&map, Endpoint::Peer(MemberId(2))), [110, 111]);
        assert_eq!(targets(&map, Endpoint::Broadcast), [102, 103, 110, 111]);
        assert!(targets(&map, Endpoint::Peer(MemberId(1))).is_empty());
        assert!(targets(&map, Endpoint::Environment).is_empty());
        // Each process once, in ascending pid order: the local process
        // falls between the peers'.
        assert_eq!(
            map.fail_signal_targets(),
            [102, 103, 105, 110, 111].map(ProcessId)
        );
    }

    #[test]
    fn the_default_map_knows_no_process_and_a_local_only_map_one() {
        let dests = [
            Endpoint::LocalApp,
            Endpoint::Peer(MemberId(0)),
            Endpoint::Broadcast,
            Endpoint::Environment,
        ];
        let map = AddressMap::default();
        assert_eq!(map.source(ProcessId(0)), None);
        for dest in dests {
            assert!(targets(&map, dest).is_empty());
        }
        assert!(map.fail_signal_targets().is_empty());

        let map = AddressMap::local_only(ProcessId(4));
        assert_eq!(map.source(ProcessId(4)), Some(Endpoint::LocalApp));
        assert_eq!(map.source(ProcessId(0)), None);
        for dest in dests {
            let expected: &[u32] = if dest == Endpoint::LocalApp {
                &[4]
            } else {
                &[]
            };
            assert_eq!(targets(&map, dest), expected);
        }
        assert_eq!(map.fail_signal_targets(), [ProcessId(4)]);
    }

    #[test]
    fn default_cost_is_positive() {
        let m = EchoMachine::new(0);
        assert!(m.processing_cost(&MachineInput::from_app(vec![])) > SimDuration::ZERO);
        assert_eq!(m.name(), "echo");
    }
}
