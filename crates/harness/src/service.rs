//! The service axis of the scenario matrix: pluggable service
//! specifications, plus the crash-protocol host and the SMR workload
//! driver.
//!
//! A [`ServiceSpec`] bundles everything the scenario builder needs to deploy
//! one kind of deterministic group service under **either** protocol:
//!
//! * the machine factory ([`ServiceSpec::machine`]) both protocols share:
//!   the crash protocol hosts each machine in a [`PlainHost`], the
//!   fail-signal lift wraps two of them in a pair — the same per-member
//!   assembly places either, with no service-specific code;
//! * the machine input a peer's fail-signal turns into, if any
//!   ([`ServiceSpec::fail_signal_input`]);
//! * the [`FailureDetector`] plugged into the crash host, if any;
//! * a factory for the per-member workload driver, and the inspector that
//!   reads its delivery log back out.
//!
//! Two specs ship with the suite: [`NewTopService`] (the paper's GC object)
//! and [`SmrKvService`] (the sequenced replicated key-value store) — the
//! second service that demonstrates the wrapper path contains no
//! NewTOP-specific code.

use std::any::Any;
use std::collections::BTreeSet;

use fs_common::codec::{Encoder, Wire};
use fs_common::id::{MemberId, ProcessId};
use fs_common::time::{SimDuration, SimTime};
use fs_common::{Bytes, Frame, SeqSlots};
use fs_newtop::app::AppProcess;
use fs_newtop::gc::{GcConfig, GcMachine};
use fs_newtop::message::{ControlInput, ServiceKind};
use fs_newtop::suspector::{PingSuspector, SuspectorConfig};
use fs_simnet::actor::{Actor, Context, TimerId};
use fs_simnet::load::{Admitted, LoadGen};
use fs_simnet::trace::LatencyRecorder;
use fs_smr::machine::{
    AddressMap, DeterministicMachine, Endpoint, FailureDetector, MachineInput, MachineOutput,
};
use fs_smr::sequenced::{SequencedKv, SmrClientMsg, SmrDeliverEntry, SmrUpcall};

use crate::cluster::{ClusterFrame, ClusterMsg};
use crate::workload::Workload;

/// A deployable service: everything the scenario builder needs to assemble
/// it under the crash protocol or lift it to fail-signal form.
pub trait ServiceSpec: Send + Sync {
    /// A short human-readable name, used in reports.
    fn name(&self) -> &'static str;

    /// Creates a fresh replica of member `member`'s service machine.
    ///
    /// Called once per crash-protocol host, and twice per fail-signal
    /// member — once for the leader wrapper, once for the follower — so the
    /// two replicas of the pair start identical.
    ///
    /// # The R1 determinism contract
    ///
    /// The machines returned here **must** satisfy the paper's requirement
    /// R1 (§2.1): *the execution of an operation in a given state and with
    /// a given set of arguments must always produce the same result*.
    /// Concretely:
    ///
    /// * two machines created by `machine(m, group)` with the same
    ///   arguments must start in identical states;
    /// * fed the same input sequence, they must produce **byte-identical**
    ///   output sequences;
    /// * implementations must not consult wall clocks, random sources,
    ///   thread identity, ambient global state, or anything else that is
    ///   not an explicit input — all nondeterminism must arrive as
    ///   [`MachineInput`]s, which the wrapper pair's Order processes then
    ///   deliver to both replicas in the same order.
    ///
    /// Violating R1 is indistinguishable from a Byzantine fault: the pair's
    /// Compare processes will see diverging outputs and convert the service
    /// into its fail-signal.  [`fs_smr::machine::check_determinism`] is the
    /// cheap self-test for new implementations.
    fn machine(&self, member: MemberId, group: &[MemberId]) -> Box<dyn DeterministicMachine>;

    /// The machine input (fed from [`Endpoint::Environment`]) to inject
    /// into every *other* member's machine when `peer`'s fail-signal is
    /// received, or `None` if the service has no use for failure
    /// notifications.
    ///
    /// FS-NewTOP returns the GC `Suspect(peer)` control input here — the
    /// paper's conversion of trustworthy fail-signals into never-false
    /// suspicions.
    fn fail_signal_input(&self, peer: MemberId) -> Option<Bytes> {
        let _ = peer;
        None
    }

    /// The failure detector plugged into each member's crash-protocol
    /// [`PlainHost`].  The default plugs none.
    fn failure_detector(&self) -> Option<Box<dyn FailureDetector>> {
        None
    }

    /// The per-member application / workload-driver actor.
    fn driver(
        &self,
        member: MemberId,
        middleware: ProcessId,
        workload: &Workload,
    ) -> Box<dyn Actor>;

    /// The driver installed when the recovery plane *replaces* a member
    /// cold.  The default is an ordinary [`ServiceSpec::driver`];
    /// implementations whose machine has a catch-up protocol should return
    /// a driver that announces the rejoin to its middleware on start.
    fn replacement_driver(
        &self,
        member: MemberId,
        middleware: ProcessId,
        workload: &Workload,
    ) -> Box<dyn Actor> {
        self.driver(member, middleware, workload)
    }

    /// Reads the `(origin, seq)` delivery log out of a driver actor created
    /// by [`ServiceSpec::driver`] (`None` if the actor is of the wrong type).
    fn delivery_log_of(&self, driver: &dyn Actor) -> Option<Vec<(MemberId, u64)>>;

    /// Whether every member delivers in one total order.  When it does not,
    /// [`crate::check`] compares delivery logs as sets.
    fn total_order(&self) -> bool {
        true
    }

    /// The load generator a driver actor owns — its ordering latencies and
    /// admission counters (`None` if the actor is of the wrong type).
    fn load_of<'a>(&self, driver: &'a dyn Actor) -> Option<&'a LoadGen> {
        let _ = driver;
        None
    }
}

// ---------------------------------------------------------------------------
// NewTOP
// ---------------------------------------------------------------------------

/// The NewTOP group-communication service of the paper: GC machines ordered
/// by the chosen [`ServiceKind`], with the ping-based failure suspector in
/// crash mode.
#[derive(Debug, Clone)]
pub struct NewTopService {
    service: ServiceKind,
    suspector: SuspectorConfig,
}

impl Default for NewTopService {
    fn default() -> Self {
        Self::new()
    }
}

impl NewTopService {
    /// The paper's configuration: symmetric total order, era-2003 protocol
    /// costs, a suspector with timeouts large enough to never fire falsely.
    pub fn new() -> Self {
        Self {
            service: ServiceKind::SymmetricTotal,
            suspector: SuspectorConfig::large_timeouts(),
        }
    }

    /// Returns a copy ordering through a different NewTOP service class.
    #[must_use]
    pub fn service_kind(mut self, service: ServiceKind) -> Self {
        self.service = service;
        self
    }

    /// Returns a copy with a different crash-mode suspector configuration.
    #[must_use]
    pub fn suspector(mut self, suspector: SuspectorConfig) -> Self {
        self.suspector = suspector;
        self
    }
}

impl ServiceSpec for NewTopService {
    fn name(&self) -> &'static str {
        "newtop"
    }

    fn machine(&self, member: MemberId, group: &[MemberId]) -> Box<dyn DeterministicMachine> {
        Box::new(GcMachine::new(GcConfig::new(member, group.to_vec())))
    }

    /// The fail-signal → `Suspect` conversion of §3.1.
    fn fail_signal_input(&self, peer: MemberId) -> Option<Bytes> {
        Some(ControlInput::Suspect(peer).to_wire())
    }

    fn failure_detector(&self) -> Option<Box<dyn FailureDetector>> {
        self.suspector
            .enabled
            .then(|| Box::new(PingSuspector::new(self.suspector)) as Box<dyn FailureDetector>)
    }

    fn driver(
        &self,
        member: MemberId,
        middleware: ProcessId,
        workload: &Workload,
    ) -> Box<dyn Actor> {
        Box::new(AppProcess::new(member, middleware, self.service, workload))
    }

    fn delivery_log_of(&self, driver: &dyn Actor) -> Option<Vec<(MemberId, u64)>> {
        let any: &dyn Any = driver;
        any.downcast_ref::<AppProcess>()
            .map(|app| app.delivery_log().to_vec())
    }

    fn total_order(&self) -> bool {
        matches!(
            self.service,
            ServiceKind::SymmetricTotal | ServiceKind::AsymmetricTotal
        )
    }

    fn load_of<'a>(&self, driver: &'a dyn Actor) -> Option<&'a LoadGen> {
        let any: &dyn Any = driver;
        any.downcast_ref::<AppProcess>().map(AppProcess::load)
    }
}

// ---------------------------------------------------------------------------
// Sequenced replicated KV (the second service)
// ---------------------------------------------------------------------------

/// The sequenced replicated key-value service ([`SequencedKv`]) — a second,
/// structurally different deterministic service that rides the exact same
/// wrapper code path as NewTOP.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmrKvService;

impl SmrKvService {
    /// Creates the service spec.
    pub fn new() -> Self {
        Self
    }
}

impl ServiceSpec for SmrKvService {
    fn name(&self) -> &'static str {
        "smr-kv"
    }

    fn machine(&self, member: MemberId, group: &[MemberId]) -> Box<dyn DeterministicMachine> {
        Box::new(SequencedKv::new(member, group.to_vec()))
    }

    fn driver(
        &self,
        member: MemberId,
        middleware: ProcessId,
        workload: &Workload,
    ) -> Box<dyn Actor> {
        Box::new(SmrDriver::new(member, middleware, *workload))
    }

    fn replacement_driver(
        &self,
        member: MemberId,
        middleware: ProcessId,
        workload: &Workload,
    ) -> Box<dyn Actor> {
        Box::new(SmrDriver::new(member, middleware, *workload).rejoining())
    }

    fn delivery_log_of(&self, driver: &dyn Actor) -> Option<Vec<(MemberId, u64)>> {
        let any: &dyn Any = driver;
        any.downcast_ref::<SmrDriver>()
            .map(|d| d.delivery_log().to_vec())
    }

    fn load_of<'a>(&self, driver: &'a dyn Actor) -> Option<&'a LoadGen> {
        let any: &dyn Any = driver;
        any.downcast_ref::<SmrDriver>().map(SmrDriver::load)
    }
}

// ---------------------------------------------------------------------------
// The crash-protocol host + SMR workload driver
// ---------------------------------------------------------------------------

/// Timer of a [`PlainHost`]'s detector round.
const TIMER_DETECTOR: TimerId = TimerId(1);

/// The one crash-protocol host: a plain, unwrapped adapter around a
/// [`DeterministicMachine`] — the crash-protocol counterpart of the
/// fail-signal wrapper pair.  It maps physical senders to logical endpoints
/// on the way in and logical output destinations to physical processes on
/// the way out, through the same [`AddressMap`] type the pair uses, and
/// charges the machine's processing cost; nothing is signed or compared.
/// A [`FailureDetector`], if plugged, turns its suspicions into
/// environment inputs.
pub struct PlainHost {
    machine: Box<dyn DeterministicMachine>,
    addresses: AddressMap,
    detector: Option<Box<dyn FailureDetector>>,
}

impl std::fmt::Debug for PlainHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlainHost")
            .field("machine", &self.machine.name())
            .field("member", &self.addresses.me())
            .finish()
    }
}

impl PlainHost {
    /// Hosts `machine` at `addresses`: the local process is the member's
    /// application, and one host process speaks for each member.
    pub fn new(
        machine: Box<dyn DeterministicMachine>,
        addresses: AddressMap,
        detector: Option<Box<dyn FailureDetector>>,
    ) -> Self {
        Self {
            machine,
            addresses,
            detector,
        }
    }

    /// The hosted machine, for state inspection (the recovery plane's
    /// convergence probes read its delivered log and state digest here).
    pub fn machine(&self) -> &dyn DeterministicMachine {
        self.machine.as_ref()
    }

    /// The plugged failure detector, if any.
    pub fn detector(&self) -> Option<&dyn FailureDetector> {
        self.detector.as_deref()
    }

    fn arm_detector(&self, ctx: &mut dyn Context) {
        if let Some(detector) = &self.detector {
            ctx.set_timer(detector.interval(), TIMER_DETECTOR);
        }
    }

    fn feed(&mut self, ctx: &mut dyn Context, input: MachineInput) {
        ctx.charge_cpu(self.machine.processing_cost(&input));
        for output in self.machine.handle(&input) {
            self.route(ctx, output);
        }
    }

    /// Sends `output` to every process its destination maps to, segmented
    /// as the machine encoded it; the last one gets the frame itself, the
    /// others a refcount clone.
    fn route(&self, ctx: &mut dyn Context, output: MachineOutput) {
        let mut targets = self.addresses.targets(output.dest).peekable();
        while let Some(to) = targets.next() {
            if targets.peek().is_none() {
                ctx.send(to, output.bytes);
                return;
            }
            ctx.send(to, output.bytes.clone());
        }
    }
}

impl Actor for PlainHost {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.arm_detector(ctx);
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        // The crash cleared the detector's timer; its state survived.
        self.arm_detector(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
        // The machine takes the frame as it arrived: a payload spliced into
        // a request or a peer's `Data` reaches it, and leaves it, by
        // refcount.
        let Some(source) = self.addresses.source(from) else {
            return; // unknown sender: dropped
        };
        if let (Endpoint::Peer(peer), Some(detector)) = (source, &mut self.detector) {
            detector.observe(peer, &payload);
        }
        self.feed(ctx, MachineInput::new(source, payload));
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, timer: TimerId) {
        let Some(detector) = self.detector.as_mut().filter(|_| timer == TIMER_DETECTOR) else {
            return;
        };
        let (probes, suspicions) = detector.round(ctx.now(), self.machine.as_ref());
        for probe in probes {
            self.route(ctx, probe);
        }
        for (suspect, input) in suspicions {
            ctx.trace(&format!("suspect {suspect}"));
            self.feed(ctx, MachineInput::from_env(input));
        }
        self.arm_detector(ctx);
    }

    fn name(&self) -> String {
        format!("host({})", self.machine.name())
    }
}

/// The value of generated `Put` number `seq`: `size` filler bytes, the
/// leading ones overwritten by the sequence number.
pub(crate) fn put_value(seq: u64, size: usize) -> Vec<u8> {
    let mut value = vec![0xa5u8; size];
    value
        .iter_mut()
        .zip(seq.to_le_bytes())
        .for_each(|(v, b)| *v = b);
    value
}

/// Writes [`put_value`]`(seq, size)` as one length-prefixed field, without
/// building it.
pub(crate) fn put_value_into(enc: &mut Encoder, seq: u64, size: usize) {
    const FILLER: [u8; 64] = [0xa5; 64];
    enc.put_u32(size as u32);
    let seq = seq.to_le_bytes();
    let head = &seq[..size.min(seq.len())];
    enc.put_raw(head);
    let mut left = size - head.len();
    while left > 0 {
        let n = left.min(FILLER.len());
        enc.put_raw(&FILLER[..n]);
        left -= n;
    }
}

/// Timer used by [`SmrDriver`] to pace its workload.
const TIMER_SEND: TimerId = TimerId(200);

/// Timer closing an open [`SmrDriver`] batch after the configured linger.
const TIMER_FLUSH: TimerId = TimerId(201);

/// The workload driver of the sequenced-KV service: offers `Put` commands
/// through the configured arrival process and admission gate, batches them
/// per the workload's batching policy, and records the `(origin, seq)`
/// delivery log and the ordering latency of its own commands.
pub struct SmrDriver {
    member: MemberId,
    middleware: ProcessId,
    workload: Workload,
    /// The member's own load; router-submitted commands take their sequence
    /// numbers from the same stream.
    load: LoadGen,
    /// The open batch: encoded commands with consecutive sequence numbers
    /// starting at `batch_first_seq`.
    batch: Vec<Bytes>,
    batch_first_seq: u64,
    delivery_log: Vec<(MemberId, u64)>,
    last_delivery: Option<SimTime>,
    /// True for a cold-replacement incarnation: announce the rejoin on
    /// start so the fresh machine runs its catch-up protocol.
    rejoin_on_start: bool,
    /// When the last `Recover` was sent, pending its view upcall.
    recover_sent_at: Option<SimTime>,
    /// Observed view installs, as `(global slot, view id)` pairs.
    views: Vec<(u64, u64)>,
    /// Time from the last `Recover` to the view install that re-admitted
    /// this member — the driver-observed recovery time.
    rejoin_latency: Option<SimDuration>,
    /// Router bookkeeping (cluster deployments): what each command the
    /// router asked for is, by the local sequence it was submitted under.
    routed: SeqSlots<RoutedCommand>,
    /// Router sequences already accepted, so a deadline-triggered resubmit
    /// of a command that is still in the ordering pipeline (or already
    /// applied) is not submitted twice.  An ordered set: a shard sees a
    /// sparse slice of the router's sequences.
    routed_seen: BTreeSet<u64>,
}

/// A command a [`SmrDriver`] submitted for the cluster router, answered on
/// its ordered delivery.
#[derive(Debug, Clone, Copy)]
enum RoutedCommand {
    /// A keyed `Put`: its completion echoes the router's sequence number.
    Put(u64),
    /// A frontier read for snapshot request `req`.
    Snap(u64),
}

impl std::fmt::Debug for SmrDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmrDriver")
            .field("member", &self.member)
            .field("sent", &self.sent())
            .field("delivered", &self.delivery_log.len())
            .finish()
    }
}

impl SmrDriver {
    /// Creates a driver for `member`, submitting through `middleware`.
    pub fn new(member: MemberId, middleware: ProcessId, workload: Workload) -> Self {
        Self {
            member,
            middleware,
            load: LoadGen::new(&workload, u64::from(member.0)),
            workload,
            batch: Vec::new(),
            batch_first_seq: 0,
            delivery_log: Vec::new(),
            last_delivery: None,
            rejoin_on_start: false,
            recover_sent_at: None,
            views: Vec::new(),
            rejoin_latency: None,
            routed: SeqSlots::default(),
            routed_seen: BTreeSet::new(),
        }
    }

    /// Marks this driver as a cold replacement: on start it sends
    /// [`SmrClientMsg::Recover`] so the fresh machine fetches the state it
    /// never had and announces its rejoin to the sequencer.
    #[must_use]
    pub fn rejoining(mut self) -> Self {
        self.rejoin_on_start = true;
        self
    }

    /// The `(origin, seq)` pairs delivered so far, in delivery order.
    pub fn delivery_log(&self) -> &[(MemberId, u64)] {
        &self.delivery_log
    }

    /// Commands submitted so far.
    pub fn sent(&self) -> u64 {
        self.load.issued()
    }

    /// Ordering latencies of this member's own commands.
    pub fn latencies(&self) -> &LatencyRecorder {
        self.load.latencies()
    }

    /// This driver's load generator.
    pub fn load(&self) -> &LoadGen {
        &self.load
    }

    /// Time of the last delivery received, if any.
    pub fn last_delivery(&self) -> Option<SimTime> {
        self.last_delivery
    }

    /// The view installs this driver observed, as `(global slot, view id)`
    /// pairs in delivery order.
    pub fn views(&self) -> &[(u64, u64)] {
        &self.views
    }

    /// Time from this driver's last `Recover` to the view install that
    /// re-admitted its member — `None` until a rejoin completed.
    pub fn rejoin_latency(&self) -> Option<SimDuration> {
        self.rejoin_latency
    }

    /// One tick of the arrival process: buffer the command if it was
    /// admitted, and re-arm the arrival timer.
    fn next_arrival(&mut self, ctx: &mut dyn Context) {
        let (admitted, rearm) = self.load.on_arrival(ctx.now());
        if let Some(request) = admitted {
            self.enqueue(ctx, request);
        }
        if let Some(gap) = rearm {
            ctx.set_timer(gap, TIMER_SEND);
        }
    }

    /// Builds the `Put` of one admitted request and buffers it.
    fn enqueue(&mut self, ctx: &mut dyn Context, request: Admitted) {
        let seq = request.seq;
        let command = fs_smr::command::KvCommand::Put {
            key: format!("m{}-{}", self.member.0, seq),
            value: put_value(seq, self.workload.payload_size),
        };
        self.push_command(ctx, seq, command.to_wire());
    }

    /// Buffers one already-sequenced command into the open batch, flushing
    /// when the batch is full (a fresh batch arms the linger timer instead).
    /// Shared by locally generated load and router-submitted commands.
    fn push_command(&mut self, ctx: &mut dyn Context, seq: u64, command: Bytes) {
        if self.batch.is_empty() {
            self.batch_first_seq = seq;
        }
        self.batch.push(command);
        if self.batch.len() as u32 >= self.workload.batch_max {
            ctx.cancel_timer(TIMER_FLUSH);
            self.flush(ctx);
        } else if self.batch.len() == 1 {
            ctx.set_timer(self.workload.batch_linger, TIMER_FLUSH);
        }
    }

    /// Handles one message from the cluster router: a keyed command to
    /// submit on this shard, or a frontier read for a multi-shard snapshot.
    /// Malformed frames are dropped, like any other unparseable input.
    fn on_router_msg(&mut self, ctx: &mut dyn Context, payload: &[u8]) {
        match ClusterFrame::read(payload) {
            Some(ClusterFrame::Submit {
                router_seq,
                key,
                value,
            }) => {
                if !self.routed_seen.insert(router_seq) {
                    // A router retry of a command this incarnation already
                    // accepted: the original is still in the pipeline (its
                    // completion echo will go out when it orders), so a
                    // second submission would only double-apply.
                    return;
                }
                let seq = self.load.reserve_seq();
                self.routed.insert(seq, RoutedCommand::Put(router_seq));
                let command = fs_smr::command::KvCommand::put_wire(key, value);
                self.push_command(ctx, seq, command);
            }
            Some(ClusterFrame::SnapRead { req }) => {
                let seq = self.load.reserve_seq();
                self.routed.insert(seq, RoutedCommand::Snap(req));
                self.push_command(ctx, seq, fs_smr::command::KvCommand::Frontier.to_wire());
            }
            _ => {}
        }
    }

    /// Submits the open batch as one client frame (one ordering round).
    fn flush(&mut self, ctx: &mut dyn Context) {
        if self.batch.is_empty() {
            return;
        }
        let next = Vec::with_capacity(self.batch.capacity());
        let frame = SmrClientMsg::Batch {
            first_seq: self.batch_first_seq,
            commands: std::mem::replace(&mut self.batch, next),
        };
        ctx.send(self.middleware, frame.to_wire().into());
    }

    /// Accounts one applied command from a delivery upcall.
    fn deliver_entry(&mut self, ctx: &mut dyn Context, now: SimTime, entry: &SmrDeliverEntry) {
        self.delivery_log.push((entry.origin, entry.seq));
        if entry.origin != self.member {
            return;
        }
        if let Some(router) = self.workload.router {
            match self.routed.remove(entry.seq) {
                Some(RoutedCommand::Put(router_seq)) => {
                    ctx.send(router, ClusterMsg::Done { router_seq }.to_wire().into());
                    return;
                }
                Some(RoutedCommand::Snap(req)) => {
                    if let Ok(fs_smr::command::KvResponse::Frontier {
                        applied,
                        keys,
                        digest,
                    }) = fs_smr::command::KvResponse::from_wire(&entry.response)
                    {
                        ctx.send(
                            router,
                            ClusterMsg::SnapResp {
                                req,
                                applied,
                                keys,
                                digest,
                            }
                            .to_wire()
                            .into(),
                        );
                    }
                    return;
                }
                None => {}
            }
        }
        if let Some(request) = self
            .load
            .complete(entry.seq, now)
            .and_then(|done| done.refill)
        {
            // The completion hands its slot to a blocked arrival.
            self.enqueue(ctx, request);
        }
    }
}

impl Actor for SmrDriver {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.rejoin_on_start {
            self.recover_sent_at = Some(ctx.now());
            ctx.send(self.middleware, SmrClientMsg::Recover.to_wire().into());
        }
        if self.workload.messages > 0 {
            ctx.set_timer(self.workload.start_delay, TIMER_SEND);
        }
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        // A warm restart: state survives but timers did not, and any
        // deliveries that raced the downtime are gone for good — state
        // transfer rebuilds the machine's log, not the upcall stream.
        // Abandon the in-flight window so the admission gate's slots do not
        // leak (late deliveries of abandoned commands are simply not
        // latency-sampled), re-arm pacing, and kick the machine's catch-up
        // protocol.
        if !self.batch.is_empty() {
            ctx.set_timer(self.workload.batch_linger, TIMER_FLUSH);
        }
        let now = ctx.now();
        for request in self.load.abandon_all(now) {
            self.enqueue(ctx, request);
        }
        // The downtime is not made up for: the pacing plan re-anchors at
        // the recovery instant instead of bursting the missed arrivals.
        if let Some(gap) = self.load.resync(now) {
            ctx.set_timer(gap, TIMER_SEND);
        }
        self.recover_sent_at = Some(now);
        ctx.send(self.middleware, SmrClientMsg::Recover.to_wire().into());
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, timer: TimerId) {
        if timer == TIMER_SEND {
            self.next_arrival(ctx);
        } else if timer == TIMER_FLUSH {
            self.flush(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
        let payload = payload.into_bytes();
        if self.workload.router == Some(from) {
            self.on_router_msg(ctx, &payload);
            return;
        }
        if from != self.middleware {
            return;
        }
        let Ok(upcall) = SmrUpcall::from_wire_shared(&payload) else {
            return;
        };
        let now = ctx.now();
        self.last_delivery = Some(now);
        match upcall {
            SmrUpcall::Batch(batch) => {
                for entry in &batch.entries {
                    self.deliver_entry(ctx, now, entry);
                }
            }
            SmrUpcall::View(install) => {
                self.views.push((install.global, install.view.id));
                // On the rejoining member, its own view install doubles as
                // the catch-up-complete signal (the transition applies only
                // after the whole history before it).
                if install.view.contains(self.member) {
                    if let Some(sent) = self.recover_sent_at.take() {
                        self.rejoin_latency = Some(now.duration_since(sent));
                    }
                }
            }
        }
    }

    fn name(&self) -> String {
        format!("smr-driver-{}", self.member.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_newtop::message::{AppRequest, GcMessage, Upcall};
    use fs_simnet::actor::TestContext;

    #[test]
    fn newtop_spec_exposes_gc_machines_and_suspect_conversion() {
        let spec = NewTopService::new().suspector(SuspectorConfig::disabled());
        assert_eq!(spec.name(), "newtop");
        let group = [MemberId(0), MemberId(1)];
        assert_eq!(spec.machine(MemberId(0), &group).name(), "newtop-gc-0");
        let injected = spec.fail_signal_input(MemberId(1)).expect("suspect input");
        assert_eq!(
            ControlInput::from_wire(&injected).unwrap(),
            ControlInput::Suspect(MemberId(1))
        );
    }

    #[test]
    fn smr_spec_wraps_sequenced_kv() {
        let spec = SmrKvService::new();
        assert_eq!(spec.name(), "smr-kv");
        assert!(spec.fail_signal_input(MemberId(1)).is_none());
        let group = [MemberId(0), MemberId(1)];
        assert_eq!(spec.machine(MemberId(1), &group).name(), "smr-kv-1");
    }

    /// A spec that implements only what it must feeds no input on a
    /// peer's fail-signal.
    #[test]
    fn default_fail_signal_input_is_none() {
        struct EchoService;
        impl ServiceSpec for EchoService {
            fn name(&self) -> &'static str {
                "echo"
            }
            fn machine(&self, _m: MemberId, _g: &[MemberId]) -> Box<dyn DeterministicMachine> {
                Box::new(fs_smr::machine::EchoMachine::new(0))
            }
            fn driver(&self, m: MemberId, mw: ProcessId, w: &Workload) -> Box<dyn Actor> {
                SmrKvService.driver(m, mw, w)
            }
            fn delivery_log_of(&self, _driver: &dyn Actor) -> Option<Vec<(MemberId, u64)>> {
                None
            }
        }
        let service = EchoService;
        assert_eq!(service.name(), "echo");
        assert!(service.fail_signal_input(MemberId(1)).is_none());
        assert_eq!(service.machine(MemberId(0), &[MemberId(0)]).name(), "echo");
    }

    #[test]
    fn delivery_log_inspectors_reject_foreign_actors() {
        let newtop = NewTopService::new();
        let smr = SmrKvService::new();
        let driver = smr.driver(MemberId(0), ProcessId(1), &Workload::quick(1));
        assert!(newtop.delivery_log_of(driver.as_ref()).is_none());
        assert_eq!(smr.delivery_log_of(driver.as_ref()), Some(vec![]));
    }

    #[test]
    fn smr_driver_paces_and_logs() {
        let mut driver = SmrDriver::new(MemberId(1), ProcessId(9), Workload::quick(2));
        let mut ctx = TestContext::new(ProcessId(4));
        driver.on_start(&mut ctx);
        driver.on_timer(&mut ctx, TIMER_SEND);
        driver.on_timer(&mut ctx, TIMER_SEND);
        driver.on_timer(&mut ctx, TIMER_SEND); // exhausted: no extra send
        assert_eq!(driver.sent(), 2);
        assert_eq!(ctx.sent_to(ProcessId(9)).len(), 2);

        // A delivery of its own first command records a latency sample.
        let SmrClientMsg::Batch {
            first_seq,
            commands,
        } = SmrClientMsg::from_frame(&ctx.sent[0].payload).unwrap()
        else {
            panic!("the driver submits commands in batches");
        };
        assert_eq!(
            commands.len(),
            1,
            "an unbatched workload submits batches of one"
        );
        let upcall = SmrUpcall::Batch(fs_smr::sequenced::SmrDeliverBatch {
            first_global: 0,
            entries: vec![SmrDeliverEntry {
                origin: MemberId(1),
                seq: first_seq,
                response: Bytes::from(&b"ok"[..]),
            }],
        });
        driver.on_message(&mut ctx, ProcessId(9), upcall.to_frame());
        assert_eq!(driver.delivery_log(), &[(MemberId(1), 0)]);
        assert_eq!(driver.latencies().len(), 1);
        assert!(driver.last_delivery().is_some());
        // Strangers and malformed payloads are ignored.
        driver.on_message(&mut ctx, ProcessId(5), Frame::from(&b"junk"[..]));
        driver.on_message(&mut ctx, ProcessId(9), Frame::from(&b"junk"[..]));
        assert_eq!(driver.delivery_log().len(), 1);
        assert_eq!(driver.name(), "smr-driver-1");
    }

    /// Member 0's map of a crash-protocol group whose member `m` is hosted
    /// by `hosts[m]`, with the application at `app`.
    fn crash_map(hosts: &[u32], app: u32) -> AddressMap {
        let speakers = hosts.iter().map(|&p| ProcessId(p)).collect();
        AddressMap::new(speakers, 1, MemberId(0), ProcessId(app))
    }

    /// The crash host of NewTOP member 0 among `group`, hosted at process
    /// 20 and serving the application at process 10, with peer `m` hosted
    /// at process `10 + m`.
    fn newtop_host(group: u32, suspector: SuspectorConfig) -> PlainHost {
        let spec = NewTopService::new().suspector(suspector);
        let members: Vec<MemberId> = (0..group).map(MemberId).collect();
        let hosts: Vec<u32> = (0..group)
            .map(|m| if m == 0 { 20 } else { 10 + m })
            .collect();
        PlainHost::new(
            spec.machine(MemberId(0), &members),
            crash_map(&hosts, 10),
            spec.failure_detector(),
        )
    }

    fn gc(host: &PlainHost) -> &GcMachine {
        let any: &dyn Any = host.machine();
        any.downcast_ref().expect("a GC machine")
    }

    fn suspected(host: &PlainHost) -> &BTreeSet<MemberId> {
        host.detector().expect("a detector").suspected()
    }

    #[test]
    fn plain_host_maps_sources_and_routes() {
        let group = vec![MemberId(0), MemberId(1)];
        // Member 0 is the sequencer: a local command is ordered, multicast
        // and applied immediately.
        let mut host = PlainHost::new(
            SmrKvService::new().machine(MemberId(0), &group),
            crash_map(&[0, 3], 2),
            None,
        );
        let mut ctx = TestContext::new(ProcessId(0));
        let request = SmrClientMsg::Batch {
            first_seq: 0,
            commands: vec![fs_smr::command::KvCommand::Put {
                key: "k".into(),
                value: vec![1],
            }
            .to_wire()],
        };
        host.on_message(&mut ctx, ProcessId(2), request.to_frame());
        assert_eq!(ctx.sent_to(ProcessId(3)).len(), 1, "Ordered multicast");
        assert_eq!(ctx.sent_to(ProcessId(2)).len(), 1, "local delivery upcall");
        // Unknown senders are dropped.
        let before = ctx.sent.len();
        host.on_message(&mut ctx, ProcessId(77), Frame::from(&b"x"[..]));
        assert_eq!(ctx.sent.len(), before);
    }

    #[test]
    fn app_request_is_multicast_to_peers() {
        let mut host = newtop_host(3, SuspectorConfig::disabled());
        let mut ctx = TestContext::new(ProcessId(20));
        let request = AppRequest {
            service: ServiceKind::SymmetricTotal,
            payload: b"hi".to_vec().into(),
        };
        host.on_message(&mut ctx, ProcessId(10), request.to_frame());
        // One data message to each of the two peers.
        assert_eq!(ctx.sent_to(ProcessId(11)).len(), 1);
        assert_eq!(ctx.sent_to(ProcessId(12)).len(), 1);
        // CPU was charged for the protocol processing.
        assert!(ctx.cpu > SimDuration::ZERO);
    }

    #[test]
    fn peer_data_produces_acks_and_unknown_senders_are_ignored() {
        let mut host = newtop_host(2, SuspectorConfig::disabled());
        let mut ctx = TestContext::new(ProcessId(20));
        let data = GcMessage::Data {
            origin: MemberId(1),
            seq: 0,
            ts: 1,
            vc: vec![],
            service: ServiceKind::SymmetricTotal,
            payload: b"x".to_vec().into(),
        };
        host.on_message(&mut ctx, ProcessId(11), data.to_frame());
        // The ack goes back to the peer; with both acks in hand the delivery
        // goes up to the app.
        assert_eq!(ctx.sent_to(ProcessId(11)).len(), 1);
        let to_app = ctx.sent_to(ProcessId(10));
        assert_eq!(to_app.len(), 1);
        assert!(matches!(
            Upcall::from_frame(&to_app[0].payload).unwrap(),
            Upcall::Deliver(_)
        ));

        // A message from an unknown process does nothing.
        let before = ctx.sent.len();
        host.on_message(&mut ctx, ProcessId(99), b"junk"[..].into());
        assert_eq!(ctx.sent.len(), before);
    }

    #[test]
    fn suspector_timer_sends_pings_then_suspicions() {
        let mut host = newtop_host(
            2,
            SuspectorConfig::aggressive(SimDuration::from_millis(100)),
        );
        let mut ctx = TestContext::new(ProcessId(20));
        host.on_start(&mut ctx);
        assert_eq!(ctx.timers_set.len(), 1);

        // First round: a ping to the peer.
        host.on_timer(&mut ctx, TIMER_DETECTOR);
        assert_eq!(ctx.sent_to(ProcessId(11)).len(), 1);

        // No pong arrives; past the timeout the peer is suspected and a view
        // change (plus gossip) is produced.
        ctx.advance(SimDuration::from_millis(500));
        host.on_timer(&mut ctx, TIMER_DETECTOR);
        assert!(suspected(&host).contains(&MemberId(1)));
        assert_eq!(gc(&host).view().id, 1);
        // The view change is delivered to the application.
        let view_upcalls = ctx
            .sent_to(ProcessId(10))
            .iter()
            .filter(|o| matches!(Upcall::from_frame(&o.payload), Ok(Upcall::View(_))))
            .count();
        assert_eq!(view_upcalls, 1);
    }

    #[test]
    fn pong_clears_outstanding_ping() {
        let mut host = newtop_host(
            2,
            SuspectorConfig::aggressive(SimDuration::from_millis(100)),
        );
        let mut ctx = TestContext::new(ProcessId(20));
        host.on_start(&mut ctx);
        host.on_timer(&mut ctx, TIMER_DETECTOR);
        // The peer answers with the right nonce (nonce 0 is the first one).
        let pong = GcMessage::Pong {
            from: MemberId(1),
            nonce: 0,
        };
        host.on_message(&mut ctx, ProcessId(11), pong.to_frame());
        ctx.advance(SimDuration::from_millis(500));
        host.on_timer(&mut ctx, TIMER_DETECTOR);
        assert!(suspected(&host).is_empty());
        assert_eq!(gc(&host).view().id, 0);
    }

    /// Member 1 answers member 2's ping in member 2's name: the pong counts
    /// for member 1, the process that sent it, so it clears nothing and
    /// member 2's silence is still noticed.
    #[test]
    fn a_pong_counts_for_the_member_that_sent_it() {
        let mut host = newtop_host(
            3,
            SuspectorConfig::aggressive(SimDuration::from_millis(100)),
        );
        let mut ctx = TestContext::new(ProcessId(20));
        host.on_start(&mut ctx);
        // Nonce 0 pings member 1, nonce 1 member 2.
        host.on_timer(&mut ctx, TIMER_DETECTOR);
        let spoofed = GcMessage::Pong {
            from: MemberId(2),
            nonce: 1,
        };
        host.on_message(&mut ctx, ProcessId(11), spoofed.to_frame());
        ctx.advance(SimDuration::from_millis(500));
        host.on_timer(&mut ctx, TIMER_DETECTOR);
        assert!(suspected(&host).contains(&MemberId(2)));
    }

    #[test]
    fn disabled_suspector_sets_no_timer() {
        let mut host = newtop_host(2, SuspectorConfig::disabled());
        assert!(host.detector().is_none());
        let mut ctx = TestContext::new(ProcessId(20));
        host.on_start(&mut ctx);
        host.on_recover(&mut ctx);
        assert!(ctx.timers_set.is_empty());
        assert_eq!(host.name(), "host(newtop-gc-0)");
    }
}
