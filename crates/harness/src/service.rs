//! The service axis of the scenario matrix: pluggable service
//! specifications, plus the generic actors the crash-protocol deployments
//! are assembled from.
//!
//! A [`ServiceSpec`] bundles everything the scenario builder needs to deploy
//! one kind of deterministic group service under **either** protocol:
//!
//! * the [`FsService`] used by the fail-signal lift (the wrapper path is
//!   fully generic — see [`failsignal::group::build_fs_group`]);
//! * a factory for the service's native crash-tolerant middleware actor;
//! * a factory for the per-member workload driver, and the inspector that
//!   reads its delivery log back out.
//!
//! Two specs ship with the suite: [`NewTopService`] (the paper's GC object)
//! and [`SmrKvService`] (the sequenced replicated key-value store) — the
//! second service that demonstrates the wrapper path contains no
//! NewTOP-specific code.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use failsignal::config::RouteTable;
use failsignal::service::FsService;
use fs_common::codec::Wire;
use fs_common::id::{MemberId, ProcessId};
use fs_common::time::{SimDuration, SimTime};
use fs_common::{Bytes, Frame};
use fs_newtop::app::AppProcess;
use fs_newtop::gc::{GcConfig, GcCosts, GcMachine};
use fs_newtop::message::{ControlInput, ServiceKind};
use fs_newtop::nso::{AddressBook, NsoActor};
use fs_newtop::suspector::SuspectorConfig;
use fs_simnet::actor::{Actor, Context, TimerId};
use fs_simnet::load::{Admitted, LoadGen, LoadStats};
use fs_simnet::trace::LatencyRecorder;
use fs_smr::machine::{DeterministicMachine, Endpoint, MachineInput};
use fs_smr::sequenced::{SequencedKv, SmrClientMsg, SmrDeliverEntry, SmrRequest, SmrUpcall};

use crate::cluster::ClusterMsg;
use crate::workload::Workload;

/// A deployable service: everything the scenario builder needs to assemble
/// it under the crash protocol or lift it to fail-signal form.
pub trait ServiceSpec: Send {
    /// A short human-readable name, used in reports.
    fn name(&self) -> &'static str;

    /// The wrapper-path view of the service (machine factory plus
    /// fail-signal conversion) — see the R1 contract on [`FsService`].
    fn fs_service(&self) -> Box<dyn FsService>;

    /// The service's native crash-tolerant middleware actor for `member`,
    /// given the middleware process of every peer and the local application
    /// process.
    fn crash_middleware(
        &self,
        member: MemberId,
        group: &[MemberId],
        peers: &BTreeMap<MemberId, ProcessId>,
        app: ProcessId,
    ) -> Box<dyn Actor>;

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

    /// Reads the ordering-latency recorder out of a driver actor (`None` if
    /// the actor is of the wrong type).
    fn latencies_of(&self, driver: &dyn Actor) -> Option<LatencyRecorder> {
        let _ = driver;
        None
    }

    /// Reads the open-loop admission counters out of a driver actor (`None`
    /// if the actor is of the wrong type).
    fn load_stats_of(&self, driver: &dyn Actor) -> Option<LoadStats> {
        let _ = driver;
        None
    }
}

impl ServiceSpec for Box<dyn ServiceSpec> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }
    fn fs_service(&self) -> Box<dyn FsService> {
        self.as_ref().fs_service()
    }
    fn crash_middleware(
        &self,
        member: MemberId,
        group: &[MemberId],
        peers: &BTreeMap<MemberId, ProcessId>,
        app: ProcessId,
    ) -> Box<dyn Actor> {
        self.as_ref().crash_middleware(member, group, peers, app)
    }
    fn driver(
        &self,
        member: MemberId,
        middleware: ProcessId,
        workload: &Workload,
    ) -> Box<dyn Actor> {
        self.as_ref().driver(member, middleware, workload)
    }
    fn replacement_driver(
        &self,
        member: MemberId,
        middleware: ProcessId,
        workload: &Workload,
    ) -> Box<dyn Actor> {
        self.as_ref()
            .replacement_driver(member, middleware, workload)
    }
    fn delivery_log_of(&self, driver: &dyn Actor) -> Option<Vec<(MemberId, u64)>> {
        self.as_ref().delivery_log_of(driver)
    }
    fn latencies_of(&self, driver: &dyn Actor) -> Option<LatencyRecorder> {
        self.as_ref().latencies_of(driver)
    }
    fn load_stats_of(&self, driver: &dyn Actor) -> Option<LoadStats> {
        self.as_ref().load_stats_of(driver)
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
    gc_costs: GcCosts,
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
            gc_costs: GcCosts::era_2003(),
            suspector: SuspectorConfig::large_timeouts(),
        }
    }

    /// Returns a copy ordering through a different NewTOP service class.
    #[must_use]
    pub fn service_kind(mut self, service: ServiceKind) -> Self {
        self.service = service;
        self
    }

    /// Returns a copy with a different GC cost model.
    #[must_use]
    pub fn gc_costs(mut self, gc_costs: GcCosts) -> Self {
        self.gc_costs = gc_costs;
        self
    }

    /// Returns a copy with a different crash-mode suspector configuration.
    #[must_use]
    pub fn suspector(mut self, suspector: SuspectorConfig) -> Self {
        self.suspector = suspector;
        self
    }
}

/// The wrapper-path view of NewTOP: GC machines plus the fail-signal →
/// `Suspect` conversion of §3.1.
struct NewTopFs {
    gc_costs: GcCosts,
}

impl FsService for NewTopFs {
    fn name(&self) -> &'static str {
        "newtop"
    }
    fn machine(&self, member: MemberId, group: &[MemberId]) -> Box<dyn DeterministicMachine> {
        Box::new(GcMachine::new(
            GcConfig::new(member, group.to_vec()).with_costs(self.gc_costs),
        ))
    }
    fn fail_signal_input(&self, peer: MemberId) -> Option<Bytes> {
        Some(ControlInput::Suspect(peer).to_wire())
    }
}

impl ServiceSpec for NewTopService {
    fn name(&self) -> &'static str {
        "newtop"
    }

    fn fs_service(&self) -> Box<dyn FsService> {
        Box::new(NewTopFs {
            gc_costs: self.gc_costs,
        })
    }

    fn crash_middleware(
        &self,
        member: MemberId,
        group: &[MemberId],
        peers: &BTreeMap<MemberId, ProcessId>,
        app: ProcessId,
    ) -> Box<dyn Actor> {
        let gc = GcConfig::new(member, group.to_vec()).with_costs(self.gc_costs);
        let addresses = AddressBook::new(app, peers.clone());
        Box::new(NsoActor::new(gc, addresses, self.suspector))
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

    fn latencies_of(&self, driver: &dyn Actor) -> Option<LatencyRecorder> {
        let any: &dyn Any = driver;
        any.downcast_ref::<AppProcess>()
            .map(|app| app.latencies().clone())
    }

    fn load_stats_of(&self, driver: &dyn Actor) -> Option<LoadStats> {
        let any: &dyn Any = driver;
        any.downcast_ref::<AppProcess>().map(|app| app.load_stats())
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

struct SmrKvFs;

impl FsService for SmrKvFs {
    fn name(&self) -> &'static str {
        "smr-kv"
    }
    fn machine(&self, member: MemberId, group: &[MemberId]) -> Box<dyn DeterministicMachine> {
        Box::new(SequencedKv::new(member, group.to_vec()))
    }
}

impl ServiceSpec for SmrKvService {
    fn name(&self) -> &'static str {
        "smr-kv"
    }

    fn fs_service(&self) -> Box<dyn FsService> {
        Box::new(SmrKvFs)
    }

    fn crash_middleware(
        &self,
        member: MemberId,
        group: &[MemberId],
        peers: &BTreeMap<MemberId, ProcessId>,
        app: ProcessId,
    ) -> Box<dyn Actor> {
        let mut sources = BTreeMap::new();
        sources.insert(app, Endpoint::LocalApp);
        let mut routes = RouteTable::new();
        routes.set(Endpoint::LocalApp, vec![app]);
        let mut broadcast = Vec::new();
        for (&peer, &pid) in peers {
            sources.insert(pid, Endpoint::Peer(peer));
            routes.set(Endpoint::Peer(peer), vec![pid]);
            broadcast.push(pid);
        }
        routes.set(Endpoint::Broadcast, broadcast);
        Box::new(PlainHost::new(
            Box::new(SequencedKv::new(member, group.to_vec())),
            sources,
            routes,
        ))
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

    fn latencies_of(&self, driver: &dyn Actor) -> Option<LatencyRecorder> {
        let any: &dyn Any = driver;
        any.downcast_ref::<SmrDriver>()
            .map(|d| d.latencies().clone())
    }

    fn load_stats_of(&self, driver: &dyn Actor) -> Option<LoadStats> {
        let any: &dyn Any = driver;
        any.downcast_ref::<SmrDriver>().map(|d| d.load_stats())
    }
}

// ---------------------------------------------------------------------------
// Generic crash-protocol host + SMR workload driver
// ---------------------------------------------------------------------------

/// A plain, unwrapped adapter hosting a [`DeterministicMachine`] — the
/// crash-protocol counterpart of the fail-signal wrapper pair.  It maps
/// physical senders to logical endpoints on the way in and logical output
/// destinations to physical processes on the way out, charging the machine's
/// processing cost; nothing is signed or compared.
pub struct PlainHost {
    machine: Box<dyn DeterministicMachine>,
    sources: BTreeMap<ProcessId, Endpoint>,
    routes: RouteTable,
}

impl std::fmt::Debug for PlainHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlainHost")
            .field("machine", &self.machine.name())
            .field("sources", &self.sources.len())
            .finish()
    }
}

impl PlainHost {
    /// Hosts `machine`, treating inbound messages per `sources` and routing
    /// outputs per `routes`.
    pub fn new(
        machine: Box<dyn DeterministicMachine>,
        sources: BTreeMap<ProcessId, Endpoint>,
        routes: RouteTable,
    ) -> Self {
        Self {
            machine,
            sources,
            routes,
        }
    }

    /// The hosted machine, for state inspection (the recovery plane's
    /// convergence probes read its delivered log and state digest here).
    pub fn machine(&self) -> &dyn DeterministicMachine {
        self.machine.as_ref()
    }
}

impl Actor for PlainHost {
    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
        let payload = payload.into_bytes();
        let Some(&endpoint) = self.sources.get(&from) else {
            return; // unknown sender: dropped
        };
        let input = MachineInput::new(endpoint, payload);
        ctx.charge_cpu(self.machine.processing_cost(&input));
        for output in self.machine.handle(&input) {
            for &to in self.routes.lookup(output.dest) {
                ctx.send(to, output.bytes.clone().into());
            }
        }
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
    /// Router bookkeeping (cluster deployments): local sequence → the
    /// router's own sequence number, echoed back on ordered delivery.
    routed_of_seq: BTreeMap<u64, u64>,
    /// Router sequences already accepted, so a deadline-triggered resubmit
    /// of a command that is still in the ordering pipeline (or already
    /// applied) is not submitted twice.
    routed_seen: BTreeSet<u64>,
    /// Local sequence → snapshot request id, for in-flight frontier reads
    /// fanned out by the cluster router.
    snap_of_seq: BTreeMap<u64, u64>,
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
            routed_of_seq: BTreeMap::new(),
            routed_seen: BTreeSet::new(),
            snap_of_seq: BTreeMap::new(),
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

    /// Time of the last delivery received, if any.
    pub fn last_delivery(&self) -> Option<SimTime> {
        self.last_delivery
    }

    /// The admission counters of this driver's load generator.
    pub fn load_stats(&self) -> LoadStats {
        self.load.stats()
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
        match ClusterMsg::from_wire(payload) {
            Ok(ClusterMsg::Submit {
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
                self.routed_of_seq.insert(seq, router_seq);
                let command = fs_smr::command::KvCommand::Put { key, value };
                self.push_command(ctx, seq, command.to_wire());
            }
            Ok(ClusterMsg::SnapRead { req }) => {
                let seq = self.load.reserve_seq();
                self.snap_of_seq.insert(seq, req);
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
        let frame = if self.batch.len() == 1 {
            SmrClientMsg::Request(SmrRequest {
                seq: self.batch_first_seq,
                command: self.batch.pop().expect("one buffered command"),
            })
        } else {
            SmrClientMsg::Batch {
                first_seq: self.batch_first_seq,
                commands: std::mem::take(&mut self.batch),
            }
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
            if let Some(router_seq) = self.routed_of_seq.remove(&entry.seq) {
                ctx.send(router, ClusterMsg::Done { router_seq }.to_wire().into());
                return;
            }
            if let Some(req) = self.snap_of_seq.remove(&entry.seq) {
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
        let Ok(upcall) = SmrUpcall::from_wire(&payload) else {
            return;
        };
        let now = ctx.now();
        self.last_delivery = Some(now);
        match upcall {
            SmrUpcall::Deliver(delivery) => {
                let entry = SmrDeliverEntry {
                    origin: delivery.origin,
                    seq: delivery.seq,
                    response: delivery.response,
                };
                self.deliver_entry(ctx, now, &entry);
            }
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
    use fs_simnet::actor::TestContext;

    #[test]
    fn newtop_spec_exposes_gc_machines_and_suspect_conversion() {
        let spec = NewTopService::new().suspector(SuspectorConfig::disabled());
        let fs = spec.fs_service();
        assert_eq!(fs.name(), "newtop");
        let group = [MemberId(0), MemberId(1)];
        assert_eq!(fs.machine(MemberId(0), &group).name(), "newtop-gc-0");
        let injected = fs.fail_signal_input(MemberId(1)).expect("suspect input");
        assert_eq!(
            ControlInput::from_wire(&injected).unwrap(),
            ControlInput::Suspect(MemberId(1))
        );
    }

    #[test]
    fn smr_spec_wraps_sequenced_kv() {
        let spec = SmrKvService::new();
        let fs = spec.fs_service();
        assert_eq!(fs.name(), "smr-kv");
        assert!(fs.fail_signal_input(MemberId(1)).is_none());
        let group = [MemberId(0), MemberId(1)];
        assert_eq!(fs.machine(MemberId(1), &group).name(), "smr-kv-1");
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
        let SmrClientMsg::Request(request) =
            SmrClientMsg::from_frame(&ctx.sent[0].payload).unwrap()
        else {
            panic!("unbatched workloads submit single requests");
        };
        let upcall = SmrUpcall::Deliver(fs_smr::sequenced::SmrDeliver {
            global: 0,
            origin: MemberId(1),
            seq: request.seq,
            response: Bytes::from(&b"ok"[..]),
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

    #[test]
    fn plain_host_maps_sources_and_routes() {
        let group = vec![MemberId(0), MemberId(1)];
        let spec = SmrKvService::new();
        let peers: BTreeMap<MemberId, ProcessId> =
            [(MemberId(1), ProcessId(3))].into_iter().collect();
        // Member 0 is the sequencer: a local command is ordered, multicast
        // and applied immediately.
        let mut host = spec.crash_middleware(MemberId(0), &group, &peers, ProcessId(2));
        let mut ctx = TestContext::new(ProcessId(0));
        let request = SmrClientMsg::Request(SmrRequest {
            seq: 0,
            command: fs_smr::command::KvCommand::Put {
                key: "k".into(),
                value: vec![1],
            }
            .to_wire(),
        });
        host.on_message(&mut ctx, ProcessId(2), request.to_frame());
        assert_eq!(ctx.sent_to(ProcessId(3)).len(), 1, "Ordered multicast");
        assert_eq!(ctx.sent_to(ProcessId(2)).len(), 1, "local delivery upcall");
        // Unknown senders are dropped.
        let before = ctx.sent.len();
        host.on_message(&mut ctx, ProcessId(77), Frame::from(&b"x"[..]));
        assert_eq!(ctx.sent.len(), before);
    }
}
