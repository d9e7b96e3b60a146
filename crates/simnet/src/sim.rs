//! The discrete-event simulator.
//!
//! [`Simulation`] hosts a set of [`Actor`]s placed on simulated nodes
//! connected by a [`Topology`].  Message deliveries and timer firings are
//! processed in global time order; each handled event occupies a thread of
//! the destination node's pool for its service time (dispatch overhead +
//! marshalling + CPU explicitly charged by the handler), so contention and
//! queueing delays emerge naturally — this is what reproduces the shapes of
//! the paper's Figures 6–8.
//!
//! Determinism: given the same seed, actor set and injected workload, a run
//! produces exactly the same event sequence, timestamps and statistics —
//! regardless of the [`SchedulerKind`] backing the future event set (the
//! calendar queue by default, the legacy binary heap as a differential
//! oracle).
//!
//! Hot-path layout: actors live in a dense slab (`Vec<ActorSlot>`) addressed
//! by a small integer handle; the `ProcessId → slot` mapping is consulted
//! when an event is *enqueued* (and at the public inspection APIs), so
//! dispatching an event is a direct vector index, not a tree walk.  Per-pair
//! FIFO delivery floors and per-process counters are likewise slab-indexed.

use std::any::Any;
use std::collections::BTreeMap;

use fs_common::id::{NodeId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};
use fs_common::Frame;

use crate::actor::{Actor, Context, Outgoing, TimerId};
use crate::lifecycle::replacement_rng;
use crate::link::{LinkEvent, LinkFault, LinkSchedule, LinkScope, Topology};
use crate::node::{NodeConfig, NodeState};
use crate::sched::{EventQueue, ScheduledEvent, SchedulerKind};
use crate::trace::{NetStats, ProcessCount, ProcessCounters, TraceEvent, TraceLog};

/// Sentinel slot index: the destination was unknown when the event was
/// enqueued (externally injected traffic) and is resolved at dispatch.
const UNRESOLVED: u32 = u32::MAX;

/// Process identifiers below this bound index a dense lookup table; larger
/// (arbitrarily sparse) identifiers fall back to an ordered map so that
/// `spawn_with` keeps accepting any id without huge allocations.
const DENSE_ID_LIMIT: u32 = 1 << 20;

#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    Start {
        slot: u32,
    },
    Deliver {
        to: ProcessId,
        /// Slab slot of `to`, or [`UNRESOLVED`] for injected messages whose
        /// destination did not exist at enqueue time.
        to_slot: u32,
        from: ProcessId,
        payload: Frame,
    },
    Timer {
        slot: u32,
        timer: TimerId,
        generation: u64,
    },
    /// A scheduled link fault takes effect; the payload lives in the
    /// simulation's `link_events` table (faults carry probabilities, which
    /// have no `Eq`, so the queue stores only the index).
    LinkFault {
        index: u32,
    },
    /// A scheduled process lifecycle event takes effect; the payload lives
    /// in the simulation's `lifecycle` table (replacements carry a fresh
    /// `Box<dyn Actor>`, which has no `Clone`/`Eq`, so the queue stores only
    /// the index).
    Lifecycle {
        index: u32,
    },
}

/// The action a scheduled lifecycle event performs on its process.
enum LifecycleAction {
    /// Take the process down: subsequent deliveries are dropped and its
    /// armed timers are lost, as in a real process crash.
    Down,
    /// Bring the process back up with its in-memory state intact (a warm
    /// restart); [`Actor::on_recover`] runs so it can re-arm timers and
    /// resynchronise.
    Up,
    /// Replace the process with a fresh actor under the same identity (a
    /// cold replacement); [`Actor::on_start`] runs on the new incarnation.
    /// The box is `take`n when the event executes.
    Replace(Option<Box<dyn Actor>>),
}

/// One entry of the simulation's lifecycle side table.
struct LifecycleEvent {
    process: ProcessId,
    action: LifecycleAction,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct QueuedEvent {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl ScheduledEvent for QueuedEvent {
    fn at(&self) -> SimTime {
        self.at
    }
}

struct ActorSlot {
    id: ProcessId,
    actor: Box<dyn Actor>,
    /// Dense index into the simulation's node table.
    node: u32,
    rng: DetRng,
    /// False between a scheduled crash and the matching recover/replace:
    /// deliveries are dropped (and counted) and timers suppressed while down.
    up: bool,
    timer_generation: BTreeMap<TimerId, u64>,
    /// Per-destination-slot FIFO floor: the latest scheduled delivery time
    /// towards that slot.  Deliveries between a pair never overtake each
    /// other, modelling the FIFO TCP/IIOP connections the original
    /// middleware runs over.  Indexed by destination slot, grown on demand.
    fifo_floor: Vec<SimTime>,
    /// Send/receive counters for this process.
    counters: ProcessCount,
}

/// The execution context handed to actors by the simulator.
struct SimContext<'a> {
    now: SimTime,
    me: ProcessId,
    rng: &'a mut DetRng,
    cpu: SimDuration,
    outgoing: Vec<Outgoing>,
    timers_set: Vec<(SimDuration, TimerId)>,
    timers_cancelled: Vec<TimerId>,
    labels: Vec<String>,
}

impl Context for SimContext<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn me(&self) -> ProcessId {
        self.me
    }
    fn send(&mut self, to: ProcessId, payload: Frame) {
        self.outgoing.push(Outgoing { to, payload });
    }
    fn set_timer(&mut self, delay: SimDuration, timer: TimerId) {
        self.timers_set.push((delay, timer));
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers_cancelled.push(timer);
    }
    fn charge_cpu(&mut self, amount: SimDuration) {
        self.cpu += amount;
    }
    fn rng(&mut self) -> &mut DetRng {
        self.rng
    }
    fn trace(&mut self, label: &str) {
        self.labels.push(label.to_string());
    }
}

/// A deterministic discrete-event simulation of nodes, links and actors.
pub struct Simulation {
    clock: SimTime,
    queue: EventQueue<QueuedEvent>,
    seq: u64,
    /// The actor slab, addressed by slot index.
    actors: Vec<ActorSlot>,
    /// Dense `ProcessId → slot` table ([`UNRESOLVED`] marks free ids);
    /// consulted at enqueue/registration time only.
    actor_index: Vec<u32>,
    /// Fallback mapping for sparse process ids ≥ [`DENSE_ID_LIMIT`].
    sparse_index: BTreeMap<ProcessId, u32>,
    /// Node slab, addressed by `NodeId` (handed out sequentially from 0).
    nodes: Vec<NodeState>,
    topology: Topology,
    /// Scheduled link faults, addressed by `EventKind::LinkFault::index`.
    link_events: Vec<LinkEvent>,
    /// Scheduled lifecycle events, addressed by `EventKind::Lifecycle::index`.
    lifecycle: Vec<LifecycleEvent>,
    rng: DetRng,
    stats: NetStats,
    trace: Option<TraceLog>,
    next_node: u32,
    next_process: u32,
    /// Scratch buffers reused across events so a dispatched handler does not
    /// allocate fresh effect vectors (capacity is retained between events).
    scratch: ScratchBuffers,
}

#[derive(Default)]
struct ScratchBuffers {
    outgoing: Vec<Outgoing>,
    timers_set: Vec<(SimDuration, TimerId)>,
    timers_cancelled: Vec<TimerId>,
    labels: Vec<String>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("clock", &self.clock)
            .field("actors", &self.actors.len())
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .field("scheduler", &self.queue.kind())
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation with the default topology (all nodes on a
    /// 100 Mb/s LAN) and the given random seed.
    pub fn new(seed: u64) -> Self {
        Self::with_topology(seed, Topology::default())
    }

    /// Creates an empty simulation with an explicit topology and the default
    /// (calendar queue) scheduler.
    pub fn with_topology(seed: u64, topology: Topology) -> Self {
        Self::with_scheduler(seed, topology, SchedulerKind::default())
    }

    /// Creates an empty simulation with an explicit topology and scheduler.
    ///
    /// The scheduler choice never changes simulation results — the legacy
    /// heap exists so differential tests can pin that down.
    pub fn with_scheduler(seed: u64, topology: Topology, scheduler: SchedulerKind) -> Self {
        Self {
            clock: SimTime::ZERO,
            queue: EventQueue::new(scheduler),
            seq: 0,
            actors: Vec::new(),
            actor_index: Vec::new(),
            sparse_index: BTreeMap::new(),
            nodes: Vec::new(),
            topology,
            link_events: Vec::new(),
            lifecycle: Vec::new(),
            rng: DetRng::new(seed),
            stats: NetStats::default(),
            trace: None,
            next_node: 0,
            next_process: 0,
            scratch: ScratchBuffers::default(),
        }
    }

    /// The scheduler backing this simulation's future event set.
    pub fn scheduler(&self) -> SchedulerKind {
        self.queue.kind()
    }

    /// Enables event tracing (off by default).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(TraceLog::new());
        }
    }

    /// Returns the trace log, if tracing was enabled.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Adds a node with the given configuration and returns its identifier.
    /// Node identifiers are handed out sequentially starting at 0.
    pub fn add_node(&mut self, config: NodeConfig) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.nodes.push(NodeState::new(config));
        id
    }

    /// Returns the identifier the next call to [`Simulation::spawn`] will use.
    pub fn next_process_id(&self) -> ProcessId {
        ProcessId(self.next_process)
    }

    /// The slab slot registered for `id`, if any.
    fn slot_of(&self, id: ProcessId) -> Option<usize> {
        if id.0 < DENSE_ID_LIMIT {
            match self.actor_index.get(id.0 as usize) {
                Some(&slot) if slot != UNRESOLVED => Some(slot as usize),
                _ => None,
            }
        } else {
            self.sparse_index.get(&id).map(|&slot| slot as usize)
        }
    }

    /// Places `actor` on `node` and returns its process identifier.
    /// Process identifiers are handed out sequentially starting at 0.
    ///
    /// # Panics
    ///
    /// Panics if `node` has not been added.
    pub fn spawn(&mut self, node: NodeId, actor: Box<dyn Actor>) -> ProcessId {
        let id = ProcessId(self.next_process);
        self.next_process += 1;
        self.spawn_with(id, node, actor);
        id
    }

    /// Places `actor` on `node` under an explicit process identifier chosen
    /// by the caller (useful when a deployment layout pre-computes ids).
    ///
    /// # Panics
    ///
    /// Panics if the identifier is already in use or the node is unknown.
    pub fn spawn_with(&mut self, id: ProcessId, node: NodeId, actor: Box<dyn Actor>) {
        assert!((node.0 as usize) < self.nodes.len(), "unknown node {node}");
        assert!(self.slot_of(id).is_none(), "process id {id} already in use");
        self.next_process = self.next_process.max(id.0 + 1);
        let rng = self.rng.derive(0x5eed_0000 + u64::from(id.0));
        let slot = self.actors.len() as u32;
        if id.0 < DENSE_ID_LIMIT {
            if self.actor_index.len() <= id.0 as usize {
                self.actor_index.resize(id.0 as usize + 1, UNRESOLVED);
            }
            self.actor_index[id.0 as usize] = slot;
        } else {
            self.sparse_index.insert(id, slot);
        }
        self.actors.push(ActorSlot {
            id,
            actor,
            node: node.0,
            rng,
            up: true,
            timer_generation: BTreeMap::new(),
            fifo_floor: Vec::new(),
            counters: ProcessCount::default(),
        });
        let event = QueuedEvent {
            at: self.clock,
            seq: self.next_seq(),
            kind: EventKind::Start { slot },
        };
        self.queue.push(event);
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Injects a message from an external source (e.g. a workload generator
    /// standing in for a client outside the simulated system) for delivery to
    /// `to` at absolute time `at`.
    ///
    /// The message bypasses the link model: it appears at the destination
    /// node at exactly `at` and then queues for a thread like any other
    /// arrival.
    pub fn inject_at(
        &mut self,
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        payload: impl Into<Frame>,
    ) {
        let at = at.max(self.clock);
        // Destination resolution is deferred to dispatch: an actor spawned
        // between injection and delivery must still receive the message.
        let event = QueuedEvent {
            at,
            seq: self.next_seq(),
            kind: EventKind::Deliver {
                to,
                to_slot: UNRESOLVED,
                from,
                payload: payload.into(),
            },
        };
        self.queue.push(event);
    }

    /// Injects a message for delivery as soon as possible.
    pub fn inject_now(&mut self, from: ProcessId, to: ProcessId, payload: impl Into<Frame>) {
        self.inject_at(self.clock, from, to, payload);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The aggregate network statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Per-process send/receive counters, assembled from the slab-resident
    /// counters the hot path maintains.
    pub fn counters(&self) -> ProcessCounters {
        let mut counters = ProcessCounters::new();
        for slot in &self.actors {
            if slot.counters != ProcessCount::default() {
                counters.insert(slot.id, slot.counters);
            }
        }
        counters
    }

    /// Mutable access to the topology.
    ///
    /// Prefer [`Simulation::schedule_link_fault`] /
    /// [`Simulation::apply_link_schedule`] for mid-run interventions: a
    /// scheduled fault executes as an ordinary deterministic event at an
    /// exact simulated time and is recorded in the trace, whereas a direct
    /// mutation takes effect "between" events and leaves no record.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Schedules `fault` to take effect on `scope` at absolute simulated
    /// time `at` (clamped to now).  The fault executes as an ordinary
    /// deterministic event: runs are reproducible and the trace records the
    /// exact moment it took effect.
    pub fn schedule_link_fault(&mut self, at: SimTime, scope: LinkScope, fault: LinkFault) {
        let index = self.link_events.len() as u32;
        self.link_events.push(LinkEvent { at, scope, fault });
        let event = QueuedEvent {
            at: at.max(self.clock),
            seq: self.next_seq(),
            kind: EventKind::LinkFault { index },
        };
        self.queue.push(event);
    }

    /// Schedules every event of `schedule`, in time order.
    pub fn apply_link_schedule(&mut self, schedule: &LinkSchedule) {
        for event in schedule.in_order() {
            self.schedule_link_fault(event.at, event.scope, event.fault);
        }
    }

    fn schedule_lifecycle(&mut self, at: SimTime, process: ProcessId, action: LifecycleAction) {
        let index = self.lifecycle.len() as u32;
        self.lifecycle.push(LifecycleEvent { process, action });
        let event = QueuedEvent {
            at: at.max(self.clock),
            seq: self.next_seq(),
            kind: EventKind::Lifecycle { index },
        };
        self.queue.push(event);
    }

    /// Schedules `process` to crash at absolute simulated time `at` (clamped
    /// to now): from that instant deliveries to it are dropped (counted in
    /// [`NetStats::dropped_down`]), its armed timers are lost, and its
    /// handlers stop running until a matching [`Simulation::schedule_recover`]
    /// or [`Simulation::schedule_replace`].  Like a scheduled link fault,
    /// the crash executes as an ordinary deterministic event and is recorded
    /// in the trace.
    pub fn schedule_crash(&mut self, at: SimTime, process: ProcessId) {
        self.schedule_lifecycle(at, process, LifecycleAction::Down);
    }

    /// Schedules `process` to come back up at `at` with its in-memory state
    /// intact (a warm restart).  [`Actor::on_recover`] runs on the
    /// transition; everything sent to the process while it was down is gone.
    pub fn schedule_recover(&mut self, at: SimTime, process: ProcessId) {
        self.schedule_lifecycle(at, process, LifecycleAction::Up);
    }

    /// Schedules a cold replacement of `process` at `at`: the fresh `actor`
    /// takes over the same process identifier with none of the old
    /// incarnation's state, and its [`Actor::on_start`] runs.  The
    /// replacement draws a fresh deterministic RNG stream.
    pub fn schedule_replace(&mut self, at: SimTime, process: ProcessId, actor: Box<dyn Actor>) {
        self.schedule_lifecycle(at, process, LifecycleAction::Replace(Some(actor)));
    }

    /// Whether `process` is currently up (false between a scheduled crash
    /// and the matching recover/replace).  `None` if never spawned.
    pub fn is_up(&self, process: ProcessId) -> Option<bool> {
        self.slot_of(process).map(|s| self.actors[s].up)
    }

    /// Schedules every event of `schedule`, in time order — the lifecycle
    /// counterpart of [`Simulation::apply_link_schedule`].  Consumes the
    /// schedule because replacement events carry their fresh actors.
    pub fn apply_lifecycle_schedule(&mut self, schedule: crate::lifecycle::LifecycleSchedule) {
        for event in schedule.in_order() {
            match event.fate {
                crate::lifecycle::ProcessFate::Crash => {
                    self.schedule_crash(event.at, event.process)
                }
                crate::lifecycle::ProcessFate::Recover => {
                    self.schedule_recover(event.at, event.process)
                }
                crate::lifecycle::ProcessFate::Replace(actor) => {
                    self.schedule_replace(event.at, event.process, actor)
                }
            }
        }
    }

    /// Read access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The node hosting `process`, if it exists.
    pub fn node_of(&self, process: ProcessId) -> Option<NodeId> {
        self.slot_of(process).map(|s| NodeId(self.actors[s].node))
    }

    /// Read access to a node's runtime state (thread pool, counters).
    pub fn node_state(&self, node: NodeId) -> Option<&NodeState> {
        self.nodes.get(node.0 as usize)
    }

    /// Number of nodes added to the simulation.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of actors spawned in the simulation.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Downcasts the actor registered as `process` to a concrete type for
    /// inspection in tests and experiment harnesses.
    pub fn actor<T: Actor>(&self, process: ProcessId) -> Option<&T> {
        self.slot_of(process).and_then(|s| {
            let any: &dyn Any = self.actors[s].actor.as_ref();
            any.downcast_ref::<T>()
        })
    }

    /// The actor registered as `process` as a trait object, for callers (such
    /// as the scenario harness) that defer the concrete downcast to a
    /// service-specific inspector.
    pub fn actor_dyn(&self, process: ProcessId) -> Option<&dyn Actor> {
        self.slot_of(process).map(|s| self.actors[s].actor.as_ref())
    }

    /// Number of events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Runs until the event queue is exhausted or the simulated clock would
    /// pass `limit`; returns the time of the last processed event.
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        while let Some(at) = self.queue.peek_at() {
            if at > limit {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.dispatch(ev);
        }
        self.clock
    }

    /// Processes a single event, if any is pending; returns its time.
    pub fn step(&mut self) -> Option<SimTime> {
        let ev = self.queue.pop()?;
        let at = ev.at;
        self.dispatch(ev);
        Some(at)
    }

    fn dispatch(&mut self, event: QueuedEvent) {
        self.clock = self.clock.max(event.at);
        match event.kind {
            EventKind::Start { slot } => {
                self.run_handler(event.at, slot as usize, HandlerKind::Start);
            }
            EventKind::Deliver {
                to,
                to_slot,
                from,
                payload,
            } => {
                let slot = if to_slot != UNRESOLVED {
                    to_slot as usize
                } else {
                    match self.slot_of(to) {
                        Some(slot) => slot,
                        None => {
                            self.stats.drop_unknown_dest();
                            return;
                        }
                    }
                };
                if !self.actors[slot].up {
                    self.stats.drop_down();
                    return;
                }
                self.stats.messages_delivered += 1;
                self.actors[slot].counters.received += 1;
                self.run_handler(event.at, slot, HandlerKind::Message { from, payload });
            }
            EventKind::Timer {
                slot,
                timer,
                generation,
            } => {
                let slot = slot as usize;
                let current = self.actors[slot]
                    .timer_generation
                    .get(&timer)
                    .copied()
                    .unwrap_or(0);
                if current != generation {
                    // Stale timer: it was cancelled or re-armed after this
                    // firing was scheduled.
                    return;
                }
                if !self.actors[slot].up {
                    // A down process fires no timers (its generations were
                    // bumped at crash time; this is a defensive second gate).
                    return;
                }
                self.stats.timers_fired += 1;
                self.run_handler(event.at, slot, HandlerKind::Timer { timer });
            }
            EventKind::LinkFault { index } => {
                let link_event = &self.link_events[index as usize];
                self.topology
                    .apply_fault(&link_event.scope, &link_event.fault);
                self.stats.link_faults += 1;
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent::LinkFault {
                        at: event.at,
                        description: link_event.to_string(),
                    });
                }
            }
            EventKind::Lifecycle { index } => {
                self.run_lifecycle(event.at, index as usize);
            }
        }
    }

    fn run_lifecycle(&mut self, at: SimTime, index: usize) {
        let process = self.lifecycle[index].process;
        let Some(slot_idx) = self.slot_of(process) else {
            return;
        };
        self.stats.lifecycle_events += 1;
        // Resolve the action first (taking a replacement's box) so the side
        // table borrow ends before any handler runs.
        enum Resolved {
            Down,
            Up,
            Replace(Option<Box<dyn Actor>>),
        }
        let resolved = match &mut self.lifecycle[index].action {
            LifecycleAction::Down => Resolved::Down,
            LifecycleAction::Up => Resolved::Up,
            LifecycleAction::Replace(actor) => Resolved::Replace(actor.take()),
        };
        let description = match &resolved {
            Resolved::Down => "crash",
            Resolved::Up => "recover",
            Resolved::Replace(_) => "replace",
        };
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::Lifecycle {
                at,
                process,
                description: description.to_string(),
            });
        }
        match resolved {
            Resolved::Down => {
                let slot = &mut self.actors[slot_idx];
                slot.up = false;
                // A crashed process loses its armed timers: bump every
                // generation so pending firings go stale.
                for g in slot.timer_generation.values_mut() {
                    *g += 1;
                }
            }
            Resolved::Up => {
                if !self.actors[slot_idx].up {
                    self.actors[slot_idx].up = true;
                    self.run_handler(at, slot_idx, HandlerKind::Recover);
                }
            }
            Resolved::Replace(actor) => {
                let Some(fresh) = actor else { return };
                let slot = &mut self.actors[slot_idx];
                slot.actor = fresh;
                slot.up = true;
                for g in slot.timer_generation.values_mut() {
                    *g += 1;
                }
                slot.rng = replacement_rng(&self.rng, process, index);
                self.run_handler(at, slot_idx, HandlerKind::Start);
            }
        }
    }

    fn run_handler(&mut self, arrival: SimTime, slot_idx: usize, kind: HandlerKind) {
        let slot = &mut self.actors[slot_idx];
        let process = slot.id;
        let node_idx = slot.node;
        let node = &mut self.nodes[node_idx as usize];

        // Queue for a pool thread.
        let (thread_idx, start) = node.admit(arrival);

        // Marshalling cost applies to message payloads only.
        let marshal = match &kind {
            HandlerKind::Message { payload, .. } => node.marshal_cost(payload.len()),
            _ => SimDuration::ZERO,
        };

        let mut ctx = SimContext {
            now: start,
            me: process,
            rng: &mut slot.rng,
            cpu: SimDuration::ZERO,
            outgoing: std::mem::take(&mut self.scratch.outgoing),
            timers_set: std::mem::take(&mut self.scratch.timers_set),
            timers_cancelled: std::mem::take(&mut self.scratch.timers_cancelled),
            labels: std::mem::take(&mut self.scratch.labels),
        };

        let (from_for_trace, size_for_trace) = match &kind {
            HandlerKind::Message { from, payload } => (Some(*from), payload.len()),
            _ => (None, 0),
        };

        match kind {
            HandlerKind::Start => slot.actor.on_start(&mut ctx),
            HandlerKind::Recover => slot.actor.on_recover(&mut ctx),
            HandlerKind::Message { from, payload } => {
                slot.actor.on_message(&mut ctx, from, payload)
            }
            HandlerKind::Timer { timer } => slot.actor.on_timer(&mut ctx, timer),
        }

        let SimContext {
            cpu,
            mut outgoing,
            mut timers_set,
            mut timers_cancelled,
            mut labels,
            ..
        } = ctx;

        let service = node.dispatch_overhead() + marshal + cpu;
        let end = node.complete(thread_idx, start, service);
        self.stats.events_processed += 1;

        if let Some(trace) = &mut self.trace {
            if let Some(from) = from_for_trace {
                trace.push(TraceEvent::Deliver {
                    at: start,
                    from,
                    to: process,
                    size: size_for_trace,
                })
            }
            for label in &labels {
                trace.push(TraceEvent::Label {
                    at: end,
                    process,
                    label: label.clone(),
                });
            }
        }

        // Timer cancellations and (re)arms: bump generations.
        for timer in timers_cancelled.drain(..) {
            let slot = &mut self.actors[slot_idx];
            *slot.timer_generation.entry(timer).or_insert(0) += 1;
        }
        for (delay, timer) in timers_set.drain(..) {
            let slot = &mut self.actors[slot_idx];
            let generation = {
                let g = slot.timer_generation.entry(timer).or_insert(0);
                *g += 1;
                *g
            };
            let event = QueuedEvent {
                at: end + delay,
                seq: self.next_seq(),
                kind: EventKind::Timer {
                    slot: slot_idx as u32,
                    timer,
                    generation,
                },
            };
            self.queue.push(event);
        }

        // Outgoing messages leave the node when the handler's service
        // completes and then traverse the link to the destination node.
        for Outgoing { to, payload } in outgoing.drain(..) {
            self.stats.messages_sent += 1;
            self.stats.bytes_sent += payload.len() as u64;
            {
                let counters = &mut self.actors[slot_idx].counters;
                counters.sent += 1;
                counters.bytes_sent += payload.len() as u64;
            }
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEvent::Send {
                    at: end,
                    from: process,
                    to,
                    size: payload.len(),
                });
            }
            let Some(dest_slot) = self.slot_of(to) else {
                self.stats.drop_unknown_dest();
                continue;
            };
            let dest_node = NodeId(self.actors[dest_slot].node);
            match self
                .topology
                .delay(NodeId(node_idx), dest_node, payload.len(), &mut self.rng)
            {
                Some(link_delay) => {
                    // Enforce per-pair FIFO delivery (TCP-like channels).
                    let floors = &mut self.actors[slot_idx].fifo_floor;
                    if floors.len() <= dest_slot {
                        floors.resize(dest_slot + 1, SimTime::ZERO);
                    }
                    let arrival = (end + link_delay).max(floors[dest_slot]);
                    floors[dest_slot] = arrival;
                    let event = QueuedEvent {
                        at: arrival,
                        seq: self.next_seq(),
                        kind: EventKind::Deliver {
                            to,
                            to_slot: dest_slot as u32,
                            from: process,
                            payload,
                        },
                    };
                    self.queue.push(event);
                }
                None => {
                    self.stats.drop_link();
                }
            }
        }

        // Hand the (drained) effect vectors back so the next event reuses
        // their capacity instead of allocating.
        labels.clear();
        self.scratch.outgoing = outgoing;
        self.scratch.timers_set = timers_set;
        self.scratch.timers_cancelled = timers_cancelled;
        self.scratch.labels = labels;
    }
}

enum HandlerKind {
    Start,
    Recover,
    Message { from: ProcessId, payload: Frame },
    Timer { timer: TimerId },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::TestContext;
    use crate::link::LinkModel;

    /// Replies to every message with the same payload and counts deliveries.
    struct Echo {
        received: Vec<(ProcessId, Frame)>,
        cpu_per_msg: SimDuration,
    }

    impl Echo {
        fn new() -> Self {
            Self {
                received: Vec::new(),
                cpu_per_msg: SimDuration::ZERO,
            }
        }
        fn with_cpu(cpu: SimDuration) -> Self {
            Self {
                received: Vec::new(),
                cpu_per_msg: cpu,
            }
        }
    }

    impl Actor for Echo {
        fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
            ctx.charge_cpu(self.cpu_per_msg);
            // A refcount clone: the echoed reply shares the received buffer.
            let reply = Frame::clone(&payload);
            self.received.push((from, payload));
            ctx.send(from, reply);
        }
    }

    /// Sends a burst of messages to a destination on start.
    struct Burst {
        dest: ProcessId,
        count: usize,
        replies: usize,
        reply_times: Vec<SimTime>,
    }

    impl Actor for Burst {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            for i in 0..self.count {
                ctx.send(self.dest, vec![i as u8].into());
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {
            self.replies += 1;
            self.reply_times.push(ctx.now());
        }
    }

    /// Arms a timer on start, then counts firings; cancels after the first.
    struct TimerUser {
        fired: usize,
        cancel_after_first: bool,
    }

    impl Actor for TimerUser {
        fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {}
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(SimDuration::from_millis(10), TimerId(1));
            ctx.set_timer(SimDuration::from_millis(20), TimerId(2));
        }
        fn on_timer(&mut self, ctx: &mut dyn Context, timer: TimerId) {
            self.fired += 1;
            if timer == TimerId(1) && self.cancel_after_first {
                ctx.cancel_timer(TimerId(2));
            }
        }
    }

    fn ideal_sim() -> Simulation {
        let mut topo = Topology::new(LinkModel::SyncLan {
            base: SimDuration::from_micros(100),
            bandwidth_bps: 0,
            jitter_max: SimDuration::ZERO,
        });
        topo.set_loopback(LinkModel::Loopback {
            cost: SimDuration::from_micros(10),
        });
        Simulation::with_topology(1, topo)
    }

    #[test]
    fn request_reply_round_trip() {
        let mut sim = ideal_sim();
        let n0 = sim.add_node(NodeConfig::ideal());
        let n1 = sim.add_node(NodeConfig::ideal());
        let echo = sim.spawn(n0, Box::new(Echo::new()));
        let burst = sim.spawn(
            n1,
            Box::new(Burst {
                dest: echo,
                count: 3,
                replies: 0,
                reply_times: vec![],
            }),
        );
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.actor::<Echo>(echo).unwrap().received.len(), 3);
        assert_eq!(sim.actor::<Burst>(burst).unwrap().replies, 3);
        assert_eq!(sim.stats().messages_delivered, 6);
        assert_eq!(sim.stats().messages_dropped, 0);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed: u64| -> (u64, SimTime) {
            let mut sim = Simulation::new(seed);
            let n0 = sim.add_node(NodeConfig::era_2003());
            let n1 = sim.add_node(NodeConfig::era_2003());
            let echo = sim.spawn(n0, Box::new(Echo::with_cpu(SimDuration::from_micros(300))));
            sim.spawn(
                n1,
                Box::new(Burst {
                    dest: echo,
                    count: 20,
                    replies: 0,
                    reply_times: vec![],
                }),
            );
            let end = sim.run_until(SimTime::from_secs(10));
            (sim.stats().messages_delivered, end)
        };
        assert_eq!(run(7), run(7));
        // A different seed still delivers everything, possibly at different times.
        assert_eq!(run(7).0, run(8).0);
    }

    #[test]
    fn cpu_charge_delays_replies() {
        let mut fast = ideal_sim();
        let n0 = fast.add_node(NodeConfig::ideal());
        let n1 = fast.add_node(NodeConfig::ideal());
        let e_fast = fast.spawn(n0, Box::new(Echo::new()));
        let b_fast = fast.spawn(
            n1,
            Box::new(Burst {
                dest: e_fast,
                count: 1,
                replies: 0,
                reply_times: vec![],
            }),
        );
        fast.run_until(SimTime::from_secs(1));

        let mut slow = ideal_sim();
        let n0 = slow.add_node(NodeConfig::ideal());
        let n1 = slow.add_node(NodeConfig::ideal());
        let e_slow = slow.spawn(n0, Box::new(Echo::with_cpu(SimDuration::from_millis(5))));
        let b_slow = slow.spawn(
            n1,
            Box::new(Burst {
                dest: e_slow,
                count: 1,
                replies: 0,
                reply_times: vec![],
            }),
        );
        slow.run_until(SimTime::from_secs(1));

        let t_fast = fast.actor::<Burst>(b_fast).unwrap().reply_times[0];
        let t_slow = slow.actor::<Burst>(b_slow).unwrap().reply_times[0];
        assert!(t_slow >= t_fast + SimDuration::from_millis(5));
    }

    #[test]
    fn single_thread_serialises_two_senders() {
        // Two bursts hitting one single-threaded echo node: total completion
        // time must reflect serialised CPU.
        let mut sim = ideal_sim();
        let n_echo = sim.add_node(NodeConfig::ideal()); // 1 thread
        let n_a = sim.add_node(NodeConfig::ideal());
        let n_b = sim.add_node(NodeConfig::ideal());
        let echo = sim.spawn(
            n_echo,
            Box::new(Echo::with_cpu(SimDuration::from_millis(10))),
        );
        sim.spawn(
            n_a,
            Box::new(Burst {
                dest: echo,
                count: 1,
                replies: 0,
                reply_times: vec![],
            }),
        );
        sim.spawn(
            n_b,
            Box::new(Burst {
                dest: echo,
                count: 1,
                replies: 0,
                reply_times: vec![],
            }),
        );
        let end = sim.run_until(SimTime::from_secs(5));
        // Both messages are handled back to back: at least 20 ms of busy time.
        assert!(end >= SimTime::from_millis(20));
        let node = sim.node_state(n_echo).unwrap();
        assert_eq!(node.handled(), 3); // one start hook + two messages... start hooks exist per actor on the node
        assert!(node.busy_time() >= SimDuration::from_millis(20));
    }

    #[test]
    fn more_threads_increase_parallelism() {
        let total = |threads: usize| -> SimTime {
            let mut sim = ideal_sim();
            let n_echo = sim.add_node(NodeConfig::ideal().with_threads(threads));
            let n_src = sim.add_node(NodeConfig::ideal());
            let echo = sim.spawn(
                n_echo,
                Box::new(Echo::with_cpu(SimDuration::from_millis(10))),
            );
            sim.spawn(
                n_src,
                Box::new(Burst {
                    dest: echo,
                    count: 8,
                    replies: 0,
                    reply_times: vec![],
                }),
            );
            sim.run_until(SimTime::from_secs(10))
        };
        let one = total(1);
        let four = total(4);
        assert!(
            four < one,
            "4 threads ({four}) should finish before 1 thread ({one})"
        );
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut sim = ideal_sim();
        let n = sim.add_node(NodeConfig::ideal());
        let p_both = sim.spawn(
            n,
            Box::new(TimerUser {
                fired: 0,
                cancel_after_first: false,
            }),
        );
        let p_cancel = sim.spawn(
            n,
            Box::new(TimerUser {
                fired: 0,
                cancel_after_first: true,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.actor::<TimerUser>(p_both).unwrap().fired, 2);
        assert_eq!(sim.actor::<TimerUser>(p_cancel).unwrap().fired, 1);
        assert_eq!(sim.stats().timers_fired, 3);
    }

    #[test]
    fn severed_topology_drops_messages() {
        let mut sim = ideal_sim();
        let n0 = sim.add_node(NodeConfig::ideal());
        let n1 = sim.add_node(NodeConfig::ideal());
        let echo = sim.spawn(n0, Box::new(Echo::new()));
        sim.topology_mut().sever(NodeId(0), NodeId(1));
        let burst = sim.spawn(
            n1,
            Box::new(Burst {
                dest: echo,
                count: 5,
                replies: 0,
                reply_times: vec![],
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.actor::<Echo>(echo).unwrap().received.len(), 0);
        assert_eq!(sim.actor::<Burst>(burst).unwrap().replies, 0);
        assert_eq!(sim.stats().messages_dropped, 5);
    }

    /// Sends one message to `dest` every `interval` until `count` are out.
    struct Pacer {
        dest: ProcessId,
        interval: SimDuration,
        count: usize,
        sent: usize,
        replies: usize,
    }

    impl Actor for Pacer {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(self.interval, TimerId(7));
        }
        fn on_timer(&mut self, ctx: &mut dyn Context, _timer: TimerId) {
            if self.sent < self.count {
                self.sent += 1;
                ctx.send(self.dest, vec![self.sent as u8].into());
                ctx.set_timer(self.interval, TimerId(7));
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {
            self.replies += 1;
        }
    }

    #[test]
    fn scheduled_partition_and_heal_execute_at_their_times() {
        use crate::link::{LinkFault, LinkScope};

        let mut sim = ideal_sim();
        sim.enable_trace();
        let n0 = sim.add_node(NodeConfig::ideal());
        let n1 = sim.add_node(NodeConfig::ideal());
        let echo = sim.spawn(n0, Box::new(Echo::new()));
        let pacer = sim.spawn(
            n1,
            Box::new(Pacer {
                dest: echo,
                interval: SimDuration::from_millis(10),
                count: 6,
                sent: 0,
                replies: 0,
            }),
        );
        let scope = LinkScope::Pair { a: n0, b: n1 };
        // Sever while messages 3 and 4 (t = 30, 40 ms) are in flight; heal
        // before message 5 (t = 50 ms) goes out.
        sim.schedule_link_fault(SimTime::from_millis(25), scope.clone(), LinkFault::Sever);
        sim.schedule_link_fault(SimTime::from_millis(45), scope, LinkFault::Heal);
        sim.run_until(SimTime::from_secs(1));

        assert_eq!(sim.stats().link_faults, 2);
        assert_eq!(sim.stats().dropped_link, 2, "two sends crossed the window");
        assert_eq!(sim.stats().dropped_unknown_dest, 0);
        assert_eq!(sim.stats().messages_dropped, 2);
        assert_eq!(sim.actor::<Echo>(echo).unwrap().received.len(), 4);
        assert_eq!(sim.actor::<Pacer>(pacer).unwrap().replies, 4);
        assert!(!sim.topology().has_faults(), "healed at the end");
        let fault_records = sim
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::LinkFault { .. }))
            .count();
        assert_eq!(fault_records, 2, "both fault events recorded in the trace");
    }

    /// Counts deliveries, recoveries and timer firings; arms a periodic
    /// timer so crash-time timer loss is observable.
    struct Lifeline {
        received: usize,
        recovered: usize,
        timer_fired: usize,
    }

    impl Actor for Lifeline {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(SimDuration::from_millis(10), TimerId(1));
        }
        fn on_recover(&mut self, ctx: &mut dyn Context) {
            self.recovered += 1;
            ctx.set_timer(SimDuration::from_millis(10), TimerId(1));
        }
        fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {
            self.received += 1;
        }
        fn on_timer(&mut self, ctx: &mut dyn Context, _timer: TimerId) {
            self.timer_fired += 1;
            ctx.set_timer(SimDuration::from_millis(10), TimerId(1));
        }
    }

    #[test]
    fn crash_then_recover_drops_in_between_and_runs_on_recover() {
        let mut sim = ideal_sim();
        sim.enable_trace();
        let n0 = sim.add_node(NodeConfig::ideal());
        let n1 = sim.add_node(NodeConfig::ideal());
        let target = sim.spawn(
            n0,
            Box::new(Lifeline {
                received: 0,
                recovered: 0,
                timer_fired: 0,
            }),
        );
        sim.spawn(
            n1,
            Box::new(Pacer {
                dest: target,
                interval: SimDuration::from_millis(10),
                count: 10,
                sent: 0,
                replies: 0,
            }),
        );
        // Down between t = 25 ms and t = 65 ms: messages 3..=6 are dropped.
        sim.schedule_crash(SimTime::from_millis(25), target);
        sim.schedule_recover(SimTime::from_millis(65), target);
        sim.run_until(SimTime::from_secs(1));

        let l = sim.actor::<Lifeline>(target).unwrap();
        assert_eq!(l.recovered, 1, "on_recover ran once");
        assert_eq!(l.received, 6, "four deliveries were dropped while down");
        assert_eq!(sim.stats().dropped_down, 4);
        assert_eq!(sim.stats().lifecycle_events, 2);
        assert_eq!(sim.is_up(target), Some(true));
        // The periodic timer kept firing before the crash and after
        // recovery, but never in between.
        let fired_window = sim.stats().timers_fired;
        assert!(fired_window > 0);
        let lifecycle_records = sim
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Lifecycle { .. }))
            .count();
        assert_eq!(lifecycle_records, 2);
    }

    #[test]
    fn crash_loses_armed_timers_until_recover_rearms() {
        let mut sim = ideal_sim();
        let n0 = sim.add_node(NodeConfig::ideal());
        let target = sim.spawn(
            n0,
            Box::new(Lifeline {
                received: 0,
                recovered: 0,
                timer_fired: 0,
            }),
        );
        sim.schedule_crash(SimTime::from_millis(35), target);
        // While down between 35 and 200 ms nothing fires; on_recover re-arms.
        sim.schedule_recover(SimTime::from_millis(200), target);
        sim.run_until(SimTime::from_millis(245));
        let l = sim.actor::<Lifeline>(target).unwrap();
        // Fired at 10, 20, 30 ms; then down; then ~210, 220, 230, 240 ms.
        assert_eq!(l.timer_fired, 7);
    }

    #[test]
    fn replace_installs_a_fresh_actor_under_the_same_id() {
        let mut sim = ideal_sim();
        let n0 = sim.add_node(NodeConfig::ideal());
        let n1 = sim.add_node(NodeConfig::ideal());
        let target = sim.spawn(n0, Box::new(Echo::new()));
        sim.spawn(
            n1,
            Box::new(Pacer {
                dest: target,
                interval: SimDuration::from_millis(10),
                count: 8,
                sent: 0,
                replies: 0,
            }),
        );
        sim.schedule_crash(SimTime::from_millis(25), target);
        sim.schedule_replace(SimTime::from_millis(55), target, Box::new(Echo::new()));
        sim.run_until(SimTime::from_secs(1));
        let e = sim.actor::<Echo>(target).unwrap();
        // Messages 1-2 hit the old incarnation (state gone), 3-5 dropped
        // while down, 6-8 hit the replacement.
        assert_eq!(e.received.len(), 3, "replacement starts from empty state");
        assert_eq!(sim.stats().dropped_down, 3);
        assert_eq!(sim.is_up(target), Some(true));
    }

    #[test]
    fn inject_reaches_actor() {
        let mut sim = ideal_sim();
        let n0 = sim.add_node(NodeConfig::ideal());
        let echo = sim.spawn(n0, Box::new(Echo::new()));
        let external = ProcessId(999);
        sim.inject_at(SimTime::from_millis(5), external, echo, &b"hello"[..]);
        sim.run_until(SimTime::from_secs(1));
        let e = sim.actor::<Echo>(echo).unwrap();
        assert_eq!(e.received, vec![(external, Frame::from(&b"hello"[..]))]);
        // The reply to the external process is dropped (unknown destination).
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn unknown_actor_delivery_is_dropped() {
        let mut sim = ideal_sim();
        let n0 = sim.add_node(NodeConfig::ideal());
        let _echo = sim.spawn(n0, Box::new(Echo::new()));
        sim.inject_now(ProcessId(50), ProcessId(51), vec![1]);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn trace_records_sends_and_delivers() {
        let mut sim = ideal_sim();
        sim.enable_trace();
        let n0 = sim.add_node(NodeConfig::ideal());
        let n1 = sim.add_node(NodeConfig::ideal());
        let echo = sim.spawn(n0, Box::new(Echo::new()));
        sim.spawn(
            n1,
            Box::new(Burst {
                dest: echo,
                count: 1,
                replies: 0,
                reply_times: vec![],
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let trace = sim.trace().unwrap();
        assert!(trace.len() >= 3);
        let sends = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { .. }))
            .count();
        assert_eq!(sends, 2);
    }

    #[test]
    fn spawn_with_explicit_id_and_ordering() {
        let mut sim = ideal_sim();
        let n0 = sim.add_node(NodeConfig::ideal());
        sim.spawn_with(ProcessId(10), n0, Box::new(Echo::new()));
        let next = sim.spawn(n0, Box::new(Echo::new()));
        assert_eq!(next, ProcessId(11));
        assert_eq!(sim.node_of(ProcessId(10)), Some(n0));
        assert_eq!(sim.node_of(ProcessId(99)), None);
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn duplicate_process_id_panics() {
        let mut sim = ideal_sim();
        let n0 = sim.add_node(NodeConfig::ideal());
        sim.spawn_with(ProcessId(1), n0, Box::new(Echo::new()));
        sim.spawn_with(ProcessId(1), n0, Box::new(Echo::new()));
    }

    #[test]
    fn step_processes_one_event() {
        let mut sim = ideal_sim();
        let n0 = sim.add_node(NodeConfig::ideal());
        let echo = sim.spawn(n0, Box::new(Echo::new()));
        sim.inject_now(ProcessId(5), echo, vec![1]);
        assert_eq!(sim.pending_events(), 2); // start hook + injected message
        assert!(sim.step().is_some());
        assert!(sim.step().is_some());
        // Reply to unknown external process is dropped immediately, queue drains.
        while sim.step().is_some() {}
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn test_context_is_compatible_with_actors() {
        // Actors written for the simulator also run against the TestContext.
        let mut echo = Echo::new();
        let mut ctx = TestContext::new(ProcessId(1));
        echo.on_message(&mut ctx, ProcessId(2), vec![9].into());
        assert_eq!(ctx.sent.len(), 1);
    }
}
