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
//! Faults enter as schedules, as on the threaded runtime: a pre-faulted
//! [`Topology`] ([`Simulation::with_topology`]), a [`LinkSchedule`]
//! ([`Simulation::apply_link_schedule`]) and a [`LifecycleSchedule`]
//! ([`Simulation::apply_lifecycle_schedule`]), each entry executing as an
//! ordinary deterministic event.  A lifecycle event is
//! [`crate::lifecycle`]'s `Process::apply`, the one transition both hosts
//! share; a handler runs through its `Call::run`.
//!
//! Hot-path layout: actors live in a dense slab (`Vec<ActorSlot>`) addressed
//! by a small integer handle; the `ProcessId → slot` mapping is consulted
//! when an event is *enqueued* (and at the public inspection APIs), so
//! dispatching an event is a direct vector index, not a tree walk.  Per-pair
//! FIFO delivery floors are likewise slab-indexed.
//!
//! Counters live in one [`NetStats`] cell per node.  A threaded node thread
//! counts into its own `NetStats` with the same calls (the same field
//! increments and `drop_*` helpers), so both hosts attribute alike: sends,
//! bytes, unknown-destination drops at send time and link drops to the
//! sender's node; deliveries, down-drops, handler runs, timer firings and
//! lifecycle events to the node hosting the process.  One more cell holds
//! what no node owns: injected frames (here, those to an unknown process)
//! and executed link-fault events.
//! [`Simulation::net_cells`] lists the cells; [`Simulation::stats`] sums
//! them.

use std::any::Any;

use fs_common::id::{NodeId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};
use fs_common::Frame;

use crate::actor::{Actor, Context, Outgoing, TimerId};
use crate::lifecycle::{Call, LifecycleEvent, LifecycleSchedule, Process, ProcessFate};
use crate::link::{LinkEvent, LinkSchedule, Topology};
use crate::node::{NodeConfig, NodeState};
use crate::sched::{EventQueue, ScheduledEvent, SchedulerKind};
use crate::trace::{NetStats, TraceEvent, TraceLog};

/// Sentinel slot index: the destination was unknown when the event was
/// enqueued (externally injected traffic) and is resolved at dispatch.
const UNRESOLVED: u32 = u32::MAX;

/// Process identifiers index a dense table, so they stay below this bound
/// (the largest deployment id is a shard base plus `PID_STRIDE`, 1 024).
const MAX_PROCESS_ID: u32 = 1 << 20;

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
    /// A firing of an armed timer; it runs only while the process's armed
    /// entry for `timer` still holds this event's `seq`.
    Timer {
        slot: u32,
        timer: TimerId,
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
    process: Process,
    /// Dense index into the simulation's node table.
    node: u32,
    /// Per-destination-slot FIFO floor: the latest scheduled delivery time
    /// towards that slot.  Deliveries between a pair never overtake each
    /// other, modelling the FIFO TCP/IIOP connections the original
    /// middleware runs over.  Indexed by destination slot, grown on demand.
    fifo_floor: Vec<SimTime>,
}

/// The execution context handed to actors by the simulator.
struct SimContext {
    now: SimTime,
    me: ProcessId,
    cpu: SimDuration,
    outgoing: Vec<Outgoing>,
    timers_set: Vec<(SimDuration, TimerId)>,
    timers_cancelled: Vec<TimerId>,
    labels: Vec<String>,
}

impl Context for SimContext {
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
    /// Node slab, addressed by `NodeId` (handed out sequentially from 0).
    nodes: Vec<NodeState>,
    topology: Topology,
    /// Scheduled link faults, addressed by `EventKind::LinkFault::index`.
    link_events: Vec<LinkEvent>,
    /// Scheduled lifecycle events, addressed by `EventKind::Lifecycle::index`;
    /// each is taken when it executes.
    lifecycle: Vec<Option<LifecycleEvent>>,
    /// The stream of link-model jitter and loss draws.
    rng: DetRng,
    /// The counter cell no node owns: injected frames to an unknown process
    /// and executed link-fault events.
    unowned: NetStats,
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
    /// (calendar queue) scheduler.  Faults already applied to `topology` are
    /// in force from the start.
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
            nodes: Vec::new(),
            topology,
            link_events: Vec::new(),
            lifecycle: Vec::new(),
            rng: DetRng::new(seed),
            unowned: NetStats::default(),
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
        match self.actor_index.get(id.0 as usize) {
            Some(&slot) if slot != UNRESOLVED => Some(slot as usize),
            _ => None,
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
    /// Panics if the identifier is already in use or not below 2^20, or the
    /// node is unknown.
    pub fn spawn_with(&mut self, id: ProcessId, node: NodeId, actor: Box<dyn Actor>) {
        assert!((node.0 as usize) < self.nodes.len(), "unknown node {node}");
        assert!(
            id.0 < MAX_PROCESS_ID,
            "process id {id} is not below the simulator's bound of 2^20"
        );
        assert!(self.slot_of(id).is_none(), "process id {id} already in use");
        self.next_process = self.next_process.max(id.0 + 1);
        let slot = self.actors.len() as u32;
        if self.actor_index.len() <= id.0 as usize {
            self.actor_index.resize(id.0 as usize + 1, UNRESOLVED);
        }
        self.actor_index[id.0 as usize] = slot;
        self.actors.push(ActorSlot {
            process: Process::new(id, actor),
            node: node.0,
            fifo_floor: Vec::new(),
        });
        self.enqueue(self.clock, EventKind::Start { slot });
    }

    /// Queues `kind` at `at` under the next sequence number, and returns it.
    fn enqueue(&mut self, at: SimTime, kind: EventKind) -> u64 {
        self.seq += 1;
        let seq = self.seq;
        self.queue.push(QueuedEvent { at, seq, kind });
        seq
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
        // Destination resolution is deferred to dispatch: an actor spawned
        // between injection and delivery must still receive the message.
        let kind = EventKind::Deliver {
            to,
            to_slot: UNRESOLVED,
            from,
            payload: payload.into(),
        };
        self.enqueue(at.max(self.clock), kind);
    }

    /// Injects a message for delivery as soon as possible.
    pub fn inject_now(&mut self, from: ProcessId, to: ProcessId, payload: impl Into<Frame>) {
        self.inject_at(self.clock, from, to, payload);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The aggregate network statistics so far: the sum of
    /// [`Simulation::net_cells`] — the simulator counterpart of
    /// [`crate::threaded::ThreadedRuntime::net_stats`].
    pub fn stats(&self) -> NetStats {
        self.net_cells().iter().sum()
    }

    /// Every counter cell, with the threaded runtime's contract (see
    /// [`crate::threaded::ThreadedRuntime::net_cells`]): one per node, in
    /// creation order, then the cell no node owns (injected frames to an
    /// unknown process, link-fault events).
    pub fn net_cells(&self) -> Vec<NetStats> {
        let nodes = self.nodes.iter().map(NodeState::stats);
        nodes.chain([&self.unowned]).cloned().collect()
    }

    /// Schedules every event of `schedule`, in time order (each clamped to
    /// now).  A fault executes as an ordinary deterministic event: runs are
    /// reproducible and the trace records the exact moment it took effect.
    pub fn apply_link_schedule(&mut self, schedule: &LinkSchedule) {
        for event in schedule.in_order() {
            let (at, index) = (event.at.max(self.clock), self.link_events.len() as u32);
            self.link_events.push(event);
            self.enqueue(at, EventKind::LinkFault { index });
        }
    }

    /// Schedules every event of `schedule`, in time order (each clamped to
    /// now) — the lifecycle counterpart of
    /// [`Simulation::apply_link_schedule`].  Consumes the schedule because
    /// replacement events carry their fresh actors.  A crashed process
    /// drops its deliveries (counted in [`NetStats::dropped_down`]) and
    /// loses its armed timers until a recover or replace; each event is
    /// recorded in the trace.
    pub fn apply_lifecycle_schedule(&mut self, schedule: LifecycleSchedule) {
        for event in schedule.in_order() {
            let (at, index) = (event.at.max(self.clock), self.lifecycle.len() as u32);
            self.lifecycle.push(Some(event));
            self.enqueue(at, EventKind::Lifecycle { index });
        }
    }

    /// Whether `process` is currently up (false between a scheduled crash
    /// and the matching recover/replace).  `None` if never spawned.
    pub fn is_up(&self, process: ProcessId) -> Option<bool> {
        self.slot_of(process).map(|s| self.actors[s].process.up())
    }

    /// Read access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The node hosting `process`, if it exists.
    pub fn node_of(&self, process: ProcessId) -> Option<NodeId> {
        self.slot_of(process).map(|s| NodeId(self.actors[s].node))
    }

    /// Read access to a node's runtime state (thread pool, counter cell).
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
            let any: &dyn Any = self.actors[s].process.actor.as_ref();
            any.downcast_ref::<T>()
        })
    }

    /// The actor registered as `process` as a trait object, for callers (such
    /// as the scenario harness) that defer the concrete downcast to a
    /// service-specific inspector.
    pub fn actor_dyn(&self, process: ProcessId) -> Option<&dyn Actor> {
        self.slot_of(process)
            .map(|s| self.actors[s].process.actor.as_ref())
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
                self.run_handler(event.at, slot as usize, Call::Start);
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
                            self.unowned.drop_unknown_dest();
                            return;
                        }
                    }
                };
                if !self.actors[slot].process.up() {
                    self.stats_of(slot).drop_down();
                    return;
                }
                self.run_handler(event.at, slot, Call::Message(from, payload));
            }
            EventKind::Timer { slot, timer } => {
                let slot = slot as usize;
                if self.actors[slot].process.armed.fires(timer, event.seq) {
                    self.run_handler(event.at, slot, Call::Timer(timer));
                }
            }
            EventKind::LinkFault { index } => {
                let link_event = &self.link_events[index as usize];
                self.topology
                    .apply_fault(&link_event.scope, &link_event.fault);
                self.unowned.link_faults += 1;
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

    /// The counter cell of the node hosting slot `slot`.
    fn stats_of(&mut self, slot: usize) -> &mut NetStats {
        self.nodes[self.actors[slot].node as usize].stats_mut()
    }

    fn run_lifecycle(&mut self, at: SimTime, index: usize) {
        let Some(LifecycleEvent { process, fate, .. }) = self.lifecycle[index].take() else {
            return;
        };
        let Some(slot) = self.slot_of(process) else {
            return;
        };
        self.stats_of(slot).lifecycle_events += 1;
        if let Some(trace) = &mut self.trace {
            let description = match fate {
                ProcessFate::Crash => "crash",
                ProcessFate::Recover => "recover",
                ProcessFate::Replace(_) => "replace",
            };
            trace.push(TraceEvent::Lifecycle {
                at,
                process,
                description: description.to_string(),
            });
        }
        if let Some(call) = self.actors[slot].process.apply(fate) {
            self.run_handler(at, slot, call);
        }
    }

    fn run_handler(&mut self, arrival: SimTime, slot_idx: usize, call: Call) {
        let slot = &mut self.actors[slot_idx];
        let process = slot.process.id;
        let node_idx = slot.node;
        let node = &mut self.nodes[node_idx as usize];

        // Queue for a pool thread.
        let (thread_idx, start) = node.admit(arrival);

        // Marshalling cost applies to message payloads only.
        let (marshal, delivered) = match &call {
            Call::Message(from, payload) => {
                node.stats_mut().messages_delivered += 1;
                let size = payload.len();
                (node.marshal_cost(size), Some((*from, size)))
            }
            Call::Timer(_) => {
                node.stats_mut().timers_fired += 1;
                (SimDuration::ZERO, None)
            }
            _ => (SimDuration::ZERO, None),
        };

        let mut ctx = SimContext {
            now: start,
            me: process,
            cpu: SimDuration::ZERO,
            outgoing: std::mem::take(&mut self.scratch.outgoing),
            timers_set: std::mem::take(&mut self.scratch.timers_set),
            timers_cancelled: std::mem::take(&mut self.scratch.timers_cancelled),
            labels: std::mem::take(&mut self.scratch.labels),
        };
        call.run(slot.process.actor.as_mut(), &mut ctx);

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
        let stats = node.stats_mut();
        stats.messages_sent += outgoing.len() as u64;
        stats.bytes_sent += outgoing.iter().map(|o| o.payload.len() as u64).sum::<u64>();

        if let Some(trace) = &mut self.trace {
            if let Some((from, size)) = delivered {
                trace.push(TraceEvent::Deliver {
                    at: start,
                    from,
                    to: process,
                    size,
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

        // Timer cancellations first, then (re)arms: each arm's token is the
        // sequence number of the firing it queues.
        for timer in timers_cancelled.drain(..) {
            self.actors[slot_idx].process.armed.cancel(timer);
        }
        for (delay, timer) in timers_set.drain(..) {
            let slot = slot_idx as u32;
            let token = self.enqueue(end + delay, EventKind::Timer { slot, timer });
            self.actors[slot_idx].process.armed.arm(timer, token);
        }

        // Outgoing messages leave the node when the handler's service
        // completes and then traverse the link to the destination node.
        for Outgoing { to, payload } in outgoing.drain(..) {
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEvent::Send {
                    at: end,
                    from: process,
                    to,
                    size: payload.len(),
                });
            }
            let Some(dest_slot) = self.slot_of(to) else {
                self.nodes[node_idx as usize]
                    .stats_mut()
                    .drop_unknown_dest();
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
                    let kind = EventKind::Deliver {
                        to,
                        to_slot: dest_slot as u32,
                        from: process,
                        payload,
                    };
                    self.enqueue(arrival, kind);
                }
                None => {
                    self.nodes[node_idx as usize].stats_mut().drop_link();
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

    fn ideal_topology() -> Topology {
        let mut topo = Topology::new(LinkModel::SyncLan {
            base: SimDuration::from_micros(100),
            bandwidth_bps: 0,
            jitter_max: SimDuration::ZERO,
        });
        topo.set_loopback(LinkModel::Loopback {
            cost: SimDuration::from_micros(10),
        });
        topo
    }

    fn ideal_sim() -> Simulation {
        Simulation::with_topology(1, ideal_topology())
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
        // One start hook and two messages.
        assert_eq!(node.stats().events_processed, 3);
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
        let mut topology = ideal_topology();
        topology.sever(NodeId(0), NodeId(1));
        let mut sim = Simulation::with_topology(1, topology);
        let n0 = sim.add_node(NodeConfig::ideal());
        let n1 = sim.add_node(NodeConfig::ideal());
        let echo = sim.spawn(n0, Box::new(Echo::new()));
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
        let schedule = LinkSchedule::new()
            .then(SimTime::from_millis(25), scope.clone(), LinkFault::Sever)
            .then(SimTime::from_millis(45), scope, LinkFault::Heal);
        sim.apply_link_schedule(&schedule);
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
        sim.apply_lifecycle_schedule(
            LifecycleSchedule::new()
                .crash_at(SimTime::from_millis(25), target)
                .recover_at(SimTime::from_millis(65), target),
        );
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
        // While down between 35 and 200 ms nothing fires; on_recover re-arms.
        sim.apply_lifecycle_schedule(
            LifecycleSchedule::new()
                .crash_at(SimTime::from_millis(35), target)
                .recover_at(SimTime::from_millis(200), target),
        );
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
        sim.apply_lifecycle_schedule(
            LifecycleSchedule::new()
                .crash_at(SimTime::from_millis(25), target)
                .replace_at(SimTime::from_millis(55), target, Box::new(Echo::new())),
        );
        sim.run_until(SimTime::from_secs(1));
        let e = sim.actor::<Echo>(target).unwrap();
        // Messages 1-2 hit the old incarnation (state gone), 3-5 dropped
        // while down, 6-8 hit the replacement.
        assert_eq!(e.received.len(), 3, "replacement starts from empty state");
        assert_eq!(sim.stats().dropped_down, 3);
        assert_eq!(sim.is_up(target), Some(true));
    }

    #[test]
    fn counters_land_on_the_node_that_owns_them() {
        use crate::link::{LinkFault, LinkScope};

        let mut sim = ideal_sim();
        sim.enable_trace();
        let n0 = sim.add_node(NodeConfig::ideal());
        let n1 = sim.add_node(NodeConfig::ideal());
        let echo = sim.spawn(n0, Box::new(Echo::new()));
        sim.spawn(
            n1,
            Box::new(Pacer {
                dest: echo,
                interval: SimDuration::from_millis(10),
                count: 10,
                sent: 0,
                replies: 0,
            }),
        );
        // An external sender: the echo's reply to it has nowhere to go.
        sim.inject_at(SimTime::from_millis(5), ProcessId(900), echo, vec![1, 2]);
        // A frame to a process nobody hosts.
        sim.inject_at(
            SimTime::from_millis(5),
            ProcessId(900),
            ProcessId(901),
            vec![3],
        );
        // Messages 3 and 4 cross the cut; 6 and 7 find the echo down.
        let scope = LinkScope::Pair { a: n0, b: n1 };
        sim.apply_link_schedule(
            &LinkSchedule::new()
                .then(SimTime::from_millis(25), scope.clone(), LinkFault::Sever)
                .then(SimTime::from_millis(45), scope, LinkFault::Heal),
        );
        sim.apply_lifecycle_schedule(
            LifecycleSchedule::new()
                .crash_at(SimTime::from_millis(55), echo)
                .recover_at(SimTime::from_millis(75), echo),
        );
        sim.run_until(SimTime::from_secs(1));

        let [echo_node, pacer_node, unowned] = <[NetStats; 3]>::try_from(sim.net_cells()).unwrap();
        // Sender side: sends, bytes, send-time unknown destinations, link drops.
        assert_eq!(echo_node.messages_sent, 7, "six replies and one to nowhere");
        assert_eq!(echo_node.bytes_sent, 6 + 2);
        assert_eq!(echo_node.dropped_unknown_dest, 1);
        assert_eq!(pacer_node.messages_sent, 10);
        assert_eq!(pacer_node.bytes_sent, 10);
        assert_eq!(pacer_node.dropped_link, 2);
        // Host side: deliveries, down-drops, handler runs, timers, lifecycle.
        assert_eq!(echo_node.messages_delivered, 7);
        assert_eq!(echo_node.dropped_down, 2);
        assert_eq!(echo_node.lifecycle_events, 2);
        assert_eq!(
            echo_node.events_processed,
            1 + 7 + 1,
            "start, deliveries, recover"
        );
        assert_eq!(pacer_node.messages_delivered, 6);
        assert_eq!(pacer_node.timers_fired, 11);
        assert_eq!(pacer_node.events_processed, 1 + 11 + 6);
        assert_eq!(echo_node.timers_fired + pacer_node.link_faults, 0);
        // What no node owns: the frame to nobody and the link-fault events.
        assert_eq!(unowned, sim.unowned);
        assert_eq!(unowned.dropped_unknown_dest, 1);
        assert_eq!(unowned.link_faults, 2);
        assert_eq!(unowned.messages_sent + unowned.events_processed, 0);

        // The cells fold, field for field, into the aggregate ...
        let mut folded = unowned.clone();
        folded.merge(&echo_node);
        folded.merge(&pacer_node);
        let stats = sim.stats();
        assert_eq!(folded, stats);
        // ... which agrees with the trace.
        let events = sim.trace().unwrap().events();
        let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
        assert_eq!(
            stats.messages_sent,
            count(|e| matches!(e, TraceEvent::Send { .. }))
        );
        assert_eq!(
            stats.messages_delivered,
            count(|e| matches!(e, TraceEvent::Deliver { .. }))
        );
        assert_eq!(stats.messages_dropped, 1 + 2 + 2 + 1);
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
