//! A real, multi-threaded runtime for the same [`Actor`] abstraction.
//!
//! The simulator reproduces the paper's *measurements*; this runtime
//! demonstrates that the very same protocol implementations run concurrently
//! on real threads exchanging messages over channels — the role the Java ORB
//! deployment plays in the original work.
//!
//! Actors are placed on **nodes** ([`ThreadNode`]): one worker thread and one
//! unbounded inbox per node, shared by every actor placed on it (by default
//! each actor gets its own node, preserving the one-thread-per-actor
//! behaviour).  Node threads are the only threads a deployment has.  Sends
//! are buffered for a whole wake-up — the start hooks, the due agenda
//! entries, or a burst of up to `BURST_MAX` envelopes — and flushed at its
//! end as **one channel message per destination node**, whichever hosted
//! actors sent them: one crossbeam send carrying one `(sender, recipient,
//! refcount-clone)` item per delivery, in send order — the threaded analogue
//! of the simulator's encode-once/share-per-recipient delivery.
//!
//! CPU charges reported by handlers are ignored: they model 2003-era costs,
//! and on real threads a handler costs what it costs.
//!
//! ## One agenda per node
//!
//! A node thread has the simulator's skeleton: one time-ordered queue and
//! one handler dispatch.  Everything the node has to do *later* waits in its
//! agenda, a `(due, seq)`-ordered heap of four kinds of entry — an armed
//! timer of a hosted actor, a fault-delayed frame to re-inject into its
//! destination's inbox, a scheduled [`LinkEvent`], a scheduled lifecycle
//! action on a hosted actor.  The thread sleeps on its inbox until the
//! agenda's head is due, runs every due entry in order, and publishes the
//! head for the quiescence probe — so a pending scheduled event holds off
//! quiescence exactly as an armed timer does.  Nothing on this path is
//! shared between node threads:
//!
//! - **Node-owned link planes.**  Both schedules are fixed before
//!   [`ThreadedBuilder::start`], so every node thread gets its own copy of
//!   the fault [`Topology`] and of the link schedule and applies each entry
//!   itself when it falls due.  The verdict for a send is a plain call on
//!   the sender's own topology — no lock, no atomic — and an entry is
//!   applied whole between two handlers, so a verdict can never observe half
//!   of one.  Loss and jitter draws come from a per-sender-node deterministic
//!   RNG stream (derived from the seed and the node index).
//! - **Sender-side delay and FIFO.**  A fault-delayed frame waits in the
//!   *sending* node's agenda, so delayed traffic on one link never
//!   serializes behind another node's.  Per-link FIFO floors are sender-local
//!   state, preserving the simulator's TCP-like in-order contract across
//!   heals.
//! - **Per-node counters.**  A node thread counts into its own plain
//!   [`NetStats`] with the calls the simulator's nodes make (the same field
//!   increments and `drop_*` helpers, attributed as [`crate::sim`]
//!   describes), plus `busy_ns` (wall-clock time inside handlers), and
//!   copies it into its cache-line-padded cell once per wake-up.
//!   [`ThreadedRuntime::net_cells`] lists the published cells, then the
//!   cell no node owns (external injection, link-fault events), and
//!   [`ThreadedRuntime::net_stats`] sums that list.
//!
//! Quiescence is tracked by a per-cell `enqueued`/`processed` balance: an
//! envelope is counted `enqueued` (by its sender) before it is handed to an
//! inbox or parked in the agenda and `processed` (by its receiver) only after
//! its burst's handlers ran, their sends were flushed and the node's counters
//! were published, so "every cell drained" is the exact condition
//! `Σ processed == Σ enqueued`, read processed-before-enqueued so a racing
//! probe can only over-estimate the backlog, never settle early, and a
//! settled deployment's counters are final.
//! [`ThreadedRuntime::run_until_settled`] parks on a condvar that node
//! threads signal when they observe the whole deployment quiescent, instead
//! of sleep-polling.
//!
//! ## The network fault plane
//!
//! The runtime shares the simulator's [`Topology`] fault vocabulary: a
//! topology (and a [`LinkSchedule`] of timed [`crate::link::LinkFault`]s)
//! passed to [`ThreadedBuilder::with_topology`] /
//! [`ThreadedBuilder::with_link_schedule`] gates every cross-node send.
//! Severed and lossy links drop the real crossbeam message; delay faults
//! park it in the sender's agenda, which re-injects it after the configured
//! extra latency.  Node index `i` corresponds to [`NodeId`]`(i)` in the
//! topology, matching the simulator's sequential node numbering, so the same
//! schedule drives both runtimes.  Only the fault overlay applies — base
//! link-model latencies stay simulated-only, since real channel transport
//! already has a cost.  Each scheduled entry is counted once in
//! [`NetStats::link_faults`], in the cell no node owns as on the simulator
//! (every node applies it; node 0 counts it).
//!
//! ## The process lifecycle plane
//!
//! A [`crate::lifecycle::LifecycleSchedule`] passed to
//! [`ThreadedBuilder::with_lifecycle_schedule`] is split by hosting node;
//! each node thread executes its actors' events at their wall-clock offsets
//! from start through [`crate::lifecycle`]'s `Process::apply`, the very
//! transition the simulator runs: a crash takes the process down
//! (deliveries dropped and counted, armed timers lost), a recover brings it
//! back warm (running [`Actor::on_recover`]), a replace installs the
//! scheduled fresh actor cold (running its [`Actor::on_start`]).  A node
//! thread hosts `Process`es and runs every handler through `Call::run`, as
//! the simulator does; what it keeps for itself is the agenda, the inbox
//! and the flush.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use fs_common::id::{NodeId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};
use fs_common::Frame;

use crate::actor::{Actor, Context, TimerId};
use crate::lifecycle::{Armed, Call, LifecycleSchedule, Process, ProcessFate};
use crate::link::{LinkEvent, LinkSchedule, Topology};
use crate::trace::NetStats;

/// What a node thread hands back at shutdown: its actors in registration
/// order.
type HostedActors = Vec<(ProcessId, Box<dyn Actor>)>;

/// How many envelopes one wake-up drains before re-publishing the agenda's
/// head and running due entries again.  Draining greedily amortises the
/// per-wake loop overhead (deadline publication, clock reads) over a whole
/// backlog instead of paying it per message.
const BURST_MAX: usize = 64;

/// The smallest agenda a sweep for dead timer entries looks at.
const SWEEP_MIN: usize = 1024;

/// Locks a mutex, recovering the guard from a poisoned lock: every critical
/// section here is a handful of pointer/counter writes that cannot leave the
/// state torn, so a panicking peer must not cascade.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Nanoseconds from `epoch` to `at`, saturating at both ends.
fn nanos_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch)
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// One send: sender, recipient, frame.
type Item = (ProcessId, ProcessId, Frame);

enum Envelope {
    /// Deliveries to recipients on this node, in send order: what one node
    /// sent this node during one wake-up (or one injected or fault-delayed
    /// frame), the payloads refcount clones of the senders' buffers.
    Batch(Vec<Item>),
    Stop,
}

/// One node's (or the external injector's) counter cell, padded to its own
/// cache lines so one node's publications never contend with another core.
#[repr(align(128))]
#[derive(Default)]
struct StatCell {
    /// Envelopes this cell's owner has handed to an inbox or parked in its
    /// agenda.
    enqueued: AtomicU64,
    /// Envelopes fully processed on this cell's node (handlers + flushes
    /// done).  `Σ processed == Σ enqueued` across all cells means no
    /// envelope is in flight anywhere.
    processed: AtomicU64,
    /// The owner's counters as last published: a node thread copies its own
    /// [`NetStats`] here once per wake-up; the runtime handle counts
    /// injections and the link faults applied at start here directly.
    published: Mutex<NetStats>,
}

impl StatCell {
    fn read(&self) -> NetStats {
        lock_unpoisoned(&self.published).clone()
    }
}

/// Counters and quiescence probes shared by every node thread and the
/// runtime handle.  All mutable state is split into per-node [`StatCell`]s
/// (plus one trailing cell no node owns) so the hot path never writes a
/// shared cache line.
struct Shared {
    /// One cell per node, plus a trailing cell no node owns: external
    /// injection ([`ThreadedRuntime::send`]) and executed link-fault events.
    cells: Vec<StatCell>,
    /// Per node: when the head of its agenda (earliest armed timer, delayed
    /// frame or scheduled link/lifecycle event) falls due, as nanoseconds
    /// since the runtime epoch.  `u64::MAX` means the agenda is empty; `0`
    /// means the node thread is busy (or has not published yet).
    deadlines: Vec<AtomicU64>,
    /// The horizon (nanoseconds since epoch) a settler is currently waiting
    /// on, `0` when nobody is settling.  Node threads going idle probe the
    /// deployment against it and signal `settle_cv` when quiescent.
    watch_horizon: AtomicU64,
    settle_lock: Mutex<()>,
    settle_cv: Condvar,
}

impl Shared {
    fn with_nodes(nodes: usize) -> Self {
        Self {
            cells: (0..=nodes).map(|_| StatCell::default()).collect(),
            deadlines: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            watch_horizon: AtomicU64::new(0),
            settle_lock: Mutex::new(()),
            settle_cv: Condvar::new(),
        }
    }

    /// The trailing cell no node owns.
    fn external(&self) -> &StatCell {
        &self.cells[self.deadlines.len()]
    }

    /// True when no envelope is in flight anywhere: every enqueue was
    /// matched by a completed processing.  Processed sums are read *before*
    /// enqueued sums: an envelope's `enqueued` increment happens-before its
    /// `processed` increment, so any concurrent traffic can only make the
    /// balance read as busy, never as falsely drained.
    fn balance_drained(&self) -> bool {
        let processed: u64 = self
            .cells
            .iter()
            .map(|cell| cell.processed.load(Ordering::SeqCst))
            .sum();
        let enqueued: u64 = self
            .cells
            .iter()
            .map(|cell| cell.enqueued.load(Ordering::SeqCst))
            .sum();
        processed == enqueued
    }

    /// The authoritative quiescence probe: balance first (see
    /// [`Shared::balance_drained`] for the ordering argument), then the
    /// published agenda heads — which cover armed timers and not-yet-executed
    /// scheduled link faults and lifecycle events alike, so frozen statistics
    /// match what the simulator would record.  Deadlines are read *after*
    /// the balance so a node that just drained an envelope is either still
    /// marked busy (`0`) or has already republished what that envelope
    /// armed.
    fn probe(&self, horizon_nanos: u64) -> bool {
        self.balance_drained()
            && self.deadlines.iter().all(|deadline| {
                let at = deadline.load(Ordering::SeqCst);
                at != 0 && at > horizon_nanos
            })
    }

    /// The node-thread-side settle check: cheap bail-outs first (one load
    /// usually suffices under active load), full probe only near quiescence.
    /// A spurious signal just costs the settler one re-probe.
    fn probe_and_signal(&self) {
        let horizon = self.watch_horizon.load(Ordering::Relaxed);
        if horizon == 0 {
            return;
        }
        for deadline in &self.deadlines {
            let at = deadline.load(Ordering::Relaxed);
            if at == 0 || at <= horizon {
                return;
            }
        }
        if self.probe(horizon) {
            let _guard = lock_unpoisoned(&self.settle_lock);
            self.settle_cv.notify_all();
        }
    }
}

/// Configuration of the threaded runtime.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedConfig {
    /// Random seed from which each node's stream of link loss and jitter
    /// draws is derived.
    pub seed: u64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        Self { seed: 1 }
    }
}

/// A node of the threaded runtime: one worker thread and inbox, hosting one
/// or more actors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadNode(usize);

/// Builds a threaded deployment: register actors first, then start.
pub struct ThreadedBuilder {
    config: ThreadedConfig,
    /// Actors per node, in registration order.
    nodes: Vec<Vec<(ProcessId, Box<dyn Actor>)>>,
    next: u32,
    /// The link fault plane: initial topology state (severed/degraded links
    /// apply from the start; base link models are ignored by real channels).
    topology: Topology,
    /// Timed link faults, applied at their wall-clock offsets from start.
    schedule: LinkSchedule,
    /// Timed process lifecycle events (crash/recover/replace), likewise
    /// applied at their wall-clock offsets from start.
    lifecycle: LifecycleSchedule,
}

impl std::fmt::Debug for ThreadedBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedBuilder")
            .field("nodes", &self.nodes.len())
            .field("actors", &self.nodes.iter().map(Vec::len).sum::<usize>())
            .finish()
    }
}

impl Default for ThreadedBuilder {
    fn default() -> Self {
        Self::new(ThreadedConfig::default())
    }
}

impl ThreadedBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(config: ThreadedConfig) -> Self {
        Self {
            config,
            nodes: Vec::new(),
            next: 0,
            topology: Topology::default(),
            schedule: LinkSchedule::new(),
            lifecycle: LifecycleSchedule::new(),
        }
    }

    /// Sets the topology whose fault plane (severed and degraded links)
    /// gates cross-node sends.  Node index `i` of this builder is
    /// [`NodeId`]`(i)` in the topology.  Base link-model latencies are *not*
    /// applied — real channels already have transport costs; only the fault
    /// overlay (sever/loss/delay/throttle) takes effect.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Schedules timed link faults, applied at their [`LinkEvent::at`]
    /// offsets from the runtime's start (1 simulated second = 1 wall-clock
    /// second), mirroring the simulator's deterministic execution of the
    /// same schedule.
    #[must_use]
    pub fn with_link_schedule(mut self, schedule: LinkSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Schedules timed process lifecycle events (crash / recover / replace),
    /// applied by the hosting node's thread at their offsets from the
    /// runtime's start (1 simulated second = 1 wall-clock second), mirroring
    /// the simulator's deterministic execution of the same schedule.
    #[must_use]
    pub fn with_lifecycle_schedule(mut self, lifecycle: LifecycleSchedule) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// Returns the process identifier the next [`ThreadedBuilder::add`] call
    /// will assign.
    pub fn next_process_id(&self) -> ProcessId {
        ProcessId(self.next)
    }

    /// Adds a node (one worker thread + inbox) and returns its handle.
    /// Actors placed on the same node share the thread, and a multicast to
    /// several of them travels as one channel message.
    pub fn add_node(&mut self) -> ThreadNode {
        self.nodes.push(Vec::new());
        ThreadNode(self.nodes.len() - 1)
    }

    /// Registers an actor on its own dedicated node and returns its process
    /// identifier.
    pub fn add(&mut self, actor: Box<dyn Actor>) -> ProcessId {
        let node = self.add_node();
        self.add_on(node, actor)
    }

    /// Registers an actor on an existing node and returns its process
    /// identifier.
    pub fn add_on(&mut self, node: ThreadNode, actor: Box<dyn Actor>) -> ProcessId {
        let id = ProcessId(self.next);
        self.next += 1;
        self.nodes[node.0].push((id, actor));
        id
    }

    /// Registers an actor under an explicit identifier on its own node.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is already registered.
    pub fn add_with(&mut self, id: ProcessId, actor: Box<dyn Actor>) {
        let node = self.add_node();
        self.add_with_on(id, node, actor);
    }

    /// Registers an actor under an explicit identifier on an existing node.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is already registered.
    pub fn add_with_on(&mut self, id: ProcessId, node: ThreadNode, actor: Box<dyn Actor>) {
        assert!(
            self.nodes
                .iter()
                .flatten()
                .all(|(existing, _)| *existing != id),
            "process id {id} already in use"
        );
        self.next = self.next.max(id.0 + 1);
        self.nodes[node.0].push((id, actor));
    }

    /// Starts one thread per node — the only threads of the deployment — and
    /// returns the running runtime.
    ///
    /// Both schedules are static, so each node thread is handed what it will
    /// execute itself: when a fault plane is configured (a topology with
    /// initial faults or a non-empty link schedule), its own copy of the
    /// topology and of the link schedule; and the lifecycle events of the
    /// actors it hosts.  Link faults scheduled at time zero are applied (and
    /// counted) before this returns.
    pub fn start(self) -> ThreadedRuntime {
        let epoch = Instant::now();
        let mut node_of: HashMap<ProcessId, usize> = HashMap::new();
        let mut txs: Vec<Sender<Envelope>> = Vec::new();
        let mut rxs: Vec<Receiver<Envelope>> = Vec::new();
        for (idx, actors) in self.nodes.iter().enumerate() {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
            for (id, _) in actors {
                node_of.insert(*id, idx);
            }
        }
        let txs = Arc::new(txs);
        let node_of = Arc::new(node_of);
        let shared = Arc::new(Shared::with_nodes(self.nodes.len()));

        // The lifecycle plane: each event goes to the node hosting its
        // process (events naming nobody are dropped).
        let mut lifecycle: Vec<Vec<(SimTime, Due)>> =
            self.nodes.iter().map(|_| Vec::new()).collect();
        for event in self.lifecycle.in_order() {
            let Some(&node) = node_of.get(&event.process) else {
                continue;
            };
            let due = Due::Lifecycle(event.process, Box::new(event.fate));
            lifecycle[node].push((event.at, due));
        }

        // The fault plane only materialises when it can actually do
        // something; plain runs keep the zero-overhead send path.  Faults
        // scheduled at time zero are in force before the first send, as on
        // the simulator: applied here, before any thread exists.
        let mut schedule = self.schedule.in_order();
        let mut topology =
            (self.topology.has_faults() || !schedule.is_empty()).then_some(self.topology);
        let due_at_start = schedule
            .iter()
            .take_while(|event| event.at == SimTime::ZERO)
            .count();
        for event in schedule.drain(..due_at_start) {
            if let Some(topology) = &mut topology {
                topology.apply_fault(&event.scope, &event.fault);
            }
        }
        lock_unpoisoned(&shared.external().published).link_faults += due_at_start as u64;

        let mut handles = Vec::new();
        let per_node = self.nodes.into_iter().zip(rxs).zip(lifecycle);
        for (idx, ((actors, rx), lifecycle)) in per_node.enumerate() {
            let env = NodeEnv {
                idx,
                txs: Arc::clone(&txs),
                node_of: Arc::clone(&node_of),
                shared: Arc::clone(&shared),
                epoch,
            };
            let processes = actors
                .into_iter()
                .map(|(id, actor)| Process::new(id, actor))
                .collect();
            let mut node = Node::new(env, processes, topology.clone(), self.config.seed);
            for event in &schedule {
                let fault = Due::LinkFault(Box::new(event.clone()));
                node.agenda.push(node.env.wall(event.at), fault);
            }
            for (at, action) in lifecycle {
                node.agenda.push(node.env.wall(at), action);
            }
            let handle = std::thread::Builder::new()
                .name(format!("simnode-{idx}"))
                .spawn(move || node.run(rx))
                .expect("spawn node thread");
            handles.push(handle);
        }

        ThreadedRuntime {
            txs,
            node_of,
            handles,
            epoch,
            shared,
        }
    }
}

/// A running threaded deployment.
pub struct ThreadedRuntime {
    txs: Arc<Vec<Sender<Envelope>>>,
    node_of: Arc<HashMap<ProcessId, usize>>,
    handles: Vec<JoinHandle<HostedActors>>,
    epoch: Instant,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ThreadedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedRuntime")
            .field("nodes", &self.handles.len())
            .field("actors", &self.node_of.len())
            .finish()
    }
}

impl ThreadedRuntime {
    /// Injects a message into the running system, as if sent by `from`.
    /// External injection is charged to the cell no node owns.
    ///
    /// # Errors
    ///
    /// Returns [`fs_common::Error::UnknownProcess`] when `to` is not a
    /// registered actor, or [`fs_common::Error::Disconnected`] when its
    /// node's thread has already terminated.
    pub fn send(
        &self,
        from: ProcessId,
        to: ProcessId,
        payload: impl Into<Frame>,
    ) -> fs_common::Result<()> {
        let node = *self
            .node_of
            .get(&to)
            .ok_or(fs_common::Error::UnknownProcess(to))?;
        let payload = payload.into();
        let cell = self.shared.external();
        {
            let mut stats = lock_unpoisoned(&cell.published);
            stats.messages_sent += 1;
            stats.bytes_sent += payload.len() as u64;
        }
        cell.enqueued.fetch_add(1, Ordering::SeqCst);
        self.txs[node]
            .send(Envelope::Batch(vec![(from, to, payload)]))
            .map_err(|_| {
                cell.processed.fetch_add(1, Ordering::SeqCst);
                fs_common::Error::Disconnected(to)
            })
    }

    /// The aggregate network statistics so far: sends, deliveries, drops
    /// (split into unknown-destination and link-fault drops), executed
    /// link-fault events and handler busy time — the threaded counterpart of
    /// [`crate::sim::Simulation::stats`]: the sum of
    /// [`ThreadedRuntime::net_cells`].
    pub fn net_stats(&self) -> NetStats {
        self.net_cells().iter().sum()
    }

    /// Every counter cell as last published: one per node, in node order,
    /// then the cell no node owns (external injection, link-fault events).
    pub fn net_cells(&self) -> Vec<NetStats> {
        self.shared.cells.iter().map(StatCell::read).collect()
    }

    /// The number of nodes (worker threads) in this deployment.
    pub fn node_count(&self) -> usize {
        self.shared.deadlines.len()
    }

    /// True when the runtime is quiescent with respect to `horizon`: every
    /// enqueued envelope (inboxes and delayed frames) has been processed, and
    /// no armed timer, scheduled link fault or scheduled lifecycle event is
    /// due before `horizon` — nothing can happen until then.
    ///
    /// A single probe can race an in-progress handler; callers confirm by
    /// sampling [`ThreadedRuntime::handled_count`] across consecutive probes
    /// (see [`ThreadedRuntime::run_until_settled`]).
    pub fn quiescent_before(&self, horizon: SimTime) -> bool {
        self.shared.probe(horizon.as_nanos())
    }

    /// Total handler invocations so far (messages, timers and start hooks),
    /// as published.
    pub fn handled_count(&self) -> u64 {
        self.net_stats().events_processed
    }

    /// Sleeps until the wall clock reaches `horizon`, returning early once
    /// the deployment has settled: nothing in flight and nothing on any
    /// agenda due before the horizon, confirmed over several consecutive
    /// probes.  Parked on a condvar that node threads signal when they
    /// observe the deployment quiescent, so settling is detected within a
    /// couple of milliseconds instead of a fixed polling cadence.  Returns
    /// the reached time.
    pub fn run_until_settled(&self, horizon: SimTime) -> SimTime {
        let horizon_nanos = horizon.as_nanos();
        self.shared
            .watch_horizon
            .store(horizon_nanos, Ordering::SeqCst);
        let mut last_handled = u64::MAX;
        let mut stable_probes = 0u32;
        let mut guard = lock_unpoisoned(&self.shared.settle_lock);
        while self.now() < horizon {
            if self.shared.probe(horizon_nanos) {
                let handled = self.handled_count();
                if handled == last_handled {
                    stable_probes += 1;
                    if stable_probes >= 3 {
                        break;
                    }
                } else {
                    stable_probes = 1;
                    last_handled = handled;
                }
            } else {
                stable_probes = 0;
                last_handled = u64::MAX;
            }
            // Short confirmation naps once quiescent; otherwise wait for a
            // node's settle signal (with a timeout backstop — a missed
            // signal only costs one period).
            let nap = if stable_probes > 0 {
                Duration::from_millis(2)
            } else {
                Duration::from_millis(15)
            };
            let remaining = Duration::from(horizon.duration_since(self.now()));
            let (reacquired, _) = self
                .shared
                .settle_cv
                .wait_timeout(guard, nap.min(remaining))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard = reacquired;
        }
        drop(guard);
        self.shared.watch_horizon.store(0, Ordering::SeqCst);
        self.now()
    }

    /// Wall-clock time since the runtime started, as a [`SimTime`].
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(nanos_since(self.epoch, Instant::now()))
    }

    /// The process identifiers of all registered actors.
    pub fn processes(&self) -> Vec<ProcessId> {
        let mut ids: Vec<ProcessId> = self.node_of.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Stops every node thread and returns the actors for inspection,
    /// indexed by process identifier.
    pub fn shutdown(self) -> HashMap<ProcessId, Box<dyn Actor>> {
        for tx in self.txs.iter() {
            // A stop request may fail if the thread already exited; ignore.
            let _ = tx.send(Envelope::Stop);
        }
        let mut out = HashMap::new();
        for handle in self.handles {
            if let Ok(actors) = handle.join() {
                out.extend(actors);
            }
        }
        out
    }

    /// Convenience: shuts down and downcasts one actor to `T`.
    pub fn shutdown_and_take<T: Actor>(self, id: ProcessId) -> Option<Box<T>> {
        let mut actors = self.shutdown();
        let actor = actors.remove(&id)?;
        let any: Box<dyn std::any::Any> = actor;
        any.downcast::<T>().ok()
    }
}

/// What a node thread has to do later.  Timers are the common kind by far;
/// the payloads of the other three are boxed so that every agenda entry
/// stays as small as a timer's.
enum Due {
    /// A timer armed by the hosted process at index `process`; current only
    /// while that process's armed entry still holds this entry's `seq`.
    Timer { process: usize, timer: TimerId },
    /// A fault-delayed frame to re-inject into the inbox of node `node`.
    Release {
        node: usize,
        envelope: Box<Envelope>,
    },
    /// A scheduled link fault to apply to this node's own topology.
    LinkFault(Box<LinkEvent>),
    /// A scheduled lifecycle event of a hosted process.
    Lifecycle(ProcessId, Box<ProcessFate>),
}

/// One agenda entry.  Ordered by `(due, seq)`, earliest first out of the
/// max-heap: entries due at the same instant run in the order they were
/// pushed, so same-link frames (whose dues the FIFO floor makes
/// non-decreasing) release strictly in send order and same-instant schedule
/// entries keep their schedule order.
struct AgendaEntry {
    due: Instant,
    seq: u64,
    what: Due,
}

impl PartialEq for AgendaEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for AgendaEntry {}
impl PartialOrd for AgendaEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for AgendaEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// A node thread's one time-ordered queue — the counterpart of the
/// simulator's event queue, minus immediate deliveries (those arrive through
/// the inbox).
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<AgendaEntry>,
    seq: u64,
    /// The heap size at which [`Agenda::sweep`] next looks for dead timer
    /// entries (never below `SWEEP_MIN`).
    sweep_at: usize,
}

impl Agenda {
    /// Schedules `what` for `due` and returns the entry's sequence number.
    fn push(&mut self, due: Instant, what: Due) -> u64 {
        self.seq += 1;
        self.heap.push(AgendaEntry {
            due,
            seq: self.seq,
            what,
        });
        self.seq
    }

    fn next_due(&self) -> Option<Instant> {
        self.heap.peek().map(|entry| entry.due)
    }

    /// Pops the head if it is due at or before `now`.
    fn pop_due(&mut self, now: Instant) -> Option<AgendaEntry> {
        if self.next_due()? > now {
            return None;
        }
        self.heap.pop()
    }

    /// Drops the timer entries that can no longer fire (cancelled, re-armed
    /// or lost in a crash) once the heap has reached `sweep_at` and they are
    /// at least half of it; otherwise each would wait out its deadline.  A
    /// dead entry never comes back to life (tokens are never reused), so no
    /// handler runs or stops running because of a sweep.  The next sweep
    /// waits for the heap to double, which keeps the scans amortised O(1)
    /// per entry pushed.
    fn sweep(&mut self, processes: &[Process]) {
        if self.heap.len() < self.sweep_at.max(SWEEP_MIN) {
            return;
        }
        let live = |entry: &AgendaEntry| match entry.what {
            Due::Timer { process, timer } => processes[process].armed.fires(timer, entry.seq),
            _ => true,
        };
        let dead = self.heap.iter().filter(|entry| !live(entry)).count();
        if 2 * dead >= self.heap.len() {
            self.heap.retain(live);
        }
        self.sweep_at = 2 * self.heap.len();
    }
}

struct ThreadContext<'a> {
    me: ProcessId,
    /// Index of `me` among its node's processes (what its timers are filed
    /// under).
    process: usize,
    epoch: Instant,
    /// Sends buffered during the wake-up; flushed at its end as one batch
    /// per destination node.
    outgoing: &'a mut Vec<Item>,
    armed: &'a mut Armed,
    agenda: &'a mut Agenda,
}

impl Context for ThreadContext<'_> {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(nanos_since(self.epoch, Instant::now()))
    }
    fn me(&self) -> ProcessId {
        self.me
    }
    fn send(&mut self, to: ProcessId, payload: Frame) {
        self.outgoing.push((self.me, to, payload));
    }
    fn set_timer(&mut self, delay: SimDuration, timer: TimerId) {
        let process = self.process;
        let due = Instant::now() + Duration::from(delay);
        let seq = self.agenda.push(due, Due::Timer { process, timer });
        self.armed.arm(timer, seq);
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.armed.cancel(timer);
    }
    /// A no-op: handlers on real threads cost what they cost.
    fn charge_cpu(&mut self, _amount: SimDuration) {}
    fn trace(&mut self, _label: &str) {}
}

/// Everything a node thread shares with the rest of the runtime.
struct NodeEnv {
    /// This node's index (= [`NodeId`] in the topology).
    idx: usize,
    txs: Arc<Vec<Sender<Envelope>>>,
    node_of: Arc<HashMap<ProcessId, usize>>,
    shared: Arc<Shared>,
    epoch: Instant,
}

impl NodeEnv {
    /// The wall-clock instant of a schedule offset (1 simulated second = 1
    /// wall-clock second from the epoch).
    fn wall(&self, at: SimTime) -> Instant {
        self.epoch + Duration::from_nanos(at.as_nanos())
    }

    fn cell(&self) -> &StatCell {
        &self.shared.cells[self.idx]
    }
}

/// Per destination node, the sender-side FIFO state of one link: the latest
/// scheduled delivery time and whether the link has ever been fault-delayed.
/// Once a link has carried a delayed message, *all* its subsequent traffic
/// is serialized through the sender's agenda behind the floor, so deliveries
/// between a node pair never overtake each other — the threaded counterpart
/// of the simulator's TCP-like `fifo_floor`, surviving heals.
#[derive(Clone, Copy)]
struct LinkFifo {
    floor: Instant,
    via_delay_line: bool,
}

/// A node thread's whole state.  Only `env` reaches outside the thread.
struct Node {
    env: NodeEnv,
    processes: Vec<Process>,
    local_index: HashMap<ProcessId, usize>,
    agenda: Agenda,
    /// This node's own copy of the fault topology; `None` when no fault
    /// plane is configured.
    topology: Option<Topology>,
    links: Vec<LinkFifo>,
    /// The node's deterministic stream of loss and jitter draws.
    rng: DetRng,
    /// Sends buffered by the handlers of the current wake-up.
    outgoing: Vec<Item>,
    /// Flush scratch: per-destination-node batches, drained every flush
    /// (the outer vector's capacity is retained across flushes).
    batches: Vec<(usize, Vec<Item>)>,
    /// This node's counters, kept as the simulator's `NodeState` keeps
    /// them and published to its [`StatCell`] once per wake-up.
    stats: NetStats,
}

impl Node {
    fn new(env: NodeEnv, processes: Vec<Process>, topology: Option<Topology>, seed: u64) -> Self {
        Self {
            local_index: processes
                .iter()
                .enumerate()
                .map(|(i, p)| (p.id, i))
                .collect(),
            processes,
            agenda: Agenda::default(),
            topology,
            links: vec![
                LinkFifo {
                    floor: env.epoch,
                    via_delay_line: false,
                };
                env.txs.len()
            ],
            rng: DetRng::new(seed ^ 0x11f7_9a7e).derive(env.idx as u64),
            outgoing: Vec::new(),
            batches: Vec::new(),
            stats: NetStats::default(),
            env,
        }
    }

    /// Publishes this node's counters.  Every wake-up calls it before it
    /// adds to `processed`, so a settler that reads the balance drained also
    /// reads final counts.
    fn publish(&self) {
        *lock_unpoisoned(&self.env.cell().published) = self.stats.clone();
    }

    /// Runs one handler of the hosted process at `idx`; what it sends waits
    /// in `outgoing` for the flush that ends the wake-up.
    fn dispatch(&mut self, idx: usize, call: Call) {
        let Process {
            id, actor, armed, ..
        } = &mut self.processes[idx];
        let mut ctx = ThreadContext {
            me: *id,
            process: idx,
            epoch: self.env.epoch,
            outgoing: &mut self.outgoing,
            armed,
            agenda: &mut self.agenda,
        };
        call.run(actor.as_mut(), &mut ctx);
    }

    /// Flushes the sends buffered during one wake-up.  When a fault plane is
    /// configured every cross-node send is judged by this node's own
    /// topology: severed or lossy links drop it, degraded links park it in
    /// the agenda behind the per-link FIFO floor.  The surviving immediate
    /// items are grouped by destination node, in send order, and each node
    /// receives a single [`Envelope::Batch`] whose payloads are refcount
    /// clones of the senders' buffers.  Sends and drops are counted in the
    /// node's own [`NetStats`], published when the wake-up ends.
    fn flush(&mut self) {
        if self.outgoing.is_empty() {
            return;
        }
        let Node {
            env,
            agenda,
            topology,
            links,
            rng,
            outgoing,
            batches,
            stats,
            ..
        } = self;
        let cell = env.cell();
        let mut flush_now: Option<Instant> = None;
        for (from, to, payload) in outgoing.drain(..) {
            stats.messages_sent += 1;
            stats.bytes_sent += payload.len() as u64;
            let Some(&node) = env.node_of.get(&to) else {
                stats.drop_unknown_dest();
                continue;
            };
            // Same-node delivery is never faulted.
            let verdict = match topology {
                Some(topology) if node != env.idx => topology.fault_verdict(
                    NodeId(env.idx as u32),
                    NodeId(node as u32),
                    payload.len(),
                    rng,
                ),
                _ => Some(SimDuration::ZERO),
            };
            let Some(extra) = verdict else {
                stats.drop_link();
                continue;
            };
            let link = &mut links[node];
            if extra.is_zero() && !link.via_delay_line {
                match batches.iter_mut().find(|(n, _)| *n == node) {
                    Some((_, items)) => items.push((from, to, payload)),
                    None => batches.push((node, vec![(from, to, payload)])),
                }
                continue;
            }
            link.via_delay_line = true;
            let now = *flush_now.get_or_insert_with(Instant::now);
            link.floor = link.floor.max(now + Duration::from(extra));
            cell.enqueued.fetch_add(1, Ordering::SeqCst);
            let envelope = Box::new(Envelope::Batch(vec![(from, to, payload)]));
            agenda.push(link.floor, Due::Release { node, envelope });
        }
        for (node, items) in batches.drain(..) {
            cell.enqueued.fetch_add(1, Ordering::SeqCst);
            if env.txs[node].send(Envelope::Batch(items)).is_err() {
                cell.processed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Handles `first` and up to `BURST_MAX - 1` more envelopes already in
    /// the inbox, flushes what their handlers sent, publishes the node's
    /// counters and only then counts the envelopes `processed`, so the
    /// balance never reads drained while a send is still buffered or a
    /// count unpublished.  Returns false when a stop request ends the burst.
    fn burst(&mut self, first: Envelope, rx: &Receiver<Envelope>) -> bool {
        let start = Instant::now();
        let mut envelopes = 0;
        let mut next = Some(first);
        let mut running = true;
        while let Some(envelope) = next.take() {
            let Envelope::Batch(items) = envelope else {
                running = false;
                break;
            };
            for (from, to, payload) in items {
                match self.local_index.get(&to) {
                    None => self.stats.drop_unknown_dest(),
                    Some(&idx) if !self.processes[idx].up() => self.stats.drop_down(),
                    Some(&idx) => {
                        self.dispatch(idx, Call::Message(from, payload));
                        self.stats.messages_delivered += 1;
                        self.stats.events_processed += 1;
                    }
                }
            }
            envelopes += 1;
            if envelopes < BURST_MAX as u64 {
                next = rx.try_recv().ok();
            }
        }
        self.flush();
        self.stats.busy_ns += nanos_since(start, Instant::now());
        self.publish();
        self.count_processed(envelopes);
        running
    }

    /// Counts a burst's `envelopes` processed: its last step, after the
    /// flush and the publication (see [`Node::burst`]; debug builds check).
    #[inline]
    fn count_processed(&self, envelopes: u64) {
        let cell = self.env.cell();
        debug_assert!(self.outgoing.is_empty(), "counted before the flush");
        debug_assert_eq!(*lock_unpoisoned(&cell.published), self.stats);
        cell.processed.fetch_add(envelopes, Ordering::SeqCst);
    }

    /// Executes one scheduled lifecycle event of a hosted process.
    fn lifecycle(&mut self, process: ProcessId, fate: ProcessFate) {
        let Some(&idx) = self.local_index.get(&process) else {
            return;
        };
        self.stats.lifecycle_events += 1;
        if let Some(call) = self.processes[idx].apply(fate) {
            self.dispatch(idx, call);
            self.stats.events_processed += 1;
        }
    }

    /// Runs every agenda entry due at or before `now`, in `(due, seq)`
    /// order, flushes what their handlers sent and publishes the node's
    /// counters.  A scheduled link fault flushes first, so every send is
    /// judged by the topology in force when its handler ran.  Busy time is
    /// charged only when a handler ran.
    fn run_due(&mut self, now: Instant) {
        let handled = self.stats.events_processed;
        let mut ran = false;
        while let Some(entry) = self.agenda.pop_due(now) {
            ran = true;
            match entry.what {
                Due::Timer { process, timer } => {
                    if self.processes[process].armed.fires(timer, entry.seq) {
                        self.dispatch(process, Call::Timer(timer));
                        self.stats.timers_fired += 1;
                        self.stats.events_processed += 1;
                    }
                }
                Due::Release { node, envelope } => {
                    if self.env.txs[node].send(*envelope).is_err() {
                        // The destination is gone (shutdown): cancel the
                        // enqueue so the balance stays exact.
                        self.env.cell().processed.fetch_add(1, Ordering::SeqCst);
                    }
                }
                Due::LinkFault(event) => {
                    self.flush();
                    if let Some(topology) = &mut self.topology {
                        topology.apply_fault(&event.scope, &event.fault);
                    }
                    // Every node applies the entry; node 0 counts it in the
                    // cell no node owns, as the simulator does.
                    if self.env.idx == 0 {
                        lock_unpoisoned(&self.env.shared.external().published).link_faults += 1;
                    }
                }
                Due::Lifecycle(process, fate) => self.lifecycle(process, *fate),
            }
        }
        if !ran {
            return;
        }
        self.flush();
        if self.stats.events_processed != handled {
            self.stats.busy_ns += nanos_since(now, Instant::now());
        }
        self.publish();
    }

    /// The node thread: start hooks, then alternate between the agenda and
    /// the inbox until told to stop.
    fn run(mut self, rx: Receiver<Envelope>) -> HostedActors {
        if !self.processes.is_empty() {
            let start = Instant::now();
            for idx in 0..self.processes.len() {
                self.dispatch(idx, Call::Start);
            }
            self.flush();
            self.stats.events_processed += self.processes.len() as u64;
            self.stats.busy_ns += nanos_since(start, Instant::now());
            self.publish();
        }

        let shared = Arc::clone(&self.env.shared);
        let deadline = &shared.deadlines[self.env.idx];
        loop {
            self.run_due(Instant::now());
            self.agenda.sweep(&self.processes);

            // Publish the agenda's head for the quiescence probe (u64::MAX =
            // nothing pending), signal any settler that might now be done,
            // then wait for traffic or for the head to fall due.
            let wake = self.agenda.next_due();
            let published = wake.map_or(u64::MAX, |due| nanos_since(self.env.epoch, due));
            deadline.store(published, Ordering::SeqCst);
            shared.probe_and_signal();

            let received = match wake {
                // Nothing pending: anything that can happen arrives via the
                // inbox, so block indefinitely instead of waking to poll.
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(due) => rx.recv_timeout(due.saturating_duration_since(Instant::now())),
            };
            let first = match received {
                Ok(first) => first,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            // Mark this node busy *before* processing: a probe must never
            // observe a drained balance alongside a stale idle deadline while
            // a timer armed by this burst awaits publication at the top of
            // the loop.
            deadline.store(0, Ordering::SeqCst);
            if !self.burst(first, &rx) {
                break;
            }
        }
        self.processes
            .into_iter()
            .map(|p| (p.id, p.actor))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkFault, LinkScope};
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counter {
        seen: usize,
        shared: Arc<AtomicUsize>,
    }

    impl Actor for Counter {
        fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {
            self.seen += 1;
            self.shared.fetch_add(1, Ordering::SeqCst);
        }
    }

    struct PingPong {
        peer: Option<ProcessId>,
        rounds_left: usize,
        finished: Arc<AtomicUsize>,
    }

    impl Actor for PingPong {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            if let Some(peer) = self.peer {
                ctx.send(peer, b"ping"[..].into());
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, _payload: Frame) {
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.send(from, b"pong"[..].into());
            }
            if self.rounds_left == 0 {
                self.finished.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    struct TimerOnce {
        fired: Arc<AtomicUsize>,
    }

    impl Actor for TimerOnce {
        fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {}
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(SimDuration::from_millis(5), TimerId(1));
        }
        fn on_timer(&mut self, _ctx: &mut dyn Context, timer: TimerId) {
            assert_eq!(timer, TimerId(1));
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn wait_until(timeout_ms: u64, done: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(timeout_ms) {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    fn wait_for(shared: &Arc<AtomicUsize>, target: usize, timeout_ms: u64) -> bool {
        wait_until(timeout_ms, || shared.load(Ordering::SeqCst) >= target)
    }

    #[test]
    fn external_sends_are_delivered() {
        let shared = Arc::new(AtomicUsize::new(0));
        let mut builder = ThreadedBuilder::default();
        let counter = builder.add(Box::new(Counter {
            seen: 0,
            shared: Arc::clone(&shared),
        }));
        let rt = builder.start();
        for _ in 0..10 {
            rt.send(ProcessId(99), counter, b"x".to_vec()).unwrap();
        }
        assert!(wait_for(&shared, 10, 2_000));
        let counter_actor = rt.shutdown_and_take::<Counter>(counter).unwrap();
        assert_eq!(counter_actor.seen, 10);
    }

    #[test]
    fn two_actors_ping_pong() {
        let finished = Arc::new(AtomicUsize::new(0));
        let mut builder = ThreadedBuilder::default();
        let a = builder.next_process_id();
        let b = ProcessId(a.0 + 1);
        builder.add(Box::new(PingPong {
            peer: Some(b),
            rounds_left: 5,
            finished: Arc::clone(&finished),
        }));
        builder.add(Box::new(PingPong {
            peer: None,
            rounds_left: 5,
            finished: Arc::clone(&finished),
        }));
        let rt = builder.start();
        assert!(wait_for(&finished, 2, 2_000));
        rt.shutdown();
    }

    #[test]
    fn timers_fire_on_real_clock() {
        let fired = Arc::new(AtomicUsize::new(0));
        let mut builder = ThreadedBuilder::default();
        builder.add(Box::new(TimerOnce {
            fired: Arc::clone(&fired),
        }));
        let rt = builder.start();
        assert!(wait_for(&fired, 1, 2_000));
        rt.shutdown();
    }

    #[test]
    fn unknown_destination_is_an_error() {
        let mut builder = ThreadedBuilder::default();
        builder.add(Box::new(Counter {
            seen: 0,
            shared: Arc::new(AtomicUsize::new(0)),
        }));
        let rt = builder.start();
        assert!(rt.send(ProcessId(0), ProcessId(42), vec![]).is_err());
        rt.shutdown();
    }

    #[test]
    fn add_with_explicit_id() {
        let shared = Arc::new(AtomicUsize::new(0));
        let mut builder = ThreadedBuilder::default();
        builder.add_with(
            ProcessId(7),
            Box::new(Counter {
                seen: 0,
                shared: Arc::clone(&shared),
            }),
        );
        let next = builder.add(Box::new(Counter {
            seen: 0,
            shared: Arc::clone(&shared),
        }));
        assert_eq!(next, ProcessId(8));
        let rt = builder.start();
        assert_eq!(rt.processes(), vec![ProcessId(7), ProcessId(8)]);
        rt.send(ProcessId(0), ProcessId(7), vec![1]).unwrap();
        assert!(wait_for(&shared, 1, 2_000));
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn duplicate_explicit_id_panics() {
        let mut builder = ThreadedBuilder::default();
        builder.add_with(
            ProcessId(1),
            Box::new(Counter {
                seen: 0,
                shared: Arc::new(AtomicUsize::new(0)),
            }),
        );
        builder.add_with(
            ProcessId(1),
            Box::new(Counter {
                seen: 0,
                shared: Arc::new(AtomicUsize::new(0)),
            }),
        );
    }

    /// Sends the same shared frame to every configured destination at once.
    struct Multicaster {
        dests: Vec<ProcessId>,
    }

    impl Actor for Multicaster {
        fn on_message(&mut self, ctx: &mut dyn Context, _from: ProcessId, payload: Frame) {
            for d in &self.dests {
                // Refcount clone: all recipients share one buffer, and the
                // co-hosted ones share one channel message.
                ctx.send(*d, Frame::clone(&payload));
            }
        }
    }

    #[test]
    fn colocated_actors_share_a_node_and_receive_multicasts() {
        let shared = Arc::new(AtomicUsize::new(0));
        let mut builder = ThreadedBuilder::default();
        let node = builder.add_node();
        let a = builder.add_on(
            node,
            Box::new(Counter {
                seen: 0,
                shared: Arc::clone(&shared),
            }),
        );
        let b = builder.add_on(
            node,
            Box::new(Counter {
                seen: 0,
                shared: Arc::clone(&shared),
            }),
        );
        let c = builder.add(Box::new(Counter {
            seen: 0,
            shared: Arc::clone(&shared),
        }));
        let caster = builder.add(Box::new(Multicaster {
            dests: vec![a, b, c],
        }));
        let rt = builder.start();
        for _ in 0..5 {
            rt.send(ProcessId(99), caster, b"frame".to_vec()).unwrap();
        }
        assert!(wait_for(&shared, 15, 2_000));
        let actors = rt.shutdown();
        for id in [a, b, c, caster] {
            assert!(actors.contains_key(&id), "shutdown must return {id}");
        }
    }

    #[test]
    fn now_advances() {
        let builder = ThreadedBuilder::default();
        let rt = builder.start();
        let t0 = rt.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(rt.now() > t0);
        rt.shutdown();
    }

    #[test]
    fn severed_link_drops_real_sends_and_counts_them() {
        let shared = Arc::new(AtomicUsize::new(0));
        let mut topology = Topology::default();
        topology.sever(NodeId(0), NodeId(1));
        let mut builder = ThreadedBuilder::default().with_topology(topology);
        // Node 0: a multicaster; node 1: a counter behind the severed link;
        // node 2: a counter on a healthy link.
        let caster_node = builder.add_node();
        let cut_node = builder.add_node();
        let ok_node = builder.add_node();
        let a = ProcessId(1);
        let b = ProcessId(2);
        let caster = ProcessId(0);
        builder.add_with_on(
            caster,
            caster_node,
            Box::new(Multicaster { dests: vec![a, b] }),
        );
        builder.add_with_on(
            a,
            cut_node,
            Box::new(Counter {
                seen: 0,
                shared: Arc::clone(&shared),
            }),
        );
        builder.add_with_on(
            b,
            ok_node,
            Box::new(Counter {
                seen: 0,
                shared: Arc::clone(&shared),
            }),
        );
        let rt = builder.start();
        for _ in 0..5 {
            rt.send(ProcessId(99), ProcessId(0), b"frame".to_vec())
                .unwrap();
        }
        assert!(wait_for(&shared, 5, 2_000), "healthy link still delivers");
        // Give the severed sends a moment to (not) arrive.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(shared.load(Ordering::SeqCst), 5);
        let stats = rt.net_stats();
        assert_eq!(stats.dropped_link, 5, "severed sends are accounted");
        assert_eq!(stats.dropped_unknown_dest, 0);
        assert_eq!(stats.messages_dropped, 5);
        let actors = rt.shutdown();
        assert!(actors.contains_key(&caster));
    }

    #[test]
    fn scheduled_sever_takes_effect_mid_run_and_delay_line_delays() {
        let shared = Arc::new(AtomicUsize::new(0));
        // Delay the link by 80 ms for the first 200 ms, then sever it.
        let schedule = LinkSchedule::new()
            .then(
                SimTime::ZERO,
                crate::link::LinkScope::Pair {
                    a: NodeId(0),
                    b: NodeId(1),
                },
                LinkFault::Delay {
                    extra: SimDuration::from_millis(80),
                    jitter: SimDuration::ZERO,
                },
            )
            .then(
                SimTime::from_millis(200),
                crate::link::LinkScope::Pair {
                    a: NodeId(0),
                    b: NodeId(1),
                },
                LinkFault::Sever,
            );
        let mut builder = ThreadedBuilder::default().with_link_schedule(schedule);
        let n0 = builder.add_node();
        let n1 = builder.add_node();
        let caster = ProcessId(0);
        builder.add_with_on(
            caster,
            n0,
            Box::new(Multicaster {
                dests: vec![ProcessId(1)],
            }),
        );
        builder.add_with_on(
            ProcessId(1),
            n1,
            Box::new(Counter {
                seen: 0,
                shared: Arc::clone(&shared),
            }),
        );
        let rt = builder.start();
        let t0 = Instant::now();
        rt.send(ProcessId(99), caster, b"early".to_vec()).unwrap();
        // The delayed delivery arrives, but only after the extra latency.
        assert!(wait_for(&shared, 1, 2_000));
        assert!(
            t0.elapsed() >= Duration::from_millis(80),
            "delivery must pay the injected delay"
        );
        // After the scheduled sever, nothing arrives any more.
        std::thread::sleep(Duration::from_millis(250).saturating_sub(t0.elapsed()));
        rt.send(ProcessId(99), caster, b"late".to_vec()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(shared.load(Ordering::SeqCst), 1, "post-sever send dropped");
        let stats = rt.net_stats();
        assert_eq!(stats.link_faults, 2, "both scheduled faults executed");
        assert_eq!(stats.dropped_link, 1);
        rt.shutdown();
    }

    /// The race the test above used to lose about one run in six: a fault
    /// scheduled at time zero must already be in force when `start()`
    /// returns, not whenever some thread first gets round to it.
    #[test]
    fn zero_time_link_faults_are_in_force_when_start_returns() {
        for round in 0..50 {
            let shared = Arc::new(AtomicUsize::new(0));
            let schedule = LinkSchedule::new().then(
                SimTime::ZERO,
                crate::link::LinkScope::Pair {
                    a: NodeId(0),
                    b: NodeId(1),
                },
                LinkFault::Delay {
                    extra: SimDuration::from_millis(20),
                    jitter: SimDuration::ZERO,
                },
            );
            let mut builder = ThreadedBuilder::default().with_link_schedule(schedule);
            let n0 = builder.add_node();
            let n1 = builder.add_node();
            builder.add_with_on(
                ProcessId(0),
                n0,
                Box::new(Multicaster {
                    dests: vec![ProcessId(1)],
                }),
            );
            builder.add_with_on(
                ProcessId(1),
                n1,
                Box::new(Counter {
                    seen: 0,
                    shared: Arc::clone(&shared),
                }),
            );
            let rt = builder.start();
            assert_eq!(rt.net_stats().link_faults, 1, "round {round}");
            let t0 = Instant::now();
            rt.send(ProcessId(99), ProcessId(0), b"early".to_vec())
                .unwrap();
            assert!(wait_for(&shared, 1, 2_000));
            assert!(
                t0.elapsed() >= Duration::from_millis(20),
                "round {round}: delivery must pay the injected delay"
            );
            rt.shutdown();
        }
    }

    /// Records the first payload byte of every delivery, in arrival order.
    struct Recorder {
        order: Vec<u8>,
        shared: Arc<AtomicUsize>,
    }

    impl Actor for Recorder {
        fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, payload: Frame) {
            self.order.push(payload.to_bytes()[0]);
            self.shared.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Sends a numbered burst to one destination when poked.
    struct BurstSender {
        dest: ProcessId,
        count: u8,
    }

    impl Actor for BurstSender {
        fn on_message(&mut self, ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {
            for i in 0..self.count {
                ctx.send(self.dest, vec![i].into());
            }
        }
    }

    #[test]
    fn delay_line_preserves_per_link_fifo_even_with_jitter_and_heal() {
        let shared = Arc::new(AtomicUsize::new(0));
        // Jittered delay for the first 150 ms, then heal: deliveries before
        // and after the heal must still arrive in send order (the sender-side
        // FIFO floor serializes the link through the delay line).
        let scope = crate::link::LinkScope::Pair {
            a: NodeId(0),
            b: NodeId(1),
        };
        let schedule = LinkSchedule::new()
            .then(
                SimTime::ZERO,
                scope.clone(),
                LinkFault::Delay {
                    extra: SimDuration::from_millis(20),
                    jitter: SimDuration::from_millis(60),
                },
            )
            .then(SimTime::from_millis(150), scope, LinkFault::Heal);
        let mut builder = ThreadedBuilder::default().with_link_schedule(schedule);
        let n0 = builder.add_node();
        let n1 = builder.add_node();
        let sender = ProcessId(0);
        let recorder = ProcessId(1);
        builder.add_with_on(
            sender,
            n0,
            Box::new(BurstSender {
                dest: recorder,
                count: 10,
            }),
        );
        builder.add_with_on(
            recorder,
            n1,
            Box::new(Recorder {
                order: Vec::new(),
                shared: Arc::clone(&shared),
            }),
        );
        let rt = builder.start();
        rt.send(ProcessId(99), sender, b"go".to_vec()).unwrap();
        assert!(wait_for(&shared, 10, 2_000), "jittered burst arrives");
        // A second burst after the heal still respects the link's FIFO.
        std::thread::sleep(Duration::from_millis(200));
        rt.send(ProcessId(99), sender, b"go".to_vec()).unwrap();
        assert!(wait_for(&shared, 20, 2_000), "post-heal burst arrives");
        let rec = rt.shutdown_and_take::<Recorder>(recorder).unwrap();
        let expected: Vec<u8> = (0..10u8).chain(0..10u8).collect();
        assert_eq!(
            rec.order, expected,
            "per-link deliveries must never overtake each other"
        );
    }

    /// Records, per sender, the numbers carried by its frames in arrival
    /// order.
    struct PerSenderRecorder {
        seen: HashMap<ProcessId, Vec<u32>>,
        shared: Arc<AtomicUsize>,
    }

    impl Actor for PerSenderRecorder {
        fn on_message(&mut self, _ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
            let number = u32::from_le_bytes(payload.to_bytes()[..4].try_into().unwrap());
            self.seen.entry(from).or_default().push(number);
            self.shared.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// On each poke carrying a hop count, sends `per_hop` numbered frames to
    /// `dest` and, below `hops`, pokes `peer` with the next hop count.
    struct Relay {
        peer: ProcessId,
        dest: ProcessId,
        next: u32,
        per_hop: u32,
        hops: u32,
    }

    impl Actor for Relay {
        fn on_message(&mut self, ctx: &mut dyn Context, _from: ProcessId, payload: Frame) {
            for _ in 0..self.per_hop {
                ctx.send(self.dest, self.next.to_le_bytes().to_vec().into());
                self.next += 1;
            }
            let hop = u32::from_le_bytes(payload.to_bytes()[..4].try_into().unwrap());
            if hop < self.hops {
                ctx.send(self.peer, (hop + 1).to_le_bytes().to_vec().into());
            }
        }
    }

    /// Two relays share a node and cascade pokes between themselves while
    /// each streams numbered frames to a receiver on another node: every
    /// frame arrives, each sender's frames arrive in send order, and the
    /// count is complete the moment `run_until_settled` returns.
    #[test]
    fn cohosted_senders_keep_per_link_order_and_settle_complete() {
        const CHAINS: u32 = 20;
        const HOPS: u32 = 50;
        const PER_HOP: u32 = 3;
        let shared = Arc::new(AtomicUsize::new(0));
        let mut builder = ThreadedBuilder::default();
        let senders = builder.add_node();
        let (a, b, receiver) = (ProcessId(0), ProcessId(1), ProcessId(2));
        for (me, peer) in [(a, b), (b, a)] {
            let relay = Relay {
                peer,
                dest: receiver,
                next: 0,
                per_hop: PER_HOP,
                hops: HOPS,
            };
            builder.add_with_on(me, senders, Box::new(relay));
        }
        builder.add_with(
            receiver,
            Box::new(PerSenderRecorder {
                seen: HashMap::new(),
                shared: Arc::clone(&shared),
            }),
        );
        let rt = builder.start();
        for _ in 0..CHAINS {
            for sender in [a, b] {
                rt.send(ProcessId(99), sender, 0u32.to_le_bytes().to_vec())
                    .unwrap();
            }
        }
        let horizon = rt.now() + SimDuration::from_secs(30);
        let reached = rt.run_until_settled(horizon);
        let expected = (2 * CHAINS * (HOPS + 1) * PER_HOP) as usize;
        assert_eq!(
            shared.load(Ordering::SeqCst),
            expected,
            "every frame is delivered before the deployment reads settled"
        );
        assert!(reached < horizon, "settled well before the horizon");
        let stats = rt.net_stats();
        assert_eq!(stats.messages_delivered, stats.messages_sent);
        let rec = rt.shutdown_and_take::<PerSenderRecorder>(receiver).unwrap();
        // Each relay handles as many pokes as the other, so each sends half.
        let per_sender = (expected / 2) as u32;
        for sender in [a, b] {
            assert_eq!(
                rec.seen[&sender],
                (0..per_sender).collect::<Vec<_>>(),
                "frames from {sender} arrive complete and in send order"
            );
        }
    }

    /// Arm-then-cancel cycles (an FS comparison timer's usual life) leave
    /// dead entries behind; sweeping keeps the heap bounded while the live
    /// entries, re-armed timers and other kinds of entry alike, still pop
    /// in `(due, seq)` order.
    #[test]
    fn agenda_sweep_bounds_dead_timers_and_keeps_live_order() {
        let actor = Counter {
            seen: 0,
            shared: Arc::new(AtomicUsize::new(0)),
        };
        let mut processes = vec![Process::new(ProcessId(0), Box::new(actor))];
        let mut agenda = Agenda::default();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let mut live = Vec::new();
        for (timer, ms) in [(1, 30), (2, 10), (3, 30), (1, 20), (4, 10)] {
            let timer = TimerId(timer);
            let seq = agenda.push(at(ms), Due::Timer { process: 0, timer });
            // Re-arming timer 1 kills its first entry.
            live.retain(|&(_, _, t)| t != timer);
            live.push((at(ms), seq, timer));
            processes[0].armed.arm(timer, seq);
        }
        let fate = Box::new(ProcessFate::Recover);
        let event_seq = agenda.push(at(20), Due::Lifecycle(ProcessId(0), fate));
        for _ in 0..100_000 {
            let timer = TimerId(99);
            let seq = agenda.push(at(240_000), Due::Timer { process: 0, timer });
            processes[0].armed.arm(timer, seq);
            processes[0].armed.cancel(timer);
            agenda.sweep(&processes);
            assert!(agenda.heap.len() <= SWEEP_MIN, "{}", agenda.heap.len());
        }
        let mut popped = Vec::new();
        while let Some(entry) = agenda.pop_due(at(240_000)) {
            match entry.what {
                Due::Timer { process, timer } => {
                    if processes[process].armed.fires(timer, entry.seq) {
                        popped.push((entry.due, entry.seq, Some(timer)));
                    }
                }
                _ => popped.push((entry.due, entry.seq, None)),
            }
        }
        let mut expected: Vec<_> = live.into_iter().map(|(d, s, t)| (d, s, Some(t))).collect();
        expected.push((at(20), event_seq, None));
        expected.sort_by_key(|&(due, seq, _)| (due, seq));
        assert_eq!(popped, expected);
    }

    #[test]
    fn unknown_destination_sends_are_counted() {
        let shared = Arc::new(AtomicUsize::new(0));
        let mut builder = ThreadedBuilder::default();
        // The multicaster addresses one real and one unknown destination.
        let counter = ProcessId(1);
        let caster = ProcessId(0);
        builder.add_with(
            caster,
            Box::new(Multicaster {
                dests: vec![counter, ProcessId(77)],
            }),
        );
        builder.add_with(
            counter,
            Box::new(Counter {
                seen: 0,
                shared: Arc::clone(&shared),
            }),
        );
        let rt = builder.start();
        rt.send(ProcessId(99), caster, b"x".to_vec()).unwrap();
        assert!(wait_for(&shared, 1, 2_000));
        let stats = rt.net_stats();
        assert_eq!(stats.dropped_unknown_dest, 1);
        assert_eq!(stats.messages_dropped, 1);
        assert!(stats.messages_sent >= 3, "injection + 2 fan-out sends");
        assert!(stats.messages_delivered >= 2);
        rt.shutdown();
    }

    /// Counts deliveries and recoveries via shared atomics so the test can
    /// observe lifecycle transitions without shutting the runtime down.
    struct LifeCounter {
        seen: usize,
        shared: Arc<AtomicUsize>,
        recoveries: Arc<AtomicUsize>,
    }

    impl Actor for LifeCounter {
        fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {
            self.seen += 1;
            self.shared.fetch_add(1, Ordering::SeqCst);
        }
        fn on_recover(&mut self, _ctx: &mut dyn Context) {
            self.recoveries.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn scheduled_crash_recover_drops_and_runs_on_recover() {
        let shared = Arc::new(AtomicUsize::new(0));
        let recoveries = Arc::new(AtomicUsize::new(0));
        let target = ProcessId(0);
        let lifecycle = LifecycleSchedule::new()
            .crash_at(SimTime::from_millis(40), target)
            .recover_at(SimTime::from_millis(160), target);
        let mut builder = ThreadedBuilder::default().with_lifecycle_schedule(lifecycle);
        builder.add_with(
            target,
            Box::new(LifeCounter {
                seen: 0,
                shared: Arc::clone(&shared),
                recoveries: Arc::clone(&recoveries),
            }),
        );
        let rt = builder.start();
        rt.send(ProcessId(99), target, b"before".to_vec()).unwrap();
        assert!(wait_for(&shared, 1, 2_000), "pre-crash delivery arrives");
        // While down, deliveries are dropped and counted.
        std::thread::sleep(Duration::from_millis(80));
        rt.send(ProcessId(99), target, b"during".to_vec()).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            shared.load(Ordering::SeqCst),
            1,
            "down process gets nothing"
        );
        // After the scheduled recover, on_recover ran and traffic flows.
        assert!(wait_for(&recoveries, 1, 2_000), "on_recover ran");
        rt.send(ProcessId(99), target, b"after".to_vec()).unwrap();
        assert!(wait_for(&shared, 2, 2_000), "post-recover delivery arrives");
        let stats = rt.net_stats();
        assert_eq!(stats.dropped_down, 1);
        assert_eq!(stats.lifecycle_events, 2);
        assert_eq!(stats.messages_dropped, 1);
        let actor = rt.shutdown_and_take::<LifeCounter>(target).unwrap();
        assert_eq!(actor.seen, 2, "state survived the warm restart");
    }

    #[test]
    fn scheduled_replace_installs_fresh_actor() {
        let shared = Arc::new(AtomicUsize::new(0));
        let recoveries = Arc::new(AtomicUsize::new(0));
        let target = ProcessId(3);
        let lifecycle = LifecycleSchedule::new()
            .crash_at(SimTime::from_millis(30), target)
            .replace_at(
                SimTime::from_millis(90),
                target,
                Box::new(LifeCounter {
                    seen: 0,
                    shared: Arc::clone(&shared),
                    recoveries: Arc::clone(&recoveries),
                }),
            );
        let mut builder = ThreadedBuilder::default().with_lifecycle_schedule(lifecycle);
        builder.add_with(
            target,
            Box::new(LifeCounter {
                seen: 0,
                shared: Arc::clone(&shared),
                recoveries: Arc::clone(&recoveries),
            }),
        );
        let rt = builder.start();
        rt.send(ProcessId(99), target, b"old".to_vec()).unwrap();
        assert!(wait_for(&shared, 1, 2_000));
        std::thread::sleep(Duration::from_millis(150));
        rt.send(ProcessId(99), target, b"new".to_vec()).unwrap();
        assert!(wait_for(&shared, 2, 2_000), "replacement receives traffic");
        assert_eq!(
            recoveries.load(Ordering::SeqCst),
            0,
            "cold start, not recover"
        );
        let stats = rt.net_stats();
        assert_eq!(stats.lifecycle_events, 2);
        let actor = rt.shutdown_and_take::<LifeCounter>(target).unwrap();
        assert_eq!(actor.seen, 1, "replacement started from empty state");
    }

    #[test]
    fn settled_runtime_reports_quiescence_and_early_exit() {
        let shared = Arc::new(AtomicUsize::new(0));
        let mut builder = ThreadedBuilder::default();
        let counter = builder.add(Box::new(Counter {
            seen: 0,
            shared: Arc::clone(&shared),
        }));
        let rt = builder.start();
        rt.send(ProcessId(99), counter, b"x".to_vec()).unwrap();
        assert!(wait_for(&shared, 1, 2_000));
        // No timers, nothing in flight: a generous horizon returns early.
        let start = Instant::now();
        let horizon = rt.now() + SimDuration::from_secs(30);
        rt.run_until_settled(horizon);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "settled run must exit well before the 30 s horizon"
        );
        assert!(rt.quiescent_before(horizon));
        rt.shutdown();
    }

    #[test]
    fn armed_timer_before_horizon_defeats_quiescence() {
        struct SlowTimer;
        impl Actor for SlowTimer {
            fn on_message(&mut self, _: &mut dyn Context, _: ProcessId, _: Frame) {}
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.set_timer(SimDuration::from_secs(600), TimerId(1));
            }
        }
        let mut builder = ThreadedBuilder::default();
        builder.add(Box::new(SlowTimer));
        let rt = builder.start();
        std::thread::sleep(Duration::from_millis(50));
        // Timer due at +600 s: quiescent for a 30 s horizon, busy for a
        // 2000 s one.
        assert!(rt.quiescent_before(rt.now() + SimDuration::from_secs(30)));
        assert!(!rt.quiescent_before(rt.now() + SimDuration::from_secs(2000)));
        rt.shutdown();
    }

    /// Sends one frame to `dest` each time it recovers; otherwise silent.
    struct AnnounceOnRecover {
        dest: ProcessId,
    }

    impl Actor for AnnounceOnRecover {
        fn on_message(&mut self, _: &mut dyn Context, _: ProcessId, _: Frame) {}
        fn on_recover(&mut self, ctx: &mut dyn Context) {
            ctx.send(self.dest, b"back"[..].into());
        }
    }

    /// No traffic and no timers: the two schedules are all that can happen.
    /// A pending scheduled event must hold off quiescence, an idle node must
    /// wake for it, and each entry must be counted exactly once.
    #[test]
    fn idle_deployment_runs_its_schedules_and_settles_only_after_them() {
        let shared = Arc::new(AtomicUsize::new(0));
        let scope = LinkScope::Pair {
            a: NodeId(0),
            b: NodeId(1),
        };
        let schedule = LinkSchedule::new()
            .then(SimTime::ZERO, scope.clone(), LinkFault::Sever)
            .then(SimTime::from_millis(100), scope, LinkFault::Heal);
        let lifecycle = LifecycleSchedule::new()
            .crash_at(SimTime::from_millis(50), ProcessId(0))
            .recover_at(SimTime::from_millis(150), ProcessId(0));
        let mut builder = ThreadedBuilder::default()
            .with_link_schedule(schedule)
            .with_lifecycle_schedule(lifecycle);
        builder.add(Box::new(AnnounceOnRecover { dest: ProcessId(1) }));
        for _ in 0..2 {
            builder.add(Box::new(Counter {
                seen: 0,
                shared: Arc::clone(&shared),
            }));
        }
        let rt = builder.start();
        let horizon = SimTime::from_secs(5);
        assert!(
            !rt.quiescent_before(horizon),
            "pending scheduled events hold off quiescence"
        );
        let reached = rt.run_until_settled(horizon);
        assert!(
            reached >= SimTime::from_millis(150) && reached < SimTime::from_secs(3),
            "settled at {reached:?}: after the last scheduled event, well before the horizon"
        );
        let stats = rt.net_stats();
        assert_eq!(stats.link_faults, 2, "each link fault counted once");
        assert_eq!(
            stats.lifecycle_events, 2,
            "each lifecycle event counted once"
        );
        assert_eq!(stats.dropped_link, 0, "the link healed before the recovery");
        assert_eq!(stats.messages_delivered, 1);
        assert_eq!(shared.load(Ordering::SeqCst), 1);
        rt.shutdown();
    }

    /// Per-node counters land where the simulator puts them
    /// (`sim::tests::counters_land_on_the_node_that_owns_them`): sends,
    /// bytes and send-time unknown destinations on the sending node;
    /// deliveries, down-drops, handler runs, timers and lifecycle events on
    /// the hosting node; injections and link-fault events in the cell no
    /// node owns.  The cells fold, as whole structs, into the aggregate.
    #[test]
    fn per_node_stat_cells_fold_into_the_aggregate() {
        let delivered = Arc::new(AtomicUsize::new(0));
        let recoveries = Arc::new(AtomicUsize::new(0));
        let fired = Arc::new(AtomicUsize::new(0));
        let (caster, target, ticker) = (ProcessId(0), ProcessId(1), ProcessId(2));
        // Two link faults that change nothing: one applied by `start`, one
        // by the node threads.
        let scope = LinkScope::Pair {
            a: NodeId(0),
            b: NodeId(1),
        };
        let schedule = LinkSchedule::new()
            .then(SimTime::ZERO, scope.clone(), LinkFault::Heal)
            .then(SimTime::from_millis(20), scope, LinkFault::Heal);
        // The target is down from its node's first wake-up until 500 ms.
        let lifecycle = LifecycleSchedule::new()
            .crash_at(SimTime::ZERO, target)
            .recover_at(SimTime::from_millis(500), target);
        let mut builder = ThreadedBuilder::default()
            .with_link_schedule(schedule)
            .with_lifecycle_schedule(lifecycle);
        let (n0, n1) = (builder.add_node(), builder.add_node());
        let fan_out = Multicaster {
            dests: vec![target, ProcessId(77)],
        };
        builder.add_with_on(caster, n0, Box::new(fan_out));
        let life = LifeCounter {
            seen: 0,
            shared: Arc::clone(&delivered),
            recoveries: Arc::clone(&recoveries),
        };
        builder.add_with_on(target, n1, Box::new(life));
        let once = TimerOnce {
            fired: Arc::clone(&fired),
        };
        builder.add_with_on(ticker, n1, Box::new(once));
        let rt = builder.start();
        assert_eq!(rt.node_count(), 2);
        // A poke while the target is down: its fan-out finds the target down
        // and process 77 unknown.  One after the recover is delivered.
        assert!(wait_until(2_000, || rt.net_cells()[1].lifecycle_events == 1));
        rt.send(ProcessId(99), caster, b"xy".to_vec()).unwrap();
        assert!(wait_until(2_000, || rt.net_cells()[1].dropped_down == 1));
        assert!(wait_for(&recoveries, 1, 2_000), "on_recover ran");
        rt.send(ProcessId(99), caster, b"xy".to_vec()).unwrap();
        assert!(wait_for(&delivered, 1, 2_000));
        assert!(wait_for(&fired, 1, 2_000));
        rt.run_until_settled(rt.now() + SimDuration::from_secs(10));

        let cells = rt.net_cells();
        assert_eq!(cells.len(), 3, "two nodes and the cell no node owns");
        let caster_node = NetStats {
            messages_sent: 4,
            bytes_sent: 8,
            messages_dropped: 2,
            dropped_unknown_dest: 2,
            messages_delivered: 2,
            events_processed: 1 + 2,
            busy_ns: cells[0].busy_ns,
            ..NetStats::default()
        };
        let host_node = NetStats {
            messages_delivered: 1,
            messages_dropped: 1,
            dropped_down: 1,
            lifecycle_events: 2,
            timers_fired: 1,
            events_processed: 2 + 1 + 1 + 1,
            busy_ns: cells[1].busy_ns,
            ..NetStats::default()
        };
        let unowned = NetStats {
            messages_sent: 2,
            bytes_sent: 4,
            link_faults: 2,
            ..NetStats::default()
        };
        assert_eq!(cells, [caster_node, host_node, unowned]);
        assert!(cells[0].busy_ns > 0 && cells[1].busy_ns > 0);
        let mut folded = NetStats::default();
        for cell in &cells {
            folded.merge(cell);
        }
        assert_eq!(folded, rt.net_stats());
        assert_eq!(rt.handled_count(), folded.events_processed);
        rt.shutdown();
    }
}
