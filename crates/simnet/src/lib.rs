//! # fs-simnet
//!
//! The execution substrate for the fail-signal suite: a deterministic
//! discrete-event simulator of nodes, thread pools and network links, plus a
//! real multi-threaded runtime, both driving the same [`actor::Actor`]
//! abstraction.
//!
//! The simulator reproduces the conditions of the paper's evaluation (§4):
//! Pentium-III-era nodes with a 10-thread request pool connected by a lightly
//! loaded 100 Mb/s LAN, with all protocol-processing and signature costs
//! charged to the simulated clock.  The threaded runtime demonstrates that
//! the same protocol code runs concurrently on real threads.
//!
//! Both runtimes share a schedulable **network fault plane**: a
//! [`link::LinkSchedule`] of timed [`link::LinkFault`]s (partition/heal,
//! loss, delay, throttle) executes as ordinary deterministic events on the
//! simulator and gates the real channel sends of the threaded runtime — the
//! vehicle for the paper's A2-violation experiments.
//!
//! They likewise share a **process lifecycle plane**: a
//! [`lifecycle::LifecycleSchedule`] of timed crash / recover / replace
//! events takes processes down, warm-restarts them (running
//! [`actor::Actor::on_recover`]) or cold-replaces them with fresh actors,
//! again as deterministic simulator events and as node-thread agenda entries
//! on the threaded runtime — the vehicle for rolling-restart and
//! reconfiguration experiments.  Both hosts run the same process model
//! (one transition, one timer check, one handler dispatch; see
//! [`lifecycle`]), and faults enter both the same way: a pre-faulted
//! topology, a link schedule and a lifecycle schedule.
//!
//! And both count traffic the same way: each node counts into a plain
//! [`trace::NetStats`] with the same field increments and `drop_*` helpers
//! (a node thread publishes its copy once per wake-up).  There is one cell
//! per node plus one for what no node owns; sends, bytes and link drops go
//! to the sending node, deliveries, handler runs, timers and lifecycle
//! events to the hosting node.  `net_cells()` lists the cells on either
//! host, one per node in creation order and then the unowned one; their sum
//! is the aggregate.
//!
//! ## Example: two actors on a simulated LAN
//!
//! ```
//! use fs_common::id::ProcessId;
//! use fs_common::time::{SimDuration, SimTime};
//! use fs_common::Frame;
//! use fs_simnet::actor::{Actor, Context};
//! use fs_simnet::node::NodeConfig;
//! use fs_simnet::sim::Simulation;
//!
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
//!         ctx.charge_cpu(SimDuration::from_micros(100));
//!         // Payloads are refcount-shared `Frame`s: echoing the frame back
//!         // reuses the sender's buffer without copying it.
//!         ctx.send(from, payload);
//!     }
//! }
//!
//! struct Client { replies: usize, server: ProcessId }
//! impl Actor for Client {
//!     fn on_start(&mut self, ctx: &mut dyn Context) {
//!         ctx.send(self.server, b"hello"[..].into());
//!     }
//!     fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, _payload: Frame) {
//!         self.replies += 1;
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let n0 = sim.add_node(NodeConfig::era_2003());
//! let n1 = sim.add_node(NodeConfig::era_2003());
//! let server = sim.spawn(n0, Box::new(Echo));
//! let client = sim.spawn(n1, Box::new(Client { replies: 0, server }));
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.actor::<Client>(client).unwrap().replies, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod lifecycle;
pub mod link;
pub mod load;
pub mod node;
pub mod sched;
pub mod sim;
pub mod threaded;
pub mod trace;

pub use actor::{Actor, Context, Outgoing, TestContext, TimerId};
pub use lifecycle::{LifecycleEvent, LifecycleSchedule, ProcessFate};
pub use link::{LinkDegrade, LinkEvent, LinkFault, LinkModel, LinkSchedule, LinkScope, Topology};
pub use load::{
    Admission, AdmissionGate, Admitted, Arrival, ArrivalPacer, Completed, LoadGen, LoadStats,
    Workload,
};
pub use node::{NodeConfig, NodeState};
pub use sched::{CalendarQueue, EventQueue, ScheduledEvent, SchedulerKind};
pub use sim::Simulation;
pub use threaded::{ThreadedBuilder, ThreadedConfig, ThreadedRuntime};
pub use trace::{LatencyRecorder, LatencySummary, NetStats, TraceEvent, TraceLog};
