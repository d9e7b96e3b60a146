//! Scheduled process lifecycle events shared by both runtimes.
//!
//! A [`LifecycleSchedule`] is the process-level counterpart of the link-fault
//! [`crate::link::LinkSchedule`]: a time-ordered list of crash / recover /
//! replace events that the simulator executes as deterministic events
//! ([`crate::sim::Simulation::apply_lifecycle_schedule`]) and the threaded
//! runtime's node threads apply, each for the actors it hosts, at the same
//! wall-clock offsets (`ThreadedBuilder::with_lifecycle_schedule`), so the
//! same schedule drives rolling restarts on both.
//!
//! Semantics:
//!
//! * **Crash** takes the process down: deliveries to it are dropped (and
//!   counted in [`crate::trace::NetStats::dropped_down`]) and its armed
//!   timers are lost, as in a real process crash.
//! * **Recover** brings it back up with its in-memory state intact (a warm
//!   restart); [`crate::actor::Actor::on_recover`] runs so the actor can
//!   re-arm timers and resynchronise with its peers.
//! * **Replace** installs a fresh actor under the same process identifier (a
//!   cold replacement with none of the old state); the new incarnation's
//!   [`crate::actor::Actor::on_start`] runs.
//!
//! ## One process model for both hosts
//!
//! The module also holds what a hosted process *is*, written once for both
//! runtimes.  A `Process` is an identity, an actor, an up flag and the
//! timers it has armed; `Process::apply` is the only lifecycle transition
//! (the semantics above), and `Call::run` is the only code that invokes the
//! four handlers (`on_start`, `on_recover`, `on_message`, `on_timer`).  The
//! armed-timer table maps each timer to the token of its current firing —
//! the event's `seq` on the simulator, the agenda entry's `seq` on a node
//! thread — so a firing runs only if nothing re-armed, cancelled or crashed
//! it since.  What stays with each host is what really differs: the clock,
//! the event queue, the node pool and the FIFO floors on the simulator; the
//! agenda, the inbox and the flush on a node thread.
//!
//! One difference is deliberate and recorded (ROADMAP item 10): the
//! simulator applies a handler's timer cancellations before its arms, a
//! node thread applies both in call order.  A handler that arms a timer and
//! then cancels it leaves it armed on the simulator and disarmed on threads.

use fs_common::fasthash::FastMap;
use fs_common::id::ProcessId;
use fs_common::time::SimTime;
use fs_common::Frame;

use crate::actor::{Actor, Context, TimerId};

/// One handler invocation: which of the four hooks runs.
pub(crate) enum Call {
    /// [`Actor::on_start`]: at spawn, and for a cold replacement.
    Start,
    /// [`Actor::on_recover`]: a warm restart.
    Recover,
    /// [`Actor::on_message`] with the sender and the frame.
    Message(ProcessId, Frame),
    /// [`Actor::on_timer`] for an armed timer whose firing is current.
    Timer(TimerId),
}

impl Call {
    /// Runs the hook on `actor`.  It takes the actor rather than the
    /// [`Process`] so the context may borrow the process's armed timers
    /// while the handler runs.
    pub(crate) fn run(self, actor: &mut dyn Actor, ctx: &mut dyn Context) {
        match self {
            Call::Start => actor.on_start(ctx),
            Call::Recover => actor.on_recover(ctx),
            Call::Message(from, payload) => actor.on_message(ctx, from, payload),
            Call::Timer(timer) => actor.on_timer(ctx, timer),
        }
    }
}

/// A process's armed timers: per timer, the token of the one firing that is
/// current.
#[derive(Default)]
pub(crate) struct Armed(FastMap<TimerId, u64>);

impl Armed {
    /// Arms `timer` for the firing `token`; an earlier firing goes stale.
    #[inline]
    pub(crate) fn arm(&mut self, timer: TimerId, token: u64) {
        self.0.insert(timer, token);
    }

    /// Disarms `timer`; every pending firing of it goes stale.
    #[inline]
    pub(crate) fn cancel(&mut self, timer: TimerId) {
        self.0.remove(&timer);
    }

    /// Whether the firing `token` of `timer` is the current one.
    #[inline]
    pub(crate) fn fires(&self, timer: TimerId, token: u64) -> bool {
        self.0.get(&timer) == Some(&token)
    }
}

/// One hosted process, on either runtime.
pub(crate) struct Process {
    pub(crate) id: ProcessId,
    pub(crate) actor: Box<dyn Actor>,
    pub(crate) armed: Armed,
    /// False between a crash and the matching recover or replace: the host
    /// drops (and counts) deliveries to it.
    up: bool,
}

impl Process {
    /// A freshly spawned process: up, with nothing armed.
    pub(crate) fn new(id: ProcessId, actor: Box<dyn Actor>) -> Self {
        Self {
            id,
            actor,
            armed: Armed::default(),
            up: true,
        }
    }

    /// Whether the process is up.
    pub(crate) fn up(&self) -> bool {
        self.up
    }

    /// Applies one lifecycle event and returns the hook to run, if any.
    pub(crate) fn apply(&mut self, fate: ProcessFate) -> Option<Call> {
        match fate {
            ProcessFate::Crash => {
                self.up = false;
                self.armed.0.clear();
                None
            }
            ProcessFate::Recover if self.up => None,
            ProcessFate::Recover => {
                self.up = true;
                Some(Call::Recover)
            }
            ProcessFate::Replace(actor) => {
                self.actor = actor;
                self.armed.0.clear();
                self.up = true;
                Some(Call::Start)
            }
        }
    }
}

/// What happens to a process at one scheduled lifecycle event.
pub enum ProcessFate {
    /// The process crashes: down until a later recover/replace.
    Crash,
    /// The process restarts warm, keeping its in-memory state.
    Recover,
    /// The process is replaced cold by the boxed fresh actor.
    Replace(Box<dyn Actor>),
}

impl std::fmt::Debug for ProcessFate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessFate::Crash => write!(f, "Crash"),
            ProcessFate::Recover => write!(f, "Recover"),
            ProcessFate::Replace(_) => write!(f, "Replace(..)"),
        }
    }
}

/// One scheduled lifecycle event.
#[derive(Debug)]
pub struct LifecycleEvent {
    /// When the event takes effect (absolute simulated time; the threaded
    /// runtime maps it to the same offset from its start, 1 simulated second
    /// = 1 wall second).
    pub at: SimTime,
    /// The affected process.
    pub process: ProcessId,
    /// What happens to it.
    pub fate: ProcessFate,
}

/// A time-ordered collection of process lifecycle events.
#[derive(Debug, Default)]
pub struct LifecycleSchedule {
    events: Vec<LifecycleEvent>,
}

impl LifecycleSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `process` to crash at `at`.
    #[must_use]
    pub fn crash_at(mut self, at: SimTime, process: ProcessId) -> Self {
        self.push(at, process, ProcessFate::Crash);
        self
    }

    /// Schedules `process` to recover (warm restart) at `at`.
    #[must_use]
    pub fn recover_at(mut self, at: SimTime, process: ProcessId) -> Self {
        self.push(at, process, ProcessFate::Recover);
        self
    }

    /// Schedules `process` to be replaced by `actor` (cold restart) at `at`.
    #[must_use]
    pub fn replace_at(mut self, at: SimTime, process: ProcessId, actor: Box<dyn Actor>) -> Self {
        self.push(at, process, ProcessFate::Replace(actor));
        self
    }

    /// Appends one event.
    pub fn push(&mut self, at: SimTime, process: ProcessId, fate: ProcessFate) {
        self.events.push(LifecycleEvent { at, process, fate });
    }

    /// Moves every event of `other` into this schedule.  Used to compose
    /// per-shard schedules into one runtime-wide schedule; relative order of
    /// same-instant events follows the extension order.
    pub fn extend(&mut self, other: LifecycleSchedule) {
        self.events.extend(other.events);
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Consumes the schedule, returning its events sorted by time
    /// (insertion order breaks ties, so a crash inserted before a recover at
    /// the same instant executes first).
    pub fn in_order(self) -> Vec<LifecycleEvent> {
        let mut events = self.events;
        events.sort_by_key(|e| e.at);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_common::Frame;

    struct Nop;
    impl Actor for Nop {
        fn on_message(&mut self, _: &mut dyn crate::actor::Context, _: ProcessId, _: Frame) {}
    }

    #[test]
    fn schedule_orders_events_stably() {
        let s = LifecycleSchedule::new()
            .recover_at(SimTime::from_secs(2), ProcessId(1))
            .crash_at(SimTime::from_secs(1), ProcessId(1))
            .replace_at(SimTime::from_secs(2), ProcessId(2), Box::new(Nop));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let ordered = s.in_order();
        assert!(matches!(ordered[0].fate, ProcessFate::Crash));
        assert_eq!(ordered[0].at, SimTime::from_secs(1));
        // Same-instant events keep insertion order.
        assert!(matches!(ordered[1].fate, ProcessFate::Recover));
        assert!(matches!(ordered[2].fate, ProcessFate::Replace(_)));
        assert_eq!(format!("{:?}", ProcessFate::Crash), "Crash");
        assert!(format!("{:?}", ordered[2].fate).contains("Replace"));
    }

    #[test]
    fn extend_moves_events_preserving_tie_order() {
        let mut a = LifecycleSchedule::new().crash_at(SimTime::from_secs(1), ProcessId(1));
        let b = LifecycleSchedule::new()
            .recover_at(SimTime::from_secs(1), ProcessId(1))
            .replace_at(SimTime::from_secs(2), ProcessId(2), Box::new(Nop));
        a.extend(b);
        assert_eq!(a.len(), 3);
        let ordered = a.in_order();
        assert!(matches!(ordered[0].fate, ProcessFate::Crash));
        assert!(matches!(ordered[1].fate, ProcessFate::Recover));
        assert!(matches!(ordered[2].fate, ProcessFate::Replace(_)));
    }

    /// Records which hooks ran.
    #[derive(Default)]
    struct Hooks(Vec<&'static str>);
    impl Actor for Hooks {
        fn on_start(&mut self, _: &mut dyn Context) {
            self.0.push("start");
        }
        fn on_recover(&mut self, _: &mut dyn Context) {
            self.0.push("recover");
        }
        fn on_message(&mut self, _: &mut dyn Context, _: ProcessId, _: Frame) {}
    }

    /// Runs what `apply` returned and reports the hooks that ran so far.
    fn run(process: &mut Process, call: Option<Call>) -> Vec<&'static str> {
        let ctx = &mut crate::actor::TestContext::new(process.id);
        if let Some(call) = call {
            call.run(process.actor.as_mut(), ctx);
        }
        let any: &dyn std::any::Any = process.actor.as_ref();
        any.downcast_ref::<Hooks>().unwrap().0.clone()
    }

    #[test]
    fn process_applies_each_fate_once() {
        let (timer, other) = (TimerId(1), TimerId(2));
        let mut p = Process::new(ProcessId(3), Box::<Hooks>::default());

        // Recover on an up process runs nothing.
        let call = p.apply(ProcessFate::Recover);
        assert!(call.is_none() && p.up());

        // A re-armed timer fires only for its newest token.
        p.armed.arm(timer, 1);
        p.armed.arm(timer, 2);
        assert!(!p.armed.fires(timer, 1) && p.armed.fires(timer, 2));
        p.armed.cancel(timer);
        assert!(!p.armed.fires(timer, 2));

        // Crash, then Recover: the hook runs, and no earlier token fires.
        p.armed.arm(timer, 3);
        assert!(p.apply(ProcessFate::Crash).is_none() && !p.up());
        let call = p.apply(ProcessFate::Recover);
        assert_eq!(run(&mut p, call), ["recover"]);
        assert!(p.up() && !p.armed.fires(timer, 3));

        // Replace clears the armed timers and starts the fresh actor.
        p.armed.arm(other, 4);
        let call = p.apply(ProcessFate::Replace(Box::<Hooks>::default()));
        assert_eq!(run(&mut p, call), ["start"]);
        assert!(p.up() && !p.armed.fires(other, 4));
    }

    #[test]
    fn empty_schedule() {
        let s = LifecycleSchedule::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.in_order().is_empty());
    }
}
