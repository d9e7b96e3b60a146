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

use fs_common::id::ProcessId;
use fs_common::rng::DetRng;
use fs_common::time::SimTime;

use crate::actor::Actor;

/// The deterministic RNG stream of the incarnation that the `index`-th event
/// of a schedule (in execution order) installs as `process`: derived from the
/// runtime's root stream, distinct from the original spawn's and from any
/// other replacement under the same id.  Both runtimes call this, so a
/// replacement draws the same numbers on either.
pub(crate) fn replacement_rng(root: &DetRng, process: ProcessId, index: usize) -> DetRng {
    root.derive(0x5eed_1000 + u64::from(process.0) + ((index as u64 + 1) << 32))
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

    #[test]
    fn empty_schedule() {
        let s = LifecycleSchedule::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.in_order().is_empty());
    }
}
