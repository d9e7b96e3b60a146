//! The actor abstraction shared by the discrete-event simulator and the
//! threaded runtime.
//!
//! Every protocol entity in the suite — an application `A_i`, a NewTOP group
//! communication object, a fail-signal wrapper object — is an [`Actor`]: a
//! single-threaded event handler that reacts to messages and timers through a
//! [`Context`].  Writing the protocols against this trait means the same code
//! runs unchanged on the deterministic simulator (used for the paper's
//! figures) and on the real threaded runtime (used by the examples and the
//! end-to-end tests).
//!
//! # Payload convention
//!
//! The transport payload is a [`Frame`]: immutable, refcount-shared, and
//! either one contiguous buffer or a rope `head ‖ body ‖ tail` whose body is
//! a byte string the sender already held.  A sender encodes a message
//! **once** with `Wire::to_frame` — which writes only the header and trailer
//! bytes around a large payload and takes the payload itself by refcount —
//! and hands the same frame to every recipient; [`Context::send`] and the
//! runtimes only ever clone refcounts, never bytes.  `Bytes`, `Vec<u8>` and
//! `&[u8]` convert with `.into()` (a machine output that is already one
//! buffer is sent as it is).  On the receive side the destination decodes
//! the delivered frame with `Wire::from_frame`, and every byte-string field
//! extracted from it is a zero-copy *view* of the segment it lies in — so a
//! payload relayed through several hops (client → wrapper → partner →
//! destination) is the same buffer at every hop, and the only copies left
//! are the ones a protocol step asks for: encoding a *new* byte string
//! around it (a machine's output), or [`Frame::to_bytes`] where a consumer
//! needs one contiguous buffer from a spliced frame.
//!
//! What the transport charges and reports is the frame's wire length,
//! [`Frame::len`]: link delay, marshalling cost, `NetStats`, and
//! `TraceEvent::Send { size }` cannot tell a spliced frame from a copied
//! one.  Actors that need to mutate a payload (e.g. fault injectors
//! corrupting a frame) flatten it and copy it out explicitly
//! (`to_bytes().to_vec()`).

use std::any::Any;

use fs_common::id::ProcessId;
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};
use fs_common::Frame;

/// An application-defined timer identifier.
///
/// The value is opaque to the runtime; actors typically use small enums cast
/// to `u64` to distinguish their timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimerId(pub u64);

impl From<u64> for TimerId {
    fn from(v: u64) -> Self {
        TimerId(v)
    }
}

/// The execution environment handed to an actor while it handles an event.
///
/// All side effects of a handler — sending messages, arming timers, charging
/// CPU time — go through this trait so the runtime can schedule them
/// consistently with its queueing model: effects of a handler become visible
/// only after the handler's CPU charge has elapsed on one of the node's
/// pool threads.
pub trait Context {
    /// The simulated (or wall-clock) instant at which this handler started
    /// executing on its node's thread.
    fn now(&self) -> SimTime;

    /// This actor's own process identifier.
    fn me(&self) -> ProcessId;

    /// Sends `payload` to `to`.  Delivery time is determined by the link
    /// between the two hosting nodes plus the destination node's queueing.
    ///
    /// The payload is an immutable [`Frame`]: multicasting the same frame to
    /// several destinations is a refcount clone per recipient, not a copy
    /// (see the module docs for the payload convention).
    fn send(&mut self, to: ProcessId, payload: Frame);

    /// Arms (or re-arms) timer `timer` to fire `delay` after this handler
    /// completes.  Re-arming an already armed timer replaces its deadline.
    fn set_timer(&mut self, delay: SimDuration, timer: TimerId);

    /// Cancels a previously armed timer.  Cancelling an unarmed timer is a
    /// no-op.
    fn cancel_timer(&mut self, timer: TimerId);

    /// Charges `amount` of CPU time to this handler.  The runtime keeps the
    /// node's thread busy for the accumulated charge, delaying this handler's
    /// outputs and subsequent work on the same thread — this is how
    /// protocol-processing and cryptography costs shape the latency and
    /// throughput figures.
    fn charge_cpu(&mut self, amount: SimDuration);

    /// A deterministic random number generator scoped to this actor.
    fn rng(&mut self) -> &mut DetRng;

    /// Emits a trace annotation (a free-form label) for debugging and for
    /// the experiment reports.  Runtimes may ignore it.
    fn trace(&mut self, label: &str);
}

/// A single-threaded protocol entity driven by messages and timers.
///
/// Handlers must not block; long-running work is represented by
/// [`Context::charge_cpu`].  Implementations must be `Send` so the threaded
/// runtime can host them on their own threads, and `Any` so tests and the
/// simulator can downcast to the concrete type for inspection.
pub trait Actor: Any + Send {
    /// Called once when the runtime starts, before any message is delivered.
    fn on_start(&mut self, _ctx: &mut dyn Context) {}

    /// Called for every message delivered to this actor.  The payload is
    /// the very frame the sender encoded — decode it in place
    /// (`Wire::from_frame`), do not copy it.
    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame);

    /// Called when a timer armed by this actor fires.
    fn on_timer(&mut self, _ctx: &mut dyn Context, _timer: TimerId) {}

    /// Called when the lifecycle plane brings this actor back up after a
    /// scheduled crash (see the runtimes' `crash_at`/`recover_at` events).
    /// The actor's in-memory state survives the outage, but every message
    /// and timer that would have arrived while it was down was dropped —
    /// implementations typically re-arm their periodic timers here and kick
    /// off whatever resynchronisation their protocol provides.  Not called
    /// for cold replacements, which are fresh actors started via
    /// [`Actor::on_start`].
    fn on_recover(&mut self, _ctx: &mut dyn Context) {}

    /// A short human-readable name used in traces.
    fn name(&self) -> String {
        "actor".to_string()
    }
}

/// A convenience recording of one send performed by an actor, used by
/// runtimes and by unit tests of adapters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// Destination process.
    pub to: ProcessId,
    /// The frame (refcount-shared with every other recipient of it).
    pub payload: Frame,
}

/// A minimal [`Context`] implementation backed by plain vectors.
///
/// This is the workhorse of unit tests throughout the workspace: protocol
/// actors can be driven directly, without standing up a simulation, and their
/// outputs inspected.
#[derive(Debug)]
pub struct TestContext {
    /// The identity the actor believes it has.
    pub id: ProcessId,
    /// The current simulated time returned by [`Context::now`].
    pub time: SimTime,
    /// Messages sent by the actor, in order.
    pub sent: Vec<Outgoing>,
    /// Timers armed by the actor: `(delay, timer)`.
    pub timers_set: Vec<(SimDuration, TimerId)>,
    /// Timers cancelled by the actor.
    pub timers_cancelled: Vec<TimerId>,
    /// Total CPU charged by the actor.
    pub cpu: SimDuration,
    /// Trace labels emitted by the actor.
    pub traces: Vec<String>,
    rng: DetRng,
}

impl TestContext {
    /// Creates a test context for actor `id` at time zero.
    pub fn new(id: ProcessId) -> Self {
        Self {
            id,
            time: SimTime::ZERO,
            sent: Vec::new(),
            timers_set: Vec::new(),
            timers_cancelled: Vec::new(),
            cpu: SimDuration::ZERO,
            traces: Vec::new(),
            rng: DetRng::new(u64::from(id.0) + 1),
        }
    }

    /// Advances the context's notion of time.
    pub fn advance(&mut self, d: SimDuration) {
        self.time += d;
    }

    /// Drains and returns the messages sent so far.
    pub fn take_sent(&mut self) -> Vec<Outgoing> {
        std::mem::take(&mut self.sent)
    }

    /// Returns the messages sent to a particular destination.
    pub fn sent_to(&self, to: ProcessId) -> Vec<&Outgoing> {
        self.sent.iter().filter(|o| o.to == to).collect()
    }
}

impl Context for TestContext {
    fn now(&self) -> SimTime {
        self.time
    }
    fn me(&self) -> ProcessId {
        self.id
    }
    fn send(&mut self, to: ProcessId, payload: Frame) {
        self.sent.push(Outgoing { to, payload });
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
        &mut self.rng
    }
    fn trace(&mut self, label: &str) {
        self.traces.push(label.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        seen: usize,
    }

    impl Actor for Echo {
        fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
            self.seen += 1;
            ctx.charge_cpu(SimDuration::from_micros(10));
            ctx.send(from, payload);
            ctx.set_timer(SimDuration::from_millis(1), TimerId(7));
        }
        fn name(&self) -> String {
            "echo".into()
        }
    }

    #[test]
    fn test_context_records_effects() {
        let mut ctx = TestContext::new(ProcessId(1));
        let mut echo = Echo { seen: 0 };
        echo.on_message(&mut ctx, ProcessId(2), Frame::from(&b"ping"[..]));
        assert_eq!(echo.seen, 1);
        assert_eq!(
            ctx.sent,
            vec![Outgoing {
                to: ProcessId(2),
                payload: Frame::from(&b"ping"[..])
            }]
        );
        assert_eq!(
            ctx.timers_set,
            vec![(SimDuration::from_millis(1), TimerId(7))]
        );
        assert_eq!(ctx.cpu, SimDuration::from_micros(10));
        assert_eq!(ctx.sent_to(ProcessId(2)).len(), 1);
        assert!(ctx.sent_to(ProcessId(3)).is_empty());
    }

    #[test]
    fn test_context_time_advances() {
        let mut ctx = TestContext::new(ProcessId(0));
        assert_eq!(ctx.now(), SimTime::ZERO);
        ctx.advance(SimDuration::from_millis(5));
        assert_eq!(ctx.now(), SimTime::from_millis(5));
    }

    #[test]
    fn take_sent_drains() {
        let mut ctx = TestContext::new(ProcessId(0));
        ctx.send(ProcessId(1), vec![1].into());
        assert_eq!(ctx.take_sent().len(), 1);
        assert!(ctx.take_sent().is_empty());
    }

    #[test]
    fn actor_is_downcastable() {
        let mut boxed: Box<dyn Actor> = Box::new(Echo { seen: 3 });
        let any: &mut dyn Any = &mut *boxed;
        assert_eq!(any.downcast_mut::<Echo>().unwrap().seen, 3);
    }

    #[test]
    fn default_name_and_hooks() {
        struct Quiet;
        impl Actor for Quiet {
            fn on_message(&mut self, _: &mut dyn Context, _: ProcessId, _: Frame) {}
        }
        let mut q = Quiet;
        let mut ctx = TestContext::new(ProcessId(9));
        q.on_start(&mut ctx);
        q.on_timer(&mut ctx, TimerId(0));
        assert_eq!(q.name(), "actor");
        assert!(ctx.sent.is_empty());
    }
}
