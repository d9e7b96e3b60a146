//! Fault injection at the actor boundary.
//!
//! Faults are injected by wrapping a victim actor in a [`FaultyActor`] whose
//! context intercepts the victim's outgoing messages and applies the
//! configured [`FaultPlan`]: corruption, drops, duplication, silent crash, or
//! spontaneous garbage emission.  This mirrors the methodology of the
//! fault-injection study the paper builds on (\[SSKXBI01\]): faults manifest at
//! a single node and the surrounding fail-signal machinery must detect or
//! mask them.

use fs_common::id::ProcessId;
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};
use fs_common::{Bytes, Frame};
use fs_simnet::actor::{Actor, Context, TimerId};

/// What kind of misbehaviour to inject.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Flip bytes in outgoing payloads (authenticated-Byzantine value fault).
    CorruptOutputs {
        /// Probability that any given outgoing message is corrupted.
        probability: f64,
    },
    /// Silently drop outgoing messages (omission fault).
    DropOutputs {
        /// Probability that any given outgoing message is dropped.
        probability: f64,
    },
    /// Send every outgoing message twice (duplication fault).
    DuplicateOutputs,
    /// Stop producing any output and ignore all input (silent crash).
    Crash,
    /// Emit a fixed garbage message to a chosen destination on every input
    /// (babbling fault; with the fail-signal bytes this models fs2 —
    /// arbitrary fail-signal emission).
    Babble {
        /// The destination to spam.
        target: ProcessId,
        /// The payload to send.
        payload: Bytes,
    },
}

/// A fault plan: which fault to inject and when it becomes active.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The fault to inject.
    pub kind: FaultKind,
    /// The number of handled events after which the fault becomes active
    /// (0 = faulty from the start).
    pub activate_after: u64,
}

impl FaultPlan {
    /// A plan active from the very first event.
    pub fn immediate(kind: FaultKind) -> Self {
        Self {
            kind,
            activate_after: 0,
        }
    }

    /// A plan that becomes active after `events` handled events.
    pub fn after(events: u64, kind: FaultKind) -> Self {
        Self {
            kind,
            activate_after: events,
        }
    }
}

/// Counters describing what the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Events handled by the victim while the fault was inactive.
    pub clean_events: u64,
    /// Events handled (or swallowed) while the fault was active.
    pub faulty_events: u64,
    /// Outgoing messages corrupted.
    pub corrupted: u64,
    /// Outgoing messages dropped.
    pub dropped: u64,
    /// Outgoing messages duplicated.
    pub duplicated: u64,
    /// Garbage messages emitted.
    pub babbled: u64,
    /// Times the fault plan was disarmed by [`FaultyActor::revive`] (at most
    /// one until the plan is re-armed; revivals via the lifecycle plane's
    /// `on_recover` are counted here too).
    pub revived: u64,
}

/// Wraps a victim actor and applies a [`FaultPlan`] to its behaviour.
pub struct FaultyActor {
    inner: Box<dyn Actor>,
    plan: FaultPlan,
    handled: u64,
    /// True after [`FaultyActor::revive`]: the plan is disarmed and the
    /// victim behaves cleanly again until [`FaultyActor::rearm`].
    revived: bool,
    rng: DetRng,
    stats: InjectionStats,
}

impl std::fmt::Debug for FaultyActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyActor")
            .field("plan", &self.plan)
            .field("stats", &self.stats)
            .finish()
    }
}

impl FaultyActor {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Box<dyn Actor>, plan: FaultPlan, seed: u64) -> Self {
        Self {
            inner,
            plan,
            handled: 0,
            revived: false,
            rng: DetRng::new(seed),
            stats: InjectionStats::default(),
        }
    }

    /// The injection counters.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }

    /// Disarms the fault plan: from the next event on the victim behaves
    /// cleanly again, resuming from whatever state it retained.  This is
    /// what makes an injected [`FaultKind::Crash`] resumable rather than a
    /// permanent dead-end — a crashed victim that is revived starts
    /// processing (and answering) again, and the surrounding protocol's
    /// recovery machinery has something real to catch up.  Idempotent until
    /// [`FaultyActor::rearm`]; counted in [`InjectionStats::revived`].
    /// Called automatically when the lifecycle plane warm-restarts the
    /// victim (see [`Actor::on_recover`]).
    pub fn revive(&mut self) {
        if !self.revived {
            self.revived = true;
            self.stats.revived += 1;
        }
    }

    /// Re-arms a previously revived plan (the activation threshold still
    /// applies, counted from the start of the run).
    pub fn rearm(&mut self) {
        self.revived = false;
    }

    fn active(&self) -> bool {
        !self.revived && self.handled >= self.plan.activate_after
    }
}

struct FaultyContext<'a> {
    inner: &'a mut dyn Context,
    kind: &'a FaultKind,
    active: bool,
    rng: &'a mut DetRng,
    stats: &'a mut InjectionStats,
}

impl Context for FaultyContext<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn me(&self) -> ProcessId {
        self.inner.me()
    }
    fn send(&mut self, to: ProcessId, payload: Frame) {
        if !self.active {
            self.inner.send(to, payload);
            return;
        }
        match self.kind {
            FaultKind::CorruptOutputs { probability } => {
                if self.rng.chance(*probability) && !payload.is_empty() {
                    // The frame is immutable and shared (and possibly a
                    // rope); a corrupting fault is the one place that must
                    // flatten and copy it to mutate it.
                    let mut corrupted = payload.to_bytes().to_vec();
                    let idx = self.rng.below(corrupted.len() as u64) as usize;
                    corrupted[idx] ^= 0xff;
                    self.stats.corrupted += 1;
                    self.inner.send(to, corrupted.into());
                } else {
                    self.inner.send(to, payload);
                }
            }
            FaultKind::DropOutputs { probability } => {
                if self.rng.chance(*probability) {
                    self.stats.dropped += 1;
                } else {
                    self.inner.send(to, payload);
                }
            }
            FaultKind::DuplicateOutputs => {
                // Duplication is free: both copies share the same buffer.
                self.inner.send(to, payload.clone());
                self.inner.send(to, payload);
                self.stats.duplicated += 1;
            }
            FaultKind::Crash => {
                // A crashed process sends nothing.
                self.stats.dropped += 1;
            }
            FaultKind::Babble { .. } => {
                self.inner.send(to, payload);
            }
        }
    }
    fn set_timer(&mut self, delay: SimDuration, timer: TimerId) {
        self.inner.set_timer(delay, timer);
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.inner.cancel_timer(timer);
    }
    fn charge_cpu(&mut self, amount: SimDuration) {
        self.inner.charge_cpu(amount);
    }
    fn trace(&mut self, label: &str) {
        self.inner.trace(label);
    }
}

impl Actor for FaultyActor {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
        let active = self.active();
        self.handled += 1;
        if active {
            self.stats.faulty_events += 1;
        } else {
            self.stats.clean_events += 1;
        }
        if active && self.plan.kind == FaultKind::Crash {
            // A crashed victim neither processes nor answers.
            return;
        }
        if active {
            if let FaultKind::Babble {
                target,
                payload: garbage,
            } = &self.plan.kind
            {
                ctx.send(*target, garbage.clone().into());
                self.stats.babbled += 1;
            }
        }
        let mut faulty = FaultyContext {
            inner: ctx,
            kind: &self.plan.kind,
            active,
            rng: &mut self.rng,
            stats: &mut self.stats,
        };
        self.inner.on_message(&mut faulty, from, payload);
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        // A warm restart revives a crash-injected victim: the injected
        // plan is disarmed and the inner actor resynchronises.
        self.revive();
        self.inner.on_recover(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, timer: TimerId) {
        let active = self.active();
        if active && self.plan.kind == FaultKind::Crash {
            return;
        }
        let mut faulty = FaultyContext {
            inner: ctx,
            kind: &self.plan.kind,
            active,
            rng: &mut self.rng,
            stats: &mut self.stats,
        };
        self.inner.on_timer(&mut faulty, timer);
    }

    fn name(&self) -> String {
        format!("faulty({})", self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_simnet::actor::TestContext;

    /// Echoes every message back to its sender.
    struct Echo;
    impl Actor for Echo {
        fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
            ctx.send(from, payload);
        }
    }

    fn drive(plan: FaultPlan, messages: u32) -> (FaultyActor, TestContext) {
        let mut actor = FaultyActor::new(Box::new(Echo), plan, 7);
        let mut ctx = TestContext::new(ProcessId(0));
        for i in 0..messages {
            actor.on_message(&mut ctx, ProcessId(1), vec![i as u8; 4].into());
        }
        (actor, ctx)
    }

    #[test]
    fn inactive_fault_is_transparent() {
        let (actor, ctx) = drive(FaultPlan::after(100, FaultKind::Crash), 5);
        assert_eq!(ctx.sent.len(), 5);
        assert_eq!(actor.stats().clean_events, 5);
        assert_eq!(actor.stats().faulty_events, 0);
    }

    #[test]
    fn crash_stops_all_output() {
        let (actor, ctx) = drive(FaultPlan::after(2, FaultKind::Crash), 6);
        assert_eq!(ctx.sent.len(), 2);
        assert_eq!(actor.stats().clean_events, 2);
        assert_eq!(actor.stats().faulty_events, 4);
    }

    #[test]
    fn corruption_changes_payloads() {
        let (actor, ctx) = drive(
            FaultPlan::immediate(FaultKind::CorruptOutputs { probability: 1.0 }),
            4,
        );
        assert_eq!(ctx.sent.len(), 4);
        assert_eq!(actor.stats().corrupted, 4);
        for (i, out) in ctx.sent.iter().enumerate() {
            assert_ne!(
                out.payload, &[i as u8; 4],
                "payload {i} should be corrupted"
            );
        }
    }

    #[test]
    fn drops_remove_messages() {
        let (actor, ctx) = drive(
            FaultPlan::immediate(FaultKind::DropOutputs { probability: 1.0 }),
            4,
        );
        assert!(ctx.sent.is_empty());
        assert_eq!(actor.stats().dropped, 4);
    }

    #[test]
    fn duplication_doubles_messages() {
        let (actor, ctx) = drive(FaultPlan::immediate(FaultKind::DuplicateOutputs), 3);
        assert_eq!(ctx.sent.len(), 6);
        assert_eq!(actor.stats().duplicated, 3);
    }

    #[test]
    fn babbling_spams_the_target() {
        let plan = FaultPlan::immediate(FaultKind::Babble {
            target: ProcessId(9),
            payload: b"garbage"[..].into(),
        });
        let (actor, ctx) = drive(plan, 3);
        assert_eq!(ctx.sent_to(ProcessId(9)).len(), 3);
        assert_eq!(actor.stats().babbled, 3);
        assert!(actor.name().starts_with("faulty("));
    }

    #[test]
    fn revive_makes_a_crash_resumable() {
        let mut actor = FaultyActor::new(Box::new(Echo), FaultPlan::after(2, FaultKind::Crash), 7);
        let mut ctx = TestContext::new(ProcessId(0));
        for i in 0..4u8 {
            actor.on_message(&mut ctx, ProcessId(1), vec![i; 4].into());
        }
        assert_eq!(ctx.sent.len(), 2, "crashed after two clean events");
        actor.revive();
        actor.revive(); // idempotent
        actor.on_message(&mut ctx, ProcessId(1), vec![9; 4].into());
        assert_eq!(ctx.sent.len(), 3, "revived victim answers again");
        assert_eq!(actor.stats().revived, 1);
        actor.rearm();
        actor.on_message(&mut ctx, ProcessId(1), vec![10; 4].into());
        assert_eq!(ctx.sent.len(), 3, "re-armed crash swallows again");
    }

    #[test]
    fn on_recover_revives_the_victim() {
        /// Records whether its own on_recover hook ran.
        struct Recoverable {
            recovered: bool,
        }
        impl Actor for Recoverable {
            fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
                ctx.send(from, payload);
            }
            fn on_recover(&mut self, _ctx: &mut dyn Context) {
                self.recovered = true;
            }
        }
        let mut actor = FaultyActor::new(
            Box::new(Recoverable { recovered: false }),
            FaultPlan::immediate(FaultKind::Crash),
            7,
        );
        let mut ctx = TestContext::new(ProcessId(0));
        actor.on_message(&mut ctx, ProcessId(1), vec![1].into());
        assert!(ctx.sent.is_empty());
        actor.on_recover(&mut ctx);
        actor.on_message(&mut ctx, ProcessId(1), vec![2].into());
        assert_eq!(ctx.sent.len(), 1, "recovered victim processes again");
        assert_eq!(actor.stats().revived, 1);
    }

    #[test]
    fn activation_threshold_is_respected() {
        let (actor, ctx) = drive(
            FaultPlan::after(3, FaultKind::DropOutputs { probability: 1.0 }),
            5,
        );
        assert_eq!(ctx.sent.len(), 3);
        assert_eq!(actor.stats().dropped, 2);
    }
}
