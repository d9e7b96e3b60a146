//! # fs-faults
//!
//! Fault injection for the fail-signal suite.  The paper's construction is
//! validated (here as in the original fail-silent work it builds on,
//! \[SSKXBI01\]) by injecting authenticated-Byzantine faults at a single node
//! and checking that the surrounding machinery either masks them or converts
//! them into the process's unique fail-signal.
//!
//! The injector wraps any actor — typically one wrapper object of a
//! fail-signal pair, or a crash-protocol host — and tampers with its
//! behaviour according to a [`FaultPlan`]: corrupting, dropping or
//! duplicating its outputs, crashing it silently, or making it babble
//! arbitrary messages (which, aimed at a destination with the fail-signal
//! payload, models the paper's fs2 property — spontaneous fail-signal
//! emission).
//!
//! An injected [`FaultKind::Crash`] is **resumable**: while active the
//! victim neither processes nor answers, but [`FaultyActor::revive`]
//! disarms the plan so the victim resumes from its retained state (counted
//! in [`InjectionStats::revived`]; [`FaultyActor::rearm`] re-arms it).  The
//! lifecycle plane's warm restart calls the revive hook automatically via
//! `on_recover`, so a crash-injected member scheduled to recover really
//! does come back — the substrate of the recovery and rolling-restart
//! scenarios.
//!
//! ## Example
//!
//! ```
//! use fs_common::id::ProcessId;
//! use fs_common::Frame;
//! use fs_faults::{FaultKind, FaultPlan, FaultyActor};
//! use fs_simnet::actor::{Actor, Context, TestContext};
//!
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
//!         ctx.send(from, payload);
//!     }
//! }
//!
//! // A victim that silently crashes after its second message.
//! let mut victim = FaultyActor::new(Box::new(Echo), FaultPlan::after(2, FaultKind::Crash), 1);
//! let mut ctx = TestContext::new(ProcessId(0));
//! for i in 0..5u8 {
//!     victim.on_message(&mut ctx, ProcessId(1), vec![i].into());
//! }
//! assert_eq!(ctx.sent.len(), 2); // everything after the crash is lost
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod injector;

pub use injector::{FaultKind, FaultPlan, FaultyActor, InjectionStats};
