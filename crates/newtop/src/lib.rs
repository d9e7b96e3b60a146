//! # fs-newtop
//!
//! A from-scratch implementation of the **NewTOP** group-communication
//! service — the crash-tolerant, partitionable, CORBA-based middleware that
//! the paper extends into FS-NewTOP.  It provides:
//!
//! * the deterministic **GC machine** ([`gc::GcMachine`]) composing symmetric
//!   total order, asymmetric (sequencer) total order, causal order, reliable
//!   and simple multicast, and partitionable membership;
//! * the timeout-based **failure suspector** ([`suspector`]) whose (possibly
//!   false) suspicions drive view changes in the crash-tolerant deployment —
//!   the baseline system measured in the paper, where the harness's one
//!   crash host (`fs_harness::PlainHost`) runs the GC machine on a simulated
//!   or threaded node with the suspector plugged in as its failure detector;
//! * the **application workload process** ([`app::AppProcess`]) used by the
//!   benchmark harness to reproduce Figures 6–8.
//!
//! Because the GC machine is a deterministic state machine, the `failsignal`
//! crate can wrap the *same* object into a fail-signal pair to obtain
//! FS-NewTOP with no change to this crate — precisely the structured reuse
//! the paper advocates.
//!
//! ## Example: two members agree on a total order
//!
//! ```
//! use fs_common::codec::Wire;
//! use fs_common::id::MemberId;
//! use fs_newtop::gc::{GcConfig, GcCosts, GcMachine};
//! use fs_newtop::message::{AppRequest, ServiceKind};
//! use fs_smr::machine::{DeterministicMachine, Endpoint, MachineInput};
//!
//! let group: Vec<MemberId> = (0..2).map(MemberId).collect();
//! let mut a = GcMachine::new(GcConfig::new(MemberId(0), group.clone()).with_costs(GcCosts::free()));
//! let mut b = GcMachine::new(GcConfig::new(MemberId(1), group).with_costs(GcCosts::free()));
//!
//! // Member 0 multicasts through the symmetric total-order service.
//! let request = AppRequest { service: ServiceKind::SymmetricTotal, payload: b"hello"[..].into() };
//! let out_a = a.handle(&MachineInput::from_app(request.to_wire()));
//!
//! // Relay member 0's data multicast to member 1 and the acknowledgement back.
//! let data = out_a.iter().find(|o| o.dest == Endpoint::Broadcast).unwrap();
//! let out_b = b.handle(&MachineInput::from_peer(MemberId(0), data.bytes.clone()));
//! let ack = out_b.iter().find(|o| o.dest == Endpoint::Broadcast).unwrap();
//! a.handle(&MachineInput::from_peer(MemberId(1), ack.bytes.clone()));
//!
//! // Both members have now delivered the message in the same order.
//! assert_eq!(a.delivered().len(), 1);
//! assert_eq!(b.delivered(), a.delivered());
//! assert_eq!(a.delivered()[0].payload_len, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod causal;
pub mod gc;
pub mod message;
pub mod reliable;
pub mod suspector;
pub mod total_asym;
pub mod total_sym;
pub mod view;

pub use app::AppProcess;
pub use gc::{GcConfig, GcCosts, GcMachine};
pub use message::{
    AppDeliver, AppRequest, ControlInput, GcMessage, ServiceKind, Upcall, ViewDeliver,
};
pub use suspector::{PingSuspector, SuspectorConfig};
pub use view::{MembershipState, View};
