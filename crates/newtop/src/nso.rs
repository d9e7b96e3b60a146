//! The NewTOP Service Object (NSO) adapter for crash-tolerant deployments.
//!
//! [`NsoActor`] hosts a [`GcMachine`] directly on a simulated (or threaded)
//! node: application requests arriving from the local application process are
//! fed to the machine as `LocalApp` inputs, peer messages as `Peer` inputs,
//! and the ping-based [`PingSuspector`] converts missing pongs into `Suspect`
//! control inputs.  This is the *original*, crash-tolerant NewTOP deployment
//! that the paper's measurements use as the baseline.

use std::collections::BTreeMap;

use fs_common::codec::Wire;
use fs_common::id::{MemberId, ProcessId};
use fs_common::Frame;
use fs_simnet::actor::{Actor, Context, TimerId};
use fs_smr::machine::{DeterministicMachine, Endpoint, MachineInput, MachineOutput};

use crate::gc::{GcConfig, GcMachine};
use crate::message::{ControlInput, GcMessage};
use crate::suspector::{PingSuspector, SuspectorConfig};

/// Timer used by the suspector's periodic ping round.
pub const TIMER_SUSPECTOR: TimerId = TimerId(1);

/// Who this NSO talks to: the local application process and the peer NSO
/// process of every other group member.
#[derive(Debug, Clone, Default)]
pub struct AddressBook {
    /// The local application process (the NSO's client).
    pub app: ProcessId,
    /// The NSO process serving each other member.
    pub peers: BTreeMap<MemberId, ProcessId>,
}

impl AddressBook {
    /// Creates an address book for a local application and a set of peers.
    pub fn new(app: ProcessId, peers: BTreeMap<MemberId, ProcessId>) -> Self {
        Self { app, peers }
    }

    /// Looks up the member served by a given peer process.
    pub fn member_of(&self, process: ProcessId) -> Option<MemberId> {
        self.peers
            .iter()
            .find(|(_, p)| **p == process)
            .map(|(m, _)| *m)
    }

    /// Looks up the process serving a given member.
    pub fn process_of(&self, member: MemberId) -> Option<ProcessId> {
        self.peers.get(&member).copied()
    }
}

/// The crash-tolerant NewTOP service object: GC machine + suspector +
/// address book, exposed as a simulation/threaded-runtime actor.
pub struct NsoActor {
    machine: GcMachine,
    addresses: AddressBook,
    suspector: PingSuspector,
}

impl std::fmt::Debug for NsoActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NsoActor")
            .field("member", &self.machine.member())
            .field("view", &self.machine.view().id)
            .finish()
    }
}

impl NsoActor {
    /// Creates an NSO for the given GC configuration, addresses and
    /// suspector settings.
    pub fn new(gc: GcConfig, addresses: AddressBook, suspector: SuspectorConfig) -> Self {
        Self {
            machine: GcMachine::new(gc),
            addresses,
            suspector: PingSuspector::new(suspector),
        }
    }

    /// Read access to the wrapped GC machine (for tests and experiments).
    pub fn machine(&self) -> &GcMachine {
        &self.machine
    }

    /// Read access to the suspector.
    pub fn suspector(&self) -> &PingSuspector {
        &self.suspector
    }

    fn route_outputs(&mut self, ctx: &mut dyn Context, outputs: Vec<MachineOutput>) {
        for output in outputs {
            match output.dest {
                Endpoint::LocalApp => ctx.send(self.addresses.app, output.bytes.into()),
                Endpoint::Peer(member) => {
                    if let Some(process) = self.addresses.process_of(member) {
                        ctx.send(process, output.bytes.into());
                    }
                }
                Endpoint::Broadcast => {
                    for (_, process) in self.addresses.peers.iter() {
                        ctx.send(*process, output.bytes.clone().into());
                    }
                }
                Endpoint::Environment => {
                    // Control outputs are not produced by the GC machine.
                }
            }
        }
    }

    fn feed_machine(&mut self, ctx: &mut dyn Context, input: MachineInput) {
        ctx.charge_cpu(self.machine.processing_cost(&input));
        let outputs = self.machine.handle(&input);
        self.route_outputs(ctx, outputs);
    }
}

impl Actor for NsoActor {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.suspector.is_enabled() {
            ctx.set_timer(self.suspector.interval(), TIMER_SUSPECTOR);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
        // The machine takes one contiguous buffer: free for a frame that is
        // one (every peer message), the one copy of a spliced request.
        let payload = payload.into_bytes();
        if from == self.addresses.app {
            self.feed_machine(ctx, MachineInput::from_app(payload));
            return;
        }
        let Some(member) = self.addresses.member_of(from) else {
            // Unknown senders are ignored: NewTOP only serves its group.
            return;
        };
        // The suspector watches pongs at the adapter level; everything is
        // still forwarded to the deterministic machine, which decodes the
        // message itself — so only a pong is decoded here.
        if let Some((ponger, nonce)) = GcMessage::decode_pong(&payload) {
            self.suspector.on_pong(ponger, nonce);
        }
        self.feed_machine(ctx, MachineInput::from_peer(member, payload));
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, timer: TimerId) {
        if timer != TIMER_SUSPECTOR {
            return;
        }
        let peers: Vec<MemberId> = self
            .machine
            .view()
            .members_sorted()
            .into_iter()
            .filter(|m| *m != self.machine.member())
            .collect();
        let actions = self.suspector.tick(ctx.now(), &peers);
        for (peer, nonce) in actions.pings {
            if let Some(process) = self.addresses.process_of(peer) {
                let ping = GcMessage::Ping {
                    from: self.machine.member(),
                    nonce,
                };
                ctx.send(process, ping.to_wire().into());
            }
        }
        for suspect in actions.suspicions {
            ctx.trace(&format!("suspect {suspect}"));
            let control = ControlInput::Suspect(suspect).to_wire();
            self.feed_machine(ctx, MachineInput::from_env(control));
        }
        if self.suspector.is_enabled() {
            ctx.set_timer(self.suspector.interval(), TIMER_SUSPECTOR);
        }
    }

    fn name(&self) -> String {
        format!("nso-{}", self.machine.member().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{AppRequest, ServiceKind, Upcall};
    use fs_common::time::SimDuration;
    use fs_simnet::actor::TestContext;

    fn addresses(app: u32, peers: &[(u32, u32)]) -> AddressBook {
        AddressBook::new(
            ProcessId(app),
            peers
                .iter()
                .map(|(m, p)| (MemberId(*m), ProcessId(*p)))
                .collect(),
        )
    }

    fn gc_config(member: u32, group: &[u32]) -> GcConfig {
        GcConfig::new(
            MemberId(member),
            group.iter().copied().map(MemberId).collect(),
        )
    }

    #[test]
    fn address_book_lookups() {
        let book = addresses(10, &[(1, 11), (2, 12)]);
        assert_eq!(book.member_of(ProcessId(11)), Some(MemberId(1)));
        assert_eq!(book.member_of(ProcessId(99)), None);
        assert_eq!(book.process_of(MemberId(2)), Some(ProcessId(12)));
        assert_eq!(book.process_of(MemberId(9)), None);
    }

    #[test]
    fn app_request_is_multicast_to_peers() {
        let mut nso = NsoActor::new(
            gc_config(0, &[0, 1, 2]),
            addresses(10, &[(1, 11), (2, 12)]),
            SuspectorConfig::disabled(),
        );
        let mut ctx = TestContext::new(ProcessId(20));
        let request = AppRequest {
            service: ServiceKind::SymmetricTotal,
            payload: b"hi".to_vec().into(),
        };
        nso.on_message(&mut ctx, ProcessId(10), request.to_frame());
        // One data message to each of the two peers.
        assert_eq!(ctx.sent_to(ProcessId(11)).len(), 1);
        assert_eq!(ctx.sent_to(ProcessId(12)).len(), 1);
        // CPU was charged for the protocol processing.
        assert!(ctx.cpu > SimDuration::ZERO);
    }

    #[test]
    fn peer_data_produces_acks_and_unknown_senders_are_ignored() {
        let mut nso = NsoActor::new(
            gc_config(0, &[0, 1]),
            addresses(10, &[(1, 11)]),
            SuspectorConfig::disabled(),
        );
        let mut ctx = TestContext::new(ProcessId(20));
        let data = GcMessage::Data {
            origin: MemberId(1),
            seq: 0,
            ts: 1,
            vc: vec![],
            service: ServiceKind::SymmetricTotal,
            payload: b"x".to_vec().into(),
        };
        nso.on_message(&mut ctx, ProcessId(11), data.to_frame());
        // The ack goes back to the peer; with both acks in hand the delivery
        // goes up to the app.
        assert_eq!(ctx.sent_to(ProcessId(11)).len(), 1);
        let to_app = ctx.sent_to(ProcessId(10));
        assert_eq!(to_app.len(), 1);
        assert!(matches!(
            Upcall::from_frame(&to_app[0].payload).unwrap(),
            Upcall::Deliver(_)
        ));

        // A message from an unknown process does nothing.
        let before = ctx.sent.len();
        nso.on_message(&mut ctx, ProcessId(99), b"junk"[..].into());
        assert_eq!(ctx.sent.len(), before);
    }

    #[test]
    fn suspector_timer_sends_pings_then_suspicions() {
        let mut nso = NsoActor::new(
            gc_config(0, &[0, 1]),
            addresses(10, &[(1, 11)]),
            SuspectorConfig::aggressive(SimDuration::from_millis(100)),
        );
        let mut ctx = TestContext::new(ProcessId(20));
        nso.on_start(&mut ctx);
        assert_eq!(ctx.timers_set.len(), 1);

        // First round: a ping to the peer.
        nso.on_timer(&mut ctx, TIMER_SUSPECTOR);
        assert_eq!(ctx.sent_to(ProcessId(11)).len(), 1);

        // No pong arrives; past the timeout the peer is suspected and a view
        // change (plus gossip) is produced.
        ctx.advance(SimDuration::from_millis(500));
        nso.on_timer(&mut ctx, TIMER_SUSPECTOR);
        assert!(nso.suspector().suspected().contains(&MemberId(1)));
        assert_eq!(nso.machine().view().id, 1);
        // The view change is delivered to the application.
        let view_upcalls = ctx
            .sent_to(ProcessId(10))
            .iter()
            .filter(|o| matches!(Upcall::from_frame(&o.payload), Ok(Upcall::View(_))))
            .count();
        assert_eq!(view_upcalls, 1);
    }

    #[test]
    fn pong_clears_outstanding_ping() {
        let mut nso = NsoActor::new(
            gc_config(0, &[0, 1]),
            addresses(10, &[(1, 11)]),
            SuspectorConfig::aggressive(SimDuration::from_millis(100)),
        );
        let mut ctx = TestContext::new(ProcessId(20));
        nso.on_start(&mut ctx);
        nso.on_timer(&mut ctx, TIMER_SUSPECTOR);
        // The peer answers with the right nonce (nonce 0 is the first one).
        let pong = GcMessage::Pong {
            from: MemberId(1),
            nonce: 0,
        };
        nso.on_message(&mut ctx, ProcessId(11), pong.to_frame());
        ctx.advance(SimDuration::from_millis(500));
        nso.on_timer(&mut ctx, TIMER_SUSPECTOR);
        assert!(nso.suspector().suspected().is_empty());
        assert_eq!(nso.machine().view().id, 0);
    }

    #[test]
    fn disabled_suspector_sets_no_timer() {
        let mut nso = NsoActor::new(
            gc_config(0, &[0, 1]),
            addresses(10, &[(1, 11)]),
            SuspectorConfig::disabled(),
        );
        let mut ctx = TestContext::new(ProcessId(20));
        nso.on_start(&mut ctx);
        assert!(ctx.timers_set.is_empty());
        assert_eq!(nso.name(), "nso-0");
    }
}
