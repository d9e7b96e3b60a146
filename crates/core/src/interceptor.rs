//! The client-side interceptor between an application and its local FS pair.
//!
//! §3.1: "A call to NewTOP GC, either from the Invocation layer or from a
//! remote NewTOP GC, is intercepted on the fly and is submitted to both GC
//! and GC' … Similarly, a double-signed response returned by FSO and FSO' to
//! the Invocation layer is intercepted, signatures stripped and duplicates
//! suppressed."
//!
//! [`FsInterceptor`] plays exactly that role on the application node, for
//! *any* wrapped service: it fans the invocation layer's requests out to both
//! wrappers of the local FS pair, and it verifies / deduplicates / strips the
//! pair's double-signed upcalls before handing them to the application,
//! keeping the wrapping completely transparent to both the application and
//! the wrapped machine.  (It contains no NewTOP-specific code — which is why
//! the generic group builder in [`crate::group`] reuses it unchanged for
//! every service.)

use std::sync::Arc;

use fs_common::codec::Wire;
use fs_common::id::{FsId, ProcessId};
use fs_common::time::SimDuration;
use fs_common::Frame;
use fs_crypto::keys::{KeyDirectory, SignerId};
use fs_simnet::actor::{Actor, Context};

use crate::message::FsoInbound;
use crate::receiver::{FsDelivery, FsReceiver, ReceiverStats};

/// The interceptor between one application process and its local FS pair.
pub struct FsInterceptor {
    app: ProcessId,
    leader: ProcessId,
    follower: ProcessId,
    local_fs: FsId,
    receiver: FsReceiver,
    local_fail_signalled: bool,
    requests_forwarded: u64,
    upcalls_delivered: u64,
}

impl std::fmt::Debug for FsInterceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsInterceptor")
            .field("fs", &self.local_fs)
            .field("requests_forwarded", &self.requests_forwarded)
            .field("upcalls_delivered", &self.upcalls_delivered)
            .field("local_fail_signalled", &self.local_fail_signalled)
            .finish()
    }
}

impl FsInterceptor {
    /// Creates an interceptor for application `app` whose local FS pair is
    /// `(leader, follower)` with identity `local_fs`.
    pub fn new(
        app: ProcessId,
        local_fs: FsId,
        leader: ProcessId,
        follower: ProcessId,
        directory: Arc<KeyDirectory>,
    ) -> Self {
        let mut receiver = FsReceiver::new(directory);
        receiver.register_source(local_fs, (SignerId(leader), SignerId(follower)));
        Self {
            app,
            leader,
            follower,
            local_fs,
            receiver,
            local_fail_signalled: false,
            requests_forwarded: 0,
            upcalls_delivered: 0,
        }
    }

    /// Whether the local FS pair has emitted its fail-signal.
    pub fn local_fail_signalled(&self) -> bool {
        self.local_fail_signalled
    }

    /// Requests forwarded from the application to the pair.
    pub fn requests_forwarded(&self) -> u64 {
        self.requests_forwarded
    }

    /// Upcalls delivered from the pair to the application.
    pub fn upcalls_delivered(&self) -> u64 {
        self.upcalls_delivered
    }

    /// The verification/duplicate counters of the underlying receiver.
    pub fn receiver_stats(&self) -> ReceiverStats {
        self.receiver.stats()
    }
}

impl Actor for FsInterceptor {
    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
        if from == self.app {
            // A request from the invocation layer: submit it to both wrapper
            // objects (the leader orders it, the follower checks the
            // ordering).  The request becomes one opaque byte string here —
            // the only copy of a spliced request on its way to the machines
            // — and the envelope is then spliced around it.
            self.requests_forwarded += 1;
            ctx.charge_cpu(SimDuration::from_micros(50));
            let wrapped = FsoInbound::Raw(payload.into_bytes()).to_frame();
            ctx.send(self.leader, wrapped.clone());
            ctx.send(self.follower, wrapped);
            return;
        }
        if from != self.leader && from != self.follower {
            return;
        }
        // A (claimed) double-signed response from the local pair.
        ctx.charge_cpu(SimDuration::from_micros(100));
        match self.receiver.accept_frame(&payload) {
            Some(FsDelivery::Output { bytes, .. }) => {
                self.upcalls_delivered += 1;
                ctx.send(self.app, bytes.into());
            }
            Some(FsDelivery::FailSignal { fs }) if fs == self.local_fs => {
                self.local_fail_signalled = true;
                ctx.trace("local FS pair fail-signalled");
            }
            Some(FsDelivery::FailSignal { .. }) | None => {}
        }
    }

    fn name(&self) -> String {
        format!("fs-interceptor-{}", self.local_fs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{FsContent, FsOutput};
    use fs_common::rng::DetRng;
    use fs_crypto::keys::provision;
    use fs_simnet::actor::TestContext;
    use fs_smr::machine::Endpoint;

    const APP: ProcessId = ProcessId(10);
    const LEADER: ProcessId = ProcessId(2);
    const FOLLOWER: ProcessId = ProcessId(3);

    fn setup() -> (
        FsInterceptor,
        TestContext,
        fs_crypto::keys::SigningKey,
        fs_crypto::keys::SigningKey,
    ) {
        let mut rng = DetRng::new(3);
        let (mut keys, dir) = provision([LEADER, FOLLOWER], &mut rng);
        let leader_key = keys.remove(&SignerId(LEADER)).unwrap();
        let follower_key = keys.remove(&SignerId(FOLLOWER)).unwrap();
        let interceptor = FsInterceptor::new(APP, FsId(0), LEADER, FOLLOWER, dir);
        (
            interceptor,
            TestContext::new(ProcessId(1)),
            leader_key,
            follower_key,
        )
    }

    #[test]
    fn app_requests_go_to_both_wrappers() {
        let (mut i, mut ctx, _, _) = setup();
        i.on_message(&mut ctx, APP, b"request"[..].into());
        assert_eq!(ctx.sent_to(LEADER).len(), 1);
        assert_eq!(ctx.sent_to(FOLLOWER).len(), 1);
        assert_eq!(i.requests_forwarded(), 1);
        // Both copies carry the raw request inside the FS envelope.
        let decoded = FsoInbound::from_frame(&ctx.sent[0].payload).unwrap();
        assert_eq!(decoded, FsoInbound::Raw(b"request"[..].into()));
    }

    #[test]
    fn valid_upcall_is_stripped_and_duplicates_suppressed() {
        let (mut i, mut ctx, leader_key, follower_key) = setup();
        let content = FsContent::Output {
            output_seq: 0,
            dest: Endpoint::LocalApp,
            bytes: b"upcall"[..].into(),
        };
        let from_leader = FsOutput::sign(FsId(0), content.clone(), &leader_key, &follower_key);
        let from_follower = FsOutput::sign(FsId(0), content, &follower_key, &leader_key);
        i.on_message(
            &mut ctx,
            LEADER,
            FsoInbound::External(from_leader).to_frame(),
        );
        i.on_message(
            &mut ctx,
            FOLLOWER,
            FsoInbound::External(from_follower).to_frame(),
        );
        let to_app = ctx.sent_to(APP);
        assert_eq!(to_app.len(), 1);
        assert_eq!(to_app[0].payload, b"upcall");
        assert_eq!(i.upcalls_delivered(), 1);
        assert_eq!(i.receiver_stats().duplicates, 1);
    }

    #[test]
    fn fail_signal_is_noted_not_forwarded() {
        let (mut i, mut ctx, leader_key, follower_key) = setup();
        let signal = FsOutput::sign(FsId(0), FsContent::FailSignal, &leader_key, &follower_key);
        i.on_message(&mut ctx, LEADER, FsoInbound::External(signal).to_frame());
        assert!(i.local_fail_signalled());
        assert!(ctx.sent_to(APP).is_empty());
    }

    #[test]
    fn forged_or_stranger_messages_are_dropped() {
        let (mut i, mut ctx, leader_key, _) = setup();
        // From an unknown process: ignored entirely.
        i.on_message(&mut ctx, ProcessId(99), b"junk"[..].into());
        assert!(ctx.sent.is_empty());
        // From the leader but signed only by the leader twice: rejected.
        let forged = FsOutput::sign(
            FsId(0),
            FsContent::Output {
                output_seq: 1,
                dest: Endpoint::LocalApp,
                bytes: b"x"[..].into(),
            },
            &leader_key,
            &leader_key,
        );
        i.on_message(&mut ctx, LEADER, FsoInbound::External(forged).to_frame());
        assert!(ctx.sent_to(APP).is_empty());
        assert_eq!(i.receiver_stats().rejected, 1);
        assert_eq!(i.name(), "fs-interceptor-0");
    }
}
