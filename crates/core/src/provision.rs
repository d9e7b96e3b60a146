//! Building a fail-signal pair: keys, pre-armed fail-signals and the two
//! wrapper configurations.
//!
//! [`FsPairBuilder`] captures the start-up step of §2.1: when the two nodes
//! are paired (and assumed correct, A1), each Compare process is supplied
//! with its partner's verification key and with the pair's fail-signal
//! message already signed by the partner.

use std::collections::BTreeMap;
use std::sync::Arc;

use fs_common::config::TimingAssumptions;
use fs_common::id::{FsId, ProcessId, Role};
use fs_common::Bytes;
use fs_crypto::cost::CryptoCostModel;
use fs_crypto::keys::{KeyDirectory, SignerId, SigningKey};
use fs_crypto::sig::Signature;
use fs_smr::machine::{DeterministicMachine, Endpoint};

use crate::config::{FsoConfig, RouteTable, SourceSpec};
use crate::message::Statement;
use crate::wrapper::FsoActor;

/// The physical identities of a fail-signal pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsPairSpec {
    /// The logical FS process.
    pub fs: FsId,
    /// The process identifier of the leader wrapper (FSO).
    pub leader: ProcessId,
    /// The process identifier of the follower wrapper (FSO').
    pub follower: ProcessId,
}

impl FsPairSpec {
    /// Creates a pair specification.
    pub fn new(fs: FsId, leader: ProcessId, follower: ProcessId) -> Self {
        Self {
            fs,
            leader,
            follower,
        }
    }

    /// The signer identities of the pair, leader first.
    pub fn signers(&self) -> (SignerId, SignerId) {
        (SignerId(self.leader), SignerId(self.follower))
    }
}

/// Builds the two wrapper actors of one fail-signal pair.
#[derive(Debug, Clone)]
pub struct FsPairBuilder {
    spec: FsPairSpec,
    timing: TimingAssumptions,
    crypto_costs: CryptoCostModel,
    sources: BTreeMap<ProcessId, SourceSpec>,
    fail_signal_inputs: BTreeMap<FsId, Bytes>,
    routes: RouteTable,
}

impl FsPairBuilder {
    /// Starts building a pair with default timing assumptions and the
    /// era-2003 cryptography cost model.
    pub fn new(spec: FsPairSpec) -> Self {
        Self {
            spec,
            timing: TimingAssumptions::default(),
            crypto_costs: CryptoCostModel::era_2003(),
            sources: BTreeMap::new(),
            fail_signal_inputs: BTreeMap::new(),
            routes: RouteTable::new(),
        }
    }

    /// Overrides the timing assumptions (δ, κ, σ).
    pub fn timing(mut self, timing: TimingAssumptions) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides the cryptography cost model.
    pub fn crypto_costs(mut self, costs: CryptoCostModel) -> Self {
        self.crypto_costs = costs;
        self
    }

    /// Declares a trusted co-located client whose raw messages are fed to
    /// the machine as coming from `endpoint`.
    pub fn trust_client(mut self, process: ProcessId, endpoint: Endpoint) -> Self {
        self.sources
            .insert(process, SourceSpec::TrustedClient { endpoint });
        self
    }

    /// Declares another FS process as a source: messages from either of its
    /// wrapper processes must be valid double-signed outputs of `signers`,
    /// and are fed to the machine as coming from `endpoint`.
    pub fn accept_fs_source(
        mut self,
        wrapper_processes: (ProcessId, ProcessId),
        fs: FsId,
        signers: (SignerId, SignerId),
        endpoint: Endpoint,
    ) -> Self {
        let spec = SourceSpec::FsProcess {
            fs,
            signers,
            endpoint,
        };
        self.sources.insert(wrapper_processes.0, spec.clone());
        self.sources.insert(wrapper_processes.1, spec);
        self
    }

    /// Declares the machine input to inject (from the environment endpoint)
    /// when the fail-signal of source `fs` is received.
    pub fn on_fail_signal(mut self, fs: FsId, injected: impl Into<Bytes>) -> Self {
        self.fail_signal_inputs.insert(fs, injected.into());
        self
    }

    /// Routes a logical output destination to a set of physical processes.
    pub fn route(mut self, endpoint: Endpoint, processes: Vec<ProcessId>) -> Self {
        self.routes.set(endpoint, processes);
        self
    }

    /// Builds the leader and follower wrapper actors.
    ///
    /// `leader_key` and `follower_key` must be the signing keys registered in
    /// `directory` under the pair's process identifiers; `machines` are the
    /// two replicas of the target deterministic machine (they must be freshly
    /// constructed, identical-state instances).
    pub fn build(
        self,
        leader_key: SigningKey,
        follower_key: SigningKey,
        directory: Arc<KeyDirectory>,
        machines: (Box<dyn DeterministicMachine>, Box<dyn DeterministicMachine>),
    ) -> (FsoActor, FsoActor) {
        let fail_signal = Statement::fail_signal(self.spec.fs);
        let fail_bytes = fail_signal.as_bytes();
        // Each wrapper is pre-armed with the OTHER wrapper's share of the
        // fail-signal, so it can emit a valid double-signed fail-signal alone.
        let leader_prearmed: Signature = Signature::sign(&follower_key, fail_bytes);
        let follower_prearmed: Signature = Signature::sign(&leader_key, fail_bytes);

        let leader_config = FsoConfig {
            fs: self.spec.fs,
            role: Role::Leader,
            me: self.spec.leader,
            partner: self.spec.follower,
            key: leader_key,
            partner_signer: SignerId(self.spec.follower),
            prearmed_fail_signal: leader_prearmed,
            directory: Arc::clone(&directory),
            sources: self.sources.clone(),
            fail_signal_inputs: self.fail_signal_inputs.clone(),
            routes: self.routes.clone(),
            timing: self.timing,
            crypto_costs: self.crypto_costs,
        };
        let follower_config = FsoConfig {
            fs: self.spec.fs,
            role: Role::Follower,
            me: self.spec.follower,
            partner: self.spec.leader,
            key: follower_key,
            partner_signer: SignerId(self.spec.leader),
            prearmed_fail_signal: follower_prearmed,
            directory,
            sources: self.sources,
            fail_signal_inputs: self.fail_signal_inputs,
            routes: self.routes,
            timing: self.timing,
            crypto_costs: self.crypto_costs,
        };
        (
            FsoActor::new(leader_config, machines.0),
            FsoActor::new(follower_config, machines.1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{FsContent, FsOutput, FsoInbound, PairMessage};
    use crate::receiver::{FsDelivery, FsReceiver};
    use crate::wrapper::FsoStats;
    use fs_common::codec::Wire;
    use fs_common::rng::DetRng;
    use fs_common::time::SimDuration;
    use fs_common::Frame;
    use fs_crypto::keys::provision;
    use fs_simnet::actor::{Actor, Outgoing, TestContext, TimerId};
    use fs_smr::machine::{EchoMachine, MachineInput, MachineOutput};

    const LEADER: ProcessId = ProcessId(0);
    const FOLLOWER: ProcessId = ProcessId(1);
    const CLIENT: ProcessId = ProcessId(10);
    const DEST_A: ProcessId = ProcessId(20);
    const DEST_B: ProcessId = ProcessId(21);

    /// A two-wrapper harness driven by hand through `TestContext`s.
    struct Pair {
        leader: FsoActor,
        follower: FsoActor,
        leader_ctx: TestContext,
        follower_ctx: TestContext,
        /// Messages that left the pair towards external destinations.
        external: Vec<(ProcessId, Frame)>,
        receiver: FsReceiver,
    }

    impl Pair {
        fn new() -> Self {
            Self::with_machines(Box::new(EchoMachine::new(0)), Box::new(EchoMachine::new(0)))
        }

        fn with_machines(
            m_leader: Box<dyn DeterministicMachine>,
            m_follower: Box<dyn DeterministicMachine>,
        ) -> Self {
            let mut rng = DetRng::new(11);
            let (mut keys, directory) = provision([LEADER, FOLLOWER], &mut rng);
            let leader_key = keys.remove(&SignerId(LEADER)).unwrap();
            let follower_key = keys.remove(&SignerId(FOLLOWER)).unwrap();
            let spec = FsPairSpec::new(FsId(1), LEADER, FOLLOWER);
            let builder = FsPairBuilder::new(spec)
                .crypto_costs(CryptoCostModel::free())
                .trust_client(CLIENT, Endpoint::LocalApp)
                .route(Endpoint::LocalApp, vec![DEST_A, DEST_B]);
            let (leader, follower) = builder.build(
                leader_key,
                follower_key,
                Arc::clone(&directory),
                (m_leader, m_follower),
            );
            let mut receiver = FsReceiver::new(directory);
            receiver.register_source(FsId(1), spec.signers());
            Self {
                leader,
                follower,
                leader_ctx: TestContext::new(LEADER),
                follower_ctx: TestContext::new(FOLLOWER),
                external: Vec::new(),
                receiver,
            }
        }

        /// Delivers the client's raw input to both wrappers (as the source
        /// FS process would) and relays pair traffic until quiescence.
        fn client_input(&mut self, bytes: &[u8]) {
            let wire = FsoInbound::Raw(bytes.to_vec().into()).to_frame();
            self.leader
                .on_message(&mut self.leader_ctx, CLIENT, wire.clone());
            self.follower
                .on_message(&mut self.follower_ctx, CLIENT, wire);
            self.settle();
        }

        /// Moves every pending message between the two wrappers (and collects
        /// external transmissions) until nothing is in flight.
        fn settle(&mut self) {
            loop {
                let leader_out = self.leader_ctx.take_sent();
                let follower_out = self.follower_ctx.take_sent();
                if leader_out.is_empty() && follower_out.is_empty() {
                    break;
                }
                for Outgoing { to, payload } in leader_out {
                    if to == FOLLOWER {
                        self.follower
                            .on_message(&mut self.follower_ctx, LEADER, payload);
                    } else {
                        self.external.push((to, payload));
                    }
                }
                for Outgoing { to, payload } in follower_out {
                    if to == LEADER {
                        self.leader
                            .on_message(&mut self.leader_ctx, FOLLOWER, payload);
                    } else {
                        self.external.push((to, payload));
                    }
                }
            }
        }

        /// Runs every external transmission through the validity checker and
        /// returns the accepted deliveries.
        fn accepted(&mut self) -> Vec<FsDelivery> {
            self.external
                .iter()
                .filter_map(|(_, payload)| self.receiver.accept_frame(payload))
                .collect()
        }
    }

    #[test]
    fn pair_produces_one_valid_output_per_input() {
        let mut pair = Pair::new();
        pair.client_input(b"request-1");
        // Each wrapper transmits its double-signed copy to both destinations:
        // 2 wrappers × 2 destinations = 4 transmissions.
        assert_eq!(pair.external.len(), 4);
        let deliveries = pair.accepted();
        // Only one survives verification + duplicate suppression.
        assert_eq!(deliveries.len(), 1);
        match &deliveries[0] {
            FsDelivery::Output { fs, bytes, .. } => {
                assert_eq!(*fs, FsId(1));
                assert_eq!(bytes, b"request-1");
            }
            other => panic!("unexpected delivery {other:?}"),
        }
        assert!(!pair.leader.has_failed());
        assert!(!pair.follower.has_failed());
        assert_eq!(pair.leader.stats().outputs_validated, 1);
        assert_eq!(pair.follower.stats().outputs_validated, 1);
    }

    #[test]
    fn multiple_inputs_keep_identical_order_at_both_replicas() {
        let mut pair = Pair::new();
        for i in 0..10u8 {
            pair.client_input(&[i]);
        }
        let deliveries = pair.accepted();
        assert_eq!(deliveries.len(), 10);
        assert_eq!(pair.leader.stats().inputs_processed, 10);
        assert_eq!(pair.follower.stats().inputs_processed, 10);
        assert_eq!(pair.leader.stats().mismatches, 0);
    }

    #[test]
    fn input_reaching_only_the_follower_is_forwarded_and_processed() {
        let mut pair = Pair::new();
        // The client copy to the leader is lost; only the follower hears it.
        let wire = FsoInbound::Raw(b"lonely".to_vec().into()).to_frame();
        pair.follower
            .on_message(&mut pair.follower_ctx, CLIENT, wire);
        pair.settle();
        let deliveries = pair.accepted();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(pair.leader.stats().inputs_processed, 1);
        assert_eq!(pair.follower.stats().inputs_processed, 1);
    }

    #[test]
    fn diverging_replica_triggers_fail_signal() {
        /// A machine that reports a different result than its twin after a
        /// few inputs (a silent data-corrupting fault).
        struct Corrupting {
            inner: EchoMachine,
            after: usize,
            count: usize,
        }
        impl DeterministicMachine for Corrupting {
            fn handle(&mut self, input: &MachineInput) -> Vec<MachineOutput> {
                self.count += 1;
                let mut out = self.inner.handle(input);
                if self.count > self.after {
                    for o in &mut out {
                        let mut corrupted = o.bytes.to_vec();
                        corrupted.push(0xEE);
                        o.bytes = corrupted.into();
                    }
                }
                out
            }
        }

        let mut pair = Pair::with_machines(
            Box::new(EchoMachine::new(0)),
            Box::new(Corrupting {
                inner: EchoMachine::new(0),
                after: 1,
                count: 0,
            }),
        );
        pair.client_input(b"fine");
        assert!(!pair.leader.has_failed());
        pair.client_input(b"now-corrupted");
        assert!(pair.leader.has_failed() || pair.follower.has_failed());
        let deliveries = pair.accepted();
        assert!(
            deliveries
                .iter()
                .any(|d| matches!(d, FsDelivery::FailSignal { fs } if *fs == FsId(1))),
            "destinations must learn about the failure via the fail-signal"
        );
    }

    #[test]
    fn comparison_timeout_triggers_fail_signal() {
        let mut pair = Pair::new();
        // Deliver the input to the leader only and do NOT relay pair traffic,
        // simulating a follower that has stopped responding.
        let wire = FsoInbound::Raw(b"unanswered".to_vec().into()).to_frame();
        pair.leader.on_message(&mut pair.leader_ctx, CLIENT, wire);
        // The leader armed a comparison timer for its pending output.
        let timers: Vec<TimerId> = pair.leader_ctx.timers_set.iter().map(|(_, t)| *t).collect();
        assert!(!timers.is_empty());
        for t in timers {
            pair.leader.on_timer(&mut pair.leader_ctx, t);
        }
        assert!(pair.leader.has_failed());
        assert_eq!(pair.leader.stats().timeouts, 1);
        // The fail-signal went to every routed destination.
        let signals: Vec<&Outgoing> = pair
            .leader_ctx
            .sent
            .iter()
            .filter(|o| {
                matches!(
                    FsoInbound::from_frame(&o.payload),
                    Ok(FsoInbound::External(out)) if out.is_fail_signal()
                )
            })
            .collect();
        assert_eq!(signals.len(), 2);
    }

    #[test]
    fn follower_detects_leader_that_never_orders() {
        let mut pair = Pair::new();
        let wire = FsoInbound::Raw(b"ignored-by-leader".to_vec().into()).to_frame();
        pair.follower
            .on_message(&mut pair.follower_ctx, CLIENT, wire);
        // The follower forwarded the input and armed the t2 = 2δ timer; the
        // leader never answers, so firing the timer must fail-signal.
        let timers: Vec<TimerId> = pair
            .follower_ctx
            .timers_set
            .iter()
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(timers.len(), 1);
        pair.follower.on_timer(&mut pair.follower_ctx, timers[0]);
        assert!(pair.follower.has_failed());
        assert_eq!(pair.follower.stats().timeouts, 1);
    }

    #[test]
    fn recovery_rearms_pending_comparison_deadlines() {
        let mut pair = Pair::new();
        let wire = FsoInbound::Raw(b"in-flight".to_vec().into()).to_frame();
        pair.leader.on_message(&mut pair.leader_ctx, CLIENT, wire);
        assert_eq!(pair.leader_ctx.timers_set.len(), 1);
        // A warm restart loses the armed deadline (the runtime drops every
        // timer of a downed process), so the wrapper re-arms one per pending
        // comparison on recovery — the entry still gets an outcome.
        pair.leader_ctx.timers_set.clear();
        pair.leader.on_recover(&mut pair.leader_ctx);
        let rearmed: Vec<TimerId> = pair.leader_ctx.timers_set.iter().map(|(_, t)| *t).collect();
        assert_eq!(rearmed.len(), 1);
        for t in rearmed {
            pair.leader.on_timer(&mut pair.leader_ctx, t);
        }
        assert!(
            pair.leader.has_failed(),
            "an unanswered re-armed deadline must still fail-signal"
        );
        // A wrapper that already fail-signalled stays silent on recovery.
        pair.leader_ctx.timers_set.clear();
        pair.leader.on_recover(&mut pair.leader_ctx);
        assert!(pair.leader_ctx.timers_set.is_empty());
    }

    #[test]
    fn recovery_rearms_the_follower_ordering_deadline() {
        let mut pair = Pair::new();
        let wire = FsoInbound::Raw(b"unordered".to_vec().into()).to_frame();
        pair.follower
            .on_message(&mut pair.follower_ctx, CLIENT, wire);
        assert_eq!(pair.follower_ctx.timers_set.len(), 1);
        pair.follower_ctx.timers_set.clear();
        pair.follower.on_recover(&mut pair.follower_ctx);
        let rearmed: Vec<TimerId> = pair
            .follower_ctx
            .timers_set
            .iter()
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(rearmed.len(), 1, "the t2 ordering deadline is re-armed");
        pair.follower.on_timer(&mut pair.follower_ctx, rearmed[0]);
        assert!(pair.follower.has_failed());
    }

    #[test]
    fn failed_wrapper_replies_with_fail_signal() {
        let mut pair = Pair::new();
        let wire = FsoInbound::Raw(b"x".to_vec().into()).to_frame();
        pair.leader
            .on_message(&mut pair.leader_ctx, CLIENT, wire.clone());
        let timers: Vec<TimerId> = pair.leader_ctx.timers_set.iter().map(|(_, t)| *t).collect();
        for t in timers {
            pair.leader.on_timer(&mut pair.leader_ctx, t);
        }
        assert!(pair.leader.has_failed());
        // The failure broadcast follows whatever pair traffic preceded it.
        let sent = pair.leader_ctx.take_sent();
        let signal = sent.last().expect("failure broadcasts").payload.clone();
        let broadcasts = sent.iter().filter(|o| o.payload == signal).count();
        // Any later message gets the fail-signal back — the very frame that
        // was broadcast on failure, not a re-signed, re-encoded copy.
        pair.leader
            .on_message(&mut pair.leader_ctx, CLIENT, wire.clone());
        pair.leader.on_message(&mut pair.leader_ctx, CLIENT, wire);
        let replies = pair.leader_ctx.sent_to(CLIENT);
        assert_eq!(replies.len(), 2);
        for reply in &replies {
            let Ok(FsoInbound::External(out)) = FsoInbound::from_frame(&reply.payload) else {
                panic!("expected an external fail-signal reply");
            };
            assert!(out.is_fail_signal());
            assert_eq!(reply.payload, signal);
            assert!(
                reply.payload.to_bytes().same_view(&signal.to_bytes()),
                "replies share the one encoded frame"
            );
        }
        assert_eq!(pair.leader.stats().fail_signals_sent, broadcasts as u64 + 2);
    }

    #[test]
    fn forged_candidate_from_outsider_is_rejected() {
        let mut pair = Pair::new();
        // An attacker (not the partner) sends a candidate message.
        let mut rng = DetRng::new(99);
        let (mut keys, _dir) = provision([ProcessId(66)], &mut rng);
        let attacker_key = keys.remove(&SignerId(ProcessId(66))).unwrap();
        let candidate = PairMessage::Candidate {
            output_seq: 0,
            dest: Endpoint::LocalApp,
            body_len: 4,
            digest: fs_crypto::sha256::Sha256::digest(b"evil"),
            signature: Signature::sign(&attacker_key, b"evil"),
        };
        let wire = FsoInbound::Pair(candidate).to_frame();
        pair.leader
            .on_message(&mut pair.leader_ctx, ProcessId(66), wire);
        // Not from the partner: rejected outright, no failure.
        assert_eq!(pair.leader.stats().rejected_inputs, 1);
        assert!(!pair.leader.has_failed());
    }

    #[test]
    fn bad_partner_signature_on_candidate_causes_failure() {
        let mut pair = Pair::new();
        // The partner's process id but a garbage signature: assumption A5
        // says this cannot happen for a correct node, so the wrapper treats
        // it as a fault and signals.
        let candidate = PairMessage::Candidate {
            output_seq: 0,
            dest: Endpoint::LocalApp,
            body_len: 8,
            digest: fs_crypto::sha256::Sha256::digest(b"tampered"),
            signature: Signature {
                signer: SignerId(FOLLOWER),
                tag: fs_crypto::sha256::Sha256::digest(b"garbage"),
            },
        };
        let wire = FsoInbound::Pair(candidate).to_frame();
        pair.leader.on_message(&mut pair.leader_ctx, FOLLOWER, wire);
        assert!(pair.leader.has_failed());
    }

    const UPSTREAM_A: ProcessId = ProcessId(30);
    const UPSTREAM_B: ProcessId = ProcessId(31);
    const UPSTREAM: FsId = FsId(7);

    /// A leader that accepts the upstream FS process 7 (wrappers 30 and 31)
    /// and converts its fail-signal into an environment input, driven by
    /// hand; plus an attacker who holds a key of its own only.
    struct Downstream {
        leader: FsoActor,
        ctx: TestContext,
        up_a: SigningKey,
        up_b: SigningKey,
        attacker: SigningKey,
    }

    impl Downstream {
        fn new(costs: CryptoCostModel) -> Self {
            let mut rng = DetRng::new(13);
            let attacker = ProcessId(55);
            let (mut keys, directory) = provision(
                [LEADER, FOLLOWER, UPSTREAM_A, UPSTREAM_B, attacker],
                &mut rng,
            );
            let mut key = |p| keys.remove(&SignerId(p)).unwrap();
            let (leader_key, follower_key) = (key(LEADER), key(FOLLOWER));
            let (leader, _follower) =
                FsPairBuilder::new(FsPairSpec::new(FsId(1), LEADER, FOLLOWER))
                    .crypto_costs(costs)
                    .accept_fs_source(
                        (UPSTREAM_A, UPSTREAM_B),
                        UPSTREAM,
                        (SignerId(UPSTREAM_A), SignerId(UPSTREAM_B)),
                        Endpoint::Peer(fs_common::id::MemberId(3)),
                    )
                    .on_fail_signal(UPSTREAM, b"SUSPECT:3".to_vec())
                    .route(Endpoint::LocalApp, vec![DEST_A])
                    .build(
                        leader_key,
                        follower_key,
                        directory,
                        (Box::new(EchoMachine::new(0)), Box::new(EchoMachine::new(0))),
                    );
            Self {
                leader,
                ctx: TestContext::new(LEADER),
                up_a: key(UPSTREAM_A),
                up_b: key(UPSTREAM_B),
                attacker: key(attacker),
            }
        }

        /// Output `seq` of the upstream process carrying `body`, signed by
        /// the given two keys.
        fn output(&self, seq: u64, body: &[u8], keys: (&SigningKey, &SigningKey)) -> Frame {
            let content = FsContent::Output {
                output_seq: seq,
                dest: Endpoint::LocalApp,
                bytes: body.to_vec().into(),
            };
            FsoInbound::External(FsOutput::sign(UPSTREAM, content, keys.0, keys.1)).to_frame()
        }

        /// Delivers `frame` as coming from `from`; returns the CPU charged.
        fn deliver(&mut self, from: ProcessId, frame: Frame) -> SimDuration {
            let before = self.ctx.cpu;
            self.leader.on_message(&mut self.ctx, from, frame);
            self.ctx.cpu - before
        }
    }

    #[test]
    fn fail_signal_from_upstream_fs_injects_configured_input() {
        let mut d = Downstream::new(CryptoCostModel::era_2003());
        let signal = FsoInbound::External(FsOutput::sign(
            UPSTREAM,
            FsContent::FailSignal,
            &d.up_a,
            &d.up_b,
        ))
        .to_frame();
        assert!(d.deliver(UPSTREAM_A, signal.clone()) > SimDuration::ZERO);
        // The configured environment input went through the machine: the echo
        // machine echoes it back to the environment... which is unrouted, but
        // the input was processed and a candidate was sent to the partner.
        assert_eq!(d.leader.stats().inputs_processed, 1);
        // A failed pair answers every message with its fail-signal (fs1):
        // the repeats are recognised before they are verified, and cost
        // nothing.
        for from in [UPSTREAM_B, UPSTREAM_A, UPSTREAM_B] {
            assert_eq!(d.deliver(from, signal.clone()), SimDuration::ZERO);
        }
        assert_eq!(d.leader.stats().inputs_processed, 1);
        assert_eq!(d.leader.stats().duplicates_suppressed, 3);
    }

    #[test]
    fn forged_external_output_is_rejected() {
        let mut d = Downstream::new(CryptoCostModel::free());
        // The attacker forges an "output of FS 7" signed only by itself.
        let forged = d.output(0, b"evil", (&d.attacker, &d.attacker));
        d.deliver(UPSTREAM_A, forged);
        assert_eq!(d.leader.stats().rejected_inputs, 1);
        assert_eq!(d.leader.stats().inputs_processed, 0);
        assert!(!d.leader.has_failed());
    }

    #[test]
    fn second_copy_of_an_accepted_output_is_dropped_unverified() {
        let mut d = Downstream::new(CryptoCostModel::era_2003());
        let genuine = d.output(0, b"out", (&d.up_a, &d.up_b));
        let check = CryptoCostModel::era_2003().verify_double_cost(64);
        assert!(d.deliver(UPSTREAM_A, genuine.clone()) >= check);
        assert_eq!(d.leader.stats().inputs_processed, 1);
        // The partner wrapper's copy: the same bytes, not looked at twice.
        assert_eq!(d.deliver(UPSTREAM_B, genuine), SimDuration::ZERO);
        assert_eq!(d.leader.stats().duplicates_suppressed, 1);
        // A forgery re-using the accepted number is the same non-event: it
        // has nothing left to suppress.
        let stats = d.leader.stats();
        let forged = d.output(0, b"evil", (&d.attacker, &d.attacker));
        assert_eq!(d.deliver(UPSTREAM_A, forged), SimDuration::ZERO);
        assert_eq!(
            d.leader.stats(),
            FsoStats {
                duplicates_suppressed: 2,
                ..stats
            }
        );
    }

    #[test]
    fn forged_fresh_sequence_number_cannot_suppress_the_genuine_output() {
        let mut d = Downstream::new(CryptoCostModel::era_2003());
        let check = CryptoCostModel::era_2003().verify_double_cost(64);
        // The forgery claims a number nothing was accepted under, so it is
        // verified — and rejected, leaving the window as it was.
        let forged = d.output(0, b"evil", (&d.up_a, &d.attacker));
        assert_eq!(d.deliver(UPSTREAM_A, forged), check);
        assert_eq!(d.leader.stats().rejected_inputs, 1);
        assert_eq!(d.leader.stats().inputs_processed, 0);
        let genuine = d.output(0, b"out", (&d.up_a, &d.up_b));
        assert!(d.deliver(UPSTREAM_A, genuine) >= check);
        assert_eq!(d.leader.stats().inputs_processed, 1);
        assert_eq!(d.leader.stats().duplicates_suppressed, 0);
    }
}
