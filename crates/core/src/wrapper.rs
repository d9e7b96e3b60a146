//! The Fail-Signal wrapper Object (FSO): Order + Compare around a
//! deterministic machine.
//!
//! One [`FsoActor`] is one half of a fail-signal pair.  Following §2 and the
//! appendix of the paper:
//!
//! * **Order**: the leader assigns a total order to every external input and
//!   relays it to the follower ([`PairMessage::Ordered`]); the follower only
//!   processes inputs in the leader's order and uses its IRM pool to detect a
//!   leader that stops ordering (timeout `t2 = 2δ`).
//! * **Compare**: every output of the wrapped machine is signed once, and
//!   that signature — the wrapper's *share* — is sent to the partner with
//!   the fields it covers ([`PairMessage::Candidate`]: sequence number,
//!   destination, length, body digest; never the body).  When the partner's
//!   share names the same destination, length and digest as the local
//!   output, the two shares side by side *are* the double-signed output,
//!   which is transmitted to the destination(s): completing a comparison
//!   signs nothing.  A mismatch, or a comparison that does not complete
//!   within `2δ + κπ + στ` (leader) or `δ + κπ + στ` (follower), makes the
//!   wrapper emit the pair's pre-armed, double-signed **fail-signal** — the
//!   partner's share handed over at start-up plus its own — and cease
//!   normal service.
//!
//! A failed wrapper thereafter answers every incoming message with the
//! fail-signal (property fs1); arbitrary fail-signal emission by a faulty
//! node (property fs2) is exercised by the fault-injection crate.
//!
//! ## Bodies are hashed once; everything else runs over the digest
//!
//! What is signed for an output is its [`Statement`] — the signed header
//! followed by `SHA-256(body)` — so the wrapper asks [`body_digest`] for the
//! digest of every body it meets and never hashes or compares a body itself.
//! On one simulation host that function answers in one of three ways (see
//! [`crate::digest`]): the same buffer again is an O(1) lookup by address,
//! the other replica's equal output in its own buffer is one fast hash plus
//! one `memcmp`, and only content never seen before costs a SHA-256 pass —
//! three per 3-member multicast (the request, `Data`, `Deliver`) where
//! signing the content itself cost ten.
//!
//! The pools hold what that leaves to hold: the ICM pool a local output's
//! destination, digest, bytes (the bytes only to build the external frame
//! once the comparison completes) and the wrapper's own share; the ECM pool
//! a remote candidate as received and verified — destination, length,
//! digest and the partner's share; the IRM pool and the processed-input set
//! `(endpoint, body digest)` keys.

use std::collections::BTreeMap;

use fs_common::codec::Wire;
use fs_common::fasthash::FastSet;
use fs_common::id::{FsId, ProcessId, Role};
use fs_common::time::SimDuration;
use fs_common::{Bytes, Frame};
use fs_crypto::sha256::Digest;
use fs_crypto::sig::Signature;
use fs_simnet::actor::{Actor, Context, TimerId};
use fs_smr::machine::{DeterministicMachine, Endpoint, MachineInput, MachineOutput};

use crate::config::{FsoConfig, SourceSpec};
use crate::digest::body_digest;
use crate::message::{FsContent, FsOutput, FsoInbound, PairMessage, Statement};
use crate::seqwindow::Accepted;

/// Counters describing what a wrapper has done; used by tests and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsoStats {
    /// External inputs accepted and ordered/processed.
    pub inputs_processed: u64,
    /// Outputs whose comparison succeeded (double-signed and transmitted).
    pub outputs_validated: u64,
    /// Output comparisons that failed on content mismatch.
    pub mismatches: u64,
    /// Output comparisons (or input orderings) that timed out.
    pub timeouts: u64,
    /// Fail-signal transmissions performed.
    pub fail_signals_sent: u64,
    /// Duplicate inputs, candidates and external messages suppressed (the
    /// last unverified).
    pub duplicates_suppressed: u64,
    /// External messages rejected because their signatures did not verify.
    pub rejected_inputs: u64,
}

/// A locally produced, locally signed output.
#[derive(Debug, Clone)]
struct LocalOutput {
    dest: Endpoint,
    /// The output bytes, kept for the external frame.
    bytes: Bytes,
    /// `SHA-256(bytes)`, from signing: the comparison runs over it, the
    /// bytes are not hashed again.
    digest: Digest,
    /// This wrapper's share over the output's statement.
    signature: Signature,
}

/// A local output awaiting the partner's candidate.
#[derive(Debug, Clone)]
struct IcmpEntry {
    output: LocalOutput,
    timer: TimerId,
}

/// A verified remote candidate awaiting the local output: what the
/// partner's share covers, and the share.
#[derive(Debug, Clone)]
struct EcmpEntry {
    dest: Endpoint,
    len: usize,
    digest: Digest,
    signature: Signature,
}

/// How many entries each of a wrapper's pools holds (see
/// [`FsoActor::pool_sizes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsoPoolSizes {
    /// Follower only: external inputs awaiting the leader's order (IRMP).
    pub awaiting_order: usize,
    /// Local outputs awaiting the partner's candidate (ICMP).
    pub awaiting_candidate: usize,
    /// Remote candidates awaiting the local output (ECMP).
    pub awaiting_output: usize,
}

/// What identifies an external input for ordering and duplicate
/// suppression: where it came from and the digest of its bytes.
type InputKey = (Endpoint, Digest);

#[derive(Debug, Clone)]
struct IrmpEntry {
    timer: TimerId,
}

enum TimerPurpose {
    /// An ICMP (output-comparison) deadline for the given output sequence.
    OutputCompare(u64),
    /// An IRMP (input-ordering) deadline for the given input.
    InputOrdering(InputKey),
}

/// One fail-signal wrapper object hosting a replica of the target machine.
///
/// # Dedup state and its bounds
///
/// Two structures suppress duplicates.  `accepted` keeps, per source FS
/// process, a watermark over its output sequence numbers plus the sparse
/// numbers above it: memory follows the reorder window wherever the numbers
/// a source addresses to this wrapper are contiguous.  A source that also
/// emits outputs for other destinations (FS-NewTOP's local upcalls) skips
/// numbers, so there it still grows by eight bytes per accepted output;
/// compacting across such gaps needs a per-destination sequence on the wire.
/// `seen_inputs` is **still unbounded**: it identifies an input by its source
/// endpoint and the digest of its content, which carry no sequence to compact
/// on — the leader's external copy, the follower's `ForwardNew` copy and the
/// leader's `Ordered` relay of one input share nothing else — so it grows by
/// some 40 bytes per input ordered for the lifetime of the wrapper.  Bounding
/// it needs a horizon agreed by the pair (e.g. the order index below which
/// both halves have processed everything); that is left to the hardening
/// pass (ROADMAP item 3).
///
/// Both are hashed tables whose bucket order depends on a per-thread random
/// seed; they answer membership only and are never iterated.  Everything
/// that *is* iterated (`irmp`, `icmp` on recovery) is ordered, so timer ids
/// and therefore traces cannot depend on the host's hash seed.
pub struct FsoActor {
    config: FsoConfig,
    machine: Box<dyn DeterministicMachine>,
    /// Leader: next order index to assign.  Follower: next index expected.
    order_index: u64,
    /// Inputs already ordered/processed (by endpoint and body digest) —
    /// merges the leader's external receipt with the follower's `ForwardNew`
    /// copy and the follower's external receipt with the leader's `Ordered`
    /// relay.
    seen_inputs: FastSet<InputKey>,
    /// External FS outputs and fail-signals already accepted.
    accepted: Accepted,
    /// The encoded, double-signed fail-signal frame, built when the
    /// wrapper fails and refcount-cloned to every recipient thereafter.
    fail_signal_frame: Option<Frame>,
    /// Follower only: externally received inputs awaiting the leader's order.
    irmp: BTreeMap<InputKey, IrmpEntry>,
    /// Locally produced outputs awaiting comparison.
    icmp: BTreeMap<u64, IcmpEntry>,
    /// Remote candidates awaiting the corresponding local output.
    ecmp: BTreeMap<u64, EcmpEntry>,
    output_seq: u64,
    failed: bool,
    stats: FsoStats,
    next_timer: u64,
    timers: BTreeMap<TimerId, TimerPurpose>,
}

impl std::fmt::Debug for FsoActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsoActor")
            .field("fs", &self.config.fs)
            .field("role", &self.config.role)
            .field("failed", &self.failed)
            .field("stats", &self.stats)
            .finish()
    }
}

impl FsoActor {
    /// Creates a wrapper object around a replica of the target machine.
    pub fn new(config: FsoConfig, machine: Box<dyn DeterministicMachine>) -> Self {
        Self {
            config,
            machine,
            order_index: 0,
            seen_inputs: FastSet::default(),
            accepted: Accepted::default(),
            fail_signal_frame: None,
            irmp: BTreeMap::new(),
            icmp: BTreeMap::new(),
            ecmp: BTreeMap::new(),
            output_seq: 0,
            failed: false,
            stats: FsoStats::default(),
            next_timer: 0,
            timers: BTreeMap::new(),
        }
    }

    /// The wrapper's role in the pair.
    pub fn role(&self) -> Role {
        self.config.role
    }

    /// The FS process this wrapper belongs to.
    pub fn fs(&self) -> FsId {
        self.config.fs
    }

    /// Whether the wrapper has emitted its fail-signal.
    pub fn has_failed(&self) -> bool {
        self.failed
    }

    /// The wrapper's activity counters.
    pub fn stats(&self) -> FsoStats {
        self.stats
    }

    /// How many entries the ordering and comparison pools hold right now.
    /// A quiescent, correct pair holds none.
    pub fn pool_sizes(&self) -> FsoPoolSizes {
        FsoPoolSizes {
            awaiting_order: self.irmp.len(),
            awaiting_candidate: self.icmp.len(),
            awaiting_output: self.ecmp.len(),
        }
    }

    /// Read access to the wrapped machine (e.g. to inspect a `GcMachine` in
    /// tests); the wrapper never exposes it mutably.
    pub fn machine(&self) -> &dyn DeterministicMachine {
        self.machine.as_ref()
    }

    fn alloc_timer(&mut self, purpose: TimerPurpose) -> TimerId {
        self.next_timer += 1;
        let id = TimerId(1000 + self.next_timer);
        self.timers.insert(id, purpose);
        id
    }

    fn send_pair(&self, ctx: &mut dyn Context, message: PairMessage) {
        ctx.send(self.config.partner, FsoInbound::Pair(message).to_frame());
    }

    /// A double-signed output of this pair from its two shares, written in
    /// the one order both wrappers use — the leader's, then the follower's —
    /// so the two transmit byte-identical frames.
    fn assemble(
        config: &FsoConfig,
        content: FsContent,
        own: Signature,
        partner: Signature,
    ) -> Frame {
        let (first, second) = if config.is_leader() {
            (own, partner)
        } else {
            (partner, own)
        };
        FsoInbound::External(FsOutput {
            fs: config.fs,
            content,
            first,
            second,
        })
        .to_frame()
    }

    /// The pair's fail-signal — the partner's pre-armed share plus this
    /// wrapper's own — signed and encoded once.  The frame is a pure
    /// function of the configuration, so every transmission — the broadcast
    /// in `fail()` and each fs1 reply — shares the same bytes.
    fn fail_signal_frame(&mut self) -> Frame {
        let config = &self.config;
        self.fail_signal_frame
            .get_or_insert_with(|| {
                let statement = Statement::fail_signal(config.fs);
                let own = Signature::sign(&config.key, statement.as_bytes());
                let partner = config.prearmed_fail_signal.clone();
                Self::assemble(config, FsContent::FailSignal, own, partner)
            })
            .clone()
    }

    fn fail(&mut self, ctx: &mut dyn Context, reason: &str) {
        if self.failed {
            return;
        }
        self.failed = true;
        ctx.trace(&format!("fail-signal: {reason}"));
        ctx.charge_cpu(self.config.crypto_costs.sign_cost(64));
        let signal = self.fail_signal_frame();
        for process in self.config.routes.all_processes() {
            ctx.send(process, signal.clone());
            self.stats.fail_signals_sent += 1;
        }
        // Outstanding comparisons are abandoned.
        self.icmp.clear();
        self.ecmp.clear();
        self.irmp.clear();
    }

    fn reply_with_fail_signal(&mut self, ctx: &mut dyn Context, to: ProcessId) {
        let signal = self.fail_signal_frame();
        ctx.send(to, signal);
        self.stats.fail_signals_sent += 1;
    }

    /// Handles an input that has been authenticated (if necessary) and
    /// attributed to a logical endpoint, but not yet ordered.  `digest` is
    /// `body_digest(&bytes)`, which the caller may already hold.
    fn on_external_input(
        &mut self,
        ctx: &mut dyn Context,
        endpoint: Endpoint,
        bytes: Bytes,
        digest: Digest,
    ) {
        let key = (endpoint, digest);
        if self.seen_inputs.contains(&key) {
            self.stats.duplicates_suppressed += 1;
            return;
        }
        match self.config.role {
            Role::Leader => {
                self.seen_inputs.insert(key);
                let order_index = self.order_index;
                self.order_index += 1;
                self.send_pair(
                    ctx,
                    PairMessage::Ordered {
                        order_index,
                        source: endpoint,
                        bytes: bytes.clone(),
                    },
                );
                self.process_input(ctx, endpoint, bytes);
            }
            Role::Follower => {
                // t1 = 0: forward immediately to the leader, then wait up to
                // t2 = 2δ for the leader to order it.
                if self.irmp.contains_key(&key) {
                    self.stats.duplicates_suppressed += 1;
                    return;
                }
                self.send_pair(
                    ctx,
                    PairMessage::ForwardNew {
                        source: endpoint,
                        bytes: bytes.clone(),
                    },
                );
                let timer = self.alloc_timer(TimerPurpose::InputOrdering(key));
                ctx.set_timer(self.config.timing.delta * 2, timer);
                self.irmp.insert(key, IrmpEntry { timer });
            }
        }
    }

    /// Runs the wrapped machine on one ordered input and submits every output
    /// for comparison.
    fn process_input(&mut self, ctx: &mut dyn Context, endpoint: Endpoint, bytes: Bytes) {
        let input = MachineInput::new(endpoint, bytes);
        let pi = self.machine.processing_cost(&input);
        ctx.charge_cpu(pi);
        self.stats.inputs_processed += 1;
        let outputs = self.machine.handle(&input);
        for MachineOutput { dest, bytes } in outputs {
            self.produce_output(ctx, dest, bytes, pi);
        }
    }

    /// Signs a locally produced output — the one signing operation this
    /// wrapper performs for it — sends the partner that share, checks the
    /// output against any remote candidate already received, and otherwise
    /// parks it in the ICM pool with the paper's comparison timeout.
    fn produce_output(
        &mut self,
        ctx: &mut dyn Context,
        dest: Endpoint,
        bytes: Bytes,
        pi: SimDuration,
    ) {
        let output_seq = self.output_seq;
        self.output_seq += 1;

        // One pass over the bytes at most (none when this buffer, or the
        // other replica's equal one, has been digested on this host), then
        // the signature over the statement.  The payload itself is only
        // ever refcount-cloned.
        let digest = body_digest(&bytes);
        let statement = Statement::output(self.config.fs, output_seq, dest, bytes.len(), &digest);
        let tau = self.config.crypto_costs.sign_cost(statement.signed_len());
        ctx.charge_cpu(tau);
        let signature = Signature::sign(&self.config.key, statement.as_bytes());

        self.send_pair(
            ctx,
            PairMessage::Candidate {
                output_seq,
                dest,
                body_len: bytes.len() as u32,
                digest,
                signature: signature.clone(),
            },
        );

        let output = LocalOutput {
            dest,
            bytes,
            digest,
            signature,
        };
        if let Some(remote) = self.ecmp.remove(&output_seq) {
            self.complete_comparison(ctx, output_seq, output, remote);
            return;
        }

        let timeout = if self.config.is_leader() {
            self.config.timing.leader_compare_timeout(pi, tau)
        } else {
            self.config.timing.follower_compare_timeout(pi, tau)
        };
        let timer = self.alloc_timer(TimerPurpose::OutputCompare(output_seq));
        ctx.set_timer(timeout, timer);
        self.icmp.insert(output_seq, IcmpEntry { output, timer });
    }

    /// Compares a local output with the remote candidate of the same
    /// sequence number — destination, length and body digest, which is
    /// everything the candidate's verified share covers.  On success the
    /// two shares are the double signature: the output is assembled and
    /// transmitted, and nothing is signed or charged.  On mismatch the
    /// wrapper emits the fail-signal.
    fn complete_comparison(
        &mut self,
        ctx: &mut dyn Context,
        output_seq: u64,
        local: LocalOutput,
        remote: EcmpEntry,
    ) {
        if remote.dest != local.dest
            || remote.len != local.bytes.len()
            || remote.digest != local.digest
        {
            self.stats.mismatches += 1;
            self.fail(ctx, "output comparison mismatch");
            return;
        }
        let content = FsContent::Output {
            output_seq,
            dest: local.dest,
            bytes: local.bytes,
        };
        // One encode of the external frame (header and shares around the
        // spliced output bytes), refcount-shared across every routed
        // destination.
        let wire = Self::assemble(&self.config, content, local.signature, remote.signature);
        for process in self.config.routes.lookup(local.dest) {
            ctx.send(*process, wire.clone());
        }
        self.stats.outputs_validated += 1;
    }

    fn on_pair_message(&mut self, ctx: &mut dyn Context, message: PairMessage) {
        match message {
            PairMessage::Ordered {
                order_index,
                source,
                bytes,
            } => {
                if self.config.is_leader() {
                    return; // only the follower accepts orderings
                }
                // The follower checks that the leader orders every message it
                // has seen; the order index must advance without gaps.
                if order_index != self.order_index {
                    self.fail(ctx, "leader ordering gap");
                    return;
                }
                self.order_index += 1;
                let key = (source, body_digest(&bytes));
                if let Some(entry) = self.irmp.remove(&key) {
                    ctx.cancel_timer(entry.timer);
                    self.timers.remove(&entry.timer);
                }
                if self.seen_inputs.insert(key) {
                    self.process_input(ctx, source, bytes);
                } else {
                    self.stats.duplicates_suppressed += 1;
                }
            }
            PairMessage::ForwardNew { source, bytes } => {
                if !self.config.is_leader() {
                    return; // only the leader accepts forwards
                }
                let digest = body_digest(&bytes);
                self.on_external_input(ctx, source, bytes, digest);
            }
            PairMessage::Candidate {
                output_seq,
                dest,
                body_len,
                digest,
                signature,
            } => {
                // Verify the partner's share before trusting the candidate
                // (assumption A5: signatures cannot be forged) — over the
                // statement built from the fields *as received*: one MAC
                // over at most 54 bytes, no body to hold or hash here.  A
                // candidate altered after signing fails right here; one
                // whose signer signed a wrong digest fails the comparison.
                let len = body_len as usize;
                let statement = Statement::output(self.config.fs, output_seq, dest, len, &digest);
                let costs = &self.config.crypto_costs;
                ctx.charge_cpu(costs.verify_cost(statement.as_bytes().len()));
                if signature.signer != self.config.partner_signer
                    || signature
                        .verify(&self.config.directory, statement.as_bytes())
                        .is_err()
                {
                    self.stats.rejected_inputs += 1;
                    self.fail(ctx, "invalid candidate signature");
                    return;
                }
                let remote = EcmpEntry {
                    dest,
                    len,
                    digest,
                    signature,
                };
                if let Some(local) = self.icmp.remove(&output_seq) {
                    ctx.cancel_timer(local.timer);
                    self.timers.remove(&local.timer);
                    self.complete_comparison(ctx, output_seq, local.output, remote);
                } else if output_seq < self.output_seq {
                    // This output was already compared (its ICM entry is
                    // gone): a duplicate of the candidate that completed it,
                    // or a replay.  Nothing will ever look it up again.
                    self.stats.duplicates_suppressed += 1;
                } else {
                    self.ecmp.insert(output_seq, remote);
                }
            }
        }
    }

    fn on_external_message(&mut self, ctx: &mut dyn Context, from: ProcessId, output: FsOutput) {
        let Some(spec) = self.config.sources.get(&from).cloned() else {
            self.stats.rejected_inputs += 1;
            return;
        };
        let SourceSpec::FsProcess {
            fs,
            signers,
            endpoint,
        } = spec
        else {
            self.stats.rejected_inputs += 1;
            return;
        };
        if output.fs != fs {
            self.stats.rejected_inputs += 1;
            return;
        }
        // Verify once: what this frame claims to be is looked up before
        // anything is checked or charged (see [`Accepted`]).
        if self.accepted.contains(fs, &output.content) {
            self.stats.duplicates_suppressed += 1;
            return;
        }
        ctx.charge_cpu(self.config.crypto_costs.verify_double_cost(64));
        // The check hands back the body digest it ran over.
        let Ok(digest) = output.verify_digesting(&self.config.directory, signers) else {
            self.stats.rejected_inputs += 1;
            return;
        };
        self.accepted.insert(fs, &output.content);
        match output.content {
            FsContent::FailSignal => {
                // A validated fail-signal is converted into the
                // pre-configured environment input (FS-NewTOP turns it
                // into a suspicion) and ordered like any other input.
                if let Some(injected) = self.config.fail_signal_inputs.get(&fs).cloned() {
                    let digest = body_digest(&injected);
                    self.on_external_input(ctx, Endpoint::Environment, injected, digest);
                }
            }
            FsContent::Output { bytes, .. } => {
                let digest = digest.unwrap_or_else(|| body_digest(&bytes));
                self.on_external_input(ctx, endpoint, bytes, digest);
            }
        }
    }
}

impl Actor for FsoActor {
    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
        if self.failed {
            // fs1: a failed FS process answers everything with its fail-signal.
            self.reply_with_fail_signal(ctx, from);
            return;
        }
        // Zero-copy decode: byte-string fields of the inbound message are
        // views of the delivered frame's segments (a spliced body is the
        // sender's own buffer).
        let Ok(inbound) = FsoInbound::from_frame(&payload) else {
            self.stats.rejected_inputs += 1;
            return;
        };
        match inbound {
            FsoInbound::Pair(message) => {
                if from != self.config.partner {
                    self.stats.rejected_inputs += 1;
                    return;
                }
                self.on_pair_message(ctx, message);
            }
            FsoInbound::External(output) => self.on_external_message(ctx, from, output),
            FsoInbound::Raw(bytes) => match self.config.sources.get(&from) {
                Some(SourceSpec::TrustedClient { endpoint }) => {
                    let endpoint = *endpoint;
                    let digest = body_digest(&bytes);
                    self.on_external_input(ctx, endpoint, bytes, digest);
                }
                _ => {
                    self.stats.rejected_inputs += 1;
                }
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, timer: TimerId) {
        if self.failed {
            return;
        }
        let Some(purpose) = self.timers.remove(&timer) else {
            return;
        };
        match purpose {
            TimerPurpose::OutputCompare(output_seq) => {
                if self.icmp.remove(&output_seq).is_some() {
                    self.stats.timeouts += 1;
                    self.fail(ctx, "output comparison timeout");
                }
            }
            TimerPurpose::InputOrdering(key) => {
                if self.irmp.remove(&key).is_some() {
                    self.stats.timeouts += 1;
                    self.fail(ctx, "leader failed to order an input in time");
                }
            }
        }
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        if self.failed {
            return;
        }
        // A warm restart loses every armed timer while the comparison and
        // ordering pools survive in memory.  Re-arm a fresh deadline for each
        // pending entry so an outcome is still guaranteed: either the partner
        // answers within the (restarted) window or the wrapper fail-signals.
        // The deadlines use the workload-independent base timeouts — the
        // per-input processing and signing charges were already paid before
        // the crash.
        self.timers.clear();
        let pending_outputs: Vec<u64> = self.icmp.keys().copied().collect();
        for output_seq in pending_outputs {
            let timer = self.alloc_timer(TimerPurpose::OutputCompare(output_seq));
            let timeout = if self.config.is_leader() {
                self.config
                    .timing
                    .leader_compare_timeout(SimDuration::ZERO, SimDuration::ZERO)
            } else {
                self.config
                    .timing
                    .follower_compare_timeout(SimDuration::ZERO, SimDuration::ZERO)
            };
            ctx.set_timer(timeout, timer);
            if let Some(entry) = self.icmp.get_mut(&output_seq) {
                entry.timer = timer;
            }
        }
        let pending_inputs: Vec<InputKey> = self.irmp.keys().copied().collect();
        for key in pending_inputs {
            let timer = self.alloc_timer(TimerPurpose::InputOrdering(key));
            ctx.set_timer(self.config.timing.delta * 2, timer);
            if let Some(entry) = self.irmp.get_mut(&key) {
                entry.timer = timer;
            }
        }
    }

    fn name(&self) -> String {
        format!("fso-{}-{}", self.config.fs.0, self.config.role)
    }
}
