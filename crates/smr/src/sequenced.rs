//! A second deterministic group service: a fixed-sequencer replicated
//! key-value store (**SMR-KV**).
//!
//! NewTOP's GC object is one instance of the machine shape the fail-signal
//! transformation lifts; this module provides a *different* one, so the suite
//! can demonstrate that the wrapper path is truly service-agnostic
//! (**FS-SMR** in the scenario harness).  The service totally orders client
//! commands through a fixed sequencer — the asymmetric scheme of the paper's
//! §2 discussion, stripped to its essence:
//!
//! * a member receiving a client command forwards it to the sequencer
//!   (member 0) as a [`SmrPeerMsg::Submit`];
//! * the sequencer assigns a global sequence number and multicasts the
//!   resulting [`SmrPeerMsg::Ordered`] record to every peer;
//! * every member applies `Ordered` records strictly in global order to its
//!   local [`KvStore`] replica and raises a [`SmrDeliver`] upcall to its
//!   local application.
//!
//! # Request batching
//!
//! Clients may submit a whole [`SmrClientMsg::Batch`] of commands at once.
//! A batch travels the ordering round as **one frame** end to end — one
//! [`SmrPeerMsg::SubmitBatch`] to the sequencer, one
//! [`SmrPeerMsg::OrderedBatch`] multicast, one [`SmrUpcall::Batch`] upcall —
//! so under the fail-signal wrapper one signature covers all N commands
//! (every machine output is exactly one signed candidate frame).  Each
//! batched command still gets its own global order index and its own
//! at-most-once guard, so batched and unbatched runs apply the identical
//! command sequence.
//!
//! [`SequencedKv`] implements [`DeterministicMachine`] and honours the R1
//! determinism contract: it consults no clocks or random sources, and its
//! outputs are a pure function of the input sequence.  Identical replicas fed
//! identical inputs therefore produce byte-identical outputs — exactly what
//! the fail-signal wrapper pair compares.

use std::collections::BTreeMap;

use fs_common::codec::{Decoder, Encoder, Wire};
use fs_common::error::CodecError;
use fs_common::id::MemberId;
use fs_common::time::SimDuration;
use fs_common::Bytes;

use crate::command::{AppStateMachine, KvStore};
use crate::machine::{DeterministicMachine, Endpoint, MachineInput, MachineOutput};

/// A versioned membership view of the SMR group.
///
/// The member list is ordered; the first entry is the sequencer, so
/// decoding rejects an empty list.  Every view transition is itself an
/// ordered entry in the global command stream (a [`SmrPeerMsg::ViewChange`]
/// record), so all replicas install view `id + 1` at exactly the same point
/// of the delivery order — the survivors *agree* on when a member rejoined,
/// not merely observe it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupView {
    /// Monotonically increasing view number; the initial view is 0.
    pub id: u64,
    /// The members of this view, in group order (first entry sequences).
    pub members: Vec<MemberId>,
}

impl GroupView {
    /// The initial view (id 0) over `members`.
    pub fn initial(members: Vec<MemberId>) -> Self {
        Self { id: 0, members }
    }

    /// The member acting as sequencer in this view.
    pub fn sequencer(&self) -> MemberId {
        *self
            .members
            .first()
            .expect("a view needs at least one member")
    }

    /// True when `member` belongs to this view.
    pub fn contains(&self, member: MemberId) -> bool {
        self.members.contains(&member)
    }

    /// The successor view after `member` (re)joins: the id is bumped and the
    /// member appended if absent.  A rejoin of a current member keeps the
    /// member list and still bumps the id — the new view number marks the
    /// agreed rejoin epoch.
    pub fn joined(&self, member: MemberId) -> Self {
        let mut members = self.members.clone();
        if !members.contains(&member) {
            members.push(member);
        }
        Self {
            id: self.id + 1,
            members,
        }
    }
}

impl Wire for GroupView {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.id);
        enc.put_u32(self.members.len() as u32);
        for member in &self.members {
            enc.put_member(*member);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let id = dec.get_u64()?;
        let len = dec.get_u32()?;
        if len == 0 {
            // A list without a first member ends before its 4 bytes.
            return Err(CodecError::UnexpectedEof {
                wanted: 4,
                available: 0,
            });
        }
        let mut members = Vec::with_capacity(len.min(4096) as usize);
        for _ in 0..len {
            members.push(dec.get_member()?);
        }
        Ok(Self { id, members })
    }
    fn encoded_len(&self) -> usize {
        8 + 4 + 4 * self.members.len()
    }
}

fn put_pairs(enc: &mut Encoder, pairs: &[(MemberId, u64)]) {
    enc.put_u32(pairs.len() as u32);
    for (member, seq) in pairs {
        enc.put_member(*member);
        enc.put_u64(*seq);
    }
}

fn get_pairs(dec: &mut Decoder<'_>) -> Result<Vec<(MemberId, u64)>, CodecError> {
    let len = dec.get_u32()?;
    let mut pairs = Vec::with_capacity(len.min(4096) as usize);
    for _ in 0..len {
        pairs.push((dec.get_member()?, dec.get_u64()?));
    }
    Ok(pairs)
}

/// A client command as submitted by the local application: the client's own
/// sequence number plus the encoded [`crate::command::KvCommand`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmrRequest {
    /// The submitting member's per-member sequence number.
    pub seq: u64,
    /// The encoded application command.
    pub command: Bytes,
}

impl Wire for SmrRequest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.seq);
        enc.put_bytes(&self.command);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            seq: dec.get_u64()?,
            command: dec.get_bytes_shared()?,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + 4 + self.command.len()
    }
}

/// The frame a local application sends to its service machine: either one
/// command or a client-side batch of consecutive commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmrClientMsg {
    /// A single command submission.
    Request(SmrRequest),
    /// A batch of commands with consecutive per-member sequence numbers
    /// starting at `first_seq` (command `i` has sequence `first_seq + i`).
    Batch {
        /// The sequence number of the first command in the batch.
        first_seq: u64,
        /// The encoded application commands, in sequence order.
        commands: Vec<Bytes>,
    },
    /// The local process came back up (warm restart or cold replacement):
    /// fetch missed state from the peers and announce the rejoin to the
    /// sequencer so it is ordered as a view transition.
    Recover,
}

impl Wire for SmrClientMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SmrClientMsg::Request(request) => {
                enc.put_u8(0);
                request.encode(enc);
            }
            SmrClientMsg::Batch {
                first_seq,
                commands,
            } => {
                enc.put_u8(1);
                enc.put_u64(*first_seq);
                commands.encode(enc);
            }
            SmrClientMsg::Recover => enc.put_u8(2),
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(SmrClientMsg::Request(SmrRequest::decode(dec)?)),
            1 => Ok(SmrClientMsg::Batch {
                first_seq: dec.get_u64()?,
                commands: Vec::<Bytes>::decode(dec)?,
            }),
            2 => Ok(SmrClientMsg::Recover),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            SmrClientMsg::Request(request) => 1 + request.encoded_len(),
            SmrClientMsg::Batch { commands, .. } => 1 + 8 + commands.encoded_len(),
            SmrClientMsg::Recover => 1,
        }
    }
}

/// The delivery upcall raised to the local application once a command has
/// been applied in global order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmrDeliver {
    /// The global order index assigned by the sequencer.
    pub global: u64,
    /// The member that submitted the command.
    pub origin: MemberId,
    /// The origin's per-member sequence number.
    pub seq: u64,
    /// The encoded application response.
    pub response: Bytes,
}

impl Wire for SmrDeliver {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.global);
        enc.put_member(self.origin);
        enc.put_u64(self.seq);
        enc.put_bytes(&self.response);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            global: dec.get_u64()?,
            origin: dec.get_member()?,
            seq: dec.get_u64()?,
            response: dec.get_bytes_shared()?,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + 4 + 8 + 4 + self.response.len()
    }
}

/// One applied command inside a [`SmrDeliverBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmrDeliverEntry {
    /// The member that submitted the command.
    pub origin: MemberId,
    /// The origin's per-member sequence number.
    pub seq: u64,
    /// The encoded application response.
    pub response: Bytes,
}

impl Wire for SmrDeliverEntry {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_member(self.origin);
        enc.put_u64(self.seq);
        enc.put_bytes(&self.response);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            origin: dec.get_member()?,
            seq: dec.get_u64()?,
            response: dec.get_bytes_shared()?,
        })
    }
    fn encoded_len(&self) -> usize {
        4 + 8 + 4 + self.response.len()
    }
}

/// A batched delivery upcall: entry `i` was applied at global order index
/// `first_global + i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmrDeliverBatch {
    /// The global order index of the first entry.
    pub first_global: u64,
    /// The applied commands, in global order.
    pub entries: Vec<SmrDeliverEntry>,
}

impl Wire for SmrDeliverBatch {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.first_global);
        self.entries.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            first_global: dec.get_u64()?,
            entries: Vec::<SmrDeliverEntry>::decode(dec)?,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + self.entries.encoded_len()
    }
}

/// An installed view transition, raised to the local application at the
/// exact delivery-order position the transition was sequenced at.
///
/// On a member that just rejoined, its own view upcall doubles as the
/// catch-up-complete signal: applying the transition at `global` implies the
/// whole history up to `global` has been applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmrViewInstall {
    /// The global order index the transition occupies.
    pub global: u64,
    /// The installed view.
    pub view: GroupView,
}

impl Wire for SmrViewInstall {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.global);
        self.view.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            global: dec.get_u64()?,
            view: GroupView::decode(dec)?,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + self.view.encoded_len()
    }
}

/// The frame a service machine sends up to its local application: one
/// delivery, or one frame covering a whole applied batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmrUpcall {
    /// A single applied command.
    Deliver(SmrDeliver),
    /// Several commands applied back to back by one machine step.
    Batch(SmrDeliverBatch),
    /// A membership view transition was applied at its global order slot.
    View(SmrViewInstall),
}

impl Wire for SmrUpcall {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SmrUpcall::Deliver(deliver) => {
                enc.put_u8(0);
                deliver.encode(enc);
            }
            SmrUpcall::Batch(batch) => {
                enc.put_u8(1);
                batch.encode(enc);
            }
            SmrUpcall::View(install) => {
                enc.put_u8(2);
                install.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(SmrUpcall::Deliver(SmrDeliver::decode(dec)?)),
            1 => Ok(SmrUpcall::Batch(SmrDeliverBatch::decode(dec)?)),
            2 => Ok(SmrUpcall::View(SmrViewInstall::decode(dec)?)),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            SmrUpcall::Deliver(deliver) => deliver.encoded_len(),
            SmrUpcall::Batch(batch) => batch.encoded_len(),
            SmrUpcall::View(install) => install.encoded_len(),
        }
    }
}

/// One ordered command inside a [`SmrPeerMsg::OrderedBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmrOrderedEntry {
    /// The origin's per-member sequence number.
    pub seq: u64,
    /// The encoded application command.
    pub command: Bytes,
}

impl Wire for SmrOrderedEntry {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.seq);
        enc.put_bytes(&self.command);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            seq: dec.get_u64()?,
            command: dec.get_bytes_shared()?,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + 4 + self.command.len()
    }
}

/// Messages exchanged between the service machines of different members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmrPeerMsg {
    /// A command forwarded from its origin to the sequencer.
    Submit {
        /// The submitting member.
        origin: MemberId,
        /// The origin's per-member sequence number.
        seq: u64,
        /// The encoded application command.
        command: Bytes,
    },
    /// An ordered record multicast by the sequencer.
    Ordered {
        /// The global order index.
        global: u64,
        /// The member that submitted the command.
        origin: MemberId,
        /// The origin's per-member sequence number.
        seq: u64,
        /// The encoded application command.
        command: Bytes,
    },
    /// A client batch forwarded from its origin to the sequencer in one
    /// frame (command `i` has sequence `first_seq + i`).
    SubmitBatch {
        /// The submitting member.
        origin: MemberId,
        /// The sequence number of the first command in the batch.
        first_seq: u64,
        /// The encoded application commands, in sequence order.
        commands: Vec<Bytes>,
    },
    /// A batch of ordered records multicast by the sequencer in one frame:
    /// entry `i` holds global order index `first_global + i`.
    OrderedBatch {
        /// The global order index of the first entry.
        first_global: u64,
        /// The member that submitted every command in the batch.
        origin: MemberId,
        /// The ordered commands with their per-member sequence numbers.
        entries: Vec<SmrOrderedEntry>,
    },
    /// A recovering member asking a peer for its applied state.  **Any**
    /// member can serve this (state transfer does not depend on the
    /// sequencer being up); peers always answer so the requester leaves
    /// recovery even when it missed nothing.
    CatchUpRequest {
        /// The recovering member.
        member: MemberId,
        /// The requester's current view number.
        view_id: u64,
        /// The requester's applied-prefix frontier (`next_apply`).
        have_applied: u64,
    },
    /// A full state-transfer snapshot answering a [`SmrPeerMsg::CatchUpRequest`].
    Snapshot {
        /// The responder's installed view.
        view: GroupView,
        /// The responder's *assignment frontier*: one past the highest
        /// global index it knows to be assigned (applied or still buffered).
        /// A recovering sequencer resumes ordering above the maximum
        /// frontier it hears, so it never re-assigns a used index.
        next_global: u64,
        /// The responder's applied-prefix frontier.
        next_apply: u64,
        /// The responder's at-most-once guard (`(origin, seq)` pairs ordered
        /// so far), so a recovering sequencer keeps filtering duplicates.
        ordered_seq: Vec<(MemberId, u64)>,
        /// The encoded [`KvStore`] snapshot.
        store: Bytes,
        /// The full delivery log up to `next_apply`.
        delivered: Vec<(MemberId, u64)>,
    },
    /// A recovered member announcing itself to the sequencer, which orders
    /// the rejoin as a [`SmrPeerMsg::ViewChange`] entry.
    Rejoin {
        /// The rejoining member.
        member: MemberId,
    },
    /// A view transition multicast by the sequencer with its own global
    /// order index — a config-change command in the ordered stream.
    ViewChange {
        /// The global order index the transition occupies.
        global: u64,
        /// The successor view to install at that point.
        view: GroupView,
    },
}

impl Wire for SmrPeerMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SmrPeerMsg::Submit {
                origin,
                seq,
                command,
            } => {
                enc.put_u8(0);
                enc.put_member(*origin);
                enc.put_u64(*seq);
                enc.put_bytes(command);
            }
            SmrPeerMsg::Ordered {
                global,
                origin,
                seq,
                command,
            } => {
                enc.put_u8(1);
                enc.put_u64(*global);
                enc.put_member(*origin);
                enc.put_u64(*seq);
                enc.put_bytes(command);
            }
            SmrPeerMsg::SubmitBatch {
                origin,
                first_seq,
                commands,
            } => {
                enc.put_u8(2);
                enc.put_member(*origin);
                enc.put_u64(*first_seq);
                commands.encode(enc);
            }
            SmrPeerMsg::OrderedBatch {
                first_global,
                origin,
                entries,
            } => {
                enc.put_u8(3);
                enc.put_u64(*first_global);
                enc.put_member(*origin);
                entries.encode(enc);
            }
            SmrPeerMsg::CatchUpRequest {
                member,
                view_id,
                have_applied,
            } => {
                enc.put_u8(4);
                enc.put_member(*member);
                enc.put_u64(*view_id);
                enc.put_u64(*have_applied);
            }
            SmrPeerMsg::Snapshot {
                view,
                next_global,
                next_apply,
                ordered_seq,
                store,
                delivered,
            } => {
                enc.put_u8(5);
                view.encode(enc);
                enc.put_u64(*next_global);
                enc.put_u64(*next_apply);
                put_pairs(enc, ordered_seq);
                enc.put_bytes(store);
                put_pairs(enc, delivered);
            }
            SmrPeerMsg::Rejoin { member } => {
                enc.put_u8(6);
                enc.put_member(*member);
            }
            SmrPeerMsg::ViewChange { global, view } => {
                enc.put_u8(7);
                enc.put_u64(*global);
                view.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(SmrPeerMsg::Submit {
                origin: dec.get_member()?,
                seq: dec.get_u64()?,
                command: dec.get_bytes_shared()?,
            }),
            1 => Ok(SmrPeerMsg::Ordered {
                global: dec.get_u64()?,
                origin: dec.get_member()?,
                seq: dec.get_u64()?,
                command: dec.get_bytes_shared()?,
            }),
            2 => Ok(SmrPeerMsg::SubmitBatch {
                origin: dec.get_member()?,
                first_seq: dec.get_u64()?,
                commands: Vec::<Bytes>::decode(dec)?,
            }),
            3 => Ok(SmrPeerMsg::OrderedBatch {
                first_global: dec.get_u64()?,
                origin: dec.get_member()?,
                entries: Vec::<SmrOrderedEntry>::decode(dec)?,
            }),
            4 => Ok(SmrPeerMsg::CatchUpRequest {
                member: dec.get_member()?,
                view_id: dec.get_u64()?,
                have_applied: dec.get_u64()?,
            }),
            5 => Ok(SmrPeerMsg::Snapshot {
                view: GroupView::decode(dec)?,
                next_global: dec.get_u64()?,
                next_apply: dec.get_u64()?,
                ordered_seq: get_pairs(dec)?,
                store: dec.get_bytes_shared()?,
                delivered: get_pairs(dec)?,
            }),
            6 => Ok(SmrPeerMsg::Rejoin {
                member: dec.get_member()?,
            }),
            7 => Ok(SmrPeerMsg::ViewChange {
                global: dec.get_u64()?,
                view: GroupView::decode(dec)?,
            }),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            SmrPeerMsg::Submit { command, .. } => 1 + 4 + 8 + 4 + command.len(),
            SmrPeerMsg::Ordered { command, .. } => 1 + 8 + 4 + 8 + 4 + command.len(),
            SmrPeerMsg::SubmitBatch { commands, .. } => 1 + 4 + 8 + commands.encoded_len(),
            SmrPeerMsg::OrderedBatch { entries, .. } => 1 + 8 + 4 + entries.encoded_len(),
            SmrPeerMsg::CatchUpRequest { .. } => 1 + 4 + 8 + 8,
            SmrPeerMsg::Snapshot {
                view,
                ordered_seq,
                store,
                delivered,
                ..
            } => {
                1 + view.encoded_len()
                    + 8
                    + 8
                    + (4 + 12 * ordered_seq.len())
                    + (4 + store.len())
                    + (4 + 12 * delivered.len())
            }
            SmrPeerMsg::Rejoin { .. } => 1 + 4,
            SmrPeerMsg::ViewChange { view, .. } => 1 + 8 + view.encoded_len(),
        }
    }
}

/// The sequenced replicated key-value machine of one group member.
///
/// Satisfies the paper's requirement **R1**: a deterministic (Mealy) state
/// machine whose outputs depend only on the sequence of inputs, never on
/// clocks, randomness or scheduling — which is what makes it liftable to an
/// FS process by the generic fail-signal wrapper.
#[derive(Debug, Clone)]
pub struct SequencedKv {
    member: MemberId,
    /// The currently installed membership view (first member sequences).
    view: GroupView,
    /// Next global index the sequencer will assign.
    next_global: u64,
    /// Next global index this replica will apply.
    next_apply: u64,
    /// Ordered records received ahead of `next_apply`.
    pending: BTreeMap<u64, Pending>,
    /// Every `(origin, seq)` ordered so far (sequencer-side at-most-once
    /// guard; a set rather than a high-water mark so that submissions
    /// arriving out of order are still each ordered exactly once).
    ordered_seq: std::collections::BTreeSet<(MemberId, u64)>,
    store: KvStore,
    delivered: Vec<(MemberId, u64)>,
    /// True between a [`SmrClientMsg::Recover`] and the first
    /// [`SmrPeerMsg::Snapshot`] reply.  While set, a recovering *sequencer*
    /// must not assign global indices (a cold replacement would restart the
    /// numbering at zero); submissions are parked in `backlog` instead.
    recovering: bool,
    /// Work parked while `recovering`, ordered once recovery completes.
    backlog: Vec<Backlog>,
}

/// An entry buffered at a global order slot ahead of `next_apply`.
#[derive(Debug, Clone)]
enum Pending {
    /// An ordinary ordered command.
    Cmd {
        origin: MemberId,
        seq: u64,
        command: Bytes,
    },
    /// A view transition occupying the slot.
    View(GroupView),
}

/// Sequencer work parked while recovering.
#[derive(Debug, Clone)]
enum Backlog {
    Cmd {
        origin: MemberId,
        seq: u64,
        command: Bytes,
    },
    Join(MemberId),
}

impl SequencedKv {
    /// Creates the machine replica of `member` in `group`.  Member 0 of the
    /// group (its first entry) acts as the sequencer.
    pub fn new(member: MemberId, group: Vec<MemberId>) -> Self {
        Self {
            member,
            view: GroupView::initial(group),
            next_global: 0,
            next_apply: 0,
            pending: BTreeMap::new(),
            ordered_seq: std::collections::BTreeSet::new(),
            store: KvStore::new(),
            delivered: Vec::new(),
            recovering: false,
            backlog: Vec::new(),
        }
    }

    /// The member this replica serves.
    pub fn member(&self) -> MemberId {
        self.member
    }

    /// The group membership of the currently installed view.
    pub fn group(&self) -> &[MemberId] {
        &self.view.members
    }

    /// The currently installed membership view.
    pub fn view(&self) -> &GroupView {
        &self.view
    }

    /// True when this replica is the current view's sequencer.
    pub fn is_sequencer(&self) -> bool {
        self.member == self.view.sequencer()
    }

    /// True while this replica waits for a state-transfer snapshot.
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// The `(origin, seq)` pairs applied so far, in global order.
    pub fn delivered(&self) -> &[(MemberId, u64)] {
        &self.delivered
    }

    /// A digest of the replicated store, for convergence checks.
    pub fn state_digest(&self) -> u64 {
        self.store.state_digest()
    }

    /// Sequencer-side ordering: assigns the next global index and returns the
    /// multicast record plus the local delivery.  While recovering, the
    /// submission is parked instead — a sequencer must re-learn the
    /// assignment frontier before it hands out indices.
    fn order(&mut self, origin: MemberId, seq: u64, command: Bytes) -> Vec<MachineOutput> {
        debug_assert!(self.is_sequencer());
        if self.recovering {
            self.backlog.push(Backlog::Cmd {
                origin,
                seq,
                command,
            });
            return Vec::new();
        }
        if !self.ordered_seq.insert((origin, seq)) {
            return Vec::new();
        }
        let global = self.next_global;
        self.next_global += 1;
        let record = SmrPeerMsg::Ordered {
            global,
            origin,
            seq,
            command: command.clone(),
        };
        let mut out = vec![MachineOutput::broadcast(record.to_wire())];
        self.pending.insert(
            global,
            Pending::Cmd {
                origin,
                seq,
                command,
            },
        );
        out.extend(self.apply_ready());
        out
    }

    /// Sequencer-side ordering of a client batch: every not-yet-ordered
    /// command gets the next consecutive global index, and the whole batch
    /// is multicast as a single [`SmrPeerMsg::OrderedBatch`] frame.
    fn order_batch(
        &mut self,
        origin: MemberId,
        first_seq: u64,
        commands: Vec<Bytes>,
    ) -> Vec<MachineOutput> {
        debug_assert!(self.is_sequencer());
        if self.recovering {
            for (i, command) in commands.into_iter().enumerate() {
                self.backlog.push(Backlog::Cmd {
                    origin,
                    seq: first_seq + i as u64,
                    command,
                });
            }
            return Vec::new();
        }
        let mut fresh = Vec::new();
        for (i, command) in commands.into_iter().enumerate() {
            let seq = first_seq + i as u64;
            if self.ordered_seq.insert((origin, seq)) {
                fresh.push(SmrOrderedEntry { seq, command });
            }
        }
        if fresh.is_empty() {
            return Vec::new();
        }
        let first_global = self.next_global;
        self.next_global += fresh.len() as u64;
        for (i, entry) in fresh.iter().enumerate() {
            self.pending.insert(
                first_global + i as u64,
                Pending::Cmd {
                    origin,
                    seq: entry.seq,
                    command: entry.command.clone(),
                },
            );
        }
        let record = SmrPeerMsg::OrderedBatch {
            first_global,
            origin,
            entries: fresh,
        };
        let mut out = vec![MachineOutput::broadcast(record.to_wire())];
        out.extend(self.apply_ready());
        out
    }

    /// Sequencer-side ordering of a member rejoin: builds the successor view
    /// and multicasts it as a [`SmrPeerMsg::ViewChange`] occupying its own
    /// global order slot, so every replica installs it at the same point.
    fn order_join(&mut self, member: MemberId) -> Vec<MachineOutput> {
        debug_assert!(self.is_sequencer());
        if self.recovering {
            self.backlog.push(Backlog::Join(member));
            return Vec::new();
        }
        let view = self.view.joined(member);
        let global = self.next_global;
        self.next_global += 1;
        let record = SmrPeerMsg::ViewChange {
            global,
            view: view.clone(),
        };
        let mut out = vec![MachineOutput::broadcast(record.to_wire())];
        self.pending.insert(global, Pending::View(view));
        out.extend(self.apply_ready());
        out
    }

    /// One past the highest global index this replica knows to be assigned,
    /// counting both applied entries and records still buffered in `pending`.
    fn assign_frontier(&self) -> u64 {
        let buffered = self.pending.keys().next_back().map_or(0, |g| g + 1);
        self.next_global.max(self.next_apply).max(buffered)
    }

    /// The state-transfer reply describing this replica's applied state.
    fn snapshot_msg(&self) -> SmrPeerMsg {
        SmrPeerMsg::Snapshot {
            view: self.view.clone(),
            next_global: self.assign_frontier(),
            next_apply: self.next_apply,
            ordered_seq: self.ordered_seq.iter().copied().collect(),
            store: self.store.snapshot(),
            delivered: self.delivered.clone(),
        }
    }

    /// Entry point for [`SmrClientMsg::Recover`]: ask every peer for its
    /// state and announce the rejoin so it is sequenced as a view change.
    fn start_recovery(&mut self) -> Vec<MachineOutput> {
        if self.view.members.len() < 2 {
            // A singleton group has nobody to catch up from (and nothing to
            // miss: with its only member down, nothing was ordered).
            return Vec::new();
        }
        self.recovering = true;
        let request = SmrPeerMsg::CatchUpRequest {
            member: self.member,
            view_id: self.view.id,
            have_applied: self.next_apply,
        };
        let mut out = vec![MachineOutput::broadcast(request.to_wire())];
        if self.is_sequencer() {
            // Our own rejoin is ordered once the snapshot restores the
            // assignment frontier.
            self.backlog.push(Backlog::Join(self.member));
        } else {
            let rejoin = SmrPeerMsg::Rejoin {
                member: self.member,
            };
            out.push(MachineOutput::to_peer(
                self.view.sequencer(),
                rejoin.to_wire(),
            ));
        }
        out
    }

    /// Installs a state-transfer snapshot if it is ahead of this replica,
    /// then resumes any parked sequencer work.  Every snapshot — installed
    /// or not — raises the assignment frontier, so a recovered sequencer
    /// never re-assigns a global index a peer has already seen.
    #[allow(clippy::too_many_arguments)]
    fn install_snapshot(
        &mut self,
        view: GroupView,
        next_global: u64,
        next_apply: u64,
        ordered_seq: Vec<(MemberId, u64)>,
        store: Bytes,
        delivered: Vec<(MemberId, u64)>,
    ) -> Vec<MachineOutput> {
        let was_recovering = self.recovering;
        self.recovering = false;
        self.next_global = self.next_global.max(next_global);
        let mut out = Vec::new();
        if next_apply > self.next_apply || view.id > self.view.id {
            match KvStore::restore(&store) {
                Ok(restored) => {
                    self.store = restored;
                    self.view = view;
                    self.next_apply = next_apply;
                    self.ordered_seq = ordered_seq.into_iter().collect();
                    self.delivered = delivered;
                    // Anything buffered below the installed frontier is
                    // already covered by the snapshot — including, possibly,
                    // the ViewChange record of our own rejoin.  Announce the
                    // installed view so the local application always gets
                    // its catch-up-complete signal, even when the snapshot
                    // swallowed the transition slot.
                    self.pending = self.pending.split_off(&self.next_apply);
                    if was_recovering {
                        let install = SmrViewInstall {
                            global: self.next_apply,
                            view: self.view.clone(),
                        };
                        out.push(MachineOutput::to_app(SmrUpcall::View(install).to_wire()));
                    }
                }
                // A malformed snapshot is ignored; another reply will serve.
                Err(_) => self.recovering = was_recovering,
            }
        }
        out.extend(self.apply_ready());
        if was_recovering && !self.recovering {
            out.extend(self.drain_backlog());
        }
        out
    }

    /// Orders everything parked while recovering, in arrival order.
    fn drain_backlog(&mut self) -> Vec<MachineOutput> {
        let parked = std::mem::take(&mut self.backlog);
        let mut out = Vec::new();
        for item in parked {
            match item {
                Backlog::Cmd {
                    origin,
                    seq,
                    command,
                } => out.extend(self.order(origin, seq, command)),
                Backlog::Join(member) => out.extend(self.order_join(member)),
            }
        }
        out
    }

    /// Applies every pending record whose global index is next in line.
    /// Runs of plain commands applied by one machine step go up in **one**
    /// frame — a single [`SmrUpcall::Deliver`], or one [`SmrUpcall::Batch`]
    /// when a batch (or a closed gap) applies several commands back to back;
    /// a view transition in the run closes the current frame, installs the
    /// view and raises its own [`SmrUpcall::View`] at the exact slot.
    fn apply_ready(&mut self) -> Vec<MachineOutput> {
        let mut out = Vec::new();
        let mut first_global = self.next_apply;
        let mut entries: Vec<SmrDeliverEntry> = Vec::new();
        while let Some(pending) = self.pending.remove(&self.next_apply) {
            let global = self.next_apply;
            self.next_apply += 1;
            match pending {
                Pending::Cmd {
                    origin,
                    seq,
                    command,
                } => {
                    let response = self.store.apply(&command);
                    self.delivered.push((origin, seq));
                    entries.push(SmrDeliverEntry {
                        origin,
                        seq,
                        response,
                    });
                }
                Pending::View(view) => {
                    Self::flush_frame(&mut out, first_global, &mut entries);
                    self.view = view.clone();
                    out.push(MachineOutput::to_app(
                        SmrUpcall::View(SmrViewInstall { global, view }).to_wire(),
                    ));
                    first_global = self.next_apply;
                }
            }
        }
        Self::flush_frame(&mut out, first_global, &mut entries);
        out
    }

    /// Closes a run of applied commands into one upcall frame.
    fn flush_frame(
        out: &mut Vec<MachineOutput>,
        first_global: u64,
        entries: &mut Vec<SmrDeliverEntry>,
    ) {
        match entries.len() {
            0 => {}
            1 => {
                let entry = entries.pop().expect("one entry");
                out.push(MachineOutput::to_app(
                    SmrUpcall::Deliver(SmrDeliver {
                        global: first_global,
                        origin: entry.origin,
                        seq: entry.seq,
                        response: entry.response,
                    })
                    .to_wire(),
                ));
            }
            _ => out.push(MachineOutput::to_app(
                SmrUpcall::Batch(SmrDeliverBatch {
                    first_global,
                    entries: std::mem::take(entries),
                })
                .to_wire(),
            )),
        }
    }
}

impl DeterministicMachine for SequencedKv {
    fn handle(&mut self, input: &MachineInput) -> Vec<MachineOutput> {
        match input.source {
            Endpoint::LocalApp => {
                let Ok(msg) = SmrClientMsg::from_wire(&input.bytes) else {
                    return Vec::new();
                };
                match msg {
                    SmrClientMsg::Request(request) => {
                        if self.is_sequencer() {
                            self.order(self.member, request.seq, request.command)
                        } else {
                            let submit = SmrPeerMsg::Submit {
                                origin: self.member,
                                seq: request.seq,
                                command: request.command,
                            };
                            vec![MachineOutput::to_peer(
                                self.view.sequencer(),
                                submit.to_wire(),
                            )]
                        }
                    }
                    SmrClientMsg::Batch {
                        first_seq,
                        commands,
                    } => {
                        if self.is_sequencer() {
                            self.order_batch(self.member, first_seq, commands)
                        } else {
                            let submit = SmrPeerMsg::SubmitBatch {
                                origin: self.member,
                                first_seq,
                                commands,
                            };
                            vec![MachineOutput::to_peer(
                                self.view.sequencer(),
                                submit.to_wire(),
                            )]
                        }
                    }
                    SmrClientMsg::Recover => self.start_recovery(),
                }
            }
            Endpoint::Peer(_) => match SmrPeerMsg::from_wire(&input.bytes) {
                Ok(SmrPeerMsg::Submit {
                    origin,
                    seq,
                    command,
                }) if self.is_sequencer() => self.order(origin, seq, command),
                Ok(SmrPeerMsg::SubmitBatch {
                    origin,
                    first_seq,
                    commands,
                }) if self.is_sequencer() => self.order_batch(origin, first_seq, commands),
                Ok(SmrPeerMsg::Ordered {
                    global,
                    origin,
                    seq,
                    command,
                }) if !self.is_sequencer() => {
                    if global >= self.next_apply {
                        self.pending.insert(
                            global,
                            Pending::Cmd {
                                origin,
                                seq,
                                command,
                            },
                        );
                    }
                    self.apply_ready()
                }
                Ok(SmrPeerMsg::OrderedBatch {
                    first_global,
                    origin,
                    entries,
                }) if !self.is_sequencer() => {
                    for (i, entry) in entries.into_iter().enumerate() {
                        let global = first_global + i as u64;
                        if global >= self.next_apply {
                            self.pending.insert(
                                global,
                                Pending::Cmd {
                                    origin,
                                    seq: entry.seq,
                                    command: entry.command,
                                },
                            );
                        }
                    }
                    self.apply_ready()
                }
                Ok(SmrPeerMsg::CatchUpRequest { member, .. }) if member != self.member => {
                    // Any member serves state transfer; the reply is sent
                    // unconditionally so the requester always leaves
                    // recovery, even when it missed nothing.
                    vec![MachineOutput::to_peer(
                        member,
                        self.snapshot_msg().to_wire(),
                    )]
                }
                Ok(SmrPeerMsg::Snapshot {
                    view,
                    next_global,
                    next_apply,
                    ordered_seq,
                    store,
                    delivered,
                }) => self.install_snapshot(
                    view,
                    next_global,
                    next_apply,
                    ordered_seq,
                    store,
                    delivered,
                ),
                Ok(SmrPeerMsg::Rejoin { member }) if self.is_sequencer() => self.order_join(member),
                Ok(SmrPeerMsg::ViewChange { global, view }) if !self.is_sequencer() => {
                    if global >= self.next_apply {
                        self.pending.insert(global, Pending::View(view));
                    }
                    self.apply_ready()
                }
                _ => Vec::new(),
            },
            // Environment inputs (e.g. converted fail-signals) carry no
            // commands for this service; they are acknowledged silently.
            Endpoint::Broadcast | Endpoint::Environment => Vec::new(),
        }
    }

    fn processing_cost(&self, _input: &MachineInput) -> SimDuration {
        SimDuration::from_micros(150)
    }

    fn name(&self) -> String {
        format!("smr-kv-{}", self.member.0)
    }

    fn delivered_log(&self) -> Option<Vec<(MemberId, u64)>> {
        Some(self.delivered.clone())
    }

    fn app_digest(&self) -> Option<u64> {
        Some(self.state_digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::KvCommand;
    use crate::machine::check_determinism;

    fn group(n: u32) -> Vec<MemberId> {
        (0..n).map(MemberId).collect()
    }

    fn put_command(member: MemberId, seq: u64) -> Bytes {
        KvCommand::Put {
            key: format!("m{}-{}", member.0, seq),
            value: vec![seq as u8],
        }
        .to_wire()
    }

    fn put(member: MemberId, seq: u64) -> Bytes {
        SmrClientMsg::Request(SmrRequest {
            seq,
            command: put_command(member, seq),
        })
        .to_wire()
    }

    /// Routes machine outputs through an in-order network until quiescence
    /// and returns the machines for inspection.
    fn run_until_drained(machines: &mut [SequencedKv], mut queue: Vec<(MemberId, MachineOutput)>) {
        while let Some((src, output)) = queue.pop() {
            match output.dest {
                Endpoint::Peer(dest) => {
                    let more = machines[dest.0 as usize]
                        .handle(&MachineInput::from_peer(src, output.bytes));
                    queue.extend(more.into_iter().map(|o| (dest, o)));
                }
                Endpoint::Broadcast => {
                    for dest in 0..machines.len() as u32 {
                        if MemberId(dest) == src {
                            continue;
                        }
                        let more = machines[dest as usize]
                            .handle(&MachineInput::from_peer(src, output.bytes.clone()));
                        queue.extend(more.into_iter().map(|o| (MemberId(dest), o)));
                    }
                }
                Endpoint::LocalApp | Endpoint::Environment => {}
            }
        }
    }

    #[test]
    fn commands_from_every_member_are_totally_ordered() {
        let mut machines: Vec<SequencedKv> = group(3)
            .into_iter()
            .map(|m| SequencedKv::new(m, group(3)))
            .collect();
        let mut queue = Vec::new();
        for seq in 0..4u64 {
            for m in 0..3u32 {
                let out =
                    machines[m as usize].handle(&MachineInput::from_app(put(MemberId(m), seq)));
                queue.extend(out.into_iter().map(|o| (MemberId(m), o)));
            }
        }
        run_until_drained(&mut machines, queue);
        assert_eq!(machines[0].delivered().len(), 12);
        for m in &machines[1..] {
            assert_eq!(m.delivered(), machines[0].delivered());
            assert_eq!(m.state_digest(), machines[0].state_digest());
        }
    }

    #[test]
    fn out_of_order_records_are_buffered() {
        let mut m = SequencedKv::new(MemberId(1), group(2));
        let late = SmrPeerMsg::Ordered {
            global: 1,
            origin: MemberId(0),
            seq: 1,
            command: KvCommand::Put {
                key: "b".into(),
                value: vec![2],
            }
            .to_wire(),
        };
        let early = SmrPeerMsg::Ordered {
            global: 0,
            origin: MemberId(0),
            seq: 0,
            command: KvCommand::Put {
                key: "a".into(),
                value: vec![1],
            }
            .to_wire(),
        };
        assert!(m
            .handle(&MachineInput::from_peer(MemberId(0), late.to_wire()))
            .is_empty());
        let out = m.handle(&MachineInput::from_peer(MemberId(0), early.to_wire()));
        assert_eq!(out.len(), 1, "closing the gap applies both in one frame");
        let upcall = SmrUpcall::from_wire(&out[0].bytes).unwrap();
        match upcall {
            SmrUpcall::Batch(batch) => {
                assert_eq!(batch.first_global, 0);
                assert_eq!(batch.entries.len(), 2);
                assert_eq!(batch.entries[0].seq, 0);
                assert_eq!(batch.entries[1].seq, 1);
            }
            other => panic!("expected a batched upcall, got {other:?}"),
        }
        assert_eq!(m.delivered(), &[(MemberId(0), 0), (MemberId(0), 1)]);
    }

    #[test]
    fn sequencer_filters_duplicate_submissions() {
        let mut seq = SequencedKv::new(MemberId(0), group(2));
        let submit = SmrPeerMsg::Submit {
            origin: MemberId(1),
            seq: 1,
            command: KvCommand::Put {
                key: "k".into(),
                value: vec![9],
            }
            .to_wire(),
        };
        let first = seq.handle(&MachineInput::from_peer(MemberId(1), submit.to_wire()));
        assert!(!first.is_empty());
        let dup = seq.handle(&MachineInput::from_peer(MemberId(1), submit.to_wire()));
        assert!(dup.is_empty(), "replayed submission must not re-order");
        assert_eq!(seq.delivered().len(), 1);
    }

    #[test]
    fn machine_is_deterministic() {
        let inputs: Vec<MachineInput> = (0..12u64)
            .map(|i| {
                if i % 3 == 0 {
                    MachineInput::from_app(put(MemberId(0), i))
                } else {
                    MachineInput::from_peer(
                        MemberId(1),
                        SmrPeerMsg::Submit {
                            origin: MemberId(1),
                            seq: i,
                            command: KvCommand::Put {
                                key: format!("k{i}"),
                                value: vec![i as u8],
                            }
                            .to_wire(),
                        }
                        .to_wire(),
                    )
                }
            })
            .collect();
        assert!(check_determinism(
            || SequencedKv::new(MemberId(0), group(2)),
            &inputs
        ));
    }

    #[test]
    fn wire_round_trips() {
        let req = SmrRequest {
            seq: 7,
            command: Bytes::from(&b"cmd"[..]),
        };
        assert_eq!(SmrRequest::from_wire(&req.to_wire()).unwrap(), req);
        assert_eq!(req.encoded_len(), req.to_wire().len());
        let del = SmrDeliver {
            global: 1,
            origin: MemberId(2),
            seq: 3,
            response: Bytes::from(&b"ok"[..]),
        };
        assert_eq!(SmrDeliver::from_wire(&del.to_wire()).unwrap(), del);
        assert_eq!(del.encoded_len(), del.to_wire().len());
        for msg in [
            SmrPeerMsg::Submit {
                origin: MemberId(1),
                seq: 4,
                command: Bytes::from(&b"c"[..]),
            },
            SmrPeerMsg::Ordered {
                global: 9,
                origin: MemberId(1),
                seq: 4,
                command: Bytes::from(&b"c"[..]),
            },
        ] {
            assert_eq!(SmrPeerMsg::from_wire(&msg.to_wire()).unwrap(), msg);
            assert_eq!(msg.encoded_len(), msg.to_wire().len());
        }
    }

    #[test]
    fn batched_wire_round_trips() {
        let client = SmrClientMsg::Request(SmrRequest {
            seq: 5,
            command: Bytes::from(&b"one"[..]),
        });
        assert_eq!(SmrClientMsg::from_wire(&client.to_wire()).unwrap(), client);
        assert_eq!(client.encoded_len(), client.to_wire().len());
        let batch = SmrClientMsg::Batch {
            first_seq: 10,
            commands: vec![Bytes::from(&b"a"[..]), Bytes::from(&b"bb"[..])],
        };
        assert_eq!(SmrClientMsg::from_wire(&batch.to_wire()).unwrap(), batch);
        assert_eq!(batch.encoded_len(), batch.to_wire().len());
        for msg in [
            SmrPeerMsg::SubmitBatch {
                origin: MemberId(2),
                first_seq: 3,
                commands: vec![Bytes::from(&b"x"[..]), Bytes::from(&b"yz"[..])],
            },
            SmrPeerMsg::OrderedBatch {
                first_global: 11,
                origin: MemberId(2),
                entries: vec![
                    SmrOrderedEntry {
                        seq: 3,
                        command: Bytes::from(&b"x"[..]),
                    },
                    SmrOrderedEntry {
                        seq: 4,
                        command: Bytes::from(&b"yz"[..]),
                    },
                ],
            },
        ] {
            assert_eq!(SmrPeerMsg::from_wire(&msg.to_wire()).unwrap(), msg);
            assert_eq!(msg.encoded_len(), msg.to_wire().len());
        }
        for upcall in [
            SmrUpcall::Deliver(SmrDeliver {
                global: 0,
                origin: MemberId(1),
                seq: 0,
                response: Bytes::from(&b"ok"[..]),
            }),
            SmrUpcall::Batch(SmrDeliverBatch {
                first_global: 4,
                entries: vec![
                    SmrDeliverEntry {
                        origin: MemberId(1),
                        seq: 6,
                        response: Bytes::from(&b"r1"[..]),
                    },
                    SmrDeliverEntry {
                        origin: MemberId(1),
                        seq: 7,
                        response: Bytes::from(&b"r2"[..]),
                    },
                ],
            }),
        ] {
            assert_eq!(SmrUpcall::from_wire(&upcall.to_wire()).unwrap(), upcall);
            assert_eq!(upcall.encoded_len(), upcall.to_wire().len());
        }
    }

    #[test]
    fn batch_orders_every_command_in_one_frame() {
        let mut machines: Vec<SequencedKv> = group(2)
            .into_iter()
            .map(|m| SequencedKv::new(m, group(2)))
            .collect();
        let batch = SmrClientMsg::Batch {
            first_seq: 0,
            commands: (0..4).map(|i| put_command(MemberId(0), i)).collect(),
        }
        .to_wire();
        let out = machines[0].handle(&MachineInput::from_app(batch));
        // One OrderedBatch broadcast + one batched local upcall.
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].dest, Endpoint::Broadcast));
        assert!(matches!(
            SmrPeerMsg::from_wire(&out[0].bytes).unwrap(),
            SmrPeerMsg::OrderedBatch { first_global: 0, ref entries, .. } if entries.len() == 4
        ));
        assert!(matches!(out[1].dest, Endpoint::LocalApp));
        assert!(matches!(
            SmrUpcall::from_wire(&out[1].bytes).unwrap(),
            SmrUpcall::Batch(ref b) if b.entries.len() == 4
        ));
        run_until_drained(&mut machines, vec![(MemberId(0), out[0].clone())]);
        assert_eq!(machines[1].delivered(), machines[0].delivered());
        assert_eq!(machines[1].state_digest(), machines[0].state_digest());
    }

    #[test]
    fn batch_filters_already_ordered_commands() {
        let mut seq = SequencedKv::new(MemberId(0), group(2));
        let submit = SmrPeerMsg::Submit {
            origin: MemberId(1),
            seq: 1,
            command: put_command(MemberId(1), 1),
        };
        assert!(!seq
            .handle(&MachineInput::from_peer(MemberId(1), submit.to_wire()))
            .is_empty());
        // A batch overlapping the already ordered (origin 1, seq 1) only
        // orders the fresh commands.
        let batch = SmrPeerMsg::SubmitBatch {
            origin: MemberId(1),
            first_seq: 0,
            commands: (0..3).map(|i| put_command(MemberId(1), i)).collect(),
        };
        let out = seq.handle(&MachineInput::from_peer(MemberId(1), batch.to_wire()));
        assert!(matches!(
            SmrPeerMsg::from_wire(&out[0].bytes).unwrap(),
            SmrPeerMsg::OrderedBatch { ref entries, .. }
                if entries.iter().map(|e| e.seq).collect::<Vec<_>>() == vec![0, 2]
        ));
        assert_eq!(
            seq.delivered(),
            &[(MemberId(1), 1), (MemberId(1), 0), (MemberId(1), 2)]
        );
        // Replaying the whole batch is a no-op.
        assert!(seq
            .handle(&MachineInput::from_peer(MemberId(1), batch.to_wire()))
            .is_empty());
    }

    #[test]
    fn batched_and_unbatched_runs_apply_the_same_commands() {
        let run = |batch_max: u64| {
            let mut machines: Vec<SequencedKv> = group(3)
                .into_iter()
                .map(|m| SequencedKv::new(m, group(3)))
                .collect();
            // Member 1 submits 8 commands, batched or one at a time; each
            // frame is fully routed before the next is submitted.
            let mut seq = 0u64;
            while seq < 8 {
                let n = batch_max.min(8 - seq);
                let frame = if n == 1 {
                    SmrClientMsg::Request(SmrRequest {
                        seq,
                        command: put_command(MemberId(1), seq),
                    })
                } else {
                    SmrClientMsg::Batch {
                        first_seq: seq,
                        commands: (seq..seq + n)
                            .map(|s| put_command(MemberId(1), s))
                            .collect(),
                    }
                };
                let out = machines[1].handle(&MachineInput::from_app(frame.to_wire()));
                let queue = out.into_iter().map(|o| (MemberId(1), o)).collect();
                run_until_drained(&mut machines, queue);
                seq += n;
            }
            machines
                .iter()
                .map(|m| (m.delivered().to_vec(), m.state_digest()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4), "batching must not change what is applied");
    }

    /// Submits `seqs` commands from each member and routes to quiescence.
    fn run_load(machines: &mut [SequencedKv], seqs: std::ops::Range<u64>) {
        let n = machines.len() as u32;
        let mut queue = Vec::new();
        for seq in seqs {
            for m in 0..n {
                let out =
                    machines[m as usize].handle(&MachineInput::from_app(put(MemberId(m), seq)));
                queue.extend(out.into_iter().map(|o| (MemberId(m), o)));
            }
        }
        run_until_drained(machines, queue);
    }

    #[test]
    fn cold_replacement_catches_up_via_snapshot() {
        let mut machines: Vec<SequencedKv> = group(3)
            .into_iter()
            .map(|m| SequencedKv::new(m, group(3)))
            .collect();
        run_load(&mut machines, 0..4);
        assert_eq!(machines[2].delivered().len(), 12);

        // Member 2 is replaced by a fresh, empty replica: without state
        // transfer it would diverge forever.
        machines[2] = SequencedKv::new(MemberId(2), group(3));
        assert!(machines[2].delivered().is_empty());
        let out = machines[2].handle(&MachineInput::from_app(SmrClientMsg::Recover.to_wire()));
        assert!(machines[2].is_recovering());
        run_until_drained(
            &mut machines,
            out.into_iter().map(|o| (MemberId(2), o)).collect(),
        );

        assert!(!machines[2].is_recovering());
        assert_eq!(machines[2].delivered(), machines[0].delivered());
        assert_eq!(machines[2].state_digest(), machines[0].state_digest());
        // The rejoin was ordered as a view transition everybody installed.
        for m in &machines {
            assert_eq!(m.view().id, 1, "{:?}", m.member());
            assert_eq!(m.view(), machines[0].view());
        }

        // The group keeps working, and the rejoined member keeps up.
        run_load(&mut machines, 4..6);
        assert_eq!(machines[2].delivered(), machines[0].delivered());
        assert_eq!(machines[2].state_digest(), machines[0].state_digest());
    }

    #[test]
    fn replacement_sequencer_orders_only_after_catch_up() {
        let mut machines: Vec<SequencedKv> = group(3)
            .into_iter()
            .map(|m| SequencedKv::new(m, group(3)))
            .collect();
        run_load(&mut machines, 0..3);
        let old_len = machines[1].delivered().len();
        assert_eq!(old_len, 9);

        // The sequencer itself is replaced cold.  A fresh sequencer that
        // ordered immediately would restart the numbering at global 0 and
        // collide with the existing history.
        machines[0] = SequencedKv::new(MemberId(0), group(3));
        let recovery = machines[0].handle(&MachineInput::from_app(SmrClientMsg::Recover.to_wire()));

        // A submission arriving mid-recovery is parked, not ordered.
        let submit = SmrPeerMsg::Submit {
            origin: MemberId(1),
            seq: 100,
            command: put_command(MemberId(1), 100),
        };
        assert!(machines[0]
            .handle(&MachineInput::from_peer(MemberId(1), submit.to_wire()))
            .is_empty());

        run_until_drained(
            &mut machines,
            recovery.into_iter().map(|o| (MemberId(0), o)).collect(),
        );

        // After catch-up the parked work was ordered above the old history:
        // everyone has the 9 old commands, the rejoin view change, and the
        // parked submission — in the same order, with the same state.
        assert!(!machines[0].is_recovering());
        assert_eq!(machines[0].delivered().len(), old_len + 1);
        assert_eq!(machines[0].delivered().last(), Some(&(MemberId(1), 100)));
        for m in &machines[1..] {
            assert_eq!(m.delivered(), machines[0].delivered());
            assert_eq!(m.state_digest(), machines[0].state_digest());
            assert_eq!(m.view().id, 1);
        }
    }

    #[test]
    fn warm_recovery_without_missed_state_still_rejoins() {
        let mut machines: Vec<SequencedKv> = group(3)
            .into_iter()
            .map(|m| SequencedKv::new(m, group(3)))
            .collect();
        run_load(&mut machines, 0..2);
        // Member 1 recovers warm with its state intact; the catch-up replies
        // carry nothing new but still clear the recovery flag, and the
        // rejoin still bumps the view.
        let out = machines[1].handle(&MachineInput::from_app(SmrClientMsg::Recover.to_wire()));
        run_until_drained(
            &mut machines,
            out.into_iter().map(|o| (MemberId(1), o)).collect(),
        );
        assert!(!machines[1].is_recovering());
        for m in &machines {
            assert_eq!(m.view().id, 1);
            assert_eq!(m.delivered(), machines[0].delivered());
        }
    }

    #[test]
    fn singleton_group_recover_is_a_no_op() {
        let mut m = SequencedKv::new(MemberId(0), group(1));
        assert!(m
            .handle(&MachineInput::from_app(SmrClientMsg::Recover.to_wire()))
            .is_empty());
        assert!(!m.is_recovering());
    }

    #[test]
    fn recovery_wire_round_trips() {
        let recover = SmrClientMsg::Recover;
        assert_eq!(
            SmrClientMsg::from_wire(&recover.to_wire()).unwrap(),
            recover
        );
        assert_eq!(recover.encoded_len(), recover.to_wire().len());
        let view = GroupView {
            id: 3,
            members: vec![MemberId(0), MemberId(1), MemberId(2)],
        };
        assert_eq!(GroupView::from_wire(&view.to_wire()).unwrap(), view);
        assert_eq!(view.encoded_len(), view.to_wire().len());
        for msg in [
            SmrPeerMsg::CatchUpRequest {
                member: MemberId(2),
                view_id: 1,
                have_applied: 5,
            },
            SmrPeerMsg::Snapshot {
                view: view.clone(),
                next_global: 9,
                next_apply: 8,
                ordered_seq: vec![(MemberId(0), 1), (MemberId(1), 2)],
                store: KvStore::new().snapshot(),
                delivered: vec![(MemberId(0), 1)],
            },
            SmrPeerMsg::Rejoin {
                member: MemberId(1),
            },
            SmrPeerMsg::ViewChange {
                global: 12,
                view: view.clone(),
            },
        ] {
            assert_eq!(SmrPeerMsg::from_wire(&msg.to_wire()).unwrap(), msg);
            assert_eq!(msg.encoded_len(), msg.to_wire().len());
        }
        let upcall = SmrUpcall::View(SmrViewInstall { global: 12, view });
        assert_eq!(SmrUpcall::from_wire(&upcall.to_wire()).unwrap(), upcall);
        assert_eq!(upcall.encoded_len(), upcall.to_wire().len());
    }

    #[test]
    fn view_semantics() {
        let v = GroupView::initial(group(3));
        assert_eq!(v.id, 0);
        assert_eq!(v.sequencer(), MemberId(0));
        assert!(v.contains(MemberId(2)));
        assert!(!v.contains(MemberId(3)));
        // Rejoin of a current member bumps the id, keeps the members.
        let rejoined = v.joined(MemberId(2));
        assert_eq!(rejoined.id, 1);
        assert_eq!(rejoined.members, v.members);
        // A genuinely new member is appended (never displacing the sequencer).
        let grown = v.joined(MemberId(3));
        assert_eq!(grown.members.len(), 4);
        assert_eq!(grown.sequencer(), MemberId(0));
    }

    /// A view with no member has no sequencer: a peer that sends one must
    /// not be able to make the next input panic.
    #[test]
    fn a_peer_cannot_install_an_empty_view() {
        let mut m = SequencedKv::new(MemberId(1), group(2));
        let empty = GroupView {
            id: 1,
            members: vec![],
        };
        let change = SmrPeerMsg::ViewChange {
            global: 0,
            view: empty.clone(),
        };
        m.handle(&MachineInput::from_peer(MemberId(0), change.to_wire()));
        m.handle(&MachineInput::from_app(put(MemberId(1), 0)));
        assert!(GroupView::from_wire(&empty.to_wire()).is_err());
        assert_eq!(m.view().sequencer(), MemberId(0));
    }

    #[test]
    fn malformed_inputs_are_ignored() {
        let mut m = SequencedKv::new(MemberId(0), group(2));
        assert!(m.handle(&MachineInput::from_app(vec![0xff])).is_empty());
        assert!(m
            .handle(&MachineInput::from_env(b"suspect".to_vec()))
            .is_empty());
        assert!(m.processing_cost(&MachineInput::from_app(vec![])) > SimDuration::ZERO);
        assert_eq!(m.name(), "smr-kv-0");
        assert!(m.is_sequencer());
    }
}
