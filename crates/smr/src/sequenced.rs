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
//! * a member receiving client commands forwards them to the sequencer
//!   (member 0) as a [`SmrPeerMsg::SubmitBatch`];
//! * the sequencer assigns global sequence numbers and multicasts the
//!   resulting [`SmrPeerMsg::OrderedBatch`] record to every peer;
//! * every member applies ordered records strictly in global order to its
//!   local [`KvStore`] replica and raises an [`SmrUpcall::Batch`] to its
//!   local application.
//!
//! # Request batching
//!
//! Every command travels in a batch, and a single command is a batch of
//! one.  A batch travels the ordering round as **one frame** end to end —
//! one [`SmrClientMsg::Batch`] from the application, one
//! [`SmrPeerMsg::SubmitBatch`] to the sequencer, one
//! [`SmrPeerMsg::OrderedBatch`] multicast, one [`SmrUpcall::Batch`] upcall —
//! so under the fail-signal wrapper one signature covers all N commands
//! (every machine output is exactly one signed candidate frame).  Each
//! batched command still gets its own global order index and its own
//! at-most-once guard, so batched and unbatched runs apply the identical
//! command sequence.
//!
//! A one-entry batch is written in the short form: its own tag and no
//! entry count, so an unbatched command costs four bytes less on the wire
//! and its frames are the ones the pinned traces of `tests/golden.rs` hold.
//! Decoders accept the counted form of a one-entry batch too.
//!
//! Indices stop below `u64::MAX`: a batch whose sequence numbers or global
//! indices would reach it is dropped whole, whoever sent it, so no counter
//! wraps.
//!
//! [`SequencedKv`] implements [`DeterministicMachine`] and honours the R1
//! determinism contract: it consults no clocks or random sources, and its
//! outputs are a pure function of the input sequence.  Identical replicas fed
//! identical inputs therefore produce byte-identical outputs — exactly what
//! the fail-signal wrapper pair compares.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used
)]

use std::collections::BTreeMap;

use fs_common::codec::{Decoder, Encoder, Wire};
use fs_common::error::CodecError;
use fs_common::id::MemberId;
use fs_common::time::SimDuration;
use fs_common::{Bytes, SeqWindow};

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
    #[expect(
        clippy::expect_used,
        reason = "a view off the wire has a member (decoding rejects an empty list), \
                  a joined view adds one, and the initial view is the caller's group"
    )]
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
    /// agreed rejoin epoch.  `None` once the id is `u64::MAX`.
    pub fn joined(&self, member: MemberId) -> Option<Self> {
        let mut members = self.members.clone();
        if !members.contains(&member) {
            members.push(member);
        }
        Some(Self {
            id: self.id.checked_add(1)?,
            members,
        })
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
        self.members.len().saturating_mul(4).saturating_add(8 + 4)
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

/// Writes a batch frame: a tag, the frame's `head` fields, then the entries.
/// The one place a batch picks its form: a one-entry batch is written short
/// — the `short` tag and no entry count, the bytes of a single-command
/// frame — and any other batch counted, under the `counted` tag.
fn put_batch<T: Wire>(
    enc: &mut Encoder,
    (short, counted): (u8, u8),
    head: impl FnOnce(&mut Encoder),
    entries: &[T],
) {
    let short_form = entries.len() == 1;
    enc.put_u8(if short_form { short } else { counted });
    head(enc);
    if !short_form {
        enc.put_u32(entries.len() as u32);
    }
    for entry in entries {
        entry.encode(enc);
    }
}

/// The length [`put_batch`] writes for `entries`, tag and head excluded.
/// Here and in every `encoded_len` of this module lengths saturate: a
/// length past `usize::MAX` belongs to no encoding that fits in memory.
fn batch_len<T: Wire>(entries: &[T]) -> usize {
    let count = if entries.len() == 1 { 0 } else { 4 };
    entries
        .iter()
        .map(Wire::encoded_len)
        .fold(count, usize::saturating_add)
}

/// Reads the entries of a batch frame in the form its tag announced.
fn get_batch<T: Wire>(dec: &mut Decoder<'_>, counted: bool) -> Result<Vec<T>, CodecError> {
    if counted {
        Vec::<T>::decode(dec)
    } else {
        Ok(vec![T::decode(dec)?])
    }
}

/// The frame a local application sends to its service machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmrClientMsg {
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
            SmrClientMsg::Batch {
                first_seq,
                commands,
            } => put_batch(enc, (0, 1), |enc| enc.put_u64(*first_seq), commands),
            SmrClientMsg::Recover => enc.put_u8(2),
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            tag @ (0 | 1) => Ok(SmrClientMsg::Batch {
                first_seq: dec.get_u64()?,
                commands: get_batch(dec, tag == 1)?,
            }),
            2 => Ok(SmrClientMsg::Recover),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            SmrClientMsg::Batch { commands, .. } => batch_len(commands).saturating_add(1 + 8),
            SmrClientMsg::Recover => 1,
        }
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
        self.response.len().saturating_add(4 + 8 + 4)
    }
}

/// A delivery upcall: entry `i` was applied at global order index
/// `first_global + i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmrDeliverBatch {
    /// The global order index of the first entry.
    pub first_global: u64,
    /// The applied commands, in global order.
    pub entries: Vec<SmrDeliverEntry>,
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
        self.view.encoded_len().saturating_add(8)
    }
}

/// The frame a service machine sends up to its local application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmrUpcall {
    /// The commands applied back to back by one machine step.
    Batch(SmrDeliverBatch),
    /// A membership view transition was applied at its global order slot.
    View(SmrViewInstall),
}

impl Wire for SmrUpcall {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SmrUpcall::Batch(batch) => put_batch(
                enc,
                (0, 1),
                |enc| enc.put_u64(batch.first_global),
                &batch.entries,
            ),
            SmrUpcall::View(install) => {
                enc.put_u8(2);
                install.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            tag @ (0 | 1) => Ok(SmrUpcall::Batch(SmrDeliverBatch {
                first_global: dec.get_u64()?,
                entries: get_batch(dec, tag == 1)?,
            })),
            2 => Ok(SmrUpcall::View(SmrViewInstall::decode(dec)?)),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            SmrUpcall::Batch(batch) => batch_len(&batch.entries).saturating_add(1 + 8),
            SmrUpcall::View(install) => install.encoded_len().saturating_add(1),
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
        self.command.len().saturating_add(8 + 4)
    }
}

/// Messages exchanged between the service machines of different members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmrPeerMsg {
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
            SmrPeerMsg::SubmitBatch {
                origin,
                first_seq,
                commands,
            } => put_batch(
                enc,
                (0, 2),
                |enc| {
                    enc.put_member(*origin);
                    enc.put_u64(*first_seq);
                },
                commands,
            ),
            SmrPeerMsg::OrderedBatch {
                first_global,
                origin,
                entries,
            } => put_ordered(enc, *first_global, *origin, entries),
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
            tag @ (0 | 2) => Ok(SmrPeerMsg::SubmitBatch {
                origin: dec.get_member()?,
                first_seq: dec.get_u64()?,
                commands: get_batch(dec, tag == 2)?,
            }),
            tag @ (1 | 3) => Ok(SmrPeerMsg::OrderedBatch {
                first_global: dec.get_u64()?,
                origin: dec.get_member()?,
                entries: get_batch(dec, tag == 3)?,
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
            SmrPeerMsg::SubmitBatch { commands, .. } => {
                batch_len(commands).saturating_add(1 + 4 + 8)
            }
            SmrPeerMsg::OrderedBatch { entries, .. } => ordered_len(entries),
            SmrPeerMsg::CatchUpRequest { .. } => 1 + 4 + 8 + 8,
            SmrPeerMsg::Snapshot {
                view,
                ordered_seq,
                store,
                delivered,
                ..
            } => [
                view.encoded_len(),
                ordered_seq.len().saturating_mul(12),
                store.len(),
                delivered.len().saturating_mul(12),
            ]
            .into_iter()
            .fold(1 + 8 + 8 + 4 + 4 + 4, usize::saturating_add),
            SmrPeerMsg::Rejoin { .. } => 1 + 4,
            SmrPeerMsg::ViewChange { view, .. } => view.encoded_len().saturating_add(1 + 8),
        }
    }
}

/// Writes a [`SmrPeerMsg::OrderedBatch`] from its parts.
fn put_ordered(
    enc: &mut Encoder,
    first_global: u64,
    origin: MemberId,
    entries: &[SmrOrderedEntry],
) {
    let head = |enc: &mut Encoder| {
        enc.put_u64(first_global);
        enc.put_member(origin);
    };
    put_batch(enc, (1, 3), head, entries);
}

/// The length [`put_ordered`] writes.
fn ordered_len(entries: &[SmrOrderedEntry]) -> usize {
    batch_len(entries).saturating_add(1 + 8 + 4)
}

/// The bytes of a [`SmrPeerMsg::OrderedBatch`], written from its parts.
fn ordered_batch_wire(first_global: u64, origin: MemberId, entries: &[SmrOrderedEntry]) -> Bytes {
    let mut enc = Encoder::with_capacity(ordered_len(entries));
    put_ordered(&mut enc, first_global, origin, entries);
    enc.finish()
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
    /// The ordered records that overtook a hole, by global index.  Its
    /// frontier is the next global index this replica applies: a record
    /// that is next in line is applied as it arrives and never stored, and
    /// an index chosen by a peer never sizes an allocation.
    pending: SeqWindow<Pending>,
    /// Per origin, the seqs ordered so far: the sequencer's at-most-once
    /// guard, exact under out-of-order submissions.
    ordered_seq: BTreeMap<MemberId, SeqWindow>,
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

/// An entry at a global order slot, applied when the slot is next in line.
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

/// Applies the records `pending` releases, in global order, and frames
/// their upcalls.  Runs of plain commands applied by one machine step go up
/// in **one** [`SmrUpcall::Batch`] frame; a view transition in the run
/// closes the current frame, installs the view and raises its own
/// [`SmrUpcall::View`] at the exact slot.
struct Applier<'a> {
    store: &'a mut KvStore,
    delivered: &'a mut Vec<(MemberId, u64)>,
    view: &'a mut GroupView,
    out: &'a mut Vec<MachineOutput>,
    /// The open frame: the commands applied from `first_global` on.
    first_global: u64,
    entries: Vec<SmrDeliverEntry>,
}

impl Applier<'_> {
    /// Applies the record at global index `global`.
    fn apply(&mut self, global: u64, record: Pending) {
        match record {
            Pending::Cmd {
                origin,
                seq,
                command,
            } => {
                if self.entries.is_empty() {
                    self.first_global = global;
                }
                let response = self.store.apply(&command);
                self.delivered.push((origin, seq));
                self.entries.push(SmrDeliverEntry {
                    origin,
                    seq,
                    response,
                });
            }
            Pending::View(view) => {
                self.close_frame();
                *self.view = view.clone();
                let install = SmrViewInstall { global, view };
                self.out
                    .push(MachineOutput::to_app(SmrUpcall::View(install).to_wire()));
            }
        }
    }

    /// Closes the open run of applied commands into one upcall frame.
    fn close_frame(&mut self) {
        if !self.entries.is_empty() {
            let batch = SmrDeliverBatch {
                first_global: self.first_global,
                entries: std::mem::take(&mut self.entries),
            };
            self.out
                .push(MachineOutput::to_app(SmrUpcall::Batch(batch).to_wire()));
        }
    }
}

impl SequencedKv {
    /// Creates the machine replica of `member` in `group`.  Member 0 of the
    /// group (its first entry) acts as the sequencer.
    pub fn new(member: MemberId, group: Vec<MemberId>) -> Self {
        Self {
            member,
            view: GroupView::initial(group),
            next_global: 0,
            pending: SeqWindow::default(),
            ordered_seq: BTreeMap::new(),
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

    /// The next global index this replica applies.
    fn next_apply(&self) -> u64 {
        self.pending.frontier()
    }

    /// Runs `feed` against `pending`, applying every record it releases,
    /// and closes the last upcall frame into `out`; `expected` sizes the
    /// frame's entry list.
    fn apply_released(
        &mut self,
        out: &mut Vec<MachineOutput>,
        expected: usize,
        feed: impl FnOnce(&mut SeqWindow<Pending>, &mut Applier<'_>),
    ) {
        let Self {
            pending,
            store,
            delivered,
            view,
            ..
        } = self;
        let mut applier = Applier {
            store,
            delivered,
            view,
            out,
            first_global: 0,
            entries: Vec::with_capacity(expected),
        };
        feed(pending, &mut applier);
        applier.close_frame();
    }

    /// Holds or applies `records`, record `i` at global index
    /// `first_global + i`; `end` is one past the last index.
    fn hold_or_apply(
        &mut self,
        first_global: u64,
        end: u64,
        records: impl ExactSizeIterator<Item = Pending>,
        out: &mut Vec<MachineOutput>,
    ) {
        self.apply_released(out, records.len(), |pending, applier| {
            for (global, record) in (first_global..end).zip(records) {
                pending.insert_then(global, record, |global, record| {
                    applier.apply(global, record);
                });
            }
        });
    }

    /// Sequencer-side ordering of a batch: every not-yet-ordered command
    /// gets the next consecutive global index, and the batch is multicast
    /// as one [`SmrPeerMsg::OrderedBatch`] record ahead of its upcall.
    /// While recovering, the commands are parked instead — a sequencer must
    /// re-learn the assignment frontier before it hands out indices.  A
    /// batch whose sequence numbers or global indices would reach
    /// `u64::MAX` is dropped.
    fn order(
        &mut self,
        origin: MemberId,
        first_seq: u64,
        commands: Vec<Bytes>,
    ) -> Vec<MachineOutput> {
        debug_assert!(self.is_sequencer());
        let n = commands.len() as u64;
        let Some(end_seq) = first_seq.checked_add(n) else {
            return Vec::new();
        };
        if self.recovering {
            for (seq, command) in (first_seq..end_seq).zip(commands) {
                self.backlog.push(Backlog::Cmd {
                    origin,
                    seq,
                    command,
                });
            }
            return Vec::new();
        }
        if commands.is_empty() {
            return Vec::new();
        }
        let first_global = self.next_global;
        if first_global.checked_add(n).is_none() {
            return Vec::new();
        }
        let guard = self.ordered_seq.entry(origin).or_default();
        let mut entries = Vec::with_capacity(commands.len());
        entries.extend(
            (first_seq..end_seq)
                .zip(commands)
                .filter(|&(seq, _)| guard.insert(seq))
                .map(|(seq, command)| SmrOrderedEntry { seq, command }),
        );
        if entries.is_empty() {
            return Vec::new();
        }
        // At most `n` fresh entries, and `first_global + n` does not wrap.
        let end = first_global.saturating_add(entries.len() as u64);
        self.next_global = end;
        let mut out = Vec::with_capacity(2);
        out.push(MachineOutput::broadcast(ordered_batch_wire(
            first_global,
            origin,
            &entries,
        )));
        let records = entries.into_iter().map(|entry| Pending::Cmd {
            origin,
            seq: entry.seq,
            command: entry.command,
        });
        self.hold_or_apply(first_global, end, records, &mut out);
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
        let global = self.next_global;
        let (Some(next_global), Some(view)) = (global.checked_add(1), self.view.joined(member))
        else {
            return Vec::new();
        };
        self.next_global = next_global;
        let record = SmrPeerMsg::ViewChange {
            global,
            view: view.clone(),
        };
        let mut out = vec![MachineOutput::broadcast(record.to_wire())];
        let records = std::iter::once(Pending::View(view));
        self.hold_or_apply(global, next_global, records, &mut out);
        out
    }

    /// Follower-side ingest of sequenced records, record `i` at global
    /// index `first_global + i`: applies what is next in line and holds
    /// those that overtook a hole.  Records whose indices would reach
    /// `u64::MAX` are dropped whole, so the apply frontier never passes it.
    fn ingest(
        &mut self,
        first_global: u64,
        records: impl ExactSizeIterator<Item = Pending>,
    ) -> Vec<MachineOutput> {
        let Some(end) = first_global.checked_add(records.len() as u64) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        self.hold_or_apply(first_global, end, records, &mut out);
        out
    }

    /// One past the highest global index this replica knows to be assigned,
    /// counting both applied entries and records still held in `pending`.
    fn assign_frontier(&self) -> u64 {
        let held = self.pending.highest().map_or(0, |g| g.saturating_add(1));
        self.next_global.max(self.next_apply()).max(held)
    }

    /// The state-transfer reply describing this replica's applied state.
    fn snapshot_msg(&self) -> SmrPeerMsg {
        SmrPeerMsg::Snapshot {
            view: self.view.clone(),
            next_global: self.assign_frontier(),
            next_apply: self.next_apply(),
            ordered_seq: self
                .ordered_seq
                .iter()
                .flat_map(|(origin, seqs)| seqs.iter().map(move |seq| (*origin, seq)))
                .collect(),
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
            have_applied: self.next_apply(),
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

    /// Installs a state-transfer snapshot if it is ahead of this replica —
    /// a higher apply frontier, or the same one in a later view — then
    /// resumes any parked sequencer work.  A snapshot never moves the apply
    /// frontier back: the slots between would be applied twice.  Every
    /// snapshot — installed or not — raises the assignment frontier, so a
    /// recovered sequencer never re-assigns a global index a peer has
    /// already seen.
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
        if (next_apply, view.id) > (self.next_apply(), self.view.id) {
            match KvStore::restore(&store) {
                Ok(restored) => {
                    self.store = restored;
                    self.view = view;
                    self.ordered_seq = BTreeMap::new();
                    for (origin, seq) in ordered_seq {
                        self.ordered_seq.entry(origin).or_default().insert(seq);
                    }
                    self.delivered = delivered;
                    // Announce the installed view so the local application
                    // always gets its catch-up-complete signal, even when
                    // the snapshot swallowed the transition slot.
                    if was_recovering {
                        let install = SmrViewInstall {
                            global: next_apply,
                            view: self.view.clone(),
                        };
                        out.push(MachineOutput::to_app(SmrUpcall::View(install).to_wire()));
                    }
                    // Anything held below the installed frontier is already
                    // covered by the snapshot — including, possibly, the
                    // ViewChange record of our own rejoin; what is held from
                    // it on applies now.
                    self.apply_released(&mut out, 0, |pending, applier| {
                        pending.advance_then(next_apply, |global, record| {
                            applier.apply(global, record);
                        });
                    });
                }
                // A malformed snapshot is ignored; another reply will serve.
                Err(_) => self.recovering = was_recovering,
            }
        }
        if was_recovering && !self.recovering {
            out.extend(self.drain_backlog());
        }
        out
    }

    /// Orders everything parked while recovering, in arrival order, one
    /// command per record.
    fn drain_backlog(&mut self) -> Vec<MachineOutput> {
        let parked = std::mem::take(&mut self.backlog);
        let mut out = Vec::new();
        for item in parked {
            match item {
                Backlog::Cmd {
                    origin,
                    seq,
                    command,
                } => out.extend(self.order(origin, seq, vec![command])),
                Backlog::Join(member) => out.extend(self.order_join(member)),
            }
        }
        out
    }
}

impl DeterministicMachine for SequencedKv {
    fn handle(&mut self, input: &MachineInput) -> Vec<MachineOutput> {
        match input.source {
            Endpoint::LocalApp => match SmrClientMsg::from_frame(&input.bytes) {
                Ok(SmrClientMsg::Batch {
                    first_seq,
                    commands,
                }) => {
                    if self.is_sequencer() {
                        self.order(self.member, first_seq, commands)
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
                Ok(SmrClientMsg::Recover) => self.start_recovery(),
                Err(_) => Vec::new(),
            },
            Endpoint::Peer(_) => match SmrPeerMsg::from_frame(&input.bytes) {
                Ok(SmrPeerMsg::SubmitBatch {
                    origin,
                    first_seq,
                    commands,
                }) if self.is_sequencer() => self.order(origin, first_seq, commands),
                Ok(SmrPeerMsg::OrderedBatch {
                    first_global,
                    origin,
                    entries,
                }) if !self.is_sequencer() => self.ingest(
                    first_global,
                    entries.into_iter().map(|entry| Pending::Cmd {
                        origin,
                        seq: entry.seq,
                        command: entry.command,
                    }),
                ),
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
                    self.ingest(global, std::iter::once(Pending::View(view)))
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
#[allow(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "tests index, count and unwrap what they built themselves"
)]
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

    /// The client frame submitting one command: a batch of one.
    fn put(member: MemberId, seq: u64) -> Bytes {
        SmrClientMsg::Batch {
            first_seq: seq,
            commands: vec![put_command(member, seq)],
        }
        .to_wire()
    }

    /// A peer's submission of one command: a batch of one.
    fn submit(origin: MemberId, seq: u64, command: Bytes) -> Bytes {
        SmrPeerMsg::SubmitBatch {
            origin,
            first_seq: seq,
            commands: vec![command],
        }
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
        let (late, early) = (ordered_at(1, 1..2), ordered_at(0, 0..1));
        assert!(m
            .handle(&MachineInput::from_peer(MemberId(0), late))
            .is_empty());
        let out = m.handle(&MachineInput::from_peer(MemberId(0), early));
        assert_eq!(out.len(), 1, "closing the gap applies both in one frame");
        let upcall = SmrUpcall::from_frame(&out[0].bytes).unwrap();
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
        let submit = submit(MemberId(1), 1, put_command(MemberId(1), 1));
        let first = seq.handle(&MachineInput::from_peer(MemberId(1), submit.clone()));
        assert!(!first.is_empty());
        let dup = seq.handle(&MachineInput::from_peer(MemberId(1), submit));
        assert!(dup.is_empty(), "replayed submission must not re-order");
        assert_eq!(seq.delivered().len(), 1);
    }

    /// In-order submissions cost the guard one frontier per origin, however
    /// many commands it has ordered.
    #[test]
    fn in_order_submissions_hold_no_sparse_seqs_in_the_guard() {
        let mut seq = SequencedKv::new(MemberId(0), group(2));
        for n in 0..10_000u64 {
            seq.handle(&MachineInput::from_app(put(MemberId(0), n)));
            let submit = submit(MemberId(1), n, put_command(MemberId(1), n));
            seq.handle(&MachineInput::from_peer(MemberId(1), submit));
        }
        assert_eq!(seq.delivered().len(), 20_000);
        assert_eq!(seq.ordered_seq.len(), 2);
        for window in seq.ordered_seq.values() {
            assert_eq!(window.frontier(), 10_000);
            assert_eq!(window.sparse_len(), 0);
        }
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
                        submit(MemberId(1), i, put_command(MemberId(1), i)),
                    )
                }
            })
            .collect();
        assert!(check_determinism(
            || SequencedKv::new(MemberId(0), group(2)),
            &inputs
        ));
    }

    /// `value` round-trips through its encoding, and sizes it exactly.
    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        assert_eq!(T::from_wire(&value.to_wire()).unwrap(), value);
        assert_eq!(value.encoded_len(), value.to_wire().len());
    }

    /// The short form: a batch of one.
    #[test]
    fn wire_round_trips() {
        let c = Bytes::from(&b"cmd"[..]);
        round_trip(SmrClientMsg::Batch {
            first_seq: 7,
            commands: vec![c.clone()],
        });
        round_trip(SmrPeerMsg::SubmitBatch {
            origin: MemberId(1),
            first_seq: 4,
            commands: vec![c.clone()],
        });
        round_trip(SmrPeerMsg::OrderedBatch {
            first_global: 9,
            origin: MemberId(1),
            entries: vec![SmrOrderedEntry { seq: 4, command: c }],
        });
        round_trip(SmrUpcall::Batch(SmrDeliverBatch {
            first_global: 1,
            entries: vec![SmrDeliverEntry {
                origin: MemberId(2),
                seq: 3,
                response: Bytes::from(&b"ok"[..]),
            }],
        }));
    }

    /// The counted form: an empty batch and a two-entry one.
    #[test]
    fn batched_wire_round_trips() {
        let (x, yz) = (Bytes::from(&b"x"[..]), Bytes::from(&b"yz"[..]));
        for commands in [vec![], vec![x.clone(), yz.clone()]] {
            round_trip(SmrClientMsg::Batch {
                first_seq: 10,
                commands: commands.clone(),
            });
            round_trip(SmrPeerMsg::SubmitBatch {
                origin: MemberId(2),
                first_seq: 3,
                commands,
            });
        }
        let entries = [(3, x), (4, yz)].map(|(seq, command)| SmrOrderedEntry { seq, command });
        for n in [0, 2] {
            round_trip(SmrPeerMsg::OrderedBatch {
                first_global: 11,
                origin: MemberId(2),
                entries: entries[..n].to_vec(),
            });
        }
        let responses = [(6, "r1"), (7, "r2")].map(|(seq, response)| SmrDeliverEntry {
            origin: MemberId(1),
            seq,
            response: Bytes::from(response.as_bytes()),
        });
        for n in [0, 2] {
            round_trip(SmrUpcall::Batch(SmrDeliverBatch {
                first_global: 4,
                entries: responses[..n].to_vec(),
            }));
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// `value` encodes to exactly `pinned`, sizes it exactly, and decodes
    /// back from it.
    fn pin<T: Wire + PartialEq + std::fmt::Debug>(value: T, pinned: &str) {
        assert_eq!(hex(&value.to_wire()), pinned, "{value:?}");
        assert_eq!(value.encoded_len() * 2, pinned.len(), "{value:?}");
        assert_eq!(T::from_wire(&unhex(pinned)).unwrap(), value);
    }

    /// The SMR-KV wire, byte for byte, for the client request, the
    /// submission, the ordered record and the upcall: a one-entry batch
    /// is the frame a single command had before batching, a two-entry batch
    /// is counted, and the counted form of a one-entry batch still decodes.
    #[test]
    fn wire_bytes_are_pinned() {
        let b = |s: &str| Bytes::from(s.as_bytes());
        let counted = |pinned: &str| unhex(pinned);
        let client = |commands: &[&str]| SmrClientMsg::Batch {
            first_seq: 7,
            commands: commands.iter().map(|c| b(c)).collect(),
        };
        pin(client(&["a"]), "0007000000000000000100000061");
        pin(
            client(&["a", "bc"]),
            "010700000000000000020000000100000061020000006263",
        );
        let one = counted("010700000000000000010000000100000061");
        assert_eq!(SmrClientMsg::from_wire(&one).unwrap(), client(&["a"]));

        let submit = |commands: &[&str]| SmrPeerMsg::SubmitBatch {
            origin: MemberId(1),
            first_seq: 7,
            commands: commands.iter().map(|c| b(c)).collect(),
        };
        pin(submit(&["a"]), "000100000007000000000000000100000061");
        pin(
            submit(&["a", "bc"]),
            "02010000000700000000000000020000000100000061020000006263",
        );
        let one = counted("02010000000700000000000000010000000100000061");
        assert_eq!(SmrPeerMsg::from_wire(&one).unwrap(), submit(&["a"]));

        let ordered = |entries: &[(u64, &str)]| SmrPeerMsg::OrderedBatch {
            first_global: 9,
            origin: MemberId(1),
            entries: entries
                .iter()
                .map(|&(seq, command)| SmrOrderedEntry {
                    seq,
                    command: b(command),
                })
                .collect(),
        };
        pin(
            ordered(&[(7, "a")]),
            "0109000000000000000100000007000000000000000100000061",
        );
        pin(
            ordered(&[(7, "a"), (8, "bc")]),
            "0309000000000000000100000002000000070000000000000001000000610800000000000000020000006263",
        );
        let one = counted("030900000000000000010000000100000007000000000000000100000061");
        assert_eq!(SmrPeerMsg::from_wire(&one).unwrap(), ordered(&[(7, "a")]));

        let upcall = |entries: &[(u32, u64, &str)]| {
            SmrUpcall::Batch(SmrDeliverBatch {
                first_global: 9,
                entries: entries
                    .iter()
                    .map(|&(origin, seq, response)| SmrDeliverEntry {
                        origin: MemberId(origin),
                        seq,
                        response: b(response),
                    })
                    .collect(),
            })
        };
        pin(
            upcall(&[(1, 7, "ok")]),
            "000900000000000000010000000700000000000000020000006f6b",
        );
        pin(
            upcall(&[(1, 7, "ok"), (2, 3, "r")]),
            "01090000000000000002000000010000000700000000000000020000006f6b0200000003000000000000000100000072",
        );
        let one = counted("01090000000000000001000000010000000700000000000000020000006f6b");
        assert_eq!(SmrUpcall::from_wire(&one).unwrap(), upcall(&[(1, 7, "ok")]));
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
            SmrPeerMsg::from_frame(&out[0].bytes).unwrap(),
            SmrPeerMsg::OrderedBatch { first_global: 0, ref entries, .. } if entries.len() == 4
        ));
        assert!(matches!(out[1].dest, Endpoint::LocalApp));
        assert!(matches!(
            SmrUpcall::from_frame(&out[1].bytes).unwrap(),
            SmrUpcall::Batch(ref b) if b.entries.len() == 4
        ));
        run_until_drained(&mut machines, vec![(MemberId(0), out[0].clone())]);
        assert_eq!(machines[1].delivered(), machines[0].delivered());
        assert_eq!(machines[1].state_digest(), machines[0].state_digest());
    }

    #[test]
    fn batch_filters_already_ordered_commands() {
        let mut seq = SequencedKv::new(MemberId(0), group(2));
        let submit = submit(MemberId(1), 1, put_command(MemberId(1), 1));
        assert!(!seq
            .handle(&MachineInput::from_peer(MemberId(1), submit))
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
            SmrPeerMsg::from_frame(&out[0].bytes).unwrap(),
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
                let frame = SmrClientMsg::Batch {
                    first_seq: seq,
                    commands: (seq..seq + n)
                        .map(|s| put_command(MemberId(1), s))
                        .collect(),
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
        let submit = submit(MemberId(1), 100, put_command(MemberId(1), 100));
        assert!(machines[0]
            .handle(&MachineInput::from_peer(MemberId(1), submit))
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
        let rejoined = v.joined(MemberId(2)).unwrap();
        assert_eq!(rejoined.id, 1);
        assert_eq!(rejoined.members, v.members);
        // A genuinely new member is appended (never displacing the sequencer).
        let grown = v.joined(MemberId(3)).unwrap();
        assert_eq!(grown.members.len(), 4);
        assert_eq!(grown.sequencer(), MemberId(0));
    }

    /// A peer's state-transfer reply with the given frontiers and an empty
    /// store.
    fn snapshot(view: GroupView, next_global: u64, next_apply: u64) -> Bytes {
        SmrPeerMsg::Snapshot {
            view,
            next_global,
            next_apply,
            ordered_seq: vec![],
            store: KvStore::new().snapshot(),
            delivered: vec![],
        }
        .to_wire()
    }

    fn ordered_at(first_global: u64, seqs: std::ops::Range<u64>) -> Bytes {
        SmrPeerMsg::OrderedBatch {
            first_global,
            origin: MemberId(0),
            entries: seqs
                .map(|seq| SmrOrderedEntry {
                    seq,
                    command: put_command(MemberId(0), seq),
                })
                .collect(),
        }
        .to_wire()
    }

    /// A submitted batch whose sequence numbers would pass `u64::MAX` is
    /// dropped whole: none of it is ordered, and no wrapped number is
    /// marked as ordered.
    #[test]
    fn a_batch_past_the_last_sequence_number_is_dropped() {
        let mut seq = SequencedKv::new(MemberId(0), group(2));
        let submit = |first_seq: u64, n: u64| {
            let batch = SmrPeerMsg::SubmitBatch {
                origin: MemberId(1),
                first_seq,
                commands: (0..n).map(|i| put_command(MemberId(1), i)).collect(),
            };
            MachineInput::from_peer(MemberId(1), batch.to_wire())
        };
        assert!(seq.handle(&submit(u64::MAX, 2)).is_empty());
        assert!(seq.delivered().is_empty());
        assert!(!seq.handle(&submit(0, 1)).is_empty());
        assert_eq!(seq.delivered(), &[(MemberId(1), 0)]);
    }

    /// A batch of ordered records whose global indices would pass
    /// `u64::MAX` is dropped whole; the follower keeps applying in order.
    #[test]
    fn a_record_batch_past_the_last_global_index_is_dropped() {
        let mut m = SequencedKv::new(MemberId(1), group(3));
        let from_seq = |bytes: Bytes| MachineInput::from_peer(MemberId(0), bytes);
        assert!(m.handle(&from_seq(ordered_at(u64::MAX, 0..2))).is_empty());
        assert!(m.handle(&from_seq(ordered_at(u64::MAX, 0..1))).is_empty());
        let catch_up = SmrPeerMsg::CatchUpRequest {
            member: MemberId(2),
            view_id: 0,
            have_applied: 0,
        };
        m.handle(&MachineInput::from_peer(MemberId(2), catch_up.to_wire()));
        assert_eq!(m.handle(&from_seq(ordered_at(0, 0..1))).len(), 1);
        assert_eq!(m.delivered(), &[(MemberId(0), 0)]);
    }

    /// A snapshot may claim the last global index is assigned; the
    /// sequencer then orders nothing more rather than pass it.
    #[test]
    fn a_snapshot_cannot_push_the_assignment_frontier_past_the_last_index() {
        let mut seq = SequencedKv::new(MemberId(0), group(2));
        let claim = snapshot(GroupView::initial(group(2)), u64::MAX, 0);
        seq.handle(&MachineInput::from_peer(MemberId(1), claim));
        assert!(seq
            .handle(&MachineInput::from_app(put(MemberId(0), 0)))
            .is_empty());
        let rejoin = SmrPeerMsg::Rejoin {
            member: MemberId(1),
        };
        assert!(seq
            .handle(&MachineInput::from_peer(MemberId(1), rejoin.to_wire()))
            .is_empty());
        assert!(seq.delivered().is_empty());
    }

    /// A snapshot may claim everything below the last global index is
    /// applied; a record at that index is then dropped rather than applied
    /// past it.
    #[test]
    fn a_snapshot_cannot_push_the_apply_frontier_past_the_last_index() {
        let mut m = SequencedKv::new(MemberId(1), group(2));
        let claim = snapshot(GroupView::initial(group(2)), 0, u64::MAX);
        let from_seq = |bytes: Bytes| MachineInput::from_peer(MemberId(0), bytes);
        m.handle(&from_seq(claim));
        assert!(m.handle(&from_seq(ordered_at(u64::MAX, 0..1))).is_empty());
        let change = SmrPeerMsg::ViewChange {
            global: u64::MAX,
            view: GroupView::initial(group(2)),
        };
        assert!(m.handle(&from_seq(change.to_wire())).is_empty());
        assert!(m.delivered().is_empty());
    }

    /// A snapshot may install the last view id; the sequencer then orders
    /// no further view change rather than pass it.
    #[test]
    fn a_snapshot_cannot_push_the_view_id_past_the_last_id() {
        let mut seq = SequencedKv::new(MemberId(0), group(2));
        let last = GroupView {
            id: u64::MAX,
            members: group(2),
        };
        seq.handle(&MachineInput::from_peer(MemberId(1), snapshot(last, 0, 0)));
        let rejoin = SmrPeerMsg::Rejoin {
            member: MemberId(1),
        };
        assert!(seq
            .handle(&MachineInput::from_peer(MemberId(1), rejoin.to_wire()))
            .is_empty());
        assert_eq!(seq.view().id, u64::MAX);
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
