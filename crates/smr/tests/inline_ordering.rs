//! A follower's ordering of sequenced records, checked against a model.
//!
//! The model is the textbook hold-back: every record at or above the apply
//! frontier goes into an ordered map, and the map is drained from the
//! frontier after each input.  [`SequencedKv`] must raise the same upcall
//! frames, keep the same delivery log and reach the same store digest,
//! under shuffled, duplicated and far-ahead `OrderedBatch` and `ViewChange`
//! records and a state-transfer `Snapshot` that lands while records are
//! held.

use std::collections::BTreeMap;

use fs_common::codec::Wire;
use fs_common::id::MemberId;
use fs_common::Bytes;
use fs_smr::command::{AppStateMachine, KvCommand, KvStore};
use fs_smr::machine::{DeterministicMachine, Endpoint, MachineInput};
use fs_smr::sequenced::{
    GroupView, SequencedKv, SmrClientMsg, SmrDeliverBatch, SmrDeliverEntry, SmrOrderedEntry,
    SmrPeerMsg, SmrUpcall, SmrViewInstall,
};
use proptest::prelude::*;

const SEQUENCER: MemberId = MemberId(0);
const ME: MemberId = MemberId(1);

fn group() -> Vec<MemberId> {
    (0..3).map(MemberId).collect()
}

/// One global slot of the agreed history.
#[derive(Debug, Clone)]
enum Slot {
    Cmd {
        origin: MemberId,
        seq: u64,
        command: Bytes,
    },
    View(GroupView),
}

/// The model's hold-back: ordered records above the apply frontier in an
/// ordered map, drained from the frontier after every input.
struct Model {
    view: GroupView,
    next_global: u64,
    next_apply: u64,
    pending: BTreeMap<u64, Slot>,
    store: KvStore,
    delivered: Vec<(MemberId, u64)>,
    recovering: bool,
}

impl Model {
    fn new() -> Self {
        Self {
            view: GroupView::initial(group()),
            next_global: 0,
            next_apply: 0,
            pending: BTreeMap::new(),
            store: KvStore::new(),
            delivered: Vec::new(),
            recovering: false,
        }
    }

    fn ingest(&mut self, first_global: u64, slots: Vec<Slot>) -> Vec<SmrUpcall> {
        let Some(end) = first_global.checked_add(slots.len() as u64) else {
            return Vec::new();
        };
        for (global, slot) in (first_global..end).zip(slots) {
            if global >= self.next_apply {
                self.pending.insert(global, slot);
            }
        }
        self.apply_ready()
    }

    fn install(&mut self, snapshot: &Snapshot) -> Vec<SmrUpcall> {
        let was_recovering = self.recovering;
        self.recovering = false;
        self.next_global = self.next_global.max(snapshot.next_global);
        let mut out = Vec::new();
        if snapshot.next_apply > self.next_apply || snapshot.view.id > self.view.id {
            self.store = KvStore::restore(&snapshot.store).expect("a valid store");
            self.view = snapshot.view.clone();
            self.next_apply = snapshot.next_apply;
            self.delivered = snapshot.delivered.clone();
            self.pending = self.pending.split_off(&self.next_apply);
            if was_recovering {
                out.push(SmrUpcall::View(SmrViewInstall {
                    global: self.next_apply,
                    view: self.view.clone(),
                }));
            }
        }
        out.extend(self.apply_ready());
        out
    }

    fn apply_ready(&mut self) -> Vec<SmrUpcall> {
        let mut out = Vec::new();
        let mut first_global = self.next_apply;
        let mut entries = Vec::new();
        while let Some(slot) = self.pending.remove(&self.next_apply) {
            let global = self.next_apply;
            self.next_apply += 1;
            match slot {
                Slot::Cmd {
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
                Slot::View(view) => {
                    flush(&mut out, first_global, &mut entries);
                    self.view = view.clone();
                    out.push(SmrUpcall::View(SmrViewInstall { global, view }));
                    first_global = self.next_apply;
                }
            }
        }
        flush(&mut out, first_global, &mut entries);
        out
    }

    fn assign_frontier(&self) -> u64 {
        let buffered = self.pending.keys().next_back().map_or(0, |g| g + 1);
        self.next_global.max(self.next_apply).max(buffered)
    }
}

fn flush(out: &mut Vec<SmrUpcall>, first_global: u64, entries: &mut Vec<SmrDeliverEntry>) {
    if !entries.is_empty() {
        out.push(SmrUpcall::Batch(SmrDeliverBatch {
            first_global,
            entries: std::mem::take(entries),
        }));
    }
}

/// A peer's state after applying the first `next_apply` slots.
#[derive(Debug, Clone)]
struct Snapshot {
    view: GroupView,
    next_global: u64,
    next_apply: u64,
    store: Bytes,
    delivered: Vec<(MemberId, u64)>,
}

impl Snapshot {
    fn of(history: &[Slot], next_apply: usize) -> Self {
        let mut view = GroupView::initial(group());
        let mut store = KvStore::new();
        let mut delivered = Vec::new();
        for slot in &history[..next_apply] {
            match slot {
                Slot::Cmd {
                    origin,
                    seq,
                    command,
                } => {
                    store.apply(command);
                    delivered.push((*origin, *seq));
                }
                Slot::View(next) => view = next.clone(),
            }
        }
        Self {
            view,
            next_global: history.len() as u64,
            next_apply: next_apply as u64,
            store: store.snapshot(),
            delivered,
        }
    }

    fn to_wire(&self) -> Bytes {
        SmrPeerMsg::Snapshot {
            view: self.view.clone(),
            next_global: self.next_global,
            next_apply: self.next_apply,
            ordered_seq: vec![],
            store: self.store.clone(),
            delivered: self.delivered.clone(),
        }
        .to_wire()
    }
}

/// What the sequencer multicast: a run of one origin's commands, or one
/// view transition.
#[derive(Debug, Clone)]
struct Record {
    first_global: u64,
    slots: Vec<Slot>,
}

impl Record {
    fn to_wire(&self) -> Bytes {
        match self.slots.as_slice() {
            [Slot::View(view)] => SmrPeerMsg::ViewChange {
                global: self.first_global,
                view: view.clone(),
            }
            .to_wire(),
            slots => {
                let origin = match slots.first() {
                    Some(Slot::Cmd { origin, .. }) => *origin,
                    _ => SEQUENCER,
                };
                let entries = slots
                    .iter()
                    .filter_map(|slot| match slot {
                        Slot::Cmd { seq, command, .. } => Some(SmrOrderedEntry {
                            seq: *seq,
                            command: command.clone(),
                        }),
                        Slot::View(_) => None,
                    })
                    .collect();
                SmrPeerMsg::OrderedBatch {
                    first_global: self.first_global,
                    origin,
                    entries,
                }
                .to_wire()
            }
        }
    }
}

/// The agreed history: `blocks[i] = (kind, n)` is a view transition when
/// `kind` is 0, else a run of `n` commands from member 0 or member 2.
/// Keys repeat, so the store's digest depends on the order of application.
fn history(blocks: &[(u8, u64)]) -> (Vec<Slot>, Vec<Record>) {
    let mut slots = Vec::new();
    let mut records = Vec::new();
    let mut view = GroupView::initial(group());
    let mut seqs = [0u64; 3];
    for (i, &(kind, n)) in blocks.iter().enumerate() {
        let first_global = slots.len() as u64;
        let run: Vec<Slot> = if kind == 0 {
            view = view.joined(MemberId(1 + i as u32 % 3)).expect("small ids");
            vec![Slot::View(view.clone())]
        } else {
            let origin = if kind % 2 == 0 {
                MemberId(2)
            } else {
                SEQUENCER
            };
            let next = &mut seqs[origin.0 as usize];
            (0..n)
                .map(|_| {
                    let seq = *next;
                    *next += 1;
                    let command = KvCommand::Put {
                        key: format!("k{}", seq % 4),
                        value: vec![origin.0 as u8, seq as u8],
                    }
                    .to_wire();
                    Slot::Cmd {
                        origin,
                        seq,
                        command,
                    }
                })
                .collect()
        };
        slots.extend(run.iter().cloned());
        records.push(Record {
            first_global,
            slots: run,
        });
    }
    (slots, records)
}

/// One input of a run.
#[derive(Debug, Clone)]
enum Step {
    Record(Record),
    Snapshot(Snapshot),
}

/// The machine's upcall frames for one input, decoded.
fn upcalls(machine: &mut SequencedKv, input: MachineInput) -> Vec<SmrUpcall> {
    machine
        .handle(&input)
        .into_iter()
        .filter(|output| output.dest == Endpoint::LocalApp)
        .map(|output| SmrUpcall::from_frame(&output.bytes).expect("an upcall frame"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn follower_ordering_matches_the_hold_back_model(
        blocks in proptest::collection::vec((0u8..6, 1u64..5), 1..16),
        keys in proptest::collection::vec(any::<u32>(), 16),
        dups in proptest::collection::vec(any::<u32>(), 0..10),
        far in proptest::collection::vec((any::<u8>(), 1u64..3, any::<u32>()), 0..4),
        withheld in any::<u32>(),
        (snap_at, snap_frontier) in (any::<u32>(), any::<u32>()),
        recover in any::<bool>(),
    ) {
        let (slots, records) = history(&blocks);
        // Every record once, shuffled, with one held back to the end so
        // the run has a hole for a while.
        let mut order: Vec<usize> = (0..records.len()).collect();
        order.sort_by_key(|&i| (keys[i % keys.len()], i));
        let late = order.remove(withheld as usize % order.len());
        order.push(late);
        let mut steps: Vec<Step> = order.iter().map(|&i| Step::Record(records[i].clone())).collect();
        for dup in dups {
            let record = records[(dup >> 8) as usize % records.len()].clone();
            steps.insert(dup as usize % (steps.len() + 1), Step::Record(record));
        }
        // Records from far ahead: past the history, or up against the last
        // global index.  None of them ever applies.
        for (at, n, pos) in far {
            let first_global = if at < 128 {
                slots.len() as u64 + 2 + u64::from(at)
            } else {
                u64::MAX - u64::from(at % 4)
            };
            let filler = (0..n)
                .map(|seq| Slot::Cmd {
                    origin: SEQUENCER,
                    seq: 1000 + seq,
                    command: Bytes::from(&b"far"[..]),
                })
                .collect();
            let record = Record { first_global, slots: filler };
            steps.insert(pos as usize % (steps.len() + 1), Step::Record(record));
        }
        let snapshot = Snapshot::of(&slots, snap_frontier as usize % (slots.len() + 1));
        steps.insert(snap_at as usize % (steps.len() + 1), Step::Snapshot(snapshot));

        let mut machine = SequencedKv::new(ME, group());
        let mut model = Model::new();
        if recover {
            let got = upcalls(&mut machine, MachineInput::from_app(SmrClientMsg::Recover.to_wire()));
            prop_assert!(got.is_empty());
            model.recovering = true;
        }
        for step in steps {
            let (input, expected) = match step {
                Step::Record(record) => (record.to_wire(), model.ingest(record.first_global, record.slots)),
                Step::Snapshot(snapshot) => (snapshot.to_wire(), model.install(&snapshot)),
            };
            let got = upcalls(&mut machine, MachineInput::from_peer(SEQUENCER, input));
            prop_assert_eq!(got, expected);
            prop_assert_eq!(machine.delivered(), model.delivered.as_slice());
            prop_assert_eq!(machine.state_digest(), model.store.state_digest());
        }
        prop_assert_eq!(model.next_apply, slots.len() as u64, "every slot applied");

        // The state-transfer reply carries the same frontiers.
        let request = SmrPeerMsg::CatchUpRequest { member: MemberId(2), view_id: 0, have_applied: 0 };
        let reply = machine.handle(&MachineInput::from_peer(MemberId(2), request.to_wire()));
        let [output] = reply.as_slice() else {
            panic!("one reply, got {reply:?}");
        };
        match SmrPeerMsg::from_frame(&output.bytes).expect("a peer frame") {
            SmrPeerMsg::Snapshot { view, next_global, next_apply, delivered, .. } => {
                prop_assert_eq!(view, model.view.clone());
                prop_assert_eq!(next_global, model.assign_frontier());
                prop_assert_eq!(next_apply, model.next_apply);
                prop_assert_eq!(delivered, model.delivered.clone());
            }
            other => panic!("expected a snapshot, got {other:?}"),
        }
    }
}
