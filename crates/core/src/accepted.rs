//! Duplicate suppression at a fail-signal destination.

use std::collections::{BTreeMap, BTreeSet};

use fs_common::id::FsId;
use fs_common::SeqWindow;
use fs_smr::machine::Endpoint;

use crate::message::FsContent;

/// What a destination has accepted from its source FS processes: per
/// source and `dest` stream the output numbers, and the sources whose
/// fail-signal arrived.  Both wrappers of a source transmit every output
/// (and a failed pair answers every message with its fail-signal), so a
/// destination asks [`Accepted::contains`] *before* it verifies a frame —
/// one already accepted is dropped unverified — and [`Accepted::insert`]s
/// only what verified: a forgery can suppress nothing not already delivered.
#[derive(Debug, Clone, Default)]
pub(crate) struct Accepted {
    outputs: BTreeMap<(FsId, Endpoint), SeqWindow>,
    failed: BTreeSet<FsId>,
}

impl Accepted {
    /// True when what `content` claims to be was already accepted from `fs`.
    pub(crate) fn contains(&self, fs: FsId, content: &FsContent) -> bool {
        match content {
            FsContent::FailSignal => self.failed.contains(&fs),
            FsContent::Output {
                output_seq, dest, ..
            } => self
                .outputs
                .get(&(fs, *dest))
                .is_some_and(|seen| seen.contains(*output_seq)),
        }
    }

    /// Records a verified `content` of `fs`; `true` when it is new.
    pub(crate) fn insert(&mut self, fs: FsId, content: &FsContent) -> bool {
        match content {
            FsContent::FailSignal => self.failed.insert(fs),
            FsContent::Output {
                output_seq, dest, ..
            } => {
                let window = self.outputs.entry((fs, *dest)).or_default();
                window.insert(*output_seq)
            }
        }
    }

    /// The sources whose fail-signal has been accepted.
    pub(crate) fn failed(&self) -> &BTreeSet<FsId> {
        &self.failed
    }

    /// How many accepted numbers sit above their window's frontier.
    #[cfg(test)]
    pub(crate) fn sparse(&self) -> usize {
        self.outputs.values().map(SeqWindow::sparse_len).sum()
    }
}
