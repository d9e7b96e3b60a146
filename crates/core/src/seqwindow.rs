//! Duplicate suppression for sequence-numbered inputs in memory proportional
//! to the reorder window.

use std::collections::{BTreeMap, BTreeSet};

use fs_common::fasthash::FastSet;
use fs_common::id::FsId;
use fs_smr::machine::Endpoint;

use crate::message::FsContent;

/// The set of sequence numbers accepted from one stream, stored as a
/// contiguous watermark plus the sparse numbers above it.
///
/// Membership answers are exactly those of a plain set of every number ever
/// inserted, under any insertion order.  A pair numbers each destination's
/// outputs without gaps (see [`crate::wrapper`]), so only the numbers that
/// overtook a missing one are held, until it arrives.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqWindow {
    /// Every sequence number below this one has been inserted.
    next: u64,
    /// Inserted sequence numbers above `next`.  Never iterated.
    above: FastSet<u64>,
}

impl SeqWindow {
    /// True when `seq` has been recorded.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        seq < self.next || self.above.contains(&seq)
    }

    /// Records `seq`; returns `true` when it had not been recorded before.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if seq < self.next {
            return false;
        }
        if seq > self.next {
            return self.above.insert(seq);
        }
        self.next += 1;
        while self.above.remove(&self.next) {
            self.next += 1;
        }
        true
    }
}

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
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    /// How many accepted numbers sit above their window's watermark.
    pub(crate) fn sparse(accepted: &Accepted) -> usize {
        accepted
            .outputs
            .values()
            .map(|window| window.above.len())
            .sum()
    }

    #[test]
    fn in_order_and_mildly_reordered_streams_hold_only_the_overtakers() {
        let mut window = SeqWindow::default();
        for seq in [0u64, 1, 3, 4, 2, 5, 7, 6] {
            assert!(window.insert(seq));
            assert!(!window.insert(seq));
        }
        assert_eq!(window.next, 8);
        assert!(window.above.is_empty());
        // A permanent gap pins the watermark; answers stay exact.
        for seq in 9..100 {
            assert!(window.insert(seq));
        }
        assert_eq!(window.next, 8);
        assert_eq!(window.above.len(), 91);
        assert!(!window.insert(50));
        assert!(window.insert(8));
        assert_eq!(window.next, 100);
        assert!(window.above.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary order, duplicates and gaps: every answer equals the
        /// model set's, and the representation stays canonical.
        #[test]
        fn answers_match_a_set_model(
            seqs in proptest::collection::vec(0u64..48, 0..200),
            far in proptest::collection::vec(any::<u64>(), 0..4),
        ) {
            let mut window = SeqWindow::default();
            let mut model = BTreeSet::new();
            // `u64::MAX` itself can only follow 2^64 - 1 other insertions.
            for seq in seqs.into_iter().chain(far.into_iter().map(|s| s >> 1)) {
                prop_assert_eq!(window.contains(seq), model.contains(&seq), "seq {}", seq);
                prop_assert_eq!(window.insert(seq), model.insert(seq), "seq {}", seq);
                prop_assert!(window.contains(seq));
                prop_assert!(!window.above.contains(&window.next));
                prop_assert!((0..window.next).all(|s| model.contains(&s)));
                prop_assert_eq!(
                    window.above.len() as u64 + window.next,
                    model.len() as u64
                );
            }
        }
    }
}
