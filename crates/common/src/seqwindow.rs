//! What arrived on a numbered stream, in memory proportional to the
//! reorder window.
//!
//! A stream's origin issues 0, 1, 2, …; its receiver asks which arrived.
//! Fail-signal destinations accept each `(fs, dest, output_seq)` once
//! (paper §2.1), reliable multicast NACKs each origin's gaps, the SMR
//! sequencer orders each `(origin, seq)` once, every SMR replica holds
//! back the ordered records that overtook a hole, and so does the
//! interceptor with its upcalls: all five keep a [`SeqWindow`].

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used
)]

use crate::fasthash::FastMap;

/// The numbers inserted on one stream: a contiguous frontier and the
/// sparse numbers above it, each holding a value until the frontier passes.
///
/// Membership answers are exactly those of a plain set of every number ever
/// inserted, under any insertion order.  A plain `SeqWindow` holds no values.
#[derive(Debug, Clone)]
pub struct SeqWindow<T = ()> {
    /// Every number below this one has been inserted.
    next: u64,
    /// Inserted numbers above `next` (or at it, for `u64::MAX`), with their
    /// held values.
    above: FastMap<u64, T>,
}

impl<T> Default for SeqWindow<T> {
    fn default() -> Self {
        Self {
            next: 0,
            above: FastMap::default(),
        }
    }
}

impl<T> SeqWindow<T> {
    /// The contiguous frontier: every number below it has been inserted.
    #[inline]
    pub fn frontier(&self) -> u64 {
        self.next
    }

    /// How many inserted numbers sit above the frontier.
    #[inline]
    pub fn sparse_len(&self) -> usize {
        self.above.len()
    }

    /// True when `seq` has been inserted.
    #[inline]
    pub fn contains(&self, seq: u64) -> bool {
        seq < self.next || self.above.contains_key(&seq)
    }

    /// Records `seq` with `value`; returns `true` when `seq` is new.  If the
    /// frontier reaches `seq`, `release` receives `value` and then every
    /// held value the frontier passes, each with its number, in number
    /// order.  A repeat below the frontier is dropped; a repeat above it
    /// replaces the held value.  `u64::MAX` is held for good: the frontier
    /// never passes it.
    #[inline]
    pub fn insert_then(&mut self, seq: u64, value: T, mut release: impl FnMut(u64, T)) -> bool {
        if seq < self.next {
            return false;
        }
        if seq > self.next || seq == u64::MAX {
            return self.above.insert(seq, value).is_none();
        }
        release(seq, value);
        // Exact, not saturated: the frontier steps only from below u64::MAX.
        self.next = seq.saturating_add(1);
        self.release_held(release);
        true
    }

    /// Moves the frontier up to `frontier`, as a state-transfer install
    /// does: the held values below it are dropped unreleased, and then
    /// `release` receives every held value the frontier reaches from there,
    /// in number order, as in [`SeqWindow::insert_then`].  A `frontier` at
    /// or below the current one changes nothing.
    pub fn advance_then(&mut self, frontier: u64, release: impl FnMut(u64, T)) {
        if frontier <= self.next {
            return;
        }
        let passed: Vec<u64> = self
            .above
            .sorted()
            .into_iter()
            .map(|(&seq, _)| seq)
            .take_while(|&seq| seq < frontier)
            .collect();
        for seq in passed {
            self.above.remove(&seq);
        }
        self.next = frontier;
        self.release_held(release);
    }

    /// The highest number inserted, if any: a held one, or else the one
    /// just below the frontier.
    pub fn highest(&self) -> Option<u64> {
        match self.above.sorted().last() {
            Some((&seq, _)) => Some(seq),
            None => self.next.checked_sub(1),
        }
    }

    /// Releases the held values from the frontier on, while they run
    /// contiguously.  An empty table is the common case and probes nothing.
    #[inline]
    fn release_held(&mut self, mut release: impl FnMut(u64, T)) {
        while self.next < u64::MAX && !self.above.is_empty() {
            let Some(value) = self.above.remove(&self.next) else {
                break;
            };
            release(self.next, value);
            self.next = self.next.saturating_add(1);
        }
    }

    /// The numbers below `below` not inserted yet, lowest first, at most
    /// `window` of them: the scan stops `window` above the frontier,
    /// wherever `below` points.
    pub fn missing(&self, below: u64, window: u64) -> Vec<u64> {
        let end = below.min(self.next.saturating_add(window));
        (self.next..end)
            .filter(|seq| !self.above.contains_key(seq))
            .collect()
    }

    /// Every inserted number, ascending: the frontier's prefix, then the
    /// sparse numbers in the table's one walk, [`FastMap::sorted`].
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.next).chain(self.above.sorted().into_iter().map(|(&seq, _)| seq))
    }
}

impl SeqWindow {
    /// Records `seq`; returns `true` when it had not been recorded before.
    #[inline]
    pub fn insert(&mut self, seq: u64) -> bool {
        self.insert_then(seq, (), |_, ()| {})
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn in_order_and_mildly_reordered_streams_hold_only_the_overtakers() {
        let mut window = SeqWindow::default();
        for seq in [0u64, 1, 3, 4, 2, 5, 7, 6] {
            assert!(window.insert(seq));
            assert!(!window.insert(seq));
        }
        assert_eq!(window.frontier(), 8);
        assert_eq!(window.sparse_len(), 0);
        // A permanent gap pins the frontier; answers stay exact.
        for seq in 9..100 {
            assert!(window.insert(seq));
        }
        assert_eq!(window.frontier(), 8);
        assert_eq!(window.sparse_len(), 91);
        assert!(!window.insert(50));
        assert_eq!(window.missing(100, 64), [8]);
        assert!(window.iter().eq((0..8).chain(9..100)));
        assert!(window.insert(8));
        assert_eq!(window.frontier(), 100);
        assert_eq!(window.sparse_len(), 0);
    }

    /// The interceptor's hold-back before it shared this type: a map of the
    /// upcalls that overtook the next one owed, drained from that one on.
    #[derive(Default)]
    struct HoldBackModel {
        held: BTreeMap<u64, u32>,
        delivered: u64,
    }

    impl HoldBackModel {
        fn insert(&mut self, seq: u64, value: u32) -> Vec<u32> {
            self.held.insert(seq, value);
            let mut out = Vec::new();
            while let Some(value) = self.held.remove(&self.delivered) {
                self.delivered = self.delivered.saturating_add(1);
                out.push(value);
            }
            out
        }

        /// The SMR replica's snapshot install before it shared this type:
        /// drop what the new frontier passes, then drain from it.
        fn advance(&mut self, frontier: u64) -> Vec<u32> {
            if frontier <= self.delivered {
                return Vec::new();
            }
            self.held = self.held.split_off(&frontier);
            self.delivered = frontier;
            let mut out = Vec::new();
            while let Some(value) = self.held.remove(&self.delivered) {
                self.delivered = self.delivered.saturating_add(1);
                out.push(value);
            }
            out
        }
    }

    /// Reliable multicast's gap scan before it shared this type: from the
    /// contiguous frontier, at most `window` seqs, those not seen yet.
    fn scan_model(seen: &BTreeSet<u64>, frontier: u64, below: u64, window: u64) -> Vec<u64> {
        let end = below.min(frontier.saturating_add(window));
        (frontier..end).filter(|s| !seen.contains(s)).collect()
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
            for seq in seqs.into_iter().chain(far).chain([u64::MAX]) {
                prop_assert_eq!(window.contains(seq), model.contains(&seq), "seq {}", seq);
                prop_assert_eq!(window.insert(seq), model.insert(seq), "seq {}", seq);
                prop_assert!(window.contains(seq));
                prop_assert!(!window.above.contains_key(&window.next));
                prop_assert!((0..window.next).all(|s| model.contains(&s)));
                prop_assert_eq!(
                    Some(model.len()),
                    usize::try_from(window.next).ok().and_then(|n| n.checked_add(window.sparse_len()))
                );
                prop_assert!(window.iter().eq(model.iter().copied()));
            }
        }

        /// Held values come back exactly as the old hold-back map released
        /// them, in the same batches, repeats and gaps included.
        #[test]
        fn released_values_match_the_hold_back_map(
            seqs in proptest::collection::vec(0u64..40, 0..150),
        ) {
            let mut window = SeqWindow::default();
            let mut model = HoldBackModel::default();
            for (value, seq) in (0u32..).zip(seqs) {
                let mut released = Vec::new();
                window.insert_then(seq, value, |_, v| released.push(v));
                prop_assert_eq!(released, model.insert(seq, value), "seq {}", seq);
                prop_assert_eq!(window.frontier(), model.delivered);
            }
        }

        /// Frontier jumps interleaved with receipts release and drop
        /// exactly what the old hold-back map did, and the highest number
        /// inserted is the map's last key or the one below the frontier.
        #[test]
        fn advancing_matches_the_hold_back_map(
            steps in proptest::collection::vec((any::<bool>(), 0u64..60), 0..150),
        ) {
            let mut window = SeqWindow::default();
            let mut model = HoldBackModel::default();
            for (value, (jump, seq)) in (0u32..).zip(steps) {
                let mut released = Vec::new();
                let expected = if jump {
                    window.advance_then(seq, |_, v| released.push(v));
                    model.advance(seq)
                } else {
                    window.insert_then(seq, value, |_, v| released.push(v));
                    // The replica buffered only what was not applied yet.
                    if seq >= model.delivered {
                        model.insert(seq, value)
                    } else {
                        Vec::new()
                    }
                };
                prop_assert_eq!(released, expected, "seq {}", seq);
                prop_assert_eq!(window.frontier(), model.delivered);
                prop_assert_eq!(window.sparse_len(), model.held.len());
                let highest = model.held.keys().next_back().copied();
                prop_assert_eq!(window.highest(), highest.or(model.delivered.checked_sub(1)));
            }
        }

        /// The gap list equals the old reliable scan after every receipt
        /// from a peer origin, wherever the receipt's seq points.
        #[test]
        fn missing_matches_the_reliable_scan(
            seqs in proptest::collection::vec(0u64..120, 0..150),
            far in any::<u64>(),
            nack_window in 1u64..80,
        ) {
            let mut window = SeqWindow::default();
            let mut seen = BTreeSet::new();
            let mut frontier = 0u64;
            for seq in seqs.into_iter().chain([far]) {
                let fresh = seen.insert(seq);
                prop_assert_eq!(window.insert(seq), fresh);
                if !fresh {
                    continue;
                }
                let expected = scan_model(&seen, frontier, seq, nack_window);
                while seen.contains(&frontier) {
                    frontier = frontier.saturating_add(1);
                }
                prop_assert_eq!(window.missing(seq, nack_window), expected, "seq {}", seq);
                prop_assert_eq!(window.frontier(), frontier);
            }
        }
    }
}
