//! Values under numbers their owner issues in increasing order, in a ring.
//!
//! A load generator numbers its requests 0, 1, 2, …, a router numbers its
//! routed commands, a shard's driver numbers what it submits; each keeps a
//! value per number until the number closes, mostly in the order it
//! opened.  [`SeqSlots`] holds them in a [`VecDeque`] that starts at the
//! oldest open number: opening appends, closing clears a slot, and closing
//! the oldest trims the ring to the next open one.  Where the numbers come
//! from a peer instead, and may be sparse or far ahead, a
//! [`SeqWindow`](crate::SeqWindow) holds them.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used
)]

use std::collections::VecDeque;

/// Values under numbers their owner issues in increasing order, in a ring
/// from the oldest open number to the newest.
///
/// The ring's length is the open span: every number from the oldest open
/// one to the newest, the closed ones between included.  Closing the oldest
/// number trims the ring up to the next open one, so only an oldest number
/// that stays open while newer ones open and close widens it.  The numbers
/// are the owner's own; a number read off the wire is only ever looked up,
/// so it never sizes an allocation.
#[derive(Debug, Clone)]
pub struct SeqSlots<T> {
    /// The number of the ring's first slot.
    first: u64,
    /// One slot per number from `first` on; the first and the last slot are
    /// open whenever the ring is not empty.
    slots: VecDeque<Option<T>>,
}

impl<T> Default for SeqSlots<T> {
    fn default() -> Self {
        Self {
            first: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> SeqSlots<T> {
    /// True when no number is open.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Opens `seq` with `value`.  `seq` is above every number opened
    /// before; one below the oldest open number is not stored.
    pub fn insert(&mut self, seq: u64, value: T) {
        if self.slots.is_empty() {
            self.first = seq;
        }
        debug_assert!(seq >= self.first, "numbers open in increasing order");
        let Some(at) = self.offset(seq) else {
            return;
        };
        if at >= self.slots.len() {
            self.slots.resize_with(at.saturating_add(1), || None);
        }
        if let Some(slot) = self.slots.get_mut(at) {
            *slot = Some(value);
        }
    }

    /// The value under `seq`, while it is open.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.slots.get(self.offset(seq)?)?.as_ref()
    }

    /// The value under `seq`, while it is open, for update in place.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let at = self.offset(seq)?;
        self.slots.get_mut(at)?.as_mut()
    }

    /// Closes `seq`; returns its value if it was open.
    #[inline]
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        let at = self.offset(seq)?;
        let value = self.slots.get_mut(at)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.first = self.first.wrapping_add(1);
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(value)
    }

    /// The open numbers with their values, oldest first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> + '_ {
        let first = self.first;
        (first..)
            .zip(self.slots.iter_mut())
            .filter_map(|(seq, slot)| Some((seq, slot.as_mut()?)))
    }

    /// Closes every number; yields the values, oldest first.
    pub fn into_values(self) -> impl Iterator<Item = T> {
        self.slots.into_iter().flatten()
    }

    /// `seq`'s position in the ring, if it is not below the first slot.
    #[inline]
    fn offset(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.first)?).ok()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn only_a_stuck_oldest_number_widens_the_ring() {
        let mut slots = SeqSlots::default();
        // Opened and closed in order, the ring never holds more than one.
        for seq in 0..100u64 {
            slots.insert(seq, seq);
            assert_eq!(slots.slots.len(), 1);
            assert_eq!(slots.remove(seq), Some(seq));
            assert!(slots.is_empty());
        }
        // Three open at a time, closed out of order: the span stays three.
        for seq in (100..160u64).step_by(3) {
            for s in seq..seq + 3 {
                slots.insert(s, s);
            }
            assert_eq!(slots.slots.len(), 3);
            for s in [seq + 1, seq + 2, seq] {
                assert_eq!(slots.remove(s), Some(s));
            }
            assert!(slots.is_empty());
        }
        // One number left open: every later one widens the ring.
        slots.insert(1000, 0);
        for seq in 1001..1050u64 {
            slots.insert(seq, seq);
            slots.remove(seq);
            assert_eq!(
                slots.slots.len(),
                1,
                "the newest closed: trimmed at the back"
            );
        }
        slots.insert(1050, 1);
        assert_eq!(slots.slots.len(), 51);
        assert_eq!(slots.remove(1000), Some(0));
        assert_eq!(slots.slots.len(), 1);
        // A number from nowhere is looked up, never stored.
        assert_eq!(slots.get(u64::MAX), None);
        assert_eq!(slots.remove(u64::MAX), None);
        assert_eq!(slots.remove(0), None);
        assert_eq!(slots.slots.len(), 1);
    }

    #[test]
    fn values_come_back_oldest_first() {
        let mut slots = SeqSlots::default();
        for seq in [4u64, 5, 7, 9] {
            slots.insert(seq, seq * 10);
        }
        slots.remove(7);
        let open: Vec<(u64, u64)> = slots.iter_mut().map(|(seq, v)| (seq, *v)).collect();
        assert_eq!(open, [(4, 40), (5, 50), (9, 90)]);
        assert!(slots.into_values().eq([40, 50, 90]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Numbers opened in increasing order with gaps, closed in any order
        /// and some twice, and now and then one far off: every answer equals
        /// an ordered map's, and the ring spans exactly the open numbers.
        #[test]
        fn answers_match_a_map_model(
            ops in proptest::collection::vec((0u8..3, 0u64..4, any::<u64>()), 0..200),
        ) {
            let mut slots = SeqSlots::default();
            let mut model = BTreeMap::new();
            let mut next = 0u64;
            for (i, (op, step, pick)) in ops.into_iter().enumerate() {
                match op {
                    0 => {
                        next = next.saturating_add(step);
                        slots.insert(next, i);
                        model.insert(next, i);
                        next = next.saturating_add(1);
                    }
                    _ => {
                        let seq = if op == 2 && pick % 8 == 0 {
                            pick
                        } else {
                            pick.checked_rem(next).unwrap_or(0)
                        };
                        prop_assert_eq!(slots.get(seq), model.get(&seq));
                        prop_assert_eq!(slots.get_mut(seq), model.get_mut(&seq));
                        prop_assert_eq!(slots.remove(seq), model.remove(&seq));
                    }
                }
                let span = match (model.keys().next(), model.keys().next_back()) {
                    (Some(&lo), Some(&hi)) => {
                        usize::try_from(hi.abs_diff(lo)).ok().and_then(|d| d.checked_add(1))
                    }
                    _ => Some(0),
                };
                prop_assert_eq!(Some(slots.slots.len()), span);
                prop_assert_eq!(slots.is_empty(), model.is_empty());
                let open: Vec<(u64, usize)> = slots.iter_mut().map(|(s, v)| (s, *v)).collect();
                let expected: Vec<(u64, usize)> = model.iter().map(|(&s, &v)| (s, v)).collect();
                prop_assert_eq!(open, expected);
            }
            prop_assert!(slots.into_values().eq(model.into_values()));
        }
    }
}
