//! Group views (membership) for the partitionable membership service.
//!
//! NewTOP is a *partitionable* system: processes that suspect a member
//! install a new view excluding it, without any merge protocol (§3).  Views
//! shrink under suspicion, which is exactly the behaviour the paper relies
//! on when it warns that false suspicions "split groups" and reduce
//! fault-tolerance potential — the effect the fail-signal suspector
//! eliminates.  The one growth path is explicit readmission
//! ([`MembershipState::readmit`]): the recovery plane announces that a
//! previously excluded member came back up, and the view re-admits it under
//! a fresh view number (a deliberate reconfiguration, not a partition
//! merge).

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used
)]

use std::collections::BTreeSet;

use fs_common::id::MemberId;

use crate::message::ViewDeliver;

/// A membership view: a numbered snapshot of the live members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Monotonically increasing view number (0 is the initial view).
    pub id: u64,
    /// The members of the view.
    pub members: BTreeSet<MemberId>,
}

impl View {
    /// Creates the initial view (`id` 0) over `members`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn initial(members: impl IntoIterator<Item = MemberId>) -> Self {
        let members: BTreeSet<MemberId> = members.into_iter().collect();
        assert!(!members.is_empty(), "a view must have at least one member");
        Self { id: 0, members }
    }

    /// Returns true when `m` is a member of this view.
    pub fn contains(&self, m: MemberId) -> bool {
        self.members.contains(&m)
    }

    /// Number of members in the view.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns true when the view is empty (only possible transiently).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members in ascending order.
    pub fn members_sorted(&self) -> Vec<MemberId> {
        self.members.iter().copied().collect()
    }

    /// The sequencer for the asymmetric total-order service: the smallest
    /// member identifier in the view (deterministic across members).
    pub fn sequencer(&self) -> Option<MemberId> {
        self.members.iter().next().copied()
    }

    /// Installs a successor view that excludes `removed`.  Returns `None`
    /// when `removed` is not a member or the view ids are spent (no
    /// change).
    pub fn without(&self, removed: MemberId) -> Option<View> {
        if !self.members.contains(&removed) {
            return None;
        }
        let mut members = self.members.clone();
        members.remove(&removed);
        Some(View {
            id: self.id.checked_add(1)?,
            members,
        })
    }

    /// Installs a successor view that re-admits `added`.  Returns `None`
    /// when `added` is already a member or the view ids are spent (no
    /// change).
    pub fn with(&self, added: MemberId) -> Option<View> {
        if self.members.contains(&added) {
            return None;
        }
        let mut members = self.members.clone();
        members.insert(added);
        Some(View {
            id: self.id.checked_add(1)?,
            members,
        })
    }

    /// The deliverable form of this view.
    pub fn to_deliver(&self) -> ViewDeliver {
        ViewDeliver {
            view_id: self.id,
            members: self.members_sorted(),
        }
    }
}

/// Tracks the current view and the set of members ever suspected, applying
/// suspicion-driven view changes deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipState {
    me: MemberId,
    view: View,
    suspected: BTreeSet<MemberId>,
}

impl MembershipState {
    /// Creates the membership state for `me` with the given initial group.
    pub fn new(me: MemberId, group: impl IntoIterator<Item = MemberId>) -> Self {
        Self {
            me,
            view: View::initial(group),
            suspected: BTreeSet::new(),
        }
    }

    /// The local member identity.
    pub fn me(&self) -> MemberId {
        self.me
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The members suspected so far (whether or not still in the view).
    pub fn suspected(&self) -> &BTreeSet<MemberId> {
        &self.suspected
    }

    /// Records a suspicion of `member`.  If the member is still in the view
    /// a new view excluding it is installed and returned for delivery to the
    /// application.
    pub fn suspect(&mut self, member: MemberId) -> Option<View> {
        self.suspected.insert(member);
        if member == self.me {
            // A process never excludes itself; in NewTOP self-suspicion is
            // meaningless and in FS-NewTOP it cannot arise (a process does
            // not receive its own fail-signal as a suspicion).
            return None;
        }
        match self.view.without(member) {
            Some(next) => {
                self.view = next.clone();
                Some(next)
            }
            None => None,
        }
    }

    /// Clears a suspicion and re-admits `member` to the view — the recovery
    /// plane's rejoin path.  If the member had been excluded, the successor
    /// view including it again is installed and returned for delivery.
    /// Unlike suspicion-driven shrinking this is an explicit, scheduled
    /// reconfiguration, so it may grow the view.
    pub fn readmit(&mut self, member: MemberId) -> Option<View> {
        self.suspected.remove(&member);
        match self.view.with(member) {
            Some(next) => {
                self.view = next.clone();
                Some(next)
            }
            None => None,
        }
    }

    /// True when every member of the current view (other than `me`) has been
    /// suspected — the group has collapsed to a singleton.
    pub fn is_singleton(&self) -> bool {
        self.view.len() == 1 && self.view.contains(self.me)
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

    fn group(n: u32) -> Vec<MemberId> {
        (0..n).map(MemberId).collect()
    }

    #[test]
    fn initial_view_contains_all_members() {
        let v = View::initial(group(3));
        assert_eq!(v.id, 0);
        assert_eq!(v.len(), 3);
        assert!(v.contains(MemberId(0)));
        assert!(!v.contains(MemberId(3)));
        assert_eq!(v.members_sorted(), group(3));
        assert!(!v.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_initial_view_panics() {
        View::initial(Vec::new());
    }

    #[test]
    fn sequencer_is_smallest_member() {
        let v = View::initial(vec![MemberId(5), MemberId(2), MemberId(9)]);
        assert_eq!(v.sequencer(), Some(MemberId(2)));
        let v2 = v.without(MemberId(2)).unwrap();
        assert_eq!(v2.sequencer(), Some(MemberId(5)));
    }

    #[test]
    fn without_increments_view_id() {
        let v = View::initial(group(3));
        let v1 = v.without(MemberId(1)).unwrap();
        assert_eq!(v1.id, 1);
        assert_eq!(v1.len(), 2);
        assert!(!v1.contains(MemberId(1)));
        // Removing a non-member is a no-op.
        assert!(v1.without(MemberId(1)).is_none());
    }

    #[test]
    fn to_deliver_matches_view() {
        let v = View::initial(group(2));
        let d = v.to_deliver();
        assert_eq!(d.view_id, 0);
        assert_eq!(d.members, group(2));
    }

    #[test]
    fn membership_suspicion_installs_new_view() {
        let mut m = MembershipState::new(MemberId(0), group(3));
        assert_eq!(m.view().id, 0);
        let v1 = m.suspect(MemberId(2)).unwrap();
        assert_eq!(v1.id, 1);
        assert!(!m.view().contains(MemberId(2)));
        // Suspecting the same member again changes nothing.
        assert!(m.suspect(MemberId(2)).is_none());
        assert_eq!(m.view().id, 1);
        assert_eq!(m.suspected().len(), 1);
    }

    #[test]
    fn self_suspicion_is_ignored() {
        let mut m = MembershipState::new(MemberId(0), group(3));
        assert!(m.suspect(MemberId(0)).is_none());
        assert!(m.view().contains(MemberId(0)));
    }

    #[test]
    fn group_can_collapse_to_singleton() {
        let mut m = MembershipState::new(MemberId(0), group(3));
        m.suspect(MemberId(1));
        m.suspect(MemberId(2));
        assert!(m.is_singleton());
        assert_eq!(m.view().len(), 1);
    }

    #[test]
    fn readmit_reverses_a_suspicion_exclusion() {
        let mut m = MembershipState::new(MemberId(0), group(3));
        m.suspect(MemberId(2));
        assert!(!m.view().contains(MemberId(2)));
        assert_eq!(m.view().id, 1);
        let v2 = m.readmit(MemberId(2)).unwrap();
        assert_eq!(v2.id, 2);
        assert!(m.view().contains(MemberId(2)));
        assert!(!m.suspected().contains(&MemberId(2)));
        // Re-suspecting after readmission excludes it again (fresh view).
        let v3 = m.suspect(MemberId(2)).unwrap();
        assert_eq!(v3.id, 3);
        // Readmitting a current member changes nothing.
        let mut fresh = MembershipState::new(MemberId(0), group(3));
        assert!(fresh.readmit(MemberId(1)).is_none());
        assert_eq!(fresh.view().id, 0);
    }

    #[test]
    fn identical_suspicion_sequences_give_identical_views() {
        let mut a = MembershipState::new(MemberId(0), group(5));
        let mut b = MembershipState::new(MemberId(1), group(5));
        for s in [MemberId(3), MemberId(2), MemberId(3)] {
            a.suspect(s);
            b.suspect(s);
        }
        assert_eq!(a.view().id, b.view().id);
        assert_eq!(a.view().members, b.view().members);
    }
}
