//! One definition of a correct run.
//!
//! [`Running::check`](crate::Running::check) settles a run and decides
//! whether one group behaved correctly; a cluster's
//! [`RunningCluster::check`](crate::RunningCluster::check) is the same
//! check on each shard's `Running` view.  Each member's [`Role`] comes from
//! the [`FaultSchedule`] its group was built with, so callers pass nothing
//! (README "Scenario API" has the roles as a table).
//!
//! The reference is the longest log among correct members, else among the
//! other compared ones.  A compared log holds each `(origin, seq)` at most
//! once, and equal machine logs mean equal digests.  Without total order
//! ([`ServiceSpec::total_order`](crate::ServiceSpec::total_order)) logs
//! compare as sets.  [`views`] is the pure core.  Not checked yet: fs1,
//! containment, view monotonicity.

use std::collections::BTreeSet;

use failsignal::interceptor::FsInterceptor;
use fs_common::id::MemberId;

use crate::deployment::{Group, Runtime};
use crate::faults::{FaultSchedule, MemberFate};
use crate::scenario::Running;

/// One delivery: `(origin, seq)`.
pub type Entry = (MemberId, u64);

/// What a member may do.  Every role but `Correct` may fail-signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A [`FaultEntry`](crate::FaultEntry) targets it: nothing compared.
    Faulty,
    /// Its last lifecycle event restarts it: its machine log must equal the
    /// reference (its driver misses upcalls by design).
    Restarted,
    /// Its last lifecycle event crashes it: both logs prefixes.
    Stopped,
    /// A link entry names it: both logs prefixes (A2 may not hold).
    Degraded,
    /// Nothing touched it: both logs equal the reference, no fail-signal.
    Correct,
}

/// Which of a member's two logs a violation is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Log {
    /// What the member's driver saw as upcalls.
    Delivery,
    /// What the member's service machine committed.
    Machine,
}

impl Role {
    /// The first role that applies to `member`; its "last" lifecycle entry
    /// is its latest in time (the later-added on a tie).
    pub(crate) fn of(faults: &FaultSchedule, member: MemberId) -> Role {
        if faults.entries().iter().any(|e| e.member == member) {
            return Role::Faulty;
        }
        let last = faults
            .lifecycle_entries()
            .iter()
            .filter(|e| e.member == member)
            .max_by_key(|e| e.at);
        let named = |e: &crate::LinkFaultEntry| e.scope.members().any(|&m| m == member);
        match last.map(|e| e.fate) {
            Some(MemberFate::Recover | MemberFate::Replace) => Role::Restarted,
            Some(MemberFate::Crash) => Role::Stopped,
            None if faults.link_entries().iter().any(named) => Role::Degraded,
            None => Role::Correct,
        }
    }

    /// Whether this role's `log` must equal the reference (`Some(true)`),
    /// be a prefix of it (`Some(false)`) or is not compared (`None`).
    fn must_equal(self, log: Log) -> Option<bool> {
        match (self, log) {
            (Role::Faulty, _) | (Role::Restarted, Log::Delivery) => None,
            (Role::Correct, _) | (Role::Restarted, Log::Machine) => Some(true),
            (Role::Stopped | Role::Degraded, _) => Some(false),
        }
    }
}

/// A rule a settled run broke, naming the member that broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The log is not a prefix (without total order: a subset) of the
    /// reference.
    Order(MemberId, Log),
    /// The log holds this entry more than once.
    Duplicate(MemberId, Log, Entry),
    /// The log must equal the reference but is only a prefix of it.
    Behind(MemberId, Log),
    /// The member holds the same machine log as the second one but not the
    /// same digest.
    Digest(MemberId, MemberId),
    /// A correct member's pair fail-signalled (fs2).
    FailSignal(MemberId),
}

/// What a settled run shows of one member: the input of [`views`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberView {
    /// The member.
    pub member: MemberId,
    /// What it may do.
    pub role: Role,
    /// Its driver's deliveries, in order.
    pub delivery_log: Vec<Entry>,
    /// Its service machine's committed log, if the machine keeps one.
    pub machine_log: Option<Vec<Entry>>,
    /// Its service machine's state digest, if the machine exposes one.
    pub digest: Option<u64>,
    /// Whether its pair fail-signalled.
    pub fail_signalled: bool,
}

/// The pure core: the agreed delivery log (the reference), or every
/// violation; `total_order` says whether logs compare as sequences or sets.
pub fn views(members: &[MemberView], total_order: bool) -> Result<Vec<Entry>, Vec<Violation>> {
    let mut violations = Vec::new();
    let delivered = members.iter().map(|m| (m, m.delivery_log.as_slice()));
    let agreed = compare(Log::Delivery, delivered, total_order, &mut violations);
    // A machine that keeps a log keeps it on every member: one that cannot
    // be read reads as empty.
    let keeps_log = members.iter().any(|m| m.machine_log.is_some());
    let committed = members
        .iter()
        .filter(|_| keeps_log)
        .map(|m| (m, m.machine_log.as_deref().unwrap_or_default()));
    compare(Log::Machine, committed, total_order, &mut violations);

    let digested: Vec<(MemberId, &[Entry], u64)> = members
        .iter()
        .filter(|m| m.role != Role::Faulty)
        .filter_map(|m| Some((m.member, m.machine_log.as_deref()?, m.digest?)))
        .collect();
    for (i, &(member, log, digest)) in digested.iter().enumerate() {
        let clash = digested[..i]
            .iter()
            .find(|&&(_, l, d)| l == log && d != digest);
        violations.extend(clash.map(|&(other, ..)| Violation::Digest(member, other)));
    }
    let signalled = members
        .iter()
        .filter(|m| m.fail_signalled && m.role == Role::Correct);
    violations.extend(signalled.map(|m| Violation::FailSignal(m.member)));
    if violations.is_empty() {
        Ok(agreed.to_vec())
    } else {
        Err(violations)
    }
}

/// Holds every `log` its member's role compares to the reference; returns
/// the reference.
fn compare<'a>(
    log: Log,
    members: impl Iterator<Item = (&'a MemberView, &'a [Entry])>,
    total_order: bool,
    violations: &mut Vec<Violation>,
) -> &'a [Entry] {
    let compared: Vec<(&MemberView, bool, &[Entry])> = members
        .filter_map(|(m, entries)| Some((m, m.role.must_equal(log)?, entries)))
        .collect();
    let longest = |correct_only: bool| {
        compared
            .iter()
            .filter(|(m, ..)| !correct_only || m.role == Role::Correct)
            .map(|&(.., entries)| entries)
            .reduce(|a, b| if b.len() > a.len() { b } else { a })
    };
    let reference = longest(true).or_else(|| longest(false)).unwrap_or(&[]);
    let reference_set: BTreeSet<Entry> = reference.iter().copied().collect();
    for (m, must_equal, entries) in compared {
        let mut seen = BTreeSet::new();
        if let Some(&entry) = entries.iter().find(|&&e| !seen.insert(e)) {
            violations.push(Violation::Duplicate(m.member, log, entry));
        }
        let consistent = if total_order {
            reference.starts_with(entries)
        } else {
            entries.iter().all(|e| reference_set.contains(e))
        };
        if !consistent {
            violations.push(Violation::Order(m.member, log));
        } else if must_equal && entries.len() < reference.len() {
            violations.push(Violation::Behind(m.member, log));
        }
    }
    reference
}

/// Settles `runtime` and checks `group` on it.
pub(crate) fn group(runtime: &mut Runtime, group: &Group) -> Result<Vec<Entry>, Vec<Violation>> {
    let mut run = Running { runtime, group };
    let seen: Vec<MemberView> = (0..)
        .zip(&group.members)
        .map(|(i, procs)| MemberView {
            member: procs.member,
            role: Role::of(&group.faults, procs.member),
            delivery_log: run.delivery_log(i),
            machine_log: run.machine_log(i),
            digest: run.machine_digest(i),
            fail_signalled: run
                .interceptor(i)
                .is_some_and(FsInterceptor::local_fail_signalled),
        })
        .collect();
    views(&seen, group.service.total_order())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_common::time::SimTime;
    use fs_faults::{FaultKind, FaultPlan};

    const M: [MemberId; 4] = [MemberId(0), MemberId(1), MemberId(2), MemberId(3)];

    fn log(seqs: &[u64]) -> Vec<Entry> {
        seqs.iter().map(|&s| (MemberId(0), s)).collect()
    }

    /// Member `i` in `role` holding `delivered` as both of its logs, digest
    /// 7, no fail-signal.
    fn view(i: usize, role: Role, delivered: &[u64]) -> MemberView {
        MemberView {
            member: M[i],
            role,
            delivery_log: log(delivered),
            machine_log: Some(log(delivered)),
            digest: Some(7),
            fail_signalled: false,
        }
    }

    fn correct(delivered: &[&[u64]]) -> Vec<MemberView> {
        (0..delivered.len())
            .map(|i| view(i, Role::Correct, delivered[i]))
            .collect()
    }

    #[test]
    fn roles_come_from_the_schedule() {
        let at = SimTime::from_millis;
        let faults = FaultSchedule::none()
            .follower(M[1], FaultPlan::immediate(FaultKind::Crash))
            .crash_member_at(at(10), M[1])
            .recover_member_at(at(20), M[2])
            .crash_member_at(at(10), M[2])
            .crash_member_at(at(30), M[3])
            .lossy_link(at(0), M[0], M[3], 0.1);
        assert_eq!(Role::of(&faults, M[1]), Role::Faulty, "an injector wins");
        assert_eq!(Role::of(&faults, M[2]), Role::Restarted, "latest in time");
        assert_eq!(Role::of(&faults, M[3]), Role::Stopped, "lifecycle first");
        assert_eq!(Role::of(&faults, M[0]), Role::Degraded);
        assert_eq!(Role::of(&faults, MemberId(4)), Role::Correct);
        let replaced = FaultSchedule::none()
            .crash_member_at(at(5), M[0])
            .replace_member_at(at(5), M[0]);
        assert_eq!(
            Role::of(&replaced, M[0]),
            Role::Restarted,
            "tie: last added"
        );
        let split = FaultSchedule::none().partition_at(at(1), &[M[0]], &[M[1], M[2]]);
        assert_eq!(
            Role::of(&split, M[2]),
            Role::Degraded,
            "every side of a split"
        );
    }

    #[test]
    fn agreeing_members_pass_with_the_agreed_log() {
        assert_eq!(
            views(&correct(&[&[1, 2, 3][..]; 3]), true),
            Ok(log(&[1, 2, 3]))
        );
        assert_eq!(views(&[], true), Ok(vec![]));
    }

    #[test]
    fn order_diverging_correct_members() {
        let found = views(&correct(&[&[1, 2, 3], &[1, 3, 2]]), true).unwrap_err();
        assert!(found.contains(&Violation::Order(M[1], Log::Delivery)));
        assert!(found.contains(&Violation::Order(M[1], Log::Machine)));
    }

    #[test]
    fn duplicate_in_one_log() {
        assert_eq!(
            views(&correct(&[&[1, 2, 1]]), true),
            Err(vec![
                Violation::Duplicate(M[0], Log::Delivery, (MemberId(0), 1)),
                Violation::Duplicate(M[0], Log::Machine, (MemberId(0), 1)),
            ])
        );
        // Without total order a duplicate is still one.
        let mut members = correct(&[&[1, 2, 3], &[3, 2, 1]]);
        members[0].machine_log = Some(log(&[1, 2, 2]));
        assert!(views(&members, false)
            .unwrap_err()
            .contains(&Violation::Duplicate(M[0], Log::Machine, (MemberId(0), 2))));
    }

    #[test]
    fn behind_correct_member_at_settle() {
        assert_eq!(
            views(&correct(&[&[1, 2], &[1, 2, 3]]), true),
            Err(vec![
                Violation::Behind(M[0], Log::Delivery),
                Violation::Behind(M[0], Log::Machine),
            ])
        );
    }

    #[test]
    fn digest_differs_over_equal_machine_logs() {
        let mut members = correct(&[&[1, 2][..]; 3]);
        members[2].digest = Some(8);
        assert_eq!(
            views(&members, true),
            Err(vec![Violation::Digest(M[2], M[0])])
        );
        // Different logs may hold different digests (the log rules speak).
        let mut members = vec![
            view(0, Role::Correct, &[1, 2]),
            view(1, Role::Stopped, &[1]),
        ];
        members[1].digest = Some(8);
        assert!(views(&members, true).is_ok());
    }

    #[test]
    fn unreadable_machine_log_reads_as_empty() {
        let mut members = correct(&[&[1, 2][..]; 2]);
        members[1].machine_log = None;
        assert_eq!(
            views(&members, true),
            Err(vec![Violation::Behind(M[1], Log::Machine)])
        );
        members[1].role = Role::Stopped;
        assert!(views(&members, true).is_ok(), "empty is a prefix");
    }

    #[test]
    fn fail_signal_only_from_a_correct_member_is_a_violation() {
        let mut members = vec![
            view(0, Role::Correct, &[1]),
            view(1, Role::Faulty, &[1]),
            view(2, Role::Restarted, &[1]),
            view(3, Role::Stopped, &[1]),
        ];
        for m in &mut members[1..] {
            m.fail_signalled = true;
        }
        assert!(views(&members, true).is_ok());
        let mut degraded = view(0, Role::Degraded, &[1]);
        degraded.fail_signalled = true;
        assert!(views(&[degraded], true).is_ok());
        members[0].fail_signalled = true;
        assert_eq!(
            views(&members, true),
            Err(vec![Violation::FailSignal(M[0])])
        );
    }

    #[test]
    fn faulty_member_is_not_compared() {
        // Out of order, a duplicate, and a digest of its own over the
        // reference's machine log: none of it counts.
        let mut faulty = view(1, Role::Faulty, &[9, 9, 8]);
        faulty.machine_log = Some(log(&[1, 2]));
        faulty.digest = Some(1);
        let members = vec![view(0, Role::Correct, &[1, 2]), faulty];
        assert_eq!(views(&members, true), Ok(log(&[1, 2])));
    }

    #[test]
    fn restarted_member_matches_by_its_machine_log_only() {
        let mut restarted = view(1, Role::Restarted, &[1, 2, 3]);
        restarted.delivery_log = log(&[1, 3]);
        let members = vec![view(0, Role::Correct, &[1, 2, 3]), restarted];
        assert_eq!(views(&members, true), Ok(log(&[1, 2, 3])));

        let members = vec![
            view(0, Role::Correct, &[1, 2, 3]),
            view(1, Role::Restarted, &[1, 2]),
            view(2, Role::Restarted, &[1, 3]),
        ];
        assert_eq!(
            views(&members, true),
            Err(vec![
                Violation::Behind(M[1], Log::Machine),
                Violation::Order(M[2], Log::Machine),
            ])
        );
    }

    #[test]
    fn stopped_and_degraded_members_are_prefixes() {
        for role in [Role::Stopped, Role::Degraded] {
            let members = vec![view(0, Role::Correct, &[1, 2, 3]), view(1, role, &[1])];
            assert!(views(&members, true).is_ok(), "{role:?} may stop early");
            let members = vec![view(0, Role::Correct, &[1, 2, 3]), view(1, role, &[2])];
            assert_eq!(
                views(&members, true),
                Err(vec![
                    Violation::Order(M[1], Log::Delivery),
                    Violation::Order(M[1], Log::Machine),
                ]),
                "{role:?} may not reorder"
            );
        }
    }

    #[test]
    fn reference_falls_back_to_the_longest_non_faulty_log() {
        let members = vec![
            view(0, Role::Faulty, &[5, 6, 7, 8]),
            view(1, Role::Degraded, &[1, 2]),
            view(2, Role::Stopped, &[1, 2, 3]),
        ];
        assert_eq!(views(&members, true), Ok(log(&[1, 2, 3])));
    }

    #[test]
    fn without_total_order_logs_compare_as_sets() {
        let members = correct(&[&[1, 2, 3], &[3, 1, 2]]);
        assert_eq!(views(&members, false), Ok(log(&[1, 2, 3])));
        let found = views(&correct(&[&[1, 2, 3], &[3, 1]]), false).unwrap_err();
        assert!(found.contains(&Violation::Behind(M[1], Log::Delivery)));
        let found = views(&correct(&[&[1, 2, 3], &[3, 1, 4]]), false).unwrap_err();
        assert!(found.contains(&Violation::Order(M[1], Log::Delivery)));
    }
}
