//! A deterministic-simulation sweeper: one seed is one scenario.
//!
//! [`Plan::draw`] draws a plain-data plan from a family and one `u64`;
//! [`verdict`] runs it through the public `Scenario` API, asks
//! `Running::check`, and replays it on `SchedulerKind::LegacyHeap`, which
//! must give the same delivery logs, `NetStats` and trace digest.  A
//! violation prints its family and seed and the plan [`shrink`]s to, ready
//! to paste into [`catches`].  Each [`Family`] is green or catches a bug of
//! ROADMAP item 1's ledger; fixing the bug fails its catch until the family
//! turns green.  A printed seed is a reproducer:
//! `verdict(&Plan::draw(FsRestart, 2))` re-runs seed 2 of that family.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::mem::discriminant;

use fs_smr_suite::common::config::TimingAssumptions;
use fs_smr_suite::common::id::MemberId;
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::faults::{FaultKind, FaultPlan};
use fs_smr_suite::harness::check::Log::{Delivery, Machine};
use fs_smr_suite::harness::FaultTarget::{self, Follower, Leader, Middleware};
use fs_smr_suite::harness::MemberFate::{self, Recover, Replace};
use fs_smr_suite::harness::Protocol::{self, Crash, FailSignal};
use fs_smr_suite::harness::{
    FaultSchedule, NewTopService, Scenario, SmrKvService, Violation, Workload,
};
use fs_smr_suite::newtop::suspector::SuspectorConfig;
use fs_smr_suite::simnet::sched::SchedulerKind;
use fs_smr_suite::simnet::trace::NetStats;

use Event::*;
use Family::*;
use Kind::*;
use Service::*;

/// Plans per `cargo test`.
const SEEDS: u64 = 200;
/// Plans in the wide sweep.
const WIDE_SEEDS: u64 = 2_000;
/// Events no quiet run reaches (the busiest handle about 4 500); a run stops there.
const EVENT_BUDGET: u64 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Service {
    NewTop,
    Smr,
}

/// A misbehaviour an injector plays, with the share of outputs it hits.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Halt,
    Lose(f64),
    Corrupt(f64),
    Duplicate,
}

/// One fault event; instants are in simulated microseconds.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// `Stop(member, at)`: the member crashes for good.
    Stop(u32, u64),
    /// `Outage(member, from, to, fate)`: the member crashes, then comes back.
    Outage(u32, u64, u64, MemberFate),
    /// `Link(a, b, from, to, loss)`: a link drops this share (1.0: a cut), then heals.
    Link(u32, u32, u64, u64, f64),
    /// `Inject(member, target, kind, after)`: a process turns faulty after `after` events.
    Inject(u32, FaultTarget, Kind, u64),
}

impl Event {
    fn names(self, m: u32) -> bool {
        match self {
            Stop(member, _) | Outage(member, ..) | Inject(member, ..) => member == m,
            Link(a, b, ..) => a == m || b == m,
        }
    }

    /// The event with its window halved, if it has one to halve.
    fn narrowed(self) -> Option<Event> {
        let half = |from: u64, to: u64| (to - from >= 2_000).then_some(from + (to - from) / 2);
        match self {
            Outage(m, from, to, fate) => Some(Outage(m, from, half(from, to)?, fate)),
            Link(a, b, from, to, loss) => Some(Link(a, b, from, half(from, to)?, loss)),
            _ => None,
        }
    }
}

/// A kind of scenario: its cells, its faults, and what its seeds must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    /// No faults; the agreed log holds every admitted command.
    Clean,
    /// A member stops for good: it crashes, or one of its processes halts.
    CrashStop,
    /// One or two crash-SMR outages, one member down at a time.
    CrashRestart,
    /// C1: an FS-SMR member crashes at an arbitrary instant and comes back.
    FsRestart,
    /// C2, C7: an FS-SMR member link loses frames, or is cut, for a while.
    FsLink,
    /// C3: the FS-SMR sequencer crashes, or its follower drops or corrupts.
    FsSequencerDown,
    /// C4: the same on crash NewTOP, with its suspector on.
    NewTopLink,
    /// Two FS-NewTOP members, tight pair timing, a duplicating leader (C5, fixed).
    FsDuplicatingLeader,
}

/// Every family; `cargo test` sweeps the first seven.
const ALL: [Family; 8] = [
    Clean,
    CrashStop,
    CrashRestart,
    FsRestart,
    FsLink,
    FsSequencerDown,
    NewTopLink,
    FsDuplicatingLeader,
];

impl Family {
    /// `None`: green.  `Some((item, within, events))`: ROADMAP `item`; a
    /// seed below `within` violates and shrinks to at most `events` events.
    fn catches(self) -> Option<(&'static str, u64, usize)> {
        match self {
            Clean | CrashStop | CrashRestart | FsDuplicatingLeader => None,
            FsRestart => Some(("2a, C1", 20, 1)),
            FsLink => Some(("1, C7", 20, 1)),
            FsSequencerDown => Some(("2c, C3", 20, 1)),
            NewTopLink => Some(("1, C4", 20, 1)),
        }
    }

    /// The (service, protocol) cells the family runs.
    fn cells(self) -> &'static [(Service, Protocol)] {
        match self {
            Clean => &[
                (NewTop, Crash),
                (NewTop, FailSignal),
                (Smr, Crash),
                (Smr, FailSignal),
            ],
            CrashStop => &[(NewTop, Crash), (NewTop, FailSignal), (Smr, Crash)],
            CrashRestart => &[(Smr, Crash)],
            FsRestart | FsLink | FsSequencerDown => &[(Smr, FailSignal)],
            NewTopLink => &[(NewTop, Crash)],
            FsDuplicatingLeader => &[(NewTop, FailSignal)],
        }
    }

    /// The pairs' timing: the paper default, but for the tight pair.
    fn timing(self) -> TimingAssumptions {
        let (delta, kappa) = match self {
            FsDuplicatingLeader => (SimDuration::from_millis(50), 3.0),
            _ => (SimDuration::from_secs(120), 4.0),
        };
        TimingAssumptions::new(delta, kappa, kappa).expect("valid timing")
    }
}

/// One scenario, as plain data.
#[derive(Debug, Clone)]
struct Plan {
    family: Family,
    service: Service,
    protocol: Protocol,
    members: u32,
    /// Commands per member.
    messages: u64,
    interval_ms: u64,
    poisson: bool,
    /// Commands per batch (1: batching off).
    batch: u32,
    seed: u64,
    events: Vec<Event>,
}

impl Plan {
    /// The plan `seed` stands for in `family`: the cell and the group size
    /// stratified from the seed, the rest drawn from one generator.
    fn draw(family: Family, seed: u64) -> Plan {
        let cells = family.cells();
        let (service, protocol) = cells[seed as usize % cells.len()];
        let sizes = if family == FsDuplicatingLeader { 1 } else { 5 };
        let members = 2 + (seed / cells.len() as u64 % sizes) as u32;
        let rng = &mut DetRng::new(seed).derive(family as u64);
        let between = |rng: &mut DetRng, lo: u64, hi: u64| lo + rng.below(hi - lo + 1);
        let few = (service, protocol) == (NewTop, FailSignal);
        let mut plan = Plan {
            family,
            service,
            protocol,
            members,
            messages: between(rng, 1, if few { 5 } else { 10 }),
            interval_ms: between(rng, 10, 40),
            poisson: rng.chance(0.5),
            batch: between(rng, 1, if service == Smr { 4 } else { 1 }) as u32,
            seed: rng.below(1 << 32),
            events: vec![],
        };
        // Instants fall anywhere in the load window, start delay included.
        let window = 1_000 * (10 + plan.messages * plan.interval_ms);
        let at = |rng: &mut DetRng| rng.below(window + 1);
        let member = |rng: &mut DetRng| rng.below(u64::from(members)) as u32;
        let length = |rng: &mut DetRng| between(rng, 1_000, 800_000);
        let share = |rng: &mut DetRng| between(rng, 10, 200) as f64 / 1000.0;
        let fate = |rng: &mut DetRng| if rng.chance(0.5) { Recover } else { Replace };
        plan.events = match family {
            Clean => vec![],
            CrashStop => {
                let m = member(rng);
                let half = *rng.choose(&[Leader, Follower]).expect("two halves");
                let target = if protocol == Crash { Middleware } else { half };
                vec![match rng.below(2) {
                    0 => Stop(m, at(rng)),
                    _ => Inject(m, target, Halt, rng.below(40)),
                }]
            }
            CrashRestart => {
                // Each outage starts once the last rejoin has settled.
                let mut from = at(rng);
                (0..between(rng, 1, 2))
                    .map(|_| {
                        let to = from + length(rng);
                        let outage = Outage(member(rng), from, to, fate(rng));
                        from = to + between(rng, 50_000, window + 50_000);
                        outage
                    })
                    .collect()
            }
            FsRestart => {
                let from = at(rng);
                vec![Outage(member(rng), from, from + length(rng), Recover)]
            }
            FsLink | NewTopLink => {
                let a = member(rng);
                let b = (a + 1 + rng.below(u64::from(members) - 1) as u32) % members;
                let (from, loss) = (at(rng), if rng.chance(0.5) { 1.0 } else { share(rng) });
                // Long enough, at times, for the suspector to time out.
                vec![Link(a, b, from, from + 40 * length(rng), loss)]
            }
            FsSequencerDown => vec![match rng.below(3) {
                0 => Stop(0, at(rng)),
                1 => Inject(0, Follower, Lose(share(rng)), rng.below(40)),
                _ => Inject(0, Follower, Corrupt(share(rng)), rng.below(40)),
            }],
            FsDuplicatingLeader => vec![Inject(member(rng), Leader, Duplicate, 0)],
        };
        plan
    }

    /// Past every timeout the run arms: the pairs', or the crash suspector's.
    fn horizon(&self) -> SimTime {
        let pairs = self.family.timing().delta * 4 + SimDuration::from_secs(2);
        let crash = SimDuration::from_secs(60);
        SimTime::ZERO + if self.protocol == Crash { crash } else { pairs }
    }

    fn faults(&self) -> FaultSchedule {
        let us = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
        let fault = |faults: FaultSchedule, &event: &Event| match event {
            Stop(m, at) => faults.crash_member_at(us(at), MemberId(m)),
            Outage(m, from, to, fate) => faults
                .crash_member_at(us(from), MemberId(m))
                .member_lifecycle(us(to), MemberId(m), fate),
            Link(a, b, from, to, loss) => {
                let (a, b) = ([MemberId(a)], [MemberId(b)]);
                let faults = if loss >= 1.0 {
                    faults.partition_at(us(from), &a, &b)
                } else {
                    faults.lossy_link(us(from), a[0], b[0], loss)
                };
                faults.heal_at(us(to), &a, &b)
            }
            Inject(m, target, kind, after) => {
                let kind = match kind {
                    Halt => FaultKind::Crash,
                    Lose(probability) => FaultKind::DropOutputs { probability },
                    Corrupt(probability) => FaultKind::CorruptOutputs { probability },
                    Duplicate => FaultKind::DuplicateOutputs,
                };
                faults.inject(MemberId(m), target, FaultPlan::after(after, kind))
            }
        };
        self.events.iter().fold(FaultSchedule::none(), fault)
    }

    fn scenario(&self) -> Scenario {
        let mut workload = Workload::quick(self.messages)
            .interval(SimDuration::from_millis(self.interval_ms))
            .batch_max(self.batch)
            .batch_linger(SimDuration::from_millis(5));
        if self.poisson {
            workload = workload.poisson();
        }
        // Crash NewTOP's suspector is off, as in the paper's measurements,
        // but where a faulty link is to make it suspect a correct member.
        let suspector = match self.family {
            NewTopLink => SuspectorConfig::large_timeouts(),
            _ => SuspectorConfig::disabled(),
        };
        let scenario = match self.service {
            NewTop => Scenario::new(NewTopService::new().suspector(suspector)),
            Smr => Scenario::new(SmrKvService::new()),
        };
        scenario
            .members(self.members)
            .protocol(self.protocol)
            .timing(self.family.timing())
            .workload(workload)
            .faults(self.faults())
            .seed(self.seed)
    }

    /// Smaller plans, in the order [`shrink`] tries them: without one event,
    /// with one window halved, with half the commands, without the last
    /// member.
    fn smaller(&self) -> Vec<Plan> {
        let with = |change: &dyn Fn(&mut Plan)| {
            let mut plan = self.clone();
            change(&mut plan);
            plan
        };
        let n = self.events.len();
        let mut smaller: Vec<Plan> = (0..n).map(|i| with(&|p| _ = p.events.remove(i))).collect();
        for (i, event) in self.events.iter().enumerate() {
            if let Some(narrowed) = event.narrowed() {
                smaller.push(with(&|p| p.events[i] = narrowed));
            }
        }
        if self.messages > 1 {
            smaller.push(with(&|p| p.messages /= 2));
        }
        let last = self.members - 1;
        if last >= 2 {
            smaller.push(with(&|p| {
                p.members = last;
                p.events.retain(|e| !e.names(last));
            }));
        }
        smaller
    }

    /// The plan as Rust, to paste into [`catches`].
    fn pasteable(&self) -> String {
        format!("{self:?}").replacen("events: [", "events: vec![", 1)
    }
}

/// What one run shows, and the rules it broke.
struct Outcome {
    logs: Vec<Vec<(MemberId, u64)>>,
    stats: NetStats,
    trace: u64,
    findings: Vec<Finding>,
}

/// A rule a run broke.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Finding {
    /// `Running::check` found this.
    Check(Violation),
    /// The run spent the event budget at `reached`, before the horizon.
    Unquiesced { reached: SimTime },
    /// `Invalid(agreed, admitted)`: a clean run agreed on other than it admitted.
    Invalid(usize, u64),
    /// The replay on the legacy heap differs in logs, stats or trace.
    Replay,
}

fn run(plan: &Plan, scheduler: SchedulerKind) -> Outcome {
    let mut run = plan.scenario().scheduler(scheduler).build();
    run.enable_trace();
    // 100 ms at a time, so a group that never goes quiet stops at the budget.
    let (mut reached, horizon) = (SimTime::ZERO, plan.horizon());
    while reached < horizon && run.stats().events_processed < EVENT_BUDGET {
        reached = horizon.min(reached.saturating_add(SimDuration::from_millis(100)));
        run.run_until(reached);
    }
    let (admitted, checked) = (run.load_stats().submitted, run.check());
    let mut findings: Vec<Finding> = match checked {
        Err(violations) => violations.into_iter().map(Finding::Check).collect(),
        Ok(agreed) if plan.family == Clean && agreed.len() as u64 != admitted => {
            vec![Finding::Invalid(agreed.len(), admitted)]
        }
        Ok(_) => vec![],
    };
    if run.stats().events_processed >= EVENT_BUDGET {
        findings.push(Finding::Unquiesced { reached });
    }
    let mut trace = DefaultHasher::new();
    let json = serde_json::to_string(run.trace().expect("tracing enabled"));
    json.expect("a trace serialises").hash(&mut trace);
    Outcome {
        trace: trace.finish(),
        logs: run.delivery_logs(),
        stats: run.stats(),
        findings,
    }
}

/// Runs `plan` on the default scheduler, and replays it on the legacy heap.
fn verdict(plan: &Plan) -> Outcome {
    let mut outcome = run(plan, SchedulerKind::default());
    let replay = run(plan, SchedulerKind::LegacyHeap);
    let same = outcome.logs == replay.logs && outcome.stats == replay.stats;
    if !same || outcome.trace != replay.trace {
        outcome.findings.push(Finding::Replay);
    }
    outcome
}

/// Greedily takes the first smaller plan still breaking `plan`'s first rule.
fn shrink(plan: &Plan) -> Plan {
    let rule = |f: &Finding| match f {
        Finding::Check(v) => (discriminant(f), Some(discriminant(v))),
        _ => (discriminant(f), None),
    };
    let first = rule(&verdict(plan).findings[0]);
    let breaks = |p: &Plan| verdict(p).findings.iter().any(|f| rule(f) == first);
    let mut plan = plan.clone();
    while let Some(smaller) = plan.smaller().into_iter().find(breaks) {
        plan = smaller;
    }
    plan
}

/// Sweeps `seeds` plans round-robin over `families`; checks ledger, coverage.
fn sweep(families: &[Family], seeds: u64) {
    let n = families.len() as u64;
    let mut caught: BTreeMap<Family, (u64, Plan)> = BTreeMap::new();
    let (mut digests, mut cells) = (BTreeSet::new(), Vec::new());
    let (mut links, mut restarts) = (false, false);
    for i in 0..seeds {
        let (family, seed) = (families[(i % n) as usize], i / n);
        let plan = Plan::draw(family, seed);
        let outcome = verdict(&plan);
        let findings = &outcome.findings;
        let replayed = !findings.contains(&Finding::Replay);
        assert!(replayed, "{family:?} seed {seed}: {findings:?}\n{plan:?}");
        let fresh = digests.insert(outcome.trace);
        assert!(fresh, "{family:?} seed {seed} traces like an earlier seed");
        cells.push((family, plan.service, plan.protocol));
        let stats = &outcome.stats;
        links |= stats.link_faults >= 2 && stats.dropped_link > 0;
        restarts |= stats.lifecycle_events > 0 && stats.dropped_down > 0;
        if findings.is_empty() || caught.contains_key(&family) {
            continue;
        }
        let shrunk = shrink(&plan);
        let (still, rust) = (verdict(&shrunk).findings, shrunk.pasteable());
        eprintln!("{family:?} seed {seed}: {findings:?}\nshrunk: {still:?}\n{rust}");
        caught.insert(family, (seed, shrunk));
    }
    for &family in families {
        for &(service, protocol) in family.cells() {
            let ran = cells.contains(&(family, service, protocol));
            assert!(ran, "{family:?} never ran {service:?} × {protocol:?}");
        }
        let first = caught.get(&family);
        let Some((item, within, events)) = family.catches() else {
            assert!(first.is_none(), "{family:?} violates: {first:?}");
            continue;
        };
        let (seed, plan) = first.unwrap_or_else(|| panic!("{family:?} no longer catches {item}"));
        let shrunk = plan.events.len();
        let caught_in_time = *seed < within && shrunk <= events;
        assert!(
            caught_in_time,
            "{family:?} ({item}): seed {seed}, {shrunk} events"
        );
    }
    assert!(links && restarts, "no fault dropped a frame");
}

#[test]
fn sweep_tier_one() {
    sweep(&ALL[..7], SEEDS);
}

#[test]
#[ignore = "the wide sweep: cargo test --release --test sweep -- --ignored"]
fn sweep_wide() {
    sweep(&ALL, WIDE_SEEDS);
}

/// Reproducers the sweep printed, with their findings; ROADMAP item 1 has the causes.
#[rustfmt::skip]
fn catches() -> Vec<(Plan, Vec<Finding>)> {
    use Finding::Check;
    use Violation::{Behind, Order};
    vec![
        // C1: a member restarts; its machine never catches up.
        (Plan { family: FsRestart, service: Smr, protocol: FailSignal, members: 3, messages: 7, interval_ms: 12, poisson: true, batch: 3, seed: 3830502817, events: vec![Outage(2, 72846, 87046, Recover)] }, vec![Check(Behind(MemberId(2), Machine))]),
        // C1: the sequencer's member restarts; its leader keeps a command nobody else gets.
        (Plan { family: FsRestart, service: Smr, protocol: FailSignal, members: 2, messages: 8, interval_ms: 11, poisson: true, batch: 1, seed: 1137152568, events: vec![Outage(0, 95327, 97899, Recover)] }, vec![Check(Order(MemberId(0), Machine))]),
        // C2 (a) (fixed): a 5.6 ms cut; member 0's interceptor holds (2, 3) until (2, 2), and degraded member 0 stops at the hole.
        (Plan { family: FsLink, service: Smr, protocol: FailSignal, members: 3, messages: 4, interval_ms: 32, poisson: true, batch: 1, seed: 1569982164, events: vec![Link(1, 0, 149605, 155211, 1.0)] }, vec![]),
        // C2 (fixed): a 3.3 ms cut fails both pairs; their failed followers no longer answer each other's fail-signal.
        (Plan { family: FsLink, service: Smr, protocol: FailSignal, members: 2, messages: 10, interval_ms: 21, poisson: true, batch: 4, seed: 3792040986, events: vec![Link(1, 0, 91281, 94597, 1.0)] }, vec![]),
        // C7: a 6.6 ms cut between the sequencer's leader and its follower (on member 1's node); the follower fail-signals an ordering gap, but the leader's machine has applied all three commands, which no other member ever commits.
        (Plan { family: FsLink, service: Smr, protocol: FailSignal, members: 3, messages: 1, interval_ms: 21, poisson: false, batch: 3, seed: 2183170367, events: vec![Link(1, 0, 12760, 19329, 1.0)] }, vec![Check(Order(MemberId(0), Machine))]),
        // C3: the sequencer's follower drops outputs; the correct members stop at different points.
        (Plan { family: FsSequencerDown, service: Smr, protocol: FailSignal, members: 5, messages: 4, interval_ms: 25, poisson: true, batch: 1, seed: 2386653544, events: vec![Inject(0, Follower, Lose(0.163), 39)] }, vec![Check(Behind(MemberId(1), Delivery)), Check(Behind(MemberId(3), Delivery)), Check(Behind(MemberId(1), Machine)), Check(Behind(MemberId(3), Machine))]),
        // C3: the sequencer's member stops; its machine ends ahead of the others'.
        (Plan { family: FsSequencerDown, service: Smr, protocol: FailSignal, members: 2, messages: 5, interval_ms: 10, poisson: false, batch: 1, seed: 1695299165, events: vec![Stop(0, 47121)] }, vec![Check(Order(MemberId(0), Machine))]),
        // C4: a ping lost to a 3.4 s cut; members 0 and 2 suspect each other and part.
        (Plan { family: NewTopLink, service: NewTop, protocol: Crash, members: 3, messages: 7, interval_ms: 22, poisson: false, batch: 1, seed: 3134071775, events: vec![Link(0, 2, 124767, 3477247, 1.0)] }, vec![Check(Order(MemberId(2), Delivery))]),
        // C5 (fixed): both halves of the duplicating leader's pair fail, and no longer answer each other's fail-signal.
        (Plan { family: FsDuplicatingLeader, service: NewTop, protocol: FailSignal, members: 2, messages: 4, interval_ms: 40, poisson: false, batch: 1, seed: 1166675543, events: vec![Inject(1, Leader, Duplicate, 0)] }, vec![]),
        // C6: member 1 comes back 1 ms before the sequencer goes down; its catch-up request is lost for good.
        (Plan { family: CrashRestart, service: Smr, protocol: Crash, members: 2, messages: 1, interval_ms: 27, poisson: true, batch: 1, seed: 3366070276, events: vec![Outage(1, 24157, 158200, Replace), Outage(0, 159167, 160350, Recover)] }, vec![Check(Behind(MemberId(1), Machine))]),
    ]
}

/// A fixed bug fails here: keep its plan, expect no findings, turn it green.
#[test]
fn catches_reproduce() {
    for (plan, findings) in catches() {
        assert_eq!(verdict(&plan).findings, findings, "{plan:?}");
    }
}
