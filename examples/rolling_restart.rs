//! The recovery-plane experiment: rolling restarts and sequencer replacement
//! under open-loop Poisson load.
//!
//! The paper's systems are long-lived group-communication deployments, so
//! the interesting failure mode is not a one-shot crash but *operational
//! churn*: members restarting one after another (a rolling upgrade), and a
//! dead sequencer being replaced by a cold process that must catch up by
//! state transfer rather than replay-from-zero.  This driver exercises both
//! through the scenario harness's member-lifecycle plane and reports the two
//! figures operators care about:
//!
//! * **availability dip** — offered vs. completed requests, messages dropped
//!   while processes were down, and the ordering-latency tail (requests in
//!   flight across an outage pay for it in p99/max).
//! * **recovery time** — per restarted member, the time from its driver
//!   re-sending `Recover` until the first view install that contains it
//!   again (`SmrDriver::rejoin_latency`), i.e. catch-up + view-change
//!   latency through the ordered stream.
//!
//! Three scenario families run on the simulator — rolling restart under the
//! crash protocol, the same restarts through the fail-signal wrapper path
//! (warm pair restart, no false fail-signals: each member goes down at an
//! instant when nothing is in flight to or from its pair), and
//! kill-and-replace of the
//! sequencer (a cold replacement member converging via snapshot state
//! transfer) — plus a rolling restart on the threaded runtime, so the
//! convergence claim is checked on real threads too.  Every run asserts that
//! all live members, including the rejoined or replaced one, end with
//! identical committed logs and KV digests.  Results go to
//! `results/rolling-restart.json`.
//!
//! Run with:
//! ```text
//! cargo run --release --example rolling_restart
//! ```
//!
//! Environment knobs (used by CI to keep the run small; a malformed value
//! exits with code 2 naming the variable):
//! `RR_MESSAGES` (per-member Poisson arrivals, default `140`),
//! `RR_THREADED` (`0` skips the threaded run, default `1`),
//! `RR_SEED` (default `2003`).

use std::io::Write as _;

use serde::Serialize;

use fs_smr_suite::bench::env::{env_flag, env_u64};
use fs_smr_suite::common::id::MemberId;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::harness::{
    FaultSchedule, Protocol, Running, RuntimeKind, Scenario, SmrDriver, SmrKvService, Workload,
};
use fs_smr_suite::simnet::trace::TraceEvent;

const MEMBERS: u32 = 3;
const SIM_HORIZON: SimTime = SimTime::from_secs(3600);
const THREADED_HORIZON: SimTime = SimTime::from_secs(15);
/// Each restarted member is down for this long.
const OUTAGE: SimDuration = SimDuration::from_millis(600);

/// One scheduled lifecycle intervention, with its measured outcome.
#[derive(Debug, Serialize)]
struct RestartEvent {
    member: u32,
    /// `recover` (warm restart) or `replace` (cold replacement member).
    action: &'static str,
    down_ms: u64,
    up_ms: u64,
    /// `Recover`-to-first-view-containing-us latency, from the member's own
    /// driver.  `None` means the member never observed its rejoin — the
    /// built-in assertions treat that as a failure.
    rejoin_ms: Option<f64>,
}

/// One scenario run (a family × protocol × runtime cell).
#[derive(Debug, Serialize)]
struct Row {
    scenario: &'static str,
    protocol: &'static str,
    runtime: &'static str,
    /// Open-loop arrivals generated across all member drivers.
    offered: u64,
    /// Requests whose commit upcall made it back to the issuing driver.
    completed: u64,
    /// Entries in the committed log every live machine converged on.
    delivered: u64,
    /// Messages the runtime dropped because their destination was down —
    /// the raw footprint of the outages.
    dropped_down: u64,
    /// Lifecycle events (crash/recover/replace) the runtime executed.
    lifecycle_events: u64,
    latency_p50_ms: Option<f64>,
    latency_p99_ms: Option<f64>,
    latency_max_ms: Option<f64>,
    /// Worst per-member recovery time — the headline recovery figure.
    max_rejoin_ms: Option<f64>,
    /// `Running::check` passed: every member that never went down delivered
    /// the same log, and every machine, the restarted ones included, ended
    /// with the identical `(origin, seq)` log and KV digest.
    converged: bool,
    fail_signalled: bool,
    restarts: Vec<RestartEvent>,
}

#[derive(Debug, Serialize)]
struct Report {
    generated_by: &'static str,
    members: u32,
    messages_per_member: u64,
    outage_ms: u64,
    rows: Vec<Row>,
}

fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// A planned restart takes its member down while the member's two wrappers
/// have had nothing to say to anybody for this long, and would have had
/// nothing to say for as long again.  A fail-signal member that crashes with
/// frames in flight between its two wrappers loses them, and the pair then —
/// rightly — converts the crash into its fail-signal: that is the paper's
/// semantics, not a planned restart's.
const QUIET_MARGIN: SimDuration = SimDuration::from_millis(5);

/// The first instant at or after `not_before` that lies [`QUIET_MARGIN`]
/// inside a stretch in which `run`'s trace shows no frame sent or delivered
/// by either wrapper of `member`.
fn quiet_instant(run: &Running, member: u32, not_before: SimTime) -> SimTime {
    let procs = run.members()[member as usize];
    let pair = [procs.leader, procs.follower];
    let mut busy: Vec<SimTime> = run
        .trace()
        .expect("tracing enabled")
        .events()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Send { at, from, to, .. } | TraceEvent::Deliver { at, from, to, .. }
                if pair.contains(from) || pair.contains(to) =>
            {
                Some(*at)
            }
            _ => None,
        })
        .collect();
    busy.sort_unstable();
    let mut quiet_from = not_before;
    for at in busy {
        if at >= quiet_from + QUIET_MARGIN {
            break;
        }
        quiet_from = quiet_from.max(at + QUIET_MARGIN);
    }
    quiet_from
}

/// The rolling-restart plan: followers first, the sequencer last, one
/// member at a time with a full phase gap between outages — each at the
/// first quiet instant (see [`QUIET_MARGIN`]) at or after its nominal time,
/// found in a traced fail-signal run of the plan so far.  Runs repeat
/// exactly, and nothing before a crash depends on it.
fn rolling_plan(messages: u64, seed: u64) -> Vec<(SimTime, u32, &'static str)> {
    let mut plan = Vec::new();
    for (k, member) in (1..MEMBERS).chain([0]).enumerate() {
        let nominal = SimTime::from_millis(500 + 1_000 * k as u64);
        let mut pilot = build_run(
            Protocol::FailSignal,
            RuntimeKind::Sim,
            rolling_faults(&plan),
            messages,
            seed,
        );
        pilot.enable_trace();
        pilot.run_until(nominal + OUTAGE);
        plan.push((quiet_instant(&pilot, member, nominal), member, "recover"));
    }
    plan
}

fn rolling_faults(plan: &[(SimTime, u32, &'static str)]) -> FaultSchedule {
    let mut faults = FaultSchedule::none();
    for &(down, member, _) in plan {
        faults = faults
            .crash_member_at(down, MemberId(member))
            .recover_member_at(down + OUTAGE, MemberId(member));
    }
    faults
}

/// Kill-and-replace plan: the sequencer dies and a *cold* process takes its
/// slot, catching up purely by state transfer.
fn replace_plan() -> Vec<(SimTime, u32, &'static str)> {
    vec![(SimTime::from_millis(800), 0, "replace")]
}

fn replace_faults() -> FaultSchedule {
    let (down, member, _) = replace_plan()[0];
    FaultSchedule::none()
        .crash_member_at(down, MemberId(member))
        .replace_member_at(down + OUTAGE, MemberId(member))
}

fn build_run(
    protocol: Protocol,
    runtime: RuntimeKind,
    faults: FaultSchedule,
    messages: u64,
    seed: u64,
) -> Running {
    Scenario::new(SmrKvService::new())
        .members(MEMBERS)
        .runtime(runtime)
        .protocol(protocol)
        .workload(Workload::quick(messages).poisson())
        .faults(faults)
        .seed(seed)
        .build()
}

/// Runs one scenario cell and extracts the row.
fn run_cell(
    scenario: &'static str,
    protocol: Protocol,
    runtime: RuntimeKind,
    plan: Vec<(SimTime, u32, &'static str)>,
    faults: FaultSchedule,
    messages: u64,
    seed: u64,
) -> Row {
    let mut run = build_run(protocol, runtime, faults, messages, seed);
    let horizon = match runtime {
        RuntimeKind::Sim => SIM_HORIZON,
        RuntimeKind::Threaded => THREADED_HORIZON,
    };
    run.run_until(horizon);

    let stats = run.stats();
    let load = run.load_stats();
    let summary = run.latency_summary();

    // The recovered/replaced member's driver never saw the entries it missed
    // (state transfer rebuilds the machine, not the upcall stream), so the
    // checker holds a restarted member to its machine log and digest.
    let converged = run.check().is_ok();
    let delivered = run.machine_log(0).map_or(0, |log| log.len() as u64);

    let restarts: Vec<RestartEvent> = plan
        .into_iter()
        .map(|(down, member, action)| RestartEvent {
            member,
            action,
            down_ms: down.as_nanos() / 1_000_000,
            up_ms: (down + OUTAGE).as_nanos() / 1_000_000,
            rejoin_ms: run
                .app::<SmrDriver>(member)
                .and_then(|d| d.rejoin_latency())
                .map(ms),
        })
        .collect();
    let max_rejoin_ms = restarts
        .iter()
        .filter_map(|r| r.rejoin_ms)
        .fold(None, |acc: Option<f64>, x| {
            Some(acc.map_or(x, |a| a.max(x)))
        });

    Row {
        scenario,
        protocol: match protocol {
            Protocol::Crash => "crash",
            Protocol::FailSignal => "fail-signal",
        },
        runtime: match runtime {
            RuntimeKind::Sim => "sim",
            RuntimeKind::Threaded => "threaded",
        },
        offered: load.offered,
        completed: load.completed,
        delivered,
        dropped_down: stats.dropped_down,
        lifecycle_events: stats.lifecycle_events,
        latency_p50_ms: summary.as_ref().map(|s| ms(s.p50)),
        latency_p99_ms: summary.as_ref().map(|s| ms(s.p99)),
        latency_max_ms: summary.as_ref().map(|s| ms(s.max)),
        max_rejoin_ms,
        converged,
        fail_signalled: run.fail_signalled(),
        restarts,
    }
}

fn main() {
    let messages = env_u64("RR_MESSAGES", 140);
    let threaded = env_flag("RR_THREADED", true);
    let seed = env_u64("RR_SEED", 2003);

    let rolling = rolling_plan(messages, seed);
    let mut rows = Vec::new();
    rows.push(run_cell(
        "rolling-restart",
        Protocol::Crash,
        RuntimeKind::Sim,
        rolling.clone(),
        rolling_faults(&rolling),
        messages,
        seed,
    ));
    rows.push(run_cell(
        "rolling-restart",
        Protocol::FailSignal,
        RuntimeKind::Sim,
        rolling.clone(),
        rolling_faults(&rolling),
        messages,
        seed,
    ));
    rows.push(run_cell(
        "kill-and-replace-sequencer",
        Protocol::Crash,
        RuntimeKind::Sim,
        replace_plan(),
        replace_faults(),
        messages,
        seed,
    ));
    if threaded {
        rows.push(run_cell(
            "rolling-restart",
            Protocol::Crash,
            RuntimeKind::Threaded,
            rolling.clone(),
            rolling_faults(&rolling),
            messages,
            seed,
        ));
    }

    println!(
        "{:<28} {:<12} {:<9} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "scenario",
        "protocol",
        "runtime",
        "offered",
        "completed",
        "delivered",
        "max_rejoin",
        "p99_ms"
    );
    for row in &rows {
        println!(
            "{:<28} {:<12} {:<9} {:>8} {:>10} {:>10} {:>12} {:>10}",
            row.scenario,
            row.protocol,
            row.runtime,
            row.offered,
            row.completed,
            row.delivered,
            row.max_rejoin_ms
                .map_or("-".to_string(), |v| format!("{v:.1}")),
            row.latency_p99_ms
                .map_or("-".to_string(), |v| format!("{v:.1}")),
        );
    }

    // The claims this experiment exists to demonstrate, checked on every run
    // (CI included).
    for row in &rows {
        assert!(
            row.converged,
            "all live members, including rejoined/replaced ones, must end \
             with identical machine logs and digests ({row:?})"
        );
        assert!(
            !row.fail_signalled,
            "planned restarts must not raise fail-signals ({row:?})"
        );
        assert!(
            row.lifecycle_events > 0,
            "the runtime must have executed the scheduled lifecycle plan ({row:?})"
        );
        assert!(
            row.delivered > 0,
            "the group must keep committing across the churn ({row:?})"
        );
        for restart in &row.restarts {
            assert!(
                restart.rejoin_ms.is_some(),
                "member {} must observe its own rejoin ({row:?})",
                restart.member
            );
        }
    }
    // The outages must have real footprint on the simulator runs (threaded
    // wall-clock scheduling makes drop counts timing-dependent).
    for row in rows.iter().filter(|r| r.runtime == "sim") {
        assert!(
            row.dropped_down > 0,
            "a member was down under load, so some traffic must have been \
             dropped ({row:?})"
        );
    }

    let report = Report {
        generated_by: "rolling_restart",
        members: MEMBERS,
        messages_per_member: messages,
        outage_ms: OUTAGE.as_nanos() / 1_000_000,
        rows,
    };
    std::fs::create_dir_all("results").expect("create results dir");
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    let mut file =
        std::fs::File::create("results/rolling-restart.json").expect("create results file");
    file.write_all(json.as_bytes()).expect("write results");
    eprintln!("wrote results/rolling-restart.json");
}
