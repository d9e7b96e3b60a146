//! The A2-violation experiment: what happens to failure detection when the
//! "timely links between correct processes" assumption stops holding?
//!
//! The paper's fail-signal guarantees rest on assumption **A2**: links
//! between the processes of a pair are synchronous with a known bound δ.
//! Crash-tolerant NewTOP leans on the same kind of assumption implicitly —
//! its ping suspector turns a timeout into a suspicion.  This driver
//! quantifies both sides of the resulting trade-off by sweeping an injected
//! link delay against the suspicion timeout, for both systems:
//!
//! * **accuracy** — in a run where *nobody* fails, every suspicion (NewTOP)
//!   or fail-signal (FS-SMR) is false.  We count them per delay setting; the
//!   failure-free column (no injected delay) must stay at zero.
//! * **completeness** — in a companion run where one member really crashes,
//!   we measure how long the survivors take to detect it (first `suspect`
//!   trace label for NewTOP, first `fail-signal` label from the crashed
//!   member's partner wrapper for FS-SMR).
//!
//! The delay is injected through the scenario harness's link fault plane:
//! one `FaultSchedule::slow_link` entry per member pair, taking effect
//! mid-run as an ordinary deterministic simulator event.  Results go to
//! `results/a2-violation.json`.
//!
//! Run with:
//! ```text
//! cargo run --release --example a2_violation
//! ```
//!
//! Environment knobs (used by CI to keep the sweep small; a malformed value
//! exits with code 2 naming the variable):
//! `A2_DELAYS_MS` (comma-separated, default `0,50,400,1600`),
//! `A2_TIMEOUTS_MS` (default `200`), `A2_MESSAGES` (default `30`).

use std::io::Write as _;

use serde::Serialize;

use fs_smr_suite::bench::env::{env_u64, env_u64_list};
use fs_smr_suite::common::config::TimingAssumptions;
use fs_smr_suite::common::id::MemberId;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::faults::{FaultKind, FaultPlan};
use fs_smr_suite::harness::{
    FaultSchedule, NewTopService, PlainHost, Protocol, Running, Scenario, SmrKvService, Workload,
};
use fs_smr_suite::newtop::suspector::SuspectorConfig;
use fs_smr_suite::simnet::trace::TraceEvent;

const MEMBERS: u32 = 3;
const HORIZON: SimTime = SimTime::from_secs(60);
/// The injected delay starts once the deployment has settled and traffic is
/// flowing, so in-flight suspicion state crosses the onset — the interesting
/// case.
const FAULT_ONSET: SimTime = SimTime::from_secs(1);

/// One cell of the sweep, with both experiment outcomes.
#[derive(Debug, Serialize)]
struct Row {
    /// `crash-newtop` or `fs-smr`.
    protocol: &'static str,
    /// The suspicion timeout: the NewTOP ping timeout, or the FS pair's δ.
    timeout_ms: u64,
    /// The injected one-way extra link delay.
    delay_ms: u64,
    /// Failure-free run: suspicions/fail-signals raised against *correct*
    /// members (all of them are false — nobody crashed).
    false_suspicions: u64,
    /// Crash run: milliseconds from run start (= crash time; the faulty
    /// process is dead on arrival) until the survivors first detected it.
    /// `None` when detection never happened within the horizon.
    detection_latency_ms: Option<f64>,
}

#[derive(Debug, Serialize)]
struct Report {
    generated_by: &'static str,
    members: u32,
    messages_per_member: u64,
    fault_onset_ms: u64,
    rows: Vec<Row>,
}

fn workload(messages: u64) -> Workload {
    Workload::quick(messages).interval(SimDuration::from_millis(100))
}

/// Slows every inter-member link by `delay` from [`FAULT_ONSET`] on (no
/// jitter, so the sweep thresholds stay crisp).
fn slow_all_links(delay: SimDuration) -> FaultSchedule {
    let mut faults = FaultSchedule::none();
    if delay.is_zero() {
        return faults;
    }
    for a in 0..MEMBERS {
        for b in (a + 1)..MEMBERS {
            faults = faults.slow_link(
                FAULT_ONSET,
                MemberId(a),
                MemberId(b),
                delay,
                SimDuration::ZERO,
            );
        }
    }
    faults
}

/// The time of the first trace label satisfying `matches`, in ms.
fn first_label_ms(run: &Running, matches: impl Fn(&str, u32) -> bool) -> Option<f64> {
    run.trace()?.events().iter().find_map(|event| match event {
        TraceEvent::Label { at, process, label } if matches(label, process.0) => {
            Some(at.as_nanos() as f64 / 1e6)
        }
        _ => None,
    })
}

/// Crash-tolerant NewTOP with an aggressive ping suspector: counts false
/// suspicions (accuracy) or measures suspicion latency for a really crashed
/// member (completeness).
fn crash_newtop(
    timeout: SimDuration,
    delay: SimDuration,
    messages: u64,
    crash: Option<MemberId>,
) -> (u64, Option<f64>) {
    let mut faults = slow_all_links(delay);
    if let Some(victim) = crash {
        faults = faults.middleware(victim, FaultPlan::immediate(FaultKind::Crash));
    }
    let mut run = Scenario::new(NewTopService::new().suspector(SuspectorConfig {
        enabled: true,
        interval: SimDuration::from_millis(50),
        timeout,
    }))
    .members(MEMBERS)
    .protocol(Protocol::Crash)
    .workload(workload(messages))
    .faults(faults)
    .build();
    run.enable_trace();
    run.run_until(HORIZON);

    // Suspicions of *correct* members, read from the survivors' suspectors.
    let sim = run.sim().expect("simulator-backed run");
    let mut false_suspicions = 0;
    for member in run.members() {
        if Some(member.member) == crash {
            continue; // the crashed member's suspector is not a witness
        }
        if let Some(detector) = sim
            .actor::<PlainHost>(member.middleware)
            .and_then(PlainHost::detector)
        {
            false_suspicions += detector
                .suspected()
                .iter()
                .filter(|suspect| Some(**suspect) != crash)
                .count() as u64;
        }
    }
    let detection = crash.and_then(|victim| {
        let needle = format!("suspect {victim}");
        first_label_ms(&run, |label, _| label == needle)
    });
    (false_suspicions, detection)
}

/// FS-SMR under the fail-signal protocol: counts falsely fail-signalled
/// pairs (accuracy) or the partner-detection latency for a crashed leader
/// wrapper (completeness).  The pair's "suspicion timeout" is its timing
/// assumption δ.
fn fs_smr(
    delta: SimDuration,
    delay: SimDuration,
    messages: u64,
    crash: Option<MemberId>,
) -> (u64, Option<f64>) {
    let mut faults = slow_all_links(delay);
    if let Some(victim) = crash {
        faults = faults.leader(victim, FaultPlan::immediate(FaultKind::Crash));
    }
    let mut run = Scenario::new(SmrKvService::new())
        .members(MEMBERS)
        .protocol(Protocol::FailSignal)
        .timing(TimingAssumptions::new(delta, 4.0, 4.0).expect("valid timing"))
        .workload(workload(messages))
        .faults(faults)
        .build();
    run.enable_trace();
    run.run_until(HORIZON);

    let follower_of_victim = crash.map(|victim| run.members()[victim.0 as usize].follower);
    let detection = follower_of_victim.and_then(|partner| {
        first_label_ms(&run, |label, process| {
            label.starts_with("fail-signal") && process == partner.0
        })
    });
    let mut false_signals = 0;
    for i in 0..MEMBERS {
        if Some(MemberId(i)) == crash {
            continue; // that pair's signal is correct, not false
        }
        if run.interceptor(i).is_some_and(|x| x.local_fail_signalled()) {
            false_signals += 1;
        }
    }
    (false_signals, detection)
}

fn main() {
    let delays = env_u64_list("A2_DELAYS_MS", &[0, 50, 400, 1600]);
    let timeouts = env_u64_list("A2_TIMEOUTS_MS", &[200]);
    let messages = env_u64("A2_MESSAGES", 30);

    let mut rows = Vec::new();
    println!(
        "{:<14} {:>10} {:>9} {:>11} {:>13}",
        "protocol", "timeout_ms", "delay_ms", "false_susp", "detect_ms"
    );
    for &timeout_ms in &timeouts {
        let timeout = SimDuration::from_millis(timeout_ms);
        for &delay_ms in &delays {
            let delay = SimDuration::from_millis(delay_ms);

            let (false_nt, _) = crash_newtop(timeout, delay, messages, None);
            let (_, detect_nt) = crash_newtop(timeout, delay, messages, Some(MemberId(2)));
            rows.push(Row {
                protocol: "crash-newtop",
                timeout_ms,
                delay_ms,
                false_suspicions: false_nt,
                detection_latency_ms: detect_nt,
            });

            let (false_fs, _) = fs_smr(timeout, delay, messages, None);
            let (_, detect_fs) = fs_smr(timeout, delay, messages, Some(MemberId(2)));
            rows.push(Row {
                protocol: "fs-smr",
                timeout_ms,
                delay_ms,
                false_suspicions: false_fs,
                detection_latency_ms: detect_fs,
            });

            for row in rows.iter().rev().take(2).rev() {
                println!(
                    "{:<14} {:>10} {:>9} {:>11} {:>13}",
                    row.protocol,
                    row.timeout_ms,
                    row.delay_ms,
                    row.false_suspicions,
                    row.detection_latency_ms
                        .map_or("-".to_string(), |ms| format!("{ms:.1}")),
                );
            }
        }
    }

    // The claims the experiment exists to demonstrate, checked on every run
    // (CI included): with healthy links nothing is falsely suspected; once
    // the injected delay clearly exceeds the suspicion timeout, correct
    // members start being suspected; and a real crash is always detected.
    for row in &rows {
        if row.delay_ms == 0 {
            assert_eq!(
                row.false_suspicions, 0,
                "failure-free column must stay at zero ({row:?})"
            );
        }
        assert!(
            row.detection_latency_ms.is_some(),
            "a real crash must be detected ({row:?})"
        );
    }
    for &timeout_ms in &timeouts {
        let worst_delay = delays.iter().copied().max().unwrap_or(0);
        if worst_delay > 2 * timeout_ms {
            for protocol in ["crash-newtop", "fs-smr"] {
                let row = rows
                    .iter()
                    .find(|r| {
                        r.protocol == protocol
                            && r.timeout_ms == timeout_ms
                            && r.delay_ms == worst_delay
                    })
                    .expect("worst-delay row exists");
                assert!(
                    row.false_suspicions > 0,
                    "delay {worst_delay} ms past timeout {timeout_ms} ms must \
                     produce false suspicions ({row:?})"
                );
            }
        }
    }

    let report = Report {
        generated_by: "a2_violation",
        members: MEMBERS,
        messages_per_member: messages,
        fault_onset_ms: FAULT_ONSET.as_nanos() / 1_000_000,
        rows,
    };
    std::fs::create_dir_all("results").expect("create results dir");
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    let mut file = std::fs::File::create("results/a2-violation.json").expect("create results file");
    file.write_all(json.as_bytes()).expect("write results");
    eprintln!("wrote results/a2-violation.json");
}
