//! Running a deployment under a workload and extracting the paper's metrics.

use serde::{Deserialize, Serialize};

use fs_common::time::{SimDuration, SimTime};
use fs_harness::{Protocol, Scenario, Workload};
use fs_newtop::app::AppProcess;

/// The paper's legend for the system a protocol deploys around NewTOP: the
/// crash-tolerant baseline or its fail-signal-wrapped, Byzantine-tolerant
/// lift.
pub fn label(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::Crash => "NewTOP",
        Protocol::FailSignal => "FS-NewTOP",
    }
}

/// The name the same system carries in the figure JSON files.
pub fn system_name(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::Crash => "NewTop",
        Protocol::FailSignal => "FsNewTop",
    }
}

/// The metrics extracted from one run, mirroring what the paper reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Which system was measured (its [`system_name`]).
    pub system: String,
    /// Group size (number of members).
    pub members: u32,
    /// Payload size in bytes.
    pub payload_size: usize,
    /// Messages multicast per member.
    pub messages_per_member: u64,
    /// Mean ordering latency (send → total-order delivery at the sender).
    pub mean_latency_ms: f64,
    /// 95th-percentile ordering latency.
    pub p95_latency_ms: f64,
    /// Aggregate ordered-message throughput (messages per second).
    pub throughput_msgs_per_sec: f64,
    /// Total deliveries observed across all applications.
    pub total_deliveries: u64,
    /// Deliveries expected (`members² × messages_per_member`).
    pub expected_deliveries: u64,
    /// Protocol messages sent inside the middleware.
    pub middleware_messages: u64,
    /// Simulated time at which the last delivery happened.
    pub finished_at_ms: f64,
    /// Whether any fail-signal was observed (must be false in failure-free
    /// runs).
    pub fail_signals_observed: bool,
}

impl RunMetrics {
    /// Latency samples are complete when every sender saw all of its own
    /// messages ordered.
    pub fn is_complete(&self) -> bool {
        self.total_deliveries == self.expected_deliveries
    }
}

/// Builds `scenario` offering `workload` per member, runs it to completion
/// on the simulator and extracts the metrics.  The scenario brings every
/// other axis: service configuration, group size, protocol, seed, faults.
pub fn measure(scenario: Scenario, workload: &Workload) -> RunMetrics {
    // Allow generous simulated time: the workload itself lasts
    // messages × interval, plus drain time for queued work.
    let duration =
        workload.interval * workload.messages + SimDuration::from_secs(120) + workload.start_delay;
    let mut run = scenario.workload(*workload).build();
    run.run_until(SimTime::ZERO + duration * 10);

    let n = run.members().len() as u32;
    let messages = workload.messages;
    let mut total_deliveries = 0u64;
    let mut last_delivery = SimTime::ZERO;
    for i in 0..n {
        let app = run.app::<AppProcess>(i).expect("app actor");
        total_deliveries += app.delivered_total();
        if let Some(t) = app.last_delivery() {
            last_delivery = last_delivery.max(t);
        }
    }

    let (mean, p95) = run
        .latency_summary()
        .map(|s| (s.mean.as_millis_f64(), s.p95.as_millis_f64()))
        .unwrap_or((f64::NAN, f64::NAN));

    // Throughput as in the paper: total ordered messages divided by the time
    // needed to order them (workload start → last delivery).
    let span = last_delivery.duration_since(SimTime::ZERO + workload.start_delay);
    let ordered = u64::from(n) * messages;
    let throughput = if span > SimDuration::ZERO {
        ordered as f64 / span.as_secs_f64()
    } else {
        0.0
    };

    RunMetrics {
        system: system_name(run.protocol()).to_string(),
        members: n,
        payload_size: workload.payload_size,
        messages_per_member: messages,
        mean_latency_ms: mean,
        p95_latency_ms: p95,
        throughput_msgs_per_sec: throughput,
        total_deliveries,
        expected_deliveries: u64::from(n) * u64::from(n) * messages,
        middleware_messages: run.stats().messages_sent,
        finished_at_ms: last_delivery.as_millis_f64(),
        fail_signals_observed: run.fail_signalled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_harness::NewTopService;
    use fs_newtop::suspector::SuspectorConfig;

    fn quick(protocol: Protocol, messages: u64) -> RunMetrics {
        let scenario = Scenario::new(NewTopService::new().suspector(SuspectorConfig::disabled()))
            .protocol(protocol);
        let workload = Workload::paper_default()
            .messages(messages)
            .interval(SimDuration::from_millis(30));
        measure(scenario, &workload)
    }

    #[test]
    fn newtop_run_is_complete_and_failure_free() {
        let m = quick(Protocol::Crash, 5);
        assert!(
            m.is_complete(),
            "delivered {}/{}",
            m.total_deliveries,
            m.expected_deliveries
        );
        assert!(!m.fail_signals_observed);
        assert!(m.mean_latency_ms.is_finite());
        assert!(m.throughput_msgs_per_sec > 0.0);
    }

    #[test]
    fn fs_newtop_run_is_complete_and_failure_free() {
        let m = quick(Protocol::FailSignal, 5);
        assert!(m.is_complete());
        assert!(!m.fail_signals_observed);
    }

    #[test]
    fn fs_newtop_has_higher_latency_and_more_messages_than_newtop() {
        let newtop = quick(Protocol::Crash, 8);
        let fs = quick(Protocol::FailSignal, 8);
        assert!(
            fs.mean_latency_ms > newtop.mean_latency_ms,
            "FS-NewTOP latency ({}) must exceed NewTOP ({})",
            fs.mean_latency_ms,
            newtop.mean_latency_ms
        );
        assert!(fs.middleware_messages > newtop.middleware_messages);
        assert!(fs.throughput_msgs_per_sec <= newtop.throughput_msgs_per_sec * 1.05);
    }

    #[test]
    fn system_labels_match_paper_legends() {
        assert_eq!(label(Protocol::Crash), "NewTOP");
        assert_eq!(label(Protocol::FailSignal), "FS-NewTOP");
    }
}
