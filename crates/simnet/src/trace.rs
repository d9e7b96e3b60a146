//! Tracing, counters and latency statistics for simulation runs.
//!
//! [`NetStats`] is the one counter shape of both hosts, and both count into
//! it with the same calls: a simulated node and a node thread each own a
//! plain `NetStats` and bump its fields or call its `drop_*` helpers (a node
//! thread publishes its copy once per wake-up).  Each host keeps one cell per
//! node plus one for what no node owns (injected traffic, link-fault events),
//! lists them in that order (`net_cells`) and sums the list into the
//! aggregate on demand — [`crate::sim::Simulation::stats`],
//! [`crate::threaded::ThreadedRuntime::net_stats`].

use serde::{Deserialize, Serialize};

use fs_common::id::ProcessId;
use fs_common::time::{SimDuration, SimTime};

/// Network counters: one node's cell, or the fold of every cell of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages handed to the transport by actors.
    pub messages_sent: u64,
    /// Messages actually delivered to a destination actor.
    pub messages_delivered: u64,
    /// Messages dropped for any reason: the sum of
    /// [`NetStats::dropped_unknown_dest`], [`NetStats::dropped_link`] and
    /// [`NetStats::dropped_down`].
    pub messages_dropped: u64,
    /// Messages dropped because the destination process was not registered.
    pub dropped_unknown_dest: u64,
    /// Messages dropped by the network fault plane: a severed link, a lossy
    /// link model or an injected [`crate::link::LinkFault::Loss`].
    pub dropped_link: u64,
    /// Scheduled link-fault events executed (one per [`crate::link::LinkEvent`]).
    pub link_faults: u64,
    /// Messages dropped because the destination process was down (between a
    /// scheduled crash and the matching recover/replace lifecycle event).
    pub dropped_down: u64,
    /// Scheduled process lifecycle events executed (crash, recover, replace).
    pub lifecycle_events: u64,
    /// Total payload bytes handed to the transport.
    pub bytes_sent: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Total events processed (deliveries + timers + start hooks).
    pub events_processed: u64,
    /// Wall-clock nanoseconds spent inside handlers (threaded runtime only;
    /// the simulator leaves this zero — its handlers execute in zero
    /// wall-clock time by construction).
    pub busy_ns: u64,
}

impl NetStats {
    /// Records a drop caused by an unknown destination process.
    pub fn drop_unknown_dest(&mut self) {
        self.messages_dropped += 1;
        self.dropped_unknown_dest += 1;
    }

    /// Records a drop caused by the link layer (severed/lossy link).
    pub fn drop_link(&mut self) {
        self.messages_dropped += 1;
        self.dropped_link += 1;
    }

    /// Records a drop caused by the destination process being down.
    pub fn drop_down(&mut self) {
        self.messages_dropped += 1;
        self.dropped_down += 1;
    }

    /// Adds another counter set into this one, field by field: the one
    /// aggregation rule, under every sum of cells (see the `Sum` impl).
    pub fn merge(&mut self, other: &NetStats) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_dropped += other.messages_dropped;
        self.dropped_unknown_dest += other.dropped_unknown_dest;
        self.dropped_link += other.dropped_link;
        self.link_faults += other.link_faults;
        self.dropped_down += other.dropped_down;
        self.lifecycle_events += other.lifecycle_events;
        self.bytes_sent += other.bytes_sent;
        self.timers_fired += other.timers_fired;
        self.events_processed += other.events_processed;
        self.busy_ns += other.busy_ns;
    }
}

/// Folds cells into their aggregate with [`NetStats::merge`]: how every
/// host's `stats` is written over its cell list.
impl<'a> std::iter::Sum<&'a NetStats> for NetStats {
    fn sum<I: Iterator<Item = &'a NetStats>>(cells: I) -> Self {
        cells.fold(NetStats::default(), |mut stats, cell| {
            stats.merge(cell);
            stats
        })
    }
}

/// One entry of a [`TraceLog`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An actor sent a message.
    Send {
        /// When the send became effective.
        at: SimTime,
        /// The sender.
        from: ProcessId,
        /// The destination.
        to: ProcessId,
        /// Payload size in bytes.
        size: usize,
    },
    /// A message was delivered to an actor.
    Deliver {
        /// When the handler started.
        at: SimTime,
        /// The sender.
        from: ProcessId,
        /// The destination.
        to: ProcessId,
        /// Payload size in bytes.
        size: usize,
    },
    /// A timer fired at an actor.
    Timer {
        /// When the handler started.
        at: SimTime,
        /// The actor whose timer fired.
        at_process: ProcessId,
        /// The application-defined timer number.
        timer: u64,
    },
    /// A free-form label emitted by an actor via [`crate::actor::Context::trace`].
    Label {
        /// When the label was emitted.
        at: SimTime,
        /// The emitting actor.
        process: ProcessId,
        /// The label text.
        label: String,
    },
    /// A scheduled link fault took effect (rendered from the
    /// [`crate::link::LinkEvent`], so fault traces pin the exact fault
    /// timeline byte-for-byte in the determinism suite).
    LinkFault {
        /// When the fault took effect.
        at: SimTime,
        /// Human-readable `fault scope at time` rendering of the event.
        description: String,
    },
    /// A scheduled process lifecycle event took effect (crash, recover or
    /// replace), so recovery timelines pin byte-for-byte in the
    /// determinism suite just like link faults do.
    Lifecycle {
        /// When the event took effect.
        at: SimTime,
        /// The affected process.
        process: ProcessId,
        /// Human-readable description (`crash`, `recover`, `replace`).
        description: String,
    },
}

impl TraceEvent {
    /// The simulated time of the event.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Send { at, .. }
            | TraceEvent::Deliver { at, .. }
            | TraceEvent::Timer { at, .. }
            | TraceEvent::Label { at, .. }
            | TraceEvent::LinkFault { at, .. }
            | TraceEvent::Lifecycle { at, .. } => *at,
        }
    }
}

/// A chronological record of everything that happened in a run.
///
/// Tracing is off by default; enabling it on long benchmark runs costs memory
/// proportional to the number of events.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns the labels emitted by a given process, in order.
    pub fn labels_of(&self, process: ProcessId) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Label {
                    process: p, label, ..
                } if *p == process => Some(label.as_str()),
                _ => None,
            })
            .collect()
    }
}

/// Collects latency samples and summarises them.
///
/// Used by the benchmark harness to report the ordering latency of Figure 6
/// and by tests to assert distribution shapes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyRecorder {
    samples: Vec<SimDuration>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: SimDuration) {
        self.samples.push(sample);
    }

    /// Records the latency from `start` to `end`.
    pub fn record_span(&mut self, start: SimTime, end: SimTime) {
        self.record(end.duration_since(start));
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns true when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples, in recording order.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }

    /// The exact nearest-rank percentile of the samples: the smallest sample
    /// such that at least `p` (in `[0, 1]`) of the samples are `<=` it.
    /// Returns `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        Some(nearest_rank(&sorted, p))
    }

    /// Summarises the samples; returns `None` when empty.
    pub fn summary(&self) -> Option<LatencySummary> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let total: u128 = sorted.iter().map(|d| d.as_nanos() as u128).sum();
        Some(LatencySummary {
            count: n,
            mean: SimDuration::from_nanos((total / n as u128) as u64),
            min: sorted[0],
            p50: nearest_rank(&sorted, 0.50),
            p95: nearest_rank(&sorted, 0.95),
            p99: nearest_rank(&sorted, 0.99),
            p999: nearest_rank(&sorted, 0.999),
            max: sorted[n - 1],
        })
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Nearest-rank percentile over an already sorted, non-empty slice.
fn nearest_rank(sorted: &[SimDuration], p: f64) -> SimDuration {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Summary statistics over a set of latency samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Minimum sample.
    pub min: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile.
    pub p999: SimDuration,
    /// Maximum sample.
    pub max: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_is_zero() {
        let s = NetStats::default();
        assert_eq!(s.messages_sent, 0);
        assert_eq!(s.events_processed, 0);
    }

    #[test]
    fn stats_merge_adds_every_field() {
        let mut a = NetStats {
            messages_sent: 1,
            messages_delivered: 2,
            messages_dropped: 3,
            dropped_unknown_dest: 1,
            dropped_link: 1,
            link_faults: 4,
            dropped_down: 1,
            lifecycle_events: 5,
            bytes_sent: 6,
            timers_fired: 7,
            events_processed: 8,
            busy_ns: 9,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(
            a,
            NetStats {
                messages_sent: 2,
                messages_delivered: 4,
                messages_dropped: 6,
                dropped_unknown_dest: 2,
                dropped_link: 2,
                link_faults: 8,
                dropped_down: 2,
                lifecycle_events: 10,
                bytes_sent: 12,
                timers_fired: 14,
                events_processed: 16,
                busy_ns: 18,
            }
        );
    }

    #[test]
    fn trace_log_filters_labels() {
        let mut log = TraceLog::new();
        log.push(TraceEvent::Label {
            at: SimTime::ZERO,
            process: ProcessId(1),
            label: "a".into(),
        });
        log.push(TraceEvent::Send {
            at: SimTime::ZERO,
            from: ProcessId(1),
            to: ProcessId(2),
            size: 3,
        });
        log.push(TraceEvent::Label {
            at: SimTime::from_millis(1),
            process: ProcessId(2),
            label: "b".into(),
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.labels_of(ProcessId(1)), vec!["a"]);
        assert_eq!(log.labels_of(ProcessId(2)), vec!["b"]);
        assert!(log.labels_of(ProcessId(3)).is_empty());
        assert_eq!(log.events()[1].at(), SimTime::ZERO);
    }

    #[test]
    fn latency_summary_percentiles() {
        let mut rec = LatencyRecorder::new();
        assert!(rec.summary().is_none());
        for i in 1..=100u64 {
            rec.record(SimDuration::from_millis(i));
        }
        let s = rec.summary().unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, SimDuration::from_millis(1));
        assert_eq!(s.max, SimDuration::from_millis(100));
        assert_eq!(s.p50, SimDuration::from_millis(50));
        assert_eq!(s.p95, SimDuration::from_millis(95));
        assert_eq!(s.p99, SimDuration::from_millis(99));
        assert_eq!(s.p999, SimDuration::from_millis(100));
        assert!(s.mean > SimDuration::from_millis(49) && s.mean < SimDuration::from_millis(52));
        assert_eq!(rec.percentile(0.50), Some(SimDuration::from_millis(50)));
        assert_eq!(rec.percentile(0.999), Some(SimDuration::from_millis(100)));
        assert_eq!(LatencyRecorder::new().percentile(0.5), None);
    }

    #[test]
    fn latency_summary_single_sample() {
        let mut rec = LatencyRecorder::new();
        rec.record(SimDuration::from_micros(123));
        let s = rec.summary().unwrap();
        let x = SimDuration::from_micros(123);
        assert_eq!((s.min, s.p50, s.p99, s.p999, s.max), (x, x, x, x, x));
    }

    #[test]
    fn latency_record_span_and_merge() {
        let mut a = LatencyRecorder::new();
        a.record_span(SimTime::from_millis(1), SimTime::from_millis(4));
        let mut b = LatencyRecorder::new();
        b.record(SimDuration::from_millis(7));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.samples()[0], SimDuration::from_millis(3));
        assert_eq!(a.samples()[1], SimDuration::from_millis(7));
    }
}
