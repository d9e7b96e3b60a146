//! Tracing, counters and latency statistics for simulation runs.
//!
//! [`NetStats`] is the one counter shape of both hosts: each keeps one cell
//! per node (plus one for traffic no node owns) and folds the cells into the
//! aggregate on demand — [`crate::sim::Simulation::stats`],
//! [`crate::threaded::ThreadedRuntime::net_stats`].

use std::collections::BTreeMap;

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

    /// Adds another counter set into this one, field by field.
    ///
    /// This is the single aggregation path shared by `Running::stats` and the
    /// cluster layer's per-shard roll-up, so a new counter added to
    /// `NetStats` only needs its merge rule stated once.
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

/// A constant-memory latency histogram with geometric buckets.
///
/// Buckets grow by a factor of `2^(1/8)` (eight sub-buckets per octave), so a
/// reported percentile is within ~9 % of the exact sample value while the
/// whole histogram stays a few hundred counters regardless of how many
/// samples an open-loop saturation run produces.  Histograms merge cheaply
/// across members and across runs; [`LatencyRecorder`] keeps every sample and
/// is exact, this trades exactness for bounded memory.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts samples whose nanosecond value falls in bucket
    /// `i`; bucket boundaries follow [`LatencyHistogram::bucket_index`].
    buckets: BTreeMap<u32, u64>,
    count: u64,
    total_nanos: u64,
    min: Option<SimDuration>,
    max: Option<SimDuration>,
}

/// Mantissa bits kept per sample: values below `2^MANTISSA_BITS` ns get exact
/// buckets; above that the relative bucket width is `2^-MANTISSA_BITS`
/// (≈ 0.4 %).
const MANTISSA_BITS: u32 = 8;

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(nanos: u64) -> u32 {
        if nanos < (1 << MANTISSA_BITS) {
            return nanos as u32;
        }
        let e = 63 - nanos.leading_zeros();
        let frac = ((nanos >> (e - MANTISSA_BITS)) as u32) & ((1 << MANTISSA_BITS) - 1);
        ((e - MANTISSA_BITS + 1) << MANTISSA_BITS) + frac
    }

    /// The inclusive upper bound of bucket `index`, used as its
    /// representative value (so reported percentiles never under-state).
    fn bucket_value(index: u32) -> u64 {
        if index < (1 << MANTISSA_BITS) {
            return u64::from(index);
        }
        let e = (index >> MANTISSA_BITS) + MANTISSA_BITS - 1;
        let frac = u64::from(index) & ((1 << MANTISSA_BITS) - 1);
        ((((1 << MANTISSA_BITS) | frac) + 1) << (e - MANTISSA_BITS)) - 1
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: SimDuration) {
        self.record_n(sample, 1);
    }

    /// Records `n` identical latency samples at once — the folding path for
    /// runtimes that pre-bucket samples in fixed atomic counters and only
    /// materialise a histogram on snapshot.
    pub fn record_n(&mut self, sample: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        let nanos = sample.as_nanos();
        *self.buckets.entry(Self::bucket_index(nanos)).or_insert(0) += n;
        self.count += n;
        self.total_nanos = self.total_nanos.saturating_add(nanos.saturating_mul(n));
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Returns true when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, c) in &other.buckets {
            *self.buckets.entry(*b).or_insert(0) += c;
        }
        self.count += other.count;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The nearest-rank percentile, reported as the representative value of
    /// the bucket holding that rank (within one bucket width of the exact
    /// sample).  Returns `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                let v = Self::bucket_value(*b);
                // Clamp to the observed extremes so single-sample and
                // boundary buckets never report outside [min, max].
                let v = SimDuration::from_nanos(v);
                return Some(v.clamp(self.min?, self.max?));
            }
        }
        self.max
    }

    /// Summarises the histogram; returns `None` when empty.
    pub fn summary(&self) -> Option<LatencySummary> {
        if self.count == 0 {
            return None;
        }
        Some(LatencySummary {
            count: self.count as usize,
            mean: SimDuration::from_nanos(self.total_nanos / self.count),
            min: self.min?,
            p50: self.percentile(0.50)?,
            p95: self.percentile(0.95)?,
            p99: self.percentile(0.99)?,
            p999: self.percentile(0.999)?,
            max: self.max?,
        })
    }
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
    fn histogram_record_n_matches_repeated_record() {
        let mut bulk = LatencyHistogram::new();
        bulk.record_n(SimDuration::from_micros(7), 5);
        bulk.record_n(SimDuration::from_millis(2), 0);
        let mut single = LatencyHistogram::new();
        for _ in 0..5 {
            single.record(SimDuration::from_micros(7));
        }
        assert_eq!(bulk, single);
        assert_eq!(bulk.len(), 5);
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
    fn histogram_buckets_round_trip() {
        // Every sample must land in a bucket whose representative value is
        // >= the sample and within the documented relative width.
        for nanos in (0u64..2000).chain([4_095, 4_096, 1 << 20, (1 << 40) + 12_345]) {
            let idx = LatencyHistogram::bucket_index(nanos);
            let high = LatencyHistogram::bucket_value(idx);
            assert!(high >= nanos, "bucket high {high} < sample {nanos}");
            let width_bound = (nanos >> MANTISSA_BITS).max(1);
            assert!(
                high - nanos < width_bound + 1,
                "bucket high {high} too far above sample {nanos}"
            );
        }
    }

    #[test]
    fn histogram_percentiles_track_recorder() {
        let mut rec = LatencyRecorder::new();
        let mut hist = LatencyHistogram::new();
        assert!(hist.summary().is_none());
        assert!(hist.percentile(0.5).is_none());
        for i in 1..=1000u64 {
            rec.record(SimDuration::from_micros(i));
        }
        let mut halves = (LatencyHistogram::new(), LatencyHistogram::new());
        for (k, s) in rec.samples().iter().enumerate() {
            if k % 2 == 0 {
                halves.0.record(*s);
            } else {
                halves.1.record(*s);
            }
        }
        hist.merge(&halves.0);
        hist.merge(&halves.1);
        assert_eq!(hist.len(), 1000);
        let exact = rec.summary().unwrap();
        let approx = hist.summary().unwrap();
        assert_eq!(approx.count, exact.count);
        assert_eq!(approx.min, exact.min);
        assert_eq!(approx.max, exact.max);
        for (a, e) in [
            (approx.p50, exact.p50),
            (approx.p99, exact.p99),
            (approx.p999, exact.p999),
        ] {
            let (a, e) = (a.as_nanos() as f64, e.as_nanos() as f64);
            assert!(a >= e, "histogram percentile {a} under-states exact {e}");
            assert!(a <= e * 1.01, "histogram percentile {a} too far above {e}");
        }
    }

    #[test]
    fn histogram_single_sample_is_exact() {
        let mut hist = LatencyHistogram::new();
        hist.record(SimDuration::from_nanos(123_457));
        let s = hist.summary().unwrap();
        // One sample: the observed-extreme clamp makes every statistic exact.
        assert_eq!(s.min, s.max);
        assert_eq!(s.p50, s.max);
        assert_eq!(s.p999, s.max);
        assert_eq!(s.max, SimDuration::from_nanos(123_457));
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
