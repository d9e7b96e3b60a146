//! Open-loop load generation: the workload description, arrival processes,
//! admission control and the one generator that combines them.
//!
//! The paper's cost/benefit story (crash-tolerant vs authenticated-Byzantine
//! ordering) is about what ordering costs *under load*, so the load drivers
//! need more than a fixed-cadence closed loop.  There is one path from a
//! description of load to requests in flight:
//!
//! * a [`Workload`] says how much traffic a generator offers and at what
//!   cadence — the knobs of the paper's §4 experiments (message count,
//!   payload size, send interval) plus the arrival process, the logical
//!   client population with its in-flight bound, and the batching policy;
//! * a [`LoadGen`], built from a workload and an RNG stream id, is the
//!   generator every load-driving actor owns (the NewTOP application
//!   process, the sequenced-KV driver, the cluster router): it paces
//!   arrivals, admits them, tracks the in-flight window and records the
//!   latency of every completion.  The actor keeps only what is its own —
//!   payloads, wire protocol, batch framing, timer ids.
//!
//! Underneath, an [`ArrivalPacer`] turns the arrival process
//! ([`Arrival::Paced`] fixed-rate or [`Arrival::Poisson`] with exponentially
//! distributed gaps from the deterministic RNG) into inter-arrival gaps, and
//! an [`AdmissionGate`] bounds the in-flight requests of the client
//! population and applies a shed-or-block [`Admission`] policy when a client
//! is at its bound, accumulating [`LoadStats`] so overload is observable
//! instead of silently queueing without bound.
//!
//! All of it is plain deterministic state — no clocks, no threads — so the
//! same driver code behaves identically on the discrete-event simulator and
//! on the threaded runtime.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use fs_common::id::{MemberId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};

use crate::trace::LatencyRecorder;

/// The arrival process of an open-loop load generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Arrival {
    /// Fixed-rate arrivals: one request every configured interval (the
    /// original closed-cadence workload of the paper's §4 experiments).
    #[default]
    Paced,
    /// Poisson arrivals: inter-arrival gaps drawn from an exponential
    /// distribution whose mean is the configured interval, using the
    /// deterministic RNG so runs stay reproducible under a fixed seed.
    Poisson,
}

/// What to do with an arrival whose client is already at its in-flight bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Admission {
    /// Drop the request and count it as shed — the open-loop generator keeps
    /// its rate and the excess becomes visible loss.
    #[default]
    Shed,
    /// Hold the request until one of the client's in-flight requests
    /// completes; the completion hands its slot to the oldest blocked
    /// arrival.
    Block,
}

/// A per-member traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Payload size in bytes (the paper uses 3 bytes for "0k", up to 10 kB).
    pub payload_size: usize,
    /// How many requests each sending member offers in total (under
    /// admission control, offered requests may be shed before submission).
    pub messages: u64,
    /// Mean interval between consecutive arrivals of one member.
    pub interval: SimDuration,
    /// Delay before the first submission (lets the deployment settle).
    pub start_delay: SimDuration,
    /// The arrival process generating request arrivals at `interval`.
    pub arrival: Arrival,
    /// Seed for the arrival process RNG; 0 means "derive from the scenario
    /// seed", which the scenario builder stamps before deployment.
    pub arrival_seed: u64,
    /// How many of the group's members generate traffic (0 = all of them).
    /// `senders: 1` gives the classic single-writer load shape.
    pub senders: u32,
    /// Logical clients per sending member; arrivals are assigned round-robin.
    pub clients: u32,
    /// Bound on submitted-but-uncompleted requests per client (0 = none).
    pub max_in_flight: u32,
    /// What happens to an arrival whose client is at `max_in_flight`.
    pub admission: Admission,
    /// Requests per batch: a batch closes when it holds `batch_max` requests
    /// (1 = batching off, every request is its own ordering round).
    pub batch_max: u32,
    /// Time policy of the batch close: an open batch is flushed this long
    /// after its first request even if it never fills.
    pub batch_linger: SimDuration,
    /// When set, the member's driver also accepts routed commands from this
    /// cluster-router process (see `fs_harness::cluster`): the router sends
    /// it keyed commands and receives a completion echo per ordered
    /// delivery.  `None` (the default) keeps the driver closed to external
    /// submitters.
    pub router: Option<ProcessId>,
    /// Drift-free pacing: re-arm arrival timers against the absolute planned
    /// timeline instead of the handler's (possibly late) clock.  The scenario
    /// and cluster builders switch this on for threaded deployments, where
    /// late OS wakeups would otherwise accumulate into offered-rate drift; it
    /// must stay off on the simulator, whose handler-latency model is part of
    /// the deterministic schedule.
    pub drift_free_pacing: bool,
}

impl Default for Workload {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl Workload {
    /// The paper's latency/throughput workload: 1000 small messages per
    /// member at a regular interval.
    pub fn paper_default() -> Self {
        Self {
            payload_size: 3,
            messages: 1000,
            interval: SimDuration::from_millis(40),
            start_delay: SimDuration::from_millis(10),
            arrival: Arrival::Paced,
            arrival_seed: 0,
            senders: 0,
            clients: 1,
            max_in_flight: 0,
            admission: Admission::Shed,
            batch_max: 1,
            batch_linger: SimDuration::from_millis(1),
            router: None,
            drift_free_pacing: false,
        }
    }

    /// A short workload for tests and examples: `messages` small messages
    /// per member, 25 ms apart.
    pub fn quick(messages: u64) -> Self {
        Self {
            messages,
            interval: SimDuration::from_millis(25),
            ..Self::paper_default()
        }
    }

    /// Returns a copy with a different message count.
    #[must_use]
    pub fn messages(mut self, messages: u64) -> Self {
        self.messages = messages;
        self
    }

    /// Returns a copy with a different payload size.
    #[must_use]
    pub fn payload_size(mut self, payload_size: usize) -> Self {
        self.payload_size = payload_size;
        self
    }

    /// Returns a copy with a different send interval.
    #[must_use]
    pub fn interval(mut self, interval: SimDuration) -> Self {
        self.interval = interval;
        self
    }

    /// Returns a copy with a different start delay.
    #[must_use]
    pub fn start_delay(mut self, start_delay: SimDuration) -> Self {
        self.start_delay = start_delay;
        self
    }

    /// Returns a copy with a different arrival process.
    #[must_use]
    pub fn arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// Returns a copy with Poisson arrivals (open-loop, exponential gaps
    /// with mean [`Workload::interval`]).
    #[must_use]
    pub fn poisson(self) -> Self {
        self.arrival(Arrival::Poisson)
    }

    /// Returns a copy with an explicit arrival-process seed (default 0
    /// derives it from the scenario seed).
    #[must_use]
    pub fn arrival_seed(mut self, arrival_seed: u64) -> Self {
        self.arrival_seed = arrival_seed;
        self
    }

    /// Returns a copy where only the first `senders` members generate
    /// traffic (0 = all members send).
    #[must_use]
    pub fn senders(mut self, senders: u32) -> Self {
        self.senders = senders;
        self
    }

    /// Returns a copy with a different logical client population.
    #[must_use]
    pub fn clients(mut self, clients: u32) -> Self {
        self.clients = clients;
        self
    }

    /// Returns a copy with a per-client in-flight bound (0 = unbounded).
    #[must_use]
    pub fn max_in_flight(mut self, max_in_flight: u32) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Returns a copy with a different admission (overload) policy.
    #[must_use]
    pub fn admission(mut self, admission: Admission) -> Self {
        self.admission = admission;
        self
    }

    /// Returns a copy batching up to `batch_max` requests per ordering round
    /// (1 = off).
    #[must_use]
    pub fn batch_max(mut self, batch_max: u32) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Returns a copy with a different batch linger (time-based batch close).
    #[must_use]
    pub fn batch_linger(mut self, batch_linger: SimDuration) -> Self {
        self.batch_linger = batch_linger;
        self
    }

    /// Returns a copy that accepts routed commands from the given
    /// cluster-router process (see `fs_harness::cluster`).
    #[must_use]
    pub fn router(mut self, router: ProcessId) -> Self {
        self.router = Some(router);
        self
    }

    /// Returns a copy with drift-free (plan-anchored) arrival pacing on or
    /// off.  The scenario and cluster builders stamp this per runtime; see
    /// the field docs.
    #[must_use]
    pub fn drift_free_pacing(mut self, drift_free_pacing: bool) -> Self {
        self.drift_free_pacing = drift_free_pacing;
        self
    }

    /// The workload as seen by one member: members beyond
    /// [`Workload::senders`] (when set) generate no traffic.
    #[must_use]
    pub fn for_member(mut self, member: MemberId) -> Self {
        if self.senders > 0 && member.0 >= self.senders {
            self.messages = 0;
        }
        self
    }
}

/// Produces the gap to the next arrival for a configured [`Arrival`] process.
#[derive(Debug, Clone)]
pub struct ArrivalPacer {
    arrival: Arrival,
    interval: SimDuration,
    rng: DetRng,
    /// Whether [`ArrivalPacer::next_gap_from`] measures against the absolute
    /// planned timeline (drift-free pacing, for the threaded runtime) or
    /// degrades to plain [`ArrivalPacer::next_gap`] (for the simulator, whose
    /// deterministic handler-latency model must stay untouched).
    anchored: bool,
    /// Absolute planned time of the next arrival, once pacing has started.
    /// Tracking the plan (instead of re-arming relative to a handler's
    /// possibly-late `now`) keeps late timer wakeups on the threaded runtime
    /// from accumulating into offered-rate drift.
    planned: Option<SimTime>,
}

impl ArrivalPacer {
    /// Creates a pacer with mean inter-arrival `interval`, seeded for
    /// determinism (the seed should derive from the scenario seed and the
    /// member identity so members draw independent streams).
    pub fn new(arrival: Arrival, interval: SimDuration, seed: u64) -> Self {
        Self::with_rng(arrival, interval, DetRng::new(seed))
    }

    /// Creates a pacer drawing gaps from an existing deterministic RNG
    /// (e.g. a stream derived from the scenario seed and member id).
    pub fn with_rng(arrival: Arrival, interval: SimDuration, rng: DetRng) -> Self {
        Self {
            arrival,
            interval,
            rng,
            anchored: false,
            planned: None,
        }
    }

    /// Returns a copy with drift-free pacing enabled or disabled.
    ///
    /// Enable it for drivers deployed on the threaded runtime, where timer
    /// wakeups are real OS wakeups that land late by scheduling noise; leave
    /// it off (the default) on the simulator, where handler latency is part
    /// of the deterministic model and "correcting" for it would change the
    /// simulated schedule.
    #[must_use]
    pub fn anchored(mut self, anchored: bool) -> Self {
        self.anchored = anchored;
        self
    }

    /// The gap between the previous arrival and the next one.
    pub fn next_gap(&mut self) -> SimDuration {
        match self.arrival {
            Arrival::Paced => self.interval,
            Arrival::Poisson => {
                let mean = self.interval.as_nanos() as f64;
                let gap = self.rng.exponential(mean);
                // Never zero: two arrivals in the same instant would collapse
                // into one timer re-arm.
                SimDuration::from_nanos((gap as u64).max(1))
            }
        }
    }

    /// The timer duration until the next arrival.
    ///
    /// When [`ArrivalPacer::anchored`] pacing is on, the duration is measured
    /// against the absolute planned timeline anchored at the first call's
    /// `now`: a late wakeup shortens the *next* gap instead of pushing the
    /// whole remaining schedule back, so the offered rate holds under the
    /// threaded runtime's real-clock wakeup noise.  When off, this is exactly
    /// [`ArrivalPacer::next_gap`] and `now` is ignored.
    pub fn next_gap_from(&mut self, now: SimTime) -> SimDuration {
        let gap = self.next_gap();
        if !self.anchored {
            return gap;
        }
        let due = self.planned.unwrap_or(now).saturating_add(gap);
        self.planned = Some(due);
        due.duration_since(now)
    }

    /// Drops the planned timeline, re-anchoring the next
    /// [`ArrivalPacer::next_gap_from`] at its `now`.
    ///
    /// Call after a gap in pacing that should *not* be made up for — e.g. a
    /// member recovering from a crash — so the backlog of missed planned
    /// arrivals is not released as a burst.
    pub fn resync(&mut self) {
        self.planned = None;
    }
}

/// Counters describing how an open-loop generator's offered load was
/// admitted, shed or blocked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadStats {
    /// Arrivals generated by the arrival process.
    pub offered: u64,
    /// Arrivals actually submitted to the service (admitted immediately or
    /// released after blocking).
    pub submitted: u64,
    /// Arrivals dropped by the [`Admission::Shed`] policy.
    pub shed: u64,
    /// Arrivals that had to wait for a slot under [`Admission::Block`].
    pub blocked: u64,
    /// Submitted requests whose response came back to the issuing client.
    pub completed: u64,
}

impl LoadStats {
    /// Accumulates another generator's counters into this one.
    pub fn merge(&mut self, other: &LoadStats) {
        self.offered += other.offered;
        self.submitted += other.submitted;
        self.shed += other.shed;
        self.blocked += other.blocked;
        self.completed += other.completed;
    }
}

/// Bounded-in-flight admission control over a population of logical clients.
///
/// Arrivals are assigned to clients round-robin; each client may have at most
/// `max_in_flight` submitted-but-uncompleted requests (0 = unbounded).  The
/// gate only does the accounting — the driver owning it performs the actual
/// submission when [`AdmissionGate::arrive`] admits, and re-submission when
/// [`AdmissionGate::complete`] releases a blocked arrival.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    max_in_flight: u32,
    policy: Admission,
    in_flight: Vec<u32>,
    waiting: Vec<u32>,
    arrivals: u64,
    stats: LoadStats,
}

impl AdmissionGate {
    /// Creates a gate for `clients` logical clients (clamped to at least 1)
    /// with the given per-client bound and overload policy.
    pub fn new(clients: u32, max_in_flight: u32, policy: Admission) -> Self {
        let clients = clients.max(1) as usize;
        Self {
            max_in_flight,
            policy,
            in_flight: vec![0; clients],
            waiting: vec![0; clients],
            arrivals: 0,
            stats: LoadStats::default(),
        }
    }

    /// Registers the next arrival and returns the client it should be
    /// submitted for, or `None` when the client is at its bound (the arrival
    /// was shed or blocked according to the policy).
    pub fn arrive(&mut self) -> Option<u32> {
        let c = (self.arrivals % self.in_flight.len() as u64) as usize;
        self.arrivals += 1;
        self.stats.offered += 1;
        if self.max_in_flight == 0 || self.in_flight[c] < self.max_in_flight {
            self.in_flight[c] += 1;
            self.stats.submitted += 1;
            return Some(c as u32);
        }
        match self.policy {
            Admission::Shed => self.stats.shed += 1,
            Admission::Block => {
                self.waiting[c] += 1;
                self.stats.blocked += 1;
            }
        }
        None
    }

    /// Registers the completion of a request submitted for `client`.
    /// Returns `true` when a blocked arrival of that client should be
    /// submitted now — the completed request hands its in-flight slot
    /// directly to the oldest waiting arrival.
    pub fn complete(&mut self, client: u32) -> bool {
        let c = client as usize;
        self.stats.completed += 1;
        if self.waiting[c] > 0 {
            self.waiting[c] -= 1;
            self.stats.submitted += 1;
            return true;
        }
        self.in_flight[c] = self.in_flight[c].saturating_sub(1);
        false
    }

    /// Requests currently in flight across all clients.
    pub fn in_flight_total(&self) -> u64 {
        self.in_flight.iter().map(|&c| u64::from(c)).sum()
    }

    /// The accumulated admission counters.
    pub fn stats(&self) -> LoadStats {
        self.stats
    }
}

/// A request [`LoadGen`] admitted: the owning actor builds its payload and
/// submits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// The request's sequence number in the generator's stream.
    pub seq: u64,
    /// The logical client the request was submitted for.
    pub client: u32,
}

/// What [`LoadGen::complete`] reports for a request that was in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completed {
    /// Submission → completion, as recorded in [`LoadGen::latencies`].
    pub span: SimDuration,
    /// The blocked arrival that inherited the freed slot, if any: the actor
    /// submits it now.
    pub refill: Option<Admitted>,
}

/// The open-loop load generator every load-driving actor owns: arrival
/// pacing, admission control, the in-flight window and the latency record
/// of one [`Workload`].
///
/// The generator owns no clock and sends nothing.  The actor arms its own
/// arrival timer and calls [`LoadGen::on_arrival`] when it fires, submits
/// what is [`Admitted`], and reports each response with
/// [`LoadGen::complete`]; the generator says when to re-arm the timer and
/// which blocked arrival a completion releases.
#[derive(Debug, Clone)]
pub struct LoadGen {
    /// Arrivals to offer in total.
    messages: u64,
    pacer: ArrivalPacer,
    gate: AdmissionGate,
    /// Arrivals generated so far (admitted or not).
    offered: u64,
    next_seq: u64,
    /// The in-flight window: `seq → (submitted at, client)`.
    window: BTreeMap<u64, (SimTime, u32)>,
    latencies: LatencyRecorder,
    first_submit_at: Option<SimTime>,
    last_done_at: Option<SimTime>,
}

impl LoadGen {
    /// A generator for `workload`, drawing its arrival gaps from stream
    /// `stream` of the workload's arrival seed (generators sharing a seed
    /// take distinct streams, e.g. their member id).
    pub fn new(workload: &Workload, stream: u64) -> Self {
        let rng = DetRng::new(workload.arrival_seed).derive(stream);
        Self {
            messages: workload.messages,
            pacer: ArrivalPacer::with_rng(workload.arrival, workload.interval, rng)
                .anchored(workload.drift_free_pacing),
            gate: AdmissionGate::new(workload.clients, workload.max_in_flight, workload.admission),
            offered: 0,
            next_seq: 0,
            window: BTreeMap::new(),
            latencies: LatencyRecorder::new(),
            first_submit_at: None,
            last_done_at: None,
        }
    }

    /// One tick of the arrival process: offers a request to the admission
    /// gate.  Returns the request to submit, if it was admitted, and the
    /// delay after which the arrival timer fires next (`None` once every
    /// arrival has been offered).
    pub fn on_arrival(&mut self, now: SimTime) -> (Option<Admitted>, Option<SimDuration>) {
        if self.offered >= self.messages {
            return (None, None);
        }
        self.offered += 1;
        let admitted = self.gate.arrive().map(|client| self.admit(client, now));
        (admitted, self.next_gap(now))
    }

    /// Registers the response to request `seq`: records its latency and
    /// frees its slot, handing it to a blocked arrival of the same client
    /// when one waits.  `None` for a sequence number that is not in flight
    /// (unknown, abandoned or already completed).
    pub fn complete(&mut self, seq: u64, now: SimTime) -> Option<Completed> {
        let (sent_at, client) = self.window.remove(&seq)?;
        let span = now.duration_since(sent_at);
        self.latencies.record(span);
        self.last_done_at = Some(now);
        Some(Completed {
            span,
            refill: self.release(client, now),
        })
    }

    /// Gives up on request `seq` without a latency sample (its deadline
    /// passed).  The slot is freed exactly as by a completion — and counted
    /// as one in [`LoadStats::completed`] — so the blocked arrival that
    /// inherits it, if any, is returned for submission.
    pub fn abandon(&mut self, seq: u64, now: SimTime) -> Option<Admitted> {
        let (_, client) = self.window.remove(&seq)?;
        self.release(client, now)
    }

    /// [`LoadGen::abandon`] for the whole window, oldest request first (the
    /// responses were lost with a restart).  Returns the blocked arrivals
    /// that took over freed slots, in submission order.
    pub fn abandon_all(&mut self, now: SimTime) -> Vec<Admitted> {
        std::mem::take(&mut self.window)
            .into_values()
            .filter_map(|(_, client)| self.release(client, now))
            .collect()
    }

    /// Resumes pacing after a pause that is not to be made up for: the
    /// planned timeline is re-anchored at `now` instead of releasing the
    /// missed arrivals as a burst.  Returns the delay to re-arm the arrival
    /// timer with (`None` once every arrival has been offered).
    pub fn resync(&mut self, now: SimTime) -> Option<SimDuration> {
        self.pacer.resync();
        self.next_gap(now)
    }

    /// Takes the next sequence number for a request submitted outside the
    /// arrival process (it shares the stream's numbering but holds no slot
    /// and records no latency).
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Arrivals generated so far (admitted or not).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Sequence numbers handed out so far.
    pub fn issued(&self) -> u64 {
        self.next_seq
    }

    /// The admission counters.
    pub fn stats(&self) -> LoadStats {
        self.gate.stats()
    }

    /// Submission → completion latencies, in completion order.
    pub fn latencies(&self) -> &LatencyRecorder {
        &self.latencies
    }

    /// When the first request was admitted, if any.
    pub fn first_submit_at(&self) -> Option<SimTime> {
        self.first_submit_at
    }

    /// When the last completion was registered, if any.
    pub fn last_done_at(&self) -> Option<SimTime> {
        self.last_done_at
    }

    /// The delay to the next arrival, while there is one left to offer.
    fn next_gap(&mut self, now: SimTime) -> Option<SimDuration> {
        (self.offered < self.messages).then(|| self.pacer.next_gap_from(now))
    }

    /// Opens the window entry of a request the gate just admitted.
    fn admit(&mut self, client: u32, now: SimTime) -> Admitted {
        let seq = self.reserve_seq();
        self.first_submit_at.get_or_insert(now);
        self.window.insert(seq, (now, client));
        Admitted { seq, client }
    }

    /// Returns `client`'s slot to the gate, admitting the blocked arrival
    /// that inherits it.
    fn release(&mut self, client: u32, now: SimTime) -> Option<Admitted> {
        self.gate.complete(client).then(|| self.admit(client, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_pacer_is_constant() {
        let mut p = ArrivalPacer::new(Arrival::Paced, SimDuration::from_millis(5), 1);
        assert_eq!(p.next_gap(), SimDuration::from_millis(5));
        assert_eq!(p.next_gap(), SimDuration::from_millis(5));
    }

    #[test]
    fn anchored_pacer_compensates_late_wakeups() {
        let interval = SimDuration::from_millis(5);
        let mut p = ArrivalPacer::new(Arrival::Paced, interval, 1).anchored(true);
        // First call anchors the plan at `now`: full gap.
        assert_eq!(p.next_gap_from(SimTime::ZERO), interval);
        // The wakeup lands 2 ms late (at 7 ms against a 5 ms plan): the next
        // arrival is still planned for 10 ms, so only 3 ms remain.
        let late = SimTime::ZERO.saturating_add(SimDuration::from_millis(7));
        assert_eq!(p.next_gap_from(late), SimDuration::from_millis(3));
        // A wakeup *past* the planned time saturates to a zero gap rather
        // than going negative.
        let very_late = SimTime::ZERO.saturating_add(SimDuration::from_millis(40));
        assert_eq!(p.next_gap_from(very_late), SimDuration::ZERO);
        // resync() drops the plan: the backlog is forgotten, not burst out.
        p.resync();
        assert_eq!(p.next_gap_from(very_late), interval);
        // Unanchored (the default), `now` is ignored entirely.
        let mut plain = ArrivalPacer::new(Arrival::Paced, interval, 1);
        assert_eq!(plain.next_gap_from(SimTime::ZERO), interval);
        assert_eq!(plain.next_gap_from(late), interval);
    }

    #[test]
    fn poisson_pacer_is_deterministic_with_mean_near_interval() {
        let interval = SimDuration::from_micros(500);
        let mut a = ArrivalPacer::new(Arrival::Poisson, interval, 42);
        let mut b = ArrivalPacer::new(Arrival::Poisson, interval, 42);
        let gaps: Vec<SimDuration> = (0..5000).map(|_| a.next_gap()).collect();
        let again: Vec<SimDuration> = (0..5000).map(|_| b.next_gap()).collect();
        assert_eq!(gaps, again, "same seed must draw the same gaps");
        assert!(gaps.iter().all(|g| *g > SimDuration::ZERO));
        let mean_nanos: f64 =
            gaps.iter().map(|g| g.as_nanos() as f64).sum::<f64>() / gaps.len() as f64;
        let target = interval.as_nanos() as f64;
        assert!(
            (mean_nanos - target).abs() < target * 0.1,
            "empirical mean {mean_nanos} too far from {target}"
        );
        let mut c = ArrivalPacer::new(Arrival::Poisson, interval, 43);
        assert_ne!(
            (0..5000).map(|_| c.next_gap()).collect::<Vec<_>>(),
            gaps,
            "different seeds must draw different gaps"
        );
    }

    #[test]
    fn gate_unbounded_admits_everything() {
        let mut g = AdmissionGate::new(3, 0, Admission::Shed);
        for i in 0..9u32 {
            assert_eq!(g.arrive(), Some(i % 3));
        }
        assert_eq!(g.stats().submitted, 9);
        assert_eq!(g.stats().shed, 0);
        assert_eq!(g.in_flight_total(), 9);
    }

    #[test]
    fn gate_sheds_at_bound() {
        let mut g = AdmissionGate::new(1, 2, Admission::Shed);
        assert_eq!(g.arrive(), Some(0));
        assert_eq!(g.arrive(), Some(0));
        assert_eq!(g.arrive(), None);
        let s = g.stats();
        assert_eq!((s.offered, s.submitted, s.shed, s.blocked), (3, 2, 1, 0));
        // A completion frees a slot; the next arrival is admitted again.
        assert!(!g.complete(0));
        assert_eq!(g.arrive(), Some(0));
        assert_eq!(g.in_flight_total(), 2);
    }

    #[test]
    fn gate_blocks_and_hands_over_slot() {
        let mut g = AdmissionGate::new(1, 1, Admission::Block);
        assert_eq!(g.arrive(), Some(0));
        assert_eq!(g.arrive(), None);
        assert_eq!(g.stats().blocked, 1);
        // The completion hands its slot to the blocked arrival: the driver
        // must submit one more request for client 0, and in-flight stays 1.
        assert!(g.complete(0));
        assert_eq!(g.in_flight_total(), 1);
        assert_eq!(g.stats().submitted, 2);
        assert!(!g.complete(0));
        assert_eq!(g.in_flight_total(), 0);
        assert_eq!(g.stats().completed, 2);
    }

    #[test]
    fn load_stats_merge_sums() {
        let mut a = LoadStats {
            offered: 1,
            submitted: 1,
            shed: 0,
            blocked: 0,
            completed: 1,
        };
        let b = LoadStats {
            offered: 4,
            submitted: 2,
            shed: 2,
            blocked: 1,
            completed: 2,
        };
        a.merge(&b);
        assert_eq!(a.offered, 5);
        assert_eq!(a.submitted, 3);
        assert_eq!(a.shed, 2);
        assert_eq!(a.blocked, 1);
        assert_eq!(a.completed, 3);
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO.saturating_add(SimDuration::from_millis(ms))
    }

    /// A generator over one client with one slot and the given policy.
    fn one_slot(messages: u64, admission: Admission) -> LoadGen {
        let workload = Workload::quick(messages)
            .max_in_flight(1)
            .admission(admission);
        LoadGen::new(&workload, 0)
    }

    #[test]
    fn loadgen_admits_and_stops_when_exhausted() {
        let interval = SimDuration::from_millis(25);
        let mut load = LoadGen::new(&Workload::quick(2), 0);
        let first = Admitted { seq: 0, client: 0 };
        assert_eq!(load.on_arrival(at(10)), (Some(first), Some(interval)));
        // The last arrival is admitted but arms no further timer, and a
        // stray timer after it offers nothing.
        let second = Admitted { seq: 1, client: 0 };
        assert_eq!(load.on_arrival(at(35)), (Some(second), None));
        assert_eq!(load.on_arrival(at(60)), (None, None));
        assert_eq!((load.offered(), load.issued()), (2, 2));
        assert_eq!(load.first_submit_at(), Some(at(10)));

        let done = load.complete(0, at(40)).expect("seq 0 is in flight");
        assert_eq!(done.span, SimDuration::from_millis(30));
        assert_eq!(done.refill, None);
        assert_eq!(load.latencies().samples(), &[done.span]);
        assert_eq!(load.last_done_at(), Some(at(40)));
    }

    #[test]
    fn loadgen_sheds_at_the_bound() {
        let mut load = one_slot(3, Admission::Shed);
        assert!(load.on_arrival(at(0)).0.is_some());
        assert_eq!(load.on_arrival(at(1)).0, None);
        let stats = load.stats();
        assert_eq!((stats.offered, stats.submitted, stats.shed), (2, 1, 1));
        // The completion frees the slot for the next arrival, not for the
        // shed one.
        assert_eq!(load.complete(0, at(2)).unwrap().refill, None);
        assert_eq!(
            load.on_arrival(at(3)).0,
            Some(Admitted { seq: 1, client: 0 })
        );
    }

    #[test]
    fn loadgen_blocks_and_refills_on_complete() {
        let mut load = one_slot(2, Admission::Block);
        assert!(load.on_arrival(at(0)).0.is_some());
        assert_eq!(load.on_arrival(at(1)).0, None);
        assert_eq!(load.stats().blocked, 1);
        // The completion hands its slot to the blocked arrival, which is
        // timed from its release.
        let refill = load.complete(0, at(5)).unwrap().refill;
        assert_eq!(refill, Some(Admitted { seq: 1, client: 0 }));
        assert_eq!(
            load.complete(1, at(9)).unwrap().span,
            SimDuration::from_millis(4)
        );
        let stats = load.stats();
        assert_eq!((stats.submitted, stats.completed), (2, 2));
    }

    #[test]
    fn loadgen_ignores_unknown_and_duplicate_completions() {
        let mut load = LoadGen::new(&Workload::quick(1), 0);
        load.on_arrival(at(0));
        assert_eq!(load.complete(7, at(1)), None);
        assert!(load.complete(0, at(1)).is_some());
        assert_eq!(load.complete(0, at(2)), None);
        assert_eq!(load.latencies().len(), 1);
        assert_eq!(load.stats().completed, 1);
        assert_eq!(load.last_done_at(), Some(at(1)));
    }

    #[test]
    fn loadgen_abandon_frees_slots_without_latency_samples() {
        let workload = Workload::quick(5)
            .clients(2)
            .max_in_flight(1)
            .admission(Admission::Block);
        let mut load = LoadGen::new(&workload, 0);
        for ms in 0..4 {
            load.on_arrival(at(ms));
        }
        // Clients 0 and 1 each have one request in flight and one blocked.
        assert_eq!((load.issued(), load.stats().blocked), (2, 2));
        // A single abandon releases that client's blocked arrival...
        assert_eq!(
            load.abandon(1, at(10)),
            Some(Admitted { seq: 2, client: 1 })
        );
        assert_eq!(load.abandon(1, at(10)), None, "no longer in flight");
        // ...and abandoning the window releases the rest, oldest first; the
        // refills themselves stay in flight.
        assert_eq!(
            load.abandon_all(at(20)),
            vec![Admitted { seq: 3, client: 0 }]
        );
        assert!(load.latencies().is_empty());
        assert_eq!(load.last_done_at(), None);
        assert_eq!(load.complete(0, at(21)), None, "abandoned");
        // An abandoned slot counts as released in the gate's books.
        let stats = load.stats();
        assert_eq!((stats.submitted, stats.completed), (4, 3));
        assert!(load.complete(3, at(22)).is_some());
        assert_eq!(load.abandon_all(at(23)), vec![]);
    }

    #[test]
    fn loadgen_reserved_seqs_share_the_stream_but_hold_no_slot() {
        let mut load = one_slot(2, Admission::Shed);
        assert_eq!(load.reserve_seq(), 0);
        assert_eq!(
            load.on_arrival(at(0)).0,
            Some(Admitted { seq: 1, client: 0 })
        );
        assert_eq!(load.complete(0, at(1)), None);
        assert_eq!(load.issued(), 2);
    }

    #[test]
    fn loadgen_paces_anchored_or_relative_and_resyncs() {
        let interval = SimDuration::from_millis(25);
        let mut anchored = LoadGen::new(&Workload::quick(9).drift_free_pacing(true), 0);
        let mut relative = LoadGen::new(&Workload::quick(9), 0);
        for load in [&mut anchored, &mut relative] {
            assert_eq!(load.on_arrival(at(0)).1, Some(interval));
        }
        // A wakeup 10 ms late: the anchored plan still aims at 50 ms.
        assert_eq!(
            anchored.on_arrival(at(35)).1,
            Some(SimDuration::from_millis(15))
        );
        assert_eq!(relative.on_arrival(at(35)).1, Some(interval));
        // After a long pause the backlog would be released as a burst...
        assert_eq!(anchored.on_arrival(at(500)).1, Some(SimDuration::ZERO));
        // ...unless the plan is re-anchored first.
        assert_eq!(anchored.resync(at(900)), Some(interval));
        assert_eq!(
            anchored.on_arrival(at(930)).1,
            Some(SimDuration::from_millis(20))
        );
        assert_eq!(relative.resync(at(900)), Some(interval));
        // Nothing is re-armed once every arrival has been offered.
        let mut done = LoadGen::new(&Workload::quick(1), 0);
        done.on_arrival(at(0));
        assert_eq!(done.resync(at(1)), None);
    }

    #[test]
    fn loadgen_streams_draw_independent_poisson_gaps() {
        let workload = Workload::quick(3).poisson().arrival_seed(11);
        let gap = |stream| LoadGen::new(&workload, stream).on_arrival(at(0)).1;
        assert_eq!(gap(2), gap(2));
        assert_ne!(gap(2), gap(3));
    }
}
