//! A generic application process (workload generator + measurement probe).
//!
//! [`AppProcess`] plays the role of the `A_i` processes in the paper's
//! experiments (§4): it multicasts a configurable number of fixed-size
//! messages at a regular interval through its local middleware process, and
//! records (a) the ordering latency of its own messages (send → total-order
//! delivery back to itself) and (b) the time of every delivery it receives,
//! from which the benchmark harness derives the throughput figures.
//!
//! The same actor drives both baselines: point it at a crash-tolerant
//! [`crate::nso::NsoActor`] for NewTOP, or at a fail-signal interceptor for
//! FS-NewTOP.

use std::collections::BTreeMap;

use fs_common::codec::{Decoder, Encoder};
use fs_common::id::{MemberId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};
use fs_common::{Bytes, Frame};
use fs_simnet::actor::{Actor, Context, TimerId};
use fs_simnet::load::{Admission, AdmissionGate, Arrival, ArrivalPacer, LoadStats};
use fs_simnet::trace::LatencyRecorder;

use crate::invocation::InvocationService;
use crate::message::{ServiceKind, Upcall};

/// Timer used to pace the workload.
pub const TIMER_SEND: TimerId = TimerId(100);

/// Timer closing an open request batch after the configured linger.
pub const TIMER_FLUSH: TimerId = TimerId(101);

/// Workload configuration for one application process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// The NewTOP service to request.
    pub service: ServiceKind,
    /// Payload size in bytes (the paper uses 3 bytes for "0k" and up to 10 kB).
    pub payload_size: usize,
    /// How many request arrivals to generate in total (under admission
    /// control some may be shed before submission).
    pub messages: u64,
    /// Mean interval between consecutive arrivals.
    pub interval: SimDuration,
    /// Delay before the first arrival (lets the deployment settle).
    pub start_delay: SimDuration,
    /// The arrival process: fixed-rate or open-loop Poisson.
    pub arrival: Arrival,
    /// Seed of the arrival-process RNG (each member derives its own stream).
    pub arrival_seed: u64,
    /// Logical clients of this application; arrivals go round-robin.
    pub clients: u32,
    /// Per-client bound on submitted-but-undelivered requests (0 = none).
    pub max_in_flight: u32,
    /// What happens to an arrival whose client is at `max_in_flight`.
    pub admission: Admission,
    /// Requests per multicast batch (1 = batching off).  When batching is on,
    /// the multicast payload carries a counted list of application payloads
    /// and every receiver expands it back into per-request deliveries.
    pub batch_max: u32,
    /// An open batch is flushed this long after its first request.
    pub batch_linger: SimDuration,
}

impl TrafficConfig {
    /// The paper's latency/throughput workload: 1000 small messages per
    /// member at a regular interval, symmetric total order.
    pub fn paper_default() -> Self {
        Self {
            service: ServiceKind::SymmetricTotal,
            payload_size: 3,
            messages: 1000,
            interval: SimDuration::from_millis(40),
            start_delay: SimDuration::from_millis(10),
            arrival: Arrival::Paced,
            arrival_seed: 0,
            clients: 1,
            max_in_flight: 0,
            admission: Admission::Shed,
            batch_max: 1,
            batch_linger: SimDuration::from_millis(1),
        }
    }

    /// Returns a copy with a different message count (useful for tests).
    pub fn with_messages(mut self, messages: u64) -> Self {
        self.messages = messages;
        self
    }

    /// Returns a copy with a different payload size.
    pub fn with_payload_size(mut self, payload_size: usize) -> Self {
        self.payload_size = payload_size;
        self
    }

    /// Returns a copy with a different send interval.
    pub fn with_interval(mut self, interval: SimDuration) -> Self {
        self.interval = interval;
        self
    }

    /// Returns a copy with a different service kind.
    pub fn with_service(mut self, service: ServiceKind) -> Self {
        self.service = service;
        self
    }

    /// Returns a copy with a different arrival process.
    pub fn with_arrival(mut self, arrival: Arrival, arrival_seed: u64) -> Self {
        self.arrival = arrival;
        self.arrival_seed = arrival_seed;
        self
    }

    /// Returns a copy with an admission-control bound.
    pub fn with_admission(mut self, clients: u32, max_in_flight: u32, policy: Admission) -> Self {
        self.clients = clients;
        self.max_in_flight = max_in_flight;
        self.admission = policy;
        self
    }

    /// Returns a copy batching up to `batch_max` requests per multicast.
    pub fn with_batching(mut self, batch_max: u32, batch_linger: SimDuration) -> Self {
        self.batch_max = batch_max.max(1);
        self.batch_linger = batch_linger;
        self
    }
}

/// Builds the application payload: the sender's member id and application
/// sequence number, padded to the configured size.
pub fn build_payload(member: MemberId, seq: u64, size: usize) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(size + 12);
    enc.put_member(member);
    enc.put_u64(seq);
    let mut bytes = enc.finish_vec();
    if bytes.len() < size {
        bytes.resize(size, 0xa5);
    }
    bytes
}

/// Parses the header of an application payload built by [`build_payload`].
pub fn parse_payload(bytes: &[u8]) -> Option<(MemberId, u64)> {
    let mut dec = Decoder::new(bytes);
    let member = dec.get_member().ok()?;
    let seq = dec.get_u64().ok()?;
    Some((member, seq))
}

/// Packs several application payloads into one batched multicast payload:
/// a `u32` count followed by length-prefixed items.
pub fn build_batch_payload(items: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = items.iter().map(|i| 4 + i.len()).sum();
    let mut enc = Encoder::with_capacity(4 + total);
    enc.put_u32(items.len() as u32);
    for item in items {
        enc.put_bytes(item);
    }
    enc.finish_vec()
}

/// Expands a batched multicast payload built by [`build_batch_payload`];
/// the items are views of `bytes`.
pub fn parse_batch_payload(bytes: &Bytes) -> Option<Vec<Bytes>> {
    let mut dec = Decoder::from_shared(bytes);
    let count = dec.get_u32().ok()?;
    let mut items = Vec::with_capacity(count as usize);
    for _ in 0..count {
        items.push(dec.get_bytes_shared().ok()?);
    }
    Some(items)
}

/// The application process / workload generator.
pub struct AppProcess {
    member: MemberId,
    middleware: ProcessId,
    config: TrafficConfig,
    invocation: InvocationService,
    pacer: ArrivalPacer,
    gate: AdmissionGate,
    /// Arrivals generated so far (admitted or not).
    offered: u64,
    sent: u64,
    sent_at: BTreeMap<u64, SimTime>,
    /// The logical client each in-flight request was submitted for.
    client_of: BTreeMap<u64, u32>,
    /// The open batch: `(seq, payload)` of buffered requests.
    batch: Vec<(u64, Vec<u8>)>,
    latencies: LatencyRecorder,
    delivered_total: u64,
    delivered_own: u64,
    first_delivery: Option<SimTime>,
    last_delivery: Option<SimTime>,
    views_seen: Vec<u64>,
    delivery_log: Vec<(MemberId, u64)>,
}

impl std::fmt::Debug for AppProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppProcess")
            .field("member", &self.member)
            .field("sent", &self.sent)
            .field("delivered_total", &self.delivered_total)
            .finish()
    }
}

impl AppProcess {
    /// Creates an application process for `member`, talking to the local
    /// middleware process `middleware`, generating the given workload.
    pub fn new(member: MemberId, middleware: ProcessId, config: TrafficConfig) -> Self {
        let rng = DetRng::new(config.arrival_seed).derive(u64::from(member.0));
        Self {
            member,
            middleware,
            invocation: InvocationService::new(),
            pacer: ArrivalPacer::with_rng(config.arrival, config.interval, rng),
            gate: AdmissionGate::new(config.clients, config.max_in_flight, config.admission),
            config,
            offered: 0,
            sent: 0,
            sent_at: BTreeMap::new(),
            client_of: BTreeMap::new(),
            batch: Vec::new(),
            latencies: LatencyRecorder::new(),
            delivered_total: 0,
            delivered_own: 0,
            first_delivery: None,
            last_delivery: None,
            views_seen: Vec::new(),
            delivery_log: Vec::new(),
        }
    }

    /// The member identity of this application.
    pub fn member(&self) -> MemberId {
        self.member
    }

    /// Messages multicast so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Total deliveries received (own and others').
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Deliveries of this application's own multicasts.
    pub fn delivered_own(&self) -> u64 {
        self.delivered_own
    }

    /// Ordering latencies of this application's own messages.
    pub fn latencies(&self) -> &LatencyRecorder {
        &self.latencies
    }

    /// Time of the first delivery received, if any.
    pub fn first_delivery(&self) -> Option<SimTime> {
        self.first_delivery
    }

    /// Time of the last delivery received, if any.
    pub fn last_delivery(&self) -> Option<SimTime> {
        self.last_delivery
    }

    /// View numbers delivered to this application.
    pub fn views_seen(&self) -> &[u64] {
        &self.views_seen
    }

    /// The sequence of deliveries received, as `(origin member, origin seq)`
    /// pairs in delivery order — used by integration tests to check that all
    /// applications observe the same total order.
    pub fn delivery_log(&self) -> &[(MemberId, u64)] {
        &self.delivery_log
    }

    /// The admission counters of this generator's gate.
    pub fn load_stats(&self) -> LoadStats {
        self.gate.stats()
    }

    /// One tick of the arrival process: offer a request to the admission
    /// gate, buffer it if admitted, and re-arm the arrival timer.
    fn next_arrival(&mut self, ctx: &mut dyn Context) {
        if self.offered >= self.config.messages {
            return;
        }
        self.offered += 1;
        if let Some(client) = self.gate.arrive() {
            self.enqueue(ctx, client);
        }
        if self.offered < self.config.messages {
            ctx.set_timer(self.pacer.next_gap(), TIMER_SEND);
        }
    }

    /// Buffers one admitted request into the open batch, flushing when the
    /// batch is full (a fresh batch arms the linger timer instead).
    fn enqueue(&mut self, ctx: &mut dyn Context, client: u32) {
        let seq = self.sent;
        self.sent += 1;
        let payload = build_payload(self.member, seq, self.config.payload_size);
        self.sent_at.insert(seq, ctx.now());
        self.client_of.insert(seq, client);
        self.batch.push((seq, payload));
        if self.batch.len() as u32 >= self.config.batch_max {
            ctx.cancel_timer(TIMER_FLUSH);
            self.flush(ctx);
        } else if self.batch.len() == 1 {
            ctx.set_timer(self.config.batch_linger, TIMER_FLUSH);
        }
    }

    /// Multicasts the open batch as one GC submission.
    fn flush(&mut self, ctx: &mut dyn Context) {
        if self.batch.is_empty() {
            return;
        }
        let payload = if self.config.batch_max == 1 {
            self.batch.pop().expect("one buffered request").1
        } else {
            let items: Vec<Vec<u8>> = self.batch.drain(..).map(|(_, p)| p).collect();
            build_batch_payload(&items)
        };
        let request = self.invocation.marshal(self.config.service, payload);
        ctx.send(self.middleware, request);
    }

    /// Accounts one delivered application payload (a whole delivery in
    /// unbatched mode, one expanded item in batched mode).
    fn deliver_item(&mut self, ctx: &mut dyn Context, now: SimTime, item: &[u8]) {
        let Some((member, seq)) = parse_payload(item) else {
            return;
        };
        self.delivery_log.push((member, seq));
        if member != self.member {
            return;
        }
        self.delivered_own += 1;
        if let Some(sent_at) = self.sent_at.remove(&seq) {
            self.latencies.record_span(sent_at, now);
            if let Some(client) = self.client_of.remove(&seq) {
                if self.gate.complete(client) {
                    // The completion hands its slot to a blocked arrival.
                    self.enqueue(ctx, client);
                }
            }
        }
    }
}

impl Actor for AppProcess {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.config.messages > 0 {
            ctx.set_timer(self.config.start_delay, TIMER_SEND);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, timer: TimerId) {
        if timer == TIMER_SEND {
            self.next_arrival(ctx);
        } else if timer == TIMER_FLUSH {
            self.flush(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
        if from != self.middleware {
            return;
        }
        match self.invocation.unmarshal(&payload) {
            Ok(Upcall::Deliver(delivery)) => {
                self.delivered_total += 1;
                let now = ctx.now();
                self.first_delivery.get_or_insert(now);
                self.last_delivery = Some(now);
                if self.config.batch_max > 1 {
                    // Batched payloads expand into per-request deliveries;
                    // the total count reflects requests, not multicasts.
                    let items = parse_batch_payload(&delivery.payload).unwrap_or_default();
                    self.delivered_total += (items.len() as u64).saturating_sub(1);
                    for item in items {
                        self.deliver_item(ctx, now, &item);
                    }
                } else {
                    self.delivery_log.push((delivery.origin, delivery.seq));
                    if let Some((member, seq)) = parse_payload(&delivery.payload) {
                        if member == self.member {
                            self.delivered_own += 1;
                            if let Some(sent_at) = self.sent_at.remove(&seq) {
                                self.latencies.record_span(sent_at, now);
                                if let Some(client) = self.client_of.remove(&seq) {
                                    if self.gate.complete(client) {
                                        self.enqueue(ctx, client);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Ok(Upcall::View(view)) => {
                self.views_seen.push(view.view_id);
            }
            Err(_) => {
                // A malformed upcall can only come from faulty middleware; at
                // the application level we simply ignore it (the replication
                // layer masks it).
            }
        }
    }

    fn name(&self) -> String {
        format!("app-{}", self.member.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::AppDeliver;
    use fs_common::codec::Wire;
    use fs_simnet::actor::TestContext;

    fn config(messages: u64) -> TrafficConfig {
        TrafficConfig::paper_default().with_messages(messages)
    }

    #[test]
    fn payload_round_trip_and_padding() {
        let p = build_payload(MemberId(3), 41, 100);
        assert_eq!(p.len(), 100);
        assert_eq!(parse_payload(&p), Some((MemberId(3), 41)));
        // A payload smaller than the header still carries the header.
        let tiny = build_payload(MemberId(1), 2, 3);
        assert!(tiny.len() >= 12);
        assert!(parse_payload(&[1, 2]).is_none());
    }

    #[test]
    fn app_sends_paced_messages() {
        let mut app = AppProcess::new(MemberId(0), ProcessId(5), config(3));
        let mut ctx = TestContext::new(ProcessId(1));
        app.on_start(&mut ctx);
        assert_eq!(ctx.timers_set.len(), 1);
        app.on_timer(&mut ctx, TIMER_SEND);
        app.on_timer(&mut ctx, TIMER_SEND);
        app.on_timer(&mut ctx, TIMER_SEND);
        // Only three messages are sent even if the timer fires again.
        app.on_timer(&mut ctx, TIMER_SEND);
        assert_eq!(app.sent(), 3);
        assert_eq!(ctx.sent_to(ProcessId(5)).len(), 3);
    }

    #[test]
    fn latency_is_recorded_for_own_deliveries_only() {
        let mut app = AppProcess::new(MemberId(0), ProcessId(5), config(1));
        let mut ctx = TestContext::new(ProcessId(1));
        app.on_start(&mut ctx);
        app.on_timer(&mut ctx, TIMER_SEND);

        ctx.advance(SimDuration::from_millis(30));
        // Own message comes back.
        let own = Upcall::Deliver(AppDeliver {
            origin: MemberId(0),
            seq: 0,
            order: 0,
            service: ServiceKind::SymmetricTotal,
            payload: build_payload(MemberId(0), 0, 3).into(),
        });
        app.on_message(&mut ctx, ProcessId(5), own.to_frame());
        // Someone else's message too.
        let other = Upcall::Deliver(AppDeliver {
            origin: MemberId(1),
            seq: 0,
            order: 1,
            service: ServiceKind::SymmetricTotal,
            payload: build_payload(MemberId(1), 0, 3).into(),
        });
        app.on_message(&mut ctx, ProcessId(5), other.to_frame());

        assert_eq!(app.delivered_total(), 2);
        assert_eq!(app.delivered_own(), 1);
        assert_eq!(app.latencies().len(), 1);
        assert_eq!(app.latencies().samples()[0], SimDuration::from_millis(30));
        assert!(app.first_delivery().is_some());
        assert!(app.last_delivery().is_some());
    }

    #[test]
    fn view_upcalls_are_tracked() {
        let mut app = AppProcess::new(MemberId(0), ProcessId(5), config(0));
        let mut ctx = TestContext::new(ProcessId(1));
        app.on_start(&mut ctx);
        assert!(ctx.timers_set.is_empty());
        let view = Upcall::View(crate::message::ViewDeliver {
            view_id: 2,
            members: vec![MemberId(0)],
        });
        app.on_message(&mut ctx, ProcessId(5), view.to_frame());
        assert_eq!(app.views_seen(), &[2]);
    }

    #[test]
    fn batch_payload_round_trip() {
        let items = vec![
            build_payload(MemberId(0), 0, 3),
            build_payload(MemberId(0), 1, 3),
        ];
        let packed = build_batch_payload(&items);
        let unpacked = parse_batch_payload(&packed.into()).unwrap();
        assert_eq!(unpacked.len(), 2);
        assert_eq!(&unpacked[0][..], &items[0][..]);
        assert_eq!(&unpacked[1][..], &items[1][..]);
        assert!(parse_batch_payload(&vec![7].into()).is_none());
    }

    #[test]
    fn full_batch_flushes_in_one_multicast() {
        let cfg = config(4).with_batching(2, SimDuration::from_millis(1));
        let mut app = AppProcess::new(MemberId(0), ProcessId(5), cfg);
        let mut ctx = TestContext::new(ProcessId(1));
        app.on_start(&mut ctx);
        app.on_timer(&mut ctx, TIMER_SEND);
        // First request opens a batch: nothing multicast yet.
        assert_eq!(ctx.sent_to(ProcessId(5)).len(), 0);
        app.on_timer(&mut ctx, TIMER_SEND);
        // Second request fills the batch: one multicast for two requests.
        assert_eq!(ctx.sent_to(ProcessId(5)).len(), 1);
        assert_eq!(app.sent(), 2);

        // The batched delivery expands into two per-request deliveries.
        let delivered = Upcall::Deliver(AppDeliver {
            origin: MemberId(0),
            seq: 0,
            order: 0,
            service: ServiceKind::SymmetricTotal,
            payload: build_batch_payload(&[
                build_payload(MemberId(0), 0, 3),
                build_payload(MemberId(0), 1, 3),
            ])
            .into(),
        });
        app.on_message(&mut ctx, ProcessId(5), delivered.to_frame());
        assert_eq!(app.delivered_total(), 2);
        assert_eq!(app.delivered_own(), 2);
        assert_eq!(app.latencies().len(), 2);
        assert_eq!(app.delivery_log(), &[(MemberId(0), 0), (MemberId(0), 1)]);
    }

    #[test]
    fn lingering_batch_flushes_on_timer() {
        let cfg = config(4).with_batching(8, SimDuration::from_micros(200));
        let mut app = AppProcess::new(MemberId(0), ProcessId(5), cfg);
        let mut ctx = TestContext::new(ProcessId(1));
        app.on_start(&mut ctx);
        app.on_timer(&mut ctx, TIMER_SEND);
        assert_eq!(ctx.sent_to(ProcessId(5)).len(), 0, "batch still open");
        app.on_timer(&mut ctx, TIMER_FLUSH);
        assert_eq!(ctx.sent_to(ProcessId(5)).len(), 1, "linger closed it");
        app.on_timer(&mut ctx, TIMER_FLUSH);
        assert_eq!(ctx.sent_to(ProcessId(5)).len(), 1, "empty flush is a no-op");
    }

    #[test]
    fn admission_gate_sheds_over_the_bound() {
        let cfg = config(3).with_admission(1, 1, Admission::Shed);
        let mut app = AppProcess::new(MemberId(0), ProcessId(5), cfg);
        let mut ctx = TestContext::new(ProcessId(1));
        app.on_start(&mut ctx);
        app.on_timer(&mut ctx, TIMER_SEND);
        app.on_timer(&mut ctx, TIMER_SEND);
        app.on_timer(&mut ctx, TIMER_SEND);
        // Only the first arrival was submitted; the rest were shed.
        assert_eq!(app.sent(), 1);
        let stats = app.load_stats();
        assert_eq!((stats.offered, stats.submitted, stats.shed), (3, 1, 2));

        // Its delivery completes the request and frees the slot.
        let own = Upcall::Deliver(AppDeliver {
            origin: MemberId(0),
            seq: 0,
            order: 0,
            service: ServiceKind::SymmetricTotal,
            payload: build_payload(MemberId(0), 0, 3).into(),
        });
        app.on_message(&mut ctx, ProcessId(5), own.to_frame());
        assert_eq!(app.load_stats().completed, 1);
    }

    #[test]
    fn poisson_arrivals_rearm_with_varying_gaps() {
        let cfg = config(3).with_arrival(Arrival::Poisson, 11);
        let mut app = AppProcess::new(MemberId(2), ProcessId(5), cfg);
        let mut ctx = TestContext::new(ProcessId(1));
        app.on_start(&mut ctx);
        app.on_timer(&mut ctx, TIMER_SEND);
        app.on_timer(&mut ctx, TIMER_SEND);
        assert_eq!(app.sent(), 2);
        // start_delay + two pacer gaps; the pacer gaps differ from the fixed
        // interval and (almost surely) from each other.
        let gaps: Vec<_> = ctx.timers_set.iter().map(|(d, _)| *d).collect();
        assert_eq!(gaps.len(), 3);
        assert_ne!(gaps[1], gaps[2]);
    }

    #[test]
    fn messages_from_strangers_are_ignored() {
        let mut app = AppProcess::new(MemberId(0), ProcessId(5), config(1));
        let mut ctx = TestContext::new(ProcessId(1));
        let junk = Upcall::Deliver(AppDeliver {
            origin: MemberId(0),
            seq: 0,
            order: 0,
            service: ServiceKind::SymmetricTotal,
            payload: vec![].into(),
        });
        app.on_message(&mut ctx, ProcessId(99), junk.to_frame());
        assert_eq!(app.delivered_total(), 0);
        // Malformed upcalls from the right middleware are also ignored.
        app.on_message(&mut ctx, ProcessId(5), vec![0xff, 0xff].into());
        assert_eq!(app.delivered_total(), 0);
        assert_eq!(app.name(), "app-0");
    }
}
