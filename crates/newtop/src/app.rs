//! A generic application process (workload generator + measurement probe).
//!
//! [`AppProcess`] plays the role of the `A_i` processes in the paper's
//! experiments (§4): it multicasts a configurable number of fixed-size
//! messages at a regular interval through its local middleware process, and
//! records (a) the ordering latency of its own messages (send → total-order
//! delivery back to itself) and (b) the time of every delivery it receives,
//! from which the benchmark harness derives the throughput figures.
//!
//! The same actor drives both baselines: point it at the crash host of a
//! GC machine for NewTOP, or at a fail-signal interceptor for FS-NewTOP.

use fs_common::codec::{Decoder, Encoder, Wire};
use fs_common::id::{MemberId, ProcessId};
use fs_common::time::SimTime;
use fs_common::{Bytes, Frame};
use fs_simnet::actor::{Actor, Context, TimerId};
use fs_simnet::load::{Admitted, LoadGen, LoadStats, Workload};
use fs_simnet::trace::LatencyRecorder;

use crate::message::{AppDeliver, AppRequest, ServiceKind, Upcall};

/// Timer used to pace the workload.
pub const TIMER_SEND: TimerId = TimerId(100);

/// Timer closing an open request batch after the configured linger.
pub const TIMER_FLUSH: TimerId = TimerId(101);

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
    // Every item costs at least its 4-byte length prefix, so the count read
    // off the wire never reserves more than the payload can hold.
    let mut items = Vec::with_capacity((count as usize).min(dec.remaining() / 4));
    for _ in 0..count {
        items.push(dec.get_bytes_shared().ok()?);
    }
    Some(items)
}

/// The application process / workload generator.
pub struct AppProcess {
    member: MemberId,
    middleware: ProcessId,
    /// The NewTOP service class every multicast requests.
    service: ServiceKind,
    workload: Workload,
    load: LoadGen,
    /// The open batch: `(seq, payload)` of buffered requests.
    batch: Vec<(u64, Vec<u8>)>,
    delivered_total: u64,
    last_delivery: Option<SimTime>,
    views_seen: Vec<u64>,
    delivery_log: Vec<(MemberId, u64)>,
}

impl std::fmt::Debug for AppProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppProcess")
            .field("member", &self.member)
            .field("sent", &self.sent())
            .field("delivered_total", &self.delivered_total)
            .finish()
    }
}

impl AppProcess {
    /// Creates an application process for `member`, talking to the local
    /// middleware process `middleware`, offering `workload` through the
    /// NewTOP service class `service`.
    pub fn new(
        member: MemberId,
        middleware: ProcessId,
        service: ServiceKind,
        workload: &Workload,
    ) -> Self {
        Self {
            member,
            middleware,
            service,
            workload: *workload,
            load: LoadGen::new(workload, u64::from(member.0)),
            batch: Vec::new(),
            delivered_total: 0,
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
        self.load.issued()
    }

    /// Total deliveries received (own and others').
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Ordering latencies of this application's own messages.
    pub fn latencies(&self) -> &LatencyRecorder {
        self.load.latencies()
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

    /// The admission counters of this application's load generator.
    pub fn load_stats(&self) -> LoadStats {
        self.load.stats()
    }

    /// This application's load generator.
    pub fn load(&self) -> &LoadGen {
        &self.load
    }

    /// One tick of the arrival process: buffer the request if it was
    /// admitted, and re-arm the arrival timer.
    fn next_arrival(&mut self, ctx: &mut dyn Context) {
        let (admitted, rearm) = self.load.on_arrival(ctx.now());
        if let Some(request) = admitted {
            self.enqueue(ctx, request);
        }
        if let Some(gap) = rearm {
            ctx.set_timer(gap, TIMER_SEND);
        }
    }

    /// Buffers one admitted request into the open batch, flushing when the
    /// batch is full (a fresh batch arms the linger timer instead).
    fn enqueue(&mut self, ctx: &mut dyn Context, request: Admitted) {
        let payload = build_payload(self.member, request.seq, self.workload.payload_size);
        self.batch.push((request.seq, payload));
        if self.batch.len() as u32 >= self.workload.batch_max {
            ctx.cancel_timer(TIMER_FLUSH);
            self.flush(ctx);
        } else if self.batch.len() == 1 {
            ctx.set_timer(self.workload.batch_linger, TIMER_FLUSH);
        }
    }

    /// Multicasts the open batch as one GC submission.
    fn flush(&mut self, ctx: &mut dyn Context) {
        if self.batch.is_empty() {
            return;
        }
        let payload = if self.workload.batch_max == 1 {
            self.batch.pop().expect("one buffered request").1
        } else {
            let items: Vec<Vec<u8>> = self.batch.drain(..).map(|(_, p)| p).collect();
            build_batch_payload(&items)
        };
        let request = AppRequest {
            service: self.service,
            payload: payload.into(),
        };
        ctx.send(self.middleware, request.to_frame());
    }

    /// Accounts one delivery.
    fn deliver(&mut self, ctx: &mut dyn Context, delivery: &AppDeliver) {
        self.delivered_total += 1;
        let now = ctx.now();
        self.last_delivery = Some(now);
        if self.workload.batch_max > 1 {
            // Batched payloads expand into per-request deliveries; the total
            // count reflects requests, not multicasts.
            let items = parse_batch_payload(&delivery.payload).unwrap_or_default();
            self.delivered_total += (items.len() as u64).saturating_sub(1);
            for item in items {
                self.deliver_item(ctx, now, &item);
            }
        } else {
            self.delivery_log.push((delivery.origin, delivery.seq));
            if let Some((member, seq)) = parse_payload(&delivery.payload) {
                if member == self.member {
                    self.deliver_own(ctx, now, seq);
                }
            }
        }
    }

    /// Accounts one delivered application payload (a whole delivery in
    /// unbatched mode, one expanded item in batched mode).
    fn deliver_item(&mut self, ctx: &mut dyn Context, now: SimTime, item: &[u8]) {
        let Some((member, seq)) = parse_payload(item) else {
            return;
        };
        self.delivery_log.push((member, seq));
        if member == self.member {
            self.deliver_own(ctx, now, seq);
        }
    }

    /// Accounts the delivery of this application's own request `seq`.
    fn deliver_own(&mut self, ctx: &mut dyn Context, now: SimTime, seq: u64) {
        if let Some(request) = self.load.complete(seq, now).and_then(|done| done.refill) {
            // The completion hands its slot to a blocked arrival.
            self.enqueue(ctx, request);
        }
    }
}

impl Actor for AppProcess {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.workload.messages > 0 {
            ctx.set_timer(self.workload.start_delay, TIMER_SEND);
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
        match Upcall::from_frame(&payload) {
            Ok(Upcall::Deliver(delivery)) => self.deliver(ctx, &delivery),
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
    use fs_simnet::actor::TestContext;

    use fs_common::time::SimDuration;

    fn config(messages: u64) -> Workload {
        Workload::paper_default().messages(messages)
    }

    fn new_app(member: u32, workload: Workload) -> AppProcess {
        AppProcess::new(
            MemberId(member),
            ProcessId(5),
            ServiceKind::SymmetricTotal,
            &workload,
        )
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
        let mut app = new_app(0, config(3));
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
        let mut app = new_app(0, config(1));
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
        assert_eq!(app.latencies().len(), 1, "one own completion");
        assert_eq!(app.latencies().samples()[0], SimDuration::from_millis(30));
        assert!(app.last_delivery().is_some());
    }

    #[test]
    fn view_upcalls_are_tracked() {
        let mut app = new_app(0, config(0));
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

    /// A hostile count must not size the reservation: `ff ff ff ff` claims
    /// four billion items in a 4-byte payload.
    #[test]
    fn batch_payload_with_a_hostile_count_is_rejected() {
        assert!(parse_batch_payload(&vec![0xff; 4].into()).is_none());
    }

    #[test]
    fn full_batch_flushes_in_one_multicast() {
        let cfg = config(4).batch_max(2);
        let mut app = new_app(0, cfg);
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
        assert_eq!(app.latencies().len(), 2, "two own completions");
        assert_eq!(app.delivery_log(), &[(MemberId(0), 0), (MemberId(0), 1)]);
    }

    #[test]
    fn lingering_batch_flushes_on_timer() {
        let cfg = config(4)
            .batch_max(8)
            .batch_linger(SimDuration::from_micros(200));
        let mut app = new_app(0, cfg);
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
        let cfg = config(3).max_in_flight(1);
        let mut app = new_app(0, cfg);
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
        let cfg = config(3).poisson().arrival_seed(11);
        let mut app = new_app(2, cfg);
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
    fn drift_free_pacing_shortens_the_gap_after_a_late_wakeup() {
        let interval = SimDuration::from_millis(40);
        let cfg = config(3).interval(interval).drift_free_pacing(true);
        let mut app = new_app(0, cfg);
        let mut ctx = TestContext::new(ProcessId(1));
        app.on_start(&mut ctx);
        // The first arrival anchors the plan; the second wakes 15 ms late.
        app.on_timer(&mut ctx, TIMER_SEND);
        ctx.advance(interval + SimDuration::from_millis(15));
        app.on_timer(&mut ctx, TIMER_SEND);
        let gaps: Vec<_> = ctx.timers_set.iter().map(|(d, _)| *d).collect();
        assert_eq!(gaps[1], interval);
        assert_eq!(
            gaps[2],
            SimDuration::from_millis(25),
            "the third arrival stays on the planned timeline"
        );
    }

    #[test]
    fn messages_from_strangers_are_ignored() {
        let mut app = new_app(0, config(1));
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
