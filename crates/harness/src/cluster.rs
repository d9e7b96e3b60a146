//! The sharded multi-group **cluster** layer: many independent FS/crash
//! groups (shards) side by side on one runtime, a key partitioner, and a
//! client-side router that drives open-loop load across all of them.
//!
//! The paper prices the crash → authenticated-Byzantine lift for a *single*
//! replicated group; this module composes that per-group cost model into
//! system-level throughput.  A [`Cluster`] builder instantiates `N`
//! independent [`SequencedKv`](fs_smr::sequenced::SequencedKv) groups on one
//! runtime (simulator or threaded), each assembled by the exact same
//! [`Scenario`] machinery as a standalone run — same pid scheme (offset per
//! shard), same fault plane, same protocols.  A [`ClusterRouter`] actor
//! admits an open-loop arrival stream (the PR 6 admission machinery), keys
//! every command, routes it to the owning shard via the [`Partitioner`],
//! and measures end-to-end ordering latency per shard.
//!
//! # Routing semantics
//!
//! Each command is a keyed `Put` on exactly one shard: the router submits
//! it to the shard's entry driver (member 0's workload driver), which
//! orders it through that shard's sequencer and echoes a completion when
//! the *ordered* entry is applied locally.  Commands never span shards, so
//! a shard's crash stalls only the keys it owns: the router's in-flight
//! count for that shard grows while every other shard keeps serving — the
//! deployment-scale availability argument, observable in
//! [`ClusterRouter::shard_loads`].
//!
//! # Retry and expiry
//!
//! By default a command stranded by a shard outage stays in flight forever
//! (the fault-isolation observable above).  Arming
//! [`Cluster::command_deadline`] turns that into availability: the router
//! sweeps its pending window every half-deadline, resubmits overdue
//! commands (same router sequence number — the entry driver deduplicates,
//! and a keyed `Put` is idempotent anyway) up to
//! [`Cluster::max_retries`] times, then expires them, freeing the issuing
//! client's admission slot.  [`ClusterRouter::shard_loads`] accounts the
//! outcome per shard (`retried`/`expired`), and `in_flight()` drains to zero
//! even when the shard never comes back.
//!
//! # Snapshot consistency contract
//!
//! [`Cluster::snapshot_at`] makes the router fan one sequenced
//! [`KvCommand::Frontier`](fs_smr::command::KvCommand::Frontier) read to
//! every shard and assemble the responses into a [`ClusterSnapshot`].  Each
//! shard's [`ShardFrontier`] is a *consistent cut of that shard's ordered
//! history* — the read rides the ordered stream, so it reflects exactly the
//! commands sequenced before it and none after.  Across shards the snapshot
//! is a vector of such cuts taken at slightly different instants, not a
//! global serialization point: keys on different shards may reflect
//! different wall-clock moments, but every per-shard view is internally
//! exact and reproducible from its `(applied, digest)` pair.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

use fs_common::codec::{Decoder, Encoder, Wire};
use fs_common::error::CodecError;
use fs_common::id::{MemberId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};
use fs_common::{Bytes, Frame, SeqSlots};
use fs_simnet::actor::{Actor, Context, TimerId};
use fs_simnet::load::{Admitted, LoadGen, LoadStats};
use fs_simnet::node::NodeConfig;
use fs_simnet::sched::SchedulerKind;
use fs_simnet::trace::{LatencyRecorder, NetStats};

use crate::check::Violation;
use crate::deployment::{deploy, stamp_workload, FrontEnd, Group, Runtime, ShardAt};
use crate::faults::FaultSchedule;
use crate::scenario::{MemberProcs, Protocol, Running, RuntimeKind, Scenario};
use crate::service::{put_value_into, SmrKvService};
use crate::workload::Workload;

/// The router's fixed process identifier (shard pids start at
/// [`PID_STRIDE`], so 0 is never a shard process).
pub const ROUTER_PID: ProcessId = ProcessId(0);

/// Process-identifier stride between shards: shard `s` owns the pid block
/// `[(s + 1) * PID_STRIDE, (s + 2) * PID_STRIDE)`.  At 4 pids per
/// fail-signal member this caps a shard at 256 members — far beyond the
/// `2f + 1` groups the paper considers.
pub const PID_STRIDE: u32 = 1024;

/// Timer driving the router's arrival process.
const TIMER_ARRIVAL: TimerId = TimerId(300);

/// Timer firing the scheduled multi-shard snapshot read.
const TIMER_SNAPSHOT: TimerId = TimerId(301);
/// Router retry sweep: scans the in-flight window for commands past their
/// deadline (armed only when a command deadline is configured).
const TIMER_RETRY: TimerId = TimerId(302);

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

/// A deterministic key → shard map over `SequencedKv` string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioner {
    /// FNV-1a hash of the key, modulo the shard count.
    Hash {
        /// Number of shards keys are spread over.
        shards: u32,
    },
    /// Ordered key ranges: a key belongs to the first bound it sorts below;
    /// keys at or above every bound go to the last shard
    /// (`bounds.len() + 1` shards in total).
    KeyRange {
        /// The ascending range boundaries.
        bounds: Vec<String>,
    },
}

impl Partitioner {
    /// Hash partitioning over `shards` shards.
    pub fn hash(shards: u32) -> Self {
        assert!(shards >= 1, "a cluster needs at least one shard");
        Partitioner::Hash { shards }
    }

    /// Range partitioning with the given ascending bounds
    /// (`bounds.len() + 1` shards).
    pub fn key_range(bounds: Vec<String>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "range bounds must be strictly ascending"
        );
        Partitioner::KeyRange { bounds }
    }

    /// The number of shards this partitioner spreads keys over.
    pub fn shards(&self) -> u32 {
        match self {
            Partitioner::Hash { shards } => *shards,
            Partitioner::KeyRange { bounds } => bounds.len() as u32 + 1,
        }
    }

    /// The shard owning `key`.  Pure and total: the same key always maps to
    /// the same shard, so tests can pin assignments byte-for-byte.
    pub fn shard_of(&self, key: &str) -> u32 {
        self.shard_of_bytes(key.as_bytes())
    }

    /// [`Partitioner::shard_of`] of a key held as its bytes (a string's
    /// order is its bytes' order).
    fn shard_of_bytes(&self, key: &[u8]) -> u32 {
        match self {
            Partitioner::Hash { shards } => {
                let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
                for b in key {
                    acc = (acc ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
                }
                (acc % u64::from(*shards)) as u32
            }
            Partitioner::KeyRange { bounds } => {
                bounds.partition_point(|b| b.as_bytes() <= key) as u32
            }
        }
    }

    /// The stable key → shard assignment for a whole key set, in input
    /// order — the inspection surface the determinism tests pin.
    pub fn assignment(&self, keys: &[String]) -> Vec<(String, u32)> {
        keys.iter().map(|k| (k.clone(), self.shard_of(k))).collect()
    }
}

/// The deterministic key stream the router draws from: key `i` of a run
/// with arrival seed `s` is `router_keys(s, i + 1)[i]`, on every runtime
/// and scheduler.  Exposed so tests can predict shard assignments without
/// running anything.
pub fn router_keys(arrival_seed: u64, count: usize) -> Vec<String> {
    let mut rng = DetRng::new(arrival_seed ^ 0x6b65_7973); // "keys"
    (0..count)
        .map(|_| {
            key_of(rng.next_u64_raw())
                .iter()
                .map(|&b| char::from(b))
                .collect()
        })
        .collect()
}

/// The router key of one draw, `format!("k{draw:016x}")`, as bytes on the
/// stack.
fn key_of(draw: u64) -> [u8; 17] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut key = [b'k'; 17];
    for (i, byte) in key[1..].iter_mut().enumerate() {
        *byte = HEX[(draw >> (60 - 4 * i)) as usize & 0xf];
    }
    key
}

/// The bytes of [`ClusterMsg::Submit`] for router command `router_seq`:
/// `key` and the generated value of `size` bytes (see
/// [`put_value_into`](crate::service::put_value_into)), written into one
/// exactly sized buffer.
fn submit_wire(router_seq: u64, key: &[u8], size: usize) -> Bytes {
    let mut enc = Encoder::with_capacity(1 + 8 + 4 + key.len() + 4 + size);
    enc.put_u8(0);
    enc.put_u64(router_seq);
    enc.put_bytes(key);
    put_value_into(&mut enc, router_seq, size);
    enc.finish()
}

// ---------------------------------------------------------------------------
// Router <-> shard-driver wire protocol
// ---------------------------------------------------------------------------

/// The wire protocol between the cluster router and each shard's entry
/// driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterMsg {
    /// Router → driver: submit a keyed write on this shard.
    Submit {
        /// The router's own sequence number, echoed back on completion.
        router_seq: u64,
        /// The key (already partitioned to this shard).
        key: String,
        /// The value payload.
        value: Vec<u8>,
    },
    /// Driver → router: the routed command was ordered and applied.
    Done {
        /// The router sequence number of the completed command.
        router_seq: u64,
    },
    /// Router → driver: submit a sequenced frontier read for snapshot `req`.
    SnapRead {
        /// The snapshot request identifier.
        req: u64,
    },
    /// Driver → router: the shard's frontier at the sequenced read point.
    SnapResp {
        /// The snapshot request identifier.
        req: u64,
        /// Commands applied at the read point (the read itself included).
        applied: u64,
        /// Keys stored at the read point.
        keys: u64,
        /// State digest at the read point.
        digest: u64,
    },
}

impl Wire for ClusterMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ClusterMsg::Submit {
                router_seq,
                key,
                value,
            } => {
                enc.put_u8(0);
                enc.put_u64(*router_seq);
                enc.put_str(key);
                enc.put_bytes(value);
            }
            ClusterMsg::Done { router_seq } => {
                enc.put_u8(1);
                enc.put_u64(*router_seq);
            }
            ClusterMsg::SnapRead { req } => {
                enc.put_u8(2);
                enc.put_u64(*req);
            }
            ClusterMsg::SnapResp {
                req,
                applied,
                keys,
                digest,
            } => {
                enc.put_u8(3);
                enc.put_u64(*req);
                enc.put_u64(*applied);
                enc.put_u64(*keys);
                enc.put_u64(*digest);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(match ClusterFrame::decode(dec)? {
            ClusterFrame::Submit {
                router_seq,
                key,
                value,
            } => ClusterMsg::Submit {
                router_seq,
                key: key.to_owned(),
                value: value.to_vec(),
            },
            ClusterFrame::Done { router_seq } => ClusterMsg::Done { router_seq },
            ClusterFrame::SnapRead { req } => ClusterMsg::SnapRead { req },
            ClusterFrame::SnapResp {
                req,
                applied,
                keys,
                digest,
            } => ClusterMsg::SnapResp {
                req,
                applied,
                keys,
                digest,
            },
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ClusterMsg::Submit { key, value, .. } => 8 + 4 + key.len() + 4 + value.len(),
            ClusterMsg::Done { .. } => 8,
            ClusterMsg::SnapRead { .. } => 8,
            ClusterMsg::SnapResp { .. } => 8 * 4,
        }
    }
}

/// A [`ClusterMsg`] read in place: a `Submit`'s key and value borrow the
/// frame.  The one decoder of the router's wire: [`ClusterMsg`] decodes
/// through it, and a shard's driver reads its `Submit`s with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClusterFrame<'a> {
    /// [`ClusterMsg::Submit`].
    Submit {
        router_seq: u64,
        key: &'a str,
        value: &'a [u8],
    },
    /// [`ClusterMsg::Done`].
    Done { router_seq: u64 },
    /// [`ClusterMsg::SnapRead`].
    SnapRead { req: u64 },
    /// [`ClusterMsg::SnapResp`].
    SnapResp {
        req: u64,
        applied: u64,
        keys: u64,
        digest: u64,
    },
}

impl<'a> ClusterFrame<'a> {
    fn decode(dec: &mut Decoder<'a>) -> Result<Self, CodecError> {
        Ok(match dec.get_u8()? {
            0 => ClusterFrame::Submit {
                router_seq: dec.get_u64()?,
                key: dec.get_str()?,
                value: dec.get_bytes()?,
            },
            1 => ClusterFrame::Done {
                router_seq: dec.get_u64()?,
            },
            2 => ClusterFrame::SnapRead {
                req: dec.get_u64()?,
            },
            3 => ClusterFrame::SnapResp {
                req: dec.get_u64()?,
                applied: dec.get_u64()?,
                keys: dec.get_u64()?,
                digest: dec.get_u64()?,
            },
            t => return Err(CodecError::UnknownTag(t)),
        })
    }

    /// Reads one whole frame; `None` when it is malformed.
    pub(crate) fn read(payload: &'a [u8]) -> Option<Self> {
        let mut dec = Decoder::new(payload);
        let frame = Self::decode(&mut dec).ok()?;
        dec.finish().ok()?;
        Some(frame)
    }
}

// ---------------------------------------------------------------------------
// Snapshot types
// ---------------------------------------------------------------------------

/// One shard's contribution to a [`ClusterSnapshot`]: a consistent cut of
/// that shard's ordered history (see the module-level contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFrontier {
    /// The shard index.
    pub shard: u32,
    /// Commands applied at the sequenced read point.
    pub applied: u64,
    /// Keys stored at the read point.
    pub keys: u64,
    /// State digest at the read point.
    pub digest: u64,
}

/// A completed multi-shard read snapshot: one [`ShardFrontier`] per shard,
/// in shard order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// When the router fanned the frontier reads out.
    pub requested_at: SimTime,
    /// When the last shard's frontier arrived.
    pub completed_at: SimTime,
    /// Every shard's frontier, indexed by shard.
    pub shards: Vec<ShardFrontier>,
}

// ---------------------------------------------------------------------------
// Router actor
// ---------------------------------------------------------------------------

/// A routed command awaiting completion.
#[derive(Debug, Clone)]
struct Routed {
    /// The shard the command was routed to: the only one that completes it.
    shard: u32,
    /// What a deadline-triggered resubmission needs; only when the cluster
    /// configures a command deadline.
    retry: Option<Box<Retry>>,
}

/// A routed command's resubmission state.
#[derive(Debug, Clone)]
struct Retry {
    /// The command's `Submit` frame, sent again as it is.
    frame: Bytes,
    attempts: u32,
    due: SimTime,
}

/// The client-side router: admits the open-loop arrival stream, keys and
/// routes each command to its shard's entry driver, and tracks per-shard
/// in-flight windows and end-to-end ordering latency.
pub struct ClusterRouter {
    workload: Workload,
    partitioner: Partitioner,
    /// Shard → entry driver (member 0's workload driver); a completion's
    /// sender is looked up here.
    entries: Vec<ProcessId>,
    load: LoadGen,
    key_rng: DetRng,
    /// The commands in flight, by router sequence.
    routed: SeqSlots<Routed>,
    /// Per-command deadline and retry budget; `None` disables the retry
    /// plane entirely (no frame kept for resubmission, no sweep timer).
    retry: Option<(SimDuration, u32)>,
    /// Per shard: commands routed, completed, retried and expired.
    loads: Vec<LoadStats>,
    shard_latencies: Vec<LatencyRecorder>,
    snapshot_at: Option<SimTime>,
    next_snap_req: u64,
    /// The snapshots fanned out and not yet complete: when each was
    /// requested and the frontiers received so far.
    snap_pending: BTreeMap<u64, (SimTime, BTreeMap<u32, ShardFrontier>)>,
    snapshots: Vec<ClusterSnapshot>,
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRouter")
            .field("shards", &self.entries.len())
            .field("offered", &self.offered())
            .field("submitted", &self.submitted())
            .finish()
    }
}

#[deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used
)]
impl ClusterRouter {
    /// Creates a router over the given per-shard entry drivers.
    fn new(
        workload: Workload,
        partitioner: Partitioner,
        entries: Vec<ProcessId>,
        snapshot_at: Option<SimTime>,
        retry: Option<(SimDuration, u32)>,
    ) -> Self {
        let shards = entries.len();
        Self {
            load: LoadGen::new(&workload, 0x7075_7465), // "route"
            key_rng: DetRng::new(workload.arrival_seed ^ 0x6b65_7973),
            workload,
            partitioner,
            entries,
            routed: SeqSlots::default(),
            retry,
            loads: vec![LoadStats::default(); shards],
            shard_latencies: vec![LatencyRecorder::new(); shards],
            snapshot_at,
            next_snap_req: 0,
            snap_pending: BTreeMap::new(),
            snapshots: Vec::new(),
        }
    }

    /// Arrivals generated so far (admitted or not).
    pub fn offered(&self) -> u64 {
        self.load.offered()
    }

    /// Commands routed so far, across all shards.
    pub fn submitted(&self) -> u64 {
        self.load.issued()
    }

    /// Completions received so far, across all shards.
    pub fn completed(&self) -> u64 {
        self.loads.iter().map(|l| l.completed).sum()
    }

    /// Per-shard outcomes, indexed by shard: commands routed to the shard
    /// (`submitted`), completed by it, resubmitted to it on a deadline
    /// (`retried`, zero unless the cluster sets a command deadline) and
    /// abandoned (`expired`).  The admission fields (`offered`, `shed`,
    /// `blocked`) stay 0: admission happens once, at the router, and is
    /// counted in [`ClusterRouter::load_stats`].
    ///
    /// Without a command deadline a shard's `in_flight()` grows without
    /// bound while the shard is down — the fault-isolation observable; with
    /// one, expiry returns it to zero and the loss shows up in `expired`.
    pub fn shard_loads(&self) -> &[LoadStats] {
        &self.loads
    }

    /// End-to-end ordering latencies across every shard.
    pub fn latencies(&self) -> &LatencyRecorder {
        self.load.latencies()
    }

    /// End-to-end ordering latencies of one shard.
    pub fn shard_latencies(&self, shard: u32) -> Option<&LatencyRecorder> {
        self.shard_latencies.get(shard as usize)
    }

    /// The admission counters of the router's load generator.
    pub fn load_stats(&self) -> LoadStats {
        self.load.stats()
    }

    /// When the first command was routed, if any.
    pub fn first_submit_at(&self) -> Option<SimTime> {
        self.load.first_submit_at()
    }

    /// When the last completion arrived, if any.
    pub fn last_done_at(&self) -> Option<SimTime> {
        self.load.last_done_at()
    }

    /// The completed multi-shard snapshots, in completion order.
    pub fn snapshots(&self) -> &[ClusterSnapshot] {
        &self.snapshots
    }

    /// One tick of the arrival process: route the command if it was
    /// admitted, and re-arm the arrival timer.
    fn next_arrival(&mut self, ctx: &mut dyn Context) {
        let (admitted, rearm) = self.load.on_arrival(ctx.now());
        if let Some(request) = admitted {
            self.submit(ctx, request);
        }
        if let Some(gap) = rearm {
            ctx.set_timer(gap, TIMER_ARRIVAL);
        }
    }

    /// Keys, routes and tracks one admitted command.
    fn submit(&mut self, ctx: &mut dyn Context, request: Admitted) {
        let seq = request.seq;
        let key = key_of(self.key_rng.next_u64_raw());
        let shard = self.partitioner.shard_of_bytes(&key);
        // The partitioner covers exactly the entries (`Cluster::build`
        // asserts it).
        let (Some(load), Some(&entry)) = (
            self.loads.get_mut(shard as usize),
            self.entries.get(shard as usize),
        ) else {
            return;
        };
        let frame = submit_wire(seq, &key, self.workload.payload_size);
        let retry = self.retry.map(|(deadline, _)| {
            Box::new(Retry {
                frame: frame.clone(),
                attempts: 0,
                due: ctx.now().saturating_add(deadline),
            })
        });
        self.routed.insert(seq, Routed { shard, retry });
        load.submitted = load.submitted.saturating_add(1);
        ctx.send(entry, frame.into());
    }

    /// Scans the in-flight window for commands past their deadline:
    /// resubmits those with retry budget left (same router sequence — the
    /// shard-side driver deduplicates, and a keyed `Put` is idempotent
    /// anyway) and expires the rest, freeing their client slots.
    fn sweep_deadlines(&mut self, ctx: &mut dyn Context) {
        let Some((deadline, max_retries)) = self.retry else {
            return;
        };
        let now = ctx.now();
        let due: Vec<u64> = self
            .routed
            .iter_mut()
            .filter(|(_, routed)| routed.retry.as_ref().is_some_and(|r| r.due <= now))
            .map(|(seq, _)| seq)
            .collect();
        for seq in due {
            let Some(routed) = self.routed.get_mut(seq) else {
                continue;
            };
            let shard = routed.shard as usize;
            let (Some(retry), Some(load), Some(&entry)) = (
                routed.retry.as_mut(),
                self.loads.get_mut(shard),
                self.entries.get(shard),
            ) else {
                continue;
            };
            if retry.attempts < max_retries {
                retry.attempts = retry.attempts.saturating_add(1);
                retry.due = now.saturating_add(deadline);
                load.retried = load.retried.saturating_add(1);
                ctx.send(entry, retry.frame.clone().into());
            } else {
                load.expired = load.expired.saturating_add(1);
                self.routed.remove(seq);
                if let Some(request) = self.load.abandon(seq, now) {
                    self.submit(ctx, request);
                }
            }
        }
        // Keep sweeping while anything can still enter or leave the window;
        // going quiet once the run has drained lets the runtimes settle.
        if !self.routed.is_empty() || self.offered() < self.workload.messages {
            let half = SimDuration::from_nanos(deadline.as_nanos() / 2);
            ctx.set_timer(half, TIMER_RETRY);
        }
    }

    /// Fans one sequenced frontier read to every shard.
    fn fan_snapshot(&mut self, ctx: &mut dyn Context) {
        let req = self.next_snap_req;
        self.next_snap_req = req.saturating_add(1);
        self.snap_pending.insert(req, (ctx.now(), BTreeMap::new()));
        for &entry in &self.entries {
            ctx.send(entry, ClusterMsg::SnapRead { req }.to_wire().into());
        }
    }

    /// Accounts one completion echoed back by shard `shard`.  Only the
    /// shard the command was routed to can complete it: crediting another
    /// would push that shard's `completed` past its `submitted`.
    fn on_done(&mut self, ctx: &mut dyn Context, shard: u32, router_seq: u64) {
        if self.routed.get(router_seq).map(|routed| routed.shard) != Some(shard) {
            return; // duplicate, unknown, or another shard's command
        }
        let Some(done) = self.load.complete(router_seq, ctx.now()) else {
            return;
        };
        self.routed.remove(router_seq);
        if let Some(load) = self.loads.get_mut(shard as usize) {
            load.completed = load.completed.saturating_add(1);
        }
        if let Some(latencies) = self.shard_latencies.get_mut(shard as usize) {
            latencies.record(done.span);
        }
        if let Some(request) = done.refill {
            // The completion hands its slot to a blocked arrival.
            self.submit(ctx, request);
        }
    }
}

#[deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used
)]
impl Actor for ClusterRouter {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.workload.messages > 0 {
            ctx.set_timer(self.workload.start_delay, TIMER_ARRIVAL);
            if let Some((deadline, _)) = self.retry {
                ctx.set_timer(
                    self.workload.start_delay.saturating_add(deadline),
                    TIMER_RETRY,
                );
            }
        }
        if let Some(at) = self.snapshot_at {
            ctx.set_timer(at.duration_since(ctx.now()), TIMER_SNAPSHOT);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, timer: TimerId) {
        if timer == TIMER_ARRIVAL {
            self.next_arrival(ctx);
        } else if timer == TIMER_RETRY {
            self.sweep_deadlines(ctx);
        } else if timer == TIMER_SNAPSHOT {
            self.fan_snapshot(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context, from: ProcessId, payload: Frame) {
        let payload = payload.into_bytes();
        let Some(shard) = self.entries.iter().position(|&entry| entry == from) else {
            return; // not a shard entry: dropped
        };
        let shard = shard as u32;
        match ClusterMsg::from_wire(&payload) {
            Ok(ClusterMsg::Done { router_seq }) => self.on_done(ctx, shard, router_seq),
            Ok(ClusterMsg::SnapResp {
                req,
                applied,
                keys,
                digest,
            }) => {
                let frontier = ShardFrontier {
                    shard,
                    applied,
                    keys,
                    digest,
                };
                let Entry::Occupied(mut snap) = self.snap_pending.entry(req) else {
                    return; // unknown or already complete
                };
                snap.get_mut().1.insert(shard, frontier);
                if snap.get().1.len() == self.entries.len() {
                    let (requested_at, pending) = snap.remove();
                    self.snapshots.push(ClusterSnapshot {
                        requested_at,
                        completed_at: ctx.now(),
                        shards: pending.into_values().collect(),
                    });
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> String {
        format!("cluster-router({})", self.entries.len())
    }
}

// ---------------------------------------------------------------------------
// Cluster builder
// ---------------------------------------------------------------------------

/// A typed builder for a sharded cluster: `shards` independent
/// [`SmrKvService`] groups on one runtime, driven by one [`ClusterRouter`].
pub struct Cluster {
    shards: u32,
    /// The shard template every shard is assembled from: its members,
    /// runtime, protocol, seed and scheduler, and the cluster-wide
    /// workload.
    shard: Scenario,
    partitioner: Option<Partitioner>,
    shard_faults: BTreeMap<u32, FaultSchedule>,
    snapshot_at: Option<SimTime>,
    command_deadline: Option<SimDuration>,
    max_retries: u32,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.shards)
            .field("shard", &self.shard)
            .finish()
    }
}

impl Cluster {
    /// Starts a cluster of `shards` groups of `members_per_shard` members
    /// each, with hash partitioning, the crash protocol, the paper's
    /// defaults on every other axis, and an idealised (cost-free) router
    /// node so the load generator never caps the scaling curve.
    pub fn new(shards: u32, members_per_shard: u32) -> Self {
        assert!(shards >= 1, "a cluster needs at least one shard");
        assert!(members_per_shard >= 1, "a shard needs at least one member");
        Self {
            shards,
            shard: Scenario::new(SmrKvService::new())
                .members(members_per_shard)
                .protocol(Protocol::Crash),
            partitioner: None,
            shard_faults: BTreeMap::new(),
            snapshot_at: None,
            command_deadline: None,
            max_retries: 2,
        }
    }

    /// Sets a per-command deadline on the router: a routed command that has
    /// not completed within this budget is resubmitted (up to
    /// [`Cluster::max_retries`] times, same router sequence — the shard-side
    /// driver deduplicates) and then abandoned, surfacing as
    /// `retried` / `expired` in [`ClusterRouter::shard_loads`].  Off by
    /// default: without a deadline, commands stranded by a shard outage pin
    /// that shard's `in_flight()` forever, which is the fault-isolation
    /// observable the no-retry scenarios assert on.
    ///
    /// # Panics
    ///
    /// Panics on a deadline under 2 ns: the router sweeps every
    /// half-deadline, and a zero sweep period would re-arm at the same
    /// instant forever.
    #[must_use]
    pub fn command_deadline(mut self, deadline: SimDuration) -> Self {
        assert!(
            deadline / 2 > SimDuration::ZERO,
            "a command deadline needs at least 2 ns (the router sweeps every half-deadline)"
        );
        self.command_deadline = Some(deadline);
        self
    }

    /// Bounds the resubmissions per command under
    /// [`Cluster::command_deadline`] (default 2).
    #[must_use]
    pub fn max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Selects the runtime.
    #[must_use]
    pub fn runtime(mut self, runtime: RuntimeKind) -> Self {
        self.shard.runtime = runtime;
        self
    }

    /// Selects the fault-tolerance protocol every shard runs.
    #[must_use]
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.shard.protocol = protocol;
        self
    }

    /// Sets the partitioner (default: hash over the shard count).
    ///
    /// # Panics
    ///
    /// At build time, when the partitioner's shard count differs from the
    /// cluster's.
    #[must_use]
    pub fn partitioner(mut self, partitioner: Partitioner) -> Self {
        self.partitioner = Some(partitioner);
        self
    }

    /// Sets the router-level workload: `messages` is the *cluster-wide*
    /// offered command count and `interval` the aggregate arrival gap
    /// (shards then share that stream per the partitioner).
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.shard.workload = workload;
        self
    }

    /// Sets shard `shard`'s fault schedule (member indices are local to the
    /// shard).  Other shards stay fault-free — the isolation scenarios
    /// crash one shard's sequencer while the rest keep serving.
    #[must_use]
    pub fn shard_faults(mut self, shard: u32, faults: FaultSchedule) -> Self {
        self.shard_faults.insert(shard, faults);
        self
    }

    /// Sets the deterministic seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.shard.seed = seed;
        self
    }

    /// Selects the simulator's future-event-set scheduler.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.shard.scheduler = scheduler;
        self
    }

    /// Schedules one multi-shard read snapshot at `at` (see the
    /// module-level consistency contract).
    #[must_use]
    pub fn snapshot_at(mut self, at: SimTime) -> Self {
        self.snapshot_at = Some(at);
        self
    }

    /// Builds and starts the cluster, returning the running handle.
    ///
    /// # Panics
    ///
    /// Panics when the partitioner's shard count differs from the
    /// cluster's, or when a shard's fault schedule targets processes its
    /// protocol does not deploy.
    pub fn build(mut self) -> RunningCluster {
        let shard = &mut self.shard;
        stamp_workload(&mut shard.workload, shard.seed, shard.runtime);
        // The router drives the cluster workload.  Shard drivers generate
        // no load of their own (messages = 0): every command arrives from
        // the router.  Batch policy and payload shape still come from the
        // cluster workload.
        let workload = shard.workload;
        shard.workload.messages = 0;
        shard.workload.router = Some(ROUTER_PID);
        // Nodes one shard occupies: one per member under either protocol
        // (the collapsed FS layout is the scenario default, and the cluster
        // layer does not expose the Full layout).
        let (seed, nodes_per_shard) = (shard.seed, shard.members);
        let partitioner = self
            .partitioner
            .take()
            .unwrap_or_else(|| Partitioner::hash(self.shards));
        assert_eq!(
            partitioner.shards(),
            self.shards,
            "partitioner covers {} shards but the cluster deploys {}",
            partitioner.shards(),
            self.shards,
        );
        for shard in self.shard_faults.keys() {
            assert!(
                *shard < self.shards,
                "fault schedule targets shard {shard}, which the cluster does not deploy"
            );
        }

        // The router fronts each shard's entry driver (member 0's).
        let router = |groups: &[Group]| -> Box<dyn Actor> {
            Box::new(ClusterRouter::new(
                workload,
                partitioner.clone(),
                groups.iter().map(|group| group.members[0].app).collect(),
                self.snapshot_at,
                self.command_deadline.map(|d| (d, self.max_retries)),
            ))
        };
        let mut shard_faults = std::mem::take(&mut self.shard_faults);
        let shards = (0..self.shards).map(|s| ShardAt {
            faults: shard_faults.remove(&s).unwrap_or_default(),
            // Independent key-provisioning streams per shard.
            seed: seed ^ (u64::from(s).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            pid_base: (s + 1) * PID_STRIDE,
            // The router occupies node 0.
            node_base: 1 + s * nodes_per_shard,
        });
        let front = FrontEnd {
            pid: ROUTER_PID,
            node: NodeConfig::ideal(),
            actor: &router,
        };
        let (runtime, groups) = deploy(self.shard, Some(front), shards);
        RunningCluster {
            partitioner,
            groups,
            nodes_per_shard,
            runtime,
        }
    }
}

// ---------------------------------------------------------------------------
// Running handle
// ---------------------------------------------------------------------------

/// A deployed, runnable cluster: one [`Runtime`], which it dereferences to,
/// and one [`Group`] per shard, each inspected through its
/// [`RunningCluster::shard`] view.
pub struct RunningCluster {
    partitioner: Partitioner,
    groups: Vec<Group>,
    nodes_per_shard: u32,
    runtime: Runtime,
}

impl std::fmt::Debug for RunningCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningCluster")
            .field("shards", &self.groups)
            .finish()
    }
}

impl Deref for RunningCluster {
    type Target = Runtime;

    fn deref(&self) -> &Runtime {
        &self.runtime
    }
}

impl DerefMut for RunningCluster {
    fn deref_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }
}

impl RunningCluster {
    /// Number of shards deployed.
    pub fn shards(&self) -> u32 {
        self.groups.len() as u32
    }

    /// The key → shard map this cluster routes by.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Shard `shard`'s member handles, in member order.
    pub fn shard_procs(&self, shard: u32) -> Option<&[MemberProcs]> {
        Some(&self.groups.get(shard as usize)?.members)
    }

    /// Shard `shard`'s handle: a [`Running`] view of its group on the
    /// cluster's runtime, with every per-member inspection and
    /// [`Running::check`].
    pub fn shard(&mut self, shard: u32) -> Option<Running<&mut Runtime, &Group>> {
        let group = self.groups.get(shard as usize)?;
        Some(Running {
            runtime: &mut self.runtime,
            group,
        })
    }

    /// Shard `shard`'s share of the network counters: the fold of the
    /// per-node stat cells of the contiguous node range the shard owns after
    /// the router's node 0, on either runtime.  Every counter is attributed
    /// as the cells attribute it (sends to the sending node, deliveries and
    /// handler runs to the receiving node; see [`fs_simnet::sim`]).
    pub fn shard_net(&self, shard: u32) -> Option<NetStats> {
        if shard >= self.shards() {
            return None;
        }
        let base = (1 + shard * self.nodes_per_shard) as usize;
        let nodes = self.runtime.node_stats();
        Some(
            nodes
                .get(base..base + self.nodes_per_shard as usize)?
                .iter()
                .sum(),
        )
    }

    /// The router actor, for load/latency/snapshot inspection.  On the
    /// threaded runtime this shuts the runtime down first.
    pub fn router(&mut self) -> &ClusterRouter {
        let any: &dyn std::any::Any = self
            .runtime
            .actor_dyn(ROUTER_PID)
            .expect("cluster router exists");
        any.downcast_ref::<ClusterRouter>()
            .expect("ROUTER_PID hosts the cluster router")
    }

    /// [`Running::machine_digest`] of member `member` of shard `shard`.
    pub fn machine_digest(&mut self, shard: u32, member: u32) -> Option<u64> {
        self.shard(shard)?.machine_digest(member)
    }

    /// [`Running::machine_log`] of member `member` of shard `shard`.
    pub fn machine_log(&mut self, shard: u32, member: u32) -> Option<Vec<(MemberId, u64)>> {
        self.shard(shard)?.machine_log(member)
    }

    /// The node footprint of one shard (the router occupies node 0; shard
    /// `s` starts at node `1 + s * nodes_per_shard`).
    pub fn nodes_per_shard(&self) -> u32 {
        self.nodes_per_shard
    }

    /// [`Running::check`] on every shard: every violation found, with the
    /// shard it was found in.
    pub fn check(&mut self) -> Result<(), Vec<(u32, Violation)>> {
        let violations: Vec<_> = (0..self.shards())
            .filter_map(|s| Some((s, self.shard(s)?.check().err()?)))
            .flat_map(|(s, found)| found.into_iter().map(move |v| (s, v)))
            .collect();
        violations.is_empty().then_some(()).ok_or(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::put_value;
    use fs_simnet::actor::TestContext;

    #[test]
    fn cluster_msg_round_trips() {
        let msgs = vec![
            ClusterMsg::Submit {
                router_seq: 7,
                key: "k01".into(),
                value: vec![1, 2, 3],
            },
            ClusterMsg::Done { router_seq: 7 },
            ClusterMsg::SnapRead { req: 3 },
            ClusterMsg::SnapResp {
                req: 3,
                applied: 10,
                keys: 4,
                digest: 0xfeed,
            },
        ];
        for m in msgs {
            assert_eq!(ClusterMsg::from_wire(&m.to_wire()).unwrap(), m);
        }
        assert!(ClusterMsg::from_wire(&[0xff]).is_err());
    }

    /// The router writes the bytes `ClusterMsg::Submit` encodes, for keys
    /// drawn as `format!` would print them and values of every size class
    /// (shorter than the sequence number, filler past one chunk); the
    /// driver reads them back borrowed, and a frame with trailing bytes
    /// not at all.
    #[test]
    fn router_frames_are_written_and_read_in_place() {
        for (draw, size) in [
            (0, 0),
            (0x0123_4567_89ab_cdef, 3),
            (u64::MAX, 8),
            (7, 9),
            (9, 200),
        ] {
            let key = format!("k{draw:016x}");
            assert_eq!(key.as_bytes(), key_of(draw));
            let seq = draw.rotate_left(7);
            let msg = ClusterMsg::Submit {
                router_seq: seq,
                key: key.clone(),
                value: put_value(seq, size),
            };
            let wire = submit_wire(seq, &key_of(draw), size);
            assert_eq!(wire, msg.to_wire());
            assert_eq!(
                ClusterFrame::read(&wire),
                Some(ClusterFrame::Submit {
                    router_seq: seq,
                    key: &key,
                    value: &put_value(seq, size),
                })
            );
        }
        let read = ClusterMsg::SnapRead { req: 5 }.to_wire();
        assert_eq!(
            ClusterFrame::read(&read),
            Some(ClusterFrame::SnapRead { req: 5 })
        );
        let mut trailing = read.to_vec();
        trailing.push(0);
        assert_eq!(ClusterFrame::read(&trailing), None);
    }

    #[test]
    fn hash_partitioner_is_stable_and_covers_all_shards() {
        let p = Partitioner::hash(4);
        assert_eq!(p.shards(), 4);
        let keys = router_keys(42, 256);
        let assignment = p.assignment(&keys);
        // Stable: recomputing gives the identical assignment.
        assert_eq!(p.assignment(&keys), assignment);
        // Covering: 256 uniform keys hit all 4 shards.
        let mut seen = [false; 4];
        for (_, s) in &assignment {
            assert!(*s < 4);
            seen[*s as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards own keys");
    }

    #[test]
    fn key_range_partitioner_respects_bounds() {
        let p = Partitioner::key_range(vec!["g".into(), "p".into()]);
        assert_eq!(p.shards(), 3);
        assert_eq!(p.shard_of("apple"), 0);
        assert_eq!(p.shard_of("g"), 1, "a key equal to a bound sorts above it");
        assert_eq!(p.shard_of("mango"), 1);
        assert_eq!(p.shard_of("zebra"), 2);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn key_range_rejects_unsorted_bounds() {
        let _ = Partitioner::key_range(vec!["p".into(), "g".into()]);
    }

    /// A `Done` from an entry the command was not routed to completes
    /// nothing; the owning entry's `Done` completes it.
    #[test]
    fn router_credits_a_completion_only_to_the_routed_shard() {
        let entries = vec![ProcessId(10), ProcessId(20)];
        let mut router = ClusterRouter::new(
            Workload::quick(1),
            Partitioner::hash(2),
            entries.clone(),
            None,
            None,
        );
        let mut ctx = TestContext::new(ProcessId(0));
        router.on_start(&mut ctx);
        router.on_timer(&mut ctx, TIMER_ARRIVAL);
        let [routed] = ctx.take_sent().try_into().expect("one command routed");
        let Ok(ClusterMsg::Submit { router_seq, .. }) =
            ClusterMsg::from_wire(&routed.payload.to_bytes())
        else {
            panic!("the router submits the command");
        };
        let owner = entries.iter().position(|&e| e == routed.to).unwrap();
        let done = || Frame::from(ClusterMsg::Done { router_seq }.to_wire());

        router.on_message(&mut ctx, entries[1 - owner], done());
        assert_eq!(router.completed(), 0);
        assert_eq!(router.shard_loads()[owner].in_flight(), 1);
        assert_eq!(router.shard_loads()[1 - owner], LoadStats::default());

        router.on_message(&mut ctx, entries[owner], done());
        assert_eq!(router.completed(), 1);
        assert_eq!(router.shard_loads()[owner].in_flight(), 0);
    }

    /// Completions and snapshot responses from entries and from strangers,
    /// `u64::MAX` and unknown sequence numbers, duplicates, and every
    /// truncation of a valid frame, interleaved with retry sweeps that
    /// expire commands: nothing panics, and no shard ever has more
    /// commands completed or expired than it was sent.
    #[test]
    fn hostile_frames_never_panic_the_router_or_overcount_a_shard() {
        let entries = [ProcessId(10), ProcessId(20)];
        let stranger = ProcessId(99);
        let deadline = SimDuration::from_millis(4);
        let mut router = ClusterRouter::new(
            Workload::quick(6),
            Partitioner::hash(2),
            entries.to_vec(),
            Some(SimTime::ZERO),
            Some((deadline, 1)),
        );
        let mut ctx = TestContext::new(ROUTER_PID);
        router.on_start(&mut ctx);
        for _ in 0..6 {
            router.on_timer(&mut ctx, TIMER_ARRIVAL);
        }
        router.on_timer(&mut ctx, TIMER_SNAPSHOT);
        let routed: Vec<(ProcessId, u64)> = ctx
            .take_sent()
            .iter()
            .filter_map(
                |sent| match ClusterMsg::from_wire(&sent.payload.to_bytes()) {
                    Ok(ClusterMsg::Submit { router_seq, .. }) => Some((sent.to, router_seq)),
                    _ => None,
                },
            )
            .collect();
        assert_eq!(routed.len(), 6);

        let done = |router_seq| ClusterMsg::Done { router_seq }.to_wire();
        let resp = |req| {
            let msg = ClusterMsg::SnapResp {
                req,
                applied: u64::MAX,
                keys: u64::MAX,
                digest: 0,
            };
            msg.to_wire()
        };
        let mut frames = Vec::new();
        for &(owner, seq) in &routed {
            let other = if owner == entries[0] {
                entries[1]
            } else {
                entries[0]
            };
            for from in [other, stranger, owner, owner] {
                frames.push((from, done(seq)));
            }
        }
        for from in [entries[0], stranger, entries[0], entries[1], entries[1]] {
            frames.push((from, resp(0)));
        }
        for from in [entries[0], entries[1], stranger] {
            frames.push((from, done(u64::MAX)));
            frames.push((from, done(1 << 40)));
            frames.push((from, resp(u64::MAX)));
            frames.push((from, resp(7)));
        }
        let valid = [
            done(routed[0].1),
            resp(0),
            ClusterMsg::SnapRead { req: 0 }.to_wire(),
            submit_wire(u64::MAX, b"k0", 9),
        ];
        for wire in &valid {
            for len in 0..wire.len() {
                frames.push((entries[0], wire.slice(..len)));
            }
            frames.push((entries[1], wire.clone()));
        }

        for (i, (from, wire)) in frames.into_iter().enumerate() {
            router.on_message(&mut ctx, from, wire.into());
            if i % 5 == 0 {
                ctx.advance(SimDuration::from_millis(3));
                router.on_timer(&mut ctx, TIMER_RETRY);
            }
            for load in router.shard_loads() {
                assert!(load.completed + load.expired <= load.submitted, "{load:?}");
            }
        }
        let loads = router.shard_loads();
        assert!(loads.iter().any(|load| load.completed > 0), "{loads:?}");
        assert!(loads.iter().any(|load| load.expired > 0), "{loads:?}");
        assert_eq!(router.snapshots().len(), 1, "one snapshot, completed once");
    }

    #[test]
    #[should_panic(expected = "at least 2 ns")]
    fn command_deadline_under_2_ns_panics() {
        let _ = Cluster::new(1, 3).command_deadline(SimDuration::from_nanos(1));
    }

    #[test]
    fn router_key_stream_is_deterministic() {
        assert_eq!(router_keys(9, 8), router_keys(9, 8));
        assert_ne!(router_keys(9, 8), router_keys(10, 8));
        // The stream is a prefix-stable sequence.
        assert_eq!(router_keys(9, 4), router_keys(9, 8)[..4].to_vec());
    }

    #[test]
    fn two_shard_cluster_completes_and_isolates_keys() {
        let mut cluster = Cluster::new(2, 3)
            .workload(Workload::quick(20).interval(SimDuration::from_millis(10)))
            .seed(7)
            .build();
        cluster.run_until(SimTime::from_secs(300));
        let router = cluster.router();
        assert_eq!(router.completed(), 20, "every routed command completed");
        assert!(router.latencies().summary().is_some());
        let loads = router.shard_loads().to_vec();
        assert_eq!(loads.iter().map(|l| l.submitted).sum::<u64>(), 20);
        assert!(loads.iter().all(|l| l.in_flight() == 0));
        // Both shards made progress and their members agree internally.
        assert!(
            loads.iter().all(|l| l.completed > 0),
            "every shard served keys"
        );
        cluster.check().unwrap();
        // Shards hold different keys: digests differ.
        assert_ne!(
            cluster.machine_digest(0, 0),
            cluster.machine_digest(1, 0),
            "different key sets yield different state"
        );
        assert!(cluster.stats().messages_sent > 0);
        assert_cells_add_up(&cluster);
    }

    #[test]
    fn a_threaded_clusters_cells_add_up() {
        let mut cluster = Cluster::new(2, 3)
            .runtime(RuntimeKind::Threaded)
            .workload(Workload::quick(20).interval(SimDuration::from_millis(10)))
            .seed(7)
            .build();
        cluster.run_until(SimTime::from_secs(60));
        assert_eq!(cluster.router().completed(), 20);
        assert_cells_add_up(&cluster);
    }

    /// On a settled cluster, the router node's cell, every shard's
    /// [`RunningCluster::shard_net`] and the cell no node owns add up, field
    /// by field, to `stats()`: the node layout `shard_net` slices
    /// (`1 + s * nodes_per_shard`) covers every node once.
    fn assert_cells_add_up(cluster: &RunningCluster) {
        let cells = cluster.cells();
        let shards = cluster.shards();
        assert_eq!(cells.len() as u32, 1 + shards * cluster.nodes_per_shard + 1);
        let mut sum = cells[0].clone();
        for shard in 0..shards {
            let net = cluster.shard_net(shard).unwrap();
            assert!(net.messages_sent > 0, "shard {shard} sent nothing");
            sum.merge(&net);
        }
        sum.merge(&cells[cells.len() - 1]);
        assert_eq!(sum, cluster.stats());
        assert_eq!(cluster.shard_net(shards), None);
    }

    #[test]
    fn snapshot_assembles_one_frontier_per_shard() {
        let mut cluster = Cluster::new(2, 3)
            .workload(Workload::quick(10).interval(SimDuration::from_millis(5)))
            .seed(11)
            .snapshot_at(SimTime::from_secs(2))
            .build();
        cluster.run_until(SimTime::from_secs(300));
        let snapshots = cluster.router().snapshots();
        assert_eq!(snapshots.len(), 1);
        let snap = &snapshots[0];
        assert_eq!(snap.shards.len(), 2);
        assert!(snap.completed_at >= snap.requested_at);
        for (s, frontier) in snap.shards.iter().enumerate() {
            assert_eq!(frontier.shard, s as u32);
            // The frontier read itself is applied, so applied >= 1.
            assert!(frontier.applied >= 1, "shard {s} frontier applied");
        }
    }
}
