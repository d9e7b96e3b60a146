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
//! [`RunningCluster::shard_load`].
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
//! client's admission slot.  [`ShardLoad`] accounts the outcome per shard
//! (`retried`/`expired`), and `in_flight()` drains to zero even when the
//! shard never comes back.
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

use std::collections::BTreeMap;

use fs_common::codec::{Decoder, Encoder, Wire};
use fs_common::error::CodecError;
use fs_common::id::{MemberId, ProcessId};
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};
use fs_common::Frame;
use fs_simnet::actor::{Actor, Context, TimerId};
use fs_simnet::link::Topology;
use fs_simnet::load::{Admitted, LoadGen, LoadStats};
use fs_simnet::node::NodeConfig;
use fs_simnet::sched::SchedulerKind;
use fs_simnet::trace::{LatencyRecorder, LatencySummary, NetStats, TraceLog};

use crate::deployment::{deploy, stamp_workload, FrontEnd, RuntimeSlot, ShardAt};
use crate::faults::FaultSchedule;
use crate::scenario::{MemberProcs, Protocol, RuntimeKind, Scenario};
use crate::service::{put_value, SmrKvService};
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
        match self {
            Partitioner::Hash { shards } => {
                let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
                for b in key.as_bytes() {
                    acc = (acc ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
                }
                (acc % u64::from(*shards)) as u32
            }
            Partitioner::KeyRange { bounds } => {
                bounds.partition_point(|b| b.as_str() <= key) as u32
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
        .map(|_| format!("k{:016x}", rng.next_u64_raw()))
        .collect()
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
        match dec.get_u8()? {
            0 => Ok(ClusterMsg::Submit {
                router_seq: dec.get_u64()?,
                key: dec.get_str()?.to_owned(),
                value: dec.get_bytes_owned()?,
            }),
            1 => Ok(ClusterMsg::Done {
                router_seq: dec.get_u64()?,
            }),
            2 => Ok(ClusterMsg::SnapRead {
                req: dec.get_u64()?,
            }),
            3 => Ok(ClusterMsg::SnapResp {
                req: dec.get_u64()?,
                applied: dec.get_u64()?,
                keys: dec.get_u64()?,
                digest: dec.get_u64()?,
            }),
            t => Err(CodecError::UnknownTag(t)),
        }
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

/// Per-shard router-side load tracking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Commands routed to the shard.
    pub submitted: u64,
    /// Completions received back from the shard.
    pub completed: u64,
    /// Deadline-triggered resubmissions of still-pending commands (counted
    /// per resubmission, not per command; zero unless the cluster sets a
    /// command deadline).
    pub retried: u64,
    /// Commands abandoned after exhausting their retry budget.
    pub expired: u64,
}

impl ShardLoad {
    /// Commands submitted but neither completed nor expired.  Without a
    /// command deadline this grows without bound while the shard is down —
    /// exactly the observable the fault-isolation scenarios assert on; with
    /// one, expiry returns the window to zero and the loss shows up in
    /// [`ShardLoad::expired`] instead.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.completed - self.expired
    }
}

/// A routed command awaiting completion, kept for deadline-triggered
/// resubmission (only when the cluster configures a command deadline).
#[derive(Debug, Clone)]
struct PendingCommand {
    key: String,
    value: Vec<u8>,
    attempts: u32,
    due: SimTime,
}

/// The client-side router: admits the open-loop arrival stream, keys and
/// routes each command to its shard's entry driver, and tracks per-shard
/// in-flight windows and end-to-end ordering latency.
pub struct ClusterRouter {
    workload: Workload,
    partitioner: Partitioner,
    /// Shard → entry driver (member 0's workload driver).
    entries: Vec<ProcessId>,
    /// Reverse map: entry driver → shard, for classifying completions.
    shard_of_entry: BTreeMap<ProcessId, u32>,
    load: LoadGen,
    key_rng: DetRng,
    shard_of_seq: BTreeMap<u64, u32>,
    /// Per-command deadline and retry budget; `None` disables the retry
    /// plane entirely (no pending copies, no sweep timer).
    retry: Option<(SimDuration, u32)>,
    /// In-flight commands kept for resubmission, by router sequence.
    pending: BTreeMap<u64, PendingCommand>,
    loads: Vec<ShardLoad>,
    shard_latencies: Vec<LatencyRecorder>,
    snapshot_at: Option<SimTime>,
    next_snap_req: u64,
    snap_requested_at: BTreeMap<u64, SimTime>,
    snap_pending: BTreeMap<u64, BTreeMap<u32, ShardFrontier>>,
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
        let shard_of_entry = entries
            .iter()
            .enumerate()
            .map(|(s, &pid)| (pid, s as u32))
            .collect();
        Self {
            load: LoadGen::new(&workload, 0x7075_7465), // "route"
            key_rng: DetRng::new(workload.arrival_seed ^ 0x6b65_7973),
            workload,
            partitioner,
            entries,
            shard_of_entry,
            shard_of_seq: BTreeMap::new(),
            retry,
            pending: BTreeMap::new(),
            loads: vec![ShardLoad::default(); shards],
            shard_latencies: vec![LatencyRecorder::new(); shards],
            snapshot_at,
            next_snap_req: 0,
            snap_requested_at: BTreeMap::new(),
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

    /// Per-shard submitted/completed counters, indexed by shard.
    pub fn shard_loads(&self) -> &[ShardLoad] {
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
        let key = format!("k{:016x}", self.key_rng.next_u64_raw());
        let shard = self.partitioner.shard_of(&key);
        let value = put_value(seq, self.workload.payload_size);
        let now = ctx.now();
        self.shard_of_seq.insert(seq, shard);
        self.loads[shard as usize].submitted += 1;
        if let Some((deadline, _)) = self.retry {
            self.pending.insert(
                seq,
                PendingCommand {
                    key: key.clone(),
                    value: value.clone(),
                    attempts: 0,
                    due: now.saturating_add(deadline),
                },
            );
        }
        ctx.send(
            self.entries[shard as usize],
            ClusterMsg::Submit {
                router_seq: seq,
                key,
                value,
            }
            .to_wire()
            .into(),
        );
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
            .pending
            .iter()
            .filter(|(_, p)| p.due <= now)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in due {
            let shard = self.shard_of_seq[&seq] as usize;
            let entry = self.pending.get_mut(&seq).expect("swept seq is pending");
            if entry.attempts < max_retries {
                entry.attempts += 1;
                entry.due = now.saturating_add(deadline);
                self.loads[shard].retried += 1;
                ctx.send(
                    self.entries[shard],
                    ClusterMsg::Submit {
                        router_seq: seq,
                        key: entry.key.clone(),
                        value: entry.value.clone(),
                    }
                    .to_wire()
                    .into(),
                );
            } else {
                self.pending.remove(&seq);
                self.shard_of_seq.remove(&seq);
                self.loads[shard].expired += 1;
                if let Some(request) = self.load.abandon(seq, now) {
                    self.submit(ctx, request);
                }
            }
        }
        // Keep sweeping while anything can still enter or leave the window;
        // going quiet once the run has drained lets the runtimes settle.
        if !self.pending.is_empty() || self.offered() < self.workload.messages {
            ctx.set_timer(deadline / 2, TIMER_RETRY);
        }
    }

    /// Fans one sequenced frontier read to every shard.
    fn fan_snapshot(&mut self, ctx: &mut dyn Context) {
        let req = self.next_snap_req;
        self.next_snap_req += 1;
        self.snap_requested_at.insert(req, ctx.now());
        self.snap_pending.insert(req, BTreeMap::new());
        for &entry in &self.entries {
            ctx.send(entry, ClusterMsg::SnapRead { req }.to_wire().into());
        }
    }

    /// Accounts one completion echoed back by shard `shard`.
    fn on_done(&mut self, ctx: &mut dyn Context, shard: u32, router_seq: u64) {
        let Some(done) = self.load.complete(router_seq, ctx.now()) else {
            return; // duplicate or unknown completion
        };
        self.shard_of_seq.remove(&router_seq);
        self.pending.remove(&router_seq);
        self.loads[shard as usize].completed += 1;
        self.shard_latencies[shard as usize].record(done.span);
        if let Some(request) = done.refill {
            // The completion hands its slot to a blocked arrival.
            self.submit(ctx, request);
        }
    }
}

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
        let Some(&shard) = self.shard_of_entry.get(&from) else {
            return; // not a shard entry: dropped
        };
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
                if let Some(pending) = self.snap_pending.get_mut(&req) {
                    pending.insert(shard, frontier);
                    if pending.len() == self.entries.len() {
                        let pending = self.snap_pending.remove(&req).expect("pending");
                        let requested_at = self
                            .snap_requested_at
                            .remove(&req)
                            .expect("snapshot request time");
                        self.snapshots.push(ClusterSnapshot {
                            requested_at,
                            completed_at: ctx.now(),
                            shards: pending.into_values().collect(),
                        });
                    }
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
    members_per_shard: u32,
    runtime: RuntimeKind,
    protocol: Protocol,
    partitioner: Option<Partitioner>,
    workload: Workload,
    shard_faults: BTreeMap<u32, FaultSchedule>,
    node: NodeConfig,
    seed: u64,
    scheduler: SchedulerKind,
    topology: Option<Topology>,
    snapshot_at: Option<SimTime>,
    command_deadline: Option<SimDuration>,
    max_retries: u32,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.shards)
            .field("members_per_shard", &self.members_per_shard)
            .field("runtime", &self.runtime)
            .field("protocol", &self.protocol)
            .finish()
    }
}

impl Cluster {
    /// Starts a cluster of `shards` groups of `members_per_shard` members
    /// each, with hash partitioning, the paper's defaults on every other
    /// axis, and an idealised (cost-free) router node so the load generator
    /// never caps the scaling curve.
    pub fn new(shards: u32, members_per_shard: u32) -> Self {
        assert!(shards >= 1, "a cluster needs at least one shard");
        assert!(members_per_shard >= 1, "a shard needs at least one member");
        Self {
            shards,
            members_per_shard,
            runtime: RuntimeKind::Sim,
            protocol: Protocol::Crash,
            partitioner: None,
            workload: Workload::paper_default(),
            shard_faults: BTreeMap::new(),
            node: NodeConfig::era_2003(),
            seed: 2003,
            scheduler: SchedulerKind::default(),
            topology: None,
            snapshot_at: None,
            command_deadline: None,
            max_retries: 2,
        }
    }

    /// Sets a per-command deadline on the router: a routed command that has
    /// not completed within this budget is resubmitted (up to
    /// [`Cluster::max_retries`] times, same router sequence — the shard-side
    /// driver deduplicates) and then abandoned, surfacing as
    /// [`ShardLoad::retried`] / [`ShardLoad::expired`].  Off by default:
    /// without a deadline, commands stranded by a shard outage pin
    /// [`ShardLoad::in_flight`] forever, which is the fault-isolation
    /// observable the no-retry scenarios assert on.
    #[must_use]
    pub fn command_deadline(mut self, deadline: SimDuration) -> Self {
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
        self.runtime = runtime;
        self
    }

    /// Selects the fault-tolerance protocol every shard runs.
    #[must_use]
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
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
        self.workload = workload;
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

    /// Sets the per-node configuration of every shard node.
    #[must_use]
    pub fn node_config(mut self, node: NodeConfig) -> Self {
        self.node = node;
        self
    }

    /// Sets the deterministic seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the simulator's future-event-set scheduler.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the deployment topology explicitly (default: the paper's
    /// lightly loaded 100 Mb/s LAN between every pair of nodes).  Node 0 is
    /// the router; shard `s`'s members start at node `1 + s * k` where `k`
    /// is the shard's node footprint.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Schedules one multi-shard read snapshot at `at` (see the
    /// module-level consistency contract).
    #[must_use]
    pub fn snapshot_at(mut self, at: SimTime) -> Self {
        self.snapshot_at = Some(at);
        self
    }

    /// Nodes one shard occupies: one per member under either protocol (the
    /// collapsed FS layout is the scenario default, and the cluster layer
    /// does not expose the Full layout).
    fn nodes_per_shard(&self) -> u32 {
        self.members_per_shard
    }

    /// The shard-local [`Scenario`] used to assemble shard `shard`.
    fn shard_scenario(&self, shard: u32) -> Scenario {
        // Shard drivers generate no load of their own (messages = 0): every
        // command arrives from the router.  Batch policy and payload shape
        // still come from the cluster workload.
        let mut shard_workload = self.workload;
        shard_workload.messages = 0;
        shard_workload.router = Some(ROUTER_PID);
        Scenario::new(SmrKvService::new())
            .members(self.members_per_shard)
            .protocol(self.protocol)
            .workload(shard_workload)
            .faults(
                self.shard_faults
                    .get(&shard)
                    .cloned()
                    .unwrap_or_else(FaultSchedule::none),
            )
            .node_config(self.node)
            // Independent key-provisioning and fault streams per shard.
            .seed(self.seed ^ (u64::from(shard).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Builds and starts the cluster, returning the running handle.
    ///
    /// # Panics
    ///
    /// Panics when the partitioner's shard count differs from the
    /// cluster's, or when a shard's fault schedule targets processes its
    /// protocol does not deploy.
    pub fn build(mut self) -> RunningCluster {
        stamp_workload(&mut self.workload, self.seed, self.runtime);
        let partitioner = self
            .partitioner
            .clone()
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

        let nodes_per_shard = self.nodes_per_shard();
        let topology = self.topology.take();
        // The router fronts each shard's entry driver (member 0's).
        let router = |shard_members: &[Vec<MemberProcs>]| -> Box<dyn Actor> {
            Box::new(ClusterRouter::new(
                self.workload,
                partitioner.clone(),
                shard_members.iter().map(|members| members[0].app).collect(),
                self.snapshot_at,
                self.command_deadline.map(|d| (d, self.max_retries)),
            ))
        };
        let (slot, shard_members) = deploy(
            self.runtime,
            self.seed,
            self.scheduler,
            topology,
            Some(FrontEnd {
                pid: ROUTER_PID,
                node: NodeConfig::ideal(),
                actor: &router,
            }),
            (0..self.shards).map(|s| ShardAt {
                scenario: self.shard_scenario(s),
                pid_base: pid_base(s),
                // The router occupies node 0.
                node_base: 1 + s * nodes_per_shard,
            }),
        );

        RunningCluster {
            protocol: self.protocol,
            runtime: self.runtime,
            partitioner,
            shard_members,
            nodes_per_shard,
            slot,
        }
    }
}

/// The pid block base of shard `s`.
fn pid_base(s: u32) -> u32 {
    (s + 1) * PID_STRIDE
}

// ---------------------------------------------------------------------------
// Running handle
// ---------------------------------------------------------------------------

/// A deployed, runnable cluster: the sharded counterpart of
/// [`crate::Running`], sharing its internal `RuntimeSlot`
/// drive/settle/inspect machinery.
pub struct RunningCluster {
    protocol: Protocol,
    runtime: RuntimeKind,
    partitioner: Partitioner,
    shard_members: Vec<Vec<MemberProcs>>,
    nodes_per_shard: u32,
    slot: RuntimeSlot,
}

impl std::fmt::Debug for RunningCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningCluster")
            .field("shards", &self.shard_members.len())
            .field("protocol", &self.protocol)
            .field("runtime", &self.runtime)
            .finish()
    }
}

impl RunningCluster {
    /// Number of shards deployed.
    pub fn shards(&self) -> u32 {
        self.shard_members.len() as u32
    }

    /// The protocol every shard runs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The runtime the cluster runs on.
    pub fn runtime_kind(&self) -> RuntimeKind {
        self.runtime
    }

    /// The key → shard map this cluster routes by.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Shard `shard`'s member handles, in member order.
    pub fn shard_procs(&self, shard: u32) -> Option<&[MemberProcs]> {
        self.shard_members.get(shard as usize).map(Vec::as_slice)
    }

    /// Drives the cluster until `horizon` and returns the reached time
    /// (same semantics as [`crate::Running::run_until`]).
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        self.slot.run_until(horizon)
    }

    /// Enables event tracing (simulator only).  Call before
    /// [`RunningCluster::run_until`].
    pub fn enable_trace(&mut self) {
        self.slot.enable_trace();
    }

    /// The recorded trace, when tracing was enabled on the simulator.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.slot.trace()
    }

    /// The runtime-wide aggregate network statistics (both runtimes).
    pub fn stats(&self) -> NetStats {
        self.slot.stats()
    }

    /// Shard `shard`'s share of the network counters.
    ///
    /// On the simulator this is derived from the per-process counters, so
    /// only the send / delivery / byte fields are attributable and the
    /// runtime-global fields stay zero.  On the threaded runtime it folds
    /// the shard's per-node stat cells (every full counter, including
    /// `busy_ns`), since shard `s` owns the contiguous node range after the
    /// router's node 0.
    pub fn shard_net(&self, shard: u32) -> Option<NetStats> {
        let members = self.shard_members.get(shard as usize)?;
        if let Some(nodes) = self.slot.node_stats() {
            let base = (1 + shard * self.nodes_per_shard) as usize;
            let span = self.nodes_per_shard as usize;
            let mut stats = NetStats::default();
            for node in nodes.get(base..base + span)? {
                stats.merge(node);
            }
            return Some(stats);
        }
        let sim = self.slot.sim()?;
        let counters = sim.counters();
        let base = pid_base(shard);
        let span = match self.protocol {
            Protocol::Crash => 2 * members.len() as u32,
            Protocol::FailSignal => 4 * members.len() as u32,
        };
        let mut stats = NetStats::default();
        for pid in base..base + span {
            let c = counters.of(ProcessId(pid));
            stats.messages_sent += c.sent;
            stats.messages_delivered += c.received;
            stats.bytes_sent += c.bytes_sent;
        }
        Some(stats)
    }

    /// Every shard's [`RunningCluster::shard_net`] folded through
    /// [`NetStats::merge`] — the cluster-level aggregation path (simulator
    /// only).  Router traffic is not included, so the merged send count is
    /// a lower bound on [`RunningCluster::stats`].
    pub fn shards_net_merged(&self) -> Option<NetStats> {
        let mut merged = NetStats::default();
        for s in 0..self.shards() {
            merged.merge(&self.shard_net(s)?);
        }
        Some(merged)
    }

    /// Shuts down the threaded runtime (if any) and collects its actors
    /// for inspection.  Idempotent; a no-op on the simulator.
    pub fn settle(&mut self) {
        self.slot.settle();
    }

    /// The router actor, for load/latency/snapshot inspection.  On the
    /// threaded runtime this shuts the runtime down first.
    pub fn router(&mut self) -> &ClusterRouter {
        let any: &dyn std::any::Any = self
            .slot
            .actor_dyn(ROUTER_PID)
            .expect("cluster router exists");
        any.downcast_ref::<ClusterRouter>()
            .expect("ROUTER_PID hosts the cluster router")
    }

    /// Per-shard submitted/completed counters, indexed by shard.
    pub fn shard_loads(&mut self) -> Vec<ShardLoad> {
        self.router().shard_loads().to_vec()
    }

    /// Shard `shard`'s router-side load counters.
    pub fn shard_load(&mut self, shard: u32) -> Option<ShardLoad> {
        self.router().shard_loads().get(shard as usize).copied()
    }

    /// Completions received across every shard.
    pub fn completed(&mut self) -> u64 {
        self.router().completed()
    }

    /// The aggregated end-to-end latency summary across every shard,
    /// `None` when nothing completed.
    pub fn latency_summary(&mut self) -> Option<LatencySummary> {
        self.router().latencies().summary()
    }

    /// Shard `shard`'s end-to-end latency summary, `None` when the shard
    /// completed nothing.
    pub fn shard_latency_summary(&mut self, shard: u32) -> Option<LatencySummary> {
        self.router().shard_latencies(shard)?.summary()
    }

    /// The router's admission counters.
    pub fn load_stats(&mut self) -> LoadStats {
        self.router().load_stats()
    }

    /// The completed multi-shard snapshots, in completion order.
    pub fn snapshots(&mut self) -> Vec<ClusterSnapshot> {
        self.router().snapshots().to_vec()
    }

    /// Member `member` of shard `shard`'s machine-level state digest (see
    /// [`crate::Running::machine_digest`]).
    pub fn machine_digest(&mut self, shard: u32, member: u32) -> Option<u64> {
        let procs = *self
            .shard_members
            .get(shard as usize)?
            .get(member as usize)?;
        self.slot.machine_at(self.protocol, &procs)?.app_digest()
    }

    /// Member `member` of shard `shard`'s machine-level delivery log (see
    /// [`crate::Running::machine_log`]).
    pub fn machine_log(&mut self, shard: u32, member: u32) -> Option<Vec<(MemberId, u64)>> {
        let procs = *self
            .shard_members
            .get(shard as usize)?
            .get(member as usize)?;
        self.slot.machine_at(self.protocol, &procs)?.delivered_log()
    }

    /// The node footprint of one shard (the router occupies node 0; shard
    /// `s` starts at node `1 + s * nodes_per_shard`).
    pub fn nodes_per_shard(&self) -> u32 {
        self.nodes_per_shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(cluster.completed(), 20, "every routed command completed");
        let loads = cluster.shard_loads();
        assert_eq!(loads.iter().map(|l| l.submitted).sum::<u64>(), 20);
        assert!(loads.iter().all(|l| l.in_flight() == 0));
        // Both shards made progress and their machines agree internally.
        for s in 0..2 {
            assert!(loads[s as usize].completed > 0, "shard {s} served keys");
            let d0 = cluster.machine_digest(s, 0).expect("digest");
            for m in 1..3 {
                assert_eq!(
                    cluster.machine_digest(s, m),
                    Some(d0),
                    "shard {s} member {m}"
                );
            }
        }
        // Shards hold different keys: digests differ.
        assert_ne!(
            cluster.machine_digest(0, 0),
            cluster.machine_digest(1, 0),
            "different key sets yield different state"
        );
        assert!(cluster.latency_summary().is_some());
        let stats = cluster.stats();
        assert!(stats.messages_sent > 0);
        let merged = cluster.shards_net_merged().expect("sim counters");
        assert!(merged.messages_sent > 0);
        assert!(merged.messages_sent <= stats.messages_sent);
    }

    #[test]
    fn snapshot_assembles_one_frontier_per_shard() {
        let mut cluster = Cluster::new(2, 3)
            .workload(Workload::quick(10).interval(SimDuration::from_millis(5)))
            .seed(11)
            .snapshot_at(SimTime::from_secs(2))
            .build();
        cluster.run_until(SimTime::from_secs(300));
        let snapshots = cluster.snapshots();
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
