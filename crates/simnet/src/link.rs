//! Network link models and the deployment topology.
//!
//! The paper's deployment (Figures 4 and 5) uses two kinds of interconnect:
//!
//! * a **synchronous LAN** between the two nodes of each fail-signal pair,
//!   with a *known* delay bound δ (assumption A2) — modelled by
//!   [`LinkModel::SyncLan`], whose delays never exceed the bound;
//! * an **asynchronous network** between different FS processes / group
//!   members, with no known bound — modelled by [`LinkModel::AsyncNet`],
//!   whose delays follow a configurable heavy-tailed distribution and may be
//!   dropped or inflated during injected partitions.
//!
//! The experimental set-up of §4 replaces the asynchronous network with a
//! lightly loaded 100 Mb/s LAN so that NewTOP's timeouts never fire; the
//! benchmark harness builds exactly that topology.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use fs_common::id::NodeId;
use fs_common::rng::DetRng;
use fs_common::time::{SimDuration, SimTime};

/// How a link delays (or drops) messages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinkModel {
    /// A synchronous LAN with a hard delay bound.
    ///
    /// Delay = `base + size/bandwidth + jitter`, where jitter is uniform in
    /// `[0, jitter_max]`; the constructor checks that the worst case stays
    /// within the advertised bound δ.
    SyncLan {
        /// Fixed propagation plus switching latency.
        base: SimDuration,
        /// Bandwidth in bytes per second (100 Mb/s ≈ 12.5 MB/s in the paper).
        bandwidth_bps: u64,
        /// Maximum additional uniform jitter.
        jitter_max: SimDuration,
    },
    /// An asynchronous network: no delay bound is known to the protocols.
    ///
    /// Delay = `base + size/bandwidth + Exp(jitter_mean)`, optionally dropped
    /// with probability `drop_prob`.
    AsyncNet {
        /// Fixed propagation latency.
        base: SimDuration,
        /// Bandwidth in bytes per second.
        bandwidth_bps: u64,
        /// Mean of the exponential jitter component.
        jitter_mean: SimDuration,
        /// Probability that a message is silently dropped.
        drop_prob: f64,
    },
    /// Local delivery on the same node (loopback through the ORB).
    Loopback {
        /// Fixed cost of an in-node delivery.
        cost: SimDuration,
    },
}

impl LinkModel {
    /// A 100 Mb/s switched-Ethernet LAN segment as used in the paper's
    /// experiments: ~100 µs base latency, 12.5 MB/s, up to 100 µs jitter.
    pub fn lan_100mbps() -> Self {
        LinkModel::SyncLan {
            base: SimDuration::from_micros(100),
            bandwidth_bps: 12_500_000,
            jitter_max: SimDuration::from_micros(100),
        }
    }

    /// A wide-area asynchronous network with tens of milliseconds of latency
    /// and occasional large jitter; used by the partition/suspicion
    /// experiments, not by the paper's figures.
    pub fn wan() -> Self {
        LinkModel::AsyncNet {
            base: SimDuration::from_millis(20),
            bandwidth_bps: 1_250_000,
            jitter_mean: SimDuration::from_millis(10),
            drop_prob: 0.0,
        }
    }

    /// Loopback with a small constant cost.
    pub fn loopback() -> Self {
        LinkModel::Loopback {
            cost: SimDuration::from_micros(20),
        }
    }

    /// Computes the delay for a message of `size` bytes, or `None` if the
    /// message is dropped.
    pub fn delay(&self, size: usize, rng: &mut DetRng) -> Option<SimDuration> {
        match *self {
            LinkModel::SyncLan {
                base,
                bandwidth_bps,
                jitter_max,
            } => {
                let tx = transmission_time(size, bandwidth_bps);
                let jitter = if jitter_max.is_zero() {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(rng.below(jitter_max.as_nanos().max(1)))
                };
                Some(base + tx + jitter)
            }
            LinkModel::AsyncNet {
                base,
                bandwidth_bps,
                jitter_mean,
                drop_prob,
            } => {
                if rng.chance(drop_prob) {
                    return None;
                }
                let tx = transmission_time(size, bandwidth_bps);
                let jitter =
                    SimDuration::from_nanos(rng.exponential(jitter_mean.as_nanos() as f64) as u64);
                Some(base + tx + jitter)
            }
            LinkModel::Loopback { cost } => Some(cost),
        }
    }

    /// The worst-case delay of the link for a message of `size` bytes, if a
    /// bound exists (synchronous links only).
    pub fn worst_case(&self, size: usize) -> Option<SimDuration> {
        match *self {
            LinkModel::SyncLan {
                base,
                bandwidth_bps,
                jitter_max,
            } => Some(base + transmission_time(size, bandwidth_bps) + jitter_max),
            LinkModel::AsyncNet { .. } => None,
            LinkModel::Loopback { cost } => Some(cost),
        }
    }
}

fn transmission_time(size: usize, bandwidth_bps: u64) -> SimDuration {
    if bandwidth_bps == 0 {
        return SimDuration::ZERO;
    }
    SimDuration::from_nanos((size as u64).saturating_mul(1_000_000_000) / bandwidth_bps)
}

/// What a scheduled fault does to the links it targets — the vocabulary of
/// the network fault plane.
///
/// A fault is *stateful*: it stays in effect until a later [`LinkFault::Heal`]
/// clears it.  Partition experiments therefore schedule a `Sever` followed by
/// a `Heal`; degradation experiments schedule `Loss`/`Delay`/`Throttle`
/// entries and optionally heal them later.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LinkFault {
    /// Drop every message (a partition along the targeted links).
    Sever,
    /// Restore the targeted links: clears severing *and* any degradation.
    Heal,
    /// Drop each message independently with the given probability.
    Loss {
        /// Probability in `[0, 1]` that a message is dropped.
        probability: f64,
    },
    /// Add a fixed delay plus uniform jitter to every message.
    Delay {
        /// Fixed additional one-way delay.
        extra: SimDuration,
        /// Maximum additional uniform jitter.
        jitter: SimDuration,
    },
    /// Cap the effective bandwidth: every message pays an additional
    /// store-and-forward transmission time of `size / bandwidth_bps`.
    Throttle {
        /// The capped bandwidth in bytes per second.
        bandwidth_bps: u64,
    },
}

impl fmt::Display for LinkFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkFault::Sever => write!(f, "sever"),
            LinkFault::Heal => write!(f, "heal"),
            LinkFault::Loss { probability } => write!(f, "loss(p={probability})"),
            LinkFault::Delay { extra, jitter } => write!(f, "delay(+{extra}, jitter {jitter})"),
            LinkFault::Throttle { bandwidth_bps } => write!(f, "throttle({bandwidth_bps} B/s)"),
        }
    }
}

/// Which links a [`LinkFault`] applies to.  `Pair` and `Split` scopes are
/// bidirectional — covering `(a, b)` also covers `(b, a)` — while `OneWay`
/// targets a single direction only, modelling asymmetric faults (a NIC that
/// can send but not receive, an asymmetric route, a congested uplink).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkScope {
    /// The single link between two nodes, both directions.
    Pair {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Every link crossing the cut between `left` and `right` (the classic
    /// network-partition shape; links *within* each side are untouched).
    Split {
        /// Nodes on one side of the cut.
        left: Vec<NodeId>,
        /// Nodes on the other side.
        right: Vec<NodeId>,
    },
    /// Only the `from` → `to` direction of one link; the reverse direction
    /// keeps flowing.
    OneWay {
        /// The sending side of the faulted direction.
        from: NodeId,
        /// The receiving side of the faulted direction.
        to: NodeId,
    },
}

impl LinkScope {
    /// The node pairs the scope covers, in deterministic order (one entry per
    /// undirected link; [`LinkScope::OneWay`] contributes its single directed
    /// edge).
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        match self {
            LinkScope::Pair { a, b } => vec![(*a, *b)],
            LinkScope::Split { left, right } => left
                .iter()
                .flat_map(|&a| right.iter().map(move |&b| (a, b)))
                .collect(),
            LinkScope::OneWay { from, to } => vec![(*from, *to)],
        }
    }

    /// The *directed* edges the scope covers: bidirectional scopes expand
    /// each pair to both directions, `OneWay` stays a single edge.  This is
    /// the form [`Topology::apply_fault`] consumes.
    pub fn directed_pairs(&self) -> Vec<(NodeId, NodeId)> {
        match self {
            LinkScope::OneWay { from, to } => vec![(*from, *to)],
            _ => self
                .pairs()
                .into_iter()
                .flat_map(|(a, b)| [(a, b), (b, a)])
                .collect(),
        }
    }
}

impl fmt::Display for LinkScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkScope::Pair { a, b } => write!(f, "{a}<->{b}"),
            LinkScope::Split { left, right } => {
                write!(f, "{left:?}|{right:?}")
            }
            LinkScope::OneWay { from, to } => write!(f, "{from}->{to}"),
        }
    }
}

/// One timed entry of a [`LinkSchedule`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkEvent {
    /// When the fault takes effect.
    pub at: SimTime,
    /// Which links it targets.
    pub scope: LinkScope,
    /// What happens to them.
    pub fault: LinkFault,
}

impl fmt::Display for LinkEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} at {}", self.fault, self.scope, self.at)
    }
}

/// A time-ordered list of link faults — the schedulable form of the network
/// fault plane, executed as ordinary deterministic events by the simulator
/// and at the matching wall-clock offsets by the threaded runtime.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkSchedule {
    events: Vec<LinkEvent>,
}

impl LinkSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault taking effect at `at` (builder style).
    #[must_use]
    pub fn then(mut self, at: SimTime, scope: LinkScope, fault: LinkFault) -> Self {
        self.push(LinkEvent { at, scope, fault });
        self
    }

    /// Appends an event.  Events are kept in insertion order; both runtimes
    /// execute them in time order (ties broken by insertion order).
    pub fn push(&mut self, event: LinkEvent) {
        self.events.push(event);
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[LinkEvent] {
        &self.events
    }

    /// The events sorted by effect time (stable, so insertion order breaks
    /// ties) — the execution order on every runtime.
    pub fn in_order(&self) -> Vec<LinkEvent> {
        let mut ordered = self.events.clone();
        ordered.sort_by_key(|e| e.at);
        ordered
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The degradation overlay a link accumulates from [`LinkFault`]s: loss,
/// added delay and a bandwidth cap, all composable on top of the base
/// [`LinkModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkDegrade {
    /// Probability in `[0, 1]` that a message is dropped.
    pub loss: f64,
    /// Fixed additional one-way delay.
    pub extra_delay: SimDuration,
    /// Maximum additional uniform jitter.
    pub jitter: SimDuration,
    /// Bandwidth cap in bytes per second (`0` = uncapped).
    pub bandwidth_cap_bps: u64,
}

impl LinkDegrade {
    /// True when the overlay does nothing.
    pub fn is_clear(&self) -> bool {
        *self == Self::default()
    }

    /// The additional delay this overlay imposes on a `size`-byte message
    /// (loss is decided separately by the caller).
    pub fn penalty(&self, size: usize, rng: &mut DetRng) -> SimDuration {
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(rng.below(self.jitter.as_nanos().max(1)))
        };
        let throttle = if self.bandwidth_cap_bps == 0 {
            SimDuration::ZERO
        } else {
            transmission_time(size, self.bandwidth_cap_bps)
        };
        self.extra_delay + jitter + throttle
    }
}

/// The deployment topology: which link model connects each pair of nodes,
/// plus the current state of the network fault plane (severed links and
/// degradation overlays).
///
/// Link *models* are undirected — `link(a, b)` equals `link(b, a)` — but the
/// fault plane is kept per *direction*, so a [`LinkScope::OneWay`] fault can
/// sever or degrade `a → b` while `b → a` keeps flowing.  Bidirectional
/// mutators ([`Topology::sever`], [`Topology::set_degrade`], …) simply write
/// both directions.
#[derive(Debug, Clone)]
pub struct Topology {
    default_link: LinkModel,
    loopback: LinkModel,
    overrides: BTreeMap<(NodeId, NodeId), LinkModel>,
    severed: BTreeSet<(NodeId, NodeId)>,
    degraded: BTreeMap<(NodeId, NodeId), LinkDegrade>,
}

impl Default for Topology {
    fn default() -> Self {
        Self::new(LinkModel::lan_100mbps())
    }
}

impl Topology {
    /// Creates a topology whose node pairs all use `default_link` and whose
    /// intra-node deliveries use the default loopback model.
    pub fn new(default_link: LinkModel) -> Self {
        Self {
            default_link,
            loopback: LinkModel::loopback(),
            overrides: BTreeMap::new(),
            severed: BTreeSet::new(),
            degraded: BTreeMap::new(),
        }
    }

    /// Sets the link model used between `a` and `b` (both directions).
    pub fn set_link(&mut self, a: NodeId, b: NodeId, link: LinkModel) {
        self.overrides.insert(ordered(a, b), link);
    }

    /// Sets the loopback model used for same-node deliveries.
    pub fn set_loopback(&mut self, link: LinkModel) {
        self.loopback = link;
    }

    /// Returns the link model in effect between `a` and `b`.
    pub fn link(&self, a: NodeId, b: NodeId) -> LinkModel {
        if a == b {
            return self.loopback;
        }
        *self
            .overrides
            .get(&ordered(a, b))
            .unwrap_or(&self.default_link)
    }

    /// Severs connectivity between `a` and `b` (both directions): all
    /// messages are dropped until [`Topology::heal`] is called.  Used by the
    /// partition experiments.
    pub fn sever(&mut self, a: NodeId, b: NodeId) {
        self.sever_one_way(a, b);
        self.sever_one_way(b, a);
    }

    /// Severs only the `from` → `to` direction: messages from `from` to `to`
    /// are dropped while the reverse direction keeps flowing.  The asymmetric
    /// form behind [`LinkScope::OneWay`] severs.
    pub fn sever_one_way(&mut self, from: NodeId, to: NodeId) {
        self.severed.insert((from, to));
    }

    /// Restores connectivity between `a` and `b` (both directions).
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.heal_one_way(a, b);
        self.heal_one_way(b, a);
    }

    /// Restores only the `from` → `to` direction.
    pub fn heal_one_way(&mut self, from: NodeId, to: NodeId) {
        self.severed.remove(&(from, to));
    }

    /// Severs every link between a node in `left` and a node in `right`.
    pub fn partition(&mut self, left: &[NodeId], right: &[NodeId]) {
        for &a in left {
            for &b in right {
                self.sever(a, b);
            }
        }
    }

    /// Heals every link between a node in `left` and a node in `right`.
    pub fn heal_partition(&mut self, left: &[NodeId], right: &[NodeId]) {
        for &a in left {
            for &b in right {
                self.heal(a, b);
            }
        }
    }

    /// Returns true when the `a` → `b` direction is currently severed.
    /// Bidirectional severs mark both directions, so the argument order only
    /// matters after a one-way sever.
    pub fn is_severed(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.severed.contains(&(a, b))
    }

    /// The degradation overlay currently applied to the `a` → `b` direction
    /// (the clear overlay when the direction is healthy or `a == b`).
    pub fn degrade_of(&self, a: NodeId, b: NodeId) -> LinkDegrade {
        if a == b {
            return LinkDegrade::default();
        }
        self.degraded.get(&(a, b)).copied().unwrap_or_default()
    }

    /// Replaces the overlay of the link between `a` and `b` in both
    /// directions (a clear overlay removes the entries).
    pub fn set_degrade(&mut self, a: NodeId, b: NodeId, degrade: LinkDegrade) {
        self.set_degrade_one_way(a, b, degrade);
        self.set_degrade_one_way(b, a, degrade);
    }

    /// Replaces the overlay of only the `from` → `to` direction (a clear
    /// overlay removes the entry).
    pub fn set_degrade_one_way(&mut self, from: NodeId, to: NodeId, degrade: LinkDegrade) {
        if degrade.is_clear() {
            self.degraded.remove(&(from, to));
        } else {
            self.degraded.insert((from, to), degrade);
        }
    }

    /// Applies one fault of the [`LinkFault`] vocabulary to every directed
    /// edge in `scope` — the single mutation entry point both runtimes
    /// execute scheduled faults through.  Bidirectional scopes expand to both
    /// directions; [`LinkScope::OneWay`] touches exactly one.
    pub fn apply_fault(&mut self, scope: &LinkScope, fault: &LinkFault) {
        for (from, to) in scope.directed_pairs() {
            if from == to {
                continue; // same-node delivery is never faulted
            }
            match *fault {
                LinkFault::Sever => self.sever_one_way(from, to),
                LinkFault::Heal => {
                    self.heal_one_way(from, to);
                    self.degraded.remove(&(from, to));
                }
                LinkFault::Loss { probability } => {
                    let mut d = self.degrade_of(from, to);
                    d.loss = probability.clamp(0.0, 1.0);
                    self.set_degrade_one_way(from, to, d);
                }
                LinkFault::Delay { extra, jitter } => {
                    let mut d = self.degrade_of(from, to);
                    d.extra_delay = extra;
                    d.jitter = jitter;
                    self.set_degrade_one_way(from, to, d);
                }
                LinkFault::Throttle { bandwidth_bps } => {
                    let mut d = self.degrade_of(from, to);
                    d.bandwidth_cap_bps = bandwidth_bps;
                    self.set_degrade_one_way(from, to, d);
                }
            }
        }
    }

    /// Computes the delay for a `size`-byte message from `a` to `b`, or
    /// `None` when the message is dropped (severed link, lossy link model or
    /// fault-injected loss).  Fault-plane penalties (extra delay, jitter,
    /// throttling) are added on top of the base link-model delay.
    pub fn delay(
        &self,
        a: NodeId,
        b: NodeId,
        size: usize,
        rng: &mut DetRng,
    ) -> Option<SimDuration> {
        if self.is_severed(a, b) {
            return None;
        }
        let degrade = self.degrade_of(a, b);
        if degrade.loss > 0.0 && rng.chance(degrade.loss) {
            return None;
        }
        let base = self.link(a, b).delay(size, rng)?;
        if degrade.is_clear() {
            return Some(base);
        }
        Some(base + degrade.penalty(size, rng))
    }

    /// The fault-plane verdict for a message from `a` to `b`: `None` to drop
    /// it (severed or fault-injected loss), otherwise the *additional*
    /// fault-induced delay — [`SimDuration::ZERO`] on a healthy link.
    ///
    /// Runtimes with a real transport (the threaded runtime) use this
    /// overlay instead of [`Topology::delay`]: their messages already pay
    /// real transport costs, so only the injected faults apply.
    pub fn fault_verdict(
        &self,
        a: NodeId,
        b: NodeId,
        size: usize,
        rng: &mut DetRng,
    ) -> Option<SimDuration> {
        if self.is_severed(a, b) {
            return None;
        }
        let degrade = self.degrade_of(a, b);
        if degrade.is_clear() {
            return Some(SimDuration::ZERO);
        }
        if degrade.loss > 0.0 && rng.chance(degrade.loss) {
            return None;
        }
        Some(degrade.penalty(size, rng))
    }

    /// True when any link is currently severed or degraded.
    pub fn has_faults(&self) -> bool {
        !self.severed.is_empty() || !self.degraded.is_empty()
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_rng() -> DetRng {
        DetRng::new(42)
    }

    #[test]
    fn sync_lan_respects_worst_case() {
        let link = LinkModel::lan_100mbps();
        let mut r = test_rng();
        let bound = link.worst_case(1_000).unwrap();
        for _ in 0..1_000 {
            let d = link.delay(1_000, &mut r).expect("sync lan never drops");
            assert!(d <= bound, "delay {d} exceeds bound {bound}");
        }
    }

    #[test]
    fn transmission_time_scales_with_size() {
        let link = LinkModel::SyncLan {
            base: SimDuration::ZERO,
            bandwidth_bps: 12_500_000,
            jitter_max: SimDuration::ZERO,
        };
        let mut r = test_rng();
        let d_small = link.delay(125, &mut r).unwrap();
        let d_big = link.delay(12_500, &mut r).unwrap();
        assert_eq!(d_small, SimDuration::from_micros(10));
        assert_eq!(d_big, SimDuration::from_millis(1));
        assert!(d_big > d_small);
    }

    #[test]
    fn async_net_can_drop() {
        let link = LinkModel::AsyncNet {
            base: SimDuration::from_millis(1),
            bandwidth_bps: 1_000_000,
            jitter_mean: SimDuration::from_millis(1),
            drop_prob: 1.0,
        };
        let mut r = test_rng();
        assert_eq!(link.delay(10, &mut r), None);
        assert_eq!(link.worst_case(10), None);
    }

    #[test]
    fn async_net_delay_positive_and_unbounded_in_type() {
        let link = LinkModel::wan();
        let mut r = test_rng();
        for _ in 0..100 {
            let d = link.delay(100, &mut r).unwrap();
            assert!(d >= SimDuration::from_millis(20));
        }
    }

    #[test]
    fn loopback_is_constant() {
        let link = LinkModel::loopback();
        let mut r = test_rng();
        assert_eq!(link.delay(1, &mut r), link.delay(100_000, &mut r));
    }

    #[test]
    fn topology_overrides_and_defaults() {
        let mut topo = Topology::new(LinkModel::wan());
        topo.set_link(NodeId(0), NodeId(1), LinkModel::lan_100mbps());
        assert_eq!(topo.link(NodeId(0), NodeId(1)), LinkModel::lan_100mbps());
        assert_eq!(topo.link(NodeId(1), NodeId(0)), LinkModel::lan_100mbps());
        assert_eq!(topo.link(NodeId(0), NodeId(2)), LinkModel::wan());
        assert_eq!(topo.link(NodeId(3), NodeId(3)), LinkModel::loopback());
    }

    #[test]
    fn severing_drops_messages_and_healing_restores() {
        let mut topo = Topology::default();
        let mut r = test_rng();
        assert!(topo.delay(NodeId(0), NodeId(1), 10, &mut r).is_some());
        topo.sever(NodeId(0), NodeId(1));
        assert!(topo.is_severed(NodeId(1), NodeId(0)));
        assert!(topo.delay(NodeId(1), NodeId(0), 10, &mut r).is_none());
        // Same-node delivery is never severed.
        assert!(topo.delay(NodeId(0), NodeId(0), 10, &mut r).is_some());
        topo.heal(NodeId(0), NodeId(1));
        assert!(topo.delay(NodeId(0), NodeId(1), 10, &mut r).is_some());
    }

    #[test]
    fn partition_severs_all_cross_links() {
        let mut topo = Topology::default();
        let left = [NodeId(0), NodeId(1)];
        let right = [NodeId(2), NodeId(3)];
        topo.partition(&left, &right);
        for &a in &left {
            for &b in &right {
                assert!(topo.is_severed(a, b));
            }
        }
        assert!(!topo.is_severed(NodeId(0), NodeId(1)));
        assert!(!topo.is_severed(NodeId(2), NodeId(3)));
        topo.heal_partition(&left, &right);
        assert!(!topo.is_severed(NodeId(0), NodeId(2)));
    }

    #[test]
    fn zero_bandwidth_means_no_transmission_term() {
        assert_eq!(transmission_time(1000, 0), SimDuration::ZERO);
    }

    #[test]
    fn link_fault_sever_and_heal_round_trip() {
        let mut topo = Topology::default();
        let scope = LinkScope::Split {
            left: vec![NodeId(0)],
            right: vec![NodeId(1), NodeId(2)],
        };
        topo.apply_fault(&scope, &LinkFault::Sever);
        assert!(topo.is_severed(NodeId(0), NodeId(1)));
        assert!(topo.is_severed(NodeId(2), NodeId(0)));
        assert!(!topo.is_severed(NodeId(1), NodeId(2)));
        assert!(topo.has_faults());
        topo.apply_fault(&scope, &LinkFault::Heal);
        assert!(!topo.is_severed(NodeId(0), NodeId(1)));
        assert!(!topo.has_faults());
    }

    #[test]
    fn link_fault_delay_adds_to_base_model() {
        let mut topo = Topology::new(LinkModel::SyncLan {
            base: SimDuration::from_micros(100),
            bandwidth_bps: 0,
            jitter_max: SimDuration::ZERO,
        });
        let mut r = test_rng();
        let healthy = topo.delay(NodeId(0), NodeId(1), 10, &mut r).unwrap();
        topo.apply_fault(
            &LinkScope::Pair {
                a: NodeId(0),
                b: NodeId(1),
            },
            &LinkFault::Delay {
                extra: SimDuration::from_millis(50),
                jitter: SimDuration::ZERO,
            },
        );
        let degraded = topo.delay(NodeId(1), NodeId(0), 10, &mut r).unwrap();
        assert_eq!(degraded, healthy + SimDuration::from_millis(50));
        // Other links are untouched.
        assert_eq!(topo.delay(NodeId(0), NodeId(2), 10, &mut r), Some(healthy));
    }

    #[test]
    fn link_fault_loss_drops_probabilistically() {
        let mut topo = Topology::default();
        topo.apply_fault(
            &LinkScope::Pair {
                a: NodeId(0),
                b: NodeId(1),
            },
            &LinkFault::Loss { probability: 1.0 },
        );
        let mut r = test_rng();
        assert_eq!(topo.delay(NodeId(0), NodeId(1), 10, &mut r), None);
        // Heal clears the degradation too.
        topo.apply_fault(
            &LinkScope::Pair {
                a: NodeId(0),
                b: NodeId(1),
            },
            &LinkFault::Heal,
        );
        assert!(topo.delay(NodeId(0), NodeId(1), 10, &mut r).is_some());
    }

    #[test]
    fn link_fault_throttle_charges_capped_transmission() {
        let mut topo = Topology::new(LinkModel::SyncLan {
            base: SimDuration::ZERO,
            bandwidth_bps: 0,
            jitter_max: SimDuration::ZERO,
        });
        topo.apply_fault(
            &LinkScope::Pair {
                a: NodeId(0),
                b: NodeId(1),
            },
            &LinkFault::Throttle {
                bandwidth_bps: 1_000,
            },
        );
        let mut r = test_rng();
        // 1000 bytes at 1 kB/s = 1 s of store-and-forward time.
        assert_eq!(
            topo.delay(NodeId(0), NodeId(1), 1000, &mut r),
            Some(SimDuration::from_secs(1))
        );
    }

    #[test]
    fn fault_verdict_is_zero_on_healthy_links_and_overlay_only() {
        let mut topo = Topology::default();
        let mut r = test_rng();
        assert_eq!(
            topo.fault_verdict(NodeId(0), NodeId(1), 10, &mut r),
            Some(SimDuration::ZERO)
        );
        topo.apply_fault(
            &LinkScope::Pair {
                a: NodeId(0),
                b: NodeId(1),
            },
            &LinkFault::Delay {
                extra: SimDuration::from_millis(5),
                jitter: SimDuration::ZERO,
            },
        );
        assert_eq!(
            topo.fault_verdict(NodeId(0), NodeId(1), 10, &mut r),
            Some(SimDuration::from_millis(5))
        );
        topo.apply_fault(
            &LinkScope::Pair {
                a: NodeId(0),
                b: NodeId(1),
            },
            &LinkFault::Sever,
        );
        assert_eq!(topo.fault_verdict(NodeId(0), NodeId(1), 10, &mut r), None);
    }

    #[test]
    fn one_way_sever_drops_only_the_faulted_direction() {
        let mut topo = Topology::default();
        let mut r = test_rng();
        let scope = LinkScope::OneWay {
            from: NodeId(0),
            to: NodeId(1),
        };
        topo.apply_fault(&scope, &LinkFault::Sever);
        // The faulted direction drops on both the sim path and the threaded
        // overlay; the reverse direction is untouched on both.
        assert!(topo.is_severed(NodeId(0), NodeId(1)));
        assert!(!topo.is_severed(NodeId(1), NodeId(0)));
        assert_eq!(topo.delay(NodeId(0), NodeId(1), 10, &mut r), None);
        assert!(topo.delay(NodeId(1), NodeId(0), 10, &mut r).is_some());
        assert_eq!(topo.fault_verdict(NodeId(0), NodeId(1), 10, &mut r), None);
        assert_eq!(
            topo.fault_verdict(NodeId(1), NodeId(0), 10, &mut r),
            Some(SimDuration::ZERO)
        );
        // A one-way heal restores exactly that direction.
        topo.apply_fault(&scope, &LinkFault::Heal);
        assert!(!topo.is_severed(NodeId(0), NodeId(1)));
        assert!(!topo.has_faults());
    }

    #[test]
    fn one_way_degradation_is_directional() {
        let mut topo = Topology::default();
        let mut r = test_rng();
        topo.apply_fault(
            &LinkScope::OneWay {
                from: NodeId(2),
                to: NodeId(0),
            },
            &LinkFault::Delay {
                extra: SimDuration::from_millis(7),
                jitter: SimDuration::ZERO,
            },
        );
        assert_eq!(
            topo.fault_verdict(NodeId(2), NodeId(0), 10, &mut r),
            Some(SimDuration::from_millis(7))
        );
        assert_eq!(
            topo.fault_verdict(NodeId(0), NodeId(2), 10, &mut r),
            Some(SimDuration::ZERO),
            "reverse direction stays clear"
        );
        // Loss at p=1 in one direction only.
        topo.apply_fault(
            &LinkScope::OneWay {
                from: NodeId(0),
                to: NodeId(2),
            },
            &LinkFault::Loss { probability: 1.0 },
        );
        assert_eq!(topo.delay(NodeId(0), NodeId(2), 10, &mut r), None);
        assert!(
            topo.delay(NodeId(2), NodeId(0), 10, &mut r).is_some(),
            "delayed but not lossy in the 2->0 direction"
        );
    }

    #[test]
    fn bidirectional_sever_still_covers_both_directions() {
        // The pre-existing contract: Pair/Split scopes write both directions,
        // so a directional store changes nothing for them.
        let mut topo = Topology::default();
        topo.apply_fault(
            &LinkScope::Pair {
                a: NodeId(0),
                b: NodeId(1),
            },
            &LinkFault::Sever,
        );
        assert!(topo.is_severed(NodeId(0), NodeId(1)));
        assert!(topo.is_severed(NodeId(1), NodeId(0)));
    }

    #[test]
    fn one_way_scope_shape_and_display() {
        let scope = LinkScope::OneWay {
            from: NodeId(3),
            to: NodeId(1),
        };
        assert_eq!(scope.pairs(), vec![(NodeId(3), NodeId(1))]);
        assert_eq!(scope.directed_pairs(), vec![(NodeId(3), NodeId(1))]);
        let pair = LinkScope::Pair {
            a: NodeId(0),
            b: NodeId(1),
        };
        assert_eq!(
            pair.directed_pairs(),
            vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]
        );
        let text = LinkEvent {
            at: SimTime::from_secs(2),
            scope,
            fault: LinkFault::Sever,
        }
        .to_string();
        assert!(text.contains("NodeId(3)->NodeId(1)"), "{text}");
    }

    #[test]
    fn link_schedule_orders_by_time_stably() {
        let schedule = LinkSchedule::new()
            .then(
                SimTime::from_secs(5),
                LinkScope::Pair {
                    a: NodeId(0),
                    b: NodeId(1),
                },
                LinkFault::Sever,
            )
            .then(
                SimTime::from_secs(2),
                LinkScope::Pair {
                    a: NodeId(1),
                    b: NodeId(2),
                },
                LinkFault::Loss { probability: 0.5 },
            )
            .then(
                SimTime::from_secs(5),
                LinkScope::Pair {
                    a: NodeId(0),
                    b: NodeId(1),
                },
                LinkFault::Heal,
            );
        assert_eq!(schedule.len(), 3);
        assert!(!schedule.is_empty());
        let ordered = schedule.in_order();
        assert_eq!(ordered[0].at, SimTime::from_secs(2));
        assert_eq!(ordered[1].fault, LinkFault::Sever);
        assert_eq!(ordered[2].fault, LinkFault::Heal, "stable tie-break");
        assert!(LinkSchedule::new().is_empty());
    }

    #[test]
    fn scope_and_fault_display_are_stable() {
        let event = LinkEvent {
            at: SimTime::from_secs(1),
            scope: LinkScope::Pair {
                a: NodeId(0),
                b: NodeId(2),
            },
            fault: LinkFault::Loss { probability: 0.25 },
        };
        let text = event.to_string();
        assert!(text.contains("loss(p=0.25)"), "{text}");
    }
}
