//! The timeout-based failure suspector used by crash-tolerant NewTOP.
//!
//! §3.1: "The NewTOP group membership object … makes use of a failure
//! suspector module which periodically 'pings' remote NSO GCs and generates
//! suspicions based on a timeout mechanism."  Because message delays over an
//! asynchronous network have no known bound, these suspicions can be *false*
//! — the root cause of unnecessary group splitting that FS-NewTOP eliminates
//! by replacing this module with a fail-signal-driven one.
//!
//! The suspector is deliberately time-driven and therefore lives in the
//! crash host, plugged in as its failure detector, not inside the
//! deterministic GC machine.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use fs_common::codec::Wire;
use fs_common::id::MemberId;
use fs_common::time::{SimDuration, SimTime};
use fs_common::Frame;
use fs_smr::machine::{DetectorRound, DeterministicMachine, FailureDetector, MachineOutput};

use crate::gc::GcMachine;
use crate::message::{ControlInput, GcMessage};

/// Configuration of the ping-based suspector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspectorConfig {
    /// Whether the suspector runs at all (disabled in the latency benchmarks
    /// to match the paper's failure-free set-up, and always disabled in
    /// FS-NewTOP).
    pub enabled: bool,
    /// How often to ping every peer.
    pub interval: SimDuration,
    /// How long to wait for a pong before suspecting the peer.
    pub timeout: SimDuration,
}

impl SuspectorConfig {
    /// The paper's experimental setting: "large timeouts" on a lightly
    /// loaded LAN so that false suspicions never occur.
    pub fn large_timeouts() -> Self {
        Self {
            enabled: true,
            interval: SimDuration::from_secs(2),
            timeout: SimDuration::from_secs(10),
        }
    }

    /// An aggressive setting with small timeouts, prone to false suspicions
    /// when delays spike (used by the suspicion ablation,
    /// `fs_bench::experiment::ablation_false_suspicion`; the README's
    /// ablation commands run it).
    pub fn aggressive(timeout: SimDuration) -> Self {
        Self {
            enabled: true,
            interval: SimDuration::from_millis(50),
            timeout,
        }
    }

    /// A disabled suspector.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            interval: SimDuration::MAX,
            timeout: SimDuration::MAX,
        }
    }
}

impl Default for SuspectorConfig {
    fn default() -> Self {
        Self::large_timeouts()
    }
}

/// What the suspector wants done after a tick.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SuspectorActions {
    /// Peers to ping now, with the nonce to use.
    pub pings: Vec<(MemberId, u64)>,
    /// Peers to report as suspected.
    pub suspicions: Vec<MemberId>,
}

/// The ping/timeout failure suspector.
#[derive(Debug, Clone)]
pub struct PingSuspector {
    config: SuspectorConfig,
    /// Outstanding pings: peer → (nonce, deadline).
    outstanding: BTreeMap<MemberId, (u64, SimTime)>,
    /// Peers already reported as suspected (reported once only).
    suspected: BTreeSet<MemberId>,
    next_nonce: u64,
}

impl PingSuspector {
    /// Creates a suspector with the given configuration.
    pub fn new(config: SuspectorConfig) -> Self {
        Self {
            config,
            outstanding: BTreeMap::new(),
            suspected: BTreeSet::new(),
            next_nonce: 0,
        }
    }

    /// Runs one suspector round at time `now` over the given peers
    /// (the current view, excluding the local member).
    pub fn tick(&mut self, now: SimTime, peers: &[MemberId]) -> SuspectorActions {
        let mut actions = SuspectorActions::default();
        if !self.config.enabled {
            return actions;
        }
        for &peer in peers {
            if self.suspected.contains(&peer) {
                continue;
            }
            match self.outstanding.get(&peer) {
                Some(&(_nonce, deadline)) if now >= deadline => {
                    self.suspected.insert(peer);
                    self.outstanding.remove(&peer);
                    actions.suspicions.push(peer);
                }
                Some(_) => {
                    // Ping still outstanding and within its deadline: wait.
                }
                None => {
                    let nonce = self.next_nonce;
                    self.next_nonce += 1;
                    self.outstanding
                        .insert(peer, (nonce, now + self.config.timeout));
                    actions.pings.push((peer, nonce));
                }
            }
        }
        actions
    }

    /// Records a pong from `peer`; clears the outstanding ping if the nonce
    /// matches, so the peer can be pinged afresh next round.
    pub fn on_pong(&mut self, peer: MemberId, nonce: u64) {
        if let Some(&(expected, _)) = self.outstanding.get(&peer) {
            if expected == nonce {
                self.outstanding.remove(&peer);
            }
        }
    }

    /// Marks a peer as already-suspected without going through a timeout
    /// (used when a suspicion arrives from elsewhere, e.g. gossip).
    pub fn mark_suspected(&mut self, peer: MemberId) {
        self.suspected.insert(peer);
        self.outstanding.remove(&peer);
    }
}

/// The crash host's plug: rounds of [`PingSuspector::tick`] over the hosted
/// [`GcMachine`]'s current view, pinged and suspected in `GcMessage` form.
impl FailureDetector for PingSuspector {
    fn interval(&self) -> SimDuration {
        self.config.interval
    }

    fn observe(&mut self, peer: MemberId, frame: &Frame) {
        // Only the tag is read, so only a pong is decoded.  A pong counts
        // for the peer that sent it: one naming another member would clear
        // that member's ping and hide its crash.
        match GcMessage::decode_pong(frame) {
            Some((from, nonce)) if from == peer => self.on_pong(peer, nonce),
            _ => {}
        }
    }

    fn round(&mut self, now: SimTime, machine: &dyn DeterministicMachine) -> DetectorRound {
        let any: &dyn Any = machine;
        let Some(gc) = any.downcast_ref::<GcMachine>() else {
            return DetectorRound::default();
        };
        let me = gc.member();
        let mut peers = gc.view().members_sorted();
        peers.retain(|m| *m != me);
        let actions = self.tick(now, &peers);
        let ping = |(peer, nonce)| {
            MachineOutput::to_peer(peer, GcMessage::Ping { from: me, nonce }.to_wire())
        };
        let suspect = |m| (m, ControlInput::Suspect(m).to_wire());
        (
            actions.pings.into_iter().map(ping).collect(),
            actions.suspicions.into_iter().map(suspect).collect(),
        )
    }

    fn suspected(&self) -> &BTreeSet<MemberId> {
        &self.suspected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers(n: u32) -> Vec<MemberId> {
        (1..=n).map(MemberId).collect()
    }

    #[test]
    fn disabled_suspector_does_nothing() {
        let mut s = PingSuspector::new(SuspectorConfig::disabled());
        let actions = s.tick(SimTime::ZERO, &peers(3));
        assert!(actions.pings.is_empty());
        assert!(actions.suspicions.is_empty());
    }

    #[test]
    fn first_tick_pings_everyone() {
        let mut s = PingSuspector::new(SuspectorConfig::large_timeouts());
        let actions = s.tick(SimTime::ZERO, &peers(3));
        assert_eq!(actions.pings.len(), 3);
        assert!(actions.suspicions.is_empty());
        // Nonces are distinct.
        let nonces: BTreeSet<u64> = actions.pings.iter().map(|(_, n)| *n).collect();
        assert_eq!(nonces.len(), 3);
    }

    #[test]
    fn pong_prevents_suspicion_and_allows_repinging() {
        let cfg = SuspectorConfig {
            enabled: true,
            interval: SimDuration::from_millis(100),
            timeout: SimDuration::from_millis(500),
        };
        let mut s = PingSuspector::new(cfg);
        let p = peers(1);
        let a0 = s.tick(SimTime::ZERO, &p);
        let (peer, nonce) = a0.pings[0];
        s.on_pong(peer, nonce);
        // Past the original deadline, but the pong already cleared it.
        let a1 = s.tick(SimTime::from_millis(600), &p);
        assert!(a1.suspicions.is_empty());
        assert_eq!(a1.pings.len(), 1);
    }

    #[test]
    fn missing_pong_leads_to_suspicion_once() {
        let cfg = SuspectorConfig::aggressive(SimDuration::from_millis(200));
        let mut s = PingSuspector::new(cfg);
        let p = peers(1);
        assert_eq!(s.tick(SimTime::ZERO, &p).pings.len(), 1);
        let a = s.tick(SimTime::from_millis(300), &p);
        assert_eq!(a.suspicions, vec![MemberId(1)]);
        assert!(s.suspected().contains(&MemberId(1)));
        // Suspected peers are not pinged or re-suspected.
        let a = s.tick(SimTime::from_millis(600), &p);
        assert!(a.pings.is_empty());
        assert!(a.suspicions.is_empty());
    }

    #[test]
    fn wrong_nonce_does_not_clear_outstanding_ping() {
        let cfg = SuspectorConfig::aggressive(SimDuration::from_millis(200));
        let mut s = PingSuspector::new(cfg);
        let p = peers(1);
        let a0 = s.tick(SimTime::ZERO, &p);
        let (peer, nonce) = a0.pings[0];
        s.on_pong(peer, nonce + 99);
        let a1 = s.tick(SimTime::from_millis(300), &p);
        assert_eq!(a1.suspicions, vec![peer]);
    }

    #[test]
    fn mark_suspected_is_idempotent() {
        let mut s = PingSuspector::new(SuspectorConfig::large_timeouts());
        s.mark_suspected(MemberId(2));
        s.mark_suspected(MemberId(2));
        assert_eq!(s.suspected().len(), 1);
        let a = s.tick(SimTime::ZERO, &[MemberId(2)]);
        assert!(a.pings.is_empty());
    }
}
