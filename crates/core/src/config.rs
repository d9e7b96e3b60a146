//! Configuration of a fail-signal pair: identities, keys, routing and the
//! timing assumptions.

use std::collections::BTreeMap;
use std::sync::Arc;

use fs_common::config::TimingAssumptions;
use fs_common::id::{FsId, ProcessId, Role};
use fs_common::Bytes;
use fs_crypto::cost::CryptoCostModel;
use fs_crypto::keys::{KeyDirectory, SignerId, SigningKey};
use fs_crypto::sig::Signature;
use fs_smr::machine::Endpoint;

/// How an inbound message from a given physical process is to be treated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// A trusted, co-located client (e.g. the local invocation layer): its
    /// messages are taken at face value and fed to the machine as coming
    /// from `endpoint`.
    TrustedClient {
        /// The logical endpoint the machine sees.
        endpoint: Endpoint,
    },
    /// Another fail-signal process: its messages must be valid double-signed
    /// outputs of the pair `signers`, and the inner bytes are fed to the
    /// machine as coming from `endpoint`.
    FsProcess {
        /// The sending FS process.
        fs: FsId,
        /// The wrapper signers of the sending pair.
        signers: (SignerId, SignerId),
        /// The logical endpoint the machine sees.
        endpoint: Endpoint,
    },
}

impl SourceSpec {
    /// The logical endpoint inputs from this source map to.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            SourceSpec::TrustedClient { endpoint } => *endpoint,
            SourceSpec::FsProcess { endpoint, .. } => *endpoint,
        }
    }
}

/// Maps the machine's logical output destinations to the physical processes
/// the wrapper must transmit to.
///
/// A destination that is itself an FS process lists *both* of its wrapper
/// processes (§2.1: "each Compare process transmits the output to both the
/// replicas of the destination FS process").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTable {
    routes: BTreeMap<Endpoint, Vec<ProcessId>>,
}

impl RouteTable {
    /// Creates an empty route table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the physical destinations for a logical endpoint.
    pub fn set(&mut self, endpoint: Endpoint, processes: Vec<ProcessId>) {
        self.routes.insert(endpoint, processes);
    }

    /// The physical destinations for a logical endpoint (empty if unrouted).
    pub fn lookup(&self, endpoint: Endpoint) -> &[ProcessId] {
        self.routes
            .get(&endpoint)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Every distinct physical process reachable through this table — the
    /// set a fail-signal is broadcast to.
    pub fn all_processes(&self) -> Vec<ProcessId> {
        let mut out: Vec<ProcessId> = self.routes.values().flatten().copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of routed endpoints.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when no endpoint is routed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// Full configuration of one wrapper object (one half of an FS pair).
#[derive(Debug, Clone)]
pub struct FsoConfig {
    /// The FS process this wrapper belongs to.
    pub fs: FsId,
    /// Leader or follower.
    pub role: Role,
    /// This wrapper's own process identifier.
    pub me: ProcessId,
    /// The other wrapper's process identifier.
    pub partner: ProcessId,
    /// This wrapper's signing key.
    pub key: SigningKey,
    /// The other wrapper's signer identity.
    pub partner_signer: SignerId,
    /// The fail-signal of this FS process, pre-signed by the *other* wrapper
    /// at start-up (§2.1: "each Compare process is supplied with a fail-signal
    /// message signed by the other Compare process").
    pub prearmed_fail_signal: Signature,
    /// The trusted key directory.
    pub directory: Arc<KeyDirectory>,
    /// How to interpret inbound messages from each known physical source.
    pub sources: BTreeMap<ProcessId, SourceSpec>,
    /// For each source FS process, the machine input (fed from
    /// `Endpoint::Environment`) to inject when that process's fail-signal is
    /// received — FS-NewTOP uses this to convert fail-signals into
    /// suspicions.  Sources without an entry have their fail-signals noted
    /// but produce no machine input.
    pub fail_signal_inputs: BTreeMap<FsId, Bytes>,
    /// Where to transmit machine outputs and fail-signals.
    pub routes: RouteTable,
    /// The synchrony/determinism assumptions (δ, κ, σ).
    pub timing: TimingAssumptions,
    /// The cost model charged for signing and verification.
    pub crypto_costs: CryptoCostModel,
}

impl FsoConfig {
    /// True when this wrapper is the pair's leader.
    pub fn is_leader(&self) -> bool {
        self.role.is_leader()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_common::id::MemberId;

    #[test]
    fn route_table_lookup_and_union() {
        let mut routes = RouteTable::new();
        assert!(routes.is_empty());
        routes.set(Endpoint::LocalApp, vec![ProcessId(10)]);
        routes.set(
            Endpoint::Peer(MemberId(1)),
            vec![ProcessId(21), ProcessId(22)],
        );
        routes.set(
            Endpoint::Peer(MemberId(2)),
            vec![ProcessId(21), ProcessId(31)],
        );
        assert_eq!(routes.lookup(Endpoint::LocalApp), &[ProcessId(10)]);
        assert!(routes.lookup(Endpoint::Environment).is_empty());
        assert_eq!(
            routes.all_processes(),
            vec![ProcessId(10), ProcessId(21), ProcessId(22), ProcessId(31)]
        );
        assert_eq!(routes.len(), 3);
    }

    #[test]
    fn source_spec_endpoint() {
        let trusted = SourceSpec::TrustedClient {
            endpoint: Endpoint::LocalApp,
        };
        assert_eq!(trusted.endpoint(), Endpoint::LocalApp);
        let fs = SourceSpec::FsProcess {
            fs: FsId(1),
            signers: (SignerId(ProcessId(1)), SignerId(ProcessId(2))),
            endpoint: Endpoint::Peer(MemberId(3)),
        };
        assert_eq!(fs.endpoint(), Endpoint::Peer(MemberId(3)));
    }
}
