//! Configuration of a fail-signal pair: identities, keys, addresses and
//! the timing assumptions.

use std::collections::BTreeMap;
use std::sync::Arc;

use fs_common::config::TimingAssumptions;
use fs_common::id::{FsId, ProcessId, Role};
use fs_common::Bytes;
use fs_crypto::cost::CryptoCostModel;
use fs_crypto::keys::{KeyDirectory, SignerId, SigningKey};
use fs_crypto::sig::Signature;
use fs_smr::machine::AddressMap;

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
    /// Where the member's endpoints live: the trusted local process (the
    /// interceptor), and every peer member's two wrappers — peer `m` is the
    /// FS process `FsId(m)`, and its wrappers are its signers, leader
    /// first.  Inputs are attributed, outputs routed and the fail-signal
    /// broadcast through it.
    pub addresses: AddressMap,
    /// For each source FS process, the machine input (fed from
    /// `Endpoint::Environment`) to inject when that process's fail-signal is
    /// received — FS-NewTOP uses this to convert fail-signals into
    /// suspicions.  Sources without an entry have their fail-signals noted
    /// but produce no machine input.
    pub fail_signal_inputs: BTreeMap<FsId, Bytes>,
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
