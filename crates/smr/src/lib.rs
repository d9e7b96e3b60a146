//! # fs-smr
//!
//! State-machine-replication substrate: the deterministic-machine abstraction
//! required by the fail-signal transformation (requirement R1 of the paper),
//! plus the application-level replication pieces of the paper's deployment —
//! replicas applying a totally ordered command stream, and the client-side
//! majority voter that masks up to `f` Byzantine application replicas out of
//! `2f + 1`.
//!
//! ## Example: masking a Byzantine replica by majority voting
//!
//! ```
//! use fs_common::id::{MemberId, ProcessId};
//! use fs_smr::client::ReplicatedClient;
//! use fs_smr::replica::Response;
//!
//! let mut client = ReplicatedClient::new(ProcessId(10), 1); // f = 1, 3 replicas
//! let (id, _wire) = client.next_request(b"transfer 100".to_vec());
//!
//! // One faulty replica lies; the two correct replicas agree.
//! let lie = Response { id, replica: MemberId(2), payload: b"denied"[..].into() };
//! let ok0 = Response { id, replica: MemberId(0), payload: b"done"[..].into() };
//! let ok1 = Response { id, replica: MemberId(1), payload: b"done"[..].into() };
//! assert!(client.on_response(&lie).is_none());
//! assert!(client.on_response(&ok0).is_none());
//! assert_eq!(client.on_response(&ok1), Some((id, fs_common::Bytes::from(&b"done"[..]))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod command;
pub mod machine;
pub mod replica;
pub mod sequenced;
pub mod voter;

pub use client::ReplicatedClient;
pub use command::{AppStateMachine, AuctionHouse, KvStore, RequestId};
pub use machine::{
    DetectorRound, DeterministicMachine, Endpoint, FailureDetector, MachineInput, MachineOutput,
};
pub use replica::{Replica, Request, Response};
pub use sequenced::{
    SequencedKv, SmrClientMsg, SmrDeliverBatch, SmrDeliverEntry, SmrOrderedEntry, SmrPeerMsg,
    SmrUpcall,
};
pub use voter::{MajorityVoter, VoteOutcome};
