//! Identifier newtypes used throughout the suite.
//!
//! The paper's system deploys *application* processes `A_i`, *middleware*
//! processes (NewTOP service objects and their group-communication objects)
//! and *fail-signal wrapper objects* (`FSO`, `FSO'`) on physical nodes.  Every
//! one of these entities gets its own strongly typed identifier so that a
//! group identifier can never be confused with a node identifier at compile
//! time (C-NEWTYPE).

use core::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a physical node (host) in a deployment.
///
/// In the paper's full deployment (Figure 4), a system masking `f` Byzantine
/// faults uses `4f + 2` nodes; in the collapsed experimental placement
/// (Figure 5) each node hosts one leader wrapper and one follower wrapper of
/// a *different* FS process.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

/// Identifies a logical process (an actor in the simulation or threaded
/// runtime): an application, a NewTOP GC object, a wrapper object, a client…
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ProcessId(pub u32);

/// Identifies a process group (the unit of multicast in NewTOP).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct GroupId(pub u32);

/// Identifies an application-level member within a group (the index of
/// `A_i` in the paper's figures).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct MemberId(pub u32);

/// Globally unique message identifier: `(sender process, per-sender sequence)`.
///
/// NewTOP's protocols and the fail-signal comparison logic both need a stable
/// identity for "the same logical message" across replicas, retransmissions
/// and wrapping, which this pair provides.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct MsgId {
    /// The originating process.
    pub origin: ProcessId,
    /// Sequence number assigned by the originating process, starting at 0.
    pub seq: u64,
}

impl MsgId {
    /// Creates a message identifier for message `seq` from `origin`.
    pub fn new(origin: ProcessId, seq: u64) -> Self {
        Self { origin, seq }
    }
}

/// Identifies one half of a fail-signal pair: the leader wrapper (`FSO`) or
/// the follower wrapper (`FSO'`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Role {
    /// The leader wrapper object, fixed at pair-construction time; it decides
    /// the submission order of inputs.
    Leader,
    /// The follower wrapper object; it accepts the leader's order and checks
    /// that every message it receives is being ordered by the leader.
    Follower,
}

impl Role {
    /// Returns the other role of the pair.
    pub fn peer(self) -> Role {
        match self {
            Role::Leader => Role::Follower,
            Role::Follower => Role::Leader,
        }
    }

    /// Returns `true` for [`Role::Leader`].
    pub fn is_leader(self) -> bool {
        matches!(self, Role::Leader)
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Leader => write!(f, "leader"),
            Role::Follower => write!(f, "follower"),
        }
    }
}

/// Identifies a fail-signal process (an FS pair) as a whole.
///
/// An FS process is addressed by destinations as a single logical entity even
/// though it is realised by two wrapper objects on distinct nodes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FsId(pub u32);

macro_rules! impl_display_and_from {
    ($($ty:ident),*) => {
        $(
            impl fmt::Display for $ty {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    write!(f, concat!(stringify!($ty), "({})"), self.0)
                }
            }
            impl From<u32> for $ty {
                fn from(v: u32) -> Self {
                    Self(v)
                }
            }
            impl From<$ty> for u32 {
                fn from(v: $ty) -> u32 {
                    v.0
                }
            }
            impl $ty {
                /// Returns the raw numeric value of the identifier.
                pub fn index(self) -> usize {
                    self.0 as usize
                }
            }
        )*
    };
}

impl_display_and_from!(NodeId, ProcessId, GroupId, MemberId, FsId);

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_peer_is_involutive() {
        assert_eq!(Role::Leader.peer(), Role::Follower);
        assert_eq!(Role::Follower.peer(), Role::Leader);
        assert_eq!(Role::Leader.peer().peer(), Role::Leader);
    }

    #[test]
    fn role_is_leader() {
        assert!(Role::Leader.is_leader());
        assert!(!Role::Follower.is_leader());
    }

    #[test]
    fn msg_id_ordering_is_origin_then_seq() {
        let a = MsgId::new(ProcessId(1), 5);
        let b = MsgId::new(ProcessId(2), 0);
        let c = MsgId::new(ProcessId(1), 6);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn display_round_trips_reasonably() {
        assert_eq!(NodeId(3).to_string(), "NodeId(3)");
        assert_eq!(MsgId::new(ProcessId(2), 7).to_string(), "ProcessId(2)#7");
        assert_eq!(Role::Leader.to_string(), "leader");
    }

    #[test]
    fn conversions() {
        let n: NodeId = 9u32.into();
        assert_eq!(u32::from(n), 9);
        assert_eq!(n.index(), 9);
    }
}
