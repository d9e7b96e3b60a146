//! Application-level commands and replicated application state machines.
//!
//! The paper's deployment (Figure 4) replicates the *application* processes
//! `A_1..A_{2f+1}` on top of the total-order service and masks application
//! failures by majority voting at the client.  This module provides the
//! command/response vocabulary and two concrete application state machines —
//! a key-value store and an auction service (the paper's motivating
//! "e-auction" workload) — used by the examples, the benches and the
//! fault-injection tests.

use fs_common::codec::{Decoder, Encoder, Wire};
use fs_common::error::CodecError;
use fs_common::fasthash::FastMap;
use fs_common::id::ProcessId;
use fs_common::Bytes;

/// A client request identifier: `(client, per-client sequence)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The issuing client.
    pub client: ProcessId,
    /// The client's sequence number for this request.
    pub seq: u64,
}

impl RequestId {
    /// Creates a request identifier.
    pub fn new(client: ProcessId, seq: u64) -> Self {
        Self { client, seq }
    }
}

impl Wire for RequestId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_process(self.client);
        enc.put_u64(self.seq);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            client: dec.get_process()?,
            seq: dec.get_u64()?,
        })
    }
    fn encoded_len(&self) -> usize {
        12
    }
}

/// Commands understood by the key-value application machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCommand {
    /// Store `value` under `key`.
    Put {
        /// The key to write.
        key: String,
        /// The value to store.
        value: Vec<u8>,
    },
    /// Read the value stored under `key`.
    Get {
        /// The key to read.
        key: String,
    },
    /// Delete `key`.
    Delete {
        /// The key to remove.
        key: String,
    },
    /// Read the store's frontier — applied-command count, key count and
    /// state digest — as one ordered command.  Because it rides the ordered
    /// stream like any other command, the frontier it reports is a
    /// consistent cut of that shard's history; the cluster router fans one
    /// `Frontier` to every shard to assemble a multi-shard snapshot.
    Frontier,
}

impl Wire for KvCommand {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            KvCommand::Put { key, value } => {
                enc.put_u8(0);
                enc.put_str(key);
                enc.put_bytes(value);
            }
            KvCommand::Get { key } => {
                enc.put_u8(1);
                enc.put_str(key);
            }
            KvCommand::Delete { key } => {
                enc.put_u8(2);
                enc.put_str(key);
            }
            KvCommand::Frontier => enc.put_u8(3),
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(KvCommand::Put {
                key: dec.get_str()?.to_owned(),
                value: dec.get_bytes_owned()?,
            }),
            1 => Ok(KvCommand::Get {
                key: dec.get_str()?.to_owned(),
            }),
            2 => Ok(KvCommand::Delete {
                key: dec.get_str()?.to_owned(),
            }),
            3 => Ok(KvCommand::Frontier),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            KvCommand::Put { key, value } => 1 + 4 + key.len() + 4 + value.len(),
            KvCommand::Get { key } | KvCommand::Delete { key } => 1 + 4 + key.len(),
            KvCommand::Frontier => 1,
        }
    }
}

impl KvCommand {
    /// The bytes of `KvCommand::Put { key, value }`, written from borrowed
    /// parts into one exactly sized buffer.
    pub fn put_wire(key: &str, value: &[u8]) -> Bytes {
        let mut enc = Encoder::with_capacity(1 + 4 + key.len() + 4 + value.len());
        enc.put_u8(0);
        enc.put_str(key);
        enc.put_bytes(value);
        enc.finish()
    }
}

/// Responses produced by the key-value application machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResponse {
    /// The write or delete was applied.
    Ok,
    /// The value found by a `Get` (empty for a missing key).
    Value(Option<Vec<u8>>),
    /// The store frontier reported by a [`KvCommand::Frontier`] read.
    Frontier {
        /// Commands applied when the read was sequenced (the frontier read
        /// itself counts, so this is always ≥ 1).
        applied: u64,
        /// Keys stored at that point.
        keys: u64,
        /// [`KvStore::state_digest`]-style digest of the store at that point.
        digest: u64,
    },
}

impl Wire for KvResponse {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            KvResponse::Ok => enc.put_u8(0),
            KvResponse::Value(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
            KvResponse::Frontier {
                applied,
                keys,
                digest,
            } => {
                enc.put_u8(2);
                enc.put_u64(*applied);
                enc.put_u64(*keys);
                enc.put_u64(*digest);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(KvResponse::Ok),
            1 => Ok(KvResponse::Value(Option::<Vec<u8>>::decode(dec)?)),
            2 => Ok(KvResponse::Frontier {
                applied: dec.get_u64()?,
                keys: dec.get_u64()?,
                digest: dec.get_u64()?,
            }),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            KvResponse::Ok => 0,
            KvResponse::Value(value) => value.encoded_len(),
            KvResponse::Frontier { .. } => 8 + 8 + 8,
        }
    }
}

/// An application state machine replicated via the total-order service.
///
/// Implementations must be deterministic: the response and state evolution
/// depend only on the sequence of applied commands.
pub trait AppStateMachine: Send + 'static {
    /// Applies one command (already totally ordered) and returns the
    /// response bytes.
    fn apply(&mut self, command: &[u8]) -> Bytes;

    /// A digest of the current state, used by tests to check replica
    /// convergence; the default hashes nothing and returns 0.
    fn state_digest(&self) -> u64 {
        0
    }
}

/// Bytes a [`ByteStr`] holds in place.  Every key and value of the suite's
/// KV workloads fits: the router's `k{:016x}` keys are 17 bytes, the
/// drivers' `m{member}-{seq}` keys fewer, the values 3.
const INLINE: usize = 22;

/// A key or value of a [`KvStore`]: up to [`INLINE`] bytes held in place,
/// longer ones in one boxed slice.  Equality, hashing and order are those
/// of the bytes alone, so a key orders as the `String` it was decoded from
/// (UTF-8 byte order is code-point order).
#[derive(Clone)]
enum ByteStr {
    Inline(u8, [u8; INLINE]),
    Heap(Box<[u8]>),
}

const _: () = assert!(std::mem::size_of::<ByteStr>() == 24);

impl ByteStr {
    fn new(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE {
            let mut inline = [0; INLINE];
            inline[..bytes.len()].copy_from_slice(bytes);
            ByteStr::Inline(bytes.len() as u8, inline)
        } else {
            ByteStr::Heap(bytes.into())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            ByteStr::Inline(len, bytes) => &bytes[..usize::from(*len)],
            ByteStr::Heap(bytes) => bytes,
        }
    }
}

impl PartialEq for ByteStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ByteStr {}

impl PartialOrd for ByteStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByteStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for ByteStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // As `[u8]` hashes, so a table of `ByteStr` is probed by `&[u8]`.
        self.as_bytes().hash(state);
    }
}

impl std::borrow::Borrow<[u8]> for ByteStr {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl std::fmt::Debug for ByteStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_bytes().fmt(f)
    }
}

/// A deterministic key-value store.
///
/// The entries live in a hashed table, [`FastMap`], whose hash order is
/// seeded per thread and which therefore offers no walk but
/// [`FastMap::sorted`]; keys and values of up to 22 bytes sit inside the
/// table's slots.  Only a snapshot and the state digest see every entry,
/// both through that walk, in key-byte order: what a store encodes and
/// digests depends on its content alone.  Keys come from clients; the
/// table's hash seed is drawn from the operating system per thread, so a
/// client cannot aim its keys at one bucket.
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    map: FastMap<ByteStr, ByteStr>,
    applied: u64,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of commands applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns true when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Encodes the full store — key/value map plus the applied-command
    /// counter — into a canonical snapshot frame for state transfer.
    pub fn snapshot(&self) -> Bytes {
        let mut enc = Encoder::new();
        enc.put_u64(self.applied);
        enc.put_u32(self.map.len() as u32);
        for (key, value) in self.map.sorted() {
            enc.put_bytes(key.as_bytes());
            enc.put_bytes(value.as_bytes());
        }
        enc.finish()
    }

    /// Rebuilds a store from a [`KvStore::snapshot`] frame.
    ///
    /// The table grows as entries decode; the entry count it reads is never
    /// trusted for a reservation.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the frame is malformed.
    pub fn restore(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        let applied = dec.get_u64()?;
        let entries = dec.get_u32()?;
        let mut map = FastMap::default();
        for _ in 0..entries {
            let key = ByteStr::new(dec.get_str()?.as_bytes());
            let value = ByteStr::new(dec.get_bytes()?);
            map.insert(key, value);
        }
        dec.finish()?;
        Ok(Self { map, applied })
    }
}

/// The encoded [`KvResponse::Ok`], one per thread: every Put and Delete
/// answers with a refcount clone of it.
fn ok_response() -> Bytes {
    thread_local! {
        static OK: Bytes = KvResponse::Ok.to_wire();
    }
    OK.with(Bytes::clone)
}

impl AppStateMachine for KvStore {
    fn apply(&mut self, command: &[u8]) -> Bytes {
        self.applied += 1;
        match KvCommand::from_wire(command) {
            Ok(KvCommand::Put { key, value }) => {
                self.map
                    .insert(ByteStr::new(key.as_bytes()), ByteStr::new(&value));
                ok_response()
            }
            Ok(KvCommand::Get { key }) => {
                let value = self.map.get(key.as_bytes());
                KvResponse::Value(value.map(|v| v.as_bytes().to_vec())).to_wire()
            }
            Ok(KvCommand::Delete { key }) => {
                self.map.remove(key.as_bytes());
                ok_response()
            }
            Ok(KvCommand::Frontier) => KvResponse::Frontier {
                applied: self.applied,
                keys: self.map.len() as u64,
                digest: self.state_digest(),
            }
            .to_wire(),
            Err(_) => KvResponse::Value(None).to_wire(),
        }
    }

    fn state_digest(&self) -> u64 {
        use fs_crypto::sha256::Sha256;
        let mut h = Sha256::new();
        for (k, v) in self.map.sorted() {
            h.update(k.as_bytes());
            h.update(&[0]);
            h.update(v.as_bytes());
            h.update(&[1]);
        }
        let d = h.finalize();
        u64::from_le_bytes(d.as_bytes()[..8].try_into().expect("8 bytes"))
    }
}

/// Commands for the auction application machine (the paper's "e-auction"
/// motivating workload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuctionCommand {
    /// Open a new auction for `item` with a minimum price.
    Open {
        /// Item name.
        item: String,
        /// Minimum acceptable bid.
        reserve: u64,
    },
    /// Place a bid on `item`.
    Bid {
        /// Item name.
        item: String,
        /// The bidder.
        bidder: ProcessId,
        /// The offered amount.
        amount: u64,
    },
    /// Close the auction for `item` and return the winner.
    Close {
        /// Item name.
        item: String,
    },
}

impl Wire for AuctionCommand {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            AuctionCommand::Open { item, reserve } => {
                enc.put_u8(0);
                enc.put_str(item);
                enc.put_u64(*reserve);
            }
            AuctionCommand::Bid {
                item,
                bidder,
                amount,
            } => {
                enc.put_u8(1);
                enc.put_str(item);
                enc.put_process(*bidder);
                enc.put_u64(*amount);
            }
            AuctionCommand::Close { item } => {
                enc.put_u8(2);
                enc.put_str(item);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(AuctionCommand::Open {
                item: dec.get_str()?.to_owned(),
                reserve: dec.get_u64()?,
            }),
            1 => Ok(AuctionCommand::Bid {
                item: dec.get_str()?.to_owned(),
                bidder: dec.get_process()?,
                amount: dec.get_u64()?,
            }),
            2 => Ok(AuctionCommand::Close {
                item: dec.get_str()?.to_owned(),
            }),
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            AuctionCommand::Open { item, .. } => 4 + item.len() + 8,
            AuctionCommand::Bid { item, .. } => 4 + item.len() + 4 + 8,
            AuctionCommand::Close { item } => 4 + item.len(),
        }
    }
}

/// The outcome of an auction command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuctionResponse {
    /// The command was applied.
    Ok,
    /// The bid was rejected (too low, unknown or closed item).
    Rejected,
    /// The auction closed with this winner and amount (`None` if no valid bid).
    Closed(Option<(ProcessId, u64)>),
}

impl Wire for AuctionResponse {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            AuctionResponse::Ok => enc.put_u8(0),
            AuctionResponse::Rejected => enc.put_u8(1),
            AuctionResponse::Closed(w) => {
                enc.put_u8(2);
                match w {
                    None => enc.put_u8(0),
                    Some((p, amount)) => {
                        enc.put_u8(1);
                        enc.put_process(*p);
                        enc.put_u64(*amount);
                    }
                }
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(AuctionResponse::Ok),
            1 => Ok(AuctionResponse::Rejected),
            2 => match dec.get_u8()? {
                0 => Ok(AuctionResponse::Closed(None)),
                1 => Ok(AuctionResponse::Closed(Some((
                    dec.get_process()?,
                    dec.get_u64()?,
                )))),
                t => Err(CodecError::UnknownTag(t)),
            },
            t => Err(CodecError::UnknownTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            AuctionResponse::Ok | AuctionResponse::Rejected => 1,
            AuctionResponse::Closed(None) => 1 + 1,
            AuctionResponse::Closed(Some(_)) => 1 + 1 + 4 + 8,
        }
    }
}

#[derive(Debug, Clone)]
struct Auction {
    reserve: u64,
    best: Option<(ProcessId, u64)>,
    open: bool,
}

/// A deterministic auction service: open auctions, accept monotonically
/// better bids, close and report winners.
#[derive(Debug, Clone, Default)]
pub struct AuctionHouse {
    auctions: std::collections::BTreeMap<String, Auction>,
    applied: u64,
}

impl AuctionHouse {
    /// Creates an auction service with no open auctions.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current best bid on `item`, if the auction exists.
    pub fn best_bid(&self, item: &str) -> Option<(ProcessId, u64)> {
        self.auctions.get(item).and_then(|a| a.best)
    }

    /// Number of commands applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }
}

impl AppStateMachine for AuctionHouse {
    fn apply(&mut self, command: &[u8]) -> Bytes {
        self.applied += 1;
        let response = match AuctionCommand::from_wire(command) {
            Ok(AuctionCommand::Open { item, reserve }) => {
                self.auctions.insert(
                    item,
                    Auction {
                        reserve,
                        best: None,
                        open: true,
                    },
                );
                AuctionResponse::Ok
            }
            Ok(AuctionCommand::Bid {
                item,
                bidder,
                amount,
            }) => match self.auctions.get_mut(&item) {
                Some(a)
                    if a.open && amount >= a.reserve && a.best.is_none_or(|(_, b)| amount > b) =>
                {
                    a.best = Some((bidder, amount));
                    AuctionResponse::Ok
                }
                _ => AuctionResponse::Rejected,
            },
            Ok(AuctionCommand::Close { item }) => match self.auctions.get_mut(&item) {
                Some(a) if a.open => {
                    a.open = false;
                    AuctionResponse::Closed(a.best)
                }
                _ => AuctionResponse::Rejected,
            },
            Err(_) => AuctionResponse::Rejected,
        };
        response.to_wire()
    }

    fn state_digest(&self) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for (item, a) in &self.auctions {
            for b in item.as_bytes() {
                acc = (acc ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
            }
            let (p, amt) = a
                .best
                .map(|(p, amt)| (p.0 as u64, amt))
                .unwrap_or((u64::MAX, 0));
            acc = (acc ^ p).wrapping_mul(0x100_0000_01b3);
            acc = (acc ^ amt).wrapping_mul(0x100_0000_01b3);
            acc = (acc ^ u64::from(a.open)).wrapping_mul(0x100_0000_01b3);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_round_trip() {
        let r = RequestId::new(ProcessId(3), 42);
        assert_eq!(RequestId::from_wire(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn kv_command_round_trip() {
        let cmds = vec![
            KvCommand::Put {
                key: "a".into(),
                value: vec![1, 2, 3],
            },
            KvCommand::Get { key: "a".into() },
            KvCommand::Delete { key: "b".into() },
            KvCommand::Frontier,
        ];
        for c in cmds {
            assert_eq!(KvCommand::from_wire(&c.to_wire()).unwrap(), c);
        }
        let r = KvResponse::Frontier {
            applied: 7,
            keys: 3,
            digest: 0xdead_beef,
        };
        assert_eq!(KvResponse::from_wire(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn kv_frontier_reports_consistent_cut() {
        let mut kv = KvStore::new();
        for i in 0..3u8 {
            kv.apply(
                &KvCommand::Put {
                    key: format!("k{i}"),
                    value: vec![i],
                }
                .to_wire(),
            );
        }
        let r = kv.apply(&KvCommand::Frontier.to_wire());
        match KvResponse::from_wire(&r).unwrap() {
            KvResponse::Frontier {
                applied,
                keys,
                digest,
            } => {
                // The frontier read is itself the 4th applied command.
                assert_eq!(applied, 4);
                assert_eq!(keys, 3);
                assert_eq!(digest, kv.state_digest());
            }
            other => panic!("expected frontier, got {other:?}"),
        }
    }

    #[test]
    fn kv_store_semantics() {
        let mut kv = KvStore::new();
        assert!(kv.is_empty());
        let r = kv.apply(
            &KvCommand::Put {
                key: "x".into(),
                value: b"1".to_vec(),
            }
            .to_wire(),
        );
        assert_eq!(KvResponse::from_wire(&r).unwrap(), KvResponse::Ok);
        let r = kv.apply(&KvCommand::Get { key: "x".into() }.to_wire());
        assert_eq!(
            KvResponse::from_wire(&r).unwrap(),
            KvResponse::Value(Some(b"1".to_vec()))
        );
        let r = kv.apply(&KvCommand::Delete { key: "x".into() }.to_wire());
        assert_eq!(KvResponse::from_wire(&r).unwrap(), KvResponse::Ok);
        let r = kv.apply(&KvCommand::Get { key: "x".into() }.to_wire());
        assert_eq!(KvResponse::from_wire(&r).unwrap(), KvResponse::Value(None));
        assert_eq!(kv.applied(), 4);
        assert_eq!(kv.len(), 0);
    }

    #[test]
    fn kv_store_digest_tracks_state() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        let put = KvCommand::Put {
            key: "k".into(),
            value: b"v".to_vec(),
        }
        .to_wire();
        a.apply(&put);
        assert_ne!(a.state_digest(), b.state_digest());
        b.apply(&put);
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn kv_store_snapshot_round_trips() {
        let mut kv = KvStore::new();
        for i in 0..5u8 {
            kv.apply(
                &KvCommand::Put {
                    key: format!("k{i}"),
                    value: vec![i; 2],
                }
                .to_wire(),
            );
        }
        kv.apply(&KvCommand::Delete { key: "k3".into() }.to_wire());
        let restored = KvStore::restore(&kv.snapshot()).unwrap();
        assert_eq!(restored.state_digest(), kv.state_digest());
        assert_eq!(restored.applied(), kv.applied());
        assert_eq!(restored.len(), kv.len());
        assert!(KvStore::restore(&[0xff]).is_err());
    }

    /// The snapshot bytes and digest of a fixed store, pinned: keys of 0, 1,
    /// 17, 22 (non-ASCII), 23 and 300 bytes, two of them prefixes of others,
    /// values of 0, 3 and 40 bytes, Puts in scrambled order with one
    /// overwrite and one Delete.  Snapshots cross the wire in state
    /// transfer, so how the store keeps its keys must never reach them.
    #[test]
    fn kv_store_snapshot_and_digest_are_pinned() {
        const SNAPSHOT: &str = concat!(
            "0900000000000000060000000000000003000000010203010000006100000000",
            "2c0100006162636465666768696a6b6c6d6e6f707172737475767778797a6162",
            "636465666768696a6b6c6d6e6f707172737475767778797a6162636465666768",
            "696a6b6c6d6e6f707172737475767778797a6162636465666768696a6b6c6d6e",
            "6f707172737475767778797a6162636465666768696a6b6c6d6e6f7071727374",
            "75767778797a6162636465666768696a6b6c6d6e6f707172737475767778797a",
            "6162636465666768696a6b6c6d6e6f707172737475767778797a616263646566",
            "6768696a6b6c6d6e6f707172737475767778797a6162636465666768696a6b6c",
            "6d6e6f707172737475767778797a6162636465666768696a6b6c6d6e6f707172",
            "737475767778797a6162636465666768696a6b6c6d6e6f707172737475767778",
            "797a6162636465666768696a6b6c6d6e28000000000102030405060708090a0b",
            "0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262711000000",
            "6b303030303030303030303030303066660300000078797a170000006b303030",
            "303030303030303030303066662d7461696c7328000000000102030405060708",
            "090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262716",
            "000000d0bad0bbd18ed1872dcebacebbceb5ceb9ceb4ceaf2103000000ff007f",
        );
        const DIGEST: u64 = 0x13ac_2195_b18b_1811;

        let alphabet: String = (0..300u16)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let (router, non_ascii, tail) = (
            "k00000000000000ff",
            "ключ-κλειδί!",
            "k00000000000000ff-tails",
        );
        let lengths = ["", "a", router, non_ascii, tail, &alphabet].map(str::len);
        assert_eq!(lengths, [0, 1, 17, 22, 23, 300]);
        let put = |key: &str, value: &[u8]| {
            KvCommand::Put {
                key: key.into(),
                value: value.to_vec(),
            }
            .to_wire()
        };
        let long: Vec<u8> = (0..40).collect();
        let mut kv = KvStore::new();
        for command in [
            put(&alphabet, &long),
            put(non_ascii, b"\xff\x00\x7f"),
            put("", &long),
            put(tail, &long),
            put("doomed", b"abc"),
            put("a", b""),
            put(router, b"xyz"),
            put("", &[1, 2, 3]),
            KvCommand::Delete {
                key: "doomed".into(),
            }
            .to_wire(),
        ] {
            kv.apply(&command);
        }
        let hex: String = kv.snapshot().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, SNAPSHOT);
        assert_eq!(kv.state_digest(), DIGEST, "{:#018x}", kv.state_digest());
    }

    /// A snapshot whose entry count claims more entries than its bytes can
    /// hold is an error, not a reservation the allocator aborts on.
    #[test]
    fn restore_rejects_a_hostile_entry_count() {
        let mut enc = Encoder::new();
        enc.put_u64(1);
        enc.put_u32(u32::MAX);
        enc.put_str("k");
        enc.put_bytes(b"v");
        assert!(KvStore::restore(&enc.finish()).is_err());
    }

    #[test]
    fn kv_store_garbage_command_is_tolerated() {
        let mut kv = KvStore::new();
        let r = kv.apply(&[0xff, 0xff]);
        assert_eq!(KvResponse::from_wire(&r).unwrap(), KvResponse::Value(None));
    }

    #[test]
    fn auction_lifecycle() {
        let mut house = AuctionHouse::new();
        let open = AuctionCommand::Open {
            item: "vase".into(),
            reserve: 100,
        }
        .to_wire();
        assert_eq!(
            AuctionResponse::from_wire(&house.apply(&open)).unwrap(),
            AuctionResponse::Ok
        );

        let low = AuctionCommand::Bid {
            item: "vase".into(),
            bidder: ProcessId(1),
            amount: 50,
        }
        .to_wire();
        assert_eq!(
            AuctionResponse::from_wire(&house.apply(&low)).unwrap(),
            AuctionResponse::Rejected
        );

        let ok = AuctionCommand::Bid {
            item: "vase".into(),
            bidder: ProcessId(1),
            amount: 150,
        }
        .to_wire();
        assert_eq!(
            AuctionResponse::from_wire(&house.apply(&ok)).unwrap(),
            AuctionResponse::Ok
        );

        let not_better = AuctionCommand::Bid {
            item: "vase".into(),
            bidder: ProcessId(2),
            amount: 150,
        }
        .to_wire();
        assert_eq!(
            AuctionResponse::from_wire(&house.apply(&not_better)).unwrap(),
            AuctionResponse::Rejected
        );

        let better = AuctionCommand::Bid {
            item: "vase".into(),
            bidder: ProcessId(2),
            amount: 200,
        }
        .to_wire();
        assert_eq!(
            AuctionResponse::from_wire(&house.apply(&better)).unwrap(),
            AuctionResponse::Ok
        );
        assert_eq!(house.best_bid("vase"), Some((ProcessId(2), 200)));

        let close = AuctionCommand::Close {
            item: "vase".into(),
        }
        .to_wire();
        assert_eq!(
            AuctionResponse::from_wire(&house.apply(&close)).unwrap(),
            AuctionResponse::Closed(Some((ProcessId(2), 200)))
        );
        // Closing twice is rejected, and late bids are rejected.
        assert_eq!(
            AuctionResponse::from_wire(&house.apply(&close)).unwrap(),
            AuctionResponse::Rejected
        );
        let late = AuctionCommand::Bid {
            item: "vase".into(),
            bidder: ProcessId(3),
            amount: 500,
        }
        .to_wire();
        assert_eq!(
            AuctionResponse::from_wire(&house.apply(&late)).unwrap(),
            AuctionResponse::Rejected
        );
    }

    #[test]
    fn auction_unknown_item_and_garbage() {
        let mut house = AuctionHouse::new();
        let bid = AuctionCommand::Bid {
            item: "ghost".into(),
            bidder: ProcessId(1),
            amount: 10,
        }
        .to_wire();
        assert_eq!(
            AuctionResponse::from_wire(&house.apply(&bid)).unwrap(),
            AuctionResponse::Rejected
        );
        assert_eq!(
            AuctionResponse::from_wire(&house.apply(&[9, 9, 9])).unwrap(),
            AuctionResponse::Rejected
        );
        assert_eq!(house.applied(), 2);
    }

    #[test]
    fn auction_command_round_trip() {
        let cmds = vec![
            AuctionCommand::Open {
                item: "x".into(),
                reserve: 5,
            },
            AuctionCommand::Bid {
                item: "x".into(),
                bidder: ProcessId(7),
                amount: 9,
            },
            AuctionCommand::Close { item: "x".into() },
        ];
        for c in cmds {
            assert_eq!(AuctionCommand::from_wire(&c.to_wire()).unwrap(), c);
        }
        let resps = vec![
            AuctionResponse::Ok,
            AuctionResponse::Rejected,
            AuctionResponse::Closed(None),
            AuctionResponse::Closed(Some((ProcessId(2), 11))),
        ];
        for r in resps {
            assert_eq!(AuctionResponse::from_wire(&r.to_wire()).unwrap(), r);
        }
    }

    #[test]
    fn identical_command_sequences_converge() {
        let cmds: Vec<Bytes> = (0..50)
            .map(|i| {
                KvCommand::Put {
                    key: format!("k{}", i % 7),
                    value: vec![i as u8; 3],
                }
                .to_wire()
            })
            .collect();
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        for c in &cmds {
            a.apply(c);
            b.apply(c);
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }
}
