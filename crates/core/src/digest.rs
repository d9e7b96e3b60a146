//! The one pass over an output's bytes: `SHA-256(body)`, computed once per
//! content and remembered per buffer.
//!
//! Everything the fail-signal layer does with an output body — signing it,
//! checking the partner's candidate, comparing the two replicas' copies,
//! checking a double-signed output at a destination, suppressing a duplicate
//! input — it does over this digest (see [`crate::message::Statement`]).
//! The same body is presented many times on one simulation host: the two
//! replicas produce equal outputs in buffers of their own, each output then
//! travels — by refcount, never by copy — through the candidate frame, the
//! comparison pool and the external frames to every destination wrapper.
//! [`body_digest`] therefore answers from a bounded thread-local memo, in
//! one of three ways:
//!
//! * **the same buffer again** — a view that spans its whole storage, found
//!   by address and length.  The memo holds a refcount of every buffer it
//!   knows this way, so the address cannot be reused while the entry lives;
//!   a hit is O(1) and reads no payload byte;
//! * **equal content in a distinct buffer** (the other replica's output) —
//!   one [`fs_common::fasthash`] to find the bucket and one `memcmp` to
//!   confirm; the buffer is then remembered by identity too.  The bucket
//!   hash covers the length and five 64-byte samples of the body, not all
//!   of it: the `memcmp` has to read every byte anyway, and hashing 10 KiB
//!   to pick a bucket costs three times what that compare does.  Bodies
//!   that agree on the length and on all five samples share a bucket and
//!   evict one another — which costs them the hit, never the answer;
//! * **content never seen** — the SHA-256 pass.
//!
//! A window into a larger buffer (a field of a contiguous frame) is never
//! pinned and never looked up by address: it takes the content route, and a
//! miss stores a compact copy.  The memo caches nothing but
//! `SHA-256(content)`, a pure function, so no result — and therefore no
//! tag, frame, trace or simulated number — can depend on what it holds.

use std::cell::RefCell;
use std::hash::{BuildHasher, Hasher};

use fs_common::fasthash::FastMap;
use fs_common::Bytes;
use fs_crypto::sha256::{Digest, Sha256};

/// Bodies shorter than this are hashed directly.  Measured with the
/// `sign_digest` round `hotpath` carried until PR 21 (digest + sign +
/// co-sign, `sha-ni`): answered from the memo it costs 0.55–0.65 µs at every size; hashing afresh costs 0.60 µs at
/// 64 B, 0.75 µs at 256 B, 0.9 µs at 512 B, 1.3 µs at 1 KiB, 7.9 µs at
/// 10 KiB; and a miss costs ~0.2 µs more than hashing afresh (two table
/// inserts).  A body presented half a dozen times repays its miss somewhere
/// between 256 B and 1 KiB — if its later presentations are hits by
/// *address*.  That is what fixes the floor at the codec's splice size: from
/// 1 KiB up an output body travels as a frame segment of its own, the very
/// buffer the machine produced; a shorter one arrives as a window into a
/// contiguous frame, can only take the content route, and would be copied
/// on every miss.
const MEMO_FLOOR: usize = 1024;

/// How the content table samples a body for its bucket hash; see
/// [`DigestMemo::bucket`].  `SAMPLES * SAMPLE_LEN <= MEMO_FLOOR`.
const SAMPLES: usize = 5;
const SAMPLE_LEN: usize = 64;

/// Upper bound on the memo's entries (both tables together); reaching it
/// clears the memo.
const MEMO_MAX_ENTRIES: usize = 16 * 1024;

/// Upper bound on the body bytes the memo keeps alive — pinned buffers and
/// compact copies alike — between clears.
const MEMO_MAX_BYTES: usize = 32 * 1024 * 1024;

#[derive(Default)]
struct DigestMemo {
    /// Buffers of their own, by `(address, length)`; the held clone keeps
    /// the address from being reused.
    by_buffer: FastMap<(usize, usize), (Bytes, Digest)>,
    /// Contents, by [`DigestMemo::bucket`], each in storage of its own: the
    /// first buffer that carried it, or a compact copy of the first window
    /// that did.  A hit compares the bytes, so two contents sharing a
    /// bucket only ever evict one another.
    by_content: FastMap<u64, (Bytes, Digest)>,
    /// Body bytes kept alive by the two tables (a buffer held by both
    /// counts once).
    bytes_held: usize,
}

impl DigestMemo {
    /// The content table's key for `body` (at least [`MEMO_FLOOR`] bytes
    /// long): the table's hash of the length and of [`SAMPLES`] evenly
    /// spaced [`SAMPLE_LEN`]-byte samples, the first and the last at the
    /// body's two ends.
    fn bucket(&self, body: &[u8]) -> u64 {
        let mut hasher = self.by_content.hasher().build_hasher();
        hasher.write_usize(body.len());
        let last = body.len() - SAMPLE_LEN;
        for i in 0..SAMPLES {
            let at = last * i / (SAMPLES - 1);
            hasher.write(&body[at..at + SAMPLE_LEN]);
        }
        hasher.finish()
    }

    fn digest(&mut self, body: &Bytes) -> Digest {
        let own = body.spans_storage();
        let identity = (body.as_ptr() as usize, body.len());
        if own {
            if let Some((_, digest)) = self.by_buffer.get(&identity) {
                return *digest;
            }
        }
        let bucket = self.bucket(body);
        let known = match self.by_content.get(&bucket) {
            Some((stored, digest)) if stored == body => Some(*digest),
            _ => None,
        };
        if known.is_none() || own {
            self.make_room(body.len());
        }
        let digest = known.unwrap_or_else(|| {
            let digest = Sha256::digest(body);
            self.by_content.insert(bucket, (body.compact(), digest));
            digest
        });
        if own {
            self.by_buffer.insert(identity, (body.clone(), digest));
        }
        digest
    }

    /// Accounts for `len` more body bytes, clearing first when a bound is
    /// reached.
    fn make_room(&mut self, len: usize) {
        if self.by_buffer.len() + self.by_content.len() >= MEMO_MAX_ENTRIES
            || self.bytes_held >= MEMO_MAX_BYTES
        {
            self.by_buffer.clear();
            self.by_content.clear();
            self.bytes_held = 0;
        }
        self.bytes_held += len;
    }
}

thread_local! {
    static MEMO: RefCell<DigestMemo> = RefCell::new(DigestMemo::default());
}

/// `SHA-256(body)` — the digest every fail-signal statement carries in place
/// of the output bytes.  Memoised per thread as the module docs describe;
/// always equal to [`Sha256::digest`] of the same bytes.
pub fn body_digest(body: &Bytes) -> Digest {
    if body.len() < MEMO_FLOOR {
        return Sha256::digest(body);
    }
    MEMO.with(|memo| memo.borrow_mut().digest(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_crypto::sha256::blocks_compressed;

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
    }

    /// The digest of `body` and how many blocks computing it compressed.
    fn counted(body: &Bytes) -> (Digest, u64) {
        let before = blocks_compressed();
        let digest = body_digest(body);
        (digest, blocks_compressed() - before)
    }

    fn forget() {
        MEMO.with(|memo| *memo.borrow_mut() = DigestMemo::default());
    }

    #[test]
    fn the_three_outcomes_cost_what_they_say() {
        forget();
        let len = 10 * 1024;
        let passes = |blocks: u64| blocks as f64 / (len as f64 / 64.0);
        let own = Bytes::from(pattern(len, 1));
        let (_, miss) = counted(&own);
        assert!(passes(miss) >= 1.0, "a miss hashes the body: {miss} blocks");
        // The same buffer again, through any clone: no hashing at all.
        assert_eq!(counted(&own.clone()).1, 0);
        // Equal content in another buffer: found by content, then by identity.
        let distinct = Bytes::copy_from_slice(&own);
        assert_eq!(counted(&distinct).1, 0);
        assert_eq!(counted(&distinct).1, 0);
        MEMO.with(|memo| {
            let memo = memo.borrow();
            assert_eq!(memo.by_content.len(), 1);
            assert_eq!(memo.by_buffer.len(), 2);
            assert_eq!(memo.bytes_held, 2 * len);
            // Pinned by refcount, not copied.
            assert!(memo.by_buffer.values().any(|(b, _)| b.same_view(&own)));
            assert!(memo.by_buffer.values().any(|(b, _)| b.same_view(&distinct)));
        });
        // A window is never pinned: content route every time, no new entry.
        let frame = Bytes::from([&[9u8; 11][..], &own].concat());
        let window = frame.slice(11..);
        let refs = frame.ref_count();
        assert_eq!(counted(&window).1, 0);
        assert_eq!(frame.ref_count(), refs, "the frame is not kept alive");
        MEMO.with(|memo| assert_eq!(memo.borrow().by_buffer.len(), 2));
        // A never-seen window is stored as a compact copy.
        let fresh = Bytes::from(pattern(len + 40, 2));
        let window = fresh.slice(40..);
        assert!(passes(counted(&window).1) >= 1.0);
        assert_eq!(fresh.ref_count(), 2, "only `fresh` and `window` hold it");
        assert_eq!(counted(&window).1, 0);
        // Below the floor nothing is remembered.
        let small = Bytes::from(pattern(MEMO_FLOOR - 1, 3));
        let (_, first) = counted(&small);
        assert!(first > 0);
        assert_eq!(counted(&small).1, first);
    }

    #[test]
    fn reaching_a_cap_clears_and_answers_stay_right() {
        forget();
        let len = 16 * 1024;
        let kept = Bytes::from(pattern(len, 5));
        let expected = body_digest(&kept);
        // Fill the byte budget with distinct bodies until the memo clears.
        let mut fills = 0u32;
        while MEMO.with(|memo| {
            memo.borrow()
                .by_buffer
                .contains_key(&(kept.as_ptr() as usize, len))
        }) {
            let mut data = pattern(len, 6);
            data[..4].copy_from_slice(&fills.to_le_bytes());
            let body = Bytes::from(data);
            assert_eq!(body_digest(&body), Sha256::digest(&body));
            fills += 1;
            assert!(fills as usize <= MEMO_MAX_BYTES / len + 1, "the cap holds");
        }
        assert!(MEMO.with(|memo| memo.borrow().bytes_held) <= len);
        // After the clear: a miss again, the same answer, and a one-byte
        // neighbour still gets its own.
        let (digest, blocks) = counted(&kept);
        assert_eq!(digest, expected);
        assert!(blocks > 0);
        assert_eq!(counted(&kept).1, 0);
        let mut forged = kept.to_vec();
        forged[len / 2] ^= 0x80;
        assert_eq!(
            body_digest(&Bytes::from(forged.clone())),
            Sha256::digest(&forged)
        );
        // The entry cap clears too.
        forget();
        for i in 0..MEMO_MAX_ENTRIES as u32 {
            let mut data = vec![0u8; MEMO_FLOOR];
            data[..4].copy_from_slice(&i.to_le_bytes());
            body_digest(&Bytes::from(data));
        }
        let entries = MEMO.with(|memo| {
            let memo = memo.borrow();
            memo.by_buffer.len() + memo.by_content.len()
        });
        assert!(entries <= MEMO_MAX_ENTRIES, "{entries}");
    }
}
