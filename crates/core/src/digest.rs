//! The one pass over an output's bytes: `SHA-256(body)`, computed once per
//! content and remembered per rope.
//!
//! Everything the fail-signal layer does with an output body — signing it,
//! checking the partner's candidate, comparing the two replicas' copies,
//! checking a double-signed output at a destination, suppressing a duplicate
//! input — it does over this digest (see [`crate::message::Statement`]).
//! A body is a [`Frame`]: the rope a machine produced around a payload it
//! spliced in, or the sub-frame of an envelope that carries one.  The same
//! body is presented many times on one simulation host: the two replicas
//! produce equal outputs in ropes of their own around one shared payload,
//! each output then travels — by refcount, never by copy — through the
//! candidate frame, the comparison pool and the external frames to every
//! destination wrapper.  [`body_digest`] therefore answers from a bounded
//! thread-local memo, in one of three ways:
//!
//! * **the same rope again** — the same segments, found by their addresses
//!   and lengths.  The memo holds a refcount of every rope it knows, so no
//!   address can be reused while the entry lives; a hit is O(1) and reads
//!   no payload byte;
//! * **equal content in another rope** (the other replica's output, or an
//!   envelope's sub-frame of it) — one [`fs_common::fasthash`] to find the
//!   bucket and one compare to confirm
//!   ([`fs_common::codec::unshared_len_if_eq`]), which skips every stretch
//!   the two ropes hold in the same memory: two outputs around one shared
//!   payload compare only their few header bytes.  The rope is then
//!   remembered by identity too.  The bucket hash covers the length and
//!   five 64-byte samples at logical offsets, not all of it: hashing 10 KiB
//!   to pick a bucket would cost what the SHA-256 pass does.  Bodies that
//!   agree on the length and on all five samples share a bucket and evict
//!   one another — which costs them the hit, never the answer;
//! * **content never seen** — the SHA-256 pass, streamed over the segments.
//!
//! The memo keeps what it is shown by refcount and never copies it: a body
//! of this layer is a field of a frame that carries little else (a header
//! and two signatures), so holding its segments keeps about its own length
//! alive.  The byte bound counts that length for content never seen, and
//! for a content hit the bytes the compare found outside the memory of the
//! rope it matched: two replicas' outputs around one payload hold the
//! payload once, and count it once.  The memo caches nothing
//! but `SHA-256(content)`, a pure function, so no result — and therefore no
//! tag, frame, trace or simulated number — can depend on what it holds.

use std::cell::RefCell;
use std::hash::{BuildHasher, Hasher};

use fs_common::codec::unshared_len_if_eq;
use fs_common::fasthash::FastMap;
use fs_common::Frame;
use fs_crypto::sha256::{Digest, Sha256};

/// Bodies shorter than this are hashed directly.  Measured with the
/// `sign_digest` round `hotpath` carried until PR 21 (digest + sign +
/// co-sign, `sha-ni`): answered from the memo it costs 0.55–0.65 µs at every size; hashing afresh costs 0.60 µs at
/// 64 B, 0.75 µs at 256 B, 0.9 µs at 512 B, 1.3 µs at 1 KiB, 7.9 µs at
/// 10 KiB; and a miss costs ~0.2 µs more than hashing afresh (two table
/// inserts).  A body presented half a dozen times repays its miss somewhere
/// between 256 B and 1 KiB — if its later presentations are cheap hits.
/// That is what fixes the floor at the codec's splice size: from 1 KiB up
/// an output body is a rope around a spliced segment, which every later
/// presentation shares; a shorter one is a window into a contiguous frame,
/// copied into every frame that carries it.
const MEMO_FLOOR: usize = 1024;

/// How the content table samples a body for its bucket hash; see
/// [`DigestMemo::bucket`].  `SAMPLES * SAMPLE_LEN <= MEMO_FLOOR`.
const SAMPLES: usize = 5;
const SAMPLE_LEN: usize = 64;

/// Upper bound on the memo's entries (both tables together); reaching it
/// clears the memo.
const MEMO_MAX_ENTRIES: usize = 16 * 1024;

/// Upper bound on the body bytes the memo keeps alive between clears.
const MEMO_MAX_BYTES: usize = 32 * 1024 * 1024;

/// A rope's identity: the address and length of each segment.
type Identity = [(usize, usize); 3];

fn identity(body: &Frame) -> Identity {
    body.segments().map(|s| (s.as_ptr() as usize, s.len()))
}

/// `SHA-256` of `body`'s logical bytes, streamed over its segments, through
/// no memo: the reference the memoised [`body_digest`] always equals.
pub fn uncached_digest(body: &Frame) -> Digest {
    let [head, rest @ ..] = body.segments();
    if rest.iter().all(|segment| segment.is_empty()) {
        return Sha256::digest(head);
    }
    let mut hasher = Sha256::new();
    hasher.update(head);
    for segment in rest {
        hasher.update(segment);
    }
    hasher.finalize()
}

#[derive(Default)]
struct DigestMemo {
    /// Ropes by [`Identity`]; the held clone keeps the addresses from
    /// being reused.
    by_identity: FastMap<Identity, (Frame, Digest)>,
    /// Contents, by [`DigestMemo::bucket`], each held as the first rope
    /// that carried it.  A hit compares the bytes, so two contents sharing
    /// a bucket only ever evict one another.
    by_content: FastMap<u64, (Frame, Digest)>,
    /// Body bytes the two tables hold: a rope held by both counts once, and
    /// a rope found by content counts only the bytes it holds in memory of
    /// its own — two replicas' outputs around one payload count it once.
    bytes_held: usize,
}

impl DigestMemo {
    /// The content table's key for `body` (at least [`MEMO_FLOOR`] bytes
    /// long): the table's hash of the length and of [`SAMPLES`] evenly
    /// spaced [`SAMPLE_LEN`]-byte samples of the logical bytes, the first
    /// and the last at the body's two ends.  Each sample is gathered first,
    /// so the key does not depend on where the segments are cut.
    fn bucket(&self, body: &Frame) -> u64 {
        let mut hasher = self.by_content.hasher().build_hasher();
        hasher.write_usize(body.len());
        let last = body.len() - SAMPLE_LEN;
        let mut sample = [0u8; SAMPLE_LEN];
        for i in 0..SAMPLES {
            read_at(body, last * i / (SAMPLES - 1), &mut sample);
            hasher.write(&sample);
        }
        hasher.finish()
    }

    fn digest(&mut self, body: &Frame) -> Digest {
        let identity = identity(body);
        if let Some((_, digest)) = self.by_identity.get(&identity) {
            return *digest;
        }
        let bucket = self.bucket(body);
        let known = self.by_content.get(&bucket).and_then(|(stored, digest)| {
            let unshared = unshared_len_if_eq(&stored.segments(), &body.segments())?;
            Some((*digest, unshared))
        });
        // What holding `body` adds: all of it when its content is new, only
        // the bytes it does not share with the rope it matched otherwise.
        self.make_room(known.map_or(body.len(), |(_, unshared)| unshared));
        let digest = match known {
            Some((digest, _)) => digest,
            None => {
                let digest = uncached_digest(body);
                self.by_content.insert(bucket, (body.clone(), digest));
                digest
            }
        };
        self.by_identity.insert(identity, (body.clone(), digest));
        digest
    }

    /// Accounts for `len` more body bytes, clearing first when a bound is
    /// reached.
    fn make_room(&mut self, len: usize) {
        if self.by_identity.len() + self.by_content.len() >= MEMO_MAX_ENTRIES
            || self.bytes_held >= MEMO_MAX_BYTES
        {
            self.by_identity.clear();
            self.by_content.clear();
            self.bytes_held = 0;
        }
        self.bytes_held += len;
    }
}

/// Copies the `out.len()` logical bytes of `body` that start at `at` into
/// `out` (the caller keeps the range inside the body).
fn read_at(body: &Frame, mut at: usize, out: &mut [u8]) {
    let mut filled = 0;
    for segment in body.segments() {
        if at >= segment.len() {
            at -= segment.len();
            continue;
        }
        let n = (segment.len() - at).min(out.len() - filled);
        out[filled..filled + n].copy_from_slice(&segment[at..at + n]);
        filled += n;
        at = 0;
        if filled == out.len() {
            break;
        }
    }
}

thread_local! {
    static MEMO: RefCell<DigestMemo> = RefCell::new(DigestMemo::default());
}

/// `SHA-256(body)` — the digest every fail-signal statement carries in place
/// of the output bytes.  Memoised per thread as the module docs describe;
/// always equal to [`uncached_digest`] of the same frame, and to
/// [`Sha256::digest`] of its logical bytes.
pub fn body_digest(body: &Frame) -> Digest {
    if body.len() < MEMO_FLOOR {
        return uncached_digest(body);
    }
    MEMO.with(|memo| memo.borrow_mut().digest(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_common::Bytes;
    use fs_crypto::sha256::blocks_compressed;

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
    }

    /// The digest of `body` and how many blocks computing it compressed.
    fn counted(body: &Frame) -> (Digest, u64) {
        let before = blocks_compressed();
        let digest = body_digest(body);
        (digest, blocks_compressed() - before)
    }

    fn forget() {
        MEMO.with(|memo| *memo.borrow_mut() = DigestMemo::default());
    }

    /// `bytes` cut into three segments at `i <= j`.
    fn cut(bytes: &Bytes, i: usize, j: usize) -> Frame {
        Frame::from_segments(bytes.slice(..i), bytes.slice(i..j), bytes.slice(j..))
    }

    /// A machine's output rope around `payload`: a header and a trailer in
    /// one buffer of their own, the payload by refcount.
    fn rope(header: &[u8], payload: &Bytes, trailer: &[u8]) -> Frame {
        let around = Bytes::from([header, trailer].concat());
        Frame::from_segments(
            around.slice(..header.len()),
            payload.clone(),
            around.slice(header.len()..),
        )
    }

    #[test]
    fn the_three_outcomes_cost_what_they_say() {
        forget();
        let len = 10 * 1024;
        let passes = |blocks: u64| blocks as f64 / (len as f64 / 64.0);
        let payload = Bytes::from(pattern(len, 1));
        let leader = rope(b"data-7", &payload, b"vc");
        let (_, miss) = counted(&leader);
        assert!(passes(miss) >= 1.0, "a miss hashes the body: {miss} blocks");
        // The same rope again, through any clone: no hashing at all.
        assert_eq!(counted(&leader.clone()).1, 0);
        // The other replica's equal output, in a rope of its own around the
        // same payload: found by content, then by identity.
        let follower = rope(b"data-7", &payload, b"vc");
        assert_eq!(counted(&follower).1, 0);
        assert_eq!(counted(&follower).1, 0);
        // Equal content in buffers that share nothing, cut elsewhere.
        let flat = Bytes::from(leader.to_vec());
        let elsewhere = cut(&flat, 3, len - 5);
        assert_eq!(counted(&elsewhere).1, 0);
        MEMO.with(|memo| {
            let memo = memo.borrow();
            assert_eq!(memo.by_content.len(), 1);
            assert_eq!(memo.by_identity.len(), 3);
            // Held by refcount, never copied.
            for body in [&leader, &follower, &elsewhere] {
                let held = memo.by_identity.get(&identity(body));
                assert!(held.is_some_and(|(b, _)| identity(b) == identity(body)));
            }
            // The payload the two replicas' ropes share counts once; the
            // copy that shares nothing counts in full.
            assert_eq!(memo.bytes_held, 2 * leader.len() + b"data-7vc".len());
        });
        // Below the floor nothing is remembered.
        let small = Frame::from(pattern(MEMO_FLOOR - 1, 3));
        let (_, first) = counted(&small);
        assert!(first > 0);
        assert_eq!(counted(&small).1, first);
    }

    /// Two replicas' outputs around one shared payload compare their
    /// header bytes only: a content hit between them hashes nothing, and
    /// the memo holds the payload once, by refcount.
    #[test]
    fn a_content_hit_on_ropes_sharing_their_body_compresses_nothing() {
        forget();
        let payload = Bytes::from(pattern(20 * 1024, 9));
        let leader = rope(&[1; 40], &payload, &[2; 9]);
        let follower = rope(&[1; 40], &payload, &[2; 9]);
        let refs = payload.ref_count();
        assert!(counted(&leader).1 > 0);
        assert_eq!(counted(&follower).1, 0);
        // Both ropes are held as they are — a refcount on each segment
        // table, not even one on the payload — and nothing was copied.
        assert_eq!(payload.ref_count(), refs);
        MEMO.with(|memo| {
            let memo = memo.borrow();
            for body in [&leader, &follower] {
                let held = memo.by_identity.get(&identity(body));
                assert!(held.is_some_and(|(b, _)| identity(b) == identity(body)));
            }
        });
        // A rope differing in a header byte is another content.
        let other = rope(&[3; 40], &payload, &[2; 9]);
        let (digest, blocks) = counted(&other);
        assert!(blocks > 0);
        assert_eq!(digest, Sha256::digest(&other.to_vec()));
    }

    /// For bodies of 1 to 20 KiB cut into three segments at every pair of
    /// a grid of offsets — the ends, the samples' edges, the middle — the
    /// digest is `SHA-256` of the flat bytes in every memo state: a miss, a
    /// hit on the same rope, a hit on equal content cut elsewhere in other
    /// buffers, and a miss again after a cap clear.
    #[test]
    fn every_three_way_cut_digests_like_the_flat_bytes() {
        for len in [1024, 1025, 4096 + 7, 10 * 1024, 20 * 1024] {
            let data = pattern(len, len as u8);
            let flat = Sha256::digest(&data);
            let own = Bytes::from(data.clone());
            let copy = Bytes::from(data);
            let mut grid = vec![
                0,
                1,
                63,
                64,
                65,
                len / 4,
                len / 2,
                len - 65,
                len - 64,
                len - 1,
                len,
            ];
            grid.dedup();
            for (n, &i) in grid.iter().enumerate() {
                for &j in &grid[n..] {
                    forget();
                    let body = cut(&own, i, j);
                    let (digest, blocks) = counted(&body);
                    assert_eq!(digest, flat, "{len} B cut {i}/{j}: miss");
                    assert!(blocks > 0);
                    assert_eq!(counted(&body.clone()), (flat, 0), "same rope");
                    let elsewhere = cut(&copy, len - j, len - i);
                    assert_eq!(counted(&elsewhere), (flat, 0), "equal content");
                    // Reaching the byte bound clears on the next miss.
                    MEMO.with(|memo| memo.borrow_mut().bytes_held = MEMO_MAX_BYTES);
                    body_digest(&Frame::from(pattern(MEMO_FLOOR, 0xff)));
                    let (digest, blocks) = counted(&elsewhere);
                    assert_eq!(digest, flat, "{len} B cut {i}/{j}: after a clear");
                    assert!(blocks > 0);
                }
            }
        }
    }

    #[test]
    fn reaching_a_cap_clears_and_answers_stay_right() {
        forget();
        let len = 16 * 1024;
        let kept = Frame::from(pattern(len, 5));
        let expected = body_digest(&kept);
        // Fill the byte budget with distinct bodies until the memo clears.
        let mut fills = 0u32;
        while MEMO.with(|memo| memo.borrow().by_identity.contains_key(&identity(&kept))) {
            let mut data = pattern(len, 6);
            data[..4].copy_from_slice(&fills.to_le_bytes());
            let body = Frame::from(data);
            assert_eq!(body_digest(&body), uncached_digest(&body));
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
            body_digest(&Frame::from(forged.clone())),
            Sha256::digest(&forged)
        );
        // The entry cap clears too.
        forget();
        for i in 0..MEMO_MAX_ENTRIES as u32 {
            let mut data = vec![0u8; MEMO_FLOOR];
            data[..4].copy_from_slice(&i.to_le_bytes());
            body_digest(&Frame::from(data));
        }
        let entries = MEMO.with(|memo| {
            let memo = memo.borrow();
            memo.by_identity.len() + memo.by_content.len()
        });
        assert!(entries <= MEMO_MAX_ENTRIES, "{entries}");
    }
}
