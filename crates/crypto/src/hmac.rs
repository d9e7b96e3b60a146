//! HMAC-SHA-256 (RFC 2104), built on the local SHA-256 implementation.
//!
//! The paper signs middleware outputs with "MD5 using RSA encryption" through
//! the Java security package (§4).  This suite substitutes keyed
//! authenticators for public-key signatures (see DESIGN.md §5): assumption A5
//! only requires that a correct node's signed messages cannot be generated or
//! undetectably altered by another node, which HMAC over a per-signer secret
//! provides in the simulated setting where verifiers obtain verification keys
//! from a trusted [`crate::keys::KeyDirectory`].

use crate::sha256::{
    compress_blocks, compress_with_schedule, ct_eq, expand_schedule, state_to_digest,
    CompressBackend, Digest, Sha256, BLOCK_LEN, DIGEST_LEN,
};
use crate::{shani, simd};

/// The length of an HMAC-SHA-256 tag in bytes.
pub const TAG_LEN: usize = DIGEST_LEN;

/// A precomputed HMAC-SHA-256 key schedule.
///
/// RFC 2104 HMAC is `H((K ^ opad) || H((K ^ ipad) || m))`.  The two padded
/// key blocks are fixed per key, so their compression-function applications
/// can be done once at key-construction time; per-message work then starts
/// from the two saved mid-states instead of re-expanding the raw secret and
/// re-hashing 128 bytes of padded key material on every call.  This is the
/// classic "keyed state" optimisation every production HMAC implementation
/// performs, and it is what makes per-output signing cheap on the host
/// (`crypto.sign_ns` in `benchmark/`).
///
/// # Examples
///
/// ```
/// use fs_crypto::hmac::{HmacKey, HmacSha256};
///
/// let key = HmacKey::new(b"key");
/// let tag = key.mac(b"the quick brown fox");
/// // Identical to the one-shot path.
/// assert_eq!(tag, HmacSha256::mac(b"key", b"the quick brown fox"));
/// assert!(key.verify(b"the quick brown fox", tag.as_bytes()));
/// ```
#[derive(Debug, Clone)]
pub struct HmacKey {
    /// SHA-256 state after absorbing the ipad-xored key block.
    inner: Sha256,
    /// SHA-256 state after absorbing the opad-xored key block.
    outer: Sha256,
}

impl HmacKey {
    /// Expands `key` into the precomputed inner/outer states.
    ///
    /// Keys longer than the block size are hashed first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        Self::new_with_backend(CompressBackend::active(), key)
    }

    /// [`HmacKey::new`] with the per-message hashing pinned to an explicit
    /// backend (differential tests and per-backend benchmarks).
    pub fn new_with_backend(backend: CompressBackend, key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = Sha256::digest_with_backend(backend, key);
            key_block[..DIGEST_LEN].copy_from_slice(digest.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut inner_key = [0u8; BLOCK_LEN];
        let mut outer_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            inner_key[i] = key_block[i] ^ 0x36;
            outer_key[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = Sha256::new_with_backend(backend);
        inner.update(&inner_key);
        let mut outer = Sha256::new_with_backend(backend);
        outer.update(&outer_key);
        Self { inner, outer }
    }

    /// Starts an incremental MAC computation from the precomputed state.
    pub fn hasher(&self) -> HmacSha256 {
        HmacSha256 {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }

    /// Computes the tag over `data`, resuming from the precomputed states.
    pub fn mac(&self, data: &[u8]) -> Digest {
        let mut h = self.hasher();
        h.update(data);
        h.finalize()
    }

    /// Verifies `tag` over `data` in constant time.
    pub fn verify(&self, data: &[u8], tag: &[u8]) -> bool {
        ct_eq(self.mac(data).as_bytes(), tag)
    }

    /// Computes the tags of `message` under every key in `keys` in one pass
    /// (one message schedule expansion shared across the whole batch).
    ///
    /// `result[i]` is the tag under `keys[i]`; equivalent to calling
    /// [`HmacKey::mac`] per key, and several times faster on the SIMD
    /// backend's lane kernels (on a SHA-extensions CPU it *is* one
    /// sequential kernel pass per key — see [`MacSchedule`]).
    pub fn mac_batch(keys: &[&HmacKey], message: &[u8]) -> Vec<Digest> {
        MacSchedule::new(message).mac_batch(keys)
    }

    /// Verifies `tags[i]` over `message` under `keys[i]` for every index in
    /// constant time, sharing the message schedule across the batch.
    ///
    /// Per-index verdicts: `result[i]` reports on input `i` only; a bad tag
    /// at one index never masks a good one elsewhere.  `keys` and `tags`
    /// must have equal length.
    pub fn verify_batch(keys: &[&HmacKey], message: &[u8], tags: &[&[u8]]) -> Vec<bool> {
        assert_eq!(keys.len(), tags.len(), "one tag per key");
        Self::mac_batch(keys, message)
            .iter()
            .zip(tags)
            .map(|(expected, tag)| ct_eq(expected.as_bytes(), tag))
            .collect()
    }

    /// A 64-bit fingerprint identifying this key (derived from the
    /// precomputed inner state, so no extra hashing).  Two distinct keys
    /// collide with negligible probability; the signature layer uses this to
    /// key its host-side verification memo so results cached under one key
    /// directory can never leak into another.
    pub fn fingerprint(&self) -> u64 {
        self.inner.state_fingerprint()
    }
}

/// A message's precomputed inner-hash schedules, reusable across HMAC keys.
///
/// The SHA-256 message schedule depends only on the block bytes — never on
/// the chaining state — and the HMAC inner hash absorbs the message at a
/// block-aligned offset (right after the ipad block).  Both facts together
/// mean the *entire* inner-hash schedule for one message (full blocks and
/// the padded tail) is identical for every key, so it can be expanded once
/// and replayed against each key's precomputed inner state.  Schedule
/// expansion is roughly a third of the compress work; on the SIMD backend
/// the remaining per-key rounds also run 4/8 keys lane-parallel, which is
/// where the batch-verify speedup (`crypto.verify_batch8_ns_per_mac` against
/// `crypto.verify_ns` in `benchmark/`) comes from.
///
/// None of that pays on a CPU with the SHA extensions, whose sequential
/// kernel hashes a block faster than a precomputed schedule can be replayed:
/// there (and on the scalar oracle backend) no schedule is expanded and
/// every MAC is one sequential pass under the key — same tags, same API.
///
/// # Examples
///
/// ```
/// use fs_crypto::hmac::{HmacKey, MacSchedule};
///
/// let keys: Vec<HmacKey> = (0..3).map(|i| HmacKey::new(&[i as u8; 16])).collect();
/// let refs: Vec<&HmacKey> = keys.iter().collect();
/// let schedule = MacSchedule::new(b"one message, n authenticators");
/// let tags = schedule.mac_batch(&refs);
/// for (key, tag) in keys.iter().zip(&tags) {
///     assert_eq!(*tag, key.mac(b"one message, n authenticators"));
/// }
/// ```
pub struct MacSchedule<'m> {
    message: &'m [u8],
    /// Expanded schedules for every post-ipad inner-hash block: the full
    /// message blocks, then the padded tail block(s).  Empty in sequential
    /// mode (scalar oracle backend, or a SHA-extensions CPU), where every
    /// MAC takes the per-key incremental path instead.
    schedules: Vec<[u32; 64]>,
}

impl<'m> MacSchedule<'m> {
    /// Expands the inner-hash schedule for `message` on the process's active
    /// backend.
    pub fn new(message: &'m [u8]) -> Self {
        Self::new_with_backend(CompressBackend::active(), message)
    }

    /// [`MacSchedule::new`] pinned to an explicit backend.
    pub fn new_with_backend(backend: CompressBackend, message: &'m [u8]) -> Self {
        let lanes = backend != CompressBackend::Scalar && !shani::available();
        Self::build(lanes, message)
    }

    /// Builds the schedule in lane mode (`lanes`: expand every block once)
    /// or in sequential mode (no precompute).
    fn build(lanes: bool, message: &'m [u8]) -> Self {
        let mut schedule = Self {
            message,
            schedules: Vec::new(),
        };
        if !lanes {
            return schedule;
        }
        let full = message.len() - message.len() % BLOCK_LEN;
        schedule.schedules.reserve(full / BLOCK_LEN + 2);
        for block in message[..full].chunks_exact(BLOCK_LEN) {
            schedule.schedules.push(expand_schedule(block));
        }
        // The inner hash has already absorbed the 64-byte ipad block, so its
        // total length — and therefore the padding — covers 64 + len bytes.
        let rem = message.len() - full;
        let tail_total = if rem + 1 + 8 <= BLOCK_LEN {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        let bit_len = ((BLOCK_LEN + message.len()) as u64).wrapping_mul(8);
        let mut padded = [0u8; 2 * BLOCK_LEN];
        padded[..rem].copy_from_slice(&message[full..]);
        padded[rem] = 0x80;
        padded[tail_total - 8..tail_total].copy_from_slice(&bit_len.to_be_bytes());
        for block in padded[..tail_total].chunks_exact(BLOCK_LEN) {
            schedule.schedules.push(expand_schedule(block));
        }
        schedule
    }

    /// Sequential mode: nothing was precomputed (a padded message always
    /// has at least one tail schedule otherwise).
    fn sequential(&self) -> bool {
        self.schedules.is_empty()
    }

    /// Computes the tag under one key, replaying the precomputed schedules
    /// against the key's inner state.
    pub fn mac(&self, key: &HmacKey) -> Digest {
        if self.sequential() {
            return key.mac(self.message);
        }
        let mut state = key.inner.state();
        for w in &self.schedules {
            compress_with_schedule(&mut state, w);
        }
        outer_finalize(key, &state_to_digest(&state))
    }

    /// Computes the tag under every key — lane-parallel over the shared
    /// schedule, or one sequential pass per key in sequential mode.
    ///
    /// `result[i]` is the tag under `keys[i]`.
    pub fn mac_batch(&self, keys: &[&HmacKey]) -> Vec<Digest> {
        if self.sequential() {
            return keys.iter().map(|k| self.mac(k)).collect();
        }
        let mut out = Vec::with_capacity(keys.len());
        let mut rest = keys;
        while rest.len() >= 8 {
            out.extend(self.mac_lanes::<8>(rest));
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            out.extend(self.mac_lanes::<4>(rest));
            rest = &rest[4..];
        }
        for key in rest {
            out.push(self.mac(key));
        }
        out
    }

    /// One lane-parallel group: shared schedule into `N` per-key inner
    /// states, then `N` per-key outer finalizations in one wide pass.
    fn mac_lanes<const N: usize>(&self, keys: &[&HmacKey]) -> [Digest; N] {
        let mut states: [[u32; 8]; N] = core::array::from_fn(|l| keys[l].inner.state());
        for w in &self.schedules {
            simd::compress_wide_shared(&mut states, w);
        }
        let blocks: [[u8; BLOCK_LEN]; N] =
            core::array::from_fn(|l| outer_tail_block(&state_to_digest(&states[l])));
        let mut outer_states: [[u32; 8]; N] = core::array::from_fn(|l| keys[l].outer.state());
        simd::compress_wide(
            &mut outer_states,
            core::array::from_fn(|l| blocks[l].as_slice()),
        );
        core::array::from_fn(|l| state_to_digest(&outer_states[l]))
    }
}

/// The single final block of the HMAC outer hash: the 32-byte inner digest,
/// the 0x80 terminator, and the 768-bit total length (64-byte opad block +
/// 32-byte digest).
#[inline]
fn outer_tail_block(inner_digest: &Digest) -> [u8; BLOCK_LEN] {
    let mut block = [0u8; BLOCK_LEN];
    block[..DIGEST_LEN].copy_from_slice(inner_digest.as_bytes());
    block[DIGEST_LEN] = 0x80;
    let bit_len = ((BLOCK_LEN + DIGEST_LEN) as u64).wrapping_mul(8);
    block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
    block
}

/// Finishes an HMAC from a computed inner digest: one compression of the
/// outer tail block from the key's precomputed opad state.
#[inline]
fn outer_finalize(key: &HmacKey, inner_digest: &Digest) -> Digest {
    let mut state = key.outer.state();
    compress_blocks(&mut state, &outer_tail_block(inner_digest));
    state_to_digest(&state)
}

/// An HMAC-SHA-256 keyed hasher.
///
/// The one-shot constructors rebuild the key schedule on every call; code
/// that signs or verifies repeatedly under the same key should hold an
/// [`HmacKey`] instead and resume from its precomputed state.
///
/// # Examples
///
/// ```
/// use fs_crypto::hmac::HmacSha256;
///
/// let tag = HmacSha256::mac(b"key", b"the quick brown fox");
/// assert!(HmacSha256::verify(b"key", b"the quick brown fox", tag.as_bytes()));
/// assert!(!HmacSha256::verify(b"key", b"tampered", tag.as_bytes()));
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a keyed hasher for `key`.
    ///
    /// Keys longer than the block size are hashed first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).hasher()
    }

    /// Feeds message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the authentication tag.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// One-shot MAC computation.
    pub fn mac(key: &[u8], data: &[u8]) -> Digest {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// Verifies `tag` over `data` under `key` in constant time.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        let expected = Self::mac(key, data);
        ct_eq(expected.as_bytes(), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            HmacSha256::mac(&key, data).to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let key = b"Jefe";
        let data = b"what do ya want for nothing?";
        assert_eq!(
            HmacSha256::mac(key, data).to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            HmacSha256::mac(&key, &data).to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            HmacSha256::mac(&key, data).to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let data = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            HmacSha256::mac(&key, data).to_hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let key = b"middleware-signing-key";
        let data: Vec<u8> = (0..500u16).map(|x| (x % 251) as u8).collect();
        let one_shot = HmacSha256::mac(key, &data);
        let mut h = HmacSha256::new(key);
        for chunk in data.chunks(13) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), one_shot);
    }

    #[test]
    fn verify_rejects_wrong_key_and_data() {
        let tag = HmacSha256::mac(b"key-a", b"message");
        assert!(HmacSha256::verify(b"key-a", b"message", tag.as_bytes()));
        assert!(!HmacSha256::verify(b"key-b", b"message", tag.as_bytes()));
        assert!(!HmacSha256::verify(b"key-a", b"messagE", tag.as_bytes()));
        assert!(!HmacSha256::verify(
            b"key-a",
            b"message",
            &tag.as_bytes()[..31]
        ));
    }

    #[test]
    fn distinct_keys_produce_distinct_tags() {
        let t1 = HmacSha256::mac(b"k1", b"same message");
        let t2 = HmacSha256::mac(b"k2", b"same message");
        assert_ne!(t1, t2);
    }

    /// The cached key schedule must produce exactly the tags the one-shot
    /// path produces on the RFC 4231 (HMAC-SHA-256, per RFC 6234 §8.2.2)
    /// vectors: (key, data, expected tag hex).
    #[test]
    fn hmac_key_matches_one_shot_on_rfc_vectors() {
        let vectors: Vec<(Vec<u8>, Vec<u8>, &str)> = vec![
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, data, expected) in vectors {
            let cached = HmacKey::new(&key);
            assert_eq!(cached.mac(&data).to_hex(), expected);
            assert_eq!(cached.mac(&data), HmacSha256::mac(&key, &data));
            assert!(cached.verify(&data, HmacSha256::mac(&key, &data).as_bytes()));
        }
    }

    #[test]
    fn hmac_key_is_reusable_across_messages() {
        let key = HmacKey::new(b"middleware-signing-key");
        for len in [0usize, 1, 63, 64, 65, 100, 1000, 10_000] {
            let data: Vec<u8> = (0..len).map(|x| (x % 251) as u8).collect();
            assert_eq!(
                key.mac(&data),
                HmacSha256::mac(b"middleware-signing-key", &data),
                "payload length {len}"
            );
        }
    }

    #[test]
    fn hmac_key_incremental_hasher_matches() {
        let key = HmacKey::new(b"k");
        let data: Vec<u8> = (0..777u16).map(|x| (x % 251) as u8).collect();
        let mut h = key.hasher();
        for chunk in data.chunks(19) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), key.mac(&data));
    }

    #[test]
    fn hmac_key_rejects_tampered_tag() {
        let key = HmacKey::new(b"k");
        let mut tag = *key.mac(b"m").as_bytes();
        tag[0] ^= 1;
        assert!(!key.verify(b"m", &tag));
        assert!(!key.verify(b"m", &tag[..16]));
    }

    #[test]
    fn mac_batch_matches_per_key_on_every_backend() {
        // 11 keys exercises the 8-lane, 4-lane (via the 3 leftovers → no,
        // 11 = 8 + 3 singles) and scalar-remainder grouping.
        let keys: Vec<HmacKey> = (0..11u8).map(|i| HmacKey::new(&[i + 1; 20])).collect();
        let refs: Vec<&HmacKey> = keys.iter().collect();
        for len in [0usize, 3, 55, 56, 63, 64, 65, 127, 128, 129, 1000] {
            let msg: Vec<u8> = (0..len).map(|x| (x % 251) as u8).collect();
            for backend in [CompressBackend::Scalar, CompressBackend::Simd] {
                let schedule = MacSchedule::new_with_backend(backend, &msg);
                let tags = schedule.mac_batch(&refs);
                assert_eq!(tags.len(), keys.len());
                for (key, tag) in keys.iter().zip(&tags) {
                    assert_eq!(*tag, key.mac(&msg), "len {len}, backend {backend:?}");
                }
                assert_eq!(schedule.mac(&keys[0]), keys[0].mac(&msg));
            }
        }
    }

    #[test]
    fn verify_batch_reports_per_index() {
        let keys: Vec<HmacKey> = (0..6u8).map(|i| HmacKey::new(&[i + 10; 16])).collect();
        let refs: Vec<&HmacKey> = keys.iter().collect();
        let msg = b"per-index verdicts";
        let mut tags: Vec<Digest> = HmacKey::mac_batch(&refs, msg);
        tags[2].0[0] ^= 1;
        tags[5].0[31] ^= 0x80;
        let tag_refs: Vec<&[u8]> = tags.iter().map(|t| t.as_bytes().as_slice()).collect();
        let verdicts = HmacKey::verify_batch(&refs, msg, &tag_refs);
        assert_eq!(verdicts, [true, true, false, true, true, false]);
    }

    /// Lane mode gives the tags of the sequential path (built directly: on
    /// a SHA-extensions host the public constructors never choose it).
    #[test]
    fn lane_mode_matches_sequential_mode() {
        let keys: Vec<HmacKey> = (0..9u8).map(|i| HmacKey::new(&[i + 3; 24])).collect();
        let refs: Vec<&HmacKey> = keys.iter().collect();
        for len in (0..=200).chain([10_240]) {
            let msg: Vec<u8> = (0..len).map(|x| (x % 251) as u8).collect();
            let expected: Vec<Digest> = keys.iter().map(|k| k.mac(&msg)).collect();
            let schedule = MacSchedule::build(true, &msg);
            assert_eq!(schedule.mac_batch(&refs), expected, "len {len}");
            assert_eq!(schedule.mac(&keys[0]), expected[0], "len {len}");
        }
    }
}
