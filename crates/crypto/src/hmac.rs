//! HMAC-SHA-256 (RFC 2104), built on the local SHA-256 implementation.
//!
//! The paper signs middleware outputs with "MD5 using RSA encryption" through
//! the Java security package (§4).  This suite substitutes keyed
//! authenticators for public-key signatures: assumption A5 only requires
//! that a correct node's signed messages cannot be generated or undetectably
//! altered by another node, which HMAC over a per-signer secret provides in
//! the simulated setting where verifiers obtain verification keys from a
//! trusted [`crate::keys::KeyDirectory`].  What the simulated clock is
//! charged for the paper's scheme is in [`crate::cost`]'s module docs; what
//! is signed, in the README's "Signature shares" paragraph (under
//! Performance).

use crate::sha256::{ct_eq, CompressBackend, Digest, Sha256, BLOCK_LEN, DIGEST_LEN};

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

    /// A 64-bit fingerprint identifying this key (derived from the
    /// precomputed inner state, so no extra hashing).  Two distinct keys
    /// collide with negligible probability; the signature layer uses this to
    /// key its host-side verification memo so results cached under one key
    /// directory can never leak into another.
    pub fn fingerprint(&self) -> u64 {
        self.inner.state_fingerprint()
    }
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
}
