//! SHA-256, implemented from scratch (FIPS 180-4), with pluggable
//! compression backends.
//!
//! The suite never links an external cryptography crate; message digests and
//! the keyed authenticators built on top of them ([`crate::hmac`]) are
//! implemented here and validated against the standard test vectors
//! (RFC 6234 / NIST).
//!
//! ## Backends and kernels
//!
//! Two [`CompressBackend`]s produce byte-identical digests:
//!
//! * [`CompressBackend::Scalar`] — the original one-block-at-a-time path,
//!   kept as the differential oracle and reached only per call
//!   ([`Sha256::new_with_backend`], [`Sha256::digest_with_backend`],
//!   [`crate::hmac::HmacKey::new_with_backend`]);
//! * [`CompressBackend::Simd`] — what every other hasher uses: "the best
//!   kernel this CPU has".  Which kernel that is gets detected at run time,
//!   never configured ([`kernel_name`] reports it):
//!
//! | detected kernel | hashing (`update`, `digest`, `HmacKey::mac`) |
//! |---|---|
//! | `sha-ni` (x86-64 SHA extensions) | the `sha256rnds2` kernel, whole block runs straight from the input slice |
//! | `portable` (anything else, every non-x86-64 target) | portable multi-block loop (state in locals across the run, no per-block copy) |
//!
//! Because every backend and kernel computes the same function, the choice
//! can never change a simulation result — only host wall-clock.

use core::fmt;
use std::cell::Cell;

use serde::{Deserialize, Serialize};

use crate::shani;

/// The size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;
/// The internal block size of SHA-256 in bytes.
pub const BLOCK_LEN: usize = 64;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which SHA-256 compression implementation a hasher uses.
///
/// Both backends compute the identical function (the differential suite in
/// `tests/backends.rs` proves byte-identity on boundary vectors, the shapes
/// the protocol hashes and random inputs), so the choice only affects host
/// wall-clock — never simulated clocks, traces or digests.  There is no
/// process-wide switch: [`CompressBackend::Scalar`] is reached only through
/// the `*_with_backend` constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressBackend {
    /// One block at a time through the hasher's internal buffer — the
    /// original implementation, kept as the differential oracle.
    Scalar,
    /// The best kernel the running CPU has (see the module docs): the SHA
    /// extensions where present, otherwise the portable multi-block loop.
    Simd,
}

impl CompressBackend {
    /// The backend [`Sha256::new`], [`Sha256::digest`] and
    /// [`crate::hmac::HmacKey::new`] use: always [`CompressBackend::Simd`].
    pub fn active() -> Self {
        Self::Simd
    }
}

/// The kernel [`CompressBackend::Simd`] resolves to on the running CPU:
/// `"sha-ni"` or `"portable"` (see the module docs).  Reported by the
/// benchmarks so numbers from different hosts are never compared as if they
/// came from the same kernel.
pub fn kernel_name() -> &'static str {
    if shani::available() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// Expands one 64-byte block into the 64-entry message schedule (FIPS 180-4
/// §6.2.2 step 1).
#[inline]
fn expand_schedule(block: &[u8]) -> [u32; 64] {
    debug_assert_eq!(block.len(), BLOCK_LEN);
    let mut w = [0u32; 64];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    w
}

/// Runs the 64 compression rounds with an already-expanded message schedule
/// and folds the result into `state` (FIPS 180-4 §6.2.2 steps 2–4).
#[inline]
fn compress_with_schedule(state: &mut [u32; 8], w: &[u32; 64]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

thread_local! {
    /// Blocks this thread has compressed sequentially (see
    /// [`blocks_compressed`]).
    static BLOCKS_COMPRESSED: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count_blocks(data: &[u8]) {
    BLOCKS_COMPRESSED.with(|n| n.set(n.get() + (data.len() / BLOCK_LEN) as u64));
}

/// How many 64-byte blocks the calling thread has compressed so far: every
/// [`Sha256`] update, digest and [`crate::hmac`] MAC, on either backend.
/// Differences of this counter are how tests count hash passes where they
/// cannot hide — e.g. that an ordered delivery of a 10 KiB payload costs no
/// more than a stated number of full-content passes (`tests/hash_passes.rs`).
pub fn blocks_compressed() -> u64 {
    BLOCKS_COMPRESSED.with(Cell::get)
}

/// Compresses a whole run of blocks (`data.len()` must be a multiple of 64)
/// straight from the input slice — the single choke point of every
/// non-oracle hash, and where [`blocks_compressed`] counts.  Runs the
/// SHA-extensions kernel where the CPU has it
/// (probed per call; the probe is one cached atomic load) and the portable
/// multi-block loop otherwise.
#[inline]
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    count_blocks(data);
    if !shani::try_compress_blocks(state, data) {
        compress_blocks_portable(state, data);
    }
}

/// The portable body of [`compress_blocks`]: the chaining state is loaded
/// into locals once per run instead of once per block, and no bytes are
/// copied into an intermediate block buffer.
pub(crate) fn compress_blocks_portable(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % BLOCK_LEN, 0);
    let mut s = *state;
    for block in data.chunks_exact(BLOCK_LEN) {
        let w = expand_schedule(block);
        compress_with_schedule(&mut s, &w);
    }
    *state = s;
}

/// Converts a chaining state to the big-endian digest bytes.
#[inline]
pub(crate) fn state_to_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state.iter()) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// A SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Digest(pub [u8; DIGEST_LEN]);

/// A digest is its own table hash: SHA-256 output is uniform, so a hashed
/// table keyed by one feeds its hasher the first eight bytes and leaves the
/// other 24 to the equality check, instead of hashing 32 bytes a second time.
impl std::hash::Hash for Digest {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let [a, b, c, d, e, f, g, h, ..] = self.0;
        state.write_u64(u64::from_le_bytes([a, b, c, d, e, f, g, h]));
    }
}

/// Lowercase hexadecimal alphabet indexed by nibble value.
const HEX_CHARS: &[u8; 16] = b"0123456789abcdef";

/// Maps an ASCII byte to its nibble value, or 0xff for non-hex input.
const HEX_NIBBLES: [u8; 256] = {
    let mut table = [0xffu8; 256];
    let mut i = 0u8;
    while i < 10 {
        table[(b'0' + i) as usize] = i;
        i += 1;
    }
    let mut j = 0u8;
    while j < 6 {
        table[(b'a' + j) as usize] = 10 + j;
        table[(b'A' + j) as usize] = 10 + j;
        j += 1;
    }
    table
};

impl Digest {
    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Returns the digest as a lowercase hexadecimal string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            s.push(HEX_CHARS[(b >> 4) as usize] as char);
            s.push(HEX_CHARS[(b & 0x0f) as usize] as char);
        }
        s
    }

    /// Parses a digest from a 64-character hexadecimal string.
    ///
    /// Returns `None` when the string has the wrong length or contains
    /// non-hexadecimal characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != DIGEST_LEN * 2 {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, chunk) in s.as_bytes().chunks_exact(2).enumerate() {
            let hi = HEX_NIBBLES[chunk[0] as usize];
            let lo = HEX_NIBBLES[chunk[1] as usize];
            if hi == 0xff || lo == 0xff {
                return None;
            }
            out[i] = (hi << 4) | lo;
        }
        Some(Digest(out))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", &self.to_hex()[..16])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(v: [u8; DIGEST_LEN]) -> Self {
        Digest(v)
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use fs_crypto::sha256::Sha256;
///
/// let one_shot = Sha256::digest(b"hello world");
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), one_shot);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
    backend: CompressBackend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher using the process's active backend.
    pub fn new() -> Self {
        Self::new_with_backend(CompressBackend::active())
    }

    /// Creates a fresh hasher pinned to an explicit backend (differential
    /// tests and benchmarks; deployments use [`Sha256::new`]).
    pub fn new_with_backend(backend: CompressBackend) -> Self {
        Self {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
            backend,
        }
    }

    /// Convenience one-shot digest.
    pub fn digest(data: &[u8]) -> Digest {
        Self::digest_with_backend(CompressBackend::active(), data)
    }

    /// One-shot digest on an explicit backend.
    ///
    /// On the SIMD backend this path never touches a hasher: full blocks compress straight from `data` and only the final
    /// padded block(s) are assembled on the stack — no per-block buffer
    /// copies and no final state copy/reset.
    pub fn digest_with_backend(backend: CompressBackend, data: &[u8]) -> Digest {
        if backend == CompressBackend::Scalar {
            // The oracle path stays exactly the original incremental code.
            let mut h = Self::new_with_backend(backend);
            h.update(data);
            return h.finalize();
        }
        let mut state = H0;
        let full = data.len() - data.len() % BLOCK_LEN;
        compress_blocks(&mut state, &data[..full]);
        let mut tail = [0u8; 2 * BLOCK_LEN];
        let rem = data.len() - full;
        tail[..rem].copy_from_slice(&data[full..]);
        tail[rem] = 0x80;
        let total = if rem + 1 + 8 <= BLOCK_LEN {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        let bit_len = (data.len() as u64).wrapping_mul(8);
        tail[total - 8..total].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut state, &tail[..total]);
        state_to_digest(&state)
    }

    /// Compresses a run of whole blocks on this hasher's backend: one block
    /// at a time on the scalar oracle, the detected kernel otherwise.
    fn compress_run(&mut self, blocks: &[u8]) {
        if self.backend == CompressBackend::Scalar {
            count_blocks(blocks);
            for block in blocks.chunks_exact(BLOCK_LEN) {
                self.compress(block.try_into().expect("block sized"));
            }
        } else {
            compress_blocks(&mut self.state, blocks);
        }
    }

    /// Feeds more data to the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let need = BLOCK_LEN - self.buffer_len;
            let take = need.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == BLOCK_LEN {
                let block = self.buffer;
                self.compress_run(&block);
                self.buffer_len = 0;
            }
        }
        let full = data.len() - data.len() % BLOCK_LEN;
        if full > 0 {
            self.compress_run(&data[..full]);
            data = &data[full..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finishes the hash computation and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Assemble the final one or two blocks (buffered tail + 0x80
        // terminator + zero padding + 64-bit message length) in one stack
        // buffer and compress them directly — this runs once per digest on
        // the authenticated hot path, so it avoids a byte-at-a-time loop.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        tail[self.buffer_len] = 0x80;
        let total = if self.buffer_len + 1 + 8 <= BLOCK_LEN {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[total - 8..total].copy_from_slice(&bit_len.to_be_bytes());
        self.compress_run(&tail[..total]);
        state_to_digest(&self.state)
    }

    /// A 64-bit fingerprint of the current chaining state, used by the
    /// signature layer to key its host-side verification memo per HMAC key
    /// (the state after absorbing the ipad block is unique per key).
    pub(crate) fn state_fingerprint(&self) -> u64 {
        (u64::from(self.state[0]) << 32) | u64::from(self.state[1])
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Constant-time equality comparison of two byte slices.
///
/// Returns `false` when the lengths differ.  Used for authenticator and
/// signature comparison so that verification time does not leak how many
/// prefix bytes matched.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test vectors from RFC 6234 / NIST FIPS 180-4 examples.
    #[test]
    fn empty_string() {
        assert_eq!(
            Sha256::digest(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            Sha256::digest(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_message_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            Sha256::digest(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exact_block_boundary() {
        // 64-byte message exercises the padding-to-a-new-block path.
        let data = [0x61u8; 64];
        assert_eq!(
            Sha256::digest(&data).to_hex(),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let one_shot = Sha256::digest(&data);
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 100, 1000] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = Sha256::digest(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
    }

    #[test]
    fn hex_round_trip_every_byte_value() {
        // Exercise the nibble lookup tables over all 256 byte values.
        for start in [0u8, 32, 64, 96, 128, 160, 192, 224] {
            let mut raw = [0u8; DIGEST_LEN];
            for (i, b) in raw.iter_mut().enumerate() {
                *b = start.wrapping_add(i as u8);
            }
            let d = Digest(raw);
            let hex = d.to_hex();
            assert_eq!(hex.len(), 64);
            assert!(hex.bytes().all(|c| c.is_ascii_hexdigit()));
            assert_eq!(Digest::from_hex(&hex), Some(d));
            // Uppercase input parses to the same digest.
            assert_eq!(Digest::from_hex(&hex.to_uppercase()), Some(d));
        }
    }

    #[test]
    fn from_hex_rejects_embedded_garbage() {
        let good = Sha256::digest(b"x").to_hex();
        for bad_char in ['g', ' ', '-', '\u{00e9}'] {
            let mut bad = good.clone();
            bad.replace_range(10..11, &bad_char.to_string());
            // Multi-byte replacements change the length and are rejected for
            // that reason; single-byte ones must hit the nibble table.
            assert_eq!(Digest::from_hex(&bad), None, "{bad_char:?}");
        }
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sama"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn digest_display_and_debug() {
        let d = Sha256::digest(b"abc");
        assert_eq!(d.to_string().len(), 64);
        assert!(format!("{d:?}").starts_with("Digest("));
    }
}
