//! A small seeded multiply-fold hasher for host-side tables.
//!
//! The suite's hashed tables — the crypto memos and the wrapper's dedup
//! sets — are probed once or more per protocol message, some with keys as
//! long as a whole payload.  The standard library's SipHash-1-3 runs at
//! about one byte per cycle; over a 10 KiB key that is more time than the
//! SHA-NI pass the memo exists to save.  [`FastHasher`] folds 64 bytes per
//! step through four independent 64×64→128-bit multiplies (the wyhash /
//! foldhash construction), which is 8–16 bytes per cycle on current x86-64
//! and AArch64 cores, in safe Rust with no dependency.
//!
//! It is **not** a cryptographic hash and is never used as one: every table
//! built on it compares full keys on a bucket hit, so a collision costs a
//! `memcmp`, never a wrong answer.  Each thread draws one random seed from
//! the operating system (via [`std::collections::hash_map::RandomState`]),
//! so bucket placement cannot be predicted from outside the process.
//!
//! Tables built on it must never be *iterated* where the order could reach
//! a trace, a wire frame or a statistic: the seed differs per thread and
//! per run.  Membership, `get`, `insert`, `remove` and `clear` are order-free.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` probed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` probed through [`FastHasher`].
pub type FastSet<K> = HashSet<K, FastState>;

/// Odd 64-bit multipliers (the wyhash secrets); one per lane.
const LANE_KEYS: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// The folded multiply: the 128-bit product of `a` and `b`, high half xored
/// into the low half.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

#[inline(always)]
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

#[inline(always)]
fn read_u32(bytes: &[u8], at: usize) -> u64 {
    u64::from(u32::from_le_bytes(
        bytes[at..at + 4].try_into().expect("4 bytes"),
    ))
}

/// The [`BuildHasher`] of [`FastMap`] / [`FastSet`]: carries the creating
/// thread's random seed.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> Self {
        thread_local! {
            static SEED: u64 =
                std::collections::hash_map::RandomState::new().build_hasher().finish();
        }
        Self {
            seed: SEED.with(|seed| *seed),
        }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher { acc: self.seed }
    }
}

/// The streaming hasher; see the module documentation.
#[derive(Debug, Clone)]
pub struct FastHasher {
    acc: u64,
}

impl FastHasher {
    /// Absorbs at most 16 bytes with two (possibly overlapping) loads.
    #[inline(always)]
    fn absorb_short(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        let (a, b) = if len >= 8 {
            (read_u64(bytes, 0), read_u64(bytes, len - 8))
        } else if len >= 4 {
            (read_u32(bytes, 0), read_u32(bytes, len - 4))
        } else if len > 0 {
            let packed = u64::from(bytes[0])
                | u64::from(bytes[len / 2]) << 8
                | u64::from(bytes[len - 1]) << 16;
            (packed, 0)
        } else {
            (0, 0)
        };
        self.acc = fold(a ^ self.acc, b ^ LANE_KEYS[1]);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // The length separates `"ab" + "c"` from `"a" + "bc"` even for
        // callers that do not write a length prefix of their own.
        self.acc ^= (bytes.len() as u64).wrapping_mul(LANE_KEYS[0]);
        if bytes.len() <= 16 {
            self.absorb_short(bytes);
            return;
        }
        let mut rest = bytes;
        if rest.len() >= 64 {
            let mut lanes = [
                self.acc,
                self.acc ^ LANE_KEYS[1],
                self.acc ^ LANE_KEYS[2],
                self.acc ^ LANE_KEYS[3],
            ];
            let mut chunks = rest.chunks_exact(64);
            for chunk in &mut chunks {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = fold(
                        read_u64(chunk, 16 * i) ^ *lane,
                        read_u64(chunk, 16 * i + 8) ^ LANE_KEYS[i],
                    );
                }
            }
            self.acc = fold(lanes[0] ^ lanes[2], lanes[1] ^ lanes[3]);
            rest = chunks.remainder();
        }
        while rest.len() > 16 {
            self.acc = fold(
                read_u64(rest, 0) ^ self.acc,
                read_u64(rest, 8) ^ LANE_KEYS[2],
            );
            rest = &rest[16..];
        }
        // The last 16 bytes of the whole input, overlapping what the loops
        // consumed: covers the remainder without a byte-wise tail.
        let tail = &bytes[bytes.len() - 16..];
        self.acc = fold(
            read_u64(tail, 0) ^ self.acc,
            read_u64(tail, 8) ^ LANE_KEYS[3],
        );
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.acc = fold(x ^ self.acc, LANE_KEYS[0]);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // One more fold so the final multiply's low-entropy bits do not
        // land in the bucket index unmixed.
        fold(self.acc, LANE_KEYS[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(state: FastState, value: &T) -> u64 {
        state.hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_seed_matters() {
        let a = FastState { seed: 1 };
        let b = FastState { seed: 2 };
        let key = (7u32, vec![1u8, 2, 3]);
        assert_eq!(hash_of(a, &key), hash_of(a, &key.clone()));
        assert_ne!(hash_of(a, &key), hash_of(b, &key));
    }

    #[test]
    fn every_byte_of_every_length_reaches_the_hash() {
        let state = FastState { seed: 0x5eed };
        for len in 1..=300usize {
            let base: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let reference = hash_of(state, base.as_slice());
            for flip in 0..len {
                let mut changed = base.clone();
                changed[flip] ^= 0x40;
                assert_ne!(
                    hash_of(state, changed.as_slice()),
                    reference,
                    "len {len}, byte {flip}"
                );
            }
        }
    }

    #[test]
    fn split_writes_differ_from_each_other() {
        let state = FastState { seed: 9 };
        let mut ab_c = state.build_hasher();
        ab_c.write(b"ab");
        ab_c.write(b"c");
        let mut a_bc = state.build_hasher();
        a_bc.write(b"a");
        a_bc.write(b"bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }

    #[test]
    fn bucket_bits_are_spread_for_sequential_integers() {
        // hashbrown indexes with the low bits and tags with the top seven;
        // sequential keys must not pile into a few values of either.
        let state = FastState { seed: 3 };
        let mut low = [0u32; 64];
        let mut high = [0u32; 128];
        for i in 0..64_000u64 {
            let h = hash_of(state, &i);
            low[(h & 63) as usize] += 1;
            high[(h >> 57) as usize] += 1;
        }
        assert!(low.iter().all(|&c| (700..1300).contains(&c)), "{low:?}");
        assert!(high.iter().all(|&c| (300..700).contains(&c)), "{high:?}");
    }

    #[test]
    fn fast_tables_behave_like_tables() {
        let mut map: FastMap<(u32, Vec<u8>), u64> = FastMap::default();
        for i in 0..1000u32 {
            map.insert((i % 7, vec![i as u8; (i % 90) as usize]), u64::from(i));
        }
        assert_eq!(map.get(&(3, vec![3u8; 3])), Some(&3));
        let mut set: FastSet<u64> = FastSet::default();
        assert!(set.insert(5));
        assert!(!set.insert(5));
        assert!(set.remove(&5));
        assert!(set.is_empty());
    }
}
