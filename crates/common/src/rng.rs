//! Deterministic pseudo-random number generation.
//!
//! Every stochastic element of the suite — network jitter, processing-time
//! variation, fault schedules, property-test schedules — draws from a
//! [`DetRng`] seeded explicitly, so experiments are reproducible bit-for-bit
//! from a seed recorded in the experiment report.
//!
//! The generator is the 64-bit variant of SplitMix followed by xoshiro256++,
//! implemented here directly (no dependency on `rand`'s global entropy) and
//! additionally exposed through the `rand` traits so protocol code can use
//! the familiar `Rng` API.

use rand::{Error as RandError, RngCore, SeedableRng};

/// A small, fast, deterministic RNG (xoshiro256++).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not start in the all-zero state.
        if s == [0, 0, 0, 0] {
            Self { s: [1, 2, 3, 4] }
        } else {
            Self { s }
        }
    }

    /// Derives an independent child generator, e.g. one per simulated node,
    /// so adding a node never perturbs the random streams of the others.
    pub fn derive(&self, stream: u64) -> Self {
        let mut base =
            self.s[0] ^ self.s[3].rotate_left(17) ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut sm = splitmix64(&mut base);
        DetRng::new(splitmix64(&mut sm))
    }

    /// Returns the next 64 random bits.
    pub fn next_u64_raw(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64_raw();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Samples an exponentially distributed value with the given mean.
    ///
    /// Used by the asynchronous-network delay model.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.unit_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Samples a (approximately) normally distributed value via the
    /// Box–Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.unit_f64();
        let u2 = self.unit_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// Returns `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.below(slice.len() as u64) as usize;
            Some(&slice[i])
        }
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), RandError> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for DetRng {
    type Seed = [u8; 8];
    fn from_seed(seed: Self::Seed) -> Self {
        DetRng::new(u64::from_le_bytes(seed))
    }
    fn seed_from_u64(state: u64) -> Self {
        DetRng::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64_raw()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64_raw()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_is_deterministic_and_independent() {
        let root = DetRng::new(7);
        let mut c1 = root.derive(0);
        let mut c1_again = root.derive(0);
        let mut c2 = root.derive(1);
        assert_eq!(c1.next_u64_raw(), c1_again.next_u64_raw());
        assert_ne!(c1.next_u64_raw(), c2.next_u64_raw());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::new(3);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        DetRng::new(0).below(0);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = DetRng::new(11);
        for _ in 0..1000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = DetRng::new(21);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.2, "observed mean {observed}");
    }

    #[test]
    fn normal_mean_is_plausible() {
        let mut rng = DetRng::new(23);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.normal(10.0, 2.0)).sum();
        let observed = sum / n as f64;
        assert!((observed - 10.0).abs() < 0.1, "observed mean {observed}");
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = DetRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = DetRng::new(13);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert!(rng.choose(&[7]).is_some());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = DetRng::new(17);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // Extremely unlikely to be all zero.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn rand_traits_work() {
        use rand::Rng;
        let mut rng = DetRng::seed_from_u64(99);
        let x: u32 = rng.gen();
        let y: u32 = rng.gen();
        assert_ne!(x, y);
    }
}
