//! The x86-64 SHA extensions (`sha256rnds2` / `sha256msg1` / `sha256msg2`)
//! sequential compression kernel.
//!
//! One call compresses a whole run of 64-byte blocks with the chaining state
//! held in two `xmm` registers; the CPU does four message-schedule words or
//! two rounds per instruction, which is roughly six times the throughput of
//! the portable loop in [`crate::sha256`] on the same core.
//!
//! ## Safety argument
//!
//! This is the crate's one `#![allow(unsafe_code)]` module.  The single
//! safe entry point,
//! [`try_compress_blocks`], upholds everything the `unsafe` inside relies on:
//!
//! * **feature detected before call** — the `#[target_feature]` kernel is
//!   only reached after `is_x86_feature_detected!` confirmed `sha`, `sse2`,
//!   `ssse3` and `sse4.1` on the running CPU (the probe is cached by `std`
//!   in an atomic, so the per-call cost is one load);
//! * **unaligned access only** — every memory access is `_mm_loadu_si128` /
//!   `_mm_storeu_si128` through a pointer derived from a live slice or
//!   array of at least 16 bytes, so no alignment is assumed;
//! * **length a checked multiple of 64** — the entry point `assert!`s it
//!   (not `debug_assert!`), and the kernel walks `chunks_exact(64)`, so no
//!   load can pass the end of the input even if the assertion were removed;
//! * **`cfg(target_arch = "x86_64")`** — on every other target the module
//!   compiles to an entry point that reports "unavailable" and the callers
//!   take the portable path.

#![allow(unsafe_code)]

/// Whether the running CPU has the instructions the kernel needs.
#[inline]
pub(crate) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compresses `data` (a whole number of 64-byte blocks) into `state` with
/// the SHA-extensions kernel.  Returns `false`, leaving `state` untouched,
/// when the CPU lacks the extensions; the caller then runs the portable
/// loop.
///
/// # Panics
///
/// Panics when `data.len()` is not a multiple of 64.
#[inline]
pub(crate) fn try_compress_blocks(state: &mut [u32; 8], data: &[u8]) -> bool {
    assert_eq!(data.len() % 64, 0, "whole SHA-256 blocks only");
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` just confirmed every feature the kernel is
        // compiled with.
        unsafe { x86::compress_blocks(state, data) };
        return true;
    }
    let _ = (state, data);
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use crate::sha256::K;

    /// Four rounds: `wk` holds `W[t..t+4] + K[t..t+4]`; the low two lanes
    /// feed the first `sha256rnds2`, the high two the second.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: __m128i) {
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// Loads round constants `K[4 * quad .. 4 * quad + 4]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn k_quad(quad: usize) -> __m128i {
        let k: &[u32] = &K[4 * quad..4 * quad + 4];
        // SAFETY: `k` is a bounds-checked slice of four `u32`s (16 bytes);
        // `loadu` has no alignment requirement.
        unsafe { _mm_loadu_si128(k.as_ptr().cast()) }
    }

    /// The kernel proper.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1` (see
    /// [`super::available`]).  `data` may have any length and alignment:
    /// only whole 64-byte chunks are read.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        // Big-endian word load: byte-reverse each 32-bit lane.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // SAFETY: `state` is 32 bytes; the two unaligned loads cover words
        // 0..4 and 4..8 exactly.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        // The round instruction wants the state as (ABEF, CDGH).
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in data.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is exactly 64 bytes, so the four 16-byte
            // unaligned loads at offsets 0/16/32/48 stay inside it.
            let mut w: [__m128i; 4] = core::array::from_fn(|q| unsafe {
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * q).cast()), be_words)
            });
            for (quad, wq) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, *wq, k_quad(quad));
            }
            for quad in 4..16 {
                // W[t..t+4] from the previous sixteen words (FIPS 180-4
                // §6.2.2 step 1, four words per instruction pair).
                let partial = _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[0], w[1]),
                    _mm_alignr_epi8(w[3], w[2], 4),
                );
                let next = _mm_sha256msg2_epu32(partial, w[3]);
                w = [w[1], w[2], w[3], next];
                rounds4(&mut abef, &mut cdgh, next, k_quad(quad));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        // Back to (DCBA, HGFE) word order.
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as for the loads above — two unaligned 16-byte stores
        // covering the 32-byte state exactly.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
        }
    }
}

/// Differential suite for the two bodies under [`crate::sha256`]'s
/// `compress_blocks`: the SHA-extensions kernel and the portable loop are
/// called *directly*, so both are exercised on one host, and each must
/// agree with the scalar oracle.
#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::sha256::{
        compress_blocks_portable, state_to_digest, CompressBackend, Digest, Sha256, H0,
    };

    type Kernel = fn(&mut [u32; 8], &[u8]);

    fn sha_ni(state: &mut [u32; 8], data: &[u8]) {
        assert!(try_compress_blocks(state, data), "probed available");
    }

    /// The bodies this host can run: the portable loop always, the kernel
    /// when the CPU has it (said out loud when it does not, so a green run
    /// on such a host is not mistaken for kernel coverage).
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("portable", compress_blocks_portable)];
        if available() {
            kernels.push(("sha-ni", sha_ni));
        } else {
            eprintln!("skipped: no sha extension (portable body only)");
        }
        kernels
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Hashes `data` by padding it by hand at byte offset `offset` of a
    /// fresh buffer (so the kernel sees a misaligned run) and compressing
    /// the whole padded run in one call.
    fn digest_via(kernel: Kernel, data: &[u8], offset: usize) -> Digest {
        let padded_len = (data.len() + 9).div_ceil(64) * 64;
        let mut buf = vec![0u8; offset + padded_len];
        let run = &mut buf[offset..];
        run[..data.len()].copy_from_slice(data);
        run[data.len()] = 0x80;
        run[padded_len - 8..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        kernel(&mut state, run);
        state_to_digest(&state)
    }

    fn oracle(data: &[u8]) -> Digest {
        Sha256::digest_with_backend(CompressBackend::Scalar, data)
    }

    #[test]
    fn boundary_lengths_at_every_misalignment() {
        let lens = [
            0usize, 1, 55, 56, 63, 64, 65, 127, 128, 129, 1000, 10_000, 65_536,
        ];
        for len in lens {
            let data = pattern(len);
            let expected = oracle(&data);
            for (name, kernel) in kernels() {
                for offset in 0..16 {
                    assert_eq!(
                        digest_via(kernel, &data, offset),
                        expected,
                        "{name}, len {len}, offset {offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_run_equals_block_at_a_time_from_any_state() {
        let run = pattern(64 * 37);
        for (name, kernel) in kernels() {
            let start: [u32; 8] =
                core::array::from_fn(|i| 0x9e37_79b9u32.wrapping_mul(i as u32 + 1));
            let mut whole = start;
            kernel(&mut whole, &run);
            let mut stepped = start;
            for block in run.chunks_exact(64) {
                kernel(&mut stepped, block);
            }
            let mut portable = start;
            compress_blocks_portable(&mut portable, &run);
            assert_eq!(whole, stepped, "{name}");
            assert_eq!(whole, portable, "{name}");
            // The empty run is the identity.
            let mut untouched = start;
            kernel(&mut untouched, &[]);
            assert_eq!(untouched, start, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "whole SHA-256 blocks only")]
    fn partial_block_is_refused_before_any_load() {
        let mut state = H0;
        try_compress_blocks(&mut state, &[0u8; 65]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random block runs from random states at random misalignments:
        /// every body equals the portable one (itself pinned to the oracle
        /// above and below).
        #[test]
        fn random_runs_agree(
            bytes in proptest::collection::vec(any::<u8>(), 0..1100),
            seed in any::<u64>(),
            offset in 0usize..16,
        ) {
            let blocks = bytes.len().saturating_sub(offset) / 64 * 64;
            let run = &bytes[bytes.len().min(offset)..][..blocks];
            let start: [u32; 8] =
                core::array::from_fn(|i| (seed.rotate_left(7 * i as u32) as u32) ^ i as u32);
            let mut expected = start;
            compress_blocks_portable(&mut expected, run);
            for (name, kernel) in kernels() {
                let mut state = start;
                kernel(&mut state, run);
                prop_assert_eq!(state, expected, "{}", name);
            }
        }

        /// Random length / misalignment / split-point `update` sequences
        /// through the public hasher (whatever kernel `Simd` resolved to)
        /// and through each body by hand, against the scalar oracle.
        #[test]
        fn random_update_sequences_agree(
            bytes in proptest::collection::vec(any::<u8>(), 0..1500),
            offset in 0usize..16,
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let data = &bytes[bytes.len().min(offset)..];
            let expected = oracle(data);
            let mut splits: Vec<usize> =
                cuts.iter().map(|c| *c as usize % (data.len() + 1)).collect();
            splits.sort_unstable();
            let mut h = Sha256::new_with_backend(CompressBackend::Simd);
            let mut from = 0;
            for to in splits.into_iter().chain([data.len()]) {
                h.update(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(h.finalize(), expected);
            for (name, kernel) in kernels() {
                prop_assert_eq!(digest_via(kernel, data, offset), expected, "{}", name);
            }
        }
    }
}
