//! Portable lane-parallel SHA-256 compression.
//!
//! Everything here is plain Rust over `[u32; N]` lane vectors — no target
//! intrinsics — written as fixed-width elementwise loops that LLVM can
//! autovectorize, and that still pay off on plain superscalar hardware
//! because the `N` hash chains are data-independent and interleave in the
//! instruction window.
//!
//! At the x86-64 *baseline* (SSE2) LLVM's SLP cost model declines to
//! vectorize these loops, so on that architecture the round loop also gets
//! a second compilation of the **same portable body** under
//! `#[target_feature(enable = "avx2")]`, selected at runtime with
//! `is_x86_feature_detected!`.  That is the only `unsafe` in the module, it
//! is guarded by the feature probe (`avx2_available`), and no intrinsics
//! are involved — the
//! attribute merely lets the autovectorizer use the registers the CPU
//! actually has.  Every other architecture (and pre-AVX2 x86) runs the
//! baseline-compiled portable body, so results are bit-identical
//! everywhere.
//!
//! The feature boundary sits at `rounds_with_kw` — below the schedule
//! setup — deliberately: the `kw` array must reach the AVX2 copy as an
//! opaque reference.  When the shared-schedule caller's splat construction
//! inlines into the same function as the rounds, LLVM propagates the
//! all-lanes-equal structure into the loop, replaces the vector loads with
//! scalar broadcasts, and the SLP vectorizer loses its consecutive-load
//! seeds — the whole loop silently scalarizes (measured at parity with the
//! scalar backend instead of the ~4× the wide registers give).
//!
//! On a CPU with the SHA extensions none of this runs: one sequential pass of
//! the `sha256rnds2` kernel (the crate-private `shani` module) per message
//! or key outruns every lane layout, so the batch APIs take that instead.
//!
//! Two entry points serve the two batch shapes the authenticator stack
//! needs:
//!
//! * [`compress_wide`] — `N` different blocks into `N` states: used when the
//!   data genuinely differs per lane (independent messages, per-key HMAC
//!   inner/outer finalizations);
//! * [`compress_wide_shared`] — one *shared* message schedule into `N`
//!   per-key states: the shared-schedule batch-MAC fast path (the schedule
//!   depends only on the block bytes, so one expansion serves every key
//!   verifying the same message — roughly a third of the scalar compress
//!   work amortizes across the batch).

// One of the crate's two unsafe modules (the other is `shani`):
// `#[target_feature]` twins of the portable bodies plus their probe-guarded
// calls (see the module docs).
#![allow(unsafe_code)]

use crate::sha256::{BLOCK_LEN, K};

/// An `N`-wide vector of `u32` lanes with the elementwise operations the
/// SHA-256 round function needs.  All arithmetic is wrapping.
#[derive(Clone, Copy)]
pub struct Lanes<const N: usize>(pub [u32; N]);

// Inherent `add`/`not`/`shr` rather than the operator traits: the round
// function reads as a uniform chain of named elementwise ops, and trait
// impls would invite mixed operator/method spellings of the same code.
#[allow(clippy::should_implement_trait)]
impl<const N: usize> Lanes<N> {
    /// Broadcasts one value to every lane.
    #[inline(always)]
    pub fn splat(v: u32) -> Self {
        Self([v; N])
    }

    /// Elementwise wrapping addition.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        Self(core::array::from_fn(|l| self.0[l].wrapping_add(o.0[l])))
    }

    /// Elementwise bitwise XOR.
    #[inline(always)]
    pub fn xor(self, o: Self) -> Self {
        Self(core::array::from_fn(|l| self.0[l] ^ o.0[l]))
    }

    /// Elementwise bitwise AND.
    #[inline(always)]
    pub fn and(self, o: Self) -> Self {
        Self(core::array::from_fn(|l| self.0[l] & o.0[l]))
    }

    /// Elementwise bitwise NOT.
    #[inline(always)]
    pub fn not(self) -> Self {
        Self(core::array::from_fn(|l| !self.0[l]))
    }

    /// Elementwise rotate right (compiles to shift+shift+or lanewise, which
    /// is how SSE2 spells a rotate).
    #[inline(always)]
    pub fn rotr(self, r: u32) -> Self {
        Self(core::array::from_fn(|l| self.0[l].rotate_right(r)))
    }

    /// Elementwise logical shift right.
    #[inline(always)]
    pub fn shr(self, r: u32) -> Self {
        Self(core::array::from_fn(|l| self.0[l] >> r))
    }
}

/// Whether the lane loops run under their AVX2 recompilation on this CPU
/// (always `false` off x86-64, where the baseline-compiled body runs).
#[inline]
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs the 64 SHA-256 rounds on `N` chains at once and folds the results
/// into the per-lane states.  `kw[i]` must already hold `w[i] + K[i]` per
/// lane (the callers fuse the constant add into schedule setup).
///
/// This is the runtime feature-dispatch boundary: on x86-64 with AVX2 the
/// call goes to [`rounds_with_kw_avx2`], everywhere else to the
/// baseline-compiled portable body (see the module docs for why the
/// boundary must sit exactly here).
fn rounds_with_kw<const N: usize>(states: &mut [[u32; 8]; N], kw: &[Lanes<N>; 64]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: the feature probe above guarantees AVX2 is available, and
        // the attributed function uses no intrinsics beyond what the
        // autovectorizer emits for it.
        return unsafe { rounds_with_kw_avx2(states, kw) };
    }
    rounds_with_kw_portable(states, kw)
}

/// [`rounds_with_kw_portable`] compiled with AVX2 enabled, so the lane
/// loops actually vectorize (the SSE2-baseline cost model refuses them).
/// Same source, same results, wider registers.  Never inlined into
/// baseline callers (the attribute forbids it), which also keeps the `kw`
/// reference opaque to the vectorizer.
///
/// # Safety
///
/// Callers must ensure the CPU supports AVX2 (see the probe in
/// [`rounds_with_kw`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rounds_with_kw_avx2<const N: usize>(states: &mut [[u32; 8]; N], kw: &[Lanes<N>; 64]) {
    rounds_with_kw_portable(states, kw)
}

/// The portable body of [`rounds_with_kw`]; also recompiled under AVX2 by
/// [`rounds_with_kw_avx2`].
#[inline(always)]
fn rounds_with_kw_portable<const N: usize>(states: &mut [[u32; 8]; N], kw: &[Lanes<N>; 64]) {
    let mut a = Lanes(core::array::from_fn(|l| states[l][0]));
    let mut b = Lanes(core::array::from_fn(|l| states[l][1]));
    let mut c = Lanes(core::array::from_fn(|l| states[l][2]));
    let mut d = Lanes(core::array::from_fn(|l| states[l][3]));
    let mut e = Lanes(core::array::from_fn(|l| states[l][4]));
    let mut f = Lanes(core::array::from_fn(|l| states[l][5]));
    let mut g = Lanes(core::array::from_fn(|l| states[l][6]));
    let mut h = Lanes(core::array::from_fn(|l| states[l][7]));
    for kwi in kw.iter() {
        let s1 = e.rotr(6).xor(e.rotr(11)).xor(e.rotr(25));
        let ch = e.and(f).xor(e.not().and(g));
        let temp1 = h.add(s1).add(ch).add(*kwi);
        let s0 = a.rotr(2).xor(a.rotr(13)).xor(a.rotr(22));
        let maj = a.and(b).xor(a.and(c)).xor(b.and(c));
        let temp2 = s0.add(maj);
        h = g;
        g = f;
        f = e;
        e = d.add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.add(temp2);
    }
    let folded = [a, b, c, d, e, f, g, h];
    for (l, st) in states.iter_mut().enumerate() {
        for (j, v) in folded.iter().enumerate() {
            st[j] = st[j].wrapping_add(v.0[l]);
        }
    }
}

/// Compresses `N` *different* 64-byte blocks into `N` chaining states in one
/// lane-parallel pass.  Every `blocks[l]` must be exactly [`BLOCK_LEN`]
/// bytes.
pub fn compress_wide<const N: usize>(states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
    debug_assert!(blocks.iter().all(|b| b.len() == BLOCK_LEN));
    let mut w = [Lanes::<N>::splat(0); 64];
    for (i, wi) in w.iter_mut().take(16).enumerate() {
        let o = i * 4;
        *wi = Lanes(core::array::from_fn(|l| {
            u32::from_be_bytes([
                blocks[l][o],
                blocks[l][o + 1],
                blocks[l][o + 2],
                blocks[l][o + 3],
            ])
        }));
    }
    for i in 16..64 {
        let s0 = w[i - 15]
            .rotr(7)
            .xor(w[i - 15].rotr(18))
            .xor(w[i - 15].shr(3));
        let s1 = w[i - 2]
            .rotr(17)
            .xor(w[i - 2].rotr(19))
            .xor(w[i - 2].shr(10));
        w[i] = w[i - 16].add(s0).add(w[i - 7]).add(s1);
    }
    let kw: [Lanes<N>; 64] = core::array::from_fn(|i| w[i].add(Lanes::splat(K[i])));
    rounds_with_kw(states, &kw);
}

/// Compresses one *shared*, already-expanded message schedule into `N`
/// per-key chaining states — the batch-MAC fast path.  The `w[i] + K[i]`
/// adds happen once scalar, then broadcast.
pub fn compress_wide_shared<const N: usize>(states: &mut [[u32; 8]; N], w: &[u32; 64]) {
    let kw: [Lanes<N>; 64] = core::array::from_fn(|i| Lanes::splat(w[i].wrapping_add(K[i])));
    rounds_with_kw(states, &kw);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{compress_with_schedule, expand_schedule};

    #[test]
    fn wide_matches_scalar_rounds() {
        // Distinct blocks + distinct states per lane; each lane must equal
        // an independent scalar compression.
        let blocks: Vec<Vec<u8>> = (0..8u8)
            .map(|l| (0..64u8).map(|i| i.wrapping_mul(l + 3) ^ l).collect())
            .collect();
        let mut states: [[u32; 8]; 8] =
            core::array::from_fn(|l| core::array::from_fn(|j| (l as u32) << 8 | j as u32 | 1));
        let mut expected = states;
        for (l, exp) in expected.iter_mut().enumerate() {
            let w = expand_schedule(&blocks[l]);
            compress_with_schedule(exp, &w);
        }
        compress_wide(&mut states, core::array::from_fn(|l| blocks[l].as_slice()));
        assert_eq!(states, expected);
    }

    #[test]
    fn wide_shared_matches_scalar_rounds() {
        let block: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(7)).collect();
        let w = expand_schedule(&block);
        let mut states: [[u32; 8]; 4] =
            core::array::from_fn(|l| core::array::from_fn(|j| (l as u32 + 1) * 1000 + j as u32));
        let mut expected = states;
        for exp in expected.iter_mut() {
            compress_with_schedule(exp, &w);
        }
        compress_wide_shared(&mut states, &w);
        assert_eq!(states, expected);
    }
}
