//! A tiny fixed-width f32 SIMD vector for the blocked kernel backend.
//!
//! [`F32x8`] is eight `f32` lanes with unrolled lane arithmetic. There is
//! no crates.io dependency and no `std::simd` here. The portable bodies
//! are straight-line array expressions; on `x86_64` the lane ops are
//! specialized to baseline SSE2 intrinsics (`core::arch::x86_64`), which
//! every `x86_64` target guarantees — no runtime feature detection.
//!
//! The specialization exists because the portable form is *correct* but
//! not *reliably fast*: LLVM's SLP vectorizer sometimes folds the
//! unrolled arrays into clean packed instructions and sometimes — in
//! particular when several rows of one contiguous matrix buffer are
//! processed per pass, so it can prove the rows adjacent — "vectorizes"
//! across the independent accumulators instead, emitting transpose
//! shuffle chains that run no faster than scalar code. Spelling the lane
//! ops as `_mm_*` intrinsics pins the instruction selection the struct
//! was designed around. Both bodies compute the identical IEEE f32
//! result per lane for finite inputs: `_mm_add_ps`/`_mm_mul_ps` are the
//! same rounded operations as the scalar `+`/`*`.
//!
//! Semantics are plain IEEE f32 per lane — `mul_add` is written as a
//! multiply then an add (two roundings), never `f32::mul_add`, so debug
//! and release agree and no libm `fmaf` call sneaks onto FMA-less
//! targets.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{__m128, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_storeu_ps, _mm_sub_ps};

/// Eight f32 lanes with unrolled element-wise arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32x8(pub [f32; 8]);

// `add`/`sub`/`mul` intentionally mirror the `std::ops` names without the
// trait: inherent methods keep call sites monomorphic and `#[inline(always)]`.
#[allow(clippy::should_implement_trait)]
impl F32x8 {
    /// Number of lanes.
    pub const LANES: usize = 8;

    /// All lanes zero.
    pub const ZERO: Self = Self([0.0; 8]);

    /// Broadcasts `v` to all lanes.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; 8])
    }

    /// Loads eight lanes from the front of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() < 8`.
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        let a: [f32; 8] = s[..8].try_into().expect("F32x8::load needs 8 elements");
        Self(a)
    }

    /// Stores the lanes into the front of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() < 8`.
    #[inline(always)]
    pub fn store(self, d: &mut [f32]) {
        d[..8].copy_from_slice(&self.0);
    }

    /// The two 4-lane SSE halves of this vector.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn halves(self) -> (__m128, __m128) {
        // SAFETY: `self.0` is 8 contiguous f32s, so both unaligned loads
        // read in-bounds; SSE2 is part of the x86_64 baseline ABI.
        unsafe { (_mm_loadu_ps(self.0.as_ptr()), _mm_loadu_ps(self.0.as_ptr().add(4))) }
    }

    /// Reassembles a vector from its two 4-lane SSE halves.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn from_halves(lo: __m128, hi: __m128) -> Self {
        let mut out = [0.0f32; 8];
        // SAFETY: `out` is 8 contiguous f32s, so both unaligned stores
        // write in-bounds; SSE2 is part of the x86_64 baseline ABI.
        unsafe {
            _mm_storeu_ps(out.as_mut_ptr(), lo);
            _mm_storeu_ps(out.as_mut_ptr().add(4), hi);
        }
        Self(out)
    }

    /// Lane-wise `self + o`.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            let (alo, ahi) = self.halves();
            let (blo, bhi) = o.halves();
            // SAFETY: SSE2 is statically enabled on every x86_64 target.
            let (lo, hi) = unsafe { (_mm_add_ps(alo, blo), _mm_add_ps(ahi, bhi)) };
            Self::from_halves(lo, hi)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let (a, b) = (self.0, o.0);
            Self([
                a[0] + b[0],
                a[1] + b[1],
                a[2] + b[2],
                a[3] + b[3],
                a[4] + b[4],
                a[5] + b[5],
                a[6] + b[6],
                a[7] + b[7],
            ])
        }
    }

    /// Lane-wise `self - o`.
    #[inline(always)]
    pub fn sub(self, o: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            let (alo, ahi) = self.halves();
            let (blo, bhi) = o.halves();
            // SAFETY: SSE2 is statically enabled on every x86_64 target.
            let (lo, hi) = unsafe { (_mm_sub_ps(alo, blo), _mm_sub_ps(ahi, bhi)) };
            Self::from_halves(lo, hi)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let (a, b) = (self.0, o.0);
            Self([
                a[0] - b[0],
                a[1] - b[1],
                a[2] - b[2],
                a[3] - b[3],
                a[4] - b[4],
                a[5] - b[5],
                a[6] - b[6],
                a[7] - b[7],
            ])
        }
    }

    /// Lane-wise `self * o`.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            let (alo, ahi) = self.halves();
            let (blo, bhi) = o.halves();
            // SAFETY: SSE2 is statically enabled on every x86_64 target.
            let (lo, hi) = unsafe { (_mm_mul_ps(alo, blo), _mm_mul_ps(ahi, bhi)) };
            Self::from_halves(lo, hi)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let (a, b) = (self.0, o.0);
            Self([
                a[0] * b[0],
                a[1] * b[1],
                a[2] * b[2],
                a[3] * b[3],
                a[4] * b[4],
                a[5] * b[5],
                a[6] * b[6],
                a[7] * b[7],
            ])
        }
    }

    /// Lane-wise `self * o + acc` as two rounded ops (`mul` then `add`),
    /// not a fused multiply-add — bit-stable across targets.
    #[inline(always)]
    pub fn mul_add(self, o: Self, acc: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            let (alo, ahi) = self.halves();
            let (blo, bhi) = o.halves();
            let (clo, chi) = acc.halves();
            // SAFETY: SSE2 is statically enabled on every x86_64 target.
            let (lo, hi) = unsafe {
                (
                    _mm_add_ps(_mm_mul_ps(alo, blo), clo),
                    _mm_add_ps(_mm_mul_ps(ahi, bhi), chi),
                )
            };
            Self::from_halves(lo, hi)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let (a, b, c) = (self.0, o.0, acc.0);
            Self([
                a[0] * b[0] + c[0],
                a[1] * b[1] + c[1],
                a[2] * b[2] + c[2],
                a[3] * b[3] + c[3],
                a[4] * b[4] + c[4],
                a[5] * b[5] + c[5],
                a[6] * b[6] + c[6],
                a[7] * b[7] + c[7],
            ])
        }
    }

    /// Pairwise-tree sum of the eight lanes:
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
    #[inline(always)]
    pub fn horizontal_sum(self) -> f32 {
        let a = self.0;
        let s04 = a[0] + a[4];
        let s15 = a[1] + a[5];
        let s26 = a[2] + a[6];
        let s37 = a[3] + a[7];
        (s04 + s26) + (s15 + s37)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_load_store_round_trip() {
        let mut d = [0.0f32; 8];
        F32x8::splat(3.5).store(&mut d);
        assert_eq!(d, [3.5; 8]);
        let v = F32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(v.0[7], 8.0);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = F32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(2.0);
        assert_eq!(a.add(b).0[0], 3.0);
        assert_eq!(a.sub(b).0[0], -1.0);
        assert_eq!(a.mul(b).0[3], 8.0);
        assert_eq!(a.mul_add(b, F32x8::splat(1.0)).0[1], 5.0);
    }

    #[test]
    fn horizontal_reductions() {
        let v = F32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, -9.0]);
        assert_eq!(v.horizontal_sum(), 19.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn load_rejects_short_slices() {
        F32x8::load(&[1.0; 7]);
    }
}
