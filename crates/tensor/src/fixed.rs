//! Q-format signed fixed-point arithmetic modeling HiMA's 32-bit datapath.
//!
//! The paper's prototypes use a 32-bit precision "for a fair comparison with
//! state-of-the-art MANN accelerators". [`Fixed`] is a Q16.16 two's-complement
//! value (16 integer bits, 16 fractional bits) with saturating arithmetic —
//! the usual hardware behaviour for an accelerator datapath. It is used by
//! the quantization-error experiments and by tests that check the functional
//! model is robust to datapath rounding.
//!
//! # The rounding rule
//!
//! Both [`Fixed::from_f32`] and [`QFormat::quantize`] round an `f32` to the
//! nearest raw integer of the format, ties away from zero, saturating at the
//! two's-complement range, with NaN mapping to raw 0 — mathematically
//! `(x · 2^frac).round().clamp(min_raw, max_raw)`. They compute it as
//! *clamp, add ±½, truncate*:
//!
//! ```text
//! v   = (x as f64 · 2^frac).clamp(min_raw, max_raw)
//! raw = (v + copysign(0.5, v)) as i32          // truncates toward zero
//! ```
//!
//! which is **bit-identical** to the `round()` form for every `f32` input,
//! and needs no libm call, so it vectorizes. The argument:
//!
//! * `x as f64 · 2^frac` is exact (a power-of-two scale only moves the
//!   exponent), so `v` carries at most the 24 significant bits of `x`.
//! * Clamping first is the same as clamping last: both edges are integers,
//!   and round-half-away is monotone and fixes integers.
//! * `v + copysign(0.5, v)` is exact whenever it matters. With `v` in
//!   `[2^k, 2^(k+1))` its lowest set bit is at least `2^(k-23)`, so for
//!   `-30 ≤ k ≤ 31` (the clamp caps `k`) the sum's bits lie between
//!   `2^(k+1)` and `min(2^(k-23), 2^-1)` — at most 53 positions — and
//!   the `f64` add does not round; truncation then yields exactly
//!   round-half-away-from-zero. The classic failure of this trick
//!   (`0.49999999999999994 + 0.5 == 1.0`) needs 53 significant bits and
//!   an `f32` has 24. For smaller `|v|` the sum may round, but stays
//!   strictly inside `(-1, 1)` and truncates to 0, which is the right
//!   answer.
//! * NaN survives the clamp and the add, and `NaN as i32` is 0.
//! * The raw value converts back with one multiply by `2^-frac` — exact for
//!   the same power-of-two reason, so it equals the division it replaces.
//!
//! [`QFormat::quantize_slice_inplace`] is the slice kernel of that rule: on
//! `x86_64` four elements per pass in baseline SSE2 (`cvtps2pd`, `mulpd`,
//! `max/minpd`, add the signed half, `cvttpd2dq`, zero the NaN lanes,
//! `cvtdq2ps`, `mulps`), elsewhere and for the tail the scalar form. The
//! equality against the `round()` definition is pinned by this module's
//! tests over a strided sweep of all `f32` bit patterns plus the tie and
//! saturation boundaries, for Q16.16, Q8.8, Q1.31, Q31.1 and Q4.12. The
//! exhaustive form (all 2³² patterns × those formats, slice kernel and
//! scalar) is `#[ignore]`d because it takes minutes; run it with
//!
//! ```text
//! cargo test --release -p hima-tensor --lib fixed::tests::exhaustive -- --ignored
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Number of fractional bits in the Q16.16 format.
pub const FRAC_BITS: u32 = 16;
const ONE_RAW: i64 = 1 << FRAC_BITS;

/// A signed two's-complement fixed-point *format* descriptor:
/// `int_bits` integer bits (sign included) and `frac_bits` fractional
/// bits, at most 32 bits total — the datapath widths a HiMA-class
/// accelerator would implement.
///
/// Where [`Fixed`] is a Q16.16 *value*, `QFormat` describes a format and
/// rounds `f32` values onto it, so the quantized-datapath models can sweep
/// precision. `QFormat::q16_16()` reproduces the [`Fixed`] round trip
/// bit-for-bit.
///
/// # Example
///
/// ```
/// use hima_tensor::QFormat;
///
/// let q = QFormat::q16_16();
/// assert_eq!(q.quantize(1.5), 1.5);
/// assert!((q.quantize(0.1) - 0.1).abs() <= q.resolution());
/// assert_eq!(QFormat::new(8, 8).quantize(1e6), 127.99609375, "saturates");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QFormat {
    /// Integer bits, sign included.
    pub int_bits: u32,
    /// Fractional bits.
    pub frac_bits: u32,
}

impl QFormat {
    /// Creates a format with the given integer (sign included) and
    /// fractional bit widths.
    ///
    /// # Panics
    ///
    /// Panics if either width is zero or the total exceeds 32 bits.
    pub fn new(int_bits: u32, frac_bits: u32) -> Self {
        assert!(int_bits >= 1, "need at least a sign bit");
        assert!(frac_bits >= 1, "need at least one fractional bit");
        assert!(int_bits + frac_bits <= 32, "datapath width capped at 32 bits");
        Self { int_bits, frac_bits }
    }

    /// Non-panicking form of [`QFormat::new`] for validating untrusted
    /// widths (e.g. a client-supplied spec at a server boundary): `None`
    /// iff the widths violate the format's invariants.
    pub fn checked(int_bits: u32, frac_bits: u32) -> Option<Self> {
        (int_bits >= 1 && frac_bits >= 1 && int_bits.saturating_add(frac_bits) <= 32)
            .then_some(Self { int_bits, frac_bits })
    }

    /// The paper's 32-bit datapath: Q16.16, identical to [`Fixed`].
    pub fn q16_16() -> Self {
        Self::new(16, 16)
    }

    /// A narrow 16-bit datapath: Q8.8.
    pub fn q8_8() -> Self {
        Self::new(8, 8)
    }

    /// Total datapath width in bits.
    pub fn total_bits(&self) -> u32 {
        self.int_bits + self.frac_bits
    }

    /// Quantization step (`2^-frac_bits`).
    pub fn resolution(&self) -> f32 {
        1.0 / (1u64 << self.frac_bits) as f32
    }

    /// The format's rounding parameters: scale `2^frac_bits` and the
    /// two's-complement raw range.
    fn rounding(&self) -> Rounding {
        let edge = (1u64 << (self.total_bits() - 1)) as f64;
        Rounding { scale: (1u64 << self.frac_bits) as f64, min_raw: -edge, max_raw: edge - 1.0 }
    }

    /// Rounds `x` to the nearest representable value (ties away from
    /// zero), saturating at the format's range — the usual hardware
    /// datapath behaviour. NaN maps to 0. See the [module docs](self) for
    /// the rule and why its libm-free form is exact.
    pub fn quantize(&self, x: f32) -> f32 {
        let r = self.rounding();
        r.to_raw(x) as f32 * r.inv_scale()
    }

    /// Quantizes a whole slice in place — the datapath's rounding pass
    /// over a contiguous state buffer, bit-identical per element to
    /// [`QFormat::quantize`].
    pub fn quantize_slice_inplace(&self, xs: &mut [f32]) {
        let r = self.rounding();
        #[cfg(target_arch = "x86_64")]
        let xs = r.quantize_quads(xs);
        let inv = r.inv_scale();
        for x in xs {
            *x = r.to_raw(*x) as f32 * inv;
        }
    }

    /// Whether `x` is exactly representable in this format.
    pub fn is_representable(&self, x: f32) -> bool {
        self.quantize(x) == x
    }

    /// Human-readable label, e.g. `"Q16.16"`.
    pub fn label(&self) -> String {
        format!("Q{}.{}", self.int_bits, self.frac_bits)
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits, self.frac_bits)
    }
}

/// The shared rounding rule of [`QFormat`] and [`Fixed`] for one format:
/// scale by `2^frac`, clamp to the raw range, add the signed half,
/// truncate (see the [module docs](self)).
#[derive(Clone, Copy)]
struct Rounding {
    scale: f64,
    min_raw: f64,
    max_raw: f64,
}

impl Rounding {
    /// Nearest raw integer to `x · scale`, ties away from zero, saturated;
    /// NaN gives 0.
    #[inline(always)]
    fn to_raw(self, x: f32) -> i32 {
        let v = (x as f64 * self.scale).clamp(self.min_raw, self.max_raw);
        (v + 0.5f64.copysign(v)) as i32
    }

    /// `2^-frac` as an `f32` (exact: the smallest is `2^-31`).
    #[inline(always)]
    fn inv_scale(self) -> f32 {
        (1.0 / self.scale) as f32
    }

    /// SSE2 body of [`QFormat::quantize_slice_inplace`]: rounds every
    /// whole group of four elements in place and returns the tail (fewer
    /// than four) for the scalar form. Each lane performs exactly the
    /// operations of [`Rounding::to_raw`], in `f64`, so the two agree bit
    /// for bit.
    #[cfg(target_arch = "x86_64")]
    fn quantize_quads(self, xs: &mut [f32]) -> &mut [f32] {
        use core::arch::x86_64::{
            __m128d, __m128i, _mm_add_pd, _mm_and_pd, _mm_and_si128, _mm_castps_si128,
            _mm_cmpord_ps, _mm_cvtepi32_ps, _mm_cvtps_pd, _mm_cvttpd_epi32, _mm_loadu_ps,
            _mm_max_pd, _mm_min_pd, _mm_movehl_ps, _mm_mul_pd, _mm_mul_ps, _mm_or_pd, _mm_set1_pd,
            _mm_set1_ps, _mm_storeu_ps, _mm_unpacklo_epi64,
        };
        let mut quads = xs.chunks_exact_mut(4);
        // SAFETY: SSE2 is part of the x86_64 baseline ABI, and the one
        // unaligned load and one unaligned store per pass touch exactly
        // the four f32s of `quad`.
        unsafe {
            let scale = _mm_set1_pd(self.scale);
            let (min_raw, max_raw) = (_mm_set1_pd(self.min_raw), _mm_set1_pd(self.max_raw));
            let (sign_bit, half) = (_mm_set1_pd(-0.0), _mm_set1_pd(0.5));
            let inv = _mm_set1_ps(self.inv_scale());
            // Two f64 lanes to two raw i32s (in the low half). A NaN lane
            // leaves `max_pd` as `min_raw`; it is zeroed by the caller.
            let to_raw = |x: __m128d| -> __m128i {
                let v = _mm_min_pd(_mm_max_pd(_mm_mul_pd(x, scale), min_raw), max_raw);
                let signed_half = _mm_or_pd(_mm_and_pd(v, sign_bit), half);
                _mm_cvttpd_epi32(_mm_add_pd(v, signed_half))
            };
            for quad in &mut quads {
                let x = _mm_loadu_ps(quad.as_ptr());
                let lo = to_raw(_mm_cvtps_pd(x));
                let hi = to_raw(_mm_cvtps_pd(_mm_movehl_ps(x, x)));
                let ordered = _mm_castps_si128(_mm_cmpord_ps(x, x));
                let raw = _mm_and_si128(_mm_unpacklo_epi64(lo, hi), ordered);
                _mm_storeu_ps(quad.as_mut_ptr(), _mm_mul_ps(_mm_cvtepi32_ps(raw), inv));
            }
        }
        quads.into_remainder()
    }
}

/// A signed Q16.16 fixed-point number with saturating arithmetic.
///
/// # Example
///
/// ```
/// use hima_tensor::Fixed;
///
/// let a = Fixed::from_f32(1.5);
/// let b = Fixed::from_f32(2.0);
/// assert_eq!((a * b).to_f32(), 3.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Fixed(i32);

impl Fixed {
    /// The value 0.
    pub const ZERO: Fixed = Fixed(0);
    /// The value 1.
    pub const ONE: Fixed = Fixed(ONE_RAW as i32);
    /// Largest representable value (≈ 32768).
    pub const MAX: Fixed = Fixed(i32::MAX);
    /// Smallest representable value (≈ −32768).
    pub const MIN: Fixed = Fixed(i32::MIN);

    /// Converts from `f32`, rounding to nearest (ties away from zero) and
    /// saturating at the representable range; NaN converts to zero.
    pub fn from_f32(x: f32) -> Self {
        let q16_16 =
            Rounding { scale: ONE_RAW as f64, min_raw: i32::MIN as f64, max_raw: i32::MAX as f64 };
        Fixed(q16_16.to_raw(x))
    }

    /// Converts back to `f32`.
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / ONE_RAW as f32
    }

    /// Builds from a raw Q16.16 bit pattern.
    pub fn from_raw(raw: i32) -> Self {
        Fixed(raw)
    }

    /// The raw Q16.16 bit pattern.
    pub fn raw(self) -> i32 {
        self.0
    }

    /// Quantization step of the format (`2^-16`).
    pub fn resolution() -> f32 {
        1.0 / ONE_RAW as f32
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Fixed) -> Fixed {
        Fixed(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Fixed) -> Fixed {
        Fixed(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication with round-to-nearest on the dropped bits.
    pub fn saturating_mul(self, rhs: Fixed) -> Fixed {
        let wide = self.0 as i64 * rhs.0 as i64;
        // Round-to-nearest: add half an LSB before the shift.
        let rounded = (wide + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
        Fixed(rounded.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
    }

    /// Saturating division.
    ///
    /// Division by zero saturates to `MAX`/`MIN` following the sign of the
    /// dividend (and `MAX` for `0/0`), mirroring a hardware divider's
    /// overflow flag rather than panicking mid-simulation.
    pub fn saturating_div(self, rhs: Fixed) -> Fixed {
        if rhs.0 == 0 {
            return if self.0 < 0 { Self::MIN } else { Self::MAX };
        }
        let wide = ((self.0 as i64) << FRAC_BITS) / rhs.0 as i64;
        Fixed(wide.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
    }

    /// Absolute value (saturating at `MAX` for `MIN`).
    pub fn abs(self) -> Fixed {
        Fixed(self.0.saturating_abs())
    }

    /// Quantizes an `f32` slice to fixed point and back, returning the
    /// round-tripped values. Used to inject datapath quantization into the
    /// functional model.
    pub fn quantize_slice(xs: &[f32]) -> Vec<f32> {
        xs.iter().map(|&x| Fixed::from_f32(x).to_f32()).collect()
    }
}

impl Add for Fixed {
    type Output = Fixed;
    fn add(self, rhs: Fixed) -> Fixed {
        self.saturating_add(rhs)
    }
}

impl Sub for Fixed {
    type Output = Fixed;
    fn sub(self, rhs: Fixed) -> Fixed {
        self.saturating_sub(rhs)
    }
}

impl Mul for Fixed {
    type Output = Fixed;
    fn mul(self, rhs: Fixed) -> Fixed {
        self.saturating_mul(rhs)
    }
}

impl Div for Fixed {
    type Output = Fixed;
    fn div(self, rhs: Fixed) -> Fixed {
        self.saturating_div(rhs)
    }
}

impl Neg for Fixed {
    type Output = Fixed;
    fn neg(self) -> Fixed {
        Fixed(self.0.saturating_neg())
    }
}

impl From<i16> for Fixed {
    fn from(x: i16) -> Self {
        Fixed((x as i32) << FRAC_BITS)
    }
}

impl fmt::Debug for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fixed({})", self.to_f32())
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exact_values() {
        for x in [0.0f32, 1.0, -1.0, 0.5, -0.25, 12345.0625] {
            assert_eq!(Fixed::from_f32(x).to_f32(), x, "{x} should be exact in Q16.16");
        }
    }

    #[test]
    fn round_trip_error_bounded_by_resolution() {
        for i in 0..1000 {
            let x = (i as f32 - 500.0) * 0.0137;
            let err = (Fixed::from_f32(x).to_f32() - x).abs();
            assert!(err <= Fixed::resolution(), "err {err} for {x}");
        }
    }

    #[test]
    fn arithmetic_matches_float_for_small_values() {
        let a = Fixed::from_f32(1.5);
        let b = Fixed::from_f32(-2.25);
        assert_eq!((a + b).to_f32(), -0.75);
        assert_eq!((a - b).to_f32(), 3.75);
        assert_eq!((a * b).to_f32(), -3.375);
        assert!(((a / b).to_f32() - (1.5 / -2.25)).abs() < 2.0 * Fixed::resolution());
    }

    #[test]
    fn saturation_at_extremes() {
        let big = Fixed::from_f32(30000.0);
        assert_eq!(big + big, Fixed::MAX);
        assert_eq!(-big - big, Fixed::MIN);
        assert_eq!(big * big, Fixed::MAX);
        assert_eq!(Fixed::from_f32(1e20), Fixed::MAX);
        assert_eq!(Fixed::from_f32(-1e20), Fixed::MIN);
    }

    #[test]
    fn division_by_zero_saturates() {
        assert_eq!(Fixed::ONE / Fixed::ZERO, Fixed::MAX);
        assert_eq!(-Fixed::ONE / Fixed::ZERO, Fixed::MIN);
        assert_eq!(Fixed::ZERO / Fixed::ZERO, Fixed::MAX);
    }

    #[test]
    fn neg_and_abs() {
        let a = Fixed::from_f32(-3.5);
        assert_eq!((-a).to_f32(), 3.5);
        assert_eq!(a.abs().to_f32(), 3.5);
        assert_eq!(Fixed::MIN.abs(), Fixed::MAX);
    }

    #[test]
    fn from_i16_is_exact() {
        assert_eq!(Fixed::from(5i16).to_f32(), 5.0);
        assert_eq!(Fixed::from(-7i16).to_f32(), -7.0);
    }

    #[test]
    fn quantize_slice_bounded_error() {
        let xs = [0.1, 0.2, 0.333, -0.777];
        let q = Fixed::quantize_slice(&xs);
        for (a, b) in xs.iter().zip(&q) {
            assert!((a - b).abs() <= Fixed::resolution());
        }
    }

    #[test]
    fn ordering_follows_value() {
        assert!(Fixed::from_f32(1.0) < Fixed::from_f32(2.0));
        assert!(Fixed::from_f32(-5.0) < Fixed::from_f32(0.0));
    }

    #[test]
    fn qformat_q16_16_matches_fixed_bit_for_bit() {
        // The quantized-datapath engines switched from the `Fixed` round
        // trip to `QFormat::quantize`; the default format must reproduce it
        // exactly, including saturation.
        let q = QFormat::q16_16();
        for i in -4000i32..4000 {
            let x = i as f32 * 17.773;
            assert_eq!(q.quantize(x), Fixed::from_f32(x).to_f32(), "x={x}");
        }
        for x in [1e20f32, -1e20, 32768.5, -32769.0, f32::MAX, f32::MIN] {
            assert_eq!(q.quantize(x), Fixed::from_f32(x).to_f32(), "x={x}");
        }
    }

    #[test]
    fn qformat_narrow_formats_coarsen() {
        let fine = QFormat::q16_16();
        let coarse = QFormat::q8_8();
        let x = 0.123456f32;
        assert!((fine.quantize(x) - x).abs() <= fine.resolution());
        assert!((coarse.quantize(x) - x).abs() <= coarse.resolution());
        assert!(coarse.resolution() > fine.resolution());
        // Q8.8 saturates at just under 128 (32767/256).
        assert_eq!(coarse.quantize(1e6), 32767.0 / 256.0);
        assert_eq!(coarse.quantize(-1e6), -128.0);
    }

    #[test]
    fn qformat_representability_and_label() {
        let q = QFormat::new(4, 4);
        assert!(q.is_representable(0.25));
        assert!(!q.is_representable(0.3));
        assert_eq!(q.label(), "Q4.4");
        assert_eq!(format!("{}", QFormat::q16_16()), "Q16.16");
        let mut xs = [0.3f32, 1.26];
        q.quantize_slice_inplace(&mut xs);
        assert!(xs.iter().all(|&x| q.is_representable(x)));
    }

    #[test]
    #[should_panic(expected = "datapath width capped at 32 bits")]
    fn qformat_rejects_overwide() {
        QFormat::new(20, 20);
    }

    /// The definition of the rounding rule, kept as the test oracle: the
    /// expression `QFormat::quantize` used before it became libm-free.
    fn quantize_oracle(q: QFormat, x: f32) -> f32 {
        let scale = (1u64 << q.frac_bits) as f64;
        let max_raw = ((1u64 << (q.total_bits() - 1)) - 1) as f64;
        let min_raw = -((1u64 << (q.total_bits() - 1)) as f64);
        let raw = (x as f64 * scale).round().clamp(min_raw, max_raw) as i64;
        raw as f32 / scale as f32
    }

    /// The widest, the paper's, a narrow one, and the two extreme splits.
    fn swept_formats() -> [QFormat; 5] {
        [
            QFormat::q16_16(),
            QFormat::q8_8(),
            QFormat::new(1, 31),
            QFormat::new(31, 1),
            QFormat::new(4, 12),
        ]
    }

    fn assert_matches_oracle(q: QFormat, x: f32) {
        let (got, want) = (q.quantize(x), quantize_oracle(q, x));
        assert_eq!(got.to_bits(), want.to_bits(), "{q} x={x:e} ({:#010x})", x.to_bits());
    }

    #[test]
    fn quantize_equals_round_definition_on_a_strided_sweep_of_all_bit_patterns() {
        // A prime stride visits ~2.1M patterns spread over every exponent
        // and both signs, NaNs and infinities included.
        for q in swept_formats() {
            for bits in (0..=u32::MAX).step_by(2039) {
                assert_matches_oracle(q, f32::from_bits(bits));
            }
        }
    }

    #[test]
    fn quantize_equals_round_definition_on_ties_and_saturation_edges() {
        for q in swept_formats() {
            let scale = (1u64 << q.frac_bits) as f64;
            let edge = (1i64 << (q.total_bits() - 1)) as f64;
            let mut xs = vec![
                0.0f32,
                -0.0,
                f32::MIN_POSITIVE,
                -f32::MIN_POSITIVE,
                f32::from_bits(1),
                f32::from_bits(0x8000_0001),
                f32::from_bits(0x007f_ffff),
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MAX,
                f32::MIN,
                f32::NAN,
                f32::from_bits(0x7f80_0001),
                f32::from_bits(0xffc0_1234),
                f32::from_bits(0xff80_0001),
            ];
            // Every (k ± 0.5)/scale tie near 0 and near both edges, plus
            // the f32 neighbours on each side (the nearest f32 to a tie
            // is often not the tie itself).
            for centre in [0.0, edge - 1.0, -edge] {
                for k in -40..=40 {
                    for half in [-0.5, 0.0, 0.5] {
                        let x = ((centre + k as f64 + half) / scale) as f32;
                        for step in -2i32..=2 {
                            xs.push(f32::from_bits(x.to_bits().wrapping_add_signed(step)));
                        }
                    }
                }
            }
            for &x in &xs {
                assert_matches_oracle(q, x);
            }
            // The slice kernel over the same set, shifted so every value
            // lands in every SIMD lane.
            for shift in 0..4 {
                let mut got = xs[shift..].to_vec();
                q.quantize_slice_inplace(&mut got);
                for (g, &x) in got.iter().zip(&xs[shift..]) {
                    assert_eq!(g.to_bits(), quantize_oracle(q, x).to_bits(), "{q} x={x:e}");
                }
            }
        }
    }

    #[test]
    fn slice_kernel_equals_scalar_for_short_lengths_and_unaligned_starts() {
        let src: Vec<f32> = (0..16)
            .map(|i| match i % 5 {
                0 => f32::NAN,
                1 => (i as f32 * 0.7311).sin() * 40_000.0,
                2 => -(i as f32) * 1e-6,
                3 => (i as f32 + 0.5) / 65_536.0,
                _ => f32::NEG_INFINITY,
            })
            .collect();
        for q in swept_formats() {
            for start in 0..4 {
                for len in 0..=9 {
                    let mut buf = src.clone();
                    q.quantize_slice_inplace(&mut buf[start..start + len]);
                    for (i, (&b, &s)) in buf.iter().zip(&src).enumerate() {
                        let inside = (start..start + len).contains(&i);
                        let want = if inside { q.quantize(s) } else { s };
                        assert_eq!(b.to_bits(), want.to_bits(), "{q} [{start}+{len}] i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_from_f32_shares_the_rule() {
        for x in [f32::NAN, 0.5 / 65_536.0, -0.5 / 65_536.0, 32_767.999, -32_768.0, f32::INFINITY] {
            let want = (x as f64 * 65_536.0).round().clamp(i32::MIN as f64, i32::MAX as f64) as i32;
            assert_eq!(Fixed::from_f32(x).raw(), want, "x={x}");
        }
    }

    /// All 2³² `f32` bit patterns × the swept formats, scalar form and
    /// slice kernel, against the `round()` definition. Minutes in release
    /// mode; see the module docs for the command.
    #[test]
    #[ignore = "exhaustive over all f32 bit patterns: minutes in --release"]
    fn exhaustive_quantize_equals_round_definition() {
        const BLOCK: usize = 1 << 12;
        let mut buf = vec![0.0f32; BLOCK];
        for q in swept_formats() {
            for base in (0..=u32::MAX).step_by(BLOCK) {
                for (i, x) in buf.iter_mut().enumerate() {
                    *x = f32::from_bits(base + i as u32);
                }
                q.quantize_slice_inplace(&mut buf);
                for (i, got) in buf.iter().enumerate() {
                    let x = f32::from_bits(base + i as u32);
                    let want = quantize_oracle(q, x).to_bits();
                    assert_eq!(got.to_bits(), want, "slice {q} {:#010x}", x.to_bits());
                    assert_eq!(q.quantize(x).to_bits(), want, "scalar {q} {:#010x}", x.to_bits());
                }
            }
        }
    }
}
