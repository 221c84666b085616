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
//! [`QFormat::quantize`], [`QFormat::quantize_slice_inplace`] and
//! [`Fixed::from_f32`] round an `f32` to the nearest raw integer of the
//! format, ties away from zero, saturating at the two's-complement range,
//! with NaN mapping to raw 0 — mathematically
//! `(x · 2^frac).round().clamp(min_raw, max_raw) · 2^-frac`. All three run
//! **one** body, in `f32` only, eight values per pass:
//!
//! ```text
//! v = clamp(x · 2^frac, min_raw, f32(max_raw))
//! t = trunc(v)
//! r = t + trunc((v − t) + (v − t))
//! y = ((r + 0.0) & ordered(x)) · 2^-frac
//! ```
//!
//! No conversion to `f64` or to an integer, no libm call — six arithmetic
//! operations, two truncations and a mask per vector — and
//! **bit-identical** to the `round()` form for every `f32` input. Why
//! each step is exact:
//!
//! * `x · 2^frac` only moves the exponent (a power-of-two scale, and it
//!   scales *up*, so nothing underflows); a product beyond the `f32`
//!   range becomes ±∞, which the clamp then treats like any other
//!   out-of-range value.
//! * Clamping first is the same as clamping last: round-half-away is
//!   monotone and fixes integers, and both clamp edges are integers. The
//!   upper edge is `f32(max_raw)`, the saturated raw value *as the oracle
//!   converts it back* (`max_raw as f32`): up to 25 bits `2^(t−1) − 1` is
//!   an `f32`; from 26 bits it is not and rounds to `2^(t−1)` — and no
//!   `f32` lies strictly between the two, so `v` saturates to `2^(t−1)`
//!   exactly when the oracle's `raw as f32` does.
//! * `v − t` is exact: `t` is `v` with its fraction bits cleared, so the
//!   difference is those bits — fewer significant bits than `v` has —
//!   and from 2²³ up there is no fraction and `t = v`. Doubling is exact,
//!   and `trunc(2f)` for `f = v − t ∈ (−1, 1)` is `±1` exactly when
//!   `|f| ≥ ½` — the away-from-zero tie rule, with no "add 0.5" that
//!   could itself round.
//! * `t ± 1` is exact: it is needed only while `|t| < 2²³`.
//! * `r + 0.0`: for `v ∈ (−½, −0.0]` both truncations yield `-0.0` and so
//!   does their sum; the oracle passes through an integer, which has one
//!   zero. Adding `+0.0` maps `-0.0` to `+0.0` and changes nothing else.
//! * A NaN `x` leaves the clamp as some number; the ordered-compare mask
//!   `x == x` zeroes those lanes (`+0.0`), the oracle's `NaN as i64`.
//! * `· 2^-frac` is exact for the reason the first step is (`|r| ≥ 1` or
//!   `r = 0`, and `frac ≤ 31`), so it equals the division it replaces.
//!
//! The body is generic over the crate's lane-width type
//! ([`mod@crate::simd`]) and runs on the widest tier the CPU has —
//! sixteen AVX-512 lanes, eight AVX lanes, or [`F32x8`](crate::F32x8)
//! (SSE2 halves on `x86_64`) — the same operations lane for lane, so the
//! tiers agree bit for bit. A slice's last `len % LANES` values, and the
//! single value of [`QFormat::quantize`], pass through the same body in
//! a padded vector. The equality against the `round()` definition
//! is pinned by this module's tests over a strided sweep of all `f32` bit
//! patterns plus the tie and saturation boundaries, for Q16.16, Q8.8,
//! Q1.31, Q31.1, Q4.12 and the two widths either side of the `f32(max_raw)`
//! edge, Q13.12 and Q13.13. The exhaustive form (all 2³² patterns × those
//! formats, the slice body on every tier the CPU runs) is `#[ignore]`d
//! because it takes minutes; CI runs it with
//!
//! ```text
//! cargo test --release -p hima-tensor --lib fixed::tests::exhaustive -- --ignored
//! ```

use crate::simd::{Kernel, Lanes, Tier};
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
    /// two's-complement raw range, as the `f32`s the rule computes with.
    fn rounding(&self) -> Rounding {
        let edge = 1u64 << (self.total_bits() - 1);
        let scale = (1u64 << self.frac_bits) as f32;
        Rounding { scale, inv_scale: 1.0 / scale, min_raw: -(edge as f32), max_raw: (edge - 1) as f32 }
    }

    /// Rounds `x` to the nearest representable value (ties away from
    /// zero), saturating at the format's range — the usual hardware
    /// datapath behaviour. NaN maps to 0. See the [module docs](self) for
    /// the rule and why its `f32`-only form is exact.
    pub fn quantize(&self, x: f32) -> f32 {
        let mut one = [x];
        self.quantize_slice_inplace(&mut one);
        one[0]
    }

    /// Quantizes a whole slice in place — the datapath's rounding pass
    /// over a contiguous state buffer, bit-identical per element to
    /// [`QFormat::quantize`] (which is this, over a slice of one).
    pub fn quantize_slice_inplace(&self, xs: &mut [f32]) {
        self.quantize_slice_on(Tier::detected(), xs);
    }

    /// [`QFormat::quantize_slice_inplace`] on the given tier — the same
    /// bits on every tier.
    ///
    /// # Panics
    ///
    /// Panics if this CPU does not run `tier`.
    pub fn quantize_slice_on(&self, tier: Tier, xs: &mut [f32]) {
        tier.run(RoundSlice { r: self.rounding(), xs });
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

/// One format's parameters of the rounding rule (see the
/// [module docs](self)): `2^frac`, its reciprocal, and the clamp edges
/// `min_raw` and `f32(max_raw)` — all exact `f32`s except the upper edge of
/// a format wider than 25 bits, which is `max_raw` rounded as the
/// `round()` definition rounds it.
#[derive(Clone, Copy)]
struct Rounding {
    scale: f32,
    inv_scale: f32,
    min_raw: f32,
    max_raw: f32,
}

/// The rounding rule on one vector (see the [module docs](self)).
///
/// # Safety
///
/// The CPU must support `V`'s instruction set (see [`Lanes`]).
#[inline(always)]
unsafe fn round_lanes<V: Lanes>(r: Rounding, x: V) -> V {
    // SAFETY (every vector op): forwarded from the caller.
    unsafe {
        let v = x.mul(V::splat(r.scale)).max(V::splat(r.min_raw)).min(V::splat(r.max_raw));
        let t = v.trunc();
        let f = v.sub(t);
        let raw = t.add(f.add(f).trunc()).add(V::zero());
        raw.and(x.eq_mask(x)).mul(V::splat(r.inv_scale))
    }
}

/// The rounding rule over a slice: whole vectors in place, then the last
/// `len % LANES` values through a zero-padded one. (No closure here: a
/// closure would not inherit the kernel entry's target feature, and every
/// intrinsic in it would stay a call.)
struct RoundSlice<'a> {
    r: Rounding,
    xs: &'a mut [f32],
}

impl Kernel for RoundSlice<'_> {
    type Output = ();
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let mut chunks = self.xs.chunks_exact_mut(V::LANES);
        // SAFETY (every vector op below): forwarded from the caller.
        for chunk in &mut chunks {
            unsafe { round_lanes(self.r, V::load(chunk)).store(chunk) };
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            unsafe { round_lanes(self.r, V::load_first(tail)).store_first(tail) };
        }
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
        // The shared rule yields `raw · 2^-16`; scaling back is exact, and
        // the saturated `i32::MAX as f32 = 2³¹` casts (saturating) to
        // `i32::MAX`.
        Fixed((QFormat::q16_16().quantize(x) * ONE_RAW as f32) as i32)
    }

    /// Converts back to `f32`.
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / ONE_RAW as f32
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
    pub(crate) fn saturating_mul(self, rhs: Fixed) -> Fixed {
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
    pub(crate) fn saturating_div(self, rhs: Fixed) -> Fixed {
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

    /// The widest, the paper's, a narrow one, the two extreme splits, and
    /// the widths either side of the `f32(max_raw)` edge: 25 bits, the last
    /// whose `max_raw` is an `f32`, and 26, the first whose `max_raw`
    /// (2²⁵ − 1) rounds up to `2^(t−1)`.
    fn swept_formats() -> [QFormat; 7] {
        [
            QFormat::q16_16(),
            QFormat::q8_8(),
            QFormat::new(1, 31),
            QFormat::new(31, 1),
            QFormat::new(4, 12),
            QFormat::new(13, 12),
            QFormat::new(13, 13),
        ]
    }

    /// `xs` rounded on `tier`, whatever the dispatch picks.
    fn quantized_on(tier: Tier, q: QFormat, xs: &[f32]) -> Vec<f32> {
        let mut out = xs.to_vec();
        q.quantize_slice_on(tier, &mut out);
        out
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
            // lands in every SIMD lane — the dispatched body and every
            // tier this CPU runs.
            for shift in 0..16 {
                let mut got = xs[shift..].to_vec();
                q.quantize_slice_inplace(&mut got);
                for tier in Tier::available() {
                    let body = quantized_on(tier, q, &xs[shift..]);
                    for ((g, b), &x) in got.iter().zip(&body).zip(&xs[shift..]) {
                        let want = quantize_oracle(q, x).to_bits();
                        assert_eq!(g.to_bits(), want, "{q} x={x:e} shift={shift}");
                        assert_eq!(b.to_bits(), want, "{tier} body, {q} x={x:e} shift={shift}");
                    }
                }
            }
        }
    }

    #[test]
    fn avx_body_f32x8_body_and_single_value_form_agree_in_every_lane_position() {
        // One awkward value per lane position in turn, the other fifteen
        // lanes holding a value whose rounding differs from it: a lane
        // that leaked into its neighbour would show.
        let awkward = [
            f32::NAN,
            -0.0,
            -0.3 / 65_536.0,
            0.5 / 65_536.0,
            -1.5 / 4_096.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            8_388_607.5,
            -8_388_608.5,
            3.0e38,
            f32::from_bits(1),
            16_777_215.0,
            33_554_430.0,
            -33_554_432.0,
        ];
        for q in swept_formats() {
            for &x in &awkward {
                for lane in 0..16 {
                    let mut xs = [0.7f32; 16];
                    xs[lane] = x;
                    let mut dispatched = xs;
                    q.quantize_slice_inplace(&mut dispatched);
                    for i in 0..16 {
                        let want = quantize_oracle(q, xs[i]).to_bits();
                        assert_eq!(dispatched[i].to_bits(), want, "{q} x={x:e} lane={lane} i={i}");
                        assert_eq!(q.quantize(xs[i]).to_bits(), want, "single, {q} x={x:e}");
                    }
                    for tier in Tier::available() {
                        let body = quantized_on(tier, q, &xs);
                        for (i, b) in body.iter().enumerate() {
                            let want = quantize_oracle(q, xs[i]).to_bits();
                            assert_eq!(b.to_bits(), want, "{tier}, {q} x={x:e} lane={lane} i={i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slice_kernel_equals_scalar_for_short_lengths_and_unaligned_starts() {
        let src: Vec<f32> = (0..25)
            .map(|i| match i % 5 {
                0 => f32::NAN,
                1 => (i as f32 * 0.7311).sin() * 40_000.0,
                2 => -(i as f32) * 1e-6,
                3 => (i as f32 + 0.5) / 65_536.0,
                _ => f32::NEG_INFINITY,
            })
            .collect();
        for q in swept_formats() {
            for start in 0..8 {
                for len in 0..=17 {
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

    /// All 2³² `f32` bit patterns × the swept formats, through the slice
    /// body on every tier this CPU runs (`F32x8`, `Avx`, `Avx512`),
    /// against the `round()` definition; the single-value form is the
    /// slice body over one element and rides the strided sweep. Prints
    /// the tiers it checked and, on a CPU without one, the tier it
    /// skipped. Minutes in release mode; see the module docs for the
    /// command.
    #[test]
    #[ignore = "exhaustive over all f32 bit patterns: minutes in --release"]
    fn exhaustive_quantize_equals_round_definition() {
        const BLOCK: usize = 1 << 12;
        let mut src = vec![0.0f32; BLOCK];
        let mut body = vec![0.0f32; BLOCK];
        for q in swept_formats() {
            for base in (0..=u32::MAX).step_by(BLOCK) {
                for (i, x) in src.iter_mut().enumerate() {
                    *x = f32::from_bits(base + i as u32);
                }
                let want: Vec<u32> = src.iter().map(|&x| quantize_oracle(q, x).to_bits()).collect();
                for tier in Tier::available() {
                    body.copy_from_slice(&src);
                    q.quantize_slice_on(tier, &mut body);
                    for ((b, w), x) in body.iter().zip(&want).zip(&src) {
                        assert_eq!(b.to_bits(), *w, "{tier} {q} {:#010x}", x.to_bits());
                    }
                }
            }
        }
        crate::simd::tiers::report("fixed::tests::exhaustive (Q-format rounding)");
    }
}
