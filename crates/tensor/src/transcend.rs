//! The transcendentals: `exp`, `sigmoid`, `tanh`, `softplus` and the
//! exact softmax, computed by this file and nothing else.
//!
//! HiMA's §5.2 exists because `exp` is expensive; this module is why it
//! is also *defined*. The host's libm is never consulted on a stepped
//! path: every function here is a fixed sequence of single correctly
//! rounded IEEE `f32` operations (`+ − × ÷`, compares) and bit operations,
//! so a value is a function of the repository — the same bits on every
//! host, libc and instruction set, which is what the solo-replay oracle,
//! a WAL replayed after an upgrade and a `LaneState` moved between
//! machines all assume.
//!
//! Each function is written twice, and only twice:
//!
//! * once as a **scalar** `f32` function ([`exp`], [`sigmoid`],
//!   [`tanh`], [`softplus`]) — the plain reference, and the tail path of
//!   every slice kernel;
//! * once as a generic body over the crate's `Lanes` trait, transcribing
//!   the scalar function operation for operation (a branch becomes a
//!   mask), instantiated for `Avx512`, `Avx` and the plain-Rust
//!   `F32x8`. No FMA, no table. The
//!   tests hold every body equal to the scalar function bit for bit —
//!   exhaustively over all 2³² inputs in CI.
//!
//! The recipes are the Cephes single-precision ones. `exp` rounds
//! `x·log₂e` to an integer `n` with the `1.5·2²³` magic-number add,
//! reduces `r = x − n·ln 2` with a two-constant `ln 2`, evaluates a
//! degree-5 polynomial by Horner's rule and adds `n` to the result's
//! exponent field. `tanh` is an odd polynomial below 0.625 and
//! `1 − 2/(e^{2|x|} + 1)` above, computed on `|x|` with the sign copied
//! back. `softplus` is `ln_1p(exp(x))` over a private `ln_1p` (the
//! `ln(w)·u/(w − 1)` correction over a Cephes `ln`).
//!
//! # Accuracy
//!
//! Maximum error against the `f64` function rounded to `f32`, over every
//! `f32` of the stated domain (the `ulp_bounds_*` tests): `exp` ≤ 2 ulp on
//! `[−87, 88]`, `tanh` ≤ 3 ulp on the whole line, `sigmoid` ≤ 4 ulp on
//! `[−87, 87]`, `softplus` ≤ 4 ulp on `[−30, 30]`.
//!
//! # Edge values
//!
//! These are part of the definition, asserted for the scalar functions
//! and both lane bodies, and applied by mask after the arithmetic — never
//! left to what a clamp constant happens to produce (an SSE/AVX `min`
//! returns its *second* operand on NaN, so `min(x, c)` would launder a
//! NaN into `e^c`):
//!
//! * NaN in, NaN out, for every function and for every element of a
//!   softmax that contains one.
//! * `exp(x) = 0` for every `x <` [`EXP_LO`] (the last `x` whose `e^x` is
//!   a normal number) including `−∞`; `exp(x) = +∞` for every `x >`
//!   [`EXP_HI`] (the last `x` with `e^x ≤ f32::MAX`) including `+∞`.
//!   Between them the result is finite and normal: adding `n` to the
//!   exponent field, where a `2ⁿ` factor would already be `∞` at
//!   `n = 128`, keeps the last third of an octave below `f32::MAX`.
//! * `sigmoid(+∞) = 1` and `sigmoid(−∞) = 0`, exactly.
//! * `tanh(±∞) = ±1`, `tanh(−0.0) = −0.0`, `tanh(x) = x` for
//!   `|x| < 2⁻¹²`.
//! * `softplus(x) = x` above 30 and `0` below −30.
//! * The softmax of an empty slice is a no-op and of one finite element
//!   is `[1.0]`.
//!
//! # Slice kernels
//!
//! What a step calls: [`lstm_gates`] (the fused gate / cell / hidden pass
//! of both LSTM forms), [`sigmoid_into`] and [`oneplus_into`] (the
//! interface vector's erase vector, gates and strengths) and
//! [`softmax_inplace`] — whose summation order is
//! *defined here*, once: eight lane-wise partial sums over the whole
//! vectors, combined as `((s₀+s₄) + (s₂+s₆)) + ((s₁+s₅) + (s₃+s₇))`, then
//! the `len % 8` tail added in order — eight lanes by definition, so it
//! runs on `Avx` or `F32x8` on every CPU. The others run at the widest
//! tier the CPU has. Each walks whole vectors through the lane body and
//! the tail through the scalar function.

use crate::simd::{Kernel, Lanes, Tier, Token};
use std::marker::PhantomData;

/// `x + ROUND_MAGIC` (for `|x| < 2²²`) is `1.5·2²³ + round(x)`: the sum's
/// ulp is 1, so the add rounds `x` to the nearest integer, ties to even,
/// and leaves it — two's complement — in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` in two parts: the high part has nine significant bits, so
/// `n · LN2_HI` is exact for every `|n| ≤ 2¹⁵`.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -0.000_212_194_44;
/// `e^r − 1 − r ≈ r² · EXP_POLY(r)` on `|r| ≤ ½ ln 2`, highest degree first.
const EXP_POLY: [f32; 6] =
    [0.000_198_756_91, 0.001_398_199_9, 0.008_333_452, 0.041_665_796, 0.166_666_66, 0.5];
/// The largest `x` with `e^x ≤ f32::MAX`.
pub const EXP_HI: f32 = 88.722_83;
/// The smallest `x` with `e^x ≥ f32::MIN_POSITIVE`.
pub const EXP_LO: f32 = -87.336_54;

/// Below this `tanh` is the odd polynomial; from it up, the exponential
/// form.
const TANH_SMALL: f32 = 0.625;
/// `tanh(a) − a ≈ a · a² · TANH_POLY(a²)` on `a < 0.625`.
const TANH_POLY: [f32; 5] = [-0.005_704_988_7, 0.020_639_088, -0.053_739_715, 0.133_314_42, -0.333_332_8];

/// Beyond `±SOFTPLUS_EDGE` softplus is its asymptote.
const SOFTPLUS_EDGE: f32 = 30.0;
/// `ln(1 + m) − m + m²/2 ≈ m · m² · LN_POLY(m)` on `√½ − 1 ≤ m < √2 − 1`.
const LN_POLY: [f32; 9] = [
    0.070_376_836,
    -0.115_146_1,
    0.116_769_984,
    -0.124_201_41,
    0.142_493_23,
    -0.166_680_57,
    0.200_007_14,
    -0.249_999_94,
    0.333_333_3,
];
const SQRT_HALF: f32 = 0.707_106_77;

const SIGN: u32 = 0x8000_0000;
/// An all-ones lane: what a NaN input is turned into.
const NAN_BITS: u32 = u32::MAX;

/// `c₀·xᵏ + … + cₖ` by Horner's rule: one multiply, one add per step.
#[inline(always)]
fn horner(x: f32, coeffs: &[f32]) -> f32 {
    let mut p = coeffs[0];
    for &c in &coeffs[1..] {
        p = p * x + c;
    }
    p
}

/// `e^x`. See the [module docs](self) for the recipe, the accuracy and
/// the edge values.
///
/// # Example
///
/// ```
/// use hima_tensor::transcend::exp;
///
/// assert_eq!(exp(0.0), 1.0);
/// assert_eq!(exp(f32::NEG_INFINITY), 0.0);
/// assert!((exp(1.0) as f64 - std::f64::consts::E).abs() < 1e-6);
/// ```
#[inline]
pub fn exp(x: f32) -> f32 {
    if x > EXP_HI {
        return f32::INFINITY;
    }
    if x < EXP_LO {
        return 0.0;
    }
    if x.is_nan() {
        return f32::from_bits(NAN_BITS);
    }
    let magic = x * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = magic - ROUND_MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    let p = horner(r, &EXP_POLY) * (r * r) + r + 1.0;
    // p · 2ⁿ: p is in [√½, √2], so the exponent field takes the add.
    f32::from_bits(p.to_bits().wrapping_add(magic.to_bits() << 23))
}

/// Logistic sigmoid `σ(x) = 1 / (1 + e^{−x})`, as `1 / (1 + z)` for
/// `x ≥ 0` and `z / (1 + z)` below, `z = e^{−|x|}` — no overflow at
/// either end.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let z = exp(f32::from_bits(x.to_bits() | SIGN));
    let num = if x < 0.0 { z } else { 1.0 };
    num / (1.0 + z)
}

/// Hyperbolic tangent.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = f32::from_bits(x.to_bits() & !SIGN);
    let t = if a < TANH_SMALL {
        let z = a * a;
        horner(z, &TANH_POLY) * z * a + a
    } else {
        1.0 - 2.0 / (exp(a + a) + 1.0)
    };
    f32::from_bits(t.to_bits() | (x.to_bits() & SIGN))
}

/// `ln(1 + u)` for `u ≥ 0` (what [`softplus`] feeds it; a NaN comes back
/// a NaN): `ln(w) · u / (w − 1)` with `w = 1 + u` rounded, which cancels
/// the rounding of `w` to first order; `u` itself where `w` rounds to 1.
#[inline]
fn ln_1p(u: f32) -> f32 {
    let w = 1.0 + u;
    let d = w - 1.0;
    if d == 0.0 {
        return u;
    }
    // ln(w) for a normal w ≥ 1: w = m·2ᵉ with m in [√½, √2).
    let bits = w.to_bits();
    let mut e = (bits >> 23) as f32 - 126.0;
    let mut m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000);
    if m < SQRT_HALF {
        e -= 1.0;
        m += m;
    }
    m -= 1.0;
    let z = m * m;
    let y = horner(m, &LN_POLY) * m * z + e * LN2_LO - 0.5 * z;
    let ln_w = m + y + e * LN2_HI;
    ln_w * (u / d)
}

/// Softplus `ln(1 + e^x)`.
#[inline]
pub fn softplus(x: f32) -> f32 {
    if x > SOFTPLUS_EDGE {
        x
    } else if x < -SOFTPLUS_EDGE {
        0.0
    } else {
        ln_1p(exp(x))
    }
}

/// `oneplus(x) = 1 + ln(1 + e^x)`, the softplus shifted to `[1, ∞)`.
///
/// DNC uses this for read/write strengths `β ≥ 1`.
#[inline]
pub fn oneplus(x: f32) -> f32 {
    1.0 + softplus(x)
}

// The lane bodies: plain expressions, no closures — a closure would not
// inherit the kernel entry's target feature, and its intrinsics would stay
// calls.

/// [`horner`] lane-wise.
#[inline(always)]
fn horner_lanes<V: Lanes>(cpu: Token<V>, x: V, coeffs: &[f32]) -> V {
    let mut p = V::splat(cpu, coeffs[0]);
    for &c in &coeffs[1..] {
        p = p.mul(x).add(V::splat(cpu, c));
    }
    p
}

/// [`exp`] on eight lanes.
#[inline(always)]
fn exp_lanes<V: Lanes>(cpu: Token<V>, x: V) -> V {
    let magic = x.mul(V::splat(cpu, std::f32::consts::LOG2_E)).add(V::splat(cpu, ROUND_MAGIC));
    let n = magic.sub(V::splat(cpu, ROUND_MAGIC));
    let r = x.sub(n.mul(V::splat(cpu, LN2_HI))).sub(n.mul(V::splat(cpu, LN2_LO)));
    let p = horner_lanes(cpu, r, &EXP_POLY).mul(r.mul(r)).add(r).add(V::splat(cpu, 1.0));
    let y = p.scale_pow2(magic);
    let y = V::splat(cpu, EXP_HI).lt_mask(x).select(V::splat(cpu, f32::INFINITY), y);
    let y = x.lt_mask(V::splat(cpu, EXP_LO)).andnot(y);
    y.or(x.ne_mask(x))
}

/// [`sigmoid`] on eight lanes.
#[inline(always)]
fn sigmoid_lanes<V: Lanes>(cpu: Token<V>, x: V) -> V {
    let one = V::splat(cpu, 1.0);
    let z = exp_lanes(cpu, x.or(V::splat(cpu, f32::from_bits(SIGN))));
    let num = x.lt_mask(V::zero(cpu)).select(z, one);
    num.div(one.add(z))
}

/// [`tanh`] on eight lanes: both forms computed, blended by mask.
#[inline(always)]
fn tanh_lanes<V: Lanes>(cpu: Token<V>, x: V) -> V {
    let (one, sign) = (V::splat(cpu, 1.0), V::splat(cpu, f32::from_bits(SIGN)));
    let a = sign.andnot(x);
    let z = a.mul(a);
    let small = horner_lanes(cpu, z, &TANH_POLY).mul(z).mul(a).add(a);
    let large = one.sub(V::splat(cpu, 2.0).div(exp_lanes(cpu, a.add(a)).add(one)));
    a.lt_mask(V::splat(cpu, TANH_SMALL)).select(small, large).or(x.and(sign))
}

/// [`ln_1p`] on eight lanes.
#[inline(always)]
fn ln_1p_lanes<V: Lanes>(cpu: Token<V>, u: V) -> V {
    let one = V::splat(cpu, 1.0);
    let w = one.add(u);
    let d = w.sub(one);
    let e = w.biased_exponent().sub(V::splat(cpu, 126.0));
    let m = w.and(V::splat(cpu, f32::from_bits(0x007f_ffff))).or(V::splat(cpu, 0.5));
    let low = m.lt_mask(V::splat(cpu, SQRT_HALF));
    let e = e.sub(low.and(one));
    let m = m.add(low.and(m)).sub(one);
    let z = m.mul(m);
    let y = horner_lanes(cpu, m, &LN_POLY).mul(m).mul(z);
    let y = y.add(e.mul(V::splat(cpu, LN2_LO))).sub(V::splat(cpu, 0.5).mul(z));
    let ln_w = m.add(y).add(e.mul(V::splat(cpu, LN2_HI)));
    d.eq_mask(V::zero(cpu)).select(u, ln_w.mul(u.div(d)))
}

/// [`softplus`] on eight lanes.
#[inline(always)]
fn softplus_lanes<V: Lanes>(cpu: Token<V>, x: V) -> V {
    let y = ln_1p_lanes(cpu, exp_lanes(cpu, x));
    let y = V::splat(cpu, SOFTPLUS_EDGE).lt_mask(x).select(x, y);
    x.lt_mask(V::splat(cpu, -SOFTPLUS_EDGE)).andnot(y)
}

/// One pointwise function in its two forms, for the slice map below.
trait Pointwise {
    fn scalar(x: f32) -> f32;
    fn lanes<V: Lanes>(cpu: Token<V>, x: V) -> V;
}

struct Sigmoid;
impl Pointwise for Sigmoid {
    #[inline(always)]
    fn scalar(x: f32) -> f32 {
        sigmoid(x)
    }
    #[inline(always)]
    fn lanes<V: Lanes>(cpu: Token<V>, x: V) -> V {
        sigmoid_lanes(cpu, x)
    }
}

struct Oneplus;
impl Pointwise for Oneplus {
    #[inline(always)]
    fn scalar(x: f32) -> f32 {
        oneplus(x)
    }
    #[inline(always)]
    fn lanes<V: Lanes>(cpu: Token<V>, x: V) -> V {
        V::splat(cpu, 1.0).add(softplus_lanes(cpu, x))
    }
}

/// Writes `sigmoid(src[i])` to `dst[i]` — the interface vector's erase
/// vector and gates.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sigmoid_into(src: &[f32], dst: &mut [f32]) {
    map_into::<Sigmoid>(src, dst);
}

/// Writes `oneplus(src[i])` to `dst[i]` — the interface vector's read
/// strengths.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn oneplus_into(src: &[f32], dst: &mut [f32]) {
    map_into::<Oneplus>(src, dst);
}

/// `dst[i] = F(src[i])`: whole vectors through the lane body, the tail
/// through the scalar function.
fn map_into<F: Pointwise>(src: &[f32], dst: &mut [f32]) {
    map_on::<F>(Tier::detected(), src, dst);
}

/// [`map_into`] on the given tier.
fn map_on<F: Pointwise>(tier: Tier, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "pointwise map length mismatch");
    tier.run(Map::<F> { src, dst, f: PhantomData });
}

/// The pointwise map's arguments, for [`Tier::run`].
struct Map<'a, F> {
    src: &'a [f32],
    dst: &'a mut [f32],
    f: PhantomData<F>,
}

impl<F: Pointwise> Kernel for Map<'_, F> {
    type Output = ();
    #[inline(always)]
    fn run<V: Lanes>(self, cpu: Token<V>) {
        let (mut s, mut d) = (self.src.chunks_exact(V::LANES), self.dst.chunks_exact_mut(V::LANES));
        for (s, d) in (&mut s).zip(&mut d) {
            F::lanes(cpu, V::load(cpu, s)).store(d);
        }
        for (&s, d) in s.remainder().iter().zip(d.into_remainder()) {
            *d = F::scalar(s);
        }
    }
}

/// Replaces `xs` by its softmax, numerically stabilized by
/// max-subtraction: `e_i = exp(x_i − max)`, their sum in the order the
/// [module docs](self) define, then `e_i / sum`. Allocates nothing — the
/// content-addressing path runs the scaled similarities through this on
/// a reused scratch buffer.
pub fn softmax_inplace(xs: &mut [f32]) {
    Tier::detected().run(Softmax(xs));
}

/// The softmax's argument, for [`Tier::run`]: its body runs on the tier's
/// eight-lane type.
struct Softmax<'a>(&'a mut [f32]);

impl Kernel for Softmax<'_> {
    type Output = ();
    #[inline(always)]
    fn run<V: Lanes>(self, cpu: Token<V>) {
        softmax_body(cpu.half(), self.0)
    }
}

/// The softmax over `V`, which has eight lanes: `Lanes::Half` on every
/// tier.
#[inline(always)]
fn softmax_body<V: Lanes>(cpu: Token<V>, xs: &mut [f32]) {
    const { assert!(V::LANES == 8, "the softmax is eight lanes wide by definition") };
    let (whole, tail) = xs.split_at_mut(xs.len() / 8 * 8);
    // The maximum, in any order: it is one value whichever way the
    // comparisons associate (and where a NaN makes them disagree, every
    // output is NaN through the sum).
    let mut lane_max = V::splat(cpu, f32::NEG_INFINITY);
    for chunk in whole.chunks_exact(8) {
        lane_max = lane_max.max(V::load(cpu, chunk));
    }
    let lane_max = to_array(lane_max);
    let max = lane_max.into_iter().chain(tail.iter().copied()).fold(f32::NEG_INFINITY, f32::max);

    let mut sums = V::zero(cpu);
    for chunk in whole.chunks_exact_mut(8) {
        let e = exp_lanes(cpu, V::load(cpu, chunk).sub(V::splat(cpu, max)));
        e.store(chunk);
        sums = sums.add(e);
    }
    let s = to_array(sums);
    let mut total = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
    for x in tail.iter_mut() {
        *x = exp(*x - max);
        total += *x;
    }

    for chunk in whole.chunks_exact_mut(8) {
        V::load(cpu, chunk).div(V::splat(cpu, total)).store(chunk);
    }
    for x in tail {
        *x /= total;
    }
}

/// The lanes of an eight-lane vector.
#[inline(always)]
fn to_array<V: Lanes>(v: V) -> [f32; 8] {
    let mut a = [0.0f32; 8];
    v.store(&mut a);
    a
}

/// The LSTM's gate, cell and hidden update over one lane: `pre` is the
/// biased pre-activation row `[i f g o]` of width `4H`, `cell` the cell
/// state `c` (updated in place) and `hidden` receives `h'`:
///
/// ```text
/// c'[j] = σ(f[j]) · c[j] + σ(i[j]) · tanh(g[j])
/// h'[j] = σ(o[j]) · tanh(c'[j])
/// ```
///
/// Both LSTM forms call this, so the oracle and the engine cannot drift.
///
/// # Panics
///
/// Panics unless `pre.len() == 4 · cell.len()` and
/// `hidden.len() == cell.len()`.
pub fn lstm_gates(pre: &[f32], cell: &mut [f32], hidden: &mut [f32]) {
    assert_eq!(pre.len(), 4 * cell.len(), "lstm_gates pre-activation width mismatch");
    assert_eq!(hidden.len(), cell.len(), "lstm_gates hidden width mismatch");
    Tier::detected().run(LstmGates { pre, cell, hidden });
}

/// The gate pass's arguments, for [`Tier::run`].
struct LstmGates<'a> {
    pre: &'a [f32],
    cell: &'a mut [f32],
    hidden: &'a mut [f32],
}

impl Kernel for LstmGates<'_> {
    type Output = ();
    #[inline(always)]
    fn run<V: Lanes>(self, cpu: Token<V>) {
        lstm_gates_body(cpu, self.pre, self.cell, self.hidden)
    }
}

#[inline(always)]
fn lstm_gates_body<V: Lanes>(cpu: Token<V>, pre: &[f32], cell: &mut [f32], hidden: &mut [f32]) {
    let h = cell.len();
    let (i, rest) = pre.split_at(h);
    let (f, rest) = rest.split_at(h);
    let (g, o) = rest.split_at(h);
    let whole = h - h % V::LANES;
    for j in (0..whole).step_by(V::LANES) {
        let i_g = sigmoid_lanes(cpu, V::load(cpu, &i[j..]));
        let f_g = sigmoid_lanes(cpu, V::load(cpu, &f[j..]));
        let g_t = tanh_lanes(cpu, V::load(cpu, &g[j..]));
        let o_g = sigmoid_lanes(cpu, V::load(cpu, &o[j..]));
        let c = f_g.mul(V::load(cpu, &cell[j..])).add(i_g.mul(g_t));
        c.store(&mut cell[j..]);
        o_g.mul(tanh_lanes(cpu, c)).store(&mut hidden[j..]);
    }
    for j in whole..h {
        let c = sigmoid(f[j]) * cell[j] + sigmoid(i[j]) * tanh(g[j]);
        cell[j] = c;
        hidden[j] = sigmoid(o[j]) * tanh(c);
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    struct Exp;
    impl Pointwise for Exp {
        fn scalar(x: f32) -> f32 {
            exp(x)
        }
        #[inline(always)]
        fn lanes<V: Lanes>(cpu: Token<V>, x: V) -> V {
            exp_lanes(cpu, x)
        }
    }
    struct Tanh;
    impl Pointwise for Tanh {
        fn scalar(x: f32) -> f32 {
            tanh(x)
        }
        #[inline(always)]
        fn lanes<V: Lanes>(cpu: Token<V>, x: V) -> V {
            tanh_lanes(cpu, x)
        }
    }
    struct Softplus;
    impl Pointwise for Softplus {
        fn scalar(x: f32) -> f32 {
            softplus(x)
        }
        #[inline(always)]
        fn lanes<V: Lanes>(cpu: Token<V>, x: V) -> V {
            softplus_lanes(cpu, x)
        }
    }

    /// `F` over `src` by the body of every tier this CPU runs — each
    /// called explicitly, whatever the dispatch picks.
    fn every_body<F: Pointwise>(src: &[f32]) -> Vec<(Tier, Vec<f32>)> {
        let mut out = Vec::new();
        for tier in Tier::available() {
            let mut body = vec![0.0; src.len()];
            map_on::<F>(tier, src, &mut body);
            out.push((tier, body));
        }
        out
    }

    /// Equal bits — or both NaN: payloads are no kernel's contract.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Distance in representable values between two finite `f32`s.
    fn ulps_apart(a: f32, b: f32) -> u32 {
        let ordered = |x: f32| {
            let b = x.to_bits() as i32;
            (if b < 0 { i32::MIN - b } else { b }) as i64
        };
        (ordered(a) - ordered(b)).unsigned_abs() as u32
    }

    /// A function's accuracy contract: at most `max_ulp` from `reference`
    /// (the `f64` function, rounded to `f32`) on `[lo, hi]`.
    #[derive(Clone, Copy)]
    struct Bound {
        reference: fn(f64) -> f64,
        lo: f32,
        hi: f32,
        max_ulp: u32,
    }

    /// [`check`] of one function with its bound, as the table below
    /// holds it.
    type Check = fn(&str, &[f32]) -> u32;

    /// Checks `F` on `src` (a multiple of sixteen long, so no element
    /// takes the tail path): every lane body against the scalar function,
    /// bit for bit, and the scalar function against its accuracy
    /// contract. Returns the worst error seen, in ulp.
    fn check<F: Pointwise>(name: &str, src: &[f32], bound: Option<Bound>) -> u32 {
        assert_eq!(src.len() % 16, 0);
        let want: Vec<f32> = src.iter().map(|&x| F::scalar(x)).collect();
        for (body, got) in every_body::<F>(src) {
            for ((&x, &g), &w) in src.iter().zip(&got).zip(&want) {
                assert!(
                    same(g, w),
                    "{name} {body} x={x:e} ({:#010x}): {:#010x} vs scalar {:#010x}",
                    x.to_bits(),
                    g.to_bits(),
                    w.to_bits()
                );
            }
        }
        let Some(bound) = bound else { return 0 };
        let mut worst = 0;
        for (&x, &w) in src.iter().zip(&want).filter(|(&x, _)| bound.lo <= x && x <= bound.hi) {
            let err = ulps_apart(w, (bound.reference)(x as f64) as f32);
            assert!(err <= bound.max_ulp, "{name}: {err} ulp at {x:e} (bound {})", bound.max_ulp);
            worst = worst.max(err);
        }
        worst
    }

    /// The five functions, each with the bound the module docs state.
    const FUNCTIONS: [(&str, Check); 5] = [
        ("exp", |n, xs| {
            check::<Exp>(n, xs, Some(Bound { reference: f64::exp, lo: -87.0, hi: 88.0, max_ulp: 2 }))
        }),
        ("tanh", |n, xs| {
            check::<Tanh>(n, xs, Some(Bound { reference: f64::tanh, lo: f32::MIN, hi: f32::MAX, max_ulp: 3 }))
        }),
        ("sigmoid", |n, xs| {
            let reference = |x: f64| 1.0 / (1.0 + (-x).exp());
            check::<Sigmoid>(n, xs, Some(Bound { reference, lo: -87.0, hi: 87.0, max_ulp: 4 }))
        }),
        ("softplus", |n, xs| {
            let reference = |x: f64| x.exp().ln_1p();
            check::<Softplus>(n, xs, Some(Bound { reference, lo: -30.0, hi: 30.0, max_ulp: 4 }))
        }),
        ("oneplus", |n, xs| check::<Oneplus>(n, xs, None)),
    ];

    #[test]
    fn lane_bodies_equal_the_scalar_functions_and_ulp_bounds_hold_on_a_strided_sweep() {
        // Every 8 101st bit pattern (a prime): ~530k values over every
        // exponent and both signs, NaNs and infinities included.
        let mut xs: Vec<f32> = (0..=u32::MAX).step_by(8101).map(f32::from_bits).collect();
        xs.resize(xs.len().next_multiple_of(16), 0.0);
        for (name, check) in FUNCTIONS {
            check(name, &xs);
        }
    }

    /// The values at which a definition changes form, each with its
    /// neighbours either side, and negated.
    fn edges() -> Vec<f32> {
        let centres = [
            0.0f32,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            1.0,
            EXP_HI,
            -EXP_LO,
            88.0,
            87.0,
            88.376_26, // where n becomes 128
            TANH_SMALL,
            2.0f32.powi(-12),
            SOFTPLUS_EDGE,
            9.010_913, // where tanh rounds to 1
            16.635_532, // where 1 + e^-x rounds to 1
            0.5 * std::f32::consts::LN_2,
            1.5 * std::f32::consts::LN_2,
            f32::MAX,
            f32::INFINITY,
        ];
        let mut xs = vec![f32::NAN, f32::from_bits(0x7f80_0001), f32::from_bits(0xffc0_1234)];
        for c in centres {
            for step in -2i32..=2 {
                let x = f32::from_bits(c.to_bits().wrapping_add_signed(step));
                xs.extend([x, -x]);
            }
        }
        xs
    }

    #[test]
    fn lane_bodies_equal_the_scalar_functions_at_every_edge_in_every_lane() {
        let edges = edges();
        for (name, check) in FUNCTIONS {
            // Shifted so every value visits every lane, beside different
            // neighbours each time.
            for shift in 0..16 {
                let mut xs = vec![0.7f32; shift];
                xs.extend(&edges);
                xs.resize(xs.len().next_multiple_of(16), -0.3);
                check(name, &xs);
            }
        }
    }

    /// The edge values of the module docs, for the scalar functions; the
    /// test above holds both lane bodies to the scalar functions on the
    /// same inputs.
    #[test]
    fn edge_values_are_the_definition() {
        assert_eq!(EXP_HI.to_bits(), 0x42b1_7217);
        assert_eq!(EXP_LO.to_bits(), 0xc2ae_ac4f);
        // One representable value further from zero.
        let past = |x: f32| f32::from_bits(x.to_bits() + 1);
        // The two constants are what their docs say, by the f64 function.
        assert!((EXP_HI as f64).exp() <= f32::MAX as f64 && (past(EXP_HI) as f64).exp() > f32::MAX as f64);
        assert!((EXP_LO as f64).exp() >= f32::MIN_POSITIVE as f64);
        assert!((past(EXP_LO) as f64).exp() < f32::MIN_POSITIVE as f64);

        for f in [exp, sigmoid, tanh, softplus, oneplus] {
            for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001)] {
                assert!(f(nan).is_nan());
            }
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        for x in [past(EXP_LO), -88.0, -1e30, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x})");
        }
        for x in [past(EXP_HI), 89.0, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x})");
        }
        assert!(exp(EXP_HI).is_finite() && exp(EXP_HI) > 3.402e38);
        assert!(exp(EXP_LO).is_normal() && exp(EXP_LO) < 1.1755e-38);
        // Outside the ulp-bounded domain but inside the edges — where n is
        // 128, or the result is within an octave of the subnormals — the
        // result is still a normal number within a few ulp.
        for band in [88.0f32.to_bits()..=EXP_HI.to_bits(), (-87.0f32).to_bits()..=EXP_LO.to_bits()] {
            for x in band.map(f32::from_bits) {
                let (got, want) = (exp(x), (x as f64).exp() as f32);
                assert!(got.is_normal() && ulps_apart(got, want) <= 2, "exp({x}) = {got:e} vs {want:e}");
            }
        }

        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);

        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(0.0).to_bits(), 0);
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        for bits in (0..2.0f32.powi(-12).to_bits()).step_by(40_093) {
            let x = f32::from_bits(bits);
            assert_eq!(tanh(x).to_bits(), bits, "tanh({x:e})");
            assert_eq!(tanh(-x).to_bits(), (-x).to_bits(), "tanh(-{x:e})");
        }

        assert_eq!(softplus(30.5), 30.5);
        assert_eq!(softplus(f32::INFINITY), f32::INFINITY);
        assert_eq!(softplus(-30.5).to_bits(), 0);
        assert_eq!(softplus(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(oneplus(-100.0), 1.0);

        softmax_inplace(&mut []);
        for x in [0.0, -3.5, 1e30, f32::MIN] {
            let mut one = [x];
            softmax_inplace(&mut one);
            assert_eq!(one, [1.0], "softmax([{x}])");
        }
        let mut poisoned = [0.5f32; 19];
        poisoned[11] = f32::NAN;
        softmax_inplace(&mut poisoned);
        assert!(poisoned.iter().all(|p| p.is_nan()), "a NaN poisons the whole softmax");
    }

    fn wave(len: usize, salt: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 + salt * 11) as f32 * 0.173).sin() * scale).collect()
    }

    /// The definition of the softmax, written plainly: scalar `exp`, the
    /// documented summation order.
    fn softmax_reference(xs: &mut [f32]) {
        let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let whole = xs.len() / 8 * 8;
        let mut s = [0.0f32; 8];
        for (i, x) in xs.iter_mut().enumerate() {
            *x = exp(*x - max);
            if i < whole {
                s[i % 8] += *x;
            }
        }
        let mut total = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
        for x in &xs[whole..] {
            total += *x;
        }
        for x in xs {
            *x /= total;
        }
    }

    /// The LSTM update as a plain loop over the scalar functions.
    fn lstm_gates_reference(pre: &[f32], cell: &mut [f32], hidden: &mut [f32]) {
        let h = cell.len();
        for j in 0..h {
            let (i_g, f_g) = (sigmoid(pre[j]), sigmoid(pre[h + j]));
            let (g, o_g) = (tanh(pre[2 * h + j]), sigmoid(pre[3 * h + j]));
            cell[j] = f_g * cell[j] + i_g * g;
            hidden[j] = o_g * tanh(cell[j]);
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn slice_kernels_equal_their_plain_loops_at_every_length_to_33() {
        for len in 0..=33 {
            for scale in [1.0, 6.0, 40.0] {
                let src = wave(len, len, scale);
                let what = format!("len={len} scale={scale}");

                let (mut got, mut body) = (vec![0.0; len], vec![0.0; len]);
                sigmoid_into(&src, &mut got);
                let want: Vec<f32> = src.iter().map(|&x| sigmoid(x)).collect();
                assert_eq!(bits(&got), bits(&want), "sigmoid_into {what}");
                for tier in Tier::available() {
                    map_on::<Sigmoid>(tier, &src, &mut body);
                    assert_eq!(bits(&body), bits(&want), "sigmoid_into {tier} {what}");
                }

                oneplus_into(&src, &mut got);
                let want: Vec<f32> = src.iter().map(|&x| oneplus(x)).collect();
                assert_eq!(bits(&got), bits(&want), "oneplus_into {what}");
                for tier in Tier::available() {
                    map_on::<Oneplus>(tier, &src, &mut body);
                    assert_eq!(bits(&body), bits(&want), "oneplus_into {tier} {what}");
                }

                let (mut got, mut want) = (src.clone(), src.clone());
                softmax_inplace(&mut got);
                softmax_reference(&mut want);
                assert_eq!(bits(&got), bits(&want), "softmax_inplace {what}");
                for tier in Tier::available() {
                    let mut body = src.clone();
                    tier.run(Softmax(&mut body));
                    assert_eq!(bits(&body), bits(&want), "softmax {tier} {what}");
                }
                if len > 0 {
                    assert!((got.iter().sum::<f32>() - 1.0).abs() < 1e-5, "softmax sums to 1, {what}");
                }
            }
        }
    }

    #[test]
    fn lstm_gates_equals_a_plain_loop_over_the_scalar_functions() {
        for h in (0..=33).chain([64, 256]) {
            let pre = wave(4 * h, h, 5.0);
            let cell = wave(h, h + 1, 2.0);
            let (mut c_want, mut h_want) = (cell.clone(), vec![0.0; h]);
            lstm_gates_reference(&pre, &mut c_want, &mut h_want);

            let (mut c_got, mut h_got) = (cell.clone(), vec![0.0; h]);
            lstm_gates(&pre, &mut c_got, &mut h_got);
            assert_eq!((bits(&c_got), bits(&h_got)), (bits(&c_want), bits(&h_want)), "H={h}");

            for tier in Tier::available() {
                let (mut cell, mut hidden) = (cell.clone(), vec![0.0; h]);
                tier.run(LstmGates { pre: &pre, cell: &mut cell, hidden: &mut hidden });
                let got = (bits(&cell), bits(&hidden));
                assert_eq!(got, (bits(&c_want), bits(&h_want)), "{tier} H={h}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "pre-activation width mismatch")]
    fn lstm_gates_rejects_a_short_pre_activation_row() {
        lstm_gates(&[0.0; 7], &mut [0.0; 2], &mut [0.0; 2]);
    }

    /// All 2³² `f32` bit patterns: the lane body of every tier this CPU
    /// runs (`F32x8`, `Avx`, `Avx512`), for every function, against its
    /// scalar definition, and the scalar definition against its ulp bound
    /// on every `f32` of the stated domain — not a sample. Prints the
    /// tiers it checked and, on a CPU without one, the tier it skipped.
    /// The two signs run on two threads; minutes in release mode. CI runs
    /// it as "Transcendentals, exhaustive".
    #[test]
    #[ignore = "exhaustive over all f32 bit patterns: minutes in --release"]
    fn exhaustive_lanes_equal_scalar_and_ulp_bounds_hold() {
        const BLOCK: usize = 1 << 16;
        let half = |sign: u32| {
            let mut worst = [0u32; FUNCTIONS.len()];
            let mut src = vec![0.0f32; BLOCK];
            for base in (0..=u32::MAX >> 1).step_by(BLOCK) {
                for (i, x) in src.iter_mut().enumerate() {
                    *x = f32::from_bits(sign | (base + i as u32));
                }
                for ((name, check), worst) in FUNCTIONS.iter().zip(&mut worst) {
                    *worst = (*worst).max(check(name, &src));
                }
            }
            worst
        };
        let (positive, negative) = std::thread::scope(|s| {
            let negative = s.spawn(|| half(SIGN));
            (half(0), negative.join().expect("the negative half panicked"))
        });
        for (((name, _), p), n) in FUNCTIONS.iter().zip(positive).zip(negative) {
            println!("{name}: max {} ulp", p.max(n));
        }
        crate::simd::tiers::report("transcend::tests::exhaustive (transcendentals)");
    }

    /// `(x, exp x, sigmoid x, tanh x, softplus x)` as bit patterns: the
    /// cross-host contract. These values were computed once, by this
    /// file; every host, libc and instruction set must reproduce them —
    /// which no libm could promise. Every edge value of the module docs is
    /// a row.
    #[rustfmt::skip]
    const GOLDEN: [(u32, u32, u32, u32, u32); 51] = [
        (0x7fc00000, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff), // NaN
        (0x7f800000, 0x7f800000, 0x3f800000, 0x3f800000, 0x7f800000), // inf
        (0xff800000, 0x00000000, 0x00000000, 0xbf800000, 0x00000000), // -inf
        (0x00000000, 0x3f800000, 0x3f000000, 0x00000000, 0x3f317218), // 0e0
        (0x80000000, 0x3f800000, 0x3f000000, 0x80000000, 0x3f317218), // -0e0
        (0x00800000, 0x3f800000, 0x3f000000, 0x00800000, 0x3f317218), // 1.1754944e-38
        (0x00000001, 0x3f800000, 0x3f000000, 0x00000001, 0x3f317218), // 1e-45
        (0x80000001, 0x3f800000, 0x3f000000, 0x80000001, 0x3f317218), // -1e-45
        (0x3f800000, 0x402df854, 0x3f3b26a8, 0x3f42f7d6, 0x3fa818f5), // 1e0
        (0xbf800000, 0x3ebc5ab2, 0x3e89b2b1, 0xbf42f7d6, 0x3ea063d6), // -1e0
        (0x3f000000, 0x3fd3094c, 0x3f1f597f, 0x3eec9a9f, 0x3f795d1c), // 5e-1
        (0xbf000000, 0x3f1b4598, 0x3ec14d03, 0xbeec9a9f, 0x3ef2ba38), // -5e-1
        (0x39800000, 0x3f800800, 0x3f000400, 0x39800000, 0x3f317a18), // 2.4414063e-4
        (0x397fffff, 0x3f800800, 0x3f000400, 0x397fffff, 0x3f317a18), // 2.4414061e-4
        (0xb97fffff, 0x3f7ff001, 0x3efff801, 0xb97fffff, 0x3f316a19), // -2.4414061e-4
        (0x3f200000, 0x3fef22af, 0x3f26bf32, 0x3f0dfa40, 0x3f86dfa9), // 6.25e-1
        (0x3f1fffff, 0x3fef22ae, 0x3f26bf32, 0x3f0dfa3f, 0x3f86dfaa), // 6.2499994e-1
        (0xbf200000, 0x3f0906e5, 0x3eb2819e, 0xbf0dfa40, 0x3edb7ea9), // -6.25e-1
        (0x3dcccccd, 0x3f8d763e, 0x3f066509, 0x3dcc1ebc, 0x3f3e90c8), // 1e-1
        (0xbf333333, 0x3efe406e, 0x3ea9e34a, 0xbf1ab7d9, 0x3ece6e66), // -7e-1
        (0x3f9e0419, 0x405bf23c, 0x3f464c87, 0x3f580880, 0x3fbeb51a), // 1.2345e0
        (0xc02df84d, 0x3d8724cc, 0x3d7d8e48, 0xbf7dc7bb, 0x3d82df2a), // -2.71828e0
        (0x40400000, 0x41a0af2e, 0x3f73dbe6, 0x3f7ebbe9, 0x40431c0e), // 3e0
        (0xc0400000, 0x3d4bed86, 0x3d4241a2, 0xbf7ebbe9, 0x3d470388), // -3e0
        (0x40b00000, 0x4374b122, 0x3f7ef543, 0x3f7ffdd0, 0x40b02169), // 5.5e0
        (0xc0e80000, 0x3a3a2aff, 0x3a3a092d, 0xbf7fffef, 0x3a3a1a14), // -7.25e0
        (0x41102cb3, 0x45fffff8, 0x3f7ff800, 0x3f7fffff, 0x41102d33), // 9.010913e0
        (0x41102cb4, 0x46000004, 0x3f7ff800, 0x3f800000, 0x41102d34), // 9.010914e0
        (0x41400000, 0x481ef0b3, 0x3f7fff98, 0x3f800000, 0x41400006), // 1.2e1
        (0xc1780000, 0x3447389c, 0x34473899, 0xbf800000, 0x3447389a), // -1.55e1
        (0x41851592, 0x4b800000, 0x3f800000, 0x3f800000, 0x41851593), // 1.6635532e1
        (0x41a00000, 0x4de75844, 0x3f800000, 0x3f800000, 0x41a00000), // 2e1
        (0xc1a00000, 0x310da433, 0x310da433, 0xbf800000, 0x310da433), // -2e1
        (0x41f00000, 0x551b8238, 0x3f800000, 0x3f800000, 0x41f00000), // 3e1
        (0x41f00001, 0x551b824c, 0x3f800000, 0x3f800000, 0x41f00001), // 3.0000002e1
        (0xc1f00000, 0x29d2b706, 0x29d2b706, 0xbf800000, 0x29d2b706), // -3e1
        (0xc1f00001, 0x29d2b6ec, 0x29d2b6ec, 0xbf800000, 0x00000000), // -3.0000002e1
        (0x42300000, 0x5f325a0e, 0x3f800000, 0x3f800000, 0x42300000), // 4.4e1
        (0xc2320000, 0x1f5edf32, 0x1f5edf32, 0xbf800000, 0x00000000), // -4.45e1
        (0x42ae0000, 0x7e36d809, 0x3f800000, 0x3f800000, 0x42ae0000), // 8.7e1
        (0xc2ae0000, 0x00b33687, 0x00b33687, 0xbf800000, 0x00000000), // -8.7e1
        (0x42b00000, 0x7ef882b7, 0x3f800000, 0x3f800000, 0x42b00000), // 8.8e1
        (0x42b0c0a5, 0x7f3504a4, 0x3f800000, 0x3f800000, 0x42b0c0a5), // 8.837626e1
        (0x42b17217, 0x7f7fff84, 0x3f800000, 0x3f800000, 0x42b17217), // 8.872283e1
        (0x42b17218, 0x7f800000, 0x3f800000, 0x3f800000, 0x42b17218), // 8.872284e1
        (0xc2aeac4f, 0x00800026, 0x00800026, 0xbf800000, 0x00000000), // -8.733654e1
        (0xc2aeac50, 0x00000000, 0x00000000, 0xbf800000, 0x00000000), // -8.733655e1
        (0x42c80000, 0x7f800000, 0x3f800000, 0x3f800000, 0x42c80000), // 1e2
        (0xc2c80000, 0x00000000, 0x00000000, 0xbf800000, 0x00000000), // -1e2
        (0x7f7fffff, 0x7f800000, 0x3f800000, 0x3f800000, 0x7f7fffff), // 3.4028235e38
        (0xff7fffff, 0x00000000, 0x00000000, 0xbf800000, 0x00000000), // -3.4028235e38
    ];

    /// A 19-long softmax (two whole vectors and a tail of three), input
    /// and output bits: pins the summation order with the `exp`.
    #[rustfmt::skip]
    const GOLDEN_SOFTMAX: [(u32, u32); 19] = [
        (0x00000000, 0x399e2b22), (0x3f348b59, 0x3a201838), (0x3fb34af4, 0x3aa077ae), (0x4004e9fc, 0x3b1dbf90),
        (0x402e56aa, 0x3b96ac47), (0x40555895, 0x3c0a94cb), (0x40796570, 0x3c736896), (0x408cfe8e, 0x3cca85c8),
        (0x409b55d9, 0x3d1e8448), (0x40a785ef, 0x3d67ff8f), (0x40b1635c, 0x3d9de260), (0x40b8cb45, 0x3dc6ff96),
        (0x40bda34a, 0x3de7851e), (0x40bfda3a, 0x3df81c2d), (0x40bf6838, 0x3df4ae58), (0x40bc4eda, 0x3dde1887),
        (0x40b6993c, 0x3db9cda8), (0x40ae5b72, 0x3d8f9dcf), (0x40a3b2cf, 0x3d4ddcc5),
    ];

    #[test]
    fn golden_table_is_reproduced_by_the_scalar_functions_and_both_lane_bodies() {
        type Row = (u32, u32, u32, u32, u32);
        type Column = (&'static str, fn(f32) -> f32, fn(&Row) -> u32);
        let columns: [Column; 4] = [
            ("exp", exp, |r| r.1),
            ("sigmoid", sigmoid, |r| r.2),
            ("tanh", tanh, |r| r.3),
            ("softplus", softplus, |r| r.4),
        ];
        for (name, f, golden) in columns {
            for row in &GOLDEN {
                let (x, want) = (f32::from_bits(row.0), golden(row));
                let got = f(x).to_bits();
                assert!(same(f32::from_bits(got), f32::from_bits(want)), "{name}({x:e}) = {got:#010x}, golden {want:#010x}");
            }
        }
        // The lane bodies reproduce the scalar functions on the same inputs.
        let mut xs: Vec<f32> = GOLDEN.iter().map(|row| f32::from_bits(row.0)).collect();
        xs.resize(xs.len().next_multiple_of(16), 0.0);
        for (name, check) in FUNCTIONS {
            check(name, &xs);
        }

        let logits: Vec<f32> = GOLDEN_SOFTMAX.iter().map(|&(x, _)| f32::from_bits(x)).collect();
        let (mut dispatched, mut portable) = (logits.clone(), logits);
        softmax_inplace(&mut dispatched);
        Tier::Portable.run(Softmax(&mut portable));
        assert_eq!(bits(&dispatched), GOLDEN_SOFTMAX.map(|(_, y)| y));
        assert_eq!(bits(&portable), GOLDEN_SOFTMAX.map(|(_, y)| y));
    }
}
