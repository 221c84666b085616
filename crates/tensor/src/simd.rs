//! Fixed-width `f32` SIMD vectors: the crate's `Lanes` trait, the
//! lane-width type the bit-exact kernels are written over, and its three
//! implementations.
//!
//! Semantics are plain IEEE f32 per lane: one rounding per operation,
//! never a fused multiply-add, and no reduction across lanes — a lane
//! only ever holds an independent output. There is no crates.io
//! dependency and no `std::simd` here.
//!
//! # `Lanes`: one kernel body, three lane types
//!
//! The crate's vector kernels — the panel-packed product
//! ([`mod@crate::packed`]), the Q-format rounding pass
//! ([`mod@crate::fixed`]), the head-fused products
//! ([`mod@crate::fused`]), the history-write kernels
//! ([`mod@crate::history`]) and the transcendentals
//! ([`mod@crate::transcend`]) — are each **one** generic function over the
//! crate-private `Lanes` trait: `Lanes::LANES` `f32` lanes with exactly
//! the operations those bodies need, every one a single correctly
//! rounded IEEE operation (or a bit operation) per lane, never an FMA. It
//! has three implementations, each with one body per op:
//!
//! * `Avx512` — sixteen lanes in one `__m512`, AVX-512F only: compares
//!   go through a `__mmask16` and are widened back to all-ones lanes,
//!   bit operations through integer casts;
//! * `Avx` — eight lanes in one `__m256`;
//! * `F32x8` — eight `f32`s in plain Rust, each op the scalar expression
//!   it stands for, lane by lane: the tier every CPU runs (on `x86_64`,
//!   the one a CPU without AVX runs). It is the reference body, not a
//!   fast one — how well LLVM vectorizes its arrays is LLVM's choice —
//!   and no AVX CPU dispatches to it.
//!
//! [`Tier`] names them. [`Tier::detected`] is the one place the crate asks
//! the CPU what it runs (once per process), and every dispatched kernel
//! runs on that tier through one `#[target_feature]` entry per
//! instruction set (`Tier::run`), so LLVM emits VEX or EVEX code and
//! places the `vzeroupper`s. There is no knob: the widest tier the CPU
//! has is the one that runs. Because every tier runs the same body, and
//! each op rounds each lane exactly as its scalar counterpart does, the
//! three cannot drift apart — and none can drift from the scalar
//! reference the body was transcribed from. The tests run each body this
//! CPU has, not only the detected one.
//!
//! # The width rule
//!
//! A kernel may run at sixteen lanes only if its lanes are
//! **independent outputs**: an element-wise map (rounding, the
//! transcendentals, the linkage update, the erase/add write) or a product
//! that packs output columns into lanes and walks `k` in order (the
//! panel product, `matvec_t_heads`). Widening such a kernel changes which
//! lanes share a register, never what any lane computes, so every bit is
//! kept. Two kernels are eight lanes wide *by definition* and stay on the
//! eight-lane types (the `Lanes8` sub-trait, which `Avx512` does not
//! implement; on an AVX-512 CPU they run on `Avx`):
//!
//! * the softmax sums its exponentials into **eight** partial sums, then
//!   adds those in a fixed tree — the order is part of its definition;
//! * the transposing row-dot kernel (`fused::row_dots_into`: the
//!   forward weighting, the content dots and the row norms) is built on
//!   **8 × 8** in-register transposes (`Lanes8::load_transposed`), with
//!   its row and `k` tails cut at multiples of eight; sixteen lanes would
//!   be a different kernel (a 16 × 16 transpose, other tails), not a
//!   wider instantiation of this one.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m128, __m256, __m512, __m512i, __mmask16, _mm512_add_epi32, _mm512_add_ps, _mm512_and_si512,
    _mm512_andnot_si512, _mm512_castps_si512, _mm512_castsi512_ps, _mm512_cmp_ps_mask,
    _mm512_cvtepi32_ps, _mm512_div_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
    _mm512_maskz_loadu_ps, _mm512_maskz_set1_epi32, _mm512_max_ps, _mm512_min_ps, _mm512_mul_ps,
    _mm512_or_si512, _mm512_roundscale_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_slli_epi32,
    _mm512_sqrt_ps, _mm512_srli_epi32, _mm512_storeu_ps, _mm512_sub_ps, _mm512_ternarylogic_epi32,
    _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps, _mm256_blendv_ps, _mm256_castps128_ps256,
    _mm256_castps256_ps128, _mm256_cmp_ps, _mm256_div_ps, _mm256_extractf128_ps,
    _mm256_insertf128_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps,
    _mm256_or_ps, _mm256_round_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_shuffle_ps,
    _mm256_sqrt_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    _mm_add_epi32, _mm_castps_si128, _mm_castsi128_ps, _mm_cvtepi32_ps, _mm_loadu_ps,
    _mm_slli_epi32, _mm_srli_epi32, _CMP_EQ_OQ, _CMP_LT_OQ, _CMP_NEQ_UQ, _MM_FROUND_NO_EXC,
    _MM_FROUND_TO_ZERO,
};
/// `LANES` `f32` lanes with the operations the crate's kernel bodies
/// need (see the [module docs](self)). Every arithmetic op is one rounded
/// IEEE operation per lane — what the scalar `+`, `-`, `*`, `sqrt` and
/// `trunc` compute — so a body written over `Lanes` keeps the bits of the
/// scalar code it transcribes.
///
/// # Safety
///
/// Every method may execute instructions of the implementor's instruction
/// set: callers must know the CPU supports it ([`F32x8`]: always; `Avx`
/// and `Avx512`: from [`Tier::detected`], which `Tier::run` checks).
pub(crate) trait Lanes: Copy {
    /// Lanes per vector: 8 or 16.
    const LANES: usize;

    unsafe fn zero() -> Self;
    unsafe fn splat(v: f32) -> Self;
    /// The first `LANES` elements of `s` (panics if shorter).
    unsafe fn load(s: &[f32]) -> Self;
    /// Writes the lanes to the first `LANES` elements of `d` (panics if
    /// shorter).
    unsafe fn store(self, d: &mut [f32]);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn div(self, o: Self) -> Self;
    /// `self < o ? self : o` per lane — `o` wherever either is NaN, so a
    /// clamp that must keep a NaN puts its constant in `self`.
    unsafe fn min(self, o: Self) -> Self;
    /// `self > o ? self : o` per lane — `o` wherever either is NaN.
    unsafe fn max(self, o: Self) -> Self;
    /// Bitwise and.
    unsafe fn and(self, o: Self) -> Self;
    /// Bitwise or.
    unsafe fn or(self, o: Self) -> Self;
    /// Bitwise `!self & o`.
    unsafe fn andnot(self, o: Self) -> Self;
    /// All ones where `self == o` (false on NaN), all zeros elsewhere.
    unsafe fn eq_mask(self, o: Self) -> Self;
    /// All ones where `self != o` (true on NaN), all zeros elsewhere.
    unsafe fn ne_mask(self, o: Self) -> Self;
    /// All ones where `self < o` (false on NaN), all zeros elsewhere.
    unsafe fn lt_mask(self, o: Self) -> Self;
    /// `self · 2ⁿ` by adding `n` to the exponent field — `n` being the
    /// integer that `x + 1.5·2²³` leaves in the low mantissa bits of
    /// `magic`: `magic`'s bits shifted left by 23, integer-added to
    /// `self`'s. Exact while `self` and the result are both normal.
    unsafe fn scale_pow2(self, magic: Self) -> Self;
    /// The bits shifted right by 23, as a number: the biased exponent of
    /// a positive value.
    unsafe fn biased_exponent(self) -> Self;
    /// Rounds toward zero, keeping the sign of a zero result.
    unsafe fn trunc(self) -> Self;
    unsafe fn sqrt(self) -> Self;

    /// `acc + x * w` per lane: a rounded multiply, then a rounded add.
    #[inline(always)]
    unsafe fn mul_acc(acc: Self, x: Self, w: Self) -> Self {
        // SAFETY: forwarded from the caller.
        unsafe { acc.add(x.mul(w)) }
    }

    /// `a` where this mask (all ones or all zeros per lane) is set, `b`
    /// elsewhere.
    #[inline(always)]
    unsafe fn select(self, a: Self, b: Self) -> Self {
        // SAFETY: forwarded from the caller.
        unsafe { self.and(a).or(self.andnot(b)) }
    }

    /// The elements of `s` (at most `LANES`) in the first lanes, zeros in
    /// the rest — a slice's tail as one padded vector.
    #[inline(always)]
    unsafe fn load_first(s: &[f32]) -> Self {
        let mut padded = [0.0f32; 16];
        padded[..s.len()].copy_from_slice(s);
        // SAFETY: forwarded from the caller.
        unsafe { Self::load(&padded) }
    }

    /// Writes the first `d.len()` lanes (at most `LANES`) to `d`.
    #[inline(always)]
    unsafe fn store_first(self, d: &mut [f32]) {
        let mut all = [0.0f32; 16];
        // SAFETY: forwarded from the caller.
        unsafe { self.store(&mut all) };
        d.copy_from_slice(&all[..d.len()]);
    }
}

/// The eight-lane operations: what the kernels that are eight lanes wide
/// *by definition* — the softmax's eight partial sums, the row-dot
/// kernel's 8 × 8 transposes — need beyond [`Lanes`] (see the
/// [module docs](self)). [`F32x8`] and `Avx` implement it; `Avx512` does
/// not.
pub(crate) trait Lanes8: Lanes {
    /// An 8 × 8 block of a row-major buffer, transposed: `rows` holds rows
    /// of `stride` values, and element `c` of the result is
    /// `rows[0·stride + col + c], …, rows[7·stride + col + c]` (panics if
    /// the block's last element lies outside `rows`).
    unsafe fn load_transposed(rows: &[f32], stride: usize, col: usize) -> [Self; 8];

    #[inline(always)]
    unsafe fn to_array(self) -> [f32; 8] {
        let mut a = [0.0f32; 8];
        // SAFETY: forwarded from the caller.
        unsafe { self.store(&mut a) };
        a
    }
}

/// A kernel body generic over the lane type, run by [`Tier::run`] on the
/// tier it names.
pub(crate) trait Kernel {
    type Output;

    /// The body over `V` — `#[inline(always)]` in every implementation,
    /// so it is compiled inside the tier's `#[target_feature]` entry.
    ///
    /// # Safety
    ///
    /// The CPU must support `V`'s instruction set (see [`Lanes`]).
    unsafe fn run<V: Lanes>(self) -> Self::Output;
}

/// [`Kernel`] for a body that is eight lanes wide by definition, run by
/// [`Tier::run8`].
pub(crate) trait Kernel8 {
    type Output;

    /// As [`Kernel::run`].
    ///
    /// # Safety
    ///
    /// The CPU must support `V`'s instruction set (see [`Lanes`]).
    unsafe fn run<V: Lanes8>(self) -> Self::Output;
}

/// One implementation of `Lanes`: what a dispatched kernel runs on. Ordered
/// by width — a CPU that runs a tier runs every tier before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// `F32x8`: eight lanes in plain Rust — every CPU.
    Portable,
    /// `Avx`: eight lanes in one `__m256`.
    Avx,
    /// `Avx512`: sixteen lanes in one `__m512`, AVX-512F only.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Portable, Tier::Avx, Tier::Avx512];

    /// The widest tier this CPU runs — asked of the CPU once per process,
    /// here and nowhere else in the crate.
    pub fn detected() -> Tier {
        static DETECTED: OnceLock<Tier> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected;
                if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx") {
                    return Tier::Avx512;
                }
                if is_x86_feature_detected!("avx") {
                    return Tier::Avx;
                }
            }
            Tier::Portable
        })
    }

    /// Whether this CPU runs this tier.
    pub fn is_available(self) -> bool {
        self <= Tier::detected()
    }

    /// Every tier this CPU runs, narrowest first.
    pub fn available() -> impl Iterator<Item = Tier> {
        Tier::ALL.into_iter().filter(|t| t.is_available())
    }

    /// `f32` lanes per vector.
    pub fn lanes(self) -> usize {
        match self {
            Tier::Avx512 => 16,
            Tier::Portable | Tier::Avx => 8,
        }
    }

    /// The name of the tier's lane type: `F32x8`, `Avx` or `Avx512`.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Portable => "F32x8",
            Tier::Avx => "Avx",
            Tier::Avx512 => "Avx512",
        }
    }

    /// Runs `kernel` over this tier's `Lanes`.
    ///
    /// # Panics
    ///
    /// Panics if this CPU does not run this tier.
    #[inline]
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Output {
        assert!(self.is_available(), "this CPU does not run the {} tier", self.name());
        // SAFETY (every arm): the CPU runs this tier, checked above.
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { run_avx512(kernel) },
            #[cfg(target_arch = "x86_64")]
            Tier::Avx => unsafe { run_avx(kernel) },
            _ => unsafe { kernel.run::<F32x8>() },
        }
    }

    /// Runs an eight-lane `kernel` on this tier's eight-lane type — `Avx`
    /// on the `Avx512` tier.
    ///
    /// # Panics
    ///
    /// Panics if this CPU does not run this tier.
    #[inline]
    pub(crate) fn run8<K: Kernel8>(self, kernel: K) -> K::Output {
        assert!(self.is_available(), "this CPU does not run the {} tier", self.name());
        // SAFETY (both arms): the CPU runs this tier, checked above, and
        // `Avx512` implies AVX.
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx | Tier::Avx512 => unsafe { run8_avx(kernel) },
            _ => unsafe { kernel.run::<F32x8>() },
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The `Avx` entry of every [`Kernel`].
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn run_avx<K: Kernel>(kernel: K) -> K::Output {
    // SAFETY: the caller guarantees AVX, which is all `Avx` needs.
    unsafe { kernel.run::<Avx>() }
}

/// The `Avx` entry of every [`Kernel8`].
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn run8_avx<K: Kernel8>(kernel: K) -> K::Output {
    // SAFETY: the caller guarantees AVX, which is all `Avx` needs.
    unsafe { kernel.run::<Avx>() }
}

/// The `Avx512` entry of every [`Kernel`].
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<K: Kernel>(kernel: K) -> K::Output {
    // SAFETY: the caller guarantees AVX-512F, which is all `Avx512` needs.
    unsafe { kernel.run::<Avx512>() }
}

/// Eight `f32` lanes in plain Rust: every op is the scalar expression it
/// stands for, applied lane by lane (see the [module docs](self)).
#[derive(Clone, Copy)]
pub(crate) struct F32x8([f32; 8]);

impl F32x8 {
    /// `f` lane by lane.
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Self(std::array::from_fn(|i| f(self.0[i], o.0[i])))
    }
}

// Nothing here needs the `unsafe` the trait's signatures carry: plain
// Rust runs on every CPU.
impl Lanes for F32x8 {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn zero() -> Self {
        Self([0.0; 8])
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        Self([v; 8])
    }
    #[inline(always)]
    unsafe fn load(s: &[f32]) -> Self {
        Self(s[..8].try_into().expect("F32x8::load needs 8 elements"))
    }
    #[inline(always)]
    unsafe fn store(self, d: &mut [f32]) {
        d[..8].copy_from_slice(&self.0);
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }
    #[inline(always)]
    unsafe fn min(self, o: Self) -> Self {
        self.zip(o, |a, b| if a < b { a } else { b })
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        self.zip(o, |a, b| if a > b { a } else { b })
    }
    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(a.to_bits() & b.to_bits()))
    }
    #[inline(always)]
    unsafe fn or(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(a.to_bits() | b.to_bits()))
    }
    #[inline(always)]
    unsafe fn andnot(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(!a.to_bits() & b.to_bits()))
    }
    #[inline(always)]
    unsafe fn eq_mask(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(if a == b { u32::MAX } else { 0 }))
    }
    #[inline(always)]
    unsafe fn ne_mask(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(if a != b { u32::MAX } else { 0 }))
    }
    #[inline(always)]
    unsafe fn lt_mask(self, o: Self) -> Self {
        self.zip(o, |a, b| f32::from_bits(if a < b { u32::MAX } else { 0 }))
    }
    #[inline(always)]
    unsafe fn scale_pow2(self, magic: Self) -> Self {
        self.zip(magic, |p, m| f32::from_bits(p.to_bits().wrapping_add(m.to_bits() << 23)))
    }
    #[inline(always)]
    unsafe fn biased_exponent(self) -> Self {
        Self(self.0.map(|v| (v.to_bits() >> 23) as f32))
    }
    #[inline(always)]
    unsafe fn trunc(self) -> Self {
        Self(self.0.map(f32::trunc))
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        Self(self.0.map(f32::sqrt))
    }
}

impl Lanes8 for F32x8 {
    #[inline(always)]
    unsafe fn load_transposed(rows: &[f32], stride: usize, col: usize) -> [Self; 8] {
        assert!(7 * stride + col + 8 <= rows.len(), "8 x 8 block out of bounds");
        std::array::from_fn(|c| Self(std::array::from_fn(|r| rows[r * stride + col + c])))
    }
}

/// [`Lanes::scale_pow2`] on four lanes. AVX (without AVX2) has no 256-bit
/// integer unit, so `Avx` runs this on its two 128-bit halves.
///
/// # Safety
///
/// None beyond SSE2, part of the x86_64 baseline ABI: register-only.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn scale_pow2_sse2(p: __m128, magic: __m128) -> __m128 {
    // SAFETY: SSE2 register-only intrinsics.
    unsafe {
        let n = _mm_slli_epi32::<23>(_mm_castps_si128(magic));
        _mm_castsi128_ps(_mm_add_epi32(_mm_castps_si128(p), n))
    }
}

/// [`Lanes::biased_exponent`] on four lanes (see [`scale_pow2_sse2`]).
///
/// # Safety
///
/// None beyond SSE2, part of the x86_64 baseline ABI: register-only.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn biased_exponent_sse2(v: __m128) -> __m128 {
    // SAFETY: SSE2 register-only intrinsics.
    unsafe { _mm_cvtepi32_ps(_mm_srli_epi32::<23>(_mm_castps_si128(v))) }
}

/// Eight lanes in one AVX register.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx(__m256);

// SAFETY (every method): the trait's contract — the caller knows the CPU
// supports AVX — is the intrinsics' only requirement; the loads and the
// store additionally slice their eight (or four) elements first, so the
// unaligned accesses stay in-bounds.
#[cfg(target_arch = "x86_64")]
impl Lanes for Avx {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn zero() -> Self {
        Avx(unsafe { _mm256_setzero_ps() })
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        Avx(unsafe { _mm256_set1_ps(v) })
    }
    #[inline(always)]
    unsafe fn load(s: &[f32]) -> Self {
        let s = &s[..8];
        Avx(unsafe { _mm256_loadu_ps(s.as_ptr()) })
    }
    #[inline(always)]
    unsafe fn store(self, d: &mut [f32]) {
        let d = &mut d[..8];
        unsafe { _mm256_storeu_ps(d.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        Avx(unsafe { _mm256_add_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        Avx(unsafe { _mm256_sub_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        Avx(unsafe { _mm256_mul_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        Avx(unsafe { _mm256_div_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn min(self, o: Self) -> Self {
        Avx(unsafe { _mm256_min_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        Avx(unsafe { _mm256_max_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        Avx(unsafe { _mm256_and_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn or(self, o: Self) -> Self {
        Avx(unsafe { _mm256_or_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn andnot(self, o: Self) -> Self {
        Avx(unsafe { _mm256_andnot_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn eq_mask(self, o: Self) -> Self {
        Avx(unsafe { _mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn ne_mask(self, o: Self) -> Self {
        Avx(unsafe { _mm256_cmp_ps::<_CMP_NEQ_UQ>(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn lt_mask(self, o: Self) -> Self {
        Avx(unsafe { _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn select(self, a: Self, b: Self) -> Self {
        Avx(unsafe { _mm256_blendv_ps(b.0, a.0, self.0) })
    }
    #[inline(always)]
    unsafe fn scale_pow2(self, magic: Self) -> Self {
        unsafe {
            let (p, m) = (self.0, magic.0);
            let lo = scale_pow2_sse2(_mm256_castps256_ps128(p), _mm256_castps256_ps128(m));
            let hi = scale_pow2_sse2(_mm256_extractf128_ps::<1>(p), _mm256_extractf128_ps::<1>(m));
            Avx(_mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi))
        }
    }
    #[inline(always)]
    unsafe fn biased_exponent(self) -> Self {
        unsafe {
            let lo = biased_exponent_sse2(_mm256_castps256_ps128(self.0));
            let hi = biased_exponent_sse2(_mm256_extractf128_ps::<1>(self.0));
            Avx(_mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi))
        }
    }
    #[inline(always)]
    unsafe fn trunc(self) -> Self {
        Avx(unsafe { _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(self.0) })
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        Avx(unsafe { _mm256_sqrt_ps(self.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes8 for Avx {
    #[inline(always)]
    unsafe fn load_transposed(rows: &[f32], stride: usize, col: usize) -> [Self; 8] {
        assert!(7 * stride + col + 8 <= rows.len(), "8 x 8 block out of bounds");
        // Rows `r` and `r + 4` share a register, one per 128-bit half, so
        // a 4 × 4 transpose inside each half (`unpck`, then `shufps`) is
        // the whole 8 × 8 transpose — no cross-half shuffle. (Plain loops,
        // no closures: a closure would not inherit the kernel entry's
        // target feature, and its intrinsics would stay calls.)
        let mut out = [unsafe { Self::zero() }; 8];
        for q in 0..2 {
            let mut m = [unsafe { _mm256_setzero_ps() }; 4];
            for (r, m) in m.iter_mut().enumerate() {
                // SAFETY: rows `r` and `r + 4 ≤ 7`, columns up to `col + 8`:
                // inside `rows` by the assert above.
                *m = unsafe {
                    let at = rows.as_ptr().add(r * stride + col + 4 * q);
                    let lo = _mm256_castps128_ps256(_mm_loadu_ps(at));
                    _mm256_insertf128_ps::<1>(lo, _mm_loadu_ps(at.add(4 * stride)))
                };
            }
            unsafe {
                let (t0, t1) = (_mm256_unpacklo_ps(m[0], m[1]), _mm256_unpackhi_ps(m[0], m[1]));
                let (t2, t3) = (_mm256_unpacklo_ps(m[2], m[3]), _mm256_unpackhi_ps(m[2], m[3]));
                out[4 * q] = Avx(_mm256_shuffle_ps::<0x44>(t0, t2));
                out[4 * q + 1] = Avx(_mm256_shuffle_ps::<0xEE>(t0, t2));
                out[4 * q + 2] = Avx(_mm256_shuffle_ps::<0x44>(t1, t3));
                out[4 * q + 3] = Avx(_mm256_shuffle_ps::<0xEE>(t1, t3));
            }
        }
        out
    }
}

/// Sixteen lanes in one AVX-512 register (AVX-512F only).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx512(__m512);

// SAFETY (every method): as for the `Lanes` methods below, the caller
// knows the CPU supports AVX-512F, the register-only intrinsics' only
// requirement.
#[cfg(target_arch = "x86_64")]
impl Avx512 {
    /// All ones in the lanes `k` sets, zeros elsewhere — a compare's
    /// `__mmask16` as the lane mask `Lanes` works with.
    #[inline(always)]
    unsafe fn widen(k: __mmask16) -> Self {
        Avx512(unsafe { _mm512_castsi512_ps(_mm512_maskz_set1_epi32(k, -1)) })
    }

    /// The lanes' bits as integers (AVX-512F has no `ps` bit operations).
    #[inline(always)]
    unsafe fn int(self) -> __m512i {
        unsafe { _mm512_castps_si512(self.0) }
    }

    /// Integer lanes as `f32` bits.
    #[inline(always)]
    unsafe fn from_int(v: __m512i) -> Self {
        Avx512(unsafe { _mm512_castsi512_ps(v) })
    }

    /// The mask of the first `n ≤ 16` lanes.
    #[inline(always)]
    fn first(n: usize) -> __mmask16 {
        assert!(n <= 16, "at most sixteen lanes");
        ((1u32 << n) - 1) as __mmask16
    }
}

// SAFETY (every method): the trait's contract — the caller knows the CPU
// supports AVX-512F — is the intrinsics' only requirement; the loads and
// the stores additionally slice their sixteen elements first, or mask
// their accesses to the `n ≤ 16` elements of the slice (`first` asserts
// the bound; a masked-off lane is neither read nor written, and cannot
// fault), so every access stays in-bounds.
#[cfg(target_arch = "x86_64")]
impl Lanes for Avx512 {
    const LANES: usize = 16;

    #[inline(always)]
    unsafe fn zero() -> Self {
        Avx512(unsafe { _mm512_setzero_ps() })
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        Avx512(unsafe { _mm512_set1_ps(v) })
    }
    #[inline(always)]
    unsafe fn load(s: &[f32]) -> Self {
        let s = &s[..16];
        Avx512(unsafe { _mm512_loadu_ps(s.as_ptr()) })
    }
    #[inline(always)]
    unsafe fn store(self, d: &mut [f32]) {
        let d = &mut d[..16];
        unsafe { _mm512_storeu_ps(d.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    unsafe fn load_first(s: &[f32]) -> Self {
        Avx512(unsafe { _mm512_maskz_loadu_ps(Self::first(s.len()), s.as_ptr()) })
    }
    #[inline(always)]
    unsafe fn store_first(self, d: &mut [f32]) {
        unsafe { _mm512_mask_storeu_ps(d.as_mut_ptr(), Self::first(d.len()), self.0) }
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        Avx512(unsafe { _mm512_add_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        Avx512(unsafe { _mm512_sub_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        Avx512(unsafe { _mm512_mul_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        Avx512(unsafe { _mm512_div_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn min(self, o: Self) -> Self {
        Avx512(unsafe { _mm512_min_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        Avx512(unsafe { _mm512_max_ps(self.0, o.0) })
    }
    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        unsafe { Self::from_int(_mm512_and_si512(self.int(), o.int())) }
    }
    #[inline(always)]
    unsafe fn or(self, o: Self) -> Self {
        unsafe { Self::from_int(_mm512_or_si512(self.int(), o.int())) }
    }
    #[inline(always)]
    unsafe fn andnot(self, o: Self) -> Self {
        unsafe { Self::from_int(_mm512_andnot_si512(self.int(), o.int())) }
    }
    #[inline(always)]
    unsafe fn eq_mask(self, o: Self) -> Self {
        unsafe { Self::widen(_mm512_cmp_ps_mask::<_CMP_EQ_OQ>(self.0, o.0)) }
    }
    #[inline(always)]
    unsafe fn ne_mask(self, o: Self) -> Self {
        unsafe { Self::widen(_mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(self.0, o.0)) }
    }
    #[inline(always)]
    unsafe fn lt_mask(self, o: Self) -> Self {
        unsafe { Self::widen(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(self.0, o.0)) }
    }
    #[inline(always)]
    unsafe fn select(self, a: Self, b: Self) -> Self {
        // One `vpternlogd`: 0xCA is the truth table of `mask ? a : b`.
        unsafe { Self::from_int(_mm512_ternarylogic_epi32::<0xCA>(self.int(), a.int(), b.int())) }
    }
    #[inline(always)]
    unsafe fn scale_pow2(self, magic: Self) -> Self {
        let n = unsafe { _mm512_slli_epi32::<23>(magic.int()) };
        unsafe { Self::from_int(_mm512_add_epi32(self.int(), n)) }
    }
    #[inline(always)]
    unsafe fn biased_exponent(self) -> Self {
        Avx512(unsafe { _mm512_cvtepi32_ps(_mm512_srli_epi32::<23>(self.int())) })
    }
    #[inline(always)]
    unsafe fn trunc(self) -> Self {
        // `roundscale` with zero fraction bits and round-toward-zero is
        // `trunc`, the sign of a zero result kept.
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        Avx512(unsafe { _mm512_roundscale_ps::<TRUNC>(self.0) })
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        Avx512(unsafe { _mm512_sqrt_ps(self.0) })
    }
}

/// Test support for the cross-tier checks: hostile inputs, and one
/// assertion that every tier this CPU runs returns the same bits.
#[cfg(test)]
pub(crate) mod tiers {
    use super::Tier;

    /// Row lengths every cross-tier test covers: each `len % 16` in
    /// `1..=15`, whole vectors, and both together.
    pub(crate) const LENGTHS: [usize; 21] =
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 40, 64, 79];

    /// Values a lane-independent kernel must carry on every tier exactly
    /// as the scalar code does: NaN, both infinities, both zeros,
    /// subnormals, the Q16.16 clamp edges and their neighbours, and the
    /// largest finite values.
    pub(crate) const HOSTILE: [f32; 16] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        f32::from_bits(1),
        -1.0e-40,
        f32::MIN_POSITIVE,
        32_767.998,
        32_768.0,
        -32_768.0,
        -32_768.004,
        0.5 / 65_536.0,
        -1.5 / 65_536.0,
        f32::MAX,
        f32::MIN,
    ];

    /// `len` seeded values: mostly soft values in `(-1, 1)`, and one in
    /// four drawn from [`HOSTILE`].
    pub(crate) fn hostile_row(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..len)
            .map(|_| {
                let r = next();
                if r % 4 == 0 {
                    HOSTILE[(r >> 8) as usize % HOSTILE.len()]
                } else {
                    (r >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                }
            })
            .collect()
    }

    /// Asserts that `body`, run on every tier this CPU runs, returns the
    /// bits `want` (the scalar reference's): every number `to_bits`
    /// equal, and a NaN wherever the reference has one — its payload and
    /// sign are no kernel's contract (which operand of a commutative
    /// `+`/`×` an instruction takes its NaN from is the compiler's
    /// choice, per instruction set).
    pub(crate) fn assert_same_bits(what: &str, want: Vec<u32>, body: impl Fn(Tier) -> Vec<u32>) {
        let nan = |b: u32| b & 0x7fff_ffff > 0x7f80_0000;
        for tier in Tier::available() {
            let got = body(tier);
            assert_eq!(got.len(), want.len(), "{what}: {tier} output length");
            let differs = |i: usize| got[i] != want[i] && !(nan(got[i]) && nan(want[i]));
            if let Some(i) = (0..want.len()).find(|&i| differs(i)) {
                let (g, w) = (got[i], want[i]);
                panic!("{what}: {tier} differs at {i}: {g:#010x} vs reference {w:#010x}");
            }
        }
    }

    /// Prints, for a CI log, which tiers a check ran on — and, on a CPU
    /// that lacks one, that its body was skipped, never that it passed.
    pub(crate) fn report(check: &str) {
        let checked: Vec<String> =
            Tier::available().map(|t| format!("{} ({} lanes)", t.name(), t.lanes())).collect();
        println!("{check}: checked {}", checked.join(", "));
        for tier in Tier::ALL.into_iter().filter(|t| !t.is_available()) {
            println!(
                "{check}: SKIPPED the {} body ({} lanes): this CPU does not run it",
                tier.name(),
                tier.lanes()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QFormat;

    // SAFETY (every `unsafe` block of the three tests below): `F32x8` is
    // plain Rust, which every CPU runs.

    #[test]
    fn splat_load_store_round_trip() {
        let mut d = [0.0f32; 8];
        unsafe { F32x8::splat(3.5).store(&mut d) };
        assert_eq!(d, [3.5; 8]);
        let v = unsafe { F32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]) };
        assert_eq!(v.0[7], 8.0);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = unsafe { F32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]) };
        let b = unsafe { F32x8::splat(2.0) };
        assert_eq!(unsafe { a.add(b) }.0[0], 3.0);
        assert_eq!(unsafe { a.sub(b) }.0[0], -1.0);
        assert_eq!(unsafe { a.mul(b) }.0[3], 8.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn load_rejects_short_slices() {
        unsafe { F32x8::load(&[1.0; 7]) };
    }

    /// Values every op must get right in any lane: both zeros, fractions
    /// either side of ±½, the 2²³ edge where fractions stop, values past
    /// the `i32` range, the infinities and a NaN.
    const AWKWARD: [f32; 16] = [
        0.0,
        -0.0,
        0.3,
        -0.3,
        0.5,
        -1.5,
        8_388_607.5,
        -8_388_607.5,
        8_388_608.0,
        -16_777_216.0,
        3.0e9,
        -3.0e38,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
    ];

    fn mask(on: bool) -> u32 {
        if on { u32::MAX } else { 0 }
    }

    fn to_bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The lanes of `v`, as many as `V` has.
    fn lanes<V: Lanes>(v: V) -> Vec<f32> {
        let mut all = [0.0f32; 16];
        // SAFETY: the caller checked the CPU runs `V`.
        unsafe { v.store(&mut all) };
        all[..V::LANES].to_vec()
    }

    /// Every `Lanes` op of `V` against the scalar operation it stands
    /// for, each awkward value against each, rotated through the lanes.
    /// NaN results compare as "is NaN" (payloads are not part of any
    /// kernel's contract); everything else compares `to_bits`.
    fn check_ops<V: Lanes>(name: &str) {
        let n = V::LANES;
        let same = |got: Vec<f32>, want: Vec<f32>, op: &str| {
            for (g, w) in got.iter().zip(&want) {
                let equal = if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() };
                assert!(equal, "{name} {op}: {got:?} vs {want:?}");
            }
        };
        for shift in 0..AWKWARD.len() {
            let a: Vec<f32> = (0..n).map(|i| AWKWARD[(i + shift) % 16]).collect();
            for other in 0..AWKWARD.len() {
                let b: Vec<f32> = (0..n).map(|i| AWKWARD[(i * 3 + other) % 16]).collect();
                // SAFETY: the caller checked the CPU runs `V`.
                unsafe {
                    let (va, vb) = (V::load(&a), V::load(&b));
                    let zip = |f: fn(f32, f32) -> f32| -> Vec<f32> {
                        (0..n).map(|i| f(a[i], b[i])).collect()
                    };
                    same(lanes(va.add(vb)), zip(|x, y| x + y), "add");
                    same(lanes(va.sub(vb)), zip(|x, y| x - y), "sub");
                    same(lanes(va.mul(vb)), zip(|x, y| x * y), "mul");
                    same(lanes(va.div(vb)), zip(|x, y| x / y), "div");
                    same(lanes(V::mul_acc(vb, va, va)), zip(|x, y| y + x * x), "mul_acc");
                    same(lanes(va.min(vb)), zip(|x, y| if x < y { x } else { y }), "min");
                    same(lanes(va.max(vb)), zip(|x, y| if x > y { x } else { y }), "max");
                    let bit = |f: fn(f32, f32) -> u32| -> Vec<u32> {
                        (0..n).map(|i| f(a[i], b[i])).collect()
                    };
                    let bits = |v: V| -> Vec<u32> { to_bits(&lanes(v)) };
                    assert_eq!(bits(va.and(vb)), bit(|x, y| x.to_bits() & y.to_bits()), "{name} and");
                    assert_eq!(bits(va.or(vb)), bit(|x, y| x.to_bits() | y.to_bits()), "{name} or");
                    assert_eq!(bits(va.andnot(vb)), bit(|x, y| !x.to_bits() & y.to_bits()), "{name} andnot");
                    assert_eq!(bits(va.eq_mask(vb)), bit(|x, y| mask(x == y)), "{name} eq_mask");
                    assert_eq!(bits(va.ne_mask(vb)), bit(|x, y| mask(x != y)), "{name} ne_mask");
                    assert_eq!(bits(va.lt_mask(vb)), bit(|x, y| mask(x < y)), "{name} lt_mask");
                    let picked = bits(va.lt_mask(vb).select(va, vb));
                    assert_eq!(picked, bit(|x, y| (if x < y { x } else { y }).to_bits()), "{name} select");
                    let scaled = |x: f32, y: f32| x.to_bits().wrapping_add(y.to_bits() << 23);
                    assert_eq!(bits(va.scale_pow2(vb)), bit(scaled), "{name} scale_pow2");
                }
            }
            // SAFETY: as above.
            unsafe {
                let va = V::load(&a);
                let map = |f: fn(f32) -> f32| -> Vec<f32> { a.iter().map(|&x| f(x)).collect() };
                same(lanes(va.trunc()), map(f32::trunc), "trunc");
                same(lanes(va.sqrt()), map(f32::sqrt), "sqrt");
                let abs = va.and(V::splat(f32::from_bits(0x7fff_ffff)));
                let exponent = map(|x| ((x.to_bits() >> 23) % 256) as f32);
                same(lanes(abs.biased_exponent()), exponent, "biased_exponent");
                same(lanes(V::splat(a[0])), vec![a[0]; n], "splat");
                assert_eq!(to_bits(&lanes(V::zero())), vec![0; n], "{name} zero");
                // A prefix of every length in and out: the rest reads zero
                // and is left alone.
                for len in 0..=n {
                    let mut want = a[..len].to_vec();
                    want.resize(n, 0.0);
                    same(lanes(V::load_first(&a[..len])), want, "load_first");
                    let mut d = vec![-7.0f32; n + 1];
                    va.store_first(&mut d[..len]);
                    assert_eq!(to_bits(&d[..len]), to_bits(&a[..len]), "{name} store_first");
                    assert!(d[len..].iter().all(|&x| x == -7.0), "{name} store_first past {len}");
                }
            }
        }
    }

    /// `load_transposed` of `V` over every 8 × 8 block of a strided buffer.
    fn check_transpose<V: Lanes8>(name: &str) {
        let stride = 19;
        let rows: Vec<f32> = (0..9 * stride).map(|i| i as f32).collect();
        for first in 0..2 {
            for col in 0..=stride - 8 {
                // SAFETY: the caller checked the CPU runs `V`.
                let t = unsafe { V::load_transposed(&rows[first * stride..], stride, col) };
                for (c, v) in t.into_iter().enumerate() {
                    let want: [f32; 8] =
                        std::array::from_fn(|r| ((first + r) * stride + col + c) as f32);
                    assert_eq!(unsafe { v.to_array() }, want, "{name} first={first} col={col} c={c}");
                }
            }
        }
    }

    #[test]
    fn lanes_ops_are_the_scalar_operations_on_both_instruction_sets() {
        check_ops::<F32x8>("F32x8");
        check_transpose::<F32x8>("F32x8");
        #[cfg(target_arch = "x86_64")]
        if Tier::Avx.is_available() {
            check_ops::<Avx>("Avx");
            check_transpose::<Avx>("Avx");
        }
        #[cfg(target_arch = "x86_64")]
        if Tier::Avx512.is_available() {
            check_ops::<Avx512>("Avx512");
        }
    }

    #[test]
    fn tiers_are_ordered_by_width_and_the_detected_one_runs() {
        assert_eq!(Tier::available().next(), Some(Tier::Portable), "F32x8 runs everywhere");
        assert_eq!(Tier::available().last(), Some(Tier::detected()));
        assert_eq!(Tier::ALL.map(Tier::lanes), [8, 8, 16]);
        assert_eq!(Tier::ALL.map(|t| t.to_string()), ["F32x8", "Avx", "Avx512"]);
        if let Some(missing) = Tier::ALL.into_iter().find(|t| !t.is_available()) {
            let run = || QFormat::q16_16().quantize_slice_on(missing, &mut [1.0]);
            let refused = std::panic::catch_unwind(run);
            assert!(refused.is_err(), "{missing} ran on a CPU without it");
        }
    }

    #[test]
    #[should_panic(expected = "8 x 8 block out of bounds")]
    fn load_transposed_rejects_a_block_past_the_buffer() {
        // Seven full rows and seven values of the eighth.
        let rows = [0.0f32; 7 * 10 + 7];
        // SAFETY: `F32x8` is plain Rust, which every CPU runs.
        unsafe { F32x8::load_transposed(&rows, 10, 0) };
    }
}
